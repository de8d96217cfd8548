"""Text output shared by the file writers.

Every table is written by ``write_table``, every float cell as ``%.17g``:
17 significant digits round-trip every IEEE double exactly, which keeps
regenerated output files byte-stable for regression diffs.
"""
import itertools
import json

import numpy as np

_BLOCK = 1 << 12  # values formatted per % operation; a block's text is about 90 kB


def write_table(path, header: str, row: str, rows) -> None:
    """The line ``header``, then each of ``rows`` as a line through the ``%``
    template ``row``, which has one conversion per value and ``%.17g`` for
    each float.  ``rows`` is a 2-D array or an iterable of value sequences,
    formatted in blocks of about ``_BLOCK`` values, so the file's whole text
    is never held in memory."""
    width = row.count("%")
    per_block = max(1, _BLOCK // width)
    if isinstance(rows, np.ndarray):  # sliced, so no object is made per row
        blocks = (rows[i:i + per_block].ravel().tolist() for i in range(0, len(rows), per_block))
    else:
        rows = iter(rows)
        blocks = iter(lambda: [*itertools.chain.from_iterable(itertools.islice(rows, per_block))], [])
    line = row + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for values in blocks:
            fh.write(line * (len(values) // width) % tuple(values))


def write_json(path, doc) -> None:
    """``doc`` as JSON indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
