"""Text output shared by the file writers.

17 significant digits round-trips every IEEE double exactly, which keeps
regenerated output files byte-stable for regression diffs.
"""
import json


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def write_json(path, doc) -> None:
    """``doc`` as JSON indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
