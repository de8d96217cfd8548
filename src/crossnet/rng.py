"""Deterministic seeding helpers.

All randomness in the package flows through numpy Generators seeded from
``SeedSequence`` objects built out of integer key tuples, so a given
(spec, master seed) pair reproduces bit-identical results across runs and
platforms.  Per-realization seeds are derived by mixing the master seed
with the realization index instead of incrementing it, which keeps
distinct ensembles statistically independent.
"""
from __future__ import annotations

import numpy as np

from .errors import require_int

_MAX_SEED = 2**64


def check_seed(seed: int) -> int:
    require_int("seed", seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _sequence(keys: tuple[int, ...]) -> np.random.SeedSequence:
    # SeedSequence zero-pads its entropy, so (1,) and (1, 0) would collide;
    # prefixing the key count keeps tuples of different lengths distinct
    return np.random.SeedSequence([len(keys)] + [check_seed(k) for k in keys])


def rng_from(*keys: int) -> np.random.Generator:
    """Generator seeded from a tuple of non-negative integer keys."""
    return np.random.default_rng(_sequence(keys))


def derive_seed(*keys: int) -> int:
    """Mix integer keys into a single derived 64-bit seed."""
    return int(_sequence(keys).generate_state(1, np.uint64)[0])
