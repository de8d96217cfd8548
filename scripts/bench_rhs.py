#!/usr/bin/env python3
"""Time one evaluation of the network right-hand side ``dynamics.rhs``.

Builds a ring Laplacian (neighbour radius 10) at n = 100, 1000 and 4000,
evaluates ``rhs`` at a perturbed coexistence state with the default model
parameters, and prints the median microseconds per call as JSON.  BLAS runs
on one thread so that the numbers do not depend on the host's core count;
each median is taken over seven batches of calls.

Usage: ``PYTHONPATH=src python3 scripts/bench_rhs.py``
"""

import os

# must be set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import timeit

import numpy as np

from crossnet import DEFAULT_SKT_PARAMS, build_laplacian, equilibrium, gen_ring, perturb_homogeneous, rhs

SIZES = (100, 1000, 4000)
RING_K = 10
REPEATS = 7


def time_rhs(n: int) -> float:
    """Median microseconds of one ``rhs`` call on an n-node ring."""
    lap = build_laplacian(gen_ring(n, RING_K))
    state = perturb_homogeneous(equilibrium(DEFAULT_SKT_PARAMS), n, 1e-2, seed=0)
    timer = timeit.Timer(lambda: rhs(state.u, state.v, DEFAULT_SKT_PARAMS, lap))
    number, _ = timer.autorange()  # calls per batch so that a batch takes >= 0.2 s
    batches = timer.repeat(repeat=REPEATS, number=number)
    return float(np.median(batches)) / number * 1e6


def main() -> None:
    result = {
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "k": RING_K,
        "median_us_per_call": {str(n): round(time_rhs(n), 2) for n in SIZES},
    }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
