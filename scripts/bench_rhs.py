#!/usr/bin/env python3
"""Time the network right-hand side ``dynamics.rhs`` per state evaluated.

Builds a ring Laplacian (neighbour radius 10) at n = 100, 1000 and 4000 and
evaluates ``rhs`` with the default model parameters on a batch of B
perturbed coexistence states, for B = 1 and B = 6 (the number of seeds a
``simulate-ring400`` benchmark command integrates together).  Prints, as
JSON, the median microseconds per call divided by B: the cost of one
state's derivative.  BLAS runs on one thread so that the numbers do not
depend on the host's core count; each median is taken over seven batches
of calls.

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
BATCHES = (1, 6)
RING_K = 10
REPEATS = 7


def time_rhs(n: int, batch: int) -> float:
    """Median microseconds per state of one ``rhs`` call on ``batch`` states of an n-node ring."""
    lap = build_laplacian(gen_ring(n, RING_K))
    eq = equilibrium(DEFAULT_SKT_PARAMS)
    states = [perturb_homogeneous(eq, n, 1e-2, seed=s) for s in range(batch)]
    y = np.stack([np.stack((s.u, s.v)) for s in states])
    timer = timeit.Timer(lambda: rhs(y, DEFAULT_SKT_PARAMS, lap))
    number, _ = timer.autorange()  # calls per batch so that a batch takes >= 0.2 s
    batches = timer.repeat(repeat=REPEATS, number=number)
    return float(np.median(batches)) / number / batch * 1e6


def main() -> None:
    result = {
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "k": RING_K,
        "median_us_per_state": {
            f"B={batch}": {str(n): round(time_rhs(n, batch), 2) for n in SIZES} for batch in BATCHES
        },
    }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
