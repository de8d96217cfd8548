#!/usr/bin/env python3
"""Time the network right-hand side ``dynamics.rhs`` per state evaluated.

Builds a ring Laplacian (neighbour radius 10) at n = 100, 1000 and 4000 and
evaluates ``rhs`` with the default model parameters on a batch of B
perturbed coexistence states, for B = 1 and B = 6 (the number of seeds a
``simulate-ring400`` benchmark command integrates together).  Each size is
timed twice: with the operator ``simulate_skt`` applies
(``laplacian_operator``, whose pick is printed as ``form``) and with the
dense matrix.  Prints, as JSON, the median microseconds per call divided by
B: the cost of one state's derivative.  BLAS runs on one thread so that the
numbers do not depend on the host's core count; each median is taken over
seven batches of calls.

Usage: ``PYTHONPATH=src python3 scripts/bench_rhs.py``
"""

import os

# must be set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import timeit

import numpy as np

from crossnet import (
    DEFAULT_SKT_PARAMS,
    build_laplacian,
    equilibrium,
    gen_ring,
    laplacian_operator,
    perturb_homogeneous,
    rhs,
)

SIZES = (100, 1000, 4000)
BATCHES = (1, 6)
RING_K = 10
REPEATS = 7


def time_rhs(lap, batch: int) -> float:
    """Median microseconds per state of one ``rhs`` call on ``batch`` states, Laplacian applied as ``lap``."""
    n = lap.shape[0]
    eq = equilibrium(DEFAULT_SKT_PARAMS)
    states = [perturb_homogeneous(eq, n, 1e-2, seed=s) for s in range(batch)]
    y = np.stack([np.stack((s.u, s.v)) for s in states])
    timer = timeit.Timer(lambda: rhs(y, DEFAULT_SKT_PARAMS, lap))
    number, _ = timer.autorange()  # calls per batch so that a batch takes >= 0.2 s
    batches = timer.repeat(repeat=REPEATS, number=number)
    return float(np.median(batches)) / number / batch * 1e6


def main() -> None:
    sizes = {}
    for n in SIZES:
        lap = build_laplacian(gen_ring(n, RING_K))
        op = laplacian_operator(lap)
        row = {"form": "dense" if op is lap else type(op).__name__}
        for batch in BATCHES:
            row[f"B={batch}"] = round(time_rhs(op, batch), 2)
            row[f"B={batch} dense"] = round(time_rhs(lap, batch), 2)
        sizes[str(n)] = row
    result = {
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "k": RING_K,
        "median_us_per_state": sizes,
    }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
