"""Layer microbenchmarks through public functions only.

* ``semiring.<carrier>.matmul_t<side>_us``: one square tile product with
  the carrier's ``matmul`` kernel, in microseconds per call.
* ``engine.empty_barrier_us``: ``engine.run`` on a program whose handlers
  do nothing, in microseconds per processor-round.

Inputs are fixed (not derived from the workload seed): the kernels' cost
does not depend on the values, only on the carrier and the tile side.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from mpcmm.engine import MpcConfig, Program, run
from mpcmm.instances import random_dense
from mpcmm.semiring import builtin_semirings

TILE_SIDES = (8, 32, 128)
# Each figure is the median of REPEATS timings, each over enough calls to
# last about TARGET_S seconds.
REPEATS = 5
TARGET_S = 0.01
BARRIER_PROCS = 64
BARRIER_ROUNDS = 16


class _EmptyProgram(Program):
    num_procs = BARRIER_PROCS
    total_rounds = BARRIER_ROUNDS


def _median_per_call(fn, calls):
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _calls_for(fn):
    """Enough calls that one timing lasts about TARGET_S."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    return max(1, int(TARGET_S / max(once, 1e-7)))


def microbenchmarks() -> dict:
    """Metric name -> microseconds."""
    rng = np.random.default_rng(0)
    out = {}
    for spec in builtin_semirings():
        for side in TILE_SIDES:
            a = random_dense(side, side, spec, rng).data
            b = random_dense(side, side, spec, rng).data

            def product(a=a, b=b, matmul=spec.matmul):
                matmul(a, b)

            seconds = _median_per_call(product, _calls_for(product))
            out[f"semiring.{spec.name}.matmul_t{side}_us"] = seconds * 1e6

    program = _EmptyProgram()
    config = MpcConfig(BARRIER_PROCS, 1)

    def barrier():
        run(program, config)

    seconds = _median_per_call(barrier, _calls_for(barrier))
    out["engine.empty_barrier_us"] = seconds * 1e6 / (BARRIER_PROCS * BARRIER_ROUNDS)
    return out
