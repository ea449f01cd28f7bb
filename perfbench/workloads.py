"""The benchmark's named workloads: lists of experiment configs run back to back.

Each workload puts most of its host time on different layers, so that an
optimisation of one layer shows on one workload and is predicted to be a
no-op on another (see README.md for the predictions).  The seed reaches
the package only through ``ExperimentConfig.seed``.
"""

from __future__ import annotations

from mpcmm.experiment import ExperimentConfig

DEFAULT_SEED = 1
# Not used while the benchmark or a change is tuned; re-check a claimed
# gain with ``--seed 2718`` before accepting it.
HELD_OUT_SEED = 2718

# Two small configs run in every workload so that every builder (the sparse
# decomposition and the rectangular tree-sum fragment) is timed on each
# workload; together they cost about 0.02 s of host time per pass.
_COVERAGE = (
    dict(case="sparse-twophase", n=16, d=4, semiring="int", instance="blockdiag"),
    dict(case="dnd-n", n=16, d=4, semiring="bool"),
)

_WORKLOADS = {
    "grid-fine": (
        "many processors with 1x1 to 8x8 tiles: the plan interpreter and "
        "the engine carry the load, the tile kernels almost none",
        (
            dict(case="square", n=32, alpha=2.0, semiring="bool"),
            dict(case="dnd-n", n=512, d=64, semiring="tropical"),
            dict(case="dnd-d", n=256, d=64, semiring="int"),
            dict(case="ndn", n=144, d=64, semiring="int"),
        ),
    ),
    "tile-coarse": (
        "25 processors with about 90x90 tiles on all three semirings: the "
        "tile kernels and the oracle carry the load",
        (
            dict(case="square", n=448, alpha=0.5, semiring="int"),
            dict(case="square", n=448, alpha=0.5, semiring="bool"),
            dict(case="square", n=448, alpha=0.5, semiring="tropical"),
        ),
    ),
    "sparse": (
        "d-sparse inputs: instance generation and the sparse builders "
        "carry the load; scalar ops and 1-word messages in execution",
        (
            dict(case="sparse-trivial", n=384, d=16, semiring="int", instance="random"),
            dict(case="sparse-twophase", n=384, d=16, semiring="tropical", instance="blockdiag"),
            dict(case="sparse-twophase", n=384, d=16, semiring="bool", instance="random"),
            # Block-diagonal input where the greedy fetch exceeds its load
            # bound; its 18 rounds do not depend on the seed.
            dict(case="sparse-trivial", n=64, d=16, semiring="int", instance="blockdiag"),
        ),
    ),
}

NAMES = tuple(_WORKLOADS)


def configs(name: str, seed: int) -> list[ExperimentConfig]:
    """The workload's configs, in run order, all carrying ``seed``."""
    main = _WORKLOADS[name][1]
    return [ExperimentConfig(seed=seed, **fields) for fields in main + _COVERAGE]
