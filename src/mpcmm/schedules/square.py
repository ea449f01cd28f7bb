"""Square n x n multiplication on a g x g grid, one barrier per block step.

The grid side is g = ceil(n**(alpha/2)); processor (i, j) owns the
output block C[i, j] and the input blocks A[i, j], B[i, j] of side
n / g.  Block pairs travel through a skewed rotation: in consumption
slot s, processor (i, j) multiplies A[i, x] with B[x, j] for
x = (i + j + s) mod g, then passes the A block one grid column left and
the B block one grid row up.  The skew means every block has exactly
one consumer per slot, so each processor sends and receives at most two
blocks per round instead of broadcasting.

Round count: the rotation's distribution round ships each block from
its owner to its slot-0 consumer (``rotation_fragment`` picks that
consumer) as one gather source, whose units are its rows of n / g
words; slots 0..g-2 occupy rounds 2..g, and the last slot runs in the
trailing local step after the final barrier, giving exactly g rounds.
A processor's footprint never exceeds three blocks (its accumulator
plus the pair in flight), which fits the default budget of 4 * tile**2
words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import MpcConfig
from ..matrix import DenseMatrix, pad_to_multiple
from ..bounds import snapped
from ..plan import Plan, PlanProgram
from ..semiring import SemiringSpec
from .common import Schedule, rotation_fragment


@dataclass(frozen=True)
class ProblemShape:
    """Dimensions of one run: n and alpha."""

    n: int
    alpha: float = 1.0

    def __post_init__(self):
        if not 0 <= self.alpha <= 2:
            raise ValueError("alpha must lie in [0, 2]")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def grid(self) -> int:
        return max(snapped(self.n ** (self.alpha / 2)), 1)

    @property
    def padded_n(self) -> int:
        return -(-self.n // self.grid) * self.grid

    @property
    def tile(self) -> int:
        return self.padded_n // self.grid

    @property
    def processors(self) -> int:
        return self.grid * self.grid

    @property
    def memory(self) -> int:
        return self.tile * self.tile


def square_rounds_upper(shape: ProblemShape, redistribute: bool = False) -> int:
    """Exact barrier count the square schedule produces."""
    g = shape.grid
    return g + (1 if redistribute and g > 1 else 0)


def schedule_square(
    shape: ProblemShape,
    a: DenseMatrix,
    b: DenseMatrix,
    spec: SemiringSpec,
    redistribute: bool = False,
) -> Schedule:
    """Build the grid program; inputs start block-aligned at their owners.

    With ``redistribute`` the inputs start transposed (processor (i, j)
    holds blocks (j, i)) and one extra round moves them home first,
    demonstrating that any balanced starting layout converts in a single
    exchange.  A single-processor run has nothing to move, so the flag
    is ignored at g = 1.
    """
    n = shape.n
    if a.rows != n or a.cols != n or b.rows != n or b.cols != n:
        raise ValueError(f"inputs must be {n}x{n}")
    g, t = shape.grid, shape.tile
    # Pad to the full grid extent g * t, which can exceed the next tile
    # multiple when ceil(n / g) rounds up.
    a = pad_to_multiple(a, shape.padded_n, spec)
    b = pad_to_multiple(b, shape.padded_n, spec)

    rounds = square_rounds_upper(shape, redistribute)
    shift = rounds - g  # 1 if a redistribution round comes first
    plan = Plan(num_procs=g * g, num_rounds=rounds, min_memory=t * t)
    proc = lambda i, j: i * g + j

    def block(m, i, j):
        return m.data[i * t : (i + 1) * t, j * t : (j + 1) * t]

    cells = [divmod(p, g) for p in range(g * g)]
    # processor (i, j) holds blocks (i, j), or (j, i) in a transposed start
    keys = [(m, *((j, i) if shift else (i, j))) for i, j in cells for m in "AB"]
    for k, (m, i, j) in enumerate(keys):
        plan.set_init(k // 2, (m, i, j), block(a if m == "A" else b, i, j))
    plan.emit(range(g * g), [("C", i, j) for i, j in cells], [i * t for i, _ in cells],
              [j * t for _, j in cells])
    if shift:
        # One Scatter moves each block home, from processor (i, j) to (j, i),
        # in round 1 and hands it in there in round 2, before the gather.
        holders = [p for p in range(g * g) for _ in "AB"]
        plan.scatter(1, (t, t), holders, keys, [proc(p % g, p // g) for p in holders],
                     range(len(keys)), keys)

    # Each block is one source, held by its owner, that the rotation moves
    # to its slot-0 consumer in round 1 + shift, one t-word row per unit;
    # the last slot lands in the trailing local step, one round past the end.
    sources = [(proc(i, j), (m, i, j), (t, t), True) for i, j in cells for m in "AB"]

    def tiles(_, i, j, x):  # block (i, j) of A is source 2 * proc(i, j), of B the next
        src = 2 * proc(i, x)[:, None, None], 2 * proc(x, j)[:, None, None] + 1
        return sources, src, (np.arange(t)[:, None],) * 2, t

    rotation_fragment(plan, [[[proc(i, j) for j in range(g)] for i in range(g)]], tiles,
                      lambda _, i, j: ("C", i, j), 2 + shift, t)

    config = MpcConfig(g * g, shape.memory)
    program = PlanProgram(plan, spec)
    return Schedule(
        program,
        config,
        shape.padded_n,
        shape.padded_n,
        n,
        n,
        meta={"grid": g, "tile": t},
    )
