"""Shared glue between schedule builders, the engine and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import MpcConfig, RunResult, run
from ..matrix import DenseMatrix
from ..plan import Assemble, Drop, Mac, PlanProgram, Send, assemble_output


def chunks(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def place(plan, round_no, src, dst, op):
    """Run ``op`` at ``src``, then move the tile it makes to ``dst``."""
    plan.add(round_no, src, op)
    if dst != src:
        plan.add(round_no, src, Send(dst, (op.dst,)), Drop((op.dst,)))


def rotation_fragment(plan, grid, proc, a_key, b_key, c_key, first_round, parts=None):
    """Skewed block rotation (Cannon, 1969) on a grid x grid processor block.

    In slot s, run in round ``first_round + s``, processor ``proc(i, j)``
    accumulates ``a_key(i, x) @ b_key(x, j)`` into ``c_key(i, j)`` for
    x = (i + j + s) mod grid, then (except in the last slot) passes the A
    tile one grid column left and the B tile one grid row up, and drops
    both.  The skew gives every tile exactly one consumer per slot.  The
    slot-0 tiles must already sit at their consumers; with ``parts``, slot
    0 first assembles them there from pieces: ``parts(i, j, x)`` returns
    ``((a_pieces, a_axis), (b_pieces, b_axis))``.
    """
    for i in range(grid):
        for j in range(grid):
            p, c = proc(i, j), c_key(i, j)
            left, up = proc(i, (j - 1) % grid), proc((i - 1) % grid, j)
            for s in range(grid):
                x = (i + j + s) % grid
                akey, bkey = a_key(i, x), b_key(x, j)
                ops = []
                if s == 0 and parts is not None:
                    (a_pieces, a_axis), (b_pieces, b_axis) = parts(i, j, x)
                    ops += [
                        Assemble(akey, a_pieces, a_axis),
                        Assemble(bkey, b_pieces, b_axis),
                        Drop(a_pieces + b_pieces),
                    ]
                ops.append(Mac(c, akey, bkey))
                if s < grid - 1:
                    ops += [Send(left, (akey,)), Send(up, (bkey,))]
                ops.append(Drop((akey, bkey)))
                plan.add(first_round + s, p, *ops)


@dataclass
class Schedule:
    """A runnable program plus the machine shape it was built for."""

    program: PlanProgram
    config: MpcConfig
    out_rows: int
    out_cols: int
    crop_rows: int
    crop_cols: int
    meta: dict = field(default_factory=dict)
    mask: object = None  # OutputMask for the sparse schedules

    def execute(self, cap_factor=None) -> tuple[RunResult, DenseMatrix]:
        config = self.config
        if cap_factor is not None:
            config = MpcConfig(config.processors, config.memory, cap_factor, config.max_rounds)
        result = run(self.program, config)
        data = assemble_output(result.outputs, self.out_rows, self.out_cols, self.program.spec)
        full = DenseMatrix(self.out_rows, self.out_cols, data)
        if (self.crop_rows, self.crop_cols) != (self.out_rows, self.out_cols):
            full = DenseMatrix(
                self.crop_rows, self.crop_cols, full.data[: self.crop_rows, : self.crop_cols].copy()
            )
        return result, full
