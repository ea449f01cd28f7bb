"""Shared glue between schedule builders, the engine and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..engine import MpcConfig, RunResult, run
from ..matrix import DenseMatrix
from ..plan import Gather, PlanProgram, Rotate, assemble_output


def chunks(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def rotation_fragment(plan, grid, proc, parts, c_key, first_round, side):
    """Skewed block rotation (Cannon, 1969) on a grid x grid processor block.

    In slot s, run in round ``first_round + s``, processor ``proc(i, j)``
    accumulates A tile (i, x) times B tile (x, j) into ``c_key(i, j)`` for
    x = (i + j + s) mod grid, then (except in the last slot) passes the A
    tile one grid column left and the B tile one grid row up.  The skew
    gives every tile exactly one consumer per slot.  ``parts(i, j, x)``
    gives the pieces of the tiles of slot 0 where the caller keeps them,
    as ``((a_pieces, a_axis), (b_pieces, b_axis))`` with each piece a
    ``(holder, key, recipe)``; one :class:`~mpcmm.plan.Gather` in round
    ``first_round - 1`` reads them all.  Each slot is one
    :class:`~mpcmm.plan.Rotate` over the grid**2 processors, stack row
    i * grid + j; C tiles reach the stores after the last slot.
    """
    cells = [(i, j) for i in range(grid) for j in range(grid)]
    procs = np.array([proc(i, j) for i, j in cells], dtype=np.int64)
    c_keys = tuple(c_key(i, j) for i, j in cells)
    row_i, row_j = np.divmod(np.arange(grid * grid), grid)
    a_to = row_i * grid + (row_j - 1) % grid
    b_to = (row_i - 1) % grid * grid + row_j
    frag = plan.fragment()
    plan.add_group(first_round - 1,
                   Gather(frag, procs, side, tuple(parts(i, j, (i + j) % grid) for i, j in cells)))
    for s in range(grid):
        last = s == grid - 1
        plan.add_group(first_round + s, Rotate(frag, procs, side, None if last else a_to,
                                               None if last else b_to, c_keys if last else None))


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

    def machine(self, cap_factor=None) -> MpcConfig:
        """The machine a run simulates: the built one, with ``cap_factor`` if given."""
        return self.config if cap_factor is None else replace(self.config, cap_factor=cap_factor)

    def execute(self, cap_factor=None) -> tuple[RunResult, DenseMatrix]:
        result = run(self.program, self.machine(cap_factor))
        data = assemble_output(result.outputs, self.out_rows, self.out_cols, self.program.spec)
        full = DenseMatrix(self.out_rows, self.out_cols, data)
        if (self.crop_rows, self.crop_cols) != (self.out_rows, self.out_cols):
            full = DenseMatrix(
                self.crop_rows, self.crop_cols, full.data[: self.crop_rows, : self.crop_cols].copy()
            )
        return result, full
