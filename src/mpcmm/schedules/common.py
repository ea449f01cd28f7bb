"""Shared glue between schedule builders, the engine and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..engine import MpcConfig, RunResult, run
from ..matrix import DenseMatrix
from ..plan import Drop, PlanProgram, Rotate, Send, assemble_output


def chunks(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def place(plan, round_no, holder, dst, key, make):
    """Run ``make``, if given, at ``holder`` to create ``key``; then move it to ``dst``."""
    if make is not None:
        plan.add(round_no, holder, make)
    if dst != holder:
        plan.add(round_no, holder, Send(dst, (key,)), Drop((key,)))


def distribute(plan, grid, proc, parts, round_no):
    """The distribution round of a rotation: each slot-0 piece to its consumer.

    Processor ``proc(i, j)`` first consumes A tile (i, x) and B tile (x, j)
    for x = (i + j) mod grid.  ``parts(i, j, x)`` returns their pieces as
    ``((a_pieces, a_axis), (b_pieces, b_axis))``, each piece a ``(holder,
    key, make)`` triple; every piece is placed at its consumer in
    ``round_no``.  Returns, per cell in row-major order, the piece keys with
    their axes, which slot 0 concatenates into the tiles.
    """
    gather = []
    for i in range(grid):
        for j in range(grid):
            tiles = parts(i, j, (i + j) % grid)
            for pieces, _ in tiles:
                for holder, key, make in pieces:
                    place(plan, round_no, holder, proc(i, j), key, make)
            gather.append(tuple((tuple(k for _, k, _ in pieces), axis) for pieces, axis in tiles))
    return tuple(gather)


def rotation_fragment(plan, grid, proc, parts, c_key, first_round, side):
    """Skewed block rotation (Cannon, 1969) on a grid x grid processor block.

    Round ``first_round - 1`` distributes (see :func:`distribute`): the
    pieces of every slot-0 tile, wherever the caller keeps them, go to the
    tile's first consumer.  In slot s, run in round ``first_round + s``,
    processor ``proc(i, j)`` accumulates A tile (i, x) times B tile (x, j)
    into ``c_key(i, j)`` for x = (i + j + s) mod grid, then (except in the
    last slot) passes the A tile one grid column left and the B tile one
    grid row up.  The skew gives every tile exactly one consumer per slot.
    Slot 0 concatenates each tile, ``side`` x ``side``, from its pieces.

    Each slot is one :class:`~mpcmm.plan.Rotate` group op over the grid**2
    processors, stack row i * grid + j; C tiles reach the stores after the
    last slot.
    """
    cells = [(i, j) for i in range(grid) for j in range(grid)]
    procs = np.array([proc(i, j) for i, j in cells], dtype=np.int64)
    gather = distribute(plan, grid, proc, parts, first_round - 1)
    c_keys = tuple(c_key(i, j) for i, j in cells)
    row_i, row_j = np.divmod(np.arange(grid * grid), grid)
    a_to = row_i * grid + (row_j - 1) % grid
    b_to = (row_i - 1) % grid * grid + row_j
    frag = plan.fragments
    plan.fragments += 1
    for s in range(grid):
        last = s == grid - 1
        plan.add_group(
            first_round + s,
            Rotate(
                frag,
                procs,
                side,
                gather if s == 0 else None,
                None if last else a_to,
                None if last else b_to,
                c_keys if last else None,
            ),
        )


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
