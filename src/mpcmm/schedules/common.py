"""Shared glue between schedule builders, the engine and the harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..engine import MpcConfig, RunResult, run
from ..matrix import DenseMatrix
from ..plan import Gather, PlanProgram, Rotate, assemble_output


def chunks(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def rotation_fragment(plan, procs, tiles, c_key, first_round, side):
    """Skewed block rotation (Cannon, 1969) on grids of grid x grid processors.

    ``procs`` is a (grids, grid, grid) processor array: ``procs[b, i, j]``
    is processor (i, j) of grid b.  In slot s, run in round
    ``first_round + s``, it accumulates grid b's A tile (i, x) times B
    tile (x, j) into ``c_key(b, i, j)`` for x = (i + j + s) mod grid,
    then (except in the last slot) passes the A tile one grid column left
    and the B tile one grid row up.  The skew gives every tile exactly one
    consumer per slot.  ``tiles(b, i, j, x)``, called once over int arrays
    of the cells, stack row (b * grid + i) * grid + j, gives the tiles of
    slot 0 as :func:`gather` reads them, ``(sources, src, at, width)``.
    All grids turn together: one :class:`~mpcmm.plan.Gather` in round
    ``first_round - 1`` fills every grid's stacks, and each slot is one
    :class:`~mpcmm.plan.Rotate` over all the processors, whose sends stay
    within their grid; C tiles reach the stores after the last slot.
    """
    grids, grid, _ = np.shape(procs)
    procs = np.asarray(procs, dtype=np.int64).ravel()
    b, i, j = np.indices((grids, grid, grid)).reshape(3, -1)
    c_keys = tuple(c_key(*cell) for cell in zip(b.tolist(), i.tolist(), j.tolist()))
    a_to = (b * grid + i) * grid + (j - 1) % grid
    b_to = (b * grid + (i - 1) % grid) * grid + j
    frag = plan.fragment()
    plan.add_group(first_round - 1, gather(frag, procs, side, *tiles(b, i, j, (i + j) % grid)))
    for s in range(grid):
        last = s == grid - 1
        plan.add_group(first_round + s, Rotate(frag, procs, side, None if last else a_to,
                                               None if last else b_to, c_keys if last else None))


def gather(frag, procs, side, sources, src, at, width=1):
    """The :class:`~mpcmm.plan.Gather` that fills stack row r with the tiles
    that ``src`` and ``at`` name.

    ``sources`` lists each tile the gather reads once, as ``(holder, key,
    shape, moves)``: the stored tile ``key`` of that shape, which moves out
    of ``holder``'s store if ``moves`` (then each of its words must be read
    once).  Cut into units of ``width`` words, unit x of tile row y of
    stack s (0 for A, 1 for B), row r, is unit ``at[s][r, y, x]`` of source
    ``src[s][r, y, x]``: ``src`` and ``at`` are each a pair of int arrays,
    A's and B's, that broadcast to ``(rows, side, side // width)``.  An
    ``at`` of -1 is zeros, charged to the source's holder; a ``src`` of -1
    reads no tile, zeros charged to row r's own processor.  Any other
    ``at`` outside its own source raises ``ValueError``.
    """
    holders, keys, shapes, moves = zip(*sources) if len(sources) else ((),) * 4
    units = np.array([math.prod(shape) // width for shape in shapes], dtype=np.int32)
    room = np.append(units, 0)  # a src of -1 reads no tile: only an at of -1 lies inside
    starts = (np.cumsum(room) - room).astype(np.int32)
    owners = np.append(holders, -1).astype(np.int32)
    shape = (2, len(procs), side, side // width)
    words, charges = np.empty(shape, dtype=np.int32), np.empty(shape, dtype=np.int32)
    for s in range(2):
        # src and at stay small: the lookups run on them, not on the whole stack
        s_src, s_at = np.asarray(src[s], dtype=np.int32), np.asarray(at[s], dtype=np.int32)
        lo, hi = s_src.min(initial=0), s_src.max(initial=-1)
        if lo < -1 or hi >= len(units):
            raise ValueError(f"a gathered unit's source must be -1 or one of {len(units)}")
        try:
            np.add(np.take(starts, s_src), s_at, out=words[s])
        except ValueError as err:
            raise ValueError(f"a gather's src and at must broadcast to {shape[1:]}") from err
        out = (s_at < -1) | (s_at >= np.take(room, s_src))
        if out.any():
            s_src, s_at, out = (np.broadcast_to(x, shape[1:]) for x in (s_src, s_at, out))
            bad = tuple(np.argwhere(out)[0].tolist())
            i = s_src[bad]
            name = "no tile" if i < 0 else f"source {keys[i]!r}, {units[i]} units"
            raise ValueError(f"unit {(s, *bad)} of a gather reads unit {s_at[bad]} of {name}: "
                             "it must be -1 or one of its units")
        if (s_at < 0).any():
            np.copyto(words[s], -1, where=s_at < 0)
        charges[s] = np.take(owners, s_src)
        if lo < 0:
            np.copyto(charges[s], np.reshape(procs, (-1, 1, 1)), where=s_src < 0)
    return Gather(frag, procs, side, owners[:-1], tuple(keys), tuple(shapes),
                  np.array(moves, dtype=bool), width, words, charges)


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
        return result, DenseMatrix(self.crop_rows, self.crop_cols,
                                   data[: self.crop_rows, : self.crop_cols])
