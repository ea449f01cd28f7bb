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


def rotation_fragment(plan, procs, parts, c_key, first_round, side):
    """Skewed block rotation (Cannon, 1969) on grids of grid x grid processors.

    ``procs`` is a (grids, grid, grid) processor array: ``procs[b, i, j]``
    is processor (i, j) of grid b.  In slot s, run in round
    ``first_round + s``, it accumulates grid b's A tile (i, x) times B
    tile (x, j) into ``c_key(b, i, j)`` for x = (i + j + s) mod grid,
    then (except in the last slot) passes the A tile one grid column left
    and the B tile one grid row up.  The skew gives every tile exactly one
    consumer per slot.  ``parts(b, i, j, x)`` gives the pieces of grid b's
    tiles of slot 0 where the caller keeps them, as
    ``((a_pieces, a_axis), (b_pieces, b_axis))`` (see :func:`gather`).
    All grids turn together: one :class:`~mpcmm.plan.Gather` in round
    ``first_round - 1`` reads every grid's pieces, and each slot is one
    :class:`~mpcmm.plan.Rotate` over all the processors, stack row
    (b * grid + i) * grid + j, whose sends stay within its grid; C tiles
    reach the stores after the last slot.
    """
    grids, grid, _ = np.shape(procs)
    procs = np.asarray(procs, dtype=np.int64).ravel()
    b, i, j = np.indices((grids, grid, grid)).reshape(3, -1)
    cells = list(zip(b.tolist(), i.tolist(), j.tolist()))
    c_keys = tuple(c_key(*cell) for cell in cells)
    a_to = (b * grid + i) * grid + (j - 1) % grid
    b_to = (b * grid + (i - 1) % grid) * grid + j
    frag = plan.fragment()
    tiles = (parts(b, i, j, (i + j) % grid) for b, i, j in cells)
    plan.add_group(first_round - 1, gather(frag, procs, side, tiles))
    for s in range(grid):
        last = s == grid - 1
        plan.add_group(first_round + s, Rotate(frag, procs, side, None if last else a_to,
                                               None if last else b_to, c_keys if last else None))


def gather(frag, procs, side, tiles):
    """The :class:`~mpcmm.plan.Gather` that fills stack row r with tile r.

    ``tiles`` yields one ``((a_pieces, a_axis), (b_pieces, b_axis))`` per
    row of ``procs``: each side x side tile is its pieces concatenated
    along the axis, and every row cuts a side into as many equal pieces.
    A piece ``(holder, key, words)`` is the stored tile ``key``, which
    moves out of ``holder``'s store, if ``words`` is None; otherwise
    ``words`` lists one-word tiles of ``holder``'s store (None: a zero),
    row-major, which stay there.  Either way all its words count against
    ``holder``.  A tile several pieces read is one source, listed where
    it is first read.
    """
    index = {}  # holder -> {key: source number}; no (holder, key) pair is made per word
    holders, keys, moved = [], [], {}  # per source; source number -> shape if it moves whole

    def source(holder, key):
        sources = index.setdefault(holder, {})
        i = sources.get(key)
        if i is None:
            i = sources[key] = len(keys)
            holders.append(holder)
            keys.append(key)
        return i

    layout = []  # per side: piece shape, axis and count, as the first row cuts it
    # per side: each piece's holder, its whole source (-1 if it packs words),
    # and the sources of the words the packing pieces read (-1: a zero word)
    owner, whole, packed = ([[], []] for _ in range(3))
    for tile in tiles:  # one row at a time: a row's tuples die once read
        if not layout:
            for pieces, axis in tile:
                count = len(pieces)
                if count == 0 or side % count:
                    raise ValueError(f"a gathered {side}x{side} tile can't be {count} equal pieces")
                shape = (side // count, side) if axis == 0 else (side, side // count)
                layout.append((shape, axis, count))
        for s, ((pieces, axis), (shape, axis0, count)) in enumerate(zip(tile, layout)):
            if axis != axis0 or len(pieces) != count:
                raise ValueError("every row must cut a gathered side into the same pieces")
            for holder, key, words in pieces:
                owner[s].append(holder)
                if words is None:
                    i = source(holder, key)
                    moved[i] = shape
                    whole[s].append(i)
                else:
                    whole[s].append(-1)
                    packed[s] += [-1 if k is None else source(holder, k) for k in words]
    shapes, sizes = [(1,)] * len(keys), [1] * len(keys)  # a packed word's source is one word
    for i, shape in moved.items():
        shapes[i], sizes[i] = shape, math.prod(shape)
    # A unit is as many words as divide every source and every row of a
    # piece; one word where pieces pack words.
    width = 1 if any(packed) else math.gcd(*set(sizes), *(cols for (_, cols), _, _ in layout))
    starts = np.cumsum([0] + sizes) // width
    starts[-1] = -1  # zeros
    words = np.empty((2, len(procs), side, side // width), dtype=np.int32)
    charges = np.empty_like(words)
    for s, ((rows, cols), axis, count) in enumerate(layout):
        if not packed[s]:
            units = starts[whole[s]][:, None] + np.arange(rows * cols // width)
        elif len(packed[s]) == len(owner[s]) * rows * cols:
            units = starts[packed[s]]
        else:
            raise ValueError("a gathered side's pieces must all move whole or all pack words")
        for out, part in ((words, units), (charges, np.repeat(owner[s], rows * cols // width))):
            part = part.reshape(len(procs), count, rows, cols // width)
            out[s] = (part.transpose(0, 2, 1, 3) if axis == 1 else part).reshape(out[s].shape)
    moves = np.zeros(len(keys), dtype=bool)
    moves[list(moved)] = True
    return Gather(frag, procs, side, np.array(holders, dtype=np.int32), tuple(keys),
                  tuple(shapes), moves, width, words, charges)


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
