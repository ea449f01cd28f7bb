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


def rotation_fragment(plan, grid, proc, parts, c_key, first_round, side):
    """Skewed block rotation (Cannon, 1969) on a grid x grid processor block.

    In slot s, run in round ``first_round + s``, processor ``proc(i, j)``
    accumulates A tile (i, x) times B tile (x, j) into ``c_key(i, j)`` for
    x = (i + j + s) mod grid, then (except in the last slot) passes the A
    tile one grid column left and the B tile one grid row up.  The skew
    gives every tile exactly one consumer per slot.  ``parts(i, j, x)``
    gives the pieces of the tiles of slot 0 where the caller keeps them,
    as ``((a_pieces, a_axis), (b_pieces, b_axis))`` (see :func:`gather`);
    one :class:`~mpcmm.plan.Gather` in round ``first_round - 1`` reads
    them all.  Each slot is one :class:`~mpcmm.plan.Rotate` over the
    grid**2 processors, stack row i * grid + j; C tiles reach the stores
    after the last slot.
    """
    cells = [(i, j) for i in range(grid) for j in range(grid)]
    procs = np.array([proc(i, j) for i, j in cells], dtype=np.int64)
    c_keys = tuple(c_key(i, j) for i, j in cells)
    row_i, row_j = np.divmod(np.arange(grid * grid), grid)
    a_to = row_i * grid + (row_j - 1) % grid
    b_to = (row_i - 1) % grid * grid + row_j
    frag = plan.fragment()
    tiles = [parts(i, j, (i + j) % grid) for i, j in cells]
    plan.add_group(first_round - 1, gather(frag, procs, side, tiles))
    for s in range(grid):
        last = s == grid - 1
        plan.add_group(first_round + s, Rotate(frag, procs, side, None if last else a_to,
                                               None if last else b_to, c_keys if last else None))


def gather(frag, procs, side, tiles):
    """The :class:`~mpcmm.plan.Gather` that fills stack row r with ``tiles[r]``.

    ``tiles[r]`` is ``((a_pieces, a_axis), (b_pieces, b_axis))``: each
    side x side tile is its pieces concatenated along the axis, and every
    row cuts a side into as many equal pieces.  A piece ``(holder, key,
    words)`` is the stored tile ``key``, which moves out of ``holder``'s
    store, if ``words`` is None; otherwise ``words`` lists one-word tiles
    of ``holder``'s store (None: a zero), row-major, which stay there.
    Either way all its words count against ``holder``.  A tile several
    pieces read is one source, listed where it is first read.
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

    layout = []  # per side: piece shape, axis and count
    for pieces, axis in tiles[0]:
        count = len(pieces)
        if count == 0 or side % count:
            raise ValueError(f"a gathered {side}x{side} tile cannot be {count} equal pieces")
        layout.append(((side // count, side) if axis == 0 else (side, side // count), axis, count))
    # per side: each piece's holder, its whole source (-1 if it packs words),
    # and the sources of the words the packing pieces read (-1: a zero word)
    owner, whole, packed = ([[], []] for _ in range(3))
    for tile in tiles:
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
    words = np.empty((2, len(tiles), side, side // width), dtype=np.int32)
    charges = np.empty_like(words)
    for s, ((rows, cols), axis, count) in enumerate(layout):
        if not packed[s]:
            units = starts[whole[s]][:, None] + np.arange(rows * cols // width)
        elif len(packed[s]) == len(owner[s]) * rows * cols:
            units = starts[packed[s]]
        else:
            raise ValueError("a gathered side's pieces must all move whole or all pack words")
        for out, part in ((words, units), (charges, np.repeat(owner[s], rows * cols // width))):
            part = part.reshape(len(tiles), count, rows, cols // width)
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
        full = DenseMatrix(self.out_rows, self.out_cols, data)
        if (self.crop_rows, self.crop_cols) != (self.out_rows, self.out_cols):
            full = DenseMatrix(
                self.crop_rows, self.crop_cols, full.data[: self.crop_rows, : self.crop_cols].copy()
            )
        return result, full
