"""The skewed block rotation spelled out per processor: the reference for
``schedules.common.rotation_fragment``.

Same signature and same result as the group-op fragment, with no group
op: it takes the same (grids, grid, grid) processor array and
``parts(b, i, j, x)`` and ``c_key(b, i, j)``, and turns the grids one
after another, grid b's processors as ``procs[b]``.  The distribution
round packs each piece that lists offsets into a tile at its holder
(``Pack``, out of the row tile the piece names), which sends the piece
to its first consumer unless it is that consumer; every slot is an ``Assemble`` (slot 0), ``Mac``,
``Send`` and ``Drop`` list on each of a grid's grid**2 processors, run
by ``plan_reference.ReferenceProgram`` op by op.  Tests
monkeypatch it into the square, rect and sparse modules to run every
schedule both ways, together with ``hand_back``, the per-processor
hand-back of the sparse layers' C rows.
"""

import numpy as np

from plan_reference import AccCell, Assemble, Drop, Mac, Pack, Send, Slice, add


def distribute(plan, grid, proc, parts, round_no, side, name):
    """Place every slot-0 piece of one grid at its consumer; returns, per
    cell in row-major order, the piece keys with their axes.  A packed
    piece is named ``name(i, j, side, piece)``."""
    gather = []
    for i in range(grid):
        for j in range(grid):
            tiles = parts(i, j, (i + j) % grid)
            placed = []
            for s, (pieces, axis) in enumerate(tiles):
                share = side // len(pieces)
                shape = (share, side) if axis == 0 else (side, share)
                keys = []
                for n, (holder, key, words) in enumerate(pieces):
                    if words is not None:
                        src, key = key, name(i, j, s, n)
                        add(plan, round_no, holder, Pack(key, src, tuple(words[1]), shape))
                    if proc(i, j) != holder:
                        add(plan, round_no, holder, Send(proc(i, j), (key,)), Drop((key,)))
                    keys.append(key)
                placed.append((tuple(keys), axis))
            gather.append(tuple(placed))
    return tuple(gather)


def rotation_fragment(plan, procs, parts, c_key, first_round, side):
    frag = plan.fragment()  # keeps this fragment's tile keys apart from others'
    for b, grid_procs in enumerate(np.asarray(procs).tolist()):
        grid = len(grid_procs)
        proc = lambda i, j: grid_procs[i][j]
        gather = distribute(plan, grid, proc, lambda i, j, x: parts(b, i, j, x),
                            first_round - 1, side, lambda *piece: ("rP", frag, b, *piece))
        for i in range(grid):
            for j in range(grid):
                p, c = proc(i, j), c_key(b, i, j)
                left, up = proc(i, (j - 1) % grid), proc((i - 1) % grid, j)
                for s in range(grid):
                    x = (i + j + s) % grid
                    akey, bkey = ("rA", frag, b, i, x), ("rB", frag, b, x, j)
                    ops = []
                    if s == 0:
                        (a_pieces, a_axis), (b_pieces, b_axis) = gather[i * grid + j]
                        ops += [
                            Assemble(akey, a_pieces, a_axis),
                            Assemble(bkey, b_pieces, b_axis),
                            Drop(a_pieces + b_pieces),
                        ]
                    ops.append(Mac(c, akey, bkey))
                    if s < grid - 1:
                        ops += [Send(left, (akey,)), Send(up, (bkey,))]
                    ops.append(Drop((akey, bkey)))
                    add(plan, first_round + s, p, *ops)


def hand_back(plan, round_no, grid, procs, c_keys, rows, cols, mask):
    """``schedules.sparse.hand_back`` per processor: each C row is a
    ``Slice`` at its block processor, sent to its owner unless that is the
    processor itself, and added cell by cell with ``AccCell`` in the next
    round.  It reads the C tiles after the last slot's ``Mac``, so it goes
    with the per-processor rotation."""
    side = grid * grid
    for tile, (p, ckey) in enumerate(zip(procs.ravel().tolist(), c_keys)):
        (bi, t), block_cols = divmod(tile, side), cols[tile // side].tolist()
        ti, tj = divmod(t, grid)
        for u in range(grid):
            r = int(rows[bi, ti * grid + u])
            if r < 0:
                continue
            gkey = ("xg", ckey, u)
            add(plan, round_no, p, Slice(gkey, ckey, (u, u + 1), (0, grid)))
            if r != p:
                add(plan, round_no, p, Send(r, (gkey,)), Drop((gkey,)))
            masked = set(mask.cols(r))
            accs = [AccCell(("c", r, j), gkey, v)
                    for v, j in enumerate(block_cols[tj * grid : (tj + 1) * grid])
                    if j >= 0 and j in masked]
            add(plan, round_no + 1, r, *accs, Drop((gkey,)))
        add(plan, round_no, p, Drop((ckey,)))
