"""The skewed block rotation spelled out per processor: the reference for
``schedules.common.rotation_fragment``.

Same signature and same result as the group-op fragment, with no group
op: it takes the same (grids, grid, grid) processor array,
``tiles(b, i, j, x)``, called once over every cell, and
``c_key(b, i, j)``, and turns the grids one after another, grid b's
processors as ``procs[b]``.  The distribution round is
``plan_reference.gather_ops``: each holder packs the words it gives a
slot-0 tile by offset (``Pack``) and sends them to the tile's first
consumer unless it is that consumer, which puts the tile together in
slot 0.  Every slot is a ``Mac``, ``Send`` and ``Drop`` list on each of
a grid's grid**2 processors, run by ``plan_reference.ReferenceProgram``
op by op.  Tests monkeypatch it into the square, rect and sparse modules
to run every schedule both ways, together with ``hand_back``, the
per-processor hand-back of the sparse layers' C rows.
"""

import numpy as np

from plan_reference import AccCell, Drop, Mac, Send, Slice, add, gather_ops


def rotation_fragment(plan, procs, tiles, c_key, first_round, side):
    frag = plan.fragment()  # keeps this fragment's tile keys apart from others'
    grids, grid, _ = np.shape(procs)
    b, i, j = np.indices((grids, grid, grid)).reshape(3, -1)
    x = (i + j) % grid
    # row r's slot-0 A and B tile keys, as the slots below name them
    slot0 = [(("rA", frag, *cell[:2], cell[3]), ("rB", frag, cell[0], cell[3], cell[2]))
             for cell in zip(*(v.tolist() for v in (b, i, j, x)))]
    sends, fills = gather_ops(np.ravel(procs), side, *tiles(b, i, j, x),
                              lambda r, s: slot0[r][s])
    for p, ops in sends.items():
        add(plan, first_round - 1, p, *ops)
    for b, grid_procs in enumerate(np.asarray(procs).tolist()):
        proc = lambda i, j: grid_procs[i][j]
        for i in range(grid):
            for j in range(grid):
                p, c = proc(i, j), c_key(b, i, j)
                left, up = proc(i, (j - 1) % grid), proc((i - 1) % grid, j)
                for s in range(grid):
                    x = (i + j + s) % grid
                    akey, bkey = ("rA", frag, b, i, x), ("rB", frag, b, x, j)
                    ops = fills[p] if s == 0 else []
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
            masked = set(mask.rows[r])
            accs = [AccCell(("c", r, j), gkey, v)
                    for v, j in enumerate(block_cols[tj * grid : (tj + 1) * grid])
                    if j >= 0 and j in masked]
            add(plan, round_no + 1, r, *accs, Drop((gkey,)))
        add(plan, round_no, p, Drop((ckey,)))
