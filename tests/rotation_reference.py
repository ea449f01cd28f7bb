"""The skewed block rotation spelled out per processor: the reference for
``schedules.common.rotation_fragment``.

Same signature and same result as the group-op fragment, with no group
op.  The distribution round runs each piece's ``Slice`` or ``Pack`` at
its holder, which sends the piece to its first consumer unless it is
that consumer; every slot is an ``Assemble`` (slot 0), ``Mac``, ``Send``
and ``Drop`` list on each of the grid**2 processors, run by the plan
interpreter op by op.  Tests monkeypatch it into the square, rect and
sparse modules to run every schedule both ways.
"""

from mpcmm.plan import Assemble, Drop, Mac, Send


def distribute(plan, grid, proc, parts, round_no):
    """Place every slot-0 piece at its consumer; returns, per cell in
    row-major order, the piece keys with their axes."""
    gather = []
    for i in range(grid):
        for j in range(grid):
            tiles = parts(i, j, (i + j) % grid)
            for pieces, _ in tiles:
                for holder, key, make in pieces:
                    if make is not None:
                        plan.add(round_no, holder, make)
                    if proc(i, j) != holder:
                        plan.add(round_no, holder, Send(proc(i, j), (key,)), Drop((key,)))
            gather.append(tuple((tuple(k for _, k, _ in pieces), axis) for pieces, axis in tiles))
    return tuple(gather)


def rotation_fragment(plan, grid, proc, parts, c_key, first_round, side):
    gather = distribute(plan, grid, proc, parts, first_round - 1)
    frag = plan.fragments  # keeps this fragment's tile keys apart from others'
    plan.fragments += 1
    for i in range(grid):
        for j in range(grid):
            p, c = proc(i, j), c_key(i, j)
            left, up = proc(i, (j - 1) % grid), proc((i - 1) % grid, j)
            for s in range(grid):
                x = (i + j + s) % grid
                akey, bkey = ("rA", frag, i, x), ("rB", frag, x, j)
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
                plan.add(first_round + s, p, *ops)
