"""The skewed block rotation spelled out per processor: the reference for
``schedules.common.rotation_fragment``.

Same signature and same result as the group-op fragment.  Its
distribution round is the same ``common.distribute`` call, so only the
slots differ: every slot is an ``Assemble`` (slot 0), ``Mac``, ``Send``
and ``Drop`` list on each of the grid**2 processors, run by the plan
interpreter op by op.  Tests monkeypatch it into the square, rect and
sparse modules to run every schedule both ways.
"""

from mpcmm.plan import Assemble, Drop, Mac, Send
from mpcmm.schedules.common import distribute


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
