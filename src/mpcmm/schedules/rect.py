"""Rectangular schedules and the fan-in sum they share.

Three machine shapes:

* (n, d, n): n processors with O(n) words, one row of A and one column
  of B each, produce the n x n output in d / sqrt(n) rounds, SUMMA
  style.  Round q + 1 gathers strip q of A and of B: each A row and B
  column is a source that its holder keeps, and its sqrt(n)-word strip
  goes to the sqrt(n) processors whose C block needs it.  Round q + 2
  multiplies them into the C stack, a ``Rotate`` slot without sends
  (the last in the trailing local step).

* (d, n, d) on n processors with O(d) words: the d x d output splits
  into d blocks of side sqrt(d), each assigned to a group of n / d
  processors.  Each input holder starts with its column of A and its
  row of B, one tile each.  One rotation, whose grid l holds member l of
  every group, moves them out whole with one gather, which ships each
  A and B tile to its first consumer, and accumulates the group
  partials in sqrt(d) skewed product rounds, one ``Rotate`` each; a
  tree sum folds the n / d partials per block.

* (d, n, d) on d processors with O(n) words: same shape with
  sqrt(n)-side tiles gathered from sqrt(n)-word pieces of the rows of A
  and columns of B, one source each, d / sqrt(n) product rounds and a
  single-round fold (n / d partials always fit one processor's memory).

The tree sum fans t distributed addends into per-entry totals with
fan-in width k: one scatter round spreads each addend's entries over
collectors, then k-ary rounds reduce the per-entry value count to one.
``tree_sum_fragment`` sums every group of a schedule at once with
:class:`~mpcmm.plan.Scatter` moves and gives over index arrays, at most
one of each per round, so it places no op per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine import MpcConfig
from ..matrix import DenseMatrix
from ..plan import Plan, PlanProgram, Rotate
from ..semiring import SemiringSpec
from .common import Schedule, gather, rotation_fragment


def tree_sum_fragment(plan: Plan, members, addend_keys, entries: int, width: int,
                      start_round: int, ns):
    """Sum each group's t addends, held one per member; returns (rounds, holders).

    ``members`` is a (groups, t) processor array, ``addend_keys[g][l]``
    names member l's addend in group g (flat length ``entries``) and
    ``ns[g]`` keeps group g's key names apart from other groups and
    fragments.  With fan-in k = max(2, ``width``), member l is in chunk
    l // k of m = ceil(t / k).  :class:`~mpcmm.plan.Scatter` ops cover
    every group.  In ``start_round`` a move sends entry e of each member
    of chunk c to its collector, member (e * m + c) mod t.  Each later
    round, one per level, gives what the last round moved into the
    receivers' ("tv", ns[g], e, p) cells; then, while an entry has more
    than one holder, a move sends the cell of every holder but the first
    of each k consecutive ones to that first.  The last give, in round
    ``start_round + rounds``, is the caller's next round or the plan's
    trailing local step (round ``num_rounds + 1``) if the sum ends the
    plan.  ``holders[g][e]`` is the (proc, key) of group g's entry e.
    """
    members = np.asarray(members, dtype=np.int32)
    groups, t = members.shape
    width = max(2, width)
    m = -(-t // width)

    def cells(procs):  # the value key of each holder of a (groups, entries, holders) array
        return [("tv", ns[g], e, p) for g, rows in enumerate(procs.tolist())
                for e, row in enumerate(rows) for p in row]

    # holders[g, e, c]: the processor that sums chunk c of entry e, then
    # those left after each level; the sums of a move are indexes into them.
    holders = members[:, (np.arange(entries)[:, None] * m + np.arange(m)) % t]
    # unit (g, l, e) of the first move adds into holder (g, e, l // k)
    chunk = np.arange(t, dtype=np.int32)[:, None] // width
    sums = ((np.arange(groups, dtype=np.int32)[:, None, None] * entries
             + np.arange(entries, dtype=np.int32)) * m + chunk).ravel()
    keys = cells(holders)
    plan.scatter(start_round, (1,), members.ravel(), [k for group in addend_keys for k in group],
                 holders.ravel()[sums], sums, keys)
    rounds = 1
    while holders.shape[2] > 1:
        # every holder but the first of each k forwards its cell to that first
        place = np.arange(holders.shape[2])
        forward = place % width != 0
        run, firsts = place[forward] // width, holders[:, :, ::width]
        sums = np.arange(groups * entries)[:, None] * (run[-1] + 1) + run
        keys = cells(firsts[:, :, : run[-1] + 1])  # all but a last lone holder take sums
        plan.scatter(start_round + rounds, (1,), holders[:, :, forward].ravel(),
                     cells(holders[:, :, forward]), firsts[:, :, run].ravel(), sums.ravel(), keys)
        holders, rounds = firsts, rounds + 1
    # the last give's keys are the finished entries', group by group
    final = iter(zip(holders.ravel().tolist(), keys))
    return rounds, tuple(tuple(next(final) for _ in range(entries)) for _ in range(groups))


@dataclass(frozen=True)
class SumTask:
    """t distributed addends, each sqrt(k) x sqrt(k) (or a single word)."""

    t: int
    k: int
    addends: tuple

    def __post_init__(self):
        if self.t < 1 or self.k < 1:
            raise ValueError("t and k must both be >= 1")
        if len(self.addends) != self.t:
            raise ValueError(f"expected {self.t} addends, got {len(self.addends)}")
        sizes = {np.asarray(a).size for a in self.addends}
        if len(sizes) != 1:
            raise ValueError("addends must share one shape")
        size = sizes.pop()
        if size != 1 and size != self.k:
            raise ValueError("addends must be single words or sqrt(k) x sqrt(k)")
        if size == self.k and math.isqrt(self.k) ** 2 != self.k:
            raise ValueError("matrix addends need k to be a perfect square")

    @property
    def entries(self) -> int:
        return int(np.asarray(self.addends[0]).size)

    @property
    def side(self) -> int:
        return math.isqrt(self.entries)


def tree_sum(task: SumTask, spec: SemiringSpec) -> Schedule:
    """Standalone sum program: t processors, k words each."""
    t, k = task.t, task.k
    entries, side = task.entries, task.side
    plan = Plan(num_procs=t, num_rounds=0, min_memory=1)
    for l in range(t):
        plan.set_init(l, ("M", l), np.asarray(task.addends[l], dtype=np.int64).reshape(side, side))

    if t == 1:  # the lone addend is the sum, emitted whole
        holders = ((0, ("M", 0)),)
    else:
        rounds, (holders,) = tree_sum_fragment(
            plan, [range(t)], [[("M", l) for l in range(t)]], entries, k, 1, [("sum",)]
        )
        plan.num_rounds = rounds
    e = np.arange(len(holders))
    plan.emit(*zip(*holders), e // side, e % side)
    return Schedule(PlanProgram(plan, spec), MpcConfig(t, k), side, side, side, side)


def _check_inputs(n, d, a, b, rows, cols):
    """The checks all three builders share: 1 <= d <= n, A rows x cols, B cols x rows."""
    if d > n:
        raise ValueError("requires d <= n")
    if d < 1:
        raise ValueError("d must be >= 1")
    if (a.rows, a.cols, b.rows, b.cols) != (rows, cols, cols, rows):
        raise ValueError(f"expected ({rows}x{cols}) * ({cols}x{rows})")


def schedule_ndn(n, d, a: DenseMatrix, b: DenseMatrix, spec: SemiringSpec) -> Schedule:
    """(n x d) * (d x n) on n processors; d / sqrt(n) rounds."""
    _check_inputs(n, d, a, b, n, d)
    s = math.isqrt(n)
    if s * s != n:
        raise ValueError("n must be a perfect square")
    dp = -(-d // s) * s
    q_count = dp // s

    a_pad = spec.zeros(n, dp)
    a_pad[:, :d] = a.data
    b_pad = spec.zeros(dp, n)
    b_pad[:d, :] = b.data

    plan = Plan(num_procs=n, num_rounds=q_count, min_memory=n)
    c_keys = tuple(("C", *divmod(kk, s)) for kk in range(n))
    for kk in range(n):
        plan.set_init(kk, ("ar", kk), a_pad[kk : kk + 1, :])
        plan.set_init(kk, ("bc", kk), b_pad[:, kk : kk + 1])
    plan.emit(range(n), c_keys, *np.indices((s, s)).reshape(2, -1) * s)

    # Processor i * s + j gathers strip q of the sources A row kk, then B
    # column kk, each kept at kk: word (y, x) of its A tile is word
    # q * s + x of A row i * s + y, and of its B tile word q * s + y of B
    # column j * s + x.  Round q + 2 multiplies strip q before it gathers
    # strip q + 1.
    sources = ([(kk, ("ar", kk), (1, dp), False) for kk in range(n)]
               + [(kk, ("bc", kk), (dp, 1), False) for kk in range(n)])
    procs, frag = np.arange(n), plan.fragment()
    (i, j), y, x = divmod(procs[:, None, None], s), np.arange(s)[:, None], np.arange(s)
    for q in range(q_count):
        plan.add_group(q + 1, gather(frag, procs, s, sources, (i * s + y, n + j * s + x),
                                     (q * s + x, q * s + y)))
        plan.add_group(q + 2, Rotate(frag, procs, s, None, None,
                                     c_keys if q == q_count - 1 else None))

    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(n, 2 * n),
        n,
        n,
        n,
        n,
        meta={"padded_d": dp},
    )


def _rotate_and_sum(plan, blocks, group_size, side, proc, tiles):
    """Everything but the input layout of both (d, n, d) schedules.

    Processor ``proc(i, j, l)``, member l of the group for output block
    (i, j), rotates inner tiles l * blocks .. (l + 1) * blocks - 1 into its
    partial ("P", i, j, l); ``tiles(i, j, q)``, over int arrays, says
    where the inputs hold A tile (i, q) and B tile (q, j), as
    :func:`~mpcmm.schedules.common.gather` reads them.  Members l form
    grid l of one rotation, whose gather moves the inputs out in round
    1.  A tree sum then folds each group's partials of ``side**2`` entries.
    """
    l, i, j = np.indices((group_size, blocks, blocks))
    procs = proc(i, j, l)  # grid l holds member l of every group
    rotation_fragment(plan, procs, lambda l, i, j, x: tiles(i, j, l * blocks + x),
                      lambda l, i, j: ("P", i, j, l), 2, side)
    plan.num_rounds = phase1 = 1 + blocks
    cells = [(i, j) for i in range(blocks) for j in range(blocks)]
    if group_size == 1:  # each partial is its block, emitted whole
        holders = [((proc(i, j, 0), ("P", i, j, 0)),) for i, j in cells]
    else:
        rounds, holders = tree_sum_fragment(
            plan, procs.reshape(group_size, -1).T,
            [[("P", i, j, l) for l in range(group_size)] for i, j in cells],
            side * side, side * side, phase1 + 1, [("g", i, j) for i, j in cells])
        plan.num_rounds = phase1 + rounds
    i, j = np.array(cells).T[:, :, None] * side  # entry e: word (e // side, e % side) of its block
    e = np.arange(len(holders[0]))
    plan.emit(*zip(*[holder for group in holders for holder in group]),
              (i + e // side).ravel(), (j + e % side).ravel())


def schedule_dnd_nproc(n, d, a: DenseMatrix, b: DenseMatrix, spec: SemiringSpec) -> Schedule:
    """(d x n) * (n x d) on n processors with O(d) memory."""
    _check_inputs(n, d, a, b, d, n)
    g = math.isqrt(d)
    if g * g != d:
        raise ValueError("d must be a perfect square")
    if n % d:
        raise ValueError("n must be a multiple of d")
    t = n // d

    plan = Plan(num_procs=n, num_rounds=0, min_memory=d)
    proc = lambda i, j, l: (i * g + j) * t + l

    # Processor c starts with column c of A and row c of B, one tile each,
    # which the gather moves out whole: word (y, x) of A tile (i, q) is
    # word i * g + y of A column q * g + x, of B tile (q, j) word
    # j * g + x of B row q * g + y.
    for c in range(n):
        plan.set_init(c, ("ac", c), a.data[:, c : c + 1])
        plan.set_init(c, ("br", c), b.data[c : c + 1, :])
    sources = ([(c, ("ac", c), (d, 1), True) for c in range(n)]
               + [(c, ("br", c), (1, d), True) for c in range(n)])
    y, x = np.arange(g)[:, None], np.arange(g)

    def tiles(i, j, q):
        i, j, q = (v[:, None, None] for v in (i, j, q))
        return sources, (q * g + x, n + q * g + y), (i * g + y, j * g + x), 1

    _rotate_and_sum(plan, g, t, g, proc, tiles)
    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(n, d),
        d,
        d,
        d,
        d,
        meta={"groups": d, "group_size": t},
    )


def schedule_dnd_dproc(n, d, a: DenseMatrix, b: DenseMatrix, spec: SemiringSpec) -> Schedule:
    """(d x n) * (n x d) on d processors with O(n) memory."""
    _check_inputs(n, d, a, b, d, n)
    s = math.isqrt(n)
    if s * s != n:
        raise ValueError("n must be a perfect square")
    # Pad d to a multiple of sqrt(n) whose group size n / dp is integral.
    blocks = -(-d // s)
    while s % blocks:
        blocks += 1
    dp = blocks * s
    m = n // dp

    a_pad = spec.zeros(dp, n)
    a_pad[:d, :] = a.data
    b_pad = spec.zeros(n, dp)
    b_pad[:, :d] = b.data

    plan = Plan(num_procs=dp, num_rounds=0, min_memory=n)
    proc = lambda i, j, l: (i * blocks + j) * m + l

    # Processor c starts with row c of A and column c of B cut into
    # sqrt(n)-word pieces, each a source that the gather moves out whole:
    # row y of A tile (i, q) is piece q of A row i * s + y, and column x of
    # B tile (q, j) piece q of B column j * s + x.  Piece q of row (column)
    # c is source q * dp + c of its side, so a B tile row reads adjacent ones.
    for c in range(dp):
        for q in range(s):
            plan.set_init(c, ("ars", c, q), a_pad[c : c + 1, q * s : (q + 1) * s])
            plan.set_init(c, ("bcs", c, q), b_pad[q * s : (q + 1) * s, c : c + 1])
    sources = [(c, (key, c, q), shape, True) for key, shape in (("ars", (1, s)), ("bcs", (s, 1)))
               for q in range(s) for c in range(dp)]
    y, x = np.arange(s)[:, None], np.arange(s)

    def tiles(i, j, q):
        i, j, q = (v[:, None, None] for v in (i, j, q))
        return sources, (q * dp + i * s + y, (s + q) * dp + j * s + x), (x, y), 1

    _rotate_and_sum(plan, blocks, m, s, proc, tiles)
    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(dp, n),
        dp,
        dp,
        d,
        d,
        meta={"padded_d": dp, "group_size": m},
    )
