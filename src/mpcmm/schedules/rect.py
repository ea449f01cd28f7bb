"""Rectangular schedules and the fan-in sum they share.

Three machine shapes:

* (n, d, n): n processors with O(n) words, one row of A and one column
  of B each, produce the n x n output in d / sqrt(n) rounds, SUMMA
  style.  Round q + 1 gathers block column q of A and block row q of B:
  each holder's sqrt(n)-word piece goes to the sqrt(n) processors whose
  C block needs it.  Round q + 2 multiplies them into the C stack, a
  ``Rotate`` slot without sends (the last in the trailing local step).

* (d, n, d) on n processors with O(d) words: the d x d output splits
  into d blocks of side sqrt(d), each assigned to a group of n / d
  processors.  Each input holder starts with its column of A and row of
  B cut into tile pieces, which the rotation's gather ships to each
  tile's first consumer in one distribution round; sqrt(d) skewed
  product rounds accumulate group partials, and a tree sum folds the
  n / d partials per block.

* (d, n, d) on d processors with O(n) words: same shape with
  sqrt(n)-side tiles cut from rows of A and columns of B, d / sqrt(n)
  product rounds and a single-round fold (n / d partials always fit one
  processor's memory).

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
from ..plan import Gather, Plan, PlanProgram, Rotate
from ..semiring import SemiringSpec
from .common import Schedule, rotation_fragment


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
        plan.set_init(l, ("M", l), np.asarray(task.addends[l], dtype=np.int64).reshape(-1))

    if t == 1:
        plan.emit(0, ("M", 0), 0, 0, (side, side))
        return Schedule(PlanProgram(plan, spec), MpcConfig(1, k), side, side, side, side)

    rounds, (holders,) = tree_sum_fragment(
        plan, [range(t)], [[("M", l) for l in range(t)]], entries, k, 1, [("sum",)]
    )
    plan.num_rounds = rounds
    for e, (proc, key) in enumerate(holders):
        plan.emit(proc, key, e // side, e % side, (1,))
    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(t, k),
        side,
        side,
        side,
        side,
        meta={"predicted_rounds": rounds},
    )


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
    for kk, (_, i, j) in enumerate(c_keys):
        plan.set_init(kk, ("ar", kk), a_pad[kk : kk + 1, :])
        plan.set_init(kk, ("bc", kk), b_pad[:, kk : kk + 1])
        plan.emit(kk, c_keys[kk], i * s, j * s, (s, s))

    # Processor i * s + j gathers strip q of A rows i * s .. i * s + s - 1
    # and of B columns j * s .. j * s + s - 1, reading (not moving) the
    # sources A row kk at kk, then B column kk at kk: word (u, v) of its A
    # tile is word q * s + v of A row i * s + u, and of its B tile word
    # q * s + u of B column j * s + v.  Round q + 2 multiplies strip q
    # before it gathers strip q + 1.
    procs = np.arange(n)
    holders = np.tile(np.arange(n, dtype=np.int32), 2)
    keys = tuple(("ar", kk) for kk in range(n)) + tuple(("bc", kk) for kk in range(n))
    shapes = ((1, dp),) * n + ((dp, 1),) * n
    i, j, u, v = np.indices((s,) * 4, dtype=np.int32).reshape(4, n, s, s)
    charges = np.stack((i * s + u, j * s + v))  # the A row and the B column of each word
    frag = plan.fragment()
    for q in range(q_count):
        words = np.stack((charges[0] * dp + q * s + v, (n + charges[1]) * dp + q * s + u))
        plan.add_group(q + 1, Gather(frag, procs, s, holders, keys, shapes,
                                     np.zeros(2 * n, dtype=bool), 1, words, charges))
        plan.add_group(q + 2, Rotate(frag, procs, s, None, None,
                                     c_keys if q == q_count - 1 else None))

    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(n, 2 * n),
        n,
        n,
        n,
        n,
        meta={"predicted_rounds": q_count, "padded_d": dp},
    )


def _rotate_and_sum(plan, blocks, group_size, side, proc, parts):
    """Everything but the input layout of both (d, n, d) schedules.

    Processor ``proc(i, j, l)``, member l of the group for output block
    (i, j), rotates inner tiles l * blocks .. (l + 1) * blocks - 1 into its
    partial ("P", i, j, l); ``parts(i, j, q)`` gives the pieces of A tile
    (i, q) and B tile (q, j) where the inputs hold them, which the
    rotation's gather moves out in round 1.  A tree sum then folds each
    group's partials, whose blocks have ``side**2`` entries.
    """
    for l in range(group_size):
        rotation_fragment(
            plan,
            blocks,
            lambda i, j: proc(i, j, l),
            lambda i, j, x: parts(i, j, l * blocks + x),
            lambda i, j: ("P", i, j, l),
            2,
            side,
        )
    phase1 = 1 + blocks
    plan.num_rounds = phase1
    cells = [(i, j) for i in range(blocks) for j in range(blocks)]
    if group_size == 1:
        for i, j in cells:
            plan.emit(proc(i, j, 0), ("P", i, j, 0), i * side, j * side, (side, side))
        return
    rounds, holders = tree_sum_fragment(
        plan,
        [[proc(i, j, l) for l in range(group_size)] for i, j in cells],
        [[("P", i, j, l) for l in range(group_size)] for i, j in cells],
        side * side,
        side * side,
        phase1 + 1,
        [("g", i, j) for i, j in cells],
    )
    plan.num_rounds = phase1 + rounds
    for (i, j), group in zip(cells, holders):
        for e, (holder, key) in enumerate(group):
            plan.emit(holder, key, i * side + e // side, j * side + e % side, (1,))


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

    # Processor c starts with column c of A cut into the pieces of A tiles
    # (i, c // g), and row c of B into those of B tiles (c // g, j): A tile
    # (i, q) is piece i of A columns q * g .. q * g + g - 1, B tile (q, j)
    # piece j of B rows q * g .. q * g + g - 1.
    for c in range(n):
        for i in range(g):
            plan.set_init(c, ("acs", c, i), a.data[i * g : (i + 1) * g, c : c + 1])
            plan.set_init(c, ("brs", c, i), b.data[c : c + 1, i * g : (i + 1) * g])

    def parts(i, j, q):
        cols = range(q * g, (q + 1) * g)
        return ((tuple((c, ("acs", c, i), None) for c in cols), 1),
                (tuple((c, ("brs", c, j), None) for c in cols), 0))

    _rotate_and_sum(plan, g, t, g, proc, parts)
    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(n, d),
        d,
        d,
        d,
        d,
        meta={"predicted_rounds": plan.num_rounds, "groups": d, "group_size": t},
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

    # Processor c starts with row c of A and column c of B cut into the
    # pieces of A tiles (c // s, q) and B tiles (q, c // s): A tile (i, q)
    # is piece q of A rows i * s .. i * s + s - 1, B tile (q, j) piece q
    # of B columns j * s .. j * s + s - 1.
    for c in range(dp):
        for q in range(s):
            plan.set_init(c, ("ars", c, q), a_pad[c : c + 1, q * s : (q + 1) * s])
            plan.set_init(c, ("bcs", c, q), b_pad[q * s : (q + 1) * s, c : c + 1])

    def parts(i, j, q):
        return ((tuple((c, ("ars", c, q), None) for c in range(i * s, (i + 1) * s)), 0),
                (tuple((c, ("bcs", c, q), None) for c in range(j * s, (j + 1) * s)), 1))

    _rotate_and_sum(plan, blocks, m, s, proc, parts)
    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(dp, n),
        dp,
        dp,
        d,
        d,
        meta={"predicted_rounds": plan.num_rounds, "padded_d": dp, "group_size": m},
    )
