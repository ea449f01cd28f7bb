"""Rectangular schedules and the fan-in sum they share.

Three machine shapes:

* (n, d, n): n processors with O(n) words produce the n x n output in
  d / sqrt(n) rounds.  Each processor starts with one row of A and one
  column of B, streams one sqrt(n)-wide block column of A (and block row
  of B) per round, and accumulates its C block.

* (d, n, d) on n processors with O(d) words: the d x d output splits
  into d blocks of side sqrt(d), each assigned to a group of n / d
  processors.  In one distribution round the input holders cut their
  column of A and row of B into tile pieces, which the rotation ships
  to each tile's first consumer; sqrt(d) skewed product rounds
  accumulate group partials, and a tree sum folds the n / d partials
  per block.

* (d, n, d) on d processors with O(n) words: same shape with
  sqrt(n)-side tiles cut from rows of A and columns of B, d / sqrt(n)
  product rounds and a single-round fold (n / d partials always fit one
  processor's memory).

The tree sum fans t distributed addends into per-entry totals with
fan-in width k: one scatter round spreads each addend's entries over
collectors, then k-ary rounds reduce the per-entry value count to one.
``tree_sum_fragment`` sums every group of a schedule at once, as one
:class:`~mpcmm.plan.Fold` group op per round over a (groups, members,
entries) stack, so its build cost grows with rounds, not with entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine import MpcConfig
from ..matrix import DenseMatrix
from ..plan import Assemble, Drop, Fold, Mac, Plan, PlanProgram, Send, Slice
from ..semiring import SemiringSpec
from .common import Schedule, rotation_fragment


def tree_sum_fragment(plan: Plan, members, addend_keys, entries: int, width: int,
                      start_round: int, ns):
    """Sum each group's t addends, held one per member; returns (rounds, holders).

    ``members`` is a (groups, t) processor array, ``addend_keys[g][l]``
    names member l's addend in group g (flat length ``entries``) and
    ``ns[g]`` keeps group g's key names apart from other groups and
    fragments.  One :class:`~mpcmm.plan.Fold` group op per round covers
    every group: the scatter in ``start_round``, then one k-ary level per
    round up to ``start_round + rounds - 1``.  The finished entries reach
    their holders' stores in the hand-out step one round past that: the
    caller's next round, or the plan's trailing local step (round
    ``num_rounds + 1``, which sends nothing) if the sum ends the plan.
    ``holders[g][e]`` is the (proc, key) of group g's entry e.
    """
    members = np.asarray(members, dtype=np.int64)
    fold = Fold(plan.fragments, members, max(2, width), entries, 0, tuple(addend_keys), ())
    plan.fragments += 1
    holders = tuple(
        tuple((p, ("tv", ns[g], e, p)) for e, p in enumerate(procs))
        for g, procs in enumerate(fold.final_holders().tolist())
    )
    fold = fold._replace(out_keys=tuple(tuple(key for _, key in row) for row in holders))
    rounds = fold.last_step
    for step in range(rounds + 1):
        plan.add_group(start_round + step, fold._replace(step=step))
    return rounds, holders


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
    proc = lambda i, j: i * s + j
    for kk in range(n):
        plan.set_init(kk, ("ar", kk), a_pad[kk : kk + 1, :])
        plan.set_init(kk, ("bc", kk), b_pad[:, kk : kk + 1])

    # Round q + 1: each processor slices block column q of its A row and
    # block row q of its B column and sends them to the processors whose
    # C block needs them.
    for rnd in range(1, q_count + 1):
        q = rnd - 1
        strip = (q * s, (q + 1) * s)
        for kk in range(n):
            blk = kk // s
            for key, src, rows, cols, dsts in (
                (("as", kk, q), ("ar", kk), (0, 1), strip, [proc(blk, j) for j in range(s)]),
                (("bs", kk, q), ("bc", kk), strip, (0, 1), [proc(i, blk) for i in range(s)]),
            ):
                plan.add(rnd, kk, Slice(key, src, rows, cols))
                plan.add(rnd, kk, *(Send(dst, (key,)) for dst in dsts if dst != kk))
                if kk not in dsts:
                    plan.add(rnd, kk, Drop((key,)))

    for i in range(s):
        for j in range(s):
            p = proc(i, j)
            for q in range(q_count):
                a_srcs = tuple(("as", i * s + u, q) for u in range(s))
                b_srcs = tuple(("bs", j * s + v, q) for v in range(s))
                # The last block column lands in the trailing local step.
                plan.add(
                    q + 2,
                    p,
                    Assemble(("Ab", i, q), a_srcs, 0),
                    Assemble(("Bb", q, j), b_srcs, 1),
                    Mac(("C", i, j), ("Ab", i, q), ("Bb", q, j)),
                    Drop(a_srcs + b_srcs + (("Ab", i, q), ("Bb", q, j))),
                )
            plan.emit(p, ("C", i, j), i * s, j * s, (s, s))

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
    (i, q) and B tile (q, j) where the inputs hold them, which the rotation
    carves and ships in round 1.  A tree sum then folds each group's
    partials, whose blocks have ``side**2`` entries.
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


def _cut(holder, key, src, rows, cols):
    """A rotation piece that ``holder`` slices out of its input ``src``."""
    return holder, key, Slice(key, src, rows, cols)


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

    for c in range(n):
        plan.set_init(c, ("ac", c), a.data[:, c : c + 1])
        plan.set_init(c, ("br", c), b.data[c : c + 1, :])

    # A tile (i, q) is g column pieces, cut from A columns q * g .. q * g +
    # g - 1 by their holders; B tile (q, j) likewise from B rows.
    def parts(i, j, q):
        cols = range(q * g, (q + 1) * g)
        a_rows, b_cols = (i * g, (i + 1) * g), (j * g, (j + 1) * g)
        return (
            (tuple(_cut(c, ("acs", c, i), ("ac", c), a_rows, (0, 1)) for c in cols), 1),
            (tuple(_cut(c, ("brs", c, j), ("br", c), (0, 1), b_cols) for c in cols), 0),
        )

    _rotate_and_sum(plan, g, t, g, proc, parts)
    for c in range(n):
        plan.add(1, c, Drop((("ac", c), ("br", c))))
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

    for c in range(dp):
        plan.set_init(c, ("ar", c), a_pad[c : c + 1, :])
        plan.set_init(c, ("bc", c), b_pad[:, c : c + 1])

    # A tile (i, q) is s row pieces, cut from A rows i * s .. i * s + s - 1
    # by their holders; B tile (q, j) likewise from B columns.
    def parts(i, j, q):
        a_rows, b_cols = range(i * s, (i + 1) * s), range(j * s, (j + 1) * s)
        strip = (q * s, (q + 1) * s)
        return (
            (tuple(_cut(c, ("ars", c, q), ("ar", c), (0, 1), strip) for c in a_rows), 0),
            (tuple(_cut(c, ("bcs", c, q), ("bc", c), strip, (0, 1)) for c in b_cols), 1),
        )

    _rotate_and_sum(plan, blocks, m, s, proc, parts)
    for c in range(dp):
        plan.add(1, c, Drop((("ar", c), ("bc", c))))
    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(dp, n),
        dp,
        dp,
        d,
        d,
        meta={"predicted_rounds": plan.num_rounds, "padded_d": dp, "group_size": m},
    )
