"""Rectangular schedules and the fan-in sum they share.

Three machine shapes:

* (n, d, n): n processors with O(n) words produce the n x n output in
  d / sqrt(n) rounds.  Each processor starts with one row of A and one
  column of B, streams one sqrt(n)-wide block column of A (and block row
  of B) per round, and accumulates its C block.

* (d, n, d) on n processors with O(d) words: the d x d output splits
  into d blocks of side sqrt(d), each assigned to a group of n / d
  processors.  One distribution round pairs tiles with their first
  consumers, sqrt(d) skewed product rounds accumulate group partials,
  and a tree sum folds the n / d partials per block.

* (d, n, d) on d processors with O(n) words: same shape with
  sqrt(n)-side tiles, d / sqrt(n) product rounds and a single-round
  fold (n / d partials always fit one processor's memory).

The tree sum fans t distributed addends into per-entry totals with
fan-in width k: one scatter round spreads each addend's entries over
collectors, then k-ary rounds reduce the per-entry value count to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine import MpcConfig
from ..matrix import DenseMatrix
from ..plan import Acc, Assemble, Cell, Drop, Mac, Plan, PlanProgram, Send, Slice
from ..semiring import SemiringSpec
from .common import Schedule, chunks, place, rotation_fragment


def tree_sum_fragment(
    plan: Plan,
    members: list,
    addend_key_of,
    entries: int,
    width: int,
    start_round: int,
    ns: tuple = (),
):
    """Sum t addends held one-per-member; returns (rounds, entry holders).

    ``addend_key_of(l)`` names member l's addend (flat length =
    ``entries``); ``ns`` disambiguates key names when several fragments
    share a plan.  The fragment occupies rounds ``start_round ..
    start_round + rounds - 1``; the final per-entry accumulations run one
    round past that (the caller's next round, or finalize).
    Entry holders map entry -> (proc, key) of the finished value.
    """
    t = len(members)
    width = max(2, width)
    m = -(-t // width)

    # Scatter: member l parcels entry e out to the collector of its chunk.
    for l, src in enumerate(members):
        chunk = l // width
        by_dst = {}
        for e in range(entries):
            key = ("ts", ns, e, l)
            plan.add(start_round, src, Cell(key, addend_key_of(l), e))
            by_dst.setdefault((e * m + chunk) % t, []).append(key)
        for dst_l, keys in sorted(by_dst.items()):
            dst = members[dst_l]
            if dst != src:
                plan.add(start_round, src, Send(dst, tuple(keys)), Drop(tuple(keys)))
        plan.add(start_round, src, Drop((addend_key_of(l),)))

    holders = {}
    for e in range(entries):
        holders[e] = []
        for c in range(m):
            dst_l = (e * m + c) % t
            dst = members[dst_l]
            skey = ("tv", ns, e, dst)
            for l in range(c * width, min((c + 1) * width, t)):
                tkey = ("ts", ns, e, l)
                plan.add(start_round + 1, dst, Acc(skey, tkey), Drop((tkey,)))
            holders[e].append((dst, skey))

    # A level's Accs were added before its Sends, so each collector folds
    # what it received before it forwards its sum.
    rounds = 1
    level_round = start_round + 1
    while m > 1:
        for e in range(entries):
            new_holders = []
            for chunk in chunks(holders[e], width):
                col_proc, col_key = chunk[0]
                for sender_proc, sender_key in chunk[1:]:
                    plan.add(
                        level_round,
                        sender_proc,
                        Send(col_proc, (sender_key,)),
                        Drop((sender_key,)),
                    )
                    plan.add(
                        level_round + 1, col_proc, Acc(col_key, sender_key), Drop((sender_key,))
                    )
                new_holders.append((col_proc, col_key))
            holders[e] = new_holders
        m = -(-m // width)
        rounds += 1
        level_round += 1

    return rounds, {e: holders[e][0] for e in range(entries)}


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

    rounds, final = tree_sum_fragment(
        plan, list(range(t)), lambda l: ("M", l), entries, k, 1, ns=("sum",)
    )
    plan.num_rounds = rounds
    for e, (proc, key) in final.items():
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


def schedule_ndn(n, d, a: DenseMatrix, b: DenseMatrix, spec: SemiringSpec) -> Schedule:
    """(n x d) * (d x n) on n processors; d / sqrt(n) rounds."""
    if d > n:
        raise ValueError("requires d <= n")
    if d < 1:
        raise ValueError("d must be >= 1")
    s = math.isqrt(n)
    if s * s != n:
        raise ValueError("n must be a perfect square")
    if a.rows != n or a.cols != d or b.rows != d or b.cols != n:
        raise ValueError(f"expected ({n}x{d}) * ({d}x{n})")
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
                # The last block column lands past the end and runs at finalize.
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
    """Rounds 2 onward of both (d, n, d) schedules.

    Processor ``proc(i, j, l)``, member l of the group for output block
    (i, j), rotates inner tiles l * blocks .. (l + 1) * blocks - 1 into its
    partial ("P", i, j, l); ``parts(i, j, q)`` names the round-1 pieces of
    A tile (i, q) and B tile (q, j) with their axes.  A tree sum then folds
    each group's partials, whose blocks have ``side**2`` entries.
    """
    for l in range(group_size):
        rotation_fragment(
            plan,
            blocks,
            lambda i, j: proc(i, j, l),
            lambda i, x: ("At", i, l * blocks + x),
            lambda x, j: ("Bt", l * blocks + x, j),
            lambda i, j: ("P", i, j, l),
            2,
            side,
            parts=lambda i, j, x: parts(i, j, l * blocks + x),
        )
    phase1 = 1 + blocks
    plan.num_rounds = phase1
    for i in range(blocks):
        for j in range(blocks):
            if group_size == 1:
                plan.emit(proc(i, j, 0), ("P", i, j, 0), i * side, j * side, (side, side))
                continue
            members = [proc(i, j, l) for l in range(group_size)]
            rounds, final = tree_sum_fragment(
                plan,
                members,
                lambda l, i=i, j=j: ("P", i, j, l),
                side * side,
                side * side,
                phase1 + 1,
                ns=("g", i, j),
            )
            plan.num_rounds = max(plan.num_rounds, phase1 + rounds)
            for e, (holder, key) in final.items():
                plan.emit(holder, key, i * side + e // side, j * side + e % side, (1,))


def schedule_dnd_nproc(n, d, a: DenseMatrix, b: DenseMatrix, spec: SemiringSpec) -> Schedule:
    """(d x n) * (n x d) on n processors with O(d) memory."""
    if d > n:
        raise ValueError("requires d <= n")
    if d < 1:
        raise ValueError("d must be >= 1")
    g = math.isqrt(d)
    if g * g != d:
        raise ValueError("d must be a perfect square")
    if n % d:
        raise ValueError("n must be a multiple of d")
    if a.rows != d or a.cols != n or b.rows != n or b.cols != d:
        raise ValueError(f"expected ({d}x{n}) * ({n}x{d})")
    t = n // d
    nq = n // g

    plan = Plan(num_procs=n, num_rounds=0, min_memory=d)
    proc = lambda i, j, l: (i * g + j) * t + l

    for c in range(n):
        plan.set_init(c, ("ac", c), a.data[:, c : c + 1])
        plan.set_init(c, ("br", c), b.data[c : c + 1, :])

    # Round 1: carve the column/row inputs into tiles at their slot-0
    # consumers.  Tile (i, q) of A is consumed by member q // g of group
    # (i, j) in the slot where (i + j + slot) mod g == q mod g.
    for q in range(nq):
        l, o = q // g, q % g
        for i in range(g):
            dst = proc(i, (o - i) % g, l)
            for c in range(q * g, (q + 1) * g):
                place(plan, 1, c, dst, Slice(("acs", c, i), ("ac", c), (i * g, (i + 1) * g), (0, 1)))
        for j in range(g):
            dst = proc((o - j) % g, j, l)
            for c in range(q * g, (q + 1) * g):
                place(plan, 1, c, dst, Slice(("brs", c, j), ("br", c), (0, 1), (j * g, (j + 1) * g)))
    for c in range(n):
        plan.add(1, c, Drop((("ac", c), ("br", c))))

    def parts(i, j, q):
        cols = range(q * g, (q + 1) * g)
        return (tuple(("acs", c, i) for c in cols), 1), (tuple(("brs", c, j) for c in cols), 0)

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
    if d > n:
        raise ValueError("requires d <= n")
    if d < 1:
        raise ValueError("d must be >= 1")
    s = math.isqrt(n)
    if s * s != n:
        raise ValueError("n must be a perfect square")
    if a.rows != d or a.cols != n or b.rows != n or b.cols != d:
        raise ValueError(f"expected ({d}x{n}) * ({n}x{d})")
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

    for q in range(s):
        l, o = q // blocks, q % blocks
        for i in range(blocks):
            dst = proc(i, (o - i) % blocks, l)
            for c in range(i * s, (i + 1) * s):
                place(plan, 1, c, dst, Slice(("ars", c, q), ("ar", c), (0, 1), (q * s, (q + 1) * s)))
        for j in range(blocks):
            dst = proc((o - j) % blocks, j, l)
            for c in range(j * s, (j + 1) * s):
                place(plan, 1, c, dst, Slice(("bcs", c, q), ("bc", c), (q * s, (q + 1) * s), (0, 1)))
    for c in range(dp):
        plan.add(1, c, Drop((("ar", c), ("bc", c))))

    def parts(i, j, q):
        a_rows, b_cols = range(i * s, (i + 1) * s), range(j * s, (j + 1) * s)
        return (tuple(("ars", c, q) for c in a_rows), 0), (tuple(("bcs", c, q) for c in b_cols), 1)

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
