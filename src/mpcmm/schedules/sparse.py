"""d-sparse multiplication on n processors with O(d) words each.

Processor r owns row r of A, column r of B, and the masked output row
r.  All factor positions are structural knowledge, so schedules are
wired at build time; only values travel at run time.

Both schedules are one builder, which makes one plan per call:

* trivial, the builder with zero layers: every processor fetches the B
  values its pending terms need, at most d incoming values and 2d
  outgoing values per processor per round, finishing in O(d) rounds.
  The terms are sorted (r, k, j) int arrays, the row-wise layout of
  Gustavson's sparse product, and each fetch round is one
  :class:`~mpcmm.plan.Fetch` group op over them: it folds the values
  the previous round fetched into the owners' output cells, then moves
  this round's values from their senders to their owners.

* two-phase: a decomposition first carves the term set into layers of
  disjoint dense blocks.  Each layer runs its blocks as parallel dense
  square multiplications (grid side sqrt(d), sqrt(d) + 1 rounds); the
  leftover terms run through the same fetch.  The trivial round
  count comes from the fetch assignment alone, without building that
  schedule; when the blocks would not beat it the builder makes the
  trivial plan instead, so two-phase never costs more rounds.

The decomposition heuristic groups rows by identical remaining column
support, pairs each group with its strongest output columns, and keeps
a layer only when it covers enough new terms.  Layer and residual
budgets are recorded in the result rather than enforced, since
adversarial instances may simply not cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine import MpcConfig
from ..matrix import SparseMatrix, check_d_sparse
from ..bounds import snapped
from ..plan import AccCell, Drop, Fetch, Pack, Plan, PlanProgram, Send, Slice
from ..semiring import SemiringSpec
from .common import Schedule, chunks, rotation_fragment

ROUND_CONSTANT = 8  # C in the layer / residual budget assertions
TRIVIAL_ROUND_CONSTANT = 4  # C_triv: the trivial schedule stays below 4d rounds


class RoundBoundExceeded(RuntimeError):
    """A built schedule needs more rounds than its proven bound allows."""


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exponent pair steering the two-phase split; eps2 is the chosen one."""

    eps1: float = 0.0
    eps2: float = 0.1

    def __post_init__(self):
        if self.eps1 < 0:
            raise ValueError("eps1 must be >= 0")
        if self.eps1 > self.eps2 or (self.eps1 == self.eps2 != 0):
            raise ValueError("epsilon ordering violated: need 0 <= eps1 < eps2")


def iteration_budget(eps1: float, eps2: float, d: int, improved: bool = True) -> int:
    """Iterations allowed for the clustered phase at the given exponents.

    The improved bound grows as d**(4 * eps2), the superseded one as
    d**(5 * eps2 - eps1).  eps2 = 0 requests no reduction at all.
    """
    EpsilonSchedule(eps1, eps2)  # validates the ordering
    if eps2 == 0:
        return 1
    exponent = 4 * eps2 if improved else 5 * eps2 - eps1
    return snapped(ROUND_CONSTANT * d**exponent)


@dataclass(frozen=True)
class OutputMask:
    """Per output row, the column positions to produce (<= d each way)."""

    n: int
    d: int
    rows: tuple  # rows[r] = sorted tuple of column indices

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError(f"mask needs {self.n} rows")
        col_use = {}
        for r, cols in enumerate(self.rows):
            if len(cols) > self.d:
                raise ValueError(f"mask row {r} lists {len(cols)} > d columns")
            for j in cols:
                if not 0 <= j < self.n:
                    raise ValueError(f"mask column {j} out of range")
                col_use[j] = col_use.get(j, 0) + 1
        for j, uses in col_use.items():
            if uses > self.d:
                raise ValueError(f"mask column {j} used {uses} > d times")

    def cols(self, r: int) -> tuple:
        return self.rows[r]


def default_mask(a: SparseMatrix, b: SparseMatrix, d: int) -> OutputMask:
    """Pick, per row, the d columns with the most contributing terms."""
    n = a.rows
    b_row_support = [[] for _ in range(n)]
    for k, j, _ in b.entries:
        b_row_support[k].append(j)
    a_row_support = a.row_support()

    col_capacity = [d] * n
    rows = []
    for r in range(n):
        counts = {}
        for k in a_row_support[r]:
            for j in b_row_support[k]:
                counts[j] = counts.get(j, 0) + 1
        ranked = sorted(counts, key=lambda j: (-counts[j], j))
        chosen = []
        for j in ranked:
            if len(chosen) == d:
                break
            if col_capacity[j] > 0:
                chosen.append(j)
                col_capacity[j] -= 1
        rows.append(tuple(sorted(chosen)))
    return OutputMask(n, d, tuple(rows))


@dataclass
class TermLedger:
    """Pending products per masked output entry."""

    pending: dict  # (r, j) -> set of inner indices k

    @property
    def remaining_terms(self) -> int:
        return sum(len(ks) for ks in self.pending.values())

    def copy(self) -> "TermLedger":
        return TermLedger({rj: set(ks) for rj, ks in self.pending.items()})

    def terms(self):
        for (r, j), ks in sorted(self.pending.items()):
            for k in sorted(ks):
                yield r, k, j


def build_ledger(a: SparseMatrix, b: SparseMatrix, mask: OutputMask) -> TermLedger:
    n = a.rows
    a_row = [[] for _ in range(n)]
    for r, k, _ in a.entries:
        a_row[r].append(k)
    b_row = [set() for _ in range(n)]
    for k, j, _ in b.entries:
        b_row[k].add(j)

    pending = {}
    for r in range(n):
        masked = set(mask.cols(r))
        if not masked:
            continue
        for k in a_row[r]:
            for j in b_row[k] & masked:
                pending.setdefault((r, j), set()).add(k)
    return TermLedger(pending)


@dataclass(frozen=True)
class BlockTriple:
    """Disjoint (A rows x inner) * (inner x cols) product inside a layer."""

    rows: tuple
    ks: tuple
    cols: tuple
    terms: tuple  # (r, k, j) triples this block accounts for


@dataclass
class Decomposition:
    layers: list  # list of [BlockTriple]
    ledger: TermLedger  # every masked term, before the layers took theirs
    residual: TermLedger
    layer_budget: int
    residual_budget: int
    block_side: int

    @property
    def total_terms(self) -> int:
        return self.ledger.remaining_terms

    @property
    def covered_terms(self) -> int:
        return sum(len(b.terms) for layer in self.layers for b in layer)

    @property
    def meets_layer_budget(self) -> bool:
        return len(self.layers) <= self.layer_budget

    @property
    def meets_residual_budget(self) -> bool:
        return self.residual.remaining_terms <= self.residual_budget

    def report(self) -> dict:
        return {
            "layers": len(self.layers),
            "layer_budget": self.layer_budget,
            "blocks": sum(len(layer) for layer in self.layers),
            "covered_terms": self.covered_terms,
            "residual_terms": self.residual.remaining_terms,
            "residual_budget": self.residual_budget,
            "meets_layer_budget": self.meets_layer_budget,
            "meets_residual_budget": self.meets_residual_budget,
        }


def decompose(
    a: SparseMatrix, b: SparseMatrix, mask: OutputMask, eps: EpsilonSchedule
) -> Decomposition:
    """Split the masked term set into dense block layers plus a residual.

    Rows sharing their remaining column support are batched into blocks
    of side sqrt(d)**2 together with their strongest output columns.  A
    layer is kept only when it covers enough new terms to be worth a
    block-multiply pass; budget misses are reported, never raised.
    """
    n, d = mask.n, mask.d
    ledger = build_ledger(a, b, mask)
    remaining = ledger.copy()

    grid = math.isqrt(d) if d >= 1 else 1
    side = max(grid * grid, 1)
    layer_budget = iteration_budget(eps.eps1, eps.eps2, d) if d >= 1 else 1
    residual_budget = snapped(ROUND_CONSTANT * n * d ** (2 - eps.eps2)) if d >= 1 else 0
    layer_threshold = n * d ** (2 - eps.eps2) / layer_budget if d >= 1 else 0
    block_threshold = max(side**3 // 4, 1)
    max_blocks = max(n // side, 1)

    b_col_support = {}
    for k, j, _ in b.entries:
        b_col_support.setdefault(j, set()).add(k)

    layers = []
    while len(layers) < layer_budget:
        used_rows, used_ks, used_cols = set(), set(), set()
        blocks = []
        row_support = {}
        for (r, _), ks in remaining.pending.items():
            if ks:
                row_support.setdefault(r, set()).update(ks)
        groups = {}
        for r, ks in row_support.items():
            groups.setdefault(frozenset(ks), []).append(r)

        for sig in sorted(groups, key=lambda s: (-len(groups[s]) * len(s), min(groups[s]))):
            if len(blocks) >= max_blocks:
                break
            rows_avail = sorted(r for r in groups[sig] if r not in used_rows)
            k_full = sorted(k for k in sig if k not in used_ks)
            for k_chunk in chunks(k_full, side):
                kset = set(k_chunk)
                for r_chunk in chunks(rows_avail, side):
                    if len(blocks) >= max_blocks:
                        break
                    counts = {}
                    for r in r_chunk:
                        for j in mask.cols(r):
                            if j in used_cols:
                                continue
                            hits = len(remaining.pending.get((r, j), set()) & kset)
                            if hits:
                                counts[j] = counts.get(j, 0) + hits
                    cols = sorted(counts, key=lambda j: (-counts[j], j))[:side]
                    # A dense pass over (rows x k_chunk x cols) computes every
                    # structural term there; all of them must still be pending
                    # or the pass would double-count.  kset is drawn from the
                    # rows' support, so the structural terms for (r, j) within
                    # the block are exactly b's column support meeting kset.
                    ok_cols = []
                    for j in cols:
                        needed = b_col_support.get(j, set()) & kset
                        if all(
                            needed <= remaining.pending.get((r, j), set())
                            for r in r_chunk
                            if j in mask.cols(r)
                        ):
                            ok_cols.append(j)
                    if not ok_cols:
                        continue
                    terms = []
                    for r in r_chunk:
                        masked = set(mask.cols(r))
                        for j in sorted(ok_cols):
                            if j not in masked:
                                continue
                            for k in sorted(remaining.pending.get((r, j), set()) & kset):
                                terms.append((r, k, j))
                    if len(terms) < block_threshold:
                        continue
                    blocks.append(
                        BlockTriple(
                            tuple(r_chunk), tuple(k_chunk), tuple(sorted(ok_cols)), tuple(terms)
                        )
                    )
                    used_rows.update(r_chunk)
                    used_ks.update(k_chunk)
                    used_cols.update(ok_cols)
                    break  # rows of this chunk are used up for the layer

        layer_terms = sum(len(blk.terms) for blk in blocks)
        if not blocks or layer_terms < layer_threshold:
            break
        for blk in blocks:
            for r, k, j in blk.terms:
                remaining.pending[(r, j)].discard(k)
        layers.append(blocks)

    for rj in [rj for rj, ks in remaining.pending.items() if not ks]:
        del remaining.pending[rj]
    return Decomposition(layers, ledger, remaining, layer_budget, residual_budget, side)


def _term_array(ledger: TermLedger) -> np.ndarray:
    """The ledger's terms as a (3, terms) int array, rows r, k, j, sorted by (r, j, k)."""
    terms = np.array([(r, k, j) for (r, j), ks in ledger.pending.items() for k in ks],
                     dtype=np.int64).reshape(-1, 3).T
    return terms[:, np.lexsort((terms[1], terms[2], terms[0]))]


def _fetch_assignment(terms, d: int) -> np.ndarray:
    """Greedy value-fetch rounds: owner r pulls b[k, j] from processor j.

    ``terms`` is a (3, terms) int array, rows r, k, j, sorted by (r, j, k).
    In that order each remote term (j != r) takes the first round in
    which its owner has accepted fewer than d values and its sender has
    shipped fewer than 2d, so an owner's d**2 terms and a sender's d**2
    duties both drain within O(d) rounds.  Per-owner and per-sender
    pointers to the first round with room skip the rounds that are
    already full.  Returns each remote term's fetch round, counted from 1.
    """
    quota, cap = max(d, 1), 2 * max(d, 1)
    remote = terms[:, terms[2] != terms[0]]
    owners, senders = remote[0].tolist(), remote[2].tolist()
    # A term waits only through rounds that its owner or its sender has
    # filled before it, so every round index stays below ``span``.
    span = 1 + (int(np.bincount(remote[0]).max(initial=0)) // quota
                + int(np.bincount(remote[2]).max(initial=0)) // cap)
    shipped = [[0] * span for _ in range(max(senders, default=-1) + 1)]
    send_free = [0] * len(shipped)  # per sender, the first round with room
    rounds = []
    owner = None
    for r, j in zip(owners, senders):
        if r != owner:  # an owner's terms are consecutive
            owner, got, recv_free = r, [0] * span, 0
        ships = shipped[j]
        rd = max(recv_free, send_free[j])
        while got[rd] >= quota or ships[rd] >= cap:
            rd += 1
        got[rd] += 1
        ships[rd] += 1
        while got[recv_free] >= quota:
            recv_free += 1
        free = send_free[j]
        while ships[free] >= cap:
            free += 1
        send_free[j] = free
        rounds.append(rd + 1)
    return np.array(rounds, dtype=np.int64)


def fetch_fragment(plan, terms, fetch_rounds, start):
    """The fetch of ``terms``, a (3, terms) int array r, k, j sorted by (r, j, k).

    Term i with j != r moves b(k, j) from processor j to r in round
    ``start + fetch_rounds[i]`` and folds into c(r, j) in the round after;
    the resident terms (j == r) fold in the trailing local step, with the
    values fetched last.  One :class:`~mpcmm.plan.Fetch` per round, which
    folds the last round's values before it moves its own.
    """
    remote = terms[2] != terms[0]
    order = np.argsort(fetch_rounds, kind="stable")
    moves, rounds = terms[:, remote][:, order], fetch_rounds[order]
    frag = plan.fragments
    plan.fragments += 1
    arrived = terms[:, :0]
    for rd in range(1, int(rounds.max(initial=0)) + 1):
        move = moves[:, np.searchsorted(rounds, rd) : np.searchsorted(rounds, rd, side="right")]
        plan.add_group(start + rd, Fetch(frag, arrived, move, move[2]))
        arrived = move
    last = np.concatenate([arrived, terms[:, ~remote]], axis=1)
    if last.size:
        plan.add_group(plan.num_rounds + 1, Fetch(frag, last, last[:, :0], last[2, :0]))


def _sparse_schedule(n, d, a, b, mask, spec, eps=None) -> Schedule:
    """The one sparse plan: the fetch of every masked term or, given `eps`,
    the decomposition's layers and then the residual's fetch when that
    takes fewer rounds.  The terms travel as sorted (r, k, j) int arrays,
    and the fetch is one :class:`~mpcmm.plan.Fetch` group op per round
    (see :func:`fetch_fragment`); the layers hand their C rows back with
    per-processor ops.
    """
    if a.rows != n or a.cols != n or b.rows != n or b.cols != n:
        raise ValueError(f"inputs must be {n}x{n}")
    if not check_d_sparse(a, d) or not check_d_sparse(b, d):
        raise ValueError(f"inputs are not {d}-sparse")
    if mask.n != n or mask.d != d:
        raise ValueError("mask does not match the problem shape")
    decomp = None if eps is None else decompose(a, b, mask, eps)
    ledger = build_ledger(a, b, mask) if decomp is None else decomp.ledger
    terms = _term_array(ledger)
    fetched = _fetch_assignment(terms, d)
    rounds = max(int(fetched.max(initial=0)), 1)
    bound = TRIVIAL_ROUND_CONSTANT * max(d, 1)
    if rounds > bound:
        raise RoundBoundExceeded(
            f"fetch plan needs {rounds} rounds, over the {TRIVIAL_ROUND_CONSTANT}d = {bound} bound"
        )
    layers, grid, meta = (), 0, {}
    if decomp is not None:
        meta = {"fallback": True, "decomposition": decomp.report()}
    if decomp is not None and decomp.layers:
        grid = math.isqrt(decomp.block_side)
        residual = _term_array(decomp.residual)
        residual_fetched = _fetch_assignment(residual, d)
        total = len(decomp.layers) * (grid + 1) + int(residual_fetched.max(initial=0))
        if total <= rounds:
            layers, terms, rounds, fetched = decomp.layers, residual, total, residual_fetched
            meta["fallback"] = False

    plan = Plan(num_procs=n, num_rounds=rounds, min_memory=max(d, 1))
    for r, k, v in a.entries:
        plan.set_init(r, ("a", r, k), np.array([v], dtype=np.int64))
    for k, j, v in b.entries:
        plan.set_init(j, ("b", k, j), np.array([v], dtype=np.int64))

    stride = grid + 1
    fetch_fragment(plan, terms, fetched, len(layers) * stride)
    for li, layer in enumerate(layers):
        _build_layer(plan, layer, li, li * stride + 1, grid, mask, a, b)
    for r in range(n):
        for j in mask.cols(r):
            plan.emit(r, ("c", r, j), r, j, (1,))

    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(n, 2 * max(d, 1)),
        n,
        n,
        n,
        n,
        meta={"predicted_rounds": rounds, **meta},
    )


def schedule_sparse_trivial(
    n, d, a: SparseMatrix, b: SparseMatrix, mask: OutputMask, spec: SemiringSpec
) -> Schedule:
    """One output row per processor; fetch up to d values per round."""
    return _sparse_schedule(n, d, a, b, mask, spec)


def schedule_sparse_twophase(
    n,
    d,
    a: SparseMatrix,
    b: SparseMatrix,
    mask: OutputMask,
    eps: EpsilonSchedule,
    spec: SemiringSpec,
) -> Schedule:
    """Dense block layers first, trivial fetch for the residual."""
    return _sparse_schedule(n, d, a, b, mask, spec, eps)


def _build_layer(plan, layer, li, r0, grid, mask, a: SparseMatrix, b: SparseMatrix):
    """One layer: disjoint dense blocks on grid**2 processors each.

    Rounds r0 .. r0 + grid: the skewed square rotation, whose first
    round distributes the values: each tile row (column) is packed by the
    owner of its A row (B column), or as zeros at the consumer for a
    padding row (column).  The last slot also scatters finished C rows
    back to their owners, who fold them in one round later, which may be
    the trailing local step.
    """
    side = grid * grid
    a_support = {(r, k) for r, k, _ in a.entries}
    b_support = {(k, j) for k, j, _ in b.entries}

    for bi, blk in enumerate(layer):
        base = bi * side

        def bproc(ti, tj):
            return base + ti * grid + tj

        rows = list(blk.rows) + [None] * (side - len(blk.rows))
        ks = list(blk.ks) + [None] * (side - len(blk.ks))
        cols = list(blk.cols) + [None] * (side - len(blk.cols))

        def parts(ti, tj, x):
            # Row and column owners pack their value slices of A tile
            # (ti, x) and B tile (x, tj); a padding row or column is packed
            # as zeros at the consumer itself.
            inner = range(x * grid, (x + 1) * grid)
            a_pieces = []
            for u in range(ti * grid, (ti + 1) * grid):
                r = rows[u]
                keys = tuple(
                    ("a", r, ks[v]) if ks[v] is not None and (r, ks[v]) in a_support else None
                    for v in inner
                )
                key = ("xa", li, bi, u, x)
                holder = bproc(ti, tj) if r is None else r
                a_pieces.append((holder, key, Pack(key, keys, (1, grid))))
            b_pieces = []
            for v in range(tj * grid, (tj + 1) * grid):
                j = cols[v]
                keys = tuple(
                    ("b", ks[u], j) if ks[u] is not None and (ks[u], j) in b_support else None
                    for u in inner
                )
                key = ("xb", li, bi, x, v)
                holder = bproc(ti, tj) if j is None else j
                b_pieces.append((holder, key, Pack(key, keys, (grid, 1))))
            return (tuple(a_pieces), 0), (tuple(b_pieces), 1)

        rotation_fragment(plan, grid, bproc, parts, lambda ti, tj: ("XC", li, bi, ti, tj),
                          r0 + 1, grid)

        # Gather, after the last slot's Mac in the same round: finished
        # C-tile rows go home to their owners, who fold them in one round
        # later, which may be the trailing local step.
        last = r0 + grid
        for ti in range(grid):
            for tj in range(grid):
                p = bproc(ti, tj)
                ckey = ("XC", li, bi, ti, tj)
                for u_local in range(grid):
                    r = rows[ti * grid + u_local]
                    if r is None:
                        continue
                    gkey = ("xg", li, bi, r, tj)
                    plan.add(last, p, Slice(gkey, ckey, (u_local, u_local + 1), (0, grid)))
                    if r != p:
                        plan.add(last, p, Send(r, (gkey,)), Drop((gkey,)))
                    masked = set(mask.cols(r))
                    accs = []
                    for v_local in range(grid):
                        j = cols[tj * grid + v_local]
                        if j is not None and j in masked:
                            accs.append(AccCell(("c", r, j), gkey, v_local))
                    accs.append(Drop((gkey,)))
                    plan.add(last + 1, r, *accs)
                plan.add(last, p, Drop((ckey,)))
