"""d-sparse multiplication on n processors with O(d) words each.

Processor r owns row r of A, column r of B, and the masked output row
r.  It stores the inputs as two row tiles, ("a", r) in column order and
("b", r) in row order, and the builders name each word by its offset in
its tile, found with ``searchsorted``.  All factor positions are
structural knowledge, so schedules are wired at build time; only values
travel at run time.

Both schedules are one builder, which makes one plan per call.  The
whole front end is columnar: the inputs are sorted (r, c, v) arrays, and
:func:`build_ledger` returns the masked terms as one (3, terms) int
array, rows r, k, j sorted by (r, j, k), the row-wise layout of
Gustavson's sparse product.  The mask, the decomposition and the fetch
all work on such arrays.

* trivial, the builder with zero layers: every processor fetches the B
  values its terms need, at most d incoming values and 2d outgoing
  values per processor per round, finishing in O(d) rounds.  Each fetch
  round is one :class:`~mpcmm.plan.Fetch` group op over the term array:
  it folds the values the previous round fetched into the owners'
  output cells, then moves this round's values from their senders to
  their owners.

* two-phase: a decomposition first carves the term set into layers of
  disjoint dense blocks.  Each layer runs its blocks as parallel dense
  square multiplications: one rotation whose grids are the blocks (grid
  side sqrt(d), sqrt(d) + 1 rounds), one gather and one ``Rotate`` per
  slot for all of them.  The leftover terms run through the same fetch.
  When the blocks would not beat the trivial fetch the builder makes the
  trivial plan instead, so two-phase never costs more rounds.  No fetch
  of every term takes fewer rounds than its load bound (per owner,
  remote terms over d; per sender, over 2d), so layers within that bound
  win without the trivial fetch being assigned at all.

The decomposition heuristic groups rows by identical remaining column
support, pairs each group with its strongest output columns, and keeps
a layer only when it covers enough new terms.  Layer and residual
budgets are recorded in the result rather than enforced, since
adversarial instances may simply not cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from ..engine import MpcConfig
from ..matrix import SparseMatrix, check_d_sparse
from ..bounds import snapped
from ..plan import Fetch, Plan, PlanProgram
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
        if not (math.isfinite(self.eps1) and math.isfinite(self.eps2)):
            raise ValueError(f"eps1 and eps2 must be finite, not {self.eps1} and {self.eps2}")
        if self.eps1 < 0:
            raise ValueError("eps1 must be >= 0")
        if self.eps1 > self.eps2 or (self.eps1 == self.eps2 != 0):
            raise ValueError("epsilon ordering violated: need 0 <= eps1 < eps2")


def iteration_budget(eps1: float, eps2: float, d: int, improved: bool = True) -> int:
    """Iterations allowed for the clustered phase at the given exponents.

    The improved bound grows as d**(4 * eps2), the superseded one as
    d**(5 * eps2 - eps1).  eps2 = 0 requests no reduction at all.
    """
    EpsilonSchedule(eps1, eps2)  # validates the exponents
    if eps2 == 0:
        return 1
    exponent = 4 * eps2 if improved else 5 * eps2 - eps1
    try:
        return snapped(ROUND_CONSTANT * d**exponent)
    except OverflowError:
        raise ValueError(f"eps2 = {eps2} at d = {d}: the budget leaves float range") from None


@dataclass(frozen=True)
class OutputMask:
    """Per output row, the column positions to produce (<= d each way)."""

    n: int
    d: int
    rows: tuple  # rows[r] = strictly increasing tuple of column indices

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError(f"mask needs {self.n} rows")
        r, j = self.pairs
        per_row = np.bincount(r, minlength=self.n)
        over = np.flatnonzero(per_row > self.d)
        if over.size:
            raise ValueError(f"mask row {over[0]} lists {per_row[over[0]]} > d columns")
        out = np.flatnonzero((j < 0) | (j >= self.n))
        if out.size:
            raise ValueError(f"mask column {j[out[0]]} out of range")
        unsorted = np.flatnonzero((r[1:] == r[:-1]) & (j[1:] <= j[:-1]))
        if unsorted.size:
            raise ValueError(f"mask row {r[unsorted[0]]} is not strictly increasing")
        per_col = np.bincount(j, minlength=self.n)
        over = np.flatnonzero(per_col > self.d)
        if over.size:
            raise ValueError(f"mask column {over[0]} used {per_col[over[0]]} > d times")

    @cached_property
    def pairs(self) -> tuple:
        """The masked cells as int64 arrays (r, j), in row order."""
        r = np.repeat(np.arange(self.n), [len(cols) for cols in self.rows])
        j = np.fromiter(chain.from_iterable(self.rows), dtype=np.int64, count=len(r))
        return r, j

    @cached_property
    def keys(self) -> np.ndarray:
        """r * n + j of every masked cell (r, j), ascending."""
        r, j = self.pairs
        return r * self.n + j


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Elementwise: is ``keys`` in the ascending array ``sorted_keys``?"""
    if not len(sorted_keys):
        return np.zeros(np.shape(keys), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def _join(a: SparseMatrix, b: SparseMatrix):
    """Every term of A B, a(r, k) and b(k, j) both stored, as int64 arrays
    r, k, j in (r, k, j) order: A's entry (r, k) meets B's row k, the
    slice of B's sorted arrays that starts at ``first[k]``."""
    count = np.bincount(b.r, minlength=a.cols)
    first = np.cumsum(count) - count
    per = count[a.c]
    src = np.repeat(np.arange(len(a.c)), per)
    at = np.arange(len(src)) - np.repeat(np.cumsum(per) - per, per) + first[a.c][src]
    return a.r[src], a.c[src], b.c[at]


def default_mask(a: SparseMatrix, b: SparseMatrix, d: int) -> OutputMask:
    """Pick, per row, the d columns with the most contributing terms.

    Rows go in order, and each takes its best-ranked columns (most terms,
    then lowest index) that fewer than d earlier rows took.
    """
    n, width = a.rows, b.cols
    r, _, j = _join(a, b)
    cells, counts = np.unique(r * width + j, return_counts=True)
    cell_r, cell_j = np.divmod(cells, width)
    ranked = np.lexsort((cell_j, -counts, cell_r))
    cell_j = cell_j[ranked]
    bounds = np.searchsorted(cell_r[ranked], np.arange(n + 1)).tolist()
    room = np.full(width, d)
    rows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ranking = cell_j[lo:hi]
        chosen = ranking[room[ranking] > 0][: max(d, 0)]
        room[chosen] -= 1
        rows.append(tuple(np.sort(chosen).tolist()))
    return OutputMask(n, d, tuple(rows))


def build_ledger(a: SparseMatrix, b: SparseMatrix, mask: OutputMask) -> np.ndarray:
    """Every masked term, as a (3, terms) int64 array with rows r, k, j.

    Term (r, k, j) is a(r, k) (*) b(k, j) with both entries stored and j
    in row r of the mask.  The columns are sorted by (r, j, k): owner r's
    terms are one slice, and within it each output cell's terms are
    consecutive.
    """
    r, k, j = _join(a, b)
    keep = (j < mask.n) & _member(mask.keys, r * mask.n + j)
    r, k, j = r[keep], k[keep], j[keep]
    # The join lists each cell's terms with k ascending; a stable sort keeps that.
    order = np.argsort(r * mask.n + j, kind="stable")
    return np.stack((r[order], k[order], j[order]))


@dataclass(frozen=True)
class BlockTriple:
    """Disjoint (A rows x inner) * (inner x cols) product inside a layer."""

    rows: tuple
    ks: tuple
    cols: tuple
    terms: np.ndarray  # (3, t): the (r, k, j) terms this block accounts for, by (r, j, k)


@dataclass
class Decomposition:
    layers: list  # list of [BlockTriple]
    ledger: np.ndarray  # (3, terms): every masked term, before the layers took theirs
    residual: np.ndarray  # (3, terms): the ledger's terms no layer took, in ledger order
    layer_budget: int
    residual_budget: int
    block_side: int

    @property
    def total_terms(self) -> int:
        return self.ledger.shape[1]

    @property
    def residual_terms(self) -> int:
        return self.residual.shape[1]

    @property
    def covered_terms(self) -> int:
        return sum(b.terms.shape[1] for layer in self.layers for b in layer)

    @property
    def meets_layer_budget(self) -> bool:
        return len(self.layers) <= self.layer_budget

    @property
    def meets_residual_budget(self) -> bool:
        return self.residual_terms <= self.residual_budget

    def report(self) -> dict:
        return {
            "layers": len(self.layers),
            "layer_budget": self.layer_budget,
            "blocks": sum(len(layer) for layer in self.layers),
            "covered_terms": self.covered_terms,
            "residual_terms": self.residual_terms,
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

    The terms stay in the array :func:`build_ledger` returns, and
    ``live`` marks those no kept layer has taken; the residual is
    ``terms[:, live]``.  Python loops run per layer, support group, row
    and chunk, never per term.
    """
    n, d = mask.n, mask.d
    terms = build_ledger(a, b, mask)
    term_r, term_k, term_j = terms
    live = np.ones(terms.shape[1], dtype=bool)

    grid = math.isqrt(d) if d >= 1 else 1
    side = max(grid * grid, 1)
    layer_budget = iteration_budget(eps.eps1, eps.eps2, d) if d >= 1 else 1
    residual_budget = snapped(ROUND_CONSTANT * n * d ** (2 - eps.eps2)) if d >= 1 else 0
    layer_threshold = n * d ** (2 - eps.eps2) / layer_budget if d >= 1 else 0
    block_threshold = max(side**3 // 4, 1)
    max_blocks = max(n // side, 1)

    row_at = np.searchsorted(term_r, np.arange(n + 1))  # row r's terms: row_at[r]:row_at[r + 1]
    b_at = np.searchsorted(b.r, np.arange(n + 1))  # B's row k: b.c[b_at[k]:b_at[k + 1]]

    def block(r_chunk, kset, needed, used_cols):
        """The columns (ascending) and the term indices (in ledger order)
        of the block over ``r_chunk`` x ``kset``, or None.

        Its columns are the ``side`` unused ones with the most live terms
        in the chunk, less any where a dense pass would compute a term
        that is no longer live and so count it twice.  kset is drawn from
        the rows' support, so the structural terms of a masked (r, j) in
        the block are b's column support of j meeting kset: column j
        stays iff every chunk row that masks j has ``needed[j]`` live
        terms of (r, j) in kset.
        """
        rows = np.asarray(r_chunk)
        at = np.concatenate([np.arange(row_at[r], row_at[r + 1]) for r in r_chunk])
        hits = at[live[at] & kset[term_k[at]]]
        free = hits[~used_cols[term_j[hits]]]
        if len(free) < block_threshold:  # the block's terms are among these
            return None
        js, counts = np.unique(term_j[free], return_counts=True)
        cols = js[np.lexsort((js, -counts))][:side]

        slot = np.full(n, -1)
        slot[cols] = np.arange(len(cols))
        in_cols = hits[slot[term_j[hits]] >= 0]
        cell = np.searchsorted(rows, term_r[in_cols]) * len(cols) + slot[term_j[in_cols]]
        live_hits = np.bincount(cell, minlength=len(rows) * len(cols)).reshape(len(rows), -1)
        masked = _member(mask.keys, rows[:, None] * n + cols[None, :])
        cols = cols[~(masked & (live_hits != needed[cols])).any(axis=0)]
        keep = np.zeros(n, dtype=bool)
        keep[cols] = True
        picked = hits[keep[term_j[hits]]]
        if len(picked) < block_threshold:
            return None
        return tuple(np.sort(cols).tolist()), picked

    layers = []
    while len(layers) < layer_budget:
        used_rows, used_ks, used_cols = (np.zeros(n, dtype=bool) for _ in range(3))
        blocks, taken = [], []
        # Each row's live inner support, and the rows grouped by it (ascending).
        support = np.sort(term_r[live] * n + term_k[live])
        support_r, support_k = np.divmod(support[np.diff(support, prepend=-1) > 0], n)
        starts = np.flatnonzero(np.diff(support_r, prepend=-1))
        groups = {}
        for r, ks in zip(support_r[starts].tolist(), np.split(support_k, starts[1:])):
            groups.setdefault(ks.tobytes(), (ks, []))[1].append(r)
        row_live = np.bincount(term_r[live], minlength=n)

        for ks, rows in sorted(groups.values(), key=lambda g: (-len(g[1]) * len(g[0]), g[1][0])):
            if len(blocks) >= max_blocks:
                break
            rows_avail = [r for r in rows if not used_rows[r]]
            if row_live[rows_avail].sum() < block_threshold:
                continue  # no chunk of these rows holds enough terms for a block
            for k_chunk in chunks(ks[~used_ks[ks]].tolist(), side):
                kset = np.zeros(n, dtype=bool)
                kset[k_chunk] = True
                needed = np.bincount(np.concatenate([b.c[b_at[k] : b_at[k + 1]] for k in k_chunk]),
                                     minlength=n)
                for r_chunk in chunks(rows_avail, side):
                    if len(blocks) >= max_blocks:
                        break
                    found = block(r_chunk, kset, needed, used_cols)
                    if found is None:
                        continue
                    cols, picked = found
                    blocks.append(BlockTriple(tuple(r_chunk), tuple(k_chunk), cols,
                                              terms[:, picked]))
                    taken.append(picked)
                    used_rows[r_chunk] = True
                    used_ks[k_chunk] = True
                    used_cols[list(cols)] = True
                    break  # rows of this chunk are used up for the layer

        if not blocks or sum(map(len, taken)) < layer_threshold:
            break
        live[np.concatenate(taken)] = False
        layers.append(blocks)

    return Decomposition(layers, terms, terms[:, live], layer_budget, residual_budget, side)


def _load_bound(terms, d: int) -> int:
    """max(ceil(in_r / d), ceil(out_j / 2d), 1) over the remote terms.

    A round moves at most d values into owner r and 2d out of sender j,
    so every fetch of ``terms`` takes at least this many rounds.
    """
    quota = max(d, 1)
    remote = terms[:, terms[0] != terms[2]]
    into = int(np.bincount(remote[0]).max(initial=0))
    out = int(np.bincount(remote[2]).max(initial=0))
    return max(-(-into // quota), -(-out // (2 * quota)), 1)


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
    """The fetch of ``terms``, a (5, terms) int array r, k, j, a_at, b_at
    sorted by (r, j, k): a(r, k) is word a_at of row tile ("a", r) and
    b(k, j) word b_at of ("b", j).

    Term i with j != r moves b(k, j) from processor j to r in round
    ``start + fetch_rounds[i]`` and folds into c(r, j) in the round after;
    the resident terms (j == r) fold in the trailing local step, after
    the values fetched last.  One :class:`~mpcmm.plan.Fetch` per round
    holds the terms it moves, and one in the trailing step the resident
    terms; each folds what the one before moved before it moves its own.
    """
    remote = terms[2] != terms[0]
    order = np.argsort(fetch_rounds, kind="stable")
    moves, rounds = terms[:, remote][:, order], fetch_rounds[order]
    frag = plan.fragment()
    for rd in range(1, int(rounds.max(initial=0)) + 1):
        move = moves[:, np.searchsorted(rounds, rd) : np.searchsorted(rounds, rd, side="right")]
        plan.add_group(start + rd, Fetch(frag, move))
    if terms.size:
        plan.add_group(plan.num_rounds + 1, Fetch(frag, terms[:, ~remote]))


def _sparse_schedule(n, d, a, b, mask, spec, eps=None) -> Schedule:
    """The one sparse plan: the fetch of every masked term or, given `eps`,
    the decomposition's layers and then the residual's fetch when that
    takes no more rounds.  The terms travel as the ledger's sorted
    (r, k, j) int arrays, and the fetch is one :class:`~mpcmm.plan.Fetch`
    group op per round (see :func:`fetch_fragment`); each layer hands its
    C rows back with one :class:`~mpcmm.plan.Scatter` (:func:`hand_back`).

    Two-phase assigns the residual's fetch first.  If the layers' rounds
    plus that fetch's are within the load bound of every term
    (:func:`_load_bound`), which the trivial fetch cannot beat, the
    layers win and the trivial fetch is never assigned; otherwise the
    greedy assigns it and the fewer rounds win, the layers on a tie.
    :class:`RoundBoundExceeded` checks the fetch the plan keeps.
    """
    if a.rows != n or a.cols != n or b.rows != n or b.cols != n:
        raise ValueError(f"inputs must be {n}x{n}")
    if not check_d_sparse(a, d) or not check_d_sparse(b, d):
        raise ValueError(f"inputs are not {d}-sparse")
    if mask.n != n or mask.d != d:
        raise ValueError("mask does not match the problem shape")
    decomp = None if eps is None else decompose(a, b, mask, eps)
    terms = build_ledger(a, b, mask) if decomp is None else decomp.ledger
    layers, grid, meta, fetched = (), 0, {}, None
    if decomp is not None:
        meta = {"fallback": True, "decomposition": decomp.report()}
    if decomp is not None and decomp.layers:
        grid = math.isqrt(decomp.block_side)
        residual_fetched = _fetch_assignment(decomp.residual, d)
        total = len(decomp.layers) * (grid + 1) + int(residual_fetched.max(initial=0))
        # No fetch of every term beats the load bound, so layers within it
        # win without the trivial fetch being assigned.
        if total > _load_bound(terms, d):
            fetched = _fetch_assignment(terms, d)
        if fetched is None or total <= max(int(fetched.max(initial=0)), 1):
            layers, terms, fetched = decomp.layers, decomp.residual, residual_fetched
            meta["fallback"] = False
    if fetched is None:
        fetched = _fetch_assignment(terms, d)
    fetch_rounds = int(fetched.max(initial=0))
    bound = TRIVIAL_ROUND_CONSTANT * max(d, 1)
    if fetch_rounds > bound:
        raise RoundBoundExceeded(
            f"fetch plan needs {fetch_rounds} rounds, over the {TRIVIAL_ROUND_CONSTANT}d = "
            f"{bound} bound"
        )
    rounds = max(len(layers) * (grid + 1) + fetch_rounds, 1)

    plan = Plan(num_procs=n, num_rounds=rounds, min_memory=max(d, 1))
    order = np.lexsort((b.r, b.c))  # B by (column, row)
    a_keys, b_keys = a.r * n + a.c, b.c[order] * n + b.r[order]
    for name, keys, values in (("a", a_keys, a.v), ("b", b_keys, b.v[order])):
        bounds = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
        for p in np.flatnonzero(np.diff(bounds)).tolist():
            plan.set_init(p, (name, p), values[bounds[p] : bounds[p + 1]])

    stride = grid + 1
    r, k, j = terms
    at = _offsets(a_keys, n, r, k), _offsets(b_keys, n, j, k)
    fetch_fragment(plan, np.vstack((terms, *at)), fetched, len(layers) * stride)
    for li, layer in enumerate(layers):
        _build_layer(plan, layer, li, li * stride + 1, grid, mask, a_keys, b_keys)
    rows, cols = mask.pairs
    plan.emit(rows, [("c", *cell) for cell in zip(rows.tolist(), cols.tolist())], rows, cols)

    return Schedule(
        PlanProgram(plan, spec),
        MpcConfig(n, 2 * max(d, 1)),
        n,
        n,
        n,
        n,
        meta=meta,
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


def _build_layer(plan, layer, li, r0, grid, mask, a_keys, b_keys):
    """One layer: disjoint dense blocks on grid**2 processors each.

    Rounds r0 .. r0 + grid: one skewed square rotation whose grid bi is
    block bi, on processors bi * grid**2 .. (bi + 1) * grid**2 - 1.  Its
    gather distributes every block's values in round r0, read by offset
    out of the row tiles of the layer's row and column owners, which keep
    them: a(r, k) in ("a", r), whose words are r * n + k in ``a_keys``,
    and b(k, j) in ("b", j), j * n + k in ``b_keys``.  An entry that is
    not stored is a zero its owner sends; a padding row or column reads
    no tile, zeros at the consumer.  Its last round also sends the
    finished C rows back to their owners
    (:func:`hand_back`), who add them one round later, which may be the
    trailing local step.
    """
    n, side = mask.n, grid * grid
    # per block, its rows, inner indices and columns, each padded with -1 to side
    ids = [[list(part) + [-1] * (side - len(part)) for part in (blk.rows, blk.ks, blk.cols)]
           for blk in layer]
    rows, ks, cols = np.array(ids, dtype=np.int64).transpose(1, 0, 2)  # (blocks, side) each
    # a_at[bi, u, v]: a(rows[bi, u], ks[bi, v])'s offset in its row tile, -1 if not stored;
    # b_at[bi, u, v]: b(ks[bi, v], cols[bi, u])'s
    a_at = _offsets(a_keys, n, rows[:, :, None], ks[:, None, :])
    b_at = _offsets(b_keys, n, cols[:, :, None], ks[:, None, :])
    # source[s, p]: the source number of A (s = 0) or B row tile p, -1 for padding p = -1
    sources, source = [], np.full((2, n + 1), -1)
    for s, (name, owners) in enumerate((("a", rows), ("b", cols))):
        ps = np.flatnonzero(np.bincount(owners[owners >= 0], minlength=n))
        source[s, ps] = len(sources) + np.arange(len(ps))
        sources += [(p, (name, p), plan.init[p][(name, p)].shape, False) for p in ps.tolist()]
    y, x = np.arange(grid)[:, None], np.arange(grid)

    def tiles(bi, ti, tj, tk):
        bi, ti, tj, tk = (v[:, None, None] for v in (bi, ti, tj, tk))
        u, v = ti * grid + y, tj * grid + x  # the tile's block rows and block columns
        src = source[0, rows[bi, u]], source[1, cols[bi, v]]
        return sources, src, (a_at[bi, u, tk * grid + x], b_at[bi, v, tk * grid + y]), 1

    c_key = lambda bi, ti, tj: ("XC", li, bi, ti, tj)
    procs = np.arange(len(layer) * side).reshape(-1, grid, grid)
    rotation_fragment(plan, procs, tiles, c_key, r0 + 1, grid)
    c_keys = [c_key(bi, *divmod(t, grid)) for bi in range(len(layer)) for t in range(side)]
    hand_back(plan, r0 + grid, grid, procs, c_keys, rows, cols, mask)


def hand_back(plan, round_no, grid, procs, c_keys, rows, cols, mask):
    """Send a layer's finished C rows to their owners in ``round_no``.

    ``procs[bi, ti, tj]`` holds block bi's C tile (ti, tj) under key
    ``c_keys[(bi * grid + ti) * grid + tj]``; ``rows`` and ``cols`` are
    (blocks, grid**2) arrays of the blocks' rows and columns, -1 for
    padding.  One :class:`~mpcmm.plan.Scatter`: row u of tile (ti, tj)
    goes to the owner of block row ti * grid + u (a padding row is
    dropped), who adds each masked cell (r, j) of it into ("c", r, j) in
    the next round, which may be the trailing local step.
    """
    ti, tj, u, v = np.indices((grid,) * 4).reshape(4, -1)
    r, j = rows[:, ti * grid + u].ravel(), cols[:, tj * grid + v].ravel()
    given = (j >= 0) & _member(mask.keys, r * mask.n + j)
    cells = [("c", p, q) for p, q in zip(r[given].tolist(), j[given].tolist())]
    plan.scatter(round_no, (1,), procs.ravel(), c_keys, r,
                 np.where(given, np.cumsum(given) - 1, -1), cells)


def _offsets(keys, n, major, minor):
    """Elementwise (broadcasting), the offset of word major * n + minor in
    the row tile of ``major``, whose words are its run of the ascending
    ``keys``; -1 where it is not stored or either index is -1 (padding)."""
    want = major * n + minor
    stored = _member(keys, want) & (major >= 0) & (minor >= 0)
    return np.where(stored, np.searchsorted(keys, want) - np.searchsorted(keys, major * n), -1)
