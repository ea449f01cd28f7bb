"""The sparse front end spelled with dicts of sets: the reference for
``schedules.sparse.default_mask``, ``build_ledger`` and ``decompose``.

These are the per-term versions the columnar ones replaced, kept as they
were apart from reading the matrices through ``entries``.  The ledger
maps each masked output cell (r, j) to the set of its pending inner
indices k; ``term_array`` lays it out as the (3, terms) int array, rows
r, k, j sorted by (r, j, k), that the columnar code returns.  Block terms
are tuples of (r, k, j) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mpcmm.bounds import snapped
from mpcmm.matrix import SparseMatrix
from mpcmm.schedules.common import chunks
from mpcmm.schedules.sparse import (
    ROUND_CONSTANT,
    EpsilonSchedule,
    OutputMask,
    iteration_budget,
)


def default_mask(a: SparseMatrix, b: SparseMatrix, d: int) -> OutputMask:
    """Pick, per row, the d columns with the most contributing terms."""
    n = a.rows
    b_row_support = [[] for _ in range(n)]
    for k, j, _ in b.entries:
        b_row_support[k].append(j)
    a_row_support = [[] for _ in range(n)]
    for r, k, _ in a.entries:
        a_row_support[r].append(k)

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
        masked = set(mask.rows[r])
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
                        for j in mask.rows[r]:
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
                            if j in mask.rows[r]
                        ):
                            ok_cols.append(j)
                    if not ok_cols:
                        continue
                    terms = []
                    for r in r_chunk:
                        masked = set(mask.rows[r])
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


def term_array(ledger: TermLedger) -> np.ndarray:
    """The ledger's terms as a (3, terms) int array, rows r, k, j, sorted by (r, j, k)."""
    terms = np.array([(r, k, j) for (r, j), ks in ledger.pending.items() for k in ks],
                     dtype=np.int64).reshape(-1, 3).T
    return terms[:, np.lexsort((terms[1], terms[2], terms[0]))]

