"""Dense and sparse matrix storage, padding and the reference multiply.

Dense matrices wrap a row-major int64 array.  Sparse matrices keep
three int64 arrays (rows, columns, values) sorted by (row, column), the
layout the sparse schedules join and slice, and can be checked for
d-sparsity (at most d stored entries in every row and every column).
Every word is an integer: a constructor given a non-integral word, or
one outside int64, raises ``ValueError`` rather than truncate it.

:func:`naive_multiply` is the reference product every round schedule is
compared against.  It shares one piece of code with the schedulers: the
carrier's tile kernels (``matmul`` for dense inputs, ``vmul`` for sparse
ones), which the plan interpreter also calls.  ``tests/test_semiring.py``
checks those kernels against the scalar add/mul definitions.

Two sparse inputs over a built-in carrier are joined row by row instead
of densified: A's entry (r, k) meets every entry (k, j) of B's row k,
O(n d**2) terms for d-sparse inputs, and each output cell takes the
carrier's sum of its terms with the matching numpy ufunc.  Like the
sparse schedules, it forms terms of stored entries only, which gives the
dense product's words wherever the zero annihilates, which is on every
word of each built-in carrier's domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .semiring import BOOLEAN, INTEGER, TROPICAL, SemiringSpec


def _int64_words(values) -> np.ndarray:
    """``values`` as an int64 array; ValueError if a word is not an integer
    in int64 range."""
    try:
        values = np.asarray(values)
        if values.dtype == np.int64:
            return values
        with np.errstate(invalid="ignore"):
            words = values.astype(np.int64)
    except (OverflowError, TypeError):
        words = None
    if words is None or not np.array_equal(words, values):
        raise ValueError("matrix holds a non-integral word or a word outside int64")
    return words


@dataclass(frozen=True)
class DenseMatrix:
    rows: int
    cols: int
    data: np.ndarray  # shape (rows, cols), int64

    def __post_init__(self):
        if self.data.dtype != np.int64:
            raise ValueError(f"dense matrix data must be int64 words, not {self.data.dtype}")
        if self.data.shape != (self.rows, self.cols):
            raise ValueError(f"data shape {self.data.shape} != ({self.rows}, {self.cols})")

    @staticmethod
    def from_rows(rows_of_values) -> "DenseMatrix":
        arr = _int64_words(rows_of_values)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d list of values")
        return DenseMatrix(arr.shape[0], arr.shape[1], arr)

    @staticmethod
    def zeros(rows, cols, spec: SemiringSpec) -> "DenseMatrix":
        return DenseMatrix(rows, cols, spec.zeros(rows, cols))

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.data, other.data))
        )


class SparseMatrix:
    """An n x m matrix as three int64 arrays ``r``, ``c``, ``v``, sorted by (r, c).

    The arrays are the one format: the generators and the sparse
    schedules read and build them directly.  ``entries`` is a derived
    view of (row, col, value) int triples in the same order, for
    ``save_matrix`` and for callers that want plain tuples.  The
    constructor takes such triples in any order.
    """

    def __init__(self, rows, cols, entries=()):
        self._store(rows, cols, *_int64_words(list(entries)).reshape(-1, 3).T)

    @classmethod
    def from_arrays(cls, rows, cols, r, c, v, first=0) -> "SparseMatrix":
        """The matrix storing v[i] at (r[i], c[i]), the entries in any order,
        rows and columns counted from ``first`` (the text format's is 1)."""
        m = cls.__new__(cls)
        m._store(rows, cols, *(_int64_words(x).reshape(-1) for x in (r, c, v)), first)
        return m

    @staticmethod
    def from_entries(rows, cols, entries) -> "SparseMatrix":
        return SparseMatrix(rows, cols, entries)

    def _store(self, rows, cols, r, c, v, first=0):
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        out = np.flatnonzero((r < first) | (r >= rows + first) | (c < first) | (c >= cols + first))
        if out.size:
            raise ValueError(f"entry ({r[out[0]]}, {c[out[0]]}) out of range")
        dup = np.flatnonzero((r[1:] == r[:-1]) & (c[1:] == c[:-1]))
        if dup.size:
            raise ValueError(f"duplicate entry at ({r[dup[0]]}, {c[dup[0]]})")
        r, c = r - first, c - first
        self.rows, self.cols, self.r, self.c, self.v = int(rows), int(cols), r, c, v

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and all(np.array_equal(x, y) for x, y in zip((self.r, self.c, self.v),
                                                        (other.r, other.c, other.v)))
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}, {self.cols}, {self.entries})"

    @property
    def entries(self) -> tuple:
        """((row, col, value), ...) sorted by (row, col), as Python ints."""
        return tuple(zip(self.r.tolist(), self.c.tolist(), self.v.tolist()))

    def validate(self, spec: SemiringSpec, what="matrix"):
        """Reject entries that store the semiring's zero element."""
        zero = np.flatnonzero(self.v == spec.zero)
        if zero.size:
            r, c = self.r[zero[0]], self.c[zero[0]]
            raise ValueError(f"{what} entry ({r}, {c}) stores the {spec.name} zero element")

    def to_dense(self, spec: SemiringSpec) -> DenseMatrix:
        data = spec.zeros(self.rows, self.cols)
        data[self.r, self.c] = self.v
        return DenseMatrix(self.rows, self.cols, data)


def check_d_sparse(m: SparseMatrix, d: int) -> bool:
    """True iff every row and every column holds at most d entries."""
    return (int(np.bincount(m.r).max(initial=0)) <= d
            and int(np.bincount(m.c).max(initial=0)) <= d)


def _as_dense(m, spec: SemiringSpec) -> DenseMatrix:
    if isinstance(m, SparseMatrix):
        return m.to_dense(spec)
    return m


# The add of each built-in carrier as a ufunc, keyed by its scalar add (which
# a spec with wrapped tile kernels keeps).
_ADD_UFUNCS = {INTEGER.add: np.add, BOOLEAN.add: np.bitwise_or, TROPICAL.add: np.minimum}


def naive_multiply(a, b, spec: SemiringSpec) -> DenseMatrix:
    """Reference product: C[i, j] = add_k mul(A[i, k], B[k, j])."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: ({a.rows}x{a.cols}) * ({b.rows}x{b.cols})")
    add = _ADD_UFUNCS.get(spec.add)
    if add is not None and isinstance(a, SparseMatrix) and isinstance(b, SparseMatrix):
        return _row_join(a, b, spec, add)
    a = _as_dense(a, spec)
    b = _as_dense(b, spec)
    return DenseMatrix(a.rows, b.cols, spec.matmul(a.data, b.data))


def _row_join(a: SparseMatrix, b: SparseMatrix, spec: SemiringSpec, add) -> DenseMatrix:
    """The sparse product: every term a(r, k) (*) b(k, j), summed per cell with ``add``."""
    a_r, a_k, a_v = a.r, a.c, a.v
    b_k, b_j, b_v = b.r, b.c, b.v  # sorted by (k, j)
    # Row k of B is b_*[first[k] : first[k] + count[k]].
    count = np.bincount(b_k, minlength=b.rows)
    first = np.cumsum(count) - count
    per_a = count[a_k]
    a_of = np.repeat(np.arange(len(a_r)), per_a)  # the A entry of each term
    b_of = first[a_k][a_of] + np.arange(len(a_of)) - np.repeat(np.cumsum(per_a) - per_a, per_a)
    data = spec.zeros(a.rows, b.cols)
    add.at(data.reshape(-1), a_r[a_of] * b.cols + b_j[b_of], spec.vmul(a_v[a_of], b_v[b_of]))
    return DenseMatrix(a.rows, b.cols, data)


def pad_to_multiple(m: DenseMatrix, block: int, spec: SemiringSpec) -> DenseMatrix:
    """Round dimensions up to a multiple of ``block``, filling with zero."""
    if block < 1:
        raise ValueError("block must be >= 1")
    rows = -(-m.rows // block) * block
    cols = -(-m.cols // block) * block
    if (rows, cols) == (m.rows, m.cols):
        return m
    data = spec.zeros(rows, cols)
    data[: m.rows, : m.cols] = m.data
    return DenseMatrix(rows, cols, data)


def save_matrix(m, path):
    """Write the text format: DENSE/SPARSE header then values (1-indexed)."""
    with open(path, "w") as fh:
        if isinstance(m, DenseMatrix):
            fh.write(f"DENSE {m.rows} {m.cols}\n")
            for r in range(m.rows):
                fh.write(" ".join(str(int(v)) for v in m.data[r]) + "\n")
        else:
            fh.write(f"SPARSE {m.rows} {m.cols} {len(m.v)}\n")
            for r, c, v in m.entries:
                fh.write(f"{r + 1} {c + 1} {v}\n")


def load_matrix(path):
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    kind = tokens[0]
    fields = {"DENSE": 2, "SPARSE": 3}.get(kind)
    if fields is None:
        raise ValueError(f"{path}: unknown header {kind!r}")
    try:
        header = [int(t) for t in tokens[1 : 1 + fields]]
    except ValueError:
        header = []
    if len(header) != fields or min(header) < 0:
        raise ValueError(f"{path}: a {kind} header needs {fields} integer fields >= 0, "
                         f"got {' '.join(tokens[: 1 + fields])!r}")
    try:
        words = [int(t) for t in tokens[1 + fields :]]
        if kind == "DENSE":
            rows, cols = header
            if len(words) != rows * cols:
                raise ValueError(f"expected {rows * cols} values, got {len(words)}")
            return DenseMatrix(rows, cols, _int64_words(words).reshape(rows, cols))
        rows, cols, nnz = header
        if len(words) != 3 * nnz:
            raise ValueError(f"expected {3 * nnz} numbers, got {len(words)}")
        return SparseMatrix.from_arrays(rows, cols, words[0::3], words[1::3], words[2::3], first=1)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
