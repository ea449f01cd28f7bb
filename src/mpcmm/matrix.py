"""Dense and sparse matrix storage, padding and the reference multiply.

Dense matrices wrap a row-major int64 array.  Sparse matrices keep
explicit (row, col, value) triplets and can be checked for d-sparsity
(at most d stored entries in every row and every column).

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
dense product's words wherever the zero annihilates: on every word of
the int and bool carriers, and on non-negative tropical words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .semiring import BOOLEAN, INTEGER, TROPICAL, SemiringSpec


@dataclass(frozen=True)
class DenseMatrix:
    rows: int
    cols: int
    data: np.ndarray  # shape (rows, cols), int64

    def __post_init__(self):
        if self.data.shape != (self.rows, self.cols):
            raise ValueError(f"data shape {self.data.shape} != ({self.rows}, {self.cols})")

    @staticmethod
    def from_rows(rows_of_values) -> "DenseMatrix":
        arr = np.asarray(rows_of_values, dtype=np.int64)
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


@dataclass(frozen=True)
class SparseMatrix:
    rows: int
    cols: int
    entries: tuple  # ((row, col, value), ...) sorted by (row, col)

    def __post_init__(self):
        seen = set()
        for r, c, _ in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) out of range")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            seen.add((r, c))

    @staticmethod
    def from_entries(rows, cols, entries) -> "SparseMatrix":
        ordered = tuple(sorted((int(r), int(c), int(v)) for r, c, v in entries))
        return SparseMatrix(rows, cols, ordered)

    def validate(self, spec: SemiringSpec, what="matrix"):
        """Reject entries that store the semiring's zero element."""
        for r, c, v in self.entries:
            if v == spec.zero:
                raise ValueError(f"{what} entry ({r}, {c}) stores the {spec.name} zero element")

    def to_dense(self, spec: SemiringSpec) -> DenseMatrix:
        data = spec.zeros(self.rows, self.cols)
        for r, c, v in self.entries:
            data[r, c] = v
        return DenseMatrix(self.rows, self.cols, data)

    def row_support(self) -> list[list[int]]:
        supp = [[] for _ in range(self.rows)]
        for r, c, _ in self.entries:
            supp[r].append(c)
        return supp


def check_d_sparse(m: SparseMatrix, d: int) -> bool:
    """True iff every row and every column holds at most d entries."""
    row_counts = [0] * m.rows
    col_counts = [0] * m.cols
    for r, c, _ in m.entries:
        row_counts[r] += 1
        col_counts[c] += 1
    return all(n <= d for n in row_counts) and all(n <= d for n in col_counts)


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
    a_r, a_k, a_v = np.array(a.entries, dtype=np.int64).reshape(-1, 3).T
    b_k, b_j, b_v = np.array(b.entries, dtype=np.int64).reshape(-1, 3).T
    by_row = np.argsort(b_k, kind="stable")
    b_k, b_j, b_v = b_k[by_row], b_j[by_row], b_v[by_row]
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
            fh.write(f"SPARSE {m.rows} {m.cols} {len(m.entries)}\n")
            for r, c, v in m.entries:
                fh.write(f"{r + 1} {c + 1} {v}\n")


def load_matrix(path):
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    kind = tokens[0]
    if kind == "DENSE":
        rows, cols = int(tokens[1]), int(tokens[2])
        values = [int(t) for t in tokens[3:]]
        if len(values) != rows * cols:
            raise ValueError(f"{path}: expected {rows * cols} values, got {len(values)}")
        return DenseMatrix(rows, cols, np.array(values, dtype=np.int64).reshape(rows, cols))
    if kind == "SPARSE":
        rows, cols, nnz = int(tokens[1]), int(tokens[2]), int(tokens[3])
        body = tokens[4:]
        if len(body) != 3 * nnz:
            raise ValueError(f"{path}: expected {3 * nnz} numbers, got {len(body)}")
        entries = [
            (int(body[3 * i]) - 1, int(body[3 * i + 1]) - 1, int(body[3 * i + 2]))
            for i in range(nnz)
        ]
        return SparseMatrix.from_entries(rows, cols, entries)
    raise ValueError(f"{path}: unknown header {kind!r}")
