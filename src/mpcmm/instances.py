"""Seeded instance generators for experiments and tests.

All generators take a :class:`numpy.random.Generator`; the same seed
always reproduces the same matrices.  Integer values stay below 2**20
so that exact 64-bit arithmetic never overflows at the matrix sizes
this package targets.
"""

from __future__ import annotations

import numpy as np

from .matrix import DenseMatrix, SparseMatrix
from .semiring import SemiringSpec

VALUE_RANGE = 1 << 20


def random_value(spec: SemiringSpec, rng) -> int:
    """A non-zero element of the carrier (never the additive identity)."""
    return int(random_values(spec, rng, 1)[0])


def random_values(spec: SemiringSpec, rng, size) -> np.ndarray:
    """``size`` non-zero elements of the carrier, drawn in one call.

    They are the words, and leave ``rng`` in the state, that ``size``
    calls of one draw each would: bool draws nothing.
    """
    if spec.name == "bool":
        return np.ones(size, dtype=np.int64)
    low = 0 if spec.name == "tropical" else 1
    return rng.integers(low, VALUE_RANGE, size=size).astype(np.int64)


def random_dense(rows, cols, spec: SemiringSpec, rng) -> DenseMatrix:
    if spec.name == "bool":
        data = rng.integers(0, 2, size=(rows, cols)).astype(np.int64)
    else:
        data = rng.integers(0, VALUE_RANGE, size=(rows, cols)).astype(np.int64)
    return DenseMatrix(rows, cols, data)


def random_d_sparse(n, d, spec: SemiringSpec, rng) -> SparseMatrix:
    """Exactly d entries in every row and every column.

    Superimposes d disjoint shifted permutations: row r gets columns
    (perm[r] + i) mod n for i < d, so row and column counts are both
    exactly d.  Values are drawn row by row, i ascending.
    """
    if d > n:
        raise ValueError("requires d <= n")
    perm = rng.permutation(n)
    rows = np.repeat(np.arange(n), d)
    cols = (perm[rows] + np.tile(np.arange(d), n)) % n
    return SparseMatrix.from_arrays(n, n, rows, cols, random_values(spec, rng, n * d))


def block_diagonal(n, d, spec: SemiringSpec, rng) -> SparseMatrix:
    """n // d dense d x d blocks along the diagonal, values drawn row-major."""
    if d > n or n % d:
        raise ValueError("requires d <= n with d dividing n")
    rows = np.repeat(np.arange(n), d)
    cols = rows // d * d + np.tile(np.arange(d), n)
    return SparseMatrix.from_arrays(n, n, rows, cols, random_values(spec, rng, n * d))
