"""Storage, padding, sparsity checks and the reference multiply."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmm import (
    DenseMatrix,
    SparseMatrix,
    check_d_sparse,
    get_semiring,
    load_matrix,
    naive_multiply,
    pad_to_multiple,
    save_matrix,
)
from mpcmm.instances import random_d_sparse, random_dense

INT = get_semiring("int")
BOOL = get_semiring("bool")


def loop_multiply(a, b, spec):
    """Independent reimplementation of the product, used as a cross-check."""
    out = spec.zeros(a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = spec.zero
            for k in range(a.cols):
                acc = spec.add(acc, spec.mul(int(a.data[i, k]), int(b.data[k, j])))
            out[i, j] = acc
    return DenseMatrix(a.rows, b.cols, out)


def test_identity_times_matrix():
    b = random_dense(3, 3, INT, np.random.default_rng(0))
    eye = DenseMatrix(3, 3, np.eye(3, dtype=np.int64))
    assert naive_multiply(eye, b, INT) == b


def test_two_by_two_hand_value():
    a = DenseMatrix.from_rows([[1, 2], [3, 4]])
    b = DenseMatrix.from_rows([[5, 6], [7, 8]])
    got = naive_multiply(a, b, INT)
    assert got == DenseMatrix.from_rows([[19, 22], [43, 50]])
    assert got == loop_multiply(a, b, INT)


def test_all_zero_annihilates():
    a = DenseMatrix.zeros(3, 3, INT)
    b = random_dense(3, 3, INT, np.random.default_rng(1))
    assert naive_multiply(a, b, INT) == DenseMatrix.zeros(3, 3, INT)


def test_dimension_mismatch():
    a = random_dense(2, 3, INT, np.random.default_rng(2))
    b = random_dense(2, 3, INT, np.random.default_rng(3))
    with pytest.raises(ValueError):
        naive_multiply(a, b, INT)


def test_boolean_matches_independent_loop_nest():
    rng = np.random.default_rng(4)
    a = random_dense(12, 12, BOOL, rng)
    b = random_dense(12, 12, BOOL, rng)
    via_kernel = naive_multiply(a, b, BOOL)
    # reachability-style evaluation written as its own loop nest
    out = np.zeros((12, 12), dtype=np.int64)
    for i in range(12):
        for j in range(12):
            out[i, j] = 1 if any(a.data[i, k] and b.data[k, j] for k in range(12)) else 0
    assert via_kernel == DenseMatrix(12, 12, out)


def test_padding_five_by_five():
    m = random_dense(5, 5, INT, np.random.default_rng(6))
    padded = pad_to_multiple(m, 2, INT)
    assert (padded.rows, padded.cols) == (6, 6)
    assert np.array_equal(padded.data[:5, :5], m.data)
    assert not padded.data[5, :].any() and not padded.data[:, 5].any()


def test_padding_examples():
    m = random_dense(7, 7, INT, np.random.default_rng(7))
    assert pad_to_multiple(m, 4, INT).rows == 8
    assert pad_to_multiple(m, 7, INT) is m


def test_padding_preserves_product():
    rng = np.random.default_rng(8)
    a = random_dense(5, 3, INT, rng)
    b = random_dense(3, 5, INT, rng)
    direct = naive_multiply(a, b, INT)
    padded = naive_multiply(pad_to_multiple(a, 4, INT), pad_to_multiple(b, 4, INT), INT)
    assert np.array_equal(padded.data[:5, :5], direct.data)


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_pad_tile_round_trip_property(rows, cols, block):
    m = random_dense(rows, cols, INT, np.random.default_rng(rows * 100 + cols))
    padded = pad_to_multiple(m, block, INT)
    assert padded.rows % block == 0 and padded.cols % block == 0
    assert padded.rows - rows < block and padded.cols - cols < block
    assert np.array_equal(padded.data[:rows, :cols], m.data)
    assert not padded.data[rows:, :].any() and not padded.data[:, cols:].any()


def test_check_d_sparse_identity():
    eye = SparseMatrix.from_entries(4, 4, [(i, i, 1) for i in range(4)])
    assert check_d_sparse(eye, 1)


def test_check_d_sparse_overloaded_row():
    m = SparseMatrix.from_entries(4, 4, [(0, c, 1) for c in range(3)])
    assert not check_d_sparse(m, 2)


def test_generated_sparse_is_exactly_d():
    m = random_d_sparse(32, 3, INT, np.random.default_rng(9))
    assert check_d_sparse(m, 3)
    assert not check_d_sparse(m, 2)  # generator packs exactly d per row/col


def test_sparse_rejects_duplicates_and_zero_entries():
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(2, 2, [(0, 0, 1), (0, 0, 2)])
    m = SparseMatrix.from_entries(2, 2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        m.validate(INT)


def test_dense_file_round_trip(tmp_path):
    m = random_dense(3, 5, INT, np.random.default_rng(10))
    path = tmp_path / "dense.txt"
    save_matrix(m, path)
    assert load_matrix(path) == m


def test_sparse_file_round_trip(tmp_path):
    m = random_d_sparse(8, 2, INT, np.random.default_rng(11))
    path = tmp_path / "sparse.txt"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.entries == m.entries
    text = path.read_text().splitlines()
    assert text[0] == f"SPARSE 8 8 {len(m.entries)}"
    first = m.entries[0]
    assert text[1] == f"{first[0] + 1} {first[1] + 1} {first[2]}"  # 1-indexed on disk
