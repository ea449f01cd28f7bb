"""Storage, padding, sparsity checks and the reference multiply."""

import re

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
from mpcmm.cli import main
from mpcmm.experiment import ExperimentConfig, generate_instance, masked_equal
from mpcmm.instances import random_d_sparse, random_dense
from mpcmm.schedules.sparse import OutputMask
from mpcmm.semiring import SemiringSpec, builtin_semirings

from test_golden import CONFIGS as GOLDEN_CONFIGS

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


def test_sparse_arrays_are_sorted_and_checked():
    m = SparseMatrix.from_arrays(3, 3, [2, 0, 0], [1, 2, 0], [5, 6, 7])
    assert (m.r.tolist(), m.c.tolist(), m.v.tolist()) == ([0, 0, 2], [0, 2, 1], [7, 6, 5])
    assert m.entries == ((0, 0, 7), (0, 2, 6), (2, 1, 5))
    assert m == SparseMatrix(3, 3, reversed(m.entries)) != SparseMatrix(3, 3, m.entries[:2])
    with pytest.raises(ValueError, match=r"entry \(3, 0\) out of range"):
        SparseMatrix.from_arrays(3, 3, [3], [0], [1])
    with pytest.raises(ValueError, match=r"duplicate entry at \(1, 1\)"):
        SparseMatrix.from_arrays(3, 3, [1, 1], [1, 1], [1, 2])
    with pytest.raises(ValueError, match="outside int64"):
        SparseMatrix.from_entries(2, 2, [(0, 0, 2**63)])


@pytest.mark.parametrize("build", [
    lambda: DenseMatrix(2, 2, np.array([[1.5, 2], [3, 4]])),
    lambda: SparseMatrix(2, 2, [(0, 0, 2.7)]),
    lambda: SparseMatrix.from_arrays(2, 2, [0.9], [0], [3]),
    lambda: DenseMatrix.from_rows([[1.5]]),
], ids=["dense-float-data", "sparse-entry", "sparse-arrays-row", "dense-from-rows"])
def test_a_non_integral_word_is_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="int64"):
        build()


def test_integral_words_of_any_dtype_are_kept():
    assert SparseMatrix(2, 2, [(0, 1, 2.0)]).entries == ((0, 1, 2),)
    assert DenseMatrix.from_rows([[1.0, True]]) == DenseMatrix.from_rows([[1, 1]])
    m = SparseMatrix.from_arrays(2, 2, np.array([1], dtype=np.int32), [0.0], [3])
    assert m.entries == ((1, 0, 3),) and m.r.dtype == np.int64


@pytest.mark.parametrize("text", ["SPARSE 4 4", "DENSE 2", "SPARSE", "SPARSE 4 x 1\n1 1 1",
                                  "DENSE 2 2.0 1 2 3 4"],
                         ids=["sparse-no-nnz", "dense-no-cols", "bare", "word-cols", "float-cols"])
def test_a_short_or_non_integer_header_names_the_file(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": a [A-Z]+ header needs [23] integer fields"):
        load_matrix(path)


@pytest.mark.parametrize("entry, message", [
    ("1 1 1.5", "invalid literal for int() with base 10: '1.5'"),
    ("1 x 3", "invalid literal for int() with base 10: 'x'"),
    ("1 1 100000000000000000000", "a word outside int64"),
    ("0 1 3", "entry (0, 1) out of range"),  # 1-based, as the file writes it
], ids=["float-word", "word-col", "word-past-int64", "row-0"])
def test_a_bad_entry_names_the_file(tmp_path, entry, message):
    path = tmp_path / "m.txt"
    path.write_text(f"SPARSE 4 4 1\n{entry}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        load_matrix(path)


def test_a_duplicate_file_entry_is_named_as_the_file_writes_it(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("SPARSE 4 4 3\n2 3 5\n1 1 3\n1 1 4\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: duplicate entry at (1, 1)")):
        load_matrix(path)


def test_a_truncated_header_exits_2_from_the_cli(tmp_path, capsys):
    path = tmp_path / "a.txt"
    path.write_text("SPARSE 4 4\n")
    outdir = tmp_path / "runs"
    rc = main(["run", "--case", "sparse-trivial", "--n", "4", "--d", "1", "--instance", "file",
               "--file-a", str(path), "--file-b", str(path), "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not outdir.exists()
    assert captured.err.startswith("mpcmm: error: ") and len(captured.err.splitlines()) == 1


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


def _densified_product(a, b, spec):
    return naive_multiply(a.to_dense(spec), b.to_dense(spec), spec)


@pytest.mark.parametrize(
    "name", sorted(name for name, f in GOLDEN_CONFIGS.items() if f["case"].startswith("sparse"))
)
def test_sparse_row_join_matches_the_dense_product_on_golden_inputs(name):
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
    spec = get_semiring(config.semiring)
    a, b, _ = generate_instance(config, spec)
    assert naive_multiply(a, b, spec) == _densified_product(a, b, spec)


@st.composite
def sparse_operands(draw):
    """Two sparse matrices of matching inner size over one built-in carrier,
    with their entries in any order.

    Tropical words are non-negative, as every generated instance's are: a
    negative word x makes x (*) +inf = +inf + x < +inf, so a missing entry
    would count in the dense product, and the sparse product, like the
    sparse schedules, forms terms of stored entries only.
    """
    spec = draw(st.sampled_from(builtin_semirings()))
    lo, hi = {"int": (-(1 << 20), 1 << 20), "bool": (0, 1), "tropical": (0, 1 << 20)}[spec.name]
    rows, inner, cols = (draw(st.integers(1, 7)) for _ in range(3))

    def matrix(r, c):
        cells = draw(st.sets(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1))))
        entries = [(i, j, draw(st.integers(lo, hi))) for i, j in cells]
        return SparseMatrix(r, c, tuple(draw(st.permutations(entries))))

    return matrix(rows, inner), matrix(inner, cols), spec


@settings(max_examples=150, deadline=None)
@given(operands=sparse_operands())
def test_sparse_row_join_matches_the_dense_product(operands):
    a, b, spec = operands
    assert naive_multiply(a, b, spec) == _densified_product(a, b, spec)


def test_a_custom_carrier_keeps_the_dense_product():
    maxplus = SemiringSpec.from_scalar_ops("int", max, lambda x, y: x + y, -(1 << 40))
    a = SparseMatrix.from_entries(3, 3, [(0, 1, 2), (1, 2, 5), (2, 0, 1)])
    b = SparseMatrix.from_entries(3, 3, [(1, 2, 7), (2, 0, 3), (0, 0, 4)])
    product = naive_multiply(a, b, maxplus)
    assert product == loop_multiply(a.to_dense(maxplus), b.to_dense(maxplus), maxplus)
    assert int(product.data[0, 2]) == 9


def test_sparse_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        naive_multiply(SparseMatrix(2, 3, ()), SparseMatrix(2, 2, ()), INT)


def test_masked_equal_reads_the_masked_cells_only():
    mask = OutputMask(3, 2, ((0, 2), (), (1,)))
    oracle = DenseMatrix(3, 3, np.arange(9, dtype=np.int64).reshape(3, 3))
    out = DenseMatrix(3, 3, oracle.data.copy())
    out.data[1, 1] = -1  # not masked
    assert masked_equal(out, oracle, mask)
    out.data[2, 1] = -1
    assert not masked_equal(out, oracle, mask)
