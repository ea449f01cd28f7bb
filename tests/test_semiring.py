"""Algebraic laws and builtin value checks for the semiring carriers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmm import SemiringSpec, builtin_semirings, get_semiring
from mpcmm import semiring as semiring_module
from mpcmm.semiring import TROPICAL, TROPICAL_INF


def sample_element(spec, rng):
    if spec.name == "bool":
        return int(rng.integers(0, 2))
    if spec.name == "tropical":
        # include the zero element (+inf) now and then
        if rng.integers(0, 8) == 0:
            return int(TROPICAL_INF)
        return int(rng.integers(0, 1 << 20))
    return int(rng.integers(0, 1 << 20))


def test_builtin_names():
    assert [s.name for s in builtin_semirings()] == ["int", "bool", "tropical"]


def test_integer_examples():
    s = get_semiring("int")
    assert s.add(3, 4) == 7
    assert s.mul(3, 4) == 12


def test_boolean_examples():
    s = get_semiring("bool")
    assert s.add(1, 0) == 1
    assert s.mul(1, 0) == 0


def test_tropical_examples():
    s = get_semiring("tropical")
    assert s.add(3, 4) == 3
    assert s.mul(3, 4) == 7
    assert s.mul(3, s.zero) == s.zero


def test_unknown_semiring():
    with pytest.raises(KeyError):
        get_semiring("field")


@pytest.mark.parametrize("name", ["int", "bool", "tropical"])
def test_laws_on_1000_sampled_triples(name):
    spec = get_semiring(name)
    rng = np.random.default_rng(20240 + len(name))
    for _ in range(1000):
        a, b, c = (sample_element(spec, rng) for _ in range(3))
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        assert spec.add(a, spec.zero) == a
        assert spec.mul(a, spec.zero) == spec.zero
        assert spec.mul(spec.zero, a) == spec.zero


@given(st.integers(0, 1 << 20), st.integers(0, 1 << 20), st.integers(0, 1 << 20))
@settings(max_examples=200)
def test_tropical_distributes(a, b, c):
    s = get_semiring("tropical")
    assert s.mul(a, s.add(b, c)) == s.add(s.mul(a, b), s.mul(a, c))


@given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
@settings(max_examples=200)
def test_integer_kernels_match_scalar_ops(a, b):
    s = get_semiring("int")
    x = np.array([[a]], dtype=np.int64)
    y = np.array([[b]], dtype=np.int64)
    assert int(s.vadd(x, y)[0, 0]) == s.add(a, b)
    assert int(s.vmul(x, y)[0, 0]) == s.mul(a, b)


def test_vector_kernels_agree_with_scalar_ops(semiring):
    rng = np.random.default_rng(7)
    xs = np.array([sample_element(semiring, rng) for _ in range(64)], dtype=np.int64)
    ys = np.array([sample_element(semiring, rng) for _ in range(64)], dtype=np.int64)
    vadd = semiring.vadd(xs, ys)
    vmul = semiring.vmul(xs, ys)
    for i in range(64):
        assert int(vadd[i]) == semiring.add(int(xs[i]), int(ys[i]))
        assert int(vmul[i]) == semiring.mul(int(xs[i]), int(ys[i]))


def scalar_matmul(spec, a, b):
    """The product by the scalar definition, one term at a time."""
    return SemiringSpec.from_scalar_ops(spec.name, spec.add, spec.mul, spec.zero).matmul(a, b)


def kernel_operand(spec, shape, rng):
    if spec.name == "bool":
        return rng.integers(0, 2, size=shape, dtype=np.int64)
    if spec.name == "int":
        return rng.integers(-(1 << 20), 1 << 20, size=shape, dtype=np.int64)
    x = rng.integers(0, 1 << 20, size=shape, dtype=np.int64)
    x[rng.random(shape) < 0.125] = TROPICAL_INF
    return x


def int64_product(monkeypatch, a, b):
    """The tropical product with the int32 path switched off."""
    with monkeypatch.context() as mp:
        mp.setattr(semiring_module, "_trop_narrow", lambda a, b: False)
        return TROPICAL.matmul(a, b)


# (rows, inner, cols) on both sides of each kernel's size cut-offs: int and
# bool go through float64 from 2**14 terms, tropical through int32 from 2**17
# (90x20x90 and 260x2x256).  The min-plus loop over k works on blocks of at
# most 2**15 cells: whole tiles up to 2**14 cells (at 128x3x128), above that
# strips of 2**15 // cols rows (one at 129x2x128; three, the last one
# partial, at 260x2x256).  Inner 0 gives the semiring zero.
KERNEL_SHAPES = [(4, 5, 3), (1, 1, 1), (1, 64, 1), (8, 8, 8), (32, 32, 32),
                 (90, 20, 90), (128, 3, 128), (129, 2, 128), (260, 2, 256), (3, 0, 4)]


def test_matmul_kernel_matches_scalar_loop(semiring, monkeypatch):
    rng = np.random.default_rng(13)
    for rows, inner, cols in KERNEL_SHAPES:
        a = kernel_operand(semiring, (rows, inner), rng)
        b = kernel_operand(semiring, (inner, cols), rng)
        got = semiring.matmul(a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, scalar_matmul(semiring, a, b)), (rows, inner, cols)
        if semiring.name == "tropical":  # either width gives the same words
            assert np.array_equal(got, int64_product(monkeypatch, a, b)), (rows, inner, cols)


# The tropical product runs in int32 only when the largest finite words of
# its operands sum to less than S; at S itself a finite cell would read INF.
S = (1 << 30) - 1
# Single tiles and stacks, with inner 0 and batch 0.
WIDTH_SHAPES = [((5, 4), (4, 6)), ((3, 4, 5), (3, 5, 2)), ((2, 3, 0), (2, 0, 4)),
                ((0, 2, 3), (0, 3, 2)), ((3, 0), (0, 2))]


def width_cases():
    """(name, a, b, narrow) for the tropical product on both sides of the width
    cut: the largest finite words of a and b sum to ``total`` (S - 1 runs in
    int32, S in int64) among INF at density 0, 1/8 or 1, plus words outside the
    domain.  ``narrow`` is the expected width once products of every size may
    narrow, None where the operands leave it open (no words, or no finite
    word)."""
    rng = np.random.default_rng(16)
    cases = []
    for total in (S - 1, S):
        for density in (0, 0.125, 1):
            for shape_a, shape_b in WIDTH_SHAPES:
                highs = total // 2, total - total // 2
                a, b = (rng.integers(0, high, shape, endpoint=True)
                        for shape, high in zip((shape_a, shape_b), highs))
                a[rng.random(shape_a) < density] = TROPICAL_INF
                b[rng.random(shape_b) < density] = TROPICAL_INF
                narrow = None
                if a.size and b.size and density < 1:
                    if density:
                        # Cell (0, 0) of each tile gets one finite term, the
                        # sum of the two largest finite words: total itself.
                        a[..., 0, :] = TROPICAL_INF
                        b[..., :, 0] = TROPICAL_INF
                    a[..., 0, 0], b[..., 0, 0] = highs
                    narrow = total < S
                cases.append((f"total={total} inf={density} {shape_a}x{shape_b}", a, b, narrow))
    # A negative word is outside the domain: INF (*) -x is the finite word
    # INF - x, so a row of INF words gives finite cells.
    a = rng.integers(0, 1 << 20, (6, 5))
    a[0] = TROPICAL_INF
    b = rng.integers(-(1 << 20), 1 << 20, (5, 4))
    cases.append(("negative", a, b, False))
    # So is a word above INF; it must not be clipped as if it were INF.
    a = rng.integers(0, 1 << 20, (6, 5))
    a[1, 2] = TROPICAL_INF + 7
    b = rng.integers(0, 1 << 20, (5, 4))
    cases.append(("above INF", a, b, False))
    return cases


WIDTH_CASES = width_cases()
WIDTH_WANTED = [scalar_matmul(TROPICAL, a, b) for _, a, b, _ in WIDTH_CASES]


def width_mismatches(monkeypatch, module):
    """The names of the width cases where the tropical product of ``module``
    (``mpcmm.semiring`` or a copy of it) differs from the scalar loop or
    returns other than int64 words.  The cases are small, so the product's
    size gate is lowered to let every nonempty one narrow."""
    bad = []
    with monkeypatch.context() as mp:
        mp.setattr(module, "_TROP_NARROW_MIN_TERMS", 1)
        for (name, a, b, _), wanted in zip(WIDTH_CASES, WIDTH_WANTED):
            got = module.TROPICAL.matmul(a, b)
            if got.dtype != np.int64 or not np.array_equal(got, wanted):
                bad.append(name)
    return bad


def test_tropical_matmul_is_bit_identical_on_both_sides_of_the_width_cut(monkeypatch):
    assert width_mismatches(monkeypatch, semiring_module) == []
    with monkeypatch.context() as mp:
        mp.setattr(semiring_module, "_trop_narrow", lambda a, b: False)
        assert width_mismatches(monkeypatch, semiring_module) == []
    with monkeypatch.context() as mp:
        mp.setattr(semiring_module, "_TROP_NARROW_MIN_TERMS", 1)
        for name, a, b, narrow in WIDTH_CASES:
            if narrow is not None:
                assert semiring_module._trop_narrow(a, b) is narrow, name
    assert {narrow for *_, narrow in WIDTH_CASES} == {True, False, None}


def test_small_tropical_products_stay_in_int64():
    # 64 * 32 * 64 = 2**17 terms narrows; one column fewer stays in int64.
    a = np.ones((64, 32), dtype=np.int64)
    assert semiring_module._trop_narrow(a, np.ones((32, 64), dtype=np.int64))
    assert not semiring_module._trop_narrow(a, np.ones((32, 63), dtype=np.int64))
    assert not semiring_module._trop_narrow(a[None], np.ones((1, 32, 63), dtype=np.int64))


def test_int_matmul_exact_past_float_range():
    # 64 * (2**26)**2 = 2**58 is past float64's exact integers but within
    # int64, so the kernel must take the int64 product and stay exact.  The
    # entries are negative, so only their minimum shows the magnitude.
    spec = get_semiring("int")
    rng = np.random.default_rng(29)
    a = rng.integers(0, 8, size=(32, 64), dtype=np.int64) - (1 << 26)
    b = rng.integers(0, 8, size=(64, 32), dtype=np.int64) - (1 << 26)
    assert np.array_equal(spec.matmul(a, b), scalar_matmul(spec, a, b))


def test_int_matmul_wraps_like_int64():
    spec = get_semiring("int")
    rng = np.random.default_rng(31)
    a = rng.integers(-(1 << 40), 1 << 40, size=(32, 64), dtype=np.int64)
    b = rng.integers(-(1 << 40), 1 << 40, size=(64, 32), dtype=np.int64)
    assert np.array_equal(spec.matmul(a, b), a @ b)


def test_custom_spec_from_scalar_ops():
    # max-plus algebra over small ints exercises the loop fallbacks
    spec = SemiringSpec.from_scalar_ops("maxplus", max, lambda a, b: a + b, -(1 << 40))
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[5, 6], [7, 8]], dtype=np.int64)
    out = spec.matmul(a, b)
    assert out[0, 0] == max(1 + 5, 2 + 7)
    assert out[1, 1] == max(3 + 6, 4 + 8)
    assert spec.vadd(a, b)[0, 0] == 5


def test_check_words_enforces_each_domain():
    get_semiring("int").check_words(np.array([-(2**63), 2**63 - 1]))
    get_semiring("bool").check_words(np.array([0, 1]))
    get_semiring("tropical").check_words(np.array([0, TROPICAL_INF]))
    # A negative tropical word breaks the zero: INF (*) -1 = INF - 1 is finite.
    for name, word in (("bool", 2), ("bool", -1), ("tropical", TROPICAL_INF + 1),
                       ("tropical", -1)):
        with pytest.raises(ValueError, match=f"{name} domain"):
            get_semiring(name).check_words(np.array([0, word]))
    with pytest.raises(ValueError, match="outside int64"):
        get_semiring("int").check_words([2**63])


@pytest.mark.parametrize("name", ["int", "bool", "tropical"])
def test_stacked_matmul_matches_tile_by_tile(name):
    spec = get_semiring(name)
    rng = np.random.default_rng(3)
    high = 2 if name == "bool" else 1 << 20
    # The kernels take any stack whole; only the interpreter's rotation slots
    # cut stacks, to 2**15 words per operand.  At 9x64x64x64 an operand is
    # 36,864 words, more than one slot's chunk, and the int and bool kernels
    # multiply all of it in one float64 product.  The min-plus loop runs a
    # strip of 2**15 // (tiles * cols) rows of every tile at a time: one
    # strip at 3x90x20x90 and 2x100x3x100, two at 5x90x4x90, 400x10x4x10
    # and 9x64x64x64, three at 2x200x3x200.  Tropical stacks of at least
    # 2**17 terms narrow to int32 where their tiles alone would not
    # (90x4x90, 10x4x10).
    for batch, rows, inner, cols in ((7, 1, 1, 1), (5, 8, 8, 8), (3, 90, 20, 90),
                                     (5, 90, 4, 90), (400, 10, 4, 10), (2, 100, 3, 100),
                                     (2, 200, 3, 200), (9, 64, 64, 64), (4, 3, 0, 2),
                                     (0, 2, 2, 2)):
        a = rng.integers(0, high, (batch, rows, inner))
        b = rng.integers(0, high, (batch, inner, cols))
        out = spec.matmul(a, b)
        assert out.dtype == np.int64 and out.shape == (batch, rows, cols)
        for t in range(batch):
            assert np.array_equal(out[t], spec.matmul(a[t], b[t]))
    custom = SemiringSpec.from_scalar_ops(name, spec.add, spec.mul, spec.zero)
    a, b = rng.integers(0, high, (2, 3, 4, 2)), rng.integers(0, high, (2, 3, 2, 5))
    assert np.array_equal(custom.matmul(a, b), spec.matmul(a, b))
