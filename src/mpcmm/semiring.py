"""Semiring carriers for matrix products.

Every value in the simulator is a 64-bit word; a :class:`SemiringSpec`
decides how words combine.  Three carriers are built in:

* ``int``      -- (+, *, 0) on int64 words
* ``bool``     -- (or, and, 0) on {0, 1} words
* ``tropical`` -- (min, +, +inf) where +inf is the sentinel word
  ``TROPICAL_INF``

Besides the scalar ``add``/``mul``/``zero`` contract, each spec carries
vectorised kernels (elementwise add/mul and a block ``matmul``) so the
simulator and the oracle can run on whole tiles.  Custom semirings built
with :func:`SemiringSpec.from_scalar_ops` fall back to (slow) loops over
the scalar operations.

Every ``matmul`` takes (rows, inner) x (inner, cols) tiles or stacks of
them with the same leading batch axes, (..., rows, inner) x (..., inner,
cols), and multiplies each pair.  The built-in kernels return the same
words for every int64 input as the int64 product (``int``, ``bool``) or
the per-term loop (``tropical``) would, one tile at a time or stacked.
Integer products go through float64 BLAS only where that is exact (the
2**53 rule in :func:`_float_exact`, applied to the whole stack); the
min-plus product needs no per-term clamp, and may narrow to int32
internally on large products whose words allow it; its words in and out
are unchanged (see :func:`_trop_matmul`).

Carriers also fix their word domain (``domain``, inclusive bounds, or
None for every int64 word): bool words are 0 or 1, and tropical words
lie in [0, ``TROPICAL_INF``].  The tropical zero annihilates only there:
``mul`` computes min(a + b, INF), so for a word x < 0, INF (*) x would
be INF + x, a finite word.  Words outside the domain are rejected where
matrices enter an experiment (:meth:`SemiringSpec.check_words`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Finite tropical values stay far below the sentinel, so min(x + y, INF)
# is exact and INF + INF cannot overflow int64.
TROPICAL_INF = np.int64(1) << 61


@dataclass(frozen=True)
class SemiringSpec:
    """An (add, mul, zero) algebra over 64-bit words, with tile kernels."""

    name: str
    add: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    zero: int
    vadd: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False, default=None)
    vmul: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False, default=None)
    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False, default=None)
    domain: tuple | None = None  # (lowest, highest) word, or None for all of int64

    def check_words(self, values, what="matrix"):
        """Raise ValueError unless every word is an int64 in the carrier's domain."""
        try:
            values = np.asarray(values, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{what} holds a word outside int64") from None
        if self.domain is None or values.size == 0:
            return
        lo, hi = self.domain
        low, high = int(values.min()), int(values.max())
        if low < lo or high > hi:
            bad = low if low < lo else high
            raise ValueError(
                f"{what} holds the word {bad}, outside the {self.name} domain [{lo}, {hi}]"
            )

    @staticmethod
    def from_scalar_ops(name, add, mul, zero):
        """Build a spec whose tile kernels loop over the scalar ops."""

        def vadd(x, y):
            out = np.empty_like(x)
            for i, (a, b) in enumerate(zip(x.flat, y.flat)):
                out.flat[i] = add(int(a), int(b))
            return out

        def vmul(x, y):
            out = np.empty_like(x)
            for i, (a, b) in enumerate(zip(x.flat, y.flat)):
                out.flat[i] = mul(int(a), int(b))
            return out

        def matmul(a, b):
            *batch, rows, inner = a.shape
            cols = b.shape[-1]
            out = np.full((*batch, rows, cols), zero, dtype=np.int64)
            for t in np.ndindex(*batch):
                for i in range(rows):
                    for j in range(cols):
                        acc = zero
                        for k in range(inner):
                            acc = add(acc, mul(int(a[t][i, k]), int(b[t][k, j])))
                        out[t][i, j] = acc
            return out

        return SemiringSpec(name, add, mul, zero, vadd, vmul, matmul)

    def zeros(self, rows, cols=None):
        shape = (rows,) if cols is None else (rows, cols)
        return np.full(shape, self.zero, dtype=np.int64)


# Products with fewer terms (rows * inner * cols) than this stay in int64:
# below it the range check and the float casts cost more than they save.
_FLOAT_MIN_TERMS = 1 << 14

# float64 holds every integer of magnitude below 2**53 exactly.
_FLOAT_EXACT = 1 << 53

# Stacked float64 products convert at most this many elements of an operand
# at a time.
_FLOAT_CHUNK = 1 << 15

# The min-plus product keeps its temporaries to at most _TROP_TEMP elements.
_TROP_TEMP = 1 << 15

# The int32 sentinel of the min-plus product: S + S still fits int32.
_TROP_NARROW = (1 << 30) - 1

# Min-plus products with fewer terms than this stay in int64: below it the
# range check, the casts and the map back cost more than int32 saves.
_TROP_NARROW_MIN_TERMS = 1 << 17


def _float_exact(a, b):
    """True when the float64 product ``a @ b`` equals the int64 one.

    With ``inner * max|a| * max|b| < 2**53`` every term and every partial
    sum, in whatever order BLAS adds them, is an integer of magnitude below
    2**53, so float64 holds each of them exactly.  The maxima run over the
    whole stack.
    """
    # Python ints: -x.min() overflows int64 at its most negative value.
    amax = max(int(a.max()), -int(a.min()))
    bmax = max(int(b.max()), -int(b.min()))
    return a.shape[-1] * amax * bmax < _FLOAT_EXACT


def _int_matmul(a, b):
    # Small products, and those that could leave float64's exact range, stay
    # in int64, which wraps on overflow.  numpy has no BLAS for int64, and
    # ``a.dot(b)`` costs less per call than ``a @ b`` on small tiles; it is
    # not a batched product, so stacks use ``np.matmul``.  The size test is
    # inline because it is all that a small tile pays for.
    if a.size * b.shape[-1] >= _FLOAT_MIN_TERMS and _float_exact(a, b):
        return _float_matmul(a, b)
    return a.dot(b) if a.ndim == 2 else np.matmul(a, b)


def _float_matmul(a, b):
    """The int64 words of ``a @ b``, multiplied in float64 BLAS."""
    if a.ndim == 2:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    # Stacks convert a few tiles at a time: temporaries of a few hundred KB
    # come from reused heap memory, larger ones from fresh, faulting pages.
    *batch, rows, inner = a.shape
    cols = b.shape[-1]
    tiles = math.prod(batch)
    a = a.reshape(tiles, rows, inner)
    b = b.reshape(tiles, inner, cols)
    out = np.empty((tiles, rows, cols), dtype=np.int64)
    step = max(_FLOAT_CHUNK // max(rows * inner, inner * cols, 1), 1)
    for t0 in range(0, tiles, step):
        t1 = t0 + step
        out[t0:t1] = np.matmul(a[t0:t1].astype(np.float64), b[t0:t1].astype(np.float64))
    return out.reshape(*batch, rows, cols)


def _bool_matmul(a, b):
    return (_int_matmul(a, b) > 0).astype(np.int64)


def _trop_add(x, y):
    return np.minimum(x, y)


def _trop_mul(x, y):
    return np.minimum(x + y, TROPICAL_INF)


def _trop_matmul(a, b):
    """Min-plus product: out[i, j] = min(INF, min over k of a[i, k] + b[k, j]).

    The scalar definition clamps every term, min(a + b, INF), before the
    minimum.  Starting the minimum at INF applies that clamp once for all
    terms, since min(m, min(t, INF)) == min(m, t) whenever m <= INF, so the
    int64 product is the same word for every int64 input.

    When the product has at least _TROP_NARROW_MIN_TERMS terms, every word
    of both operands lies in [0, INF] and the largest finite words of a and
    b sum to less than S = _TROP_NARROW, the product runs in int32 instead:
    both operands are clipped to S, the minimum starts at S, and results
    >= S become INF.  Every clipped word is at most S, so no term exceeds
    S + S < 2**31 and none overflows.  A term of two finite words is below
    S and unchanged by the clip.  A term with an INF operand is at least S,
    as its other word is >= 0, and its scalar value is min(a + b, INF) =
    INF.  A result below S is therefore the least finite term, and one at
    or above S had no finite term: the words are those of the int64
    product.
    """
    *batch, rows, inner = a.shape
    cols = b.shape[-1]
    tiles = math.prod(batch)
    a = a.reshape(tiles, rows, inner)
    b = b.reshape(tiles, inner, cols)
    if _trop_narrow(a, b):
        out = _min_plus(_trop_clip(a), _trop_clip(b), _TROP_NARROW)
        out = np.where(out >= _TROP_NARROW, TROPICAL_INF, out)
    else:
        out = _min_plus(a, b, TROPICAL_INF)
    return out.reshape(*batch, rows, cols)


def _trop_narrow(a, b):
    """True when the min-plus product of ``a`` and ``b`` runs in int32."""
    if a.size * b.shape[-1] < _TROP_NARROW_MIN_TERMS or min(a.min(), b.min()) < 0:
        return False
    return _finite_max(a) + _finite_max(b) < _TROP_NARROW


def _finite_max(x):
    # A word above INF counts as finite here, so it keeps the product wide.
    return int(x.max(initial=0, where=x != TROPICAL_INF))


def _trop_clip(x):
    return np.minimum(x, _TROP_NARROW, out=np.empty(x.shape, np.int32), casting="unsafe")


def _min_plus(a, b, sentinel):
    """out[t] = min(sentinel, min over k of a[t][:, k] + b[t][k, :]), in a's dtype.

    The loop over k adds one column of ``a`` to one row of ``b`` into a
    reused temporary of at most _TROP_TEMP elements and takes the minimum in
    place, a block at a time so that the block and its terms stay in cache:
    a group of small tiles, or a strip of rows of a large one.
    """
    tiles, rows, inner = a.shape
    cols = b.shape[-1]
    out = np.full((tiles, rows, cols), sentinel, dtype=a.dtype)
    group = max(_TROP_TEMP // max(rows * cols, 1), 1)
    strip = rows if group > 1 else max(_TROP_TEMP // max(cols, 1), 1)
    term = np.empty(min(group, tiles) * min(strip, rows) * cols, dtype=a.dtype)
    a = a[..., None]
    b = b[:, :, None, :]
    for t0 in range(0, tiles, group):
        for i0 in range(0, rows, strip):
            acc = out[t0 : t0 + group, i0 : i0 + strip]
            a_block = a[t0 : t0 + group, i0 : i0 + strip]
            b_block = b[t0 : t0 + group]
            term_block = term[: acc.size].reshape(acc.shape)
            for k in range(inner):
                np.add(a_block[:, :, k], b_block[:, k], out=term_block)
                np.minimum(acc, term_block, out=acc)
    return out


INTEGER = SemiringSpec(
    name="int",
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    zero=0,
    vadd=lambda x, y: x + y,
    vmul=lambda x, y: x * y,
    matmul=_int_matmul,
)

BOOLEAN = SemiringSpec(
    name="bool",
    add=lambda a, b: a | b,
    mul=lambda a, b: a & b,
    zero=0,
    vadd=lambda x, y: x | y,
    vmul=lambda x, y: x & y,
    matmul=_bool_matmul,
    domain=(0, 1),
)

TROPICAL = SemiringSpec(
    name="tropical",
    add=lambda a, b: min(a, b),
    mul=lambda a, b: min(a + b, int(TROPICAL_INF)),
    zero=int(TROPICAL_INF),
    vadd=_trop_add,
    vmul=_trop_mul,
    matmul=_trop_matmul,
    domain=(0, int(TROPICAL_INF)),
)


def builtin_semirings() -> list[SemiringSpec]:
    """The built-in carriers: integer, boolean and tropical."""
    return [INTEGER, BOOLEAN, TROPICAL]


def get_semiring(name: str) -> SemiringSpec:
    for spec in builtin_semirings():
        if spec.name == name:
            return spec
    raise KeyError(f"unknown semiring {name!r} (expected one of int, bool, tropical)")
