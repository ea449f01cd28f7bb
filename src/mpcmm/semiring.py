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
min-plus product needs no per-term clamp (see :func:`_trop_matmul`).

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

# The min-plus product keeps its temporaries to at most _TROP_BLOCK
# elements.  Output tiles above _TROP_LOOP_CELLS would fit fewer than eight
# k-slices in a block, and there a plain loop over k is faster.
_TROP_BLOCK = 1 << 16
_TROP_LOOP_CELLS = _TROP_BLOCK // 8


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
    result is the same word for every int64 input.
    """
    *batch, rows, inner = a.shape
    cols = b.shape[-1]
    if rows * cols > _TROP_LOOP_CELLS:
        out = np.empty((*batch, rows, cols), dtype=np.int64)
        for t in np.ndindex(*batch):
            out[t] = _trop_strips(a[t], b[t])
        return out
    # Small tiles: reduce blocks of (tiles, k-slices, rows, cols) terms, at
    # most _TROP_BLOCK of them, over the k axis.
    tiles = math.prod(batch)
    a = a.reshape(tiles, rows, inner).transpose(0, 2, 1)
    b = b.reshape(tiles, inner, cols)
    cells = max(rows * cols, 1)
    step = max(min(inner, _TROP_BLOCK // cells), 1)
    group = max(_TROP_BLOCK // (cells * step), 1)
    out = np.empty((tiles, rows, cols), dtype=np.int64)
    for t0 in range(0, tiles, group):
        at, bt = a[t0 : t0 + group], b[t0 : t0 + group]
        out_t = out[t0 : t0 + group]
        out_t[...] = (at[:, :step, :, None] + bt[:, :step, None, :]).min(
            axis=1, initial=TROPICAL_INF
        )
        for k0 in range(step, inner, step):
            block = at[:, k0 : k0 + step, :, None] + bt[:, k0 : k0 + step, None, :]
            np.minimum(out_t, block.min(axis=1), out=out_t)
    return out.reshape(*batch, rows, cols)


def _trop_strips(a, b):
    """The min-plus product of one large tile, in place over k, one strip of
    rows at a time, so that the strip and its terms stay in cache."""
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.full((rows, cols), TROPICAL_INF, dtype=np.int64)
    strip = max(_TROP_BLOCK // cols, 1)
    term = np.empty((min(strip, rows), cols), dtype=np.int64)
    for i0 in range(0, rows, strip):
        out_strip = out[i0 : i0 + strip]
        a_strip = a[i0 : i0 + strip]
        term_strip = term[: len(out_strip)]
        for k in range(inner):
            np.add(a_strip[:, k : k + 1], b[k : k + 1, :], out=term_strip)
            np.minimum(out_strip, term_strip, out=out_strip)
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
