"""Seeded instance generators draw each matrix's values in one call.

They must give the words, and leave the generator in the state, that one
draw per entry gave: the instance bytes feed every sparse golden hash.
The one-draw-per-entry spelling is kept here as the reference.
"""

import numpy as np
import pytest

from mpcmm import SparseMatrix, get_semiring
from mpcmm.instances import VALUE_RANGE, block_diagonal, random_d_sparse, random_value


def scalar_value(spec, rng):
    if spec.name == "bool":
        return 1
    if spec.name == "tropical":
        return int(rng.integers(0, VALUE_RANGE))
    return int(rng.integers(1, VALUE_RANGE))


def scalar_d_sparse(n, d, spec, rng):
    perm = rng.permutation(n)
    entries = []
    for r in range(n):
        for i in range(d):
            entries.append((r, (int(perm[r]) + i) % n, scalar_value(spec, rng)))
    return SparseMatrix.from_entries(n, n, entries)


def scalar_block_diagonal(n, d, spec, rng):
    entries = []
    for blk in range(n // d):
        for r in range(d):
            for c in range(d):
                entries.append((blk * d + r, blk * d + c, scalar_value(spec, rng)))
    return SparseMatrix.from_entries(n, n, entries)


GENERATORS = {
    "random": (random_d_sparse, scalar_d_sparse),
    "blockdiag": (block_diagonal, scalar_block_diagonal),
}


@pytest.mark.parametrize("seed", [1, 2718])
@pytest.mark.parametrize("n, d", [(1, 1), (8, 2), (16, 4), (36, 9), (384, 16)])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("semiring", ["int", "bool", "tropical"])
def test_generators_match_one_draw_per_entry(semiring, kind, n, d, seed):
    spec = get_semiring(semiring)
    generate, scalar = GENERATORS[kind]
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert generate(n, d, spec, rng) == scalar(n, d, spec, scalar_rng)
    assert random_value(spec, rng) == scalar_value(spec, scalar_rng)
    assert rng.integers(0, 1 << 62, size=4).tolist() == scalar_rng.integers(0, 1 << 62,
                                                                            size=4).tolist()
