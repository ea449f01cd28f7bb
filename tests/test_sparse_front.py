"""The columnar sparse front end against the dict-of-sets reference, and the
two-phase load-bound shortcut.

``sparse_reference`` keeps the per-term ``default_mask``, ``build_ledger``
and ``decompose``.  The columnar ones must give the same masks, term
arrays, layers (rows, ks, cols and terms per block), residuals and
two-phase fallback decisions: on every sparse golden config, and in a
hypothesis test over small random, block-diagonal and arbitrary d-sparse
inputs.  Two-phase skips the fetch assignment of every term when the
layers' rounds are within the load bound, which no fetch beats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpcmm import EpsilonSchedule, SparseMatrix, get_semiring
from mpcmm.experiment import ExperimentConfig, build_schedule, generate_instance
from mpcmm.instances import block_diagonal, random_d_sparse
from mpcmm.schedules import sparse

import fetch_reference
import sparse_reference
from test_fetch import SPARSE_GOLDEN, term_sets
from test_golden import CONFIGS as GOLDEN_CONFIGS

INT = get_semiring("int")


def _greedy_rounds(terms, d):
    return int(fetch_reference.fetch_assignment(terms, d).max(initial=0))


def reference_fallback(ref, d):
    """The two-phase decision as the per-term code made it: the layers win
    iff their rounds plus the residual's greedy fetch are within the greedy
    fetch of every term."""
    if not ref.layers:
        return True
    grid = math.isqrt(ref.block_side)
    total = len(ref.layers) * (grid + 1) + _greedy_rounds(
        sparse_reference.term_array(ref.residual), d)
    return total > max(_greedy_rounds(sparse_reference.term_array(ref.ledger), d), 1)


def assert_front_end_matches(a, b, d, eps):
    mask = sparse.default_mask(a, b, d)
    assert mask == sparse_reference.default_mask(a, b, d)
    ledger = sparse.build_ledger(a, b, mask)
    assert ledger.dtype == np.int64 and ledger.shape[0] == 3
    assert ledger.tolist() == sparse_reference.term_array(
        sparse_reference.build_ledger(a, b, mask)).tolist()

    got, ref = sparse.decompose(a, b, mask, eps), sparse_reference.decompose(a, b, mask, eps)
    assert got.ledger.tolist() == ledger.tolist()
    assert [[(blk.rows, blk.ks, blk.cols, list(zip(*blk.terms.tolist()))) for blk in layer]
            for layer in got.layers] == [
        [(blk.rows, blk.ks, blk.cols, list(blk.terms)) for blk in layer] for layer in ref.layers]
    assert got.residual.tolist() == sparse_reference.term_array(ref.residual).tolist()
    assert got.report() == ref.report()

    schedule = sparse.schedule_sparse_twophase(a.rows, d, a, b, mask, eps, INT)
    assert schedule.meta["fallback"] == reference_fallback(ref, d)


@pytest.mark.parametrize("name", SPARSE_GOLDEN)
def test_golden_configs_match_the_reference(name):
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
    a, b, _ = generate_instance(config, get_semiring(config.semiring))
    assert_front_end_matches(a, b, config.d, EpsilonSchedule(0.0, config.eps))


@st.composite
def sparse_inputs(draw):
    """(A, B, d): seeded random or block-diagonal inputs, or arbitrary ones
    with at most d entries in every row and column."""
    kind = draw(st.sampled_from(["random", "blockdiag", "arbitrary"]))
    if kind == "blockdiag":
        d = draw(st.integers(1, 4))
        n = d * draw(st.integers(1, 4))
    else:
        n = draw(st.integers(1, 12))
        d = draw(st.integers(1, min(n, 5)))
    if kind != "arbitrary":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        gen = random_d_sparse if kind == "random" else block_diagonal
        return gen(n, d, INT, rng), gen(n, d, INT, rng), d

    def arbitrary():
        cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n * d, unique=True))
        rows, cols, kept = [0] * n, [0] * n, []
        for r, c in cells:
            if rows[r] < d and cols[c] < d:
                rows[r] += 1
                cols[c] += 1
                kept.append((r, c, draw(st.integers(1, 9))))
        return SparseMatrix.from_entries(n, n, kept)

    return arbitrary(), arbitrary(), d


@settings(max_examples=150, deadline=None)
@given(inputs=sparse_inputs(), eps2=st.sampled_from([0.0, 0.1, 0.5]))
def test_small_inputs_match_the_reference(inputs, eps2):
    a, b, d = inputs
    assert_front_end_matches(a, b, d, EpsilonSchedule(0.0, eps2))


@settings(max_examples=200, deadline=None)
@given(case=term_sets())
def test_load_bound_never_exceeds_the_greedy(case):
    terms, d = case
    assert sparse._load_bound(terms, d) <= max(_greedy_rounds(terms, d), 1)


@pytest.mark.parametrize("name", SPARSE_GOLDEN)
def test_load_bound_never_exceeds_the_greedy_on_golden_ledgers(name):
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
    terms = sparse.build_ledger(*generate_instance(config, get_semiring(config.semiring)))
    assert sparse._load_bound(terms, config.d) <= max(_greedy_rounds(terms, config.d), 1)


def _counted_build(monkeypatch, fields):
    """The schedule, and the term count of each fetch assignment it ran."""
    calls = []
    real = sparse._fetch_assignment

    def counting(terms, d):
        calls.append(terms.shape[1])
        return real(terms, d)

    monkeypatch.setattr(sparse, "_fetch_assignment", counting)
    config = ExperimentConfig(seed=1, **fields)
    spec = get_semiring(config.semiring)
    return build_schedule(config, *generate_instance(config, spec), spec), calls


@pytest.mark.parametrize("fields", [
    GOLDEN_CONFIGS["sparse-twophase-blockdiag"],
    GOLDEN_CONFIGS["sparse-twophase-grid3"],
    dict(case="sparse-twophase", n=384, d=16, semiring="tropical", instance="blockdiag"),
])
def test_twophase_blockdiag_assigns_the_residual_fetch_only(monkeypatch, fields):
    schedule, calls = _counted_build(monkeypatch, fields)
    assert schedule.meta["fallback"] is False
    assert calls == [schedule.meta["decomposition"]["residual_terms"]]


def test_layers_over_the_load_bound_still_run_the_greedy(monkeypatch):
    """n=16 d=2 blockdiag keeps 4 layers of 1x1 blocks, 2 rounds each, where
    the trivial fetch takes 1 round: both fetches are assigned and it falls
    back."""
    schedule, calls = _counted_build(monkeypatch,
                                     GOLDEN_CONFIGS["sparse-twophase-layers-fallback"])
    report = schedule.meta["decomposition"]
    assert report["layers"] > 0 and schedule.meta["fallback"] is True
    assert calls == [report["residual_terms"], report["covered_terms"] + report["residual_terms"]]

