"""Sparse schedules, the block decomposition and the iteration budgets."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpcmm import (
    EpsilonSchedule,
    SparseMatrix,
    assert_transcript,
    decompose,
    default_mask,
    get_semiring,
    iteration_budget,
    naive_multiply,
    schedule_sparse_trivial,
    schedule_sparse_twophase,
)
from mpcmm.experiment import ExperimentConfig, run_experiment
from mpcmm.instances import block_diagonal, random_d_sparse
from mpcmm.plan import Gather, Scatter
from mpcmm.schedules import sparse as sparse_module
from mpcmm.schedules.sparse import build_ledger

from fetch_reference import per_processor_fetch
from test_golden import CONFIGS as GOLDEN_CONFIGS, _digest
from test_rotation import _assert_built_both_ways_agree, _build, _execute, per_processor_rotation

INT = get_semiring("int")
BOOL = get_semiring("bool")


def masked_entries(matrix, mask):
    return {(r, j): int(matrix.data[r, j]) for r in range(mask.n) for j in mask.rows[r]}


def masked_match(out, oracle, mask):
    return masked_entries(out, mask) == masked_entries(oracle, mask)


def sparse_pair(n, d, spec, seed, kind="random"):
    rng = np.random.default_rng(seed)
    gen = random_d_sparse if kind == "random" else block_diagonal
    a, b = gen(n, d, spec, rng), gen(n, d, spec, rng)
    return a, b, default_mask(a, b, d)


def mixed_instance(n, d, light, spec, rng):
    """Dense d-blocks on the first half, `light`-sparse rows on the second."""
    from mpcmm.instances import random_value

    entries = {}
    half = n // 2
    for blk in range(half // d):
        base = blk * d
        for r in range(d):
            for c in range(d):
                entries[(base + r, base + c)] = random_value(spec, rng)
    perm = rng.permutation(half)
    for r in range(half, n):
        for i in range(light):
            c = half + (int(perm[r - half]) + i) % half
            entries[(r, c)] = random_value(spec, rng)
    return SparseMatrix.from_entries(n, n, [(r, c, v) for (r, c), v in entries.items()])


def build(builder, n, d, a, b, mask, spec):
    if builder == "trivial":
        return schedule_sparse_trivial(n, d, a, b, mask, spec)
    return schedule_sparse_twophase(n, d, a, b, mask, EpsilonSchedule(), spec)


@st.composite
def ragged_pairs(draw):
    """(n, d, a, b, semiring): a d-sparse pair built with ``from_arrays`` whose
    rows and columns hold 0..d entries each, so some processors hold no A
    row tile or no B column tile."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    semiring = draw(st.sampled_from(["int", "bool", "tropical"]))
    low = 0 if semiring == "tropical" else 1
    index = st.integers(0, n - 1)
    # d x d blocks down the diagonal first, or none, so that layers can form
    blocks = [(r, r // d * d + c) for r in range(n // d * d) for c in range(d)]
    first = blocks if draw(st.booleans()) else []
    pair = []
    for _ in "ab":
        rows, cols = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        kept = []
        for r, c in first + draw(st.lists(st.tuples(index, index), max_size=n * d, unique=True)):
            if rows[r] < d and cols[c] < d:  # keep the matrix d-sparse
                rows[r] += 1
                cols[c] += 1
                kept.append((r, c))
        r, c = np.array(kept, dtype=np.int64).reshape(-1, 2).T
        v = [1 if semiring == "bool" else draw(st.integers(low, 9)) for _ in kept]
        pair.append(SparseMatrix.from_arrays(n, n, r, c, v))
    return n, d, *pair, semiring


@settings(max_examples=100, deadline=None)
@given(case=ragged_pairs(), builder=st.sampled_from(["trivial", "twophase"]))
def test_ragged_pairs_match_the_oracle_and_the_per_processor_reference(case, builder):
    n, d, a, b, semiring = case
    spec = get_semiring(semiring)
    mask = default_mask(a, b, d)
    grouped = build(builder, n, d, a, b, mask, spec)
    with per_processor_fetch(), per_processor_rotation():
        reference = build(builder, n, d, a, b, mask, spec)
    csv, outputs, out = _execute(grouped)
    assert (csv, outputs, out) == _execute(reference)
    assert masked_match(out, naive_multiply(a, b, spec), mask)


class TestMask:
    def test_default_mask_respects_capacities(self):
        a, b, mask = sparse_pair(32, 3, INT, 0)
        col_use = {}
        for r in range(32):
            assert len(mask.rows[r]) <= 3
            for j in mask.rows[r]:
                col_use[j] = col_use.get(j, 0) + 1
        assert all(v <= 3 for v in col_use.values())

    def test_blockdiag_mask_is_block_structured(self):
        a, b, mask = sparse_pair(16, 4, INT, 1, kind="blockdiag")
        for r in range(16):
            blk = r // 4
            assert mask.rows[r] == tuple(range(blk * 4, blk * 4 + 4))

    def test_mask_validation(self):
        from mpcmm import OutputMask

        with pytest.raises(ValueError):
            OutputMask(2, 1, ((0, 1), (0,)))  # row over capacity
        with pytest.raises(ValueError):
            OutputMask(2, 1, ((0,), (0,)))  # column used twice
        with pytest.raises(ValueError, match="row 0 is not strictly increasing"):
            OutputMask(2, 2, ((0, 0), (1,)))  # row repeats a column


class TestTrivial:
    def test_diagonal_single_round(self):
        entries = [(i, i, i + 1) for i in range(8)]
        a = SparseMatrix.from_entries(8, 8, entries)
        b = SparseMatrix.from_entries(8, 8, entries)
        mask = default_mask(a, b, 1)
        sched = schedule_sparse_trivial(8, 1, a, b, mask, INT)
        result, out = sched.execute()
        assert result.transcript.rounds == 1
        assert not result.transcript.figures[0].any()  # all factors are resident
        for i in range(8):
            assert int(out.data[i, i]) == (i + 1) ** 2

    def test_random_two_sparse_eight(self):
        a, b, mask = sparse_pair(8, 2, INT, 2)
        sched = schedule_sparse_trivial(8, 2, a, b, mask, INT)
        result, out = sched.execute()
        assert result.transcript.rounds <= 4 * 2
        assert masked_match(out, naive_multiply(a, b, INT), mask)

    def test_boolean_three_sparse_sixteen(self):
        a, b, mask = sparse_pair(16, 3, BOOL, 3)
        _, out = schedule_sparse_trivial(16, 3, a, b, mask, BOOL).execute()
        assert masked_match(out, naive_multiply(a, b, BOOL), mask)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_rounds_within_4d(self, d):
        a, b, mask = sparse_pair(64, d, INT, d)
        sched = schedule_sparse_trivial(64, d, a, b, mask, INT)
        result, out = sched.execute()
        assert result.transcript.rounds <= 4 * d
        assert masked_match(out, naive_multiply(a, b, INT), mask)
        assert assert_transcript(result.transcript, sched.config)

    def test_sparsity_violation_rejected(self):
        a, b, mask = sparse_pair(8, 2, INT, 4)
        fat = SparseMatrix.from_entries(8, 8, [(0, c, 1) for c in range(5)])
        with pytest.raises(ValueError):
            schedule_sparse_trivial(8, 2, fat, b, mask, INT)

    @pytest.mark.parametrize("builder", ["trivial", "twophase"])
    def test_round_bound_raises_not_asserts(self, monkeypatch, builder):
        # A raise, unlike an assert, survives ``python -O``.
        a, b, mask = sparse_pair(8, 2, INT, 2)
        monkeypatch.setattr(sparse_module, "TRIVIAL_ROUND_CONSTANT", 0)
        with pytest.raises(sparse_module.RoundBoundExceeded, match=r"over the 0d = 0 bound"):
            build(builder, 8, 2, a, b, mask, INT)

    @pytest.mark.parametrize(
        "builder, kind, fallback",
        [("trivial", "random", None), ("twophase", "random", True), ("twophase", "blockdiag", False)],
    )
    def test_one_plan_and_one_ledger_per_build(self, monkeypatch, builder, kind, fallback):
        calls = {"Plan": 0, "build_ledger": 0}

        def counting(name):
            real = getattr(sparse_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(sparse_module, name, counting(name))
        a, b, mask = sparse_pair(64, 4, INT, 14, kind=kind)
        sched = build(builder, 64, 4, a, b, mask, INT)
        assert calls == {"Plan": 1, "build_ledger": 1}
        assert sched.meta.get("fallback") is fallback
        _, out = sched.execute()
        assert masked_match(out, naive_multiply(a, b, INT), mask)


class TestDecompose:
    def test_block_diagonal_single_layer_covers_everything(self):
        a, b, mask = sparse_pair(256, 16, INT, 5, kind="blockdiag")
        decomp = decompose(a, b, mask, EpsilonSchedule())
        assert len(decomp.layers) == 1
        assert len(decomp.layers[0]) == 16
        assert decomp.residual_terms == 0
        assert decomp.covered_terms == decomp.total_terms == 256 * 16 * 16
        assert decomp.meets_layer_budget and decomp.meets_residual_budget

    def test_empty_matrices(self):
        a = SparseMatrix.from_entries(8, 8, [])
        decomp = decompose(a, a, default_mask(a, a, 2), EpsilonSchedule())
        assert decomp.layers == [] and decomp.total_terms == 0
        assert decomp.residual_terms == 0

    def test_residual_budget_is_snapped(self):
        # 8 * 32 * 32**1.8 is exactly 2**17; the float product lands just above it.
        a = SparseMatrix.from_entries(32, 32, [])
        decomp = decompose(a, a, default_mask(a, a, 32), EpsilonSchedule(0.0, 0.2))
        assert decomp.residual_budget == 2**17

    def test_random_instance_budgets_and_census(self):
        a, b, mask = sparse_pair(256, 16, INT, 6)
        eps = EpsilonSchedule(0.0, 0.1)
        decomp = decompose(a, b, mask, eps)
        assert len(decomp.layers) <= iteration_budget(0.0, 0.1, 16)
        assert decomp.residual_terms <= decomp.residual_budget
        census_against_ledger(a, b, mask, decomp)

    def test_blockdiag_census(self):
        a, b, mask = sparse_pair(64, 4, INT, 7, kind="blockdiag")
        decomp = decompose(a, b, mask, EpsilonSchedule())
        census_against_ledger(a, b, mask, decomp)

    def test_layer_blocks_are_disjoint(self):
        a, b, mask = sparse_pair(256, 16, INT, 8, kind="blockdiag")
        decomp = decompose(a, b, mask, EpsilonSchedule())
        for layer in decomp.layers:
            rows, ks, cols = set(), set(), set()
            for blk in layer:
                assert not (rows & set(blk.rows))
                assert not (ks & set(blk.ks))
                assert not (cols & set(blk.cols))
                rows |= set(blk.rows)
                ks |= set(blk.ks)
                cols |= set(blk.cols)
                assert len(blk.rows) <= 16 and len(blk.ks) <= 16 and len(blk.cols) <= 16


def census_against_ledger(a, b, mask, decomp):
    """Exhaustive term conservation: layers + residual = every masked term.

    Term arrays are (3, terms), rows r, k, j: each column is one term.
    """
    covered = [t for layer in decomp.layers for blk in layer for t in zip(*blk.terms.tolist())]
    residual = list(zip(*decomp.residual.tolist()))
    combined = sorted(covered + residual)
    assert len(set(combined)) == len(combined), "a term is claimed twice"
    assert combined == sorted(zip(*build_ledger(a, b, mask).tolist()))


class TestTwoPhase:
    def test_blockdiag_beats_trivial_by_half(self):
        a, b, mask = sparse_pair(256, 16, INT, 9, kind="blockdiag")
        trivial = schedule_sparse_trivial(256, 16, a, b, mask, INT)
        two = schedule_sparse_twophase(256, 16, a, b, mask, EpsilonSchedule(), INT)
        assert two.program.total_rounds * 2 <= trivial.program.total_rounds
        result, out = two.execute()
        assert masked_match(out, naive_multiply(a, b, INT), mask)
        assert assert_transcript(result.transcript, two.config)

    def test_empty_b_runs_zero_rounds(self):
        rng = np.random.default_rng(10)
        a = random_d_sparse(16, 2, INT, rng)
        b = SparseMatrix.from_entries(16, 16, [])
        mask = default_mask(a, b, 2)
        sched = schedule_sparse_twophase(16, 2, a, b, mask, EpsilonSchedule(), INT)
        result, out = sched.execute()
        assert result.transcript.rounds <= 1  # nothing to compute or fetch
        assert np.array_equal(out.data, INT.zeros(16, 16))

    def test_random_never_worse_than_trivial_plus_two(self):
        for seed in range(4):
            a, b, mask = sparse_pair(64, 4, INT, 20 + seed)
            trivial = schedule_sparse_trivial(64, 4, a, b, mask, INT)
            two = schedule_sparse_twophase(64, 4, a, b, mask, EpsilonSchedule(), INT)
            assert two.program.total_rounds <= trivial.program.total_rounds + 2
            _, out = two.execute()
            assert masked_match(out, naive_multiply(a, b, INT), mask)

    def test_all_semirings_blockdiag(self, semiring):
        a, b, mask = sparse_pair(64, 4, semiring, 11, kind="blockdiag")
        _, out = schedule_sparse_twophase(64, 4, a, b, mask, EpsilonSchedule(), semiring).execute()
        assert masked_match(out, naive_multiply(a, b, semiring), mask)

    def test_blockdiag_nonsquare_d_still_correct(self):
        a, b, mask = sparse_pair(24, 8, INT, 12, kind="blockdiag")
        sched = schedule_sparse_twophase(24, 8, a, b, mask, EpsilonSchedule(), INT)
        result, out = sched.execute()
        assert masked_match(out, naive_multiply(a, b, INT), mask)
        trivial = schedule_sparse_trivial(24, 8, a, b, mask, INT)
        assert result.transcript.rounds <= trivial.program.total_rounds + 2

    def test_tie_with_trivial_keeps_the_layers(self):
        """Equal round counts keep the layered plan; only a loss falls back."""
        a = mixed_instance(64, 4, 1, INT, np.random.default_rng(0))
        b = mixed_instance(64, 4, 1, INT, np.random.default_rng(100))
        mask = default_mask(a, b, 4)
        two = schedule_sparse_twophase(64, 4, a, b, mask, EpsilonSchedule(), INT)
        trivial = schedule_sparse_trivial(64, 4, a, b, mask, INT)
        assert not two.meta["fallback"]
        assert two.program.total_rounds == trivial.program.total_rounds == 4
        _, out = two.execute()
        assert masked_match(out, naive_multiply(a, b, INT), mask)

    @pytest.mark.parametrize("name", ["int", "tropical"])
    def test_layers_and_residual_coexist(self, name):
        """Dense blocks up front plus light random rows: both phases live."""
        spec = get_semiring(name)
        n, d, light = 128, 16, 2
        a = mixed_instance(n, d, light, spec, np.random.default_rng(31))
        b = mixed_instance(n, d, light, spec, np.random.default_rng(32))
        mask = default_mask(a, b, d)
        decomp = decompose(a, b, mask, EpsilonSchedule())
        assert decomp.layers and decomp.residual_terms > 0
        census_against_ledger(a, b, mask, decomp)
        two = schedule_sparse_twophase(n, d, a, b, mask, EpsilonSchedule(), spec)
        assert not two.meta["fallback"]
        result, out = two.execute()
        assert masked_match(out, naive_multiply(a, b, spec), mask)
        assert assert_transcript(result.transcript, two.config)
        trivial = schedule_sparse_trivial(n, d, a, b, mask, spec)
        assert two.program.total_rounds < trivial.program.total_rounds
        # No golden config reaches a layered plan with a residual; pin its bytes.
        assert hashlib.sha256(result.transcript.to_csv().encode()).hexdigest() == (
            "b57dc83538fb6254fb25a9cfd66cbe2877339fcc5613a8f1a7d0f7dd59b28a8b"
        )


# The layers-fallback golden instance with its four layers kept: (summary
# SHA-256, transcript SHA-256) per semiring.
FOUR_LAYERS = {
    "int": (
        "f9116bee5cd00bda4933ef32820d60fd2541c002f6da511aeec01acd14b12642",
        "159a3e7c6cf7723e29221ad77d095cc87bebce02801992da7b8726a64413d5cf",
    ),
    "bool": (
        "2e6b94ab4c477cf84bd692c89238f589f7fb5cceece474553629e7ff32c1767d",
        "159a3e7c6cf7723e29221ad77d095cc87bebce02801992da7b8726a64413d5cf",
    ),
    "tropical": (
        "f0804b813d26befdf8615baf9f82d269eda2ee2ee489b359b36318d37f7fb708",
        "159a3e7c6cf7723e29221ad77d095cc87bebce02801992da7b8726a64413d5cf",
    ),
}


@pytest.mark.parametrize("semiring", sorted(FOUR_LAYERS))
def test_four_kept_layers_match_the_reference_and_their_hashes(monkeypatch, tmp_path,
                                                                semiring):
    """A plan that keeps more than one layer, which no golden config does.

    With a load bound too high to stop them, the layers win on the
    layers-fallback instance: four one-slot layers (grid side 1) and no
    residual, 8 rounds.  Layer l's C rows reach their owners in round
    2l + 3, where layer l + 1's gathers read those owners' stores, so the
    give that hands them in must run before the gather at a shared holder.
    """
    monkeypatch.setattr(sparse_module, "_load_bound", lambda terms, d: 1 << 40)
    config = ExperimentConfig(seed=1, semiring=semiring,
                              **GOLDEN_CONFIGS["sparse-twophase-layers-fallback"])
    schedule = _build(config)[0]
    plan = schedule.program.plan
    assert schedule.meta["fallback"] is False
    assert schedule.meta["decomposition"]["layers"] == 4 and plan.num_rounds == 8
    for round_no in (3, 5, 7):
        ops = plan.groups[round_no]
        give = next(i for i, op in enumerate(ops) if isinstance(op, Scatter) and op.to is None)
        gather = next(i for i, op in enumerate(ops) if isinstance(op, Gather))
        holders = set(ops[gather].charges.ravel().tolist())
        assert give < gather and holders & set(ops[give].procs.tolist())
    _assert_built_both_ways_agree(lambda: _build(config))
    summary = run_experiment(config, out_dir=str(tmp_path))
    assert summary["ok"]
    hashes = _digest(summary["summary_path"]), _digest(summary["transcript_path"])
    assert hashes == FOUR_LAYERS[semiring]


@pytest.mark.parametrize("semiring", ["int", "bool", "tropical"])
def test_layer_blocks_that_share_rows_hand_back_like_the_reference(monkeypatch, semiring):
    """``decompose`` lets the blocks of one layer share rows when d is not a
    perfect square, so one owner gets C rows from several blocks of a layer.

    With the load bound patched as above, blockdiag n=24 d=8 (seed 12) keeps
    four layers of six blocks over twelve rows each and runs 12 rounds; its
    hand-backs must give the reference's bytes and the oracle's cells.
    """
    monkeypatch.setattr(sparse_module, "_load_bound", lambda terms, d: 1 << 40)
    config = ExperimentConfig(case="sparse-twophase", n=24, d=8, instance="blockdiag",
                              seed=12, semiring=semiring)
    schedule, a, b, mask, _ = _build(config)
    assert schedule.meta["fallback"] is False and schedule.program.plan.num_rounds == 12
    layers = decompose(a, b, mask, EpsilonSchedule(0.0, config.eps)).layers
    assert len(layers) == 4
    for layer in layers:
        rows = [r for blk in layer for r in blk.rows]
        assert len(layer) == 6 and len(set(rows)) == 12 < len(rows)
    _assert_built_both_ways_agree(lambda: _build(config))


class TestIterationBudget:
    def test_example_d_1024(self):
        improved = iteration_budget(0.0, 0.1, 1024)
        old = iteration_budget(0.0, 0.1, 1024, improved=False)
        assert improved == 8 * 16 == 128  # 1024**0.4 is exactly 16
        assert old == 8 * 32 == 256
        assert improved < old

    def test_eps2_zero_means_no_reduction(self):
        assert iteration_budget(0.0, 0.0, 64) == 1

    def test_improved_never_exceeds_old(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            eps1 = float(rng.uniform(0.0, 0.3))
            eps2 = eps1 + float(rng.uniform(0.05, 0.2))
            d = int(rng.integers(2, 4096))
            assert iteration_budget(eps1, eps2, d) <= iteration_budget(eps1, eps2, d, improved=False)

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            iteration_budget(0.2, 0.1, 64)
        with pytest.raises(ValueError):
            EpsilonSchedule(0.3, 0.2)
        with pytest.raises(ValueError):
            EpsilonSchedule(-0.1, 0.2)
