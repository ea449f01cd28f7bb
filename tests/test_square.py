"""Square schedule: exact round counts, budgets, oracle agreement."""

import numpy as np
import pytest

from mpcmm import (
    MpcConfig,
    ProblemShape,
    assert_transcript,
    get_semiring,
    lower_bound_square,
    naive_multiply,
    run,
    schedule_square,
    square_rounds_upper,
)
from mpcmm.instances import random_dense

INT = get_semiring("int")


def build_and_run(n, alpha, spec, seed=0, redistribute=False):
    rng = np.random.default_rng(seed)
    a, b = random_dense(n, n, spec, rng), random_dense(n, n, spec, rng)
    sched = schedule_square(ProblemShape(n, alpha), a, b, spec, redistribute=redistribute)
    result, out = sched.execute()
    return sched, result, out, naive_multiply(a, b, spec)


def test_n16_alpha1_four_rounds():
    sched, result, out, oracle = build_and_run(16, 1.0, INT, seed=3)
    assert result.transcript.rounds == 4
    assert out == oracle
    budget = sched.config.budget
    assert result.transcript.figures[1].max() <= budget


def test_alpha_zero_single_processor_one_round():
    _, result, out, oracle = build_and_run(4, 0.0, INT)
    assert result.transcript.rounds == 1
    assert not result.transcript.figures[0].any()
    assert out == oracle


def test_alpha_two_scalar_tiles():
    sched, result, out, oracle = build_and_run(16, 2.0, INT)
    assert result.transcript.rounds == 16
    assert sched.config.processors == 256 and sched.config.memory == 1
    assert out == oracle


@pytest.mark.parametrize(
    "n,alpha,expected",
    [
        (16, 1.0, 4),
        (16, 2.0, 16),
        (16, 0.5, 2),
        (16, 1.5, 8),
        (9, 0.0, 1),
        (20, 1.0, 5),
        (17, 1.0, 5),
        (4, 1.5, 3),  # tile-aligned n that still needs grid padding
    ],
)
def test_rounds_match_predictor(n, alpha, expected):
    shape = ProblemShape(n, alpha)
    assert square_rounds_upper(shape) == expected
    _, result, out, oracle = build_and_run(n, alpha, INT, seed=n)
    assert result.transcript.rounds == expected
    assert out == oracle


@pytest.mark.parametrize("n", [16, 36])
def test_correctness_all_semirings(n, semiring):
    for seed in range(3):
        _, result, out, oracle = build_and_run(n, 1.0, semiring, seed=seed)
        assert out == oracle, f"{semiring.name} mismatch at n={n} seed={seed}"


def test_budget_at_cap_four_tile_squared():
    sched, result, _, _ = build_and_run(64, 1.0, INT)
    assert sched.config.memory == sched.meta["tile"] ** 2
    assert assert_transcript(result.transcript, sched.config)


def test_lower_bound_consistency():
    for n, alpha in [(16, 1.0), (64, 1.0), (16, 2.0), (16, 0.5), (25, 1.0)]:
        _, result, _, _ = build_and_run(n, alpha, INT, seed=n)
        assert result.transcript.rounds >= lower_bound_square(n, alpha)


def test_redistribution_prologue_adds_one_round():
    sched, result, out, oracle = build_and_run(16, 1.0, INT, seed=5, redistribute=True)
    assert result.transcript.rounds == 5
    assert square_rounds_upper(ProblemShape(16, 1.0), redistribute=True) == 5
    assert out == oracle
    assert assert_transcript(result.transcript, sched.config)


def test_memory_below_tile_squared_rejected():
    rng = np.random.default_rng(0)
    a, b = random_dense(16, 16, INT, rng), random_dense(16, 16, INT, rng)
    sched = schedule_square(ProblemShape(16, 1.0), a, b, INT)
    with pytest.raises(ValueError):
        run(sched.program, MpcConfig(16, 8))  # below tile**2 = 16


def test_wrong_input_size_rejected():
    rng = np.random.default_rng(0)
    a = random_dense(8, 8, INT, rng)
    b = random_dense(16, 16, INT, rng)
    with pytest.raises(ValueError):
        schedule_square(ProblemShape(16, 1.0), a, b, INT)
