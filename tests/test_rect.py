"""Rectangular schedules and the tree sum: rounds, budgets, oracles."""

import math

import numpy as np
import pytest

from mpcmm import (
    DenseMatrix,
    SumTask,
    assert_transcript,
    get_semiring,
    lower_bound_dnd,
    lower_bound_ndn,
    lower_bound_tree_sum,
    naive_multiply,
    schedule_dnd_dproc,
    schedule_dnd_nproc,
    schedule_ndn,
    tree_sum,
)
from mpcmm.bounds import ceil_log, ceil_sqrt
from mpcmm.instances import random_dense

INT = get_semiring("int")
TROP = get_semiring("tropical")


def scalar_task(t, k, seed=0):
    rng = np.random.default_rng(seed)
    addends = tuple(np.array([int(rng.integers(0, 10_000))], dtype=np.int64) for _ in range(t))
    return SumTask(t, k, addends)


class TestTreeSum:
    def test_sixteen_scalars_width_four(self):
        task = scalar_task(16, 4, seed=1)
        result, out = tree_sum(task, INT).execute()
        assert result.transcript.rounds == 2
        assert int(out.data[0, 0]) == sum(int(x[0]) for x in task.addends)

    def test_t_below_width_single_round(self):
        task = scalar_task(3, 8, seed=2)
        result, out = tree_sum(task, INT).execute()
        assert result.transcript.rounds == 1
        assert int(out.data[0, 0]) == sum(int(x[0]) for x in task.addends)

    def test_single_addend_zero_rounds(self):
        task = scalar_task(1, 4, seed=3)
        result, out = tree_sum(task, INT).execute()
        assert result.transcript.rounds == 0
        assert int(out.data[0, 0]) == int(task.addends[0][0])

    @pytest.mark.parametrize("shape", [(3, 3), (9,)])
    def test_single_matrix_addend_is_placed_as_a_square(self, shape):
        """A lone addend is emitted as it is stored, a 3 x 3 tile however it came."""
        addend = np.arange(1, 10, dtype=np.int64)
        result, out = tree_sum(SumTask(1, 9, (addend.reshape(shape),)), INT).execute()
        assert result.transcript.rounds == 0
        assert out.data.tolist() == addend.reshape(3, 3).tolist()

    def test_matrix_addends(self):
        rng = np.random.default_rng(4)
        t, k = 12, 9
        addends = tuple(rng.integers(0, 1000, size=(3, 3)).astype(np.int64) for _ in range(t))
        task = SumTask(t, k, addends)
        result, out = tree_sum(task, INT).execute()
        expect = sum(addends)  # numpy elementwise; int semiring is + anyway
        assert np.array_equal(out.data, expect)
        assert result.transcript.rounds <= ceil_log(k, t) + 1
        assert result.transcript.rounds >= lower_bound_tree_sum(t, k)

    @pytest.mark.parametrize("t,k", [(16, 4), (64, 4), (256, 16), (3, 8), (5, 2), (9, 2)])
    def test_rounds_within_log_window(self, t, k):
        result, _ = tree_sum(scalar_task(t, k, seed=t), INT).execute()
        assert lower_bound_tree_sum(t, k) <= result.transcript.rounds <= ceil_log(k, t) + 1

    def test_result_independent_of_addend_placement(self):
        rng = np.random.default_rng(5)
        values = [int(rng.integers(0, 10_000)) for _ in range(16)]
        totals = []
        for perm_seed in range(4):
            order = np.random.default_rng(perm_seed).permutation(16)
            addends = tuple(np.array([values[i]], dtype=np.int64) for i in order)
            _, out = tree_sum(SumTask(16, 4, addends), INT).execute()
            totals.append(int(out.data[0, 0]))
        assert len(set(totals)) == 1 and totals[0] == sum(values)

    def test_zero_task_rejected(self):
        with pytest.raises(ValueError):
            SumTask(0, 4, ())
        with pytest.raises(ValueError):
            SumTask(1, 0, (np.array([1], dtype=np.int64),))

    def test_budget(self):
        sched = tree_sum(scalar_task(64, 4, seed=6), INT)
        result, _ = sched.execute()
        assert assert_transcript(result.transcript, sched.config)


def rect_inputs(rows, inner, cols, spec, seed):
    rng = np.random.default_rng(seed)
    return random_dense(rows, inner, spec, rng), random_dense(inner, cols, spec, rng)


class TestNdn:
    def test_basic_two_rounds(self):
        a, b = rect_inputs(16, 8, 16, INT, 0)
        sched = schedule_ndn(16, 8, a, b, INT)
        result, out = sched.execute()
        assert result.transcript.rounds == 2
        assert out == naive_multiply(a, b, INT)

    def test_d_equal_sqrt_n_single_round(self):
        a, b = rect_inputs(16, 4, 16, INT, 1)
        result, out = schedule_ndn(16, 4, a, b, INT).execute()
        assert result.transcript.rounds == 1
        assert out == naive_multiply(a, b, INT)

    def test_padding_d3(self):
        a, b = rect_inputs(16, 3, 16, INT, 2)
        sched = schedule_ndn(16, 3, a, b, INT)
        result, out = sched.execute()
        assert sched.meta["padded_d"] == 4
        assert result.transcript.rounds == 1
        assert out == naive_multiply(a, b, INT)

    @pytest.mark.parametrize("n,d", [(16, 4), (16, 8), (64, 16), (64, 64), (25, 10)])
    def test_rounds_equal_ceil_d_over_sqrt_n(self, n, d):
        a, b = rect_inputs(n, d, n, INT, n + d)
        result, out = schedule_ndn(n, d, a, b, INT).execute()
        expected = -(-d // math.isqrt(n))
        assert result.transcript.rounds == expected
        assert result.transcript.rounds >= lower_bound_ndn(n, d)
        assert out == naive_multiply(a, b, INT)

    def test_all_semirings(self, semiring):
        for seed in range(3):
            a, b = rect_inputs(16, 8, 16, semiring, seed)
            _, out = schedule_ndn(16, 8, a, b, semiring).execute()
            assert out == naive_multiply(a, b, semiring)

    def test_budget_and_errors(self):
        a, b = rect_inputs(16, 8, 16, INT, 3)
        sched = schedule_ndn(16, 8, a, b, INT)
        result, _ = sched.execute()
        assert assert_transcript(result.transcript, sched.config)
        with pytest.raises(ValueError):
            schedule_ndn(16, 17, *rect_inputs(16, 17, 16, INT, 4), INT)


class TestDndNproc:
    @pytest.mark.parametrize("n,d", [(64, 4), (256, 16), (64, 16), (16, 16), (16, 4)])
    def test_round_window_and_oracle(self, n, d):
        a, b = rect_inputs(d, n, d, INT, n + d)
        sched = schedule_dnd_nproc(n, d, a, b, INT)
        result, out = sched.execute()
        rounds = result.transcript.rounds
        upper = ceil_sqrt(d) + ceil_log(max(d, 2), n) + 2
        lower = max(ceil_sqrt(d), ceil_log(max(d, 2), max(n // d, 1)))
        assert lower <= rounds <= upper, f"(n={n}, d={d}) rounds={rounds}"
        assert rounds >= lower_bound_dnd(n, d, "n")
        assert out == naive_multiply(a, b, INT)
        assert assert_transcript(result.transcript, sched.config)

    def test_square_degenerate_n_equals_d(self):
        a, b = rect_inputs(16, 16, 16, INT, 9)
        sched = schedule_dnd_nproc(16, 16, a, b, INT)
        result, out = sched.execute()
        assert sched.meta["group_size"] == 1  # nothing to tree-sum
        assert result.transcript.rounds == 1 + 4  # distribute + sqrt(d) products
        assert out == naive_multiply(a, b, INT)

    def test_all_ones_column_fans_in_full_row_sum(self):
        n, d = 64, 4
        rng = np.random.default_rng(10)
        a = random_dense(d, n, INT, rng)
        b = DenseMatrix(n, d, np.ones((n, d), dtype=np.int64))
        _, out = schedule_dnd_nproc(n, d, a, b, INT).execute()
        assert int(out.data[0, 0]) == int(a.data[0, :].sum())

    def test_shape_requirements(self):
        with pytest.raises(ValueError):
            schedule_dnd_nproc(64, 8, *rect_inputs(8, 64, 8, INT, 0), INT)  # d not square
        with pytest.raises(ValueError):
            schedule_dnd_nproc(20, 9, *rect_inputs(9, 20, 9, INT, 0), INT)  # d !| n
        with pytest.raises(ValueError):
            schedule_dnd_nproc(4, 16, *rect_inputs(16, 4, 16, INT, 0), INT)  # d > n


class TestDndDproc:
    @pytest.mark.parametrize("n,d", [(16, 8), (64, 32), (16, 4), (16, 16), (64, 8)])
    def test_round_window_and_oracle(self, n, d):
        a, b = rect_inputs(d, n, d, INT, n * d)
        sched = schedule_dnd_dproc(n, d, a, b, INT)
        result, out = sched.execute()
        lower = lower_bound_dnd(n, d, "d")
        assert lower <= result.transcript.rounds <= lower + 2
        assert out == naive_multiply(a, b, INT)
        assert assert_transcript(result.transcript, sched.config)

    def test_tropical_random_instance(self):
        a, b = rect_inputs(8, 16, 8, TROP, 11)
        _, out = schedule_dnd_dproc(16, 8, a, b, TROP).execute()
        assert out == naive_multiply(a, b, TROP)

    def test_padding_awkward_d(self):
        # d = 6 pads to 8 on a 16-wide machine (next divisor-compatible multiple)
        a, b = rect_inputs(6, 16, 6, INT, 12)
        sched = schedule_dnd_dproc(16, 6, a, b, INT)
        result, out = sched.execute()
        assert sched.meta["padded_d"] == 8
        assert out == naive_multiply(a, b, INT)
        assert assert_transcript(result.transcript, sched.config)


NDN_SHAPES = [(16, 4), (16, 8), (16, 3), (25, 10), (36, 12)]
DND_N_SHAPES = [(64, 4), (16, 4), (16, 16), (36, 9), (32, 16)]
DND_D_SHAPES = [(16, 8), (16, 4), (16, 16), (16, 6), (64, 8), (64, 32)]


def test_semiring_battery_five_shapes_each(semiring):
    """Oracle agreement for every rectangular schedule on five shapes."""
    for i, (n, d) in enumerate(NDN_SHAPES):
        a, b = rect_inputs(n, d, n, semiring, 50 + i)
        _, out = schedule_ndn(n, d, a, b, semiring).execute()
        assert out == naive_multiply(a, b, semiring), f"ndn {semiring.name} ({n},{d})"
    for i, (n, d) in enumerate(DND_N_SHAPES):
        a, b = rect_inputs(d, n, d, semiring, 60 + i)
        _, out = schedule_dnd_nproc(n, d, a, b, semiring).execute()
        assert out == naive_multiply(a, b, semiring), f"dnd-n {semiring.name} ({n},{d})"
    for i, (n, d) in enumerate(DND_D_SHAPES):
        a, b = rect_inputs(d, n, d, semiring, 70 + i)
        _, out = schedule_dnd_dproc(n, d, a, b, semiring).execute()
        assert out == naive_multiply(a, b, semiring), f"dnd-d {semiring.name} ({n},{d})"
