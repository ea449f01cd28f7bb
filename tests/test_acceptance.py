"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and nowhere else; semiring arithmetic is
exact, so all equality checks are zero-tolerance.
"""

import math
import time

import numpy as np
import pytest

from mpcmm import (
    BandwidthExceeded,
    EpsilonSchedule,
    MpcConfig,
    ProblemShape,
    Program,
    SumTask,
    assert_transcript,
    decompose,
    default_mask,
    get_semiring,
    iteration_budget,
    lower_bound_dnd,
    lower_bound_ndn,
    lower_bound_square,
    lower_bound_tree_sum,
    naive_multiply,
    run,
    schedule_dnd_dproc,
    schedule_dnd_nproc,
    schedule_ndn,
    schedule_sparse_trivial,
    schedule_sparse_twophase,
    schedule_square,
    tree_sum,
)
from mpcmm.bounds import ceil_log, ceil_sqrt
from mpcmm.experiment import ExperimentConfig, masked_equal, run_experiment
from mpcmm.instances import block_diagonal, random_d_sparse, random_dense
from mpcmm.schedules.sparse import build_ledger

INT = get_semiring("int")
SEMIRINGS = [get_semiring(name) for name in ("int", "bool", "tropical")]


def report(number, name, ok):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def dense_pair(rows, inner, cols, spec, seed):
    rng = np.random.default_rng(seed)
    return random_dense(rows, inner, spec, rng), random_dense(inner, cols, spec, rng)


def test_criterion_01_square_rounds_exact():
    start = time.perf_counter()
    ok = True
    for n, alpha in [(16, 1.0), (64, 1.0), (256, 1.0), (16, 2.0), (16, 0.5)]:
        a, b = dense_pair(n, n, n, INT, n)
        result, out = schedule_square(ProblemShape(n, alpha), a, b, INT).execute()
        expected = math.ceil(round(n ** (alpha / 2), 9))
        ok &= result.transcript.rounds == expected
        ok &= result.transcript.rounds >= lower_bound_square(n, alpha)
        ok &= out == naive_multiply(a, b, INT)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, f"square rounds = ceil(n^(alpha/2)) exactly ({elapsed:.2f}s)", ok)


def test_criterion_02_oracle_equivalence_everywhere():
    ok = True
    for spec in SEMIRINGS:
        for seed in range(5):
            a, b = dense_pair(16, 16, 16, spec, 100 + seed)
            _, out = schedule_square(ProblemShape(16, 1.0), a, b, spec).execute()
            ok &= out == naive_multiply(a, b, spec)

            a, b = dense_pair(16, 8, 16, spec, 200 + seed)
            _, out = schedule_ndn(16, 8, a, b, spec).execute()
            ok &= out == naive_multiply(a, b, spec)

            a, b = dense_pair(4, 64, 4, spec, 300 + seed)
            _, out = schedule_dnd_nproc(64, 4, a, b, spec).execute()
            ok &= out == naive_multiply(a, b, spec)

            a, b = dense_pair(8, 16, 8, spec, 400 + seed)
            _, out = schedule_dnd_dproc(16, 8, a, b, spec).execute()
            ok &= out == naive_multiply(a, b, spec)

            rng = np.random.default_rng(500 + seed)
            sa, sb = random_d_sparse(32, 4, spec, rng), random_d_sparse(32, 4, spec, rng)
            mask = default_mask(sa, sb, 4)
            oracle = naive_multiply(sa, sb, spec)
            _, out = schedule_sparse_trivial(32, 4, sa, sb, mask, spec).execute()
            ok &= masked_equal(out, oracle, mask)
            _, out = schedule_sparse_twophase(
                32, 4, sa, sb, mask, EpsilonSchedule(), spec
            ).execute()
            ok &= masked_equal(out, oracle, mask)
    report(2, "all schedules match the reference product on 3 semirings x 5 seeds", ok)


def test_criterion_03_ndn_round_window():
    ok = True
    for n, d in [(16, 4), (16, 8), (64, 16), (64, 64)]:
        a, b = dense_pair(n, d, n, INT, n + d)
        result, out = schedule_ndn(n, d, a, b, INT).execute()
        target = -(-d // math.isqrt(n))
        ok &= target <= result.transcript.rounds <= 2 * target
        ok &= result.transcript.rounds >= lower_bound_ndn(n, d)
        ok &= out == naive_multiply(a, b, INT)
    report(3, "ndn rounds within [ceil(d/sqrt(n)), 2x]", ok)


def test_criterion_04_dnd_nproc_round_window():
    ok = True
    for n, d in [(64, 4), (256, 16), (64, 16)]:
        a, b = dense_pair(d, n, d, INT, n + d)
        result, out = schedule_dnd_nproc(n, d, a, b, INT).execute()
        rounds = result.transcript.rounds
        upper = ceil_sqrt(d) + ceil_log(d, n) + 2
        lower = max(ceil_sqrt(d), ceil_log(d, max(n // d, 1)))
        ok &= lower <= rounds <= upper
        ok &= out == naive_multiply(a, b, INT)
    report(4, "dnd on n processors within sqrt(d) + log_d(n) + 2", ok)


def test_criterion_05_dnd_dproc_round_window():
    ok = True
    for n, d in [(16, 8), (64, 32)]:
        a, b = dense_pair(d, n, d, INT, n * d)
        result, out = schedule_dnd_dproc(n, d, a, b, INT).execute()
        target = lower_bound_dnd(n, d, "d")
        ok &= target <= result.transcript.rounds <= target + 2
        ok &= out == naive_multiply(a, b, INT)
    report(5, "dnd on d processors within [ceil(d/sqrt(n)), +2]", ok)


def test_criterion_06_tree_sum_round_window():
    ok = True
    for t, k in [(16, 4), (64, 4), (256, 16), (3, 8)]:
        rng = np.random.default_rng(t)
        addends = tuple(np.array([int(rng.integers(0, 1 << 20))], dtype=np.int64) for _ in range(t))
        result, out = tree_sum(SumTask(t, k, addends), INT).execute()
        lo = lower_bound_tree_sum(t, k)
        ok &= lo <= result.transcript.rounds <= lo + 1
        if (t, k) == (3, 8):
            ok &= result.transcript.rounds == 1
        ok &= int(out.data[0, 0]) == sum(int(x[0]) for x in addends)
    report(6, "tree sum within [ceil(log_k t), +1]; (3,8) is a single round", ok)


def test_criterion_07_budget_enforcement():
    ok = True
    # every accepted transcript respects send/receive/memory <= 4M
    batteries = []
    a, b = dense_pair(64, 64, 64, INT, 1)
    batteries.append(schedule_square(ProblemShape(64, 1.0), a, b, INT))
    a, b = dense_pair(16, 8, 16, INT, 2)
    batteries.append(schedule_ndn(16, 8, a, b, INT))
    a, b = dense_pair(16, 256, 16, INT, 3)
    batteries.append(schedule_dnd_nproc(256, 16, a, b, INT))
    a, b = dense_pair(32, 64, 32, INT, 4)
    batteries.append(schedule_dnd_dproc(64, 32, a, b, INT))
    rng = np.random.default_rng(5)
    sa, sb = random_d_sparse(64, 8, INT, rng), random_d_sparse(64, 8, INT, rng)
    mask = default_mask(sa, sb, 8)
    batteries.append(schedule_sparse_trivial(64, 8, sa, sb, mask, INT))
    rng = np.random.default_rng(6)
    ba, bb = block_diagonal(64, 16, INT, rng), block_diagonal(64, 16, INT, rng)
    bmask = default_mask(ba, bb, 16)
    batteries.append(schedule_sparse_twophase(64, 16, ba, bb, bmask, EpsilonSchedule(), INT))
    for sched in batteries:
        result, _ = sched.execute()
        ok &= sched.config.cap_factor == 4
        ok &= assert_transcript(result.transcript, sched.config)

    # injected oversized broadcast fails deterministically at its round
    class Broadcast(Program):
        num_procs = 4
        total_rounds = 2

        def handler(self, round_no, p, state, inbox):
            if round_no == 2 and p == 0:
                blob = np.zeros(2 * 4 * 8, dtype=np.int64)  # 2 * cap * M words
                return state, [(dst, ("blob",), blob) for dst in range(1, 4)]
            return state, []

    outcomes = []
    for _ in range(2):
        with pytest.raises(BandwidthExceeded) as info:
            run(Broadcast(), MpcConfig(4, 8, cap_factor=4))
        outcomes.append((info.value.processor, info.value.round, info.value.direction))
    ok &= outcomes[0] == outcomes[1] == (0, 2, "sent")
    report(7, "budgets hold at 4M and oversized broadcast fails at its round", ok)


def test_criterion_08_sparse_trivial_linear_rounds():
    ok = True
    for d in (2, 4, 8):
        rng = np.random.default_rng(600 + d)
        a, b = random_d_sparse(64, d, INT, rng), random_d_sparse(64, d, INT, rng)
        mask = default_mask(a, b, d)
        result, out = schedule_sparse_trivial(64, d, a, b, mask, INT).execute()
        ok &= result.transcript.rounds <= 4 * d
        ok &= masked_equal(out, naive_multiply(a, b, INT), mask)
    report(8, "sparse trivial completes within 4d rounds with oracle match", ok)


def test_criterion_09_two_phase_advantage_and_budgets():
    ok = True
    rng = np.random.default_rng(7)
    a, b = block_diagonal(256, 16, INT, rng), block_diagonal(256, 16, INT, rng)
    mask = default_mask(a, b, 16)
    trivial = schedule_sparse_trivial(256, 16, a, b, mask, INT)
    two = schedule_sparse_twophase(256, 16, a, b, mask, EpsilonSchedule(), INT)
    ok &= 2 * two.program.total_rounds <= trivial.program.total_rounds
    _, out = two.execute()
    ok &= masked_equal(out, naive_multiply(a, b, INT), mask)

    decomp = decompose(a, b, mask, EpsilonSchedule())
    ok &= len(decomp.layers) <= iteration_budget(0.0, 0.1, 16)
    ok &= decomp.residual_terms <= decomp.residual_budget
    # term conservation census at n = 256
    # term arrays are (3, terms), rows r, k, j: each column is one term
    covered = [t for layer in decomp.layers for blk in layer for t in zip(*blk.terms.tolist())]
    combined = sorted(covered + list(zip(*decomp.residual.tolist())))
    ok &= len(set(combined)) == len(combined)
    ok &= combined == sorted(zip(*build_ledger(a, b, mask).tolist()))

    for seed in range(3):
        rng = np.random.default_rng(800 + seed)
        ra, rb = random_d_sparse(64, 4, INT, rng), random_d_sparse(64, 4, INT, rng)
        rmask = default_mask(ra, rb, 4)
        base = schedule_sparse_trivial(64, 4, ra, rb, rmask, INT)
        alt = schedule_sparse_twophase(64, 4, ra, rb, rmask, EpsilonSchedule(), INT)
        ok &= alt.program.total_rounds <= base.program.total_rounds + 2
    report(9, "two-phase halves block-diagonal rounds; budgets and census hold", ok)


def test_criterion_10_improved_iteration_dominance():
    ok = True
    rng = np.random.default_rng(11)
    strict_checked = 0
    for i in range(100):
        if i % 2:
            eps1 = float(rng.uniform(0.02, 0.25))
            eps2 = eps1 + float(rng.uniform(0.15, 0.3))
            d = int(rng.integers(256, 8192))
        else:
            eps1 = 0.0
            eps2 = float(rng.uniform(0.05, 0.5))
            d = int(rng.integers(2, 8192))
        improved = iteration_budget(eps1, eps2, d)
        old = iteration_budget(eps1, eps2, d, improved=False)
        ok &= improved <= old
        if eps1 > 0:
            strict_checked += 1
            ok &= improved < old
    ok &= strict_checked >= 40
    report(10, "improved iteration budget dominates the superseded bound", ok)


def test_criterion_11_deterministic_artifacts(tmp_path):
    ok = True
    configs = [
        ExperimentConfig(case="square", n=16, alpha=1.0, seed=9),
        ExperimentConfig(case="sparse-twophase", n=64, d=16, seed=9, instance="blockdiag"),
    ]
    for i, config in enumerate(configs):
        one = run_experiment(config, out_dir=str(tmp_path / f"a{i}"))
        two = run_experiment(config, out_dir=str(tmp_path / f"b{i}"))
        ok &= open(one["summary_path"], "rb").read() == open(two["summary_path"], "rb").read()
        ok &= (
            open(one["transcript_path"], "rb").read()
            == open(two["transcript_path"], "rb").read()
        )
    report(11, "re-running a config reproduces summary and transcript bytes", ok)
