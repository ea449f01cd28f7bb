"""Lower-bound calculators and the measured-rounds sandwich."""

import numpy as np
import pytest

from mpcmm import (
    BoundReport,
    MpcConfig,
    ProblemShape,
    get_semiring,
    lower_bound_dnd,
    lower_bound_ndn,
    lower_bound_square,
    lower_bound_tree_sum,
    square_rounds_upper,
    term_capacity,
)
from mpcmm.bounds import ceil_log
from mpcmm.experiment import (
    CASES,
    ExperimentConfig,
    build_schedule,
    generate_instance,
    run_experiment,
)

INT = get_semiring("int")


@pytest.mark.parametrize("r,expected", [(16, 64), (1, 1), (100, 1000), (4, 8)])
def test_term_capacity(r, expected):
    assert term_capacity(r) == expected


def test_term_capacity_rejects_nonpositive():
    with pytest.raises(ValueError):
        term_capacity(0)


@pytest.mark.parametrize(
    "n,alpha,expected", [(16, 1.0, 4), (16, 0.0, 1), (16, 2.0, 16), (16, 0.5, 2), (64, 1.0, 8)]
)
def test_lower_bound_square(n, alpha, expected):
    assert lower_bound_square(n, alpha) == expected


@pytest.mark.parametrize("n,d,expected", [(16, 8, 2), (16, 4, 1), (64, 64, 8)])
def test_lower_bound_ndn(n, d, expected):
    assert lower_bound_ndn(n, d) == expected


def test_lower_bound_ndn_requires_d_le_n():
    with pytest.raises(ValueError):
        lower_bound_ndn(16, 17)


@pytest.mark.parametrize(
    "n,d,procs,expected",
    [(64, 4, "n", 5), (16, 16, "n", 5), (16, 4, "d", 1), (64, 32, "d", 4), (256, 16, "n", 6)],
)
def test_lower_bound_dnd(n, d, procs, expected):
    assert lower_bound_dnd(n, d, procs) == expected


def test_ceil_log():
    assert ceil_log(4, 16) == 2
    assert ceil_log(4, 17) == 3
    assert ceil_log(16, 1) == 0
    assert lower_bound_tree_sum(3, 8) == 1


def test_bound_report_fields():
    report = BoundReport("square", {"n": 16}, 4, 4)
    assert report.ok and report.ratio == 1.0
    assert BoundReport("square", {}, 4, 3).ok is False
    d = report.to_dict()
    assert d["lower_rounds"] == 4 and d["ok"] is True


SLACK = 8  # documented sandwich constant


def test_sandwich_across_schedules():
    """Every measured round count sits in [lower, SLACK * lower]."""
    from mpcmm import ProblemShape, schedule_square
    from mpcmm.instances import random_dense
    from mpcmm.schedules.rect import schedule_dnd_dproc, schedule_dnd_nproc, schedule_ndn

    runs = []
    for n, alpha in [(16, 1.0), (64, 1.0), (16, 2.0), (16, 0.5)]:
        rng = np.random.default_rng(n)
        a, b = random_dense(n, n, INT, rng), random_dense(n, n, INT, rng)
        sched = schedule_square(ProblemShape(n, alpha), a, b, INT)
        runs.append(("square", lower_bound_square(n, alpha), sched))
    for n, d in [(16, 4), (16, 8), (64, 16)]:
        rng = np.random.default_rng(n + d)
        a, b = random_dense(n, d, INT, rng), random_dense(d, n, INT, rng)
        runs.append(("ndn", lower_bound_ndn(n, d), schedule_ndn(n, d, a, b, INT)))
    for n, d in [(64, 4), (256, 16), (16, 16)]:
        rng = np.random.default_rng(n - d)
        a, b = random_dense(d, n, INT, rng), random_dense(n, d, INT, rng)
        runs.append(("dnd-n", lower_bound_dnd(n, d, "n"), schedule_dnd_nproc(n, d, a, b, INT)))
    for n, d in [(16, 8), (64, 32)]:
        rng = np.random.default_rng(n * d)
        a, b = random_dense(d, n, INT, rng), random_dense(n, d, INT, rng)
        runs.append(("dnd-d", lower_bound_dnd(n, d, "d"), schedule_dnd_dproc(n, d, a, b, INT)))

    for case, lower, sched in runs:
        result, _ = sched.execute()
        measured = result.transcript.rounds
        assert lower <= measured <= SLACK * lower, f"{case}: {lower} !<= {measured}"


def test_tree_sum_measured_at_least_log(capfd):
    from mpcmm import SumTask, tree_sum

    for t, k in [(16, 4), (64, 4), (256, 16), (3, 8), (7, 3)]:
        addends = tuple(np.array([i + 1], dtype=np.int64) for i in range(t))
        result, _ = tree_sum(SumTask(t, k, addends), INT).execute()
        assert result.transcript.rounds >= lower_bound_tree_sum(t, k)


def test_case_lower_bounds():
    def lower(case, n, d=0, alpha=1.0):
        config = ExperimentConfig(case=case, n=n, d=d, alpha=alpha)
        a, b, mask = generate_instance(config, INT)
        machine = build_schedule(config, a, b, mask, INT).config
        return CASES[case].lower(config, machine)

    assert lower("square", 16, alpha=1.0) == 4
    assert lower("ndn", 16, 8) == 2
    assert lower("dnd-n", 64, 4) == 5
    assert lower("dnd-d", 64, 32) == 4
    assert CASES["sparse-trivial"].lower is None


def test_padded_square_run_meets_its_bound():
    # The schedule runs on a 10 x 10 grid of 2 x 2 tiles.  A bound for
    # floor(20**1.5) = 89 processors of 8 words read 12 rounds, over the 10
    # the run takes.
    summary = run_experiment(ExperimentConfig(case="square", n=20, alpha=1.5), write=False)
    assert summary["ok"] and summary["bound"]["lower_rounds"] <= summary["rounds"] == 10


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])
def test_square_case_bound_never_exceeds_the_schedule(alpha):
    for n in range(1, 41):
        shape = ProblemShape(n, alpha)
        config = ExperimentConfig(case="square", n=n, alpha=alpha)
        machine = MpcConfig(shape.processors, shape.memory)
        assert CASES["square"].lower(config, machine) <= square_rounds_upper(shape)
