"""The tree sum as scatter group ops against the per-entry reference.

Every schedule that folds partials (both (d,n,d) cases and the standalone
sum) is built twice: once as it ships, with a ``Scatter`` move and give
per level, and once with ``tree_sum_reference.tree_sum_fragment`` patched
into the rect module.  Both must give the same transcript bytes, the same
outputs and the same violation records.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpcmm.experiment as experiment
from mpcmm import MpcConfig, MpcError, SumTask, tree_sum
from mpcmm.experiment import ExperimentConfig, build_schedule, generate_instance, run_experiment
from mpcmm.instances import random_dense
from mpcmm.matrix import naive_multiply
from mpcmm.plan import Plan, PlanProgram, Scatter
from mpcmm.schedules import rect
from mpcmm.schedules.common import Schedule
from mpcmm.semiring import get_semiring

import tree_sum_reference
from plan_reference import run_references
from test_golden import CONFIGS as GOLDEN_CONFIGS

SEMIRINGS = st.sampled_from(["int", "bool", "tropical"])


@contextlib.contextmanager
def per_entry_tree_sum():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rect, "tree_sum_fragment", tree_sum_reference.tree_sum_fragment)
        run_references(mp)
        yield


def _scatters(schedule):
    """The plan's ``Scatter`` ops in round order: in a (d,n,d) plan, its tree sum."""
    return [op for _, ops in sorted(schedule.program.plan.groups.items()) for op in ops
            if isinstance(op, Scatter)]


def _outcome(schedule, cap_factor=None):
    """Transcript bytes, per-processor output bytes and product, or the error."""
    try:
        result, out = schedule.execute(cap_factor)
    except MpcError as err:
        return type(err).__name__, str(err)
    outputs = [(p, r, c, block.tobytes()) for p, r, c, block in zip(*result.outputs)]
    return result.transcript.to_csv(), outputs, out


def _build(config):
    spec = get_semiring(config.semiring)
    a, b, mask = generate_instance(config, spec)
    return build_schedule(config, a, b, mask, spec), a, b, spec


@pytest.mark.parametrize(
    "name",
    sorted(name for name, fields in GOLDEN_CONFIGS.items()
           if fields["case"] in ("dnd-n", "dnd-d")),
)
def test_golden_configs_fold_matches_reference(name):
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
    folded, a, b, spec = _build(config)
    assert _scatters(folded), "the schedule should fold partials"
    with per_entry_tree_sum():
        reference = _build(config)[0]
    assert not _scatters(reference)
    outcome = _outcome(folded)
    assert outcome == _outcome(reference)
    assert outcome[2] == naive_multiply(a, b, spec)


def _sum_schedule(t, width, entries, memory, semiring, seed, extra_rounds, groups=1):
    """``groups`` sums of t addends each, on shuffled processors, by
    ``rect.tree_sum_fragment`` from round 1; group g's total is output row g."""
    spec = get_semiring(semiring)
    rng = np.random.default_rng(seed)
    addends = random_dense(groups * t, entries, spec, rng).data.reshape(groups, t, entries)
    members = rng.permutation(groups * t).reshape(groups, t)
    plan = Plan(num_procs=groups * t, num_rounds=0)
    for g in range(groups):
        for l in range(t):
            plan.set_init(int(members[g, l]), ("M", g, l), addends[g, l])
    rounds, holders = rect.tree_sum_fragment(
        plan, members, [[("M", g, l) for l in range(t)] for g in range(groups)], entries, width,
        1, [("sum", g) for g in range(groups)],
    )
    # With an extra round the hand-out step runs in a round, not at finalize.
    plan.num_rounds = rounds + extra_rounds
    g, e = np.indices((groups, entries)).reshape(2, -1)
    plan.emit(*zip(*(holder for group in holders for holder in group)), g, e)
    config = MpcConfig(groups * t, memory)
    schedule = Schedule(rect.PlanProgram(plan, spec), config, groups, entries, groups, entries)
    totals = addends[:, 0]
    for l in range(1, t):
        totals = spec.vadd(totals, addends[:, l])
    return schedule, totals


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(1, 64),
    k=st.integers(2, 16),
    data=st.data(),
    groups=st.integers(1, 3),
    semiring=SEMIRINGS,
    seed=st.integers(1, 100),
    extra_rounds=st.sampled_from([0, 1]),
    cap_factor=st.sampled_from([1, 2, 4]),
)
def test_fragment_matches_reference(t, k, data, groups, semiring, seed, extra_rounds,
                                    cap_factor):
    width = data.draw(st.integers(2, k), label="width")
    entries = data.draw(st.sampled_from([1, k]), label="entries")
    args = (t, width, entries, k, semiring, seed, extra_rounds, groups)
    folded, totals = _sum_schedule(*args)
    with per_entry_tree_sum():
        reference, _ = _sum_schedule(*args)
    outcome = _outcome(folded, cap_factor)
    assert outcome == _outcome(reference, cap_factor)
    if len(outcome) == 3:
        assert np.array_equal(outcome[2].data, totals)


@settings(max_examples=30, deadline=None)
@given(t=st.integers(1, 64), side=st.integers(0, 4), semiring=SEMIRINGS,
       seed=st.integers(1, 100))
def test_standalone_tree_sum_matches_reference(t, side, semiring, seed):
    k = max(side * side, 2)
    spec = get_semiring(semiring)
    shape = (side, side) if side else (1,)
    rng = np.random.default_rng(seed)
    task = SumTask(t, k, tuple(random_dense(1, int(np.prod(shape)), spec, rng).data.reshape(shape)
                               for _ in range(t)))
    folded = tree_sum(task, spec)
    with per_entry_tree_sum():
        reference = tree_sum(task, spec)
    assert _outcome(folded) == _outcome(reference)


VIOLATION_CONFIGS = [
    dict(case="dnd-n", n=36, d=9),
    dict(case="dnd-n", n=64, d=4, semiring="tropical"),
    dict(case="dnd-d", n=36, d=18),
    dict(case="dnd-d", n=16, d=4, semiring="bool"),
]


@pytest.mark.parametrize("cap_factor", [1, 2])
@pytest.mark.parametrize("fields", VIOLATION_CONFIGS)
def test_summaries_match_reference(fields, cap_factor):
    config = ExperimentConfig(cap_factor=cap_factor, **fields)
    summary = run_experiment(config, write=False)
    with per_entry_tree_sum():
        reference = run_experiment(config, write=False)
    assert summary == reference
    if cap_factor == 1:
        assert summary["violation"] is not None


@pytest.mark.parametrize("t,k", [(16, 9), (3, 4)])
def test_fold_words_break_budgets_like_the_reference(t, k):
    """Both tasks exceed their budget in a fold step or right after it."""
    folded, _ = _sum_schedule(t, k, k, k, "int", 1, 0)
    with per_entry_tree_sum():
        reference, _ = _sum_schedule(t, k, k, k, "int", 1, 0)
    outcome = _outcome(folded, 1)
    assert outcome[0] in ("BandwidthExceeded", "MemoryExceeded")
    assert outcome == _outcome(reference, 1)


@pytest.mark.parametrize(
    "fields",
    [dict(case="dnd-n", n=64, d=4, semiring="tropical"), dict(case="dnd-d", n=36, d=18)],
)
def test_executing_a_schedule_twice_gives_the_same_bytes(fields):
    schedule = _build(ExperimentConfig(**fields))[0]
    assert _outcome(schedule) == _outcome(schedule)


def test_fold_hands_entries_to_the_holders_it_names(monkeypatch):
    """A sum handed to another processor leaves its holder without the entry
    it emits: finalize raises ``MissingTile`` naming that holder."""
    build = experiment.build_schedule
    holders = []

    def misrouted(op, move):
        """The last give with its first sum handed to its second's processor,
        and the move before it sending that sum's units there too."""
        holders.append(int(op.procs[0]))
        other = op.procs[op.procs != op.procs[0]][0]
        to, procs = move.to.copy(), op.procs.copy()
        to[op.take[0][op.take[1] == 0]] = other
        procs[0] = other
        return op._replace(procs=procs), move._replace(to=to)

    def misrouting_build(config, a, b, mask, spec):
        schedule = build(config, a, b, mask, spec)
        groups = schedule.program.plan.groups
        (rd, g), = [(rd, g) for rd, ops in groups.items() for g, op in enumerate(ops)
                    if isinstance(op, Scatter) and op.to is None and rd == max(groups)]
        h = next(h for h, op in enumerate(groups[rd - 1]) if op.frag == groups[rd][g].frag)
        groups[rd][g], groups[rd - 1][h] = misrouted(groups[rd][g], groups[rd - 1][h])
        schedule.program = PlanProgram(schedule.program.plan, spec)
        return schedule

    monkeypatch.setattr(experiment, "build_schedule", misrouting_build)
    summary = run_experiment(ExperimentConfig(case="dnd-n", n=16, d=4), write=False)
    violation = summary["violation"]
    assert summary["ok"] is False and violation["type"] == "MissingTile"
    assert (violation["processor"], violation["round"]) == (holders[0], None)


def test_fold_build_grows_with_rounds_not_entries():
    schedule = _build(ExperimentConfig(case="dnd-n", n=512, d=64, semiring="tropical"))[0]
    plan = schedule.program.plan
    move, give = _scatters(schedule)
    # 64 groups of 8 members, 64 entries each: one level, a move and its give.
    assert plan.num_rounds == 1 + 8 + 1
    assert any(op is move for op in plan.groups[plan.num_rounds])
    assert any(op is give for op in plan.groups[plan.num_rounds + 1])
    assert move.procs.shape == (512,) and move.to.shape == (512 * 64,)
    assert give.take.shape == (2, 512 * 64) and len(give.keys) == 64 * 64
    assert not plan.ops


def test_fold_only_rounds_hand_no_processor_to_the_interpreter():
    """A level's values live in its holders' stores: each round of the sum
    names to the engine only the processors whose stores it changes."""
    schedule = _build(ExperimentConfig(seed=1, **GOLDEN_CONFIGS["dnd-n-tree2"]))[0]
    program = schedule.program
    rounds = {id(op): rd for rd, ops in program.plan.groups.items() for op in ops}
    scatter, give, forward, last = _scatters(schedule)

    def changed(op):
        return program.group_words[rounds[id(op)]][3]

    # the scatter pops every member's addend; the level round gives into the
    # collectors and forwards from some of them; the last give runs at finalize
    assert changed(scatter) == sorted(scatter.procs.tolist())
    assert rounds[id(give)] == rounds[id(forward)] == rounds[id(scatter)] + 1
    assert changed(give) == sorted(set(give.procs.tolist()))
    assert set(forward.procs.tolist()) < set(give.procs.tolist())
    assert rounds[id(last)] > program.total_rounds
