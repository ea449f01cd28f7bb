"""Mutation test: the checks catch a faulty plan.

The built golden ``ndn`` and sparse plans keep per-processor ops.  Each
mutant below changes one op of such a plan: it drops a ``Send``, runs a
``Mac``/``MulAcc`` twice, or cuts the last key off a bundled ``Send``.
Every mutant must end in an oracle mismatch or a typed ``MpcError``
(a lost tile raises ``MissingTile``), never in a passing run or an
untyped crash.

A product run twice changes the result only where ``add`` is not
idempotent, so that mutant runs on the int configs only: in the bool and
tropical semirings x (+) x = x, and the doubled plan is still correct.
"""

import pytest

import mpcmm.experiment as experiment
from mpcmm.experiment import ExperimentConfig, run_experiment
from mpcmm.plan import Mac, MulAcc, PlanProgram, Send

from test_golden import CONFIGS as GOLDEN_CONFIGS

PER_PROCESSOR_GOLDEN = sorted(
    name for name, fields in GOLDEN_CONFIGS.items()
    if fields["case"] == "ndn" or fields["case"].startswith("sparse")
)


def _sites(plan, wanted):
    """(round, proc, index) of every op in round order that ``wanted`` accepts."""
    return [
        (round_no, p, i)
        for (round_no, p), ops in sorted(plan.ops.items())
        for i, op in enumerate(ops)
        if wanted(op)
    ]


def _drop_send(ops, i):
    del ops[i]


def _duplicate_product(ops, i):
    ops.insert(i, ops[i])


def _truncate_bundle(ops, i):
    ops[i] = Send(ops[i].dst, ops[i].keys[:-1])


MUTANTS = {
    "drop-send": (lambda op: isinstance(op, Send), _drop_send, None),
    "duplicate-product": (lambda op: isinstance(op, (Mac, MulAcc)), _duplicate_product, "int"),
    "truncate-bundle": (lambda op: isinstance(op, Send) and len(op.keys) > 1,
                        _truncate_bundle, None),
}


def _run_mutant(monkeypatch, config, wanted, mutate, pick):
    """Run ``config`` with one op mutated; None if the plan has no such op."""
    build = experiment.build_schedule
    found = []

    def mutated(config, a, b, mask, spec):
        schedule = build(config, a, b, mask, spec)
        plan = schedule.program.plan
        sites = _sites(plan, wanted)
        if sites:
            round_no, p, i = sites[pick(len(sites))]
            mutate(plan.ops[(round_no, p)], i)
            schedule.program = PlanProgram(plan, spec)
            found.append((round_no, p, i))
        return schedule

    with monkeypatch.context() as mp:
        mp.setattr(experiment, "build_schedule", mutated)
        summary = run_experiment(config, write=False)
    return summary if found else None


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_every_mutant_is_caught(monkeypatch, mutant, position):
    wanted, mutate, semiring = MUTANTS[mutant]
    pick = {"first": lambda n: 0, "middle": lambda n: n // 2, "last": lambda n: n - 1}[position]
    caught = 0
    for name in PER_PROCESSOR_GOLDEN:
        fields = GOLDEN_CONFIGS[name]
        if semiring is not None and fields.get("semiring", "int") != semiring:
            continue
        config = ExperimentConfig(seed=1, **fields)
        summary = _run_mutant(monkeypatch, config, wanted, mutate, pick)
        if summary is None:
            continue
        assert summary["ok"] is False, name
        violation = summary.get("violation")
        if violation is not None:
            assert violation["type"] in ("MissingTile", "BandwidthExceeded", "MemoryExceeded")
        else:
            assert summary["oracle_match"] is False, name
        caught += 1
    assert caught >= 3  # every mutant kind applies to several golden plans


def test_missing_tile_record_names_processor_and_round(monkeypatch):
    # ndn n=36 d=18 reads round 1's slices in round 2; n=16 d=4 reads them
    # at finalize, where the record's round is None.
    for name, round_no in (("ndn-bool-d18", 2), ("ndn-int", None)):
        config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
        summary = _run_mutant(monkeypatch, config, MUTANTS["drop-send"][0], _drop_send,
                              lambda n: 0)
        violation = summary["violation"]
        assert violation["type"] == "MissingTile"
        assert violation["processor"] is not None and violation["round"] == round_no
