"""Mutation test: the checks catch a faulty plan.

Per-processor mutants change one op of a built golden sparse plan, the
only plans that still move data with per-processor ops: they drop a
``Send``, run a ``Mac``/``MulAcc`` twice, or cut the last key off a
bundled ``Send``.  Every such mutant must end in an oracle mismatch or
a typed ``MpcError`` (a lost tile raises ``MissingTile``), never in a
passing run or an untyped crash.

Gather mutants change one piece of a built golden plan's ``Gather``:
a piece moved to a holder that lacks its key must raise ``MissingTile``
naming that holder and the gather's round, and a tile with one piece
removed is rejected with a ``ValueError`` before any word moves.

A product run twice changes the result only where ``add`` is not
idempotent, so that mutant runs on the int configs only: in the bool and
tropical semirings x (+) x = x, and the doubled plan is still correct.
"""

import pytest

import mpcmm.experiment as experiment
from mpcmm.experiment import ExperimentConfig, run_experiment
from mpcmm.plan import Gather, Mac, MulAcc, Pack, PlanProgram, Send

from test_golden import CONFIGS as GOLDEN_CONFIGS

PER_PROCESSOR_GOLDEN = sorted(
    name for name, fields in GOLDEN_CONFIGS.items() if fields["case"].startswith("sparse")
)
# Every golden case that rotates tiles; two-phase plans that fall back have no gather.
GATHER_GOLDEN = sorted(
    name for name, fields in GOLDEN_CONFIGS.items() if fields["case"] != "sparse-trivial"
)
PICK = {"first": lambda n: 0, "middle": lambda n: n // 2, "last": lambda n: n - 1}


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


def _run_mutated(monkeypatch, config, mutate):
    """Run ``config`` with ``mutate(plan)`` applied to its built plan; None
    if ``mutate`` found nothing to change (it returns a false value)."""
    build = experiment.build_schedule
    found = []

    def mutated(config, a, b, mask, spec):
        schedule = build(config, a, b, mask, spec)
        if mutate(schedule.program.plan):
            schedule.program = PlanProgram(schedule.program.plan, spec)
            found.append(True)
        return schedule

    with monkeypatch.context() as mp:
        mp.setattr(experiment, "build_schedule", mutated)
        summary = run_experiment(config, write=False)
    return summary if found else None


def _op_mutant(wanted, mutate, pick):
    def apply(plan):
        sites = _sites(plan, wanted)
        if sites:
            round_no, p, i = sites[pick(len(sites))]
            mutate(plan.ops[(round_no, p)], i)
        return sites

    return apply


@pytest.mark.parametrize("position", sorted(PICK))
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_every_mutant_is_caught(monkeypatch, mutant, position):
    wanted, mutate, semiring = MUTANTS[mutant]
    caught = 0
    for name in PER_PROCESSOR_GOLDEN:
        fields = GOLDEN_CONFIGS[name]
        if semiring is not None and fields.get("semiring", "int") != semiring:
            continue
        config = ExperimentConfig(seed=1, **fields)
        summary = _run_mutated(monkeypatch, config, _op_mutant(wanted, mutate, PICK[position]))
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
    # sparse-trivial n=16 d=2 has two rounds.  Its first send (round 1,
    # processor 0 to 1) is read in round 2; its last one (round 2,
    # processor 15 to 11) in the trailing local step, where the record's
    # round is None.
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS["sparse-trivial-int"])
    for position, processor, round_no in (("first", 1, 2), ("last", 11, None)):
        mutant = _op_mutant(MUTANTS["drop-send"][0], _drop_send, PICK[position])
        violation = _run_mutated(monkeypatch, config, mutant)["violation"]
        assert violation["type"] == "MissingTile"
        assert (violation["processor"], violation["round"]) == (processor, round_no)


def _pieces(plan):
    """(round, op index, row, side, piece index) of every gathered piece
    that reads its holder's store, in round order (padding reads nothing)."""
    return [
        (round_no, g, row, side, i)
        for round_no, ops in sorted(plan.groups.items())
        for g, op in enumerate(ops) if isinstance(op, Gather)
        for row, tiles in enumerate(op.tiles)
        for side, (pieces, _) in enumerate(tiles)
        for i, (_, _, recipe) in enumerate(pieces)
        if not (isinstance(recipe, Pack) and not any(recipe.keys))
    ]


def _piece_at(plan, site):
    round_no, g, row, side, i = site
    return plan.groups[round_no][g].tiles[row][side][0][i]


def _replace_piece(plan, site, piece):
    """Put ``piece`` in place of the one at ``site``; None removes it."""
    round_no, g, row, side, i = site
    op = plan.groups[round_no][g]
    tiles = [list(tile) for tile in op.tiles]
    pieces, axis = tiles[row][side]
    pieces = pieces[:i] + ((piece,) if piece is not None else ()) + pieces[i + 1 :]
    tiles[row][side] = pieces, axis
    plan.groups[round_no][g] = op._replace(tiles=tuple(map(tuple, tiles)))


@pytest.mark.parametrize("position", sorted(PICK))
def test_gathered_piece_missing_at_its_holder_raises_missing_tile(monkeypatch, position):
    caught = 0
    for name in GATHER_GOLDEN:
        moved = []

        def mutate(plan):
            sites = _pieces(plan) if plan.num_procs > 1 else ()  # another holder must exist
            if sites:
                site = sites[PICK[position](len(sites))]
                holder, key, recipe = _piece_at(plan, site)
                other = (holder + 1) % plan.num_procs
                _replace_piece(plan, site, (other, key, recipe))
                moved.append((other, site[0]))
            return sites

        summary = _run_mutated(monkeypatch, ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name]),
                               mutate)
        if summary is None:
            continue
        violation = summary["violation"]
        assert summary["ok"] is False and violation["type"] == "MissingTile", name
        assert (violation["processor"], violation["round"]) == moved[0], name
        caught += 1
    assert caught >= 20


@pytest.mark.parametrize("position", sorted(PICK))
def test_gathered_tile_missing_a_piece_is_rejected(monkeypatch, position):
    caught = 0
    for name in GATHER_GOLDEN:

        def mutate(plan):
            sites = _pieces(plan)
            if sites:
                _replace_piece(plan, sites[PICK[position](len(sites))], None)
            return sites

        config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
        try:
            summary = _run_mutated(monkeypatch, config, mutate)
        except ValueError as err:
            assert "piece" in str(err), name
            caught += 1
        else:
            assert summary is None, name
    assert caught >= 20
