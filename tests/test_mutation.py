"""Mutation test: the checks catch a faulty plan.

Per-processor mutants change one op of a golden sparse plan built with
the per-processor fetch of ``fetch_reference`` (the shipped plans place
no per-processor op): they drop a ``Send``, run a
``Mac``/``MulAcc`` twice, or cut the last key off a bundled ``Send``.
Every such mutant must end in an oracle mismatch or a typed ``MpcError``
(a lost tile raises ``MissingTile``), never in a passing run or an
untyped crash.

Fetch mutants change one term of a built golden sparse plan's ``Fetch``
ops: a term removed from the arrays of the rounds that move and fold it,
or duplicated there, must end in an oracle mismatch; a fetched b value
deleted from its sender's store must raise ``MissingTile`` naming that
sender and the round.

Gather mutants change one piece of a built golden plan's ``Gather``:
a piece moved to a holder that lacks its key must raise ``MissingTile``
naming that holder and the gather's round, and a tile with one piece
removed is rejected with a ``ValueError`` before any word moves.

Scatter mutants change one unit of a built golden plan's ``Scatter``
ops, on every golden plan that has one: the (d,n,d) tree sums, the
layered sparse plans and square's redistribution.  A unit that feeds a
give, moved to another receiver or dropped, must raise ``MissingTile``
(or break a budget first); a unit the give takes twice is rejected with
a ``ValueError`` before any word moves.

Kernel mutants edit one line of the min-plus kernel's source: the int32
sentinel S raised by one (S + S then overflows int32) and the guard that
keeps a negative word out of the int32 path dropped.  The tropical
product of each must differ from the scalar loop on some case of the
width-cut bit-identity test.

A product run twice changes the result only where ``add`` is not
idempotent, so that mutant runs on the int configs only: in the bool and
tropical semirings x (+) x = x, and the doubled plan is still correct.
A removed term changes a bool or tropical cell only when no other term
of the cell gives the same sum, so that mutant runs on the int configs
too, whose values are all positive.
"""

import inspect
import sys
import types

import numpy as np
import pytest

import mpcmm.experiment as experiment
import mpcmm.semiring as semiring
from mpcmm.experiment import ExperimentConfig, run_experiment
from mpcmm.plan import Fetch, Gather, Pack, Scatter

from fetch_reference import per_processor_fetch
from plan_reference import Mac, MulAcc, Send
from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_semiring import width_mismatches

SPARSE_GOLDEN = sorted(
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
            schedule.program = type(schedule.program)(schedule.program.plan, spec)
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
    with per_processor_fetch():
        caught = _caught(monkeypatch, _op_mutant(wanted, mutate, PICK[position]), semiring)
    assert caught >= 3  # every mutant kind applies to several golden plans


def _caught(monkeypatch, mutant, semiring=None):
    """How many golden sparse plans ``mutant`` changes; each must fail typed or
    mismatch the oracle."""
    caught = 0
    for name in SPARSE_GOLDEN:
        fields = GOLDEN_CONFIGS[name]
        if semiring is not None and fields.get("semiring", "int") != semiring:
            continue
        summary = _run_mutated(monkeypatch, ExperimentConfig(seed=1, **fields), mutant)
        if summary is None:
            continue
        assert summary["ok"] is False, name
        violation = summary.get("violation")
        if violation is not None:
            assert violation["type"] in ("MissingTile", "BandwidthExceeded", "MemoryExceeded")
        else:
            assert summary["oracle_match"] is False, name
        caught += 1
    return caught


def _fetch_sites(plan, side):
    """(round, op index, column) of every ``side`` ("fold" or "move") column
    of the plan's ``Fetch`` ops, in round order."""
    return [
        (round_no, g, column)
        for round_no, ops in sorted(plan.groups.items())
        for g, op in enumerate(ops) if isinstance(op, Fetch)
        for column in range(getattr(op, side).shape[1])
    ]


def _edit_term(plan, site, edit):
    """Apply ``edit(array, column)`` to the fold column at ``site`` and, for a
    fetched term (j != r), to its column in the move of the round before."""
    round_no, g, column = site
    op = plan.groups[round_no][g]
    r, _, j = op.fold[:, column]
    if j != r:
        moved = int(np.sum(op.fold[0, :column] != op.fold[2, :column]))
        prev_round, prev_g = next((rd, h) for rd in range(round_no - 1, 0, -1)
                                  for h, prev in enumerate(plan.groups.get(rd, ()))
                                  if isinstance(prev, Fetch) and prev.frag == op.frag)
        prev = plan.groups[prev_round][prev_g]
        move = edit(prev.move, moved)
        plan.groups[prev_round][prev_g] = prev._replace(move=move)
    plan.groups[round_no][g] = op._replace(fold=edit(op.fold, column))


def _fetch_term_mutant(edit, pick):
    def apply(plan):
        sites = _fetch_sites(plan, "fold")
        if sites:
            _edit_term(plan, sites[pick(len(sites))], edit)
        return sites

    return apply


FETCH_TERM_MUTANTS = {
    "remove-term": lambda array, i: np.delete(array, i, axis=1),
    "duplicate-term": lambda array, i: np.insert(array, i, array[:, i], axis=1),
}


@pytest.mark.parametrize("position", sorted(PICK))
@pytest.mark.parametrize("mutant", sorted(FETCH_TERM_MUTANTS))
def test_every_fetch_term_mutant_is_caught(monkeypatch, mutant, position):
    edit = FETCH_TERM_MUTANTS[mutant]
    assert _caught(monkeypatch, _fetch_term_mutant(edit, PICK[position]), "int") >= 3


def _drop_held_value(pick):
    """Delete the b value of the ``pick``ed fetched term from its sender's store."""

    def apply(plan):
        sites = _fetch_sites(plan, "move")
        if sites:
            round_no, g, column = sites[pick(len(sites))]
            op = plan.groups[round_no][g]
            _, k, j = op.move[:, column].tolist()
            del plan.init[j][("b", k, j)]
        return sites

    return apply


def test_missing_tile_record_names_processor_and_round(monkeypatch):
    # sparse-trivial n=16 d=2 has two rounds.  A fetched value is read at its
    # sender in its fetch round: the first one, b(1, 5), at processor 5 in
    # round 1, the last one, b(14, 15), at processor 15 in round 2.
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS["sparse-trivial-int"])
    for position, processor, round_no in (("first", 5, 1), ("last", 15, 2)):
        violation = _run_mutated(monkeypatch, config, _drop_held_value(PICK[position]))["violation"]
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


def _scatters(plan, gives):
    """(round, op index) of every ``Scatter`` give (or move), in round order."""
    return [(round_no, g) for round_no, ops in sorted(plan.groups.items())
            for g, op in enumerate(ops)
            if isinstance(op, Scatter) and (op.to is None) == gives]


def _fed_units(plan):
    """(round, op index, unit) of every moved unit that its give sums, in round order."""
    takes = {plan.groups[rd][g].frag: plan.groups[rd][g].take for rd, g in _scatters(plan, True)}
    return [(rd, g, u) for rd, g in _scatters(plan, False)
            for u in np.sort(takes[plan.groups[rd][g].frag][0]).tolist()]


def _move_mutant(receiver, pick):
    """Send the ``pick``ed unit that feeds a give to ``receiver(to, procs)``."""

    def apply(plan):
        sites = _fed_units(plan)
        if sites:
            rd, g, u = sites[pick(len(sites))]
            op = plan.groups[rd][g]
            to = op.to.copy()
            to[u] = receiver(int(to[u]), plan.num_procs)
            plan.groups[rd][g] = op._replace(to=to)
        return sites

    return apply


def _duplicate_give_index(pick):
    def apply(plan):
        sites = [(rd, g, column) for rd, g in _scatters(plan, True)
                 for column in range(plan.groups[rd][g].take.shape[1])]
        if sites:
            rd, g, column = sites[pick(len(sites))]
            op = plan.groups[rd][g]
            plan.groups[rd][g] = op._replace(take=np.insert(op.take, column,
                                                            op.take[:, column], axis=1))
        return sites

    return apply


SCATTER_GOLDEN = sorted(
    name for name, fields in GOLDEN_CONFIGS.items()
    if fields["case"] in ("dnd-n", "dnd-d") or fields.get("redistribute")
    or name in ("sparse-twophase-blockdiag", "sparse-twophase-grid3")
)
SCATTER_MUTANTS = {
    "reroute-unit": lambda pick: _move_mutant(lambda to, procs: (to + 1) % procs, pick),
    "drop-unit": lambda pick: _move_mutant(lambda to, procs: -1, pick),
    "duplicate-give-index": _duplicate_give_index,
}


@pytest.mark.parametrize("position", sorted(PICK))
@pytest.mark.parametrize("mutant", sorted(SCATTER_MUTANTS))
def test_every_scatter_mutant_is_caught(monkeypatch, mutant, position):
    caught = 0
    for name in SCATTER_GOLDEN:
        config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
        try:
            summary = _run_mutated(monkeypatch, config, SCATTER_MUTANTS[mutant](PICK[position]))
        except ValueError as err:
            assert mutant == "duplicate-give-index" and "at most once" in str(err), name
        else:
            assert mutant != "duplicate-give-index", name
            violation = summary["violation"]
            assert summary["ok"] is False, name
            assert violation["type"] in ("MissingTile", "BandwidthExceeded", "MemoryExceeded")
        caught += 1
    assert caught == len(SCATTER_GOLDEN) == 13


KERNEL_MUTANTS = {
    "sentinel-plus-one": ("_TROP_NARROW = (1 << 30) - 1", "_TROP_NARROW = 1 << 30"),
    "no-sign-guard": (" or min(a.min(), b.min()) < 0", ""),
}


@pytest.mark.parametrize("mutant", sorted(KERNEL_MUTANTS))
def test_every_kernel_mutant_is_caught(monkeypatch, mutant):
    old, new = KERNEL_MUTANTS[mutant]
    source = inspect.getsource(semiring)
    assert source.count(old) == 1
    module = types.ModuleType(f"semiring_{mutant}")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look it up
    exec(compile(source.replace(old, new), semiring.__file__, "exec"), module.__dict__)
    assert width_mismatches(monkeypatch, module)
