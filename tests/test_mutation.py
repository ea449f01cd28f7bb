"""Mutation test: the checks catch a faulty plan.

Per-processor mutants change one op of a golden sparse plan built with
the per-processor fetch of ``fetch_reference`` (the shipped plans place
no per-processor op): they drop a ``Send``, run a
``Mac``/``MulAcc`` twice, or cut the last key off a bundled ``Send``.
Every such mutant must end in an oracle mismatch or a typed ``MpcError``
(a lost tile raises ``MissingTile``), never in a passing run or an
untyped crash.

Fetch mutants change one term of a built golden sparse plan's ``Fetch``
ops: a term removed from the one array that holds it, or duplicated
there, or its a or b offset moved to a neighbouring word
of the same row tile, must end in an oracle mismatch; an offset pushed
past its row tile, where the concatenation the step reads holds the
next tile's first word, is rejected with a ``ValueError``; a row tile
taken out of its family must raise ``MissingTile`` naming that
processor, the round and the tile.  A group op that writes into a tile
it only reads, a store tile or a family row, raises, since initial tiles
and families are read-only.

Gather mutants change one source or unit of a built golden plan's
``Gather``: a source moved, with the units that read it, to a holder
that lacks its key must raise ``MissingTile`` naming that holder and the
gather's round; a row that stops reading its piece of a source that
moves out of its holder's store (its units read zeros instead), and a
unit whose offset lies past the sources' units (where the step appends
its zeros), are each rejected with a ``ValueError`` before any word
moves.

Scatter mutants change one unit of a built golden plan's ``Scatter``
ops, on every golden plan that has one: the (d,n,d) tree sums, the
layered sparse plans and square's redistribution.  A unit that feeds a
give, moved to another receiver or dropped, must raise ``MissingTile``
(or break a budget first); a unit the give takes twice is rejected with
a ``ValueError`` before any word moves.

Cell give mutants change one call of ``plan._give_cells``, the first,
middle or last one it applies to in a run, on every golden sparse plan:
a cell written one slot over, a fresh cell left uncounted, or a held
cell overwritten instead of accumulated.  Each must end in an oracle
mismatch or a typed failure, a transcript that differs from the golden
one, or state words that differ from the words the stores measure
(``handler_program.store_words``) at some group step, the trailing one
too.

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
too, whose values are all positive.  So do the cell mutants that move or
overwrite a word: a bool cell's words are all 1, and a tropical cell's
minimum may not move.
"""

import inspect
import math
import sys
import types

import numpy as np
import pytest

import mpcmm.experiment as experiment
import mpcmm.plan as plan_module
import mpcmm.semiring as semiring
from mpcmm import get_semiring, run
from mpcmm.experiment import ExperimentConfig, run_experiment
from mpcmm.plan import Fetch, Gather, MissingTile, PlanProgram, Scatter

from fetch_reference import per_processor_fetch
from handler_program import store_words
from plan_reference import Mac, MulAcc, Send, drop_row, family_row
from test_golden import CONFIGS as GOLDEN_CONFIGS, GOLDEN, _digest
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


def _fetch_sites(plan, moved=False):
    """(round, op index, column) of every term of the plan's ``Fetch`` ops, in
    round order; with ``moved``, of every term that moves (j != r) only."""
    return [
        (round_no, g, column)
        for round_no, ops in sorted(plan.groups.items())
        for g, op in enumerate(ops) if isinstance(op, Fetch)
        for column in range(op.terms.shape[1])
        if not moved or op.terms[2, column] != op.terms[0, column]
    ]


def _edit_term(plan, site, edit):
    """Apply ``edit(array, column)`` to the terms of the ``Fetch`` at ``site``."""
    round_no, g, column = site
    op = plan.groups[round_no][g]
    plan.groups[round_no][g] = op._replace(terms=edit(op.terms, column))


def _fetch_term_mutant(edit, pick):
    def apply(plan):
        sites = _fetch_sites(plan)
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


def _offset_mutant(row, offset, pick):
    """Set the a_at (``row`` 3) or b_at (``row`` 4) offset of the ``pick``ed
    term whose row tile holds more than one word to
    ``offset(at, words)``."""

    def apply(plan):
        sites = []
        for site in _fetch_sites(plan):
            round_no, g, column = site
            r, _, j, *at = plan.groups[round_no][g].terms[:, column].tolist()
            p = r if row == 3 else j
            words = family_row(plan, "a" if row == 3 else "b", p).size
            if words > 1:
                sites.append((site, offset(at[row - 3], words)))
        if sites:
            site, value = sites[pick(len(sites))]
            _edit_term(plan, site, lambda array, i: _set(array, (row, i), value))
        return sites

    return apply


def _set(array, index, value):
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize("position", sorted(PICK))
@pytest.mark.parametrize("row", [3, 4], ids=["a_at", "b_at"])
def test_an_offset_past_its_row_tile_is_rejected(monkeypatch, row, position):
    """Word ``words`` of a tile is the next tile's first word in the
    concatenation the step reads, so the step must check every offset."""
    raised = 0
    for name in SPARSE_GOLDEN:
        config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
        mutant = _offset_mutant(row, lambda at, words: words, PICK[position])
        try:
            summary = _run_mutated(monkeypatch, config, mutant)
        except ValueError as err:
            assert "lies outside the" in str(err), name
            raised += 1
        else:
            assert summary is None, name
    assert raised == len(SPARSE_GOLDEN) - 2  # the layers of two take every term: no fetch


@pytest.mark.parametrize("position", sorted(PICK))
@pytest.mark.parametrize("row", [3, 4], ids=["a_at", "b_at"])
def test_an_offset_moved_to_a_neighbouring_word_fails_the_oracle(monkeypatch, row, position):
    neighbour = lambda at, words: at + 1 if at + 1 < words else at - 1
    assert _caught(monkeypatch, _offset_mutant(row, neighbour, PICK[position]), "int") >= 3


def test_a_write_into_a_tile_that_is_only_read_raises(monkeypatch):
    """Initial tiles and families are read-only: the sparse A family's data
    is the instance's value array, which the oracle reads too.  Each read,
    of tiles and family rows a gather takes or of family words a fetch
    takes, writes into what it read."""
    tiles, words = plan_module._tiles, plan_module._family_words

    def writing(program, procs, keys, moves, round_no):
        moves = [move for _, move in zip(procs, moves)]
        found = tiles(program, procs, keys, moves, round_no)
        for tile, move in zip(found, moves):
            if not move:
                tile += 1
        return found

    def writing_words(program, name, procs, at, round_no):
        found = words(program, name, procs, at, round_no)
        ptr, data = program.plan.families[name]
        data[ptr[procs] + at] += 1
        return found

    monkeypatch.setattr(plan_module, "_tiles", writing)
    monkeypatch.setattr(plan_module, "_family_words", writing_words)
    for name in SPARSE_GOLDEN:
        with pytest.raises(ValueError, match="read-only"):
            run_experiment(ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name]), write=False)


def _drop_row_tile(name, pick):
    """Take the row tile ``name`` that the ``pick``ed term reads out of its
    family: the A row of a term's owner, or the B column of a moved term's
    sender."""

    def apply(plan):
        sites = _fetch_sites(plan, moved=name == "b")
        if sites:
            round_no, g, column = sites[pick(len(sites))]
            op = plan.groups[round_no][g]
            p = int(op.terms[0 if name == "a" else 2, column])
            drop_row(plan, name, p)
        return sites

    return apply


def test_missing_tile_record_names_processor_and_round(monkeypatch):
    # sparse-trivial n=16 d=2 moves values in rounds 1 and 2 and folds them a
    # round later.  A B column tile is first read when its processor first
    # sends, and every sender sends in round 1: the first moved value's at
    # processor 5, the last one's at processor 15.  An A row tile is first
    # read at its owner's first fold, in round 2 for the first folded term's
    # owner 0 and for the last one's, owner 14.
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS["sparse-trivial-int"])
    spec = get_semiring(config.semiring)
    for name, position, where in (("b", "first", (5, 1)), ("b", "last", (15, 1)),
                                  ("a", "first", (0, 2)), ("a", "last", (14, 2))):
        mutant = _drop_row_tile(name, PICK[position])
        violation = _run_mutated(monkeypatch, config, mutant)["violation"]
        assert violation["type"] == "MissingTile"
        assert (violation["processor"], violation["round"]) == where
        schedule = experiment.build_schedule(config, *experiment.generate_instance(config, spec),
                                             spec)
        mutant(schedule.program.plan)
        with pytest.raises(MissingTile) as caught:
            run(PlanProgram(schedule.program.plan, spec), schedule.config)
        assert (caught.value.processor, caught.value.round, caught.value.key) == (*where,
                                                                                 (name, where[0]))


def _gathers(plan):
    """(round, op index) of every ``Gather``, in round order."""
    return [(round_no, g) for round_no, ops in sorted(plan.groups.items())
            for g, op in enumerate(ops) if isinstance(op, Gather)]


def _sources_of_units(op):
    """The source each unit of ``op`` reads, shaped like its words; -1 for zeros."""
    units = [math.prod(shape) // op.width for shape in op.shapes]
    return np.append(np.repeat(np.arange(len(units)), units), -1)[op.words]


def _move_source(plan, site, holder):
    """Give the source at ``site`` (round, op index, source) to ``holder``,
    and charge the units that read it there."""
    round_no, g, i = site
    op = plan.groups[round_no][g]
    holders = op.holders.copy()
    holders[i] = holder
    charges = np.where(_sources_of_units(op) == i, holder, op.charges).astype(np.int32)
    plan.groups[round_no][g] = op._replace(holders=holders, charges=charges)


def _moved_pieces(plan):
    """(round, op index, stack side, row, source) of every piece that a row
    reads of a source that moves out of its holder's store, in round order."""
    sites = []
    for round_no, g in _gathers(plan):
        op = plan.groups[round_no][g]
        source = _sources_of_units(op).reshape(2, len(op.procs), -1)
        side, row, unit = np.nonzero((source >= 0) & op.moves[source])
        pieces = np.unique(np.stack((side, row, source[side, row, unit])), axis=1)
        sites += [(round_no, g, *piece) for piece in pieces.T.tolist()]
    return sites


@pytest.mark.parametrize("position", sorted(PICK))
def test_gathered_piece_missing_at_its_holder_raises_missing_tile(monkeypatch, position):
    caught = 0
    for name in GATHER_GOLDEN:
        moved = []

        def mutate(plan):
            sites = [(round_no, g, i) for round_no, g in _gathers(plan)
                     for i in range(len(plan.groups[round_no][g].keys))]
            if plan.num_procs == 1:  # another holder must exist
                sites = []
            if sites:
                site = sites[PICK[position](len(sites))]
                op = plan.groups[site[0]][site[1]]
                other = (int(op.holders[site[2]]) + 1) % plan.num_procs
                _move_source(plan, site, other)
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


def _drop_piece(plan, site):
    round_no, g, side, row, i = site
    op = plan.groups[round_no][g]
    words = op.words.copy()
    words[side, row][_sources_of_units(op)[side, row] == i] = -1
    plan.groups[round_no][g] = op._replace(words=words)
    return repr(op.keys[i])


def _units(plan):
    """(round, op index, unit) of every unit that reads a source, in round order."""
    return [(round_no, g, unit) for round_no, g in _gathers(plan)
            for unit in np.flatnonzero(plan.groups[round_no][g].words >= 0).tolist()]


def _offset_past_the_sources(plan, site):
    round_no, g, unit = site
    op = plan.groups[round_no][g]
    words = op.words.copy()
    words.flat[unit] = sum(math.prod(shape) for shape in op.shapes) // op.width
    plan.groups[round_no][g] = op._replace(words=words)


@pytest.mark.parametrize("position", sorted(PICK))
def test_gathered_tile_missing_a_piece_is_rejected(monkeypatch, position):
    """A row that stops reading its piece of a moved source loses those
    words.  A piece of a source that is only read, pointed at the zero word
    instead, is a valid gather of other inputs (as the sparse padding is),
    so only the moved pieces are mutated."""
    caught = 0
    for name in GATHER_GOLDEN:
        dropped = []

        def mutate(plan):
            sites = _moved_pieces(plan)
            if sites:
                dropped.append(_drop_piece(plan, sites[PICK[position](len(sites))]))
            return sites

        config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
        try:
            summary = _run_mutated(monkeypatch, config, mutate)
        except ValueError as err:
            assert dropped[0] in str(err), name
            caught += 1
        else:
            assert summary is None, name
    assert caught >= 20


@pytest.mark.parametrize("position", sorted(PICK))
def test_gathered_unit_past_the_sources_is_rejected(monkeypatch, position):
    caught = 0
    for name in GATHER_GOLDEN:

        def mutate(plan):
            sites = _units(plan)
            if sites:
                _offset_past_the_sources(plan, sites[PICK[position](len(sites))])
            return sites

        config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
        try:
            summary = _run_mutated(monkeypatch, config, mutate)
        except ValueError as err:
            assert "past the" in str(err), name
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


def _slot_over(give, program, cells, values):
    """The first cell whose next one exists and is not in the give goes there."""
    free = np.flatnonzero(np.diff(cells, append=len(program.given)) > 1)
    cells = cells.copy()
    cells[free[0]] += 1
    give(program, cells, values)


def _fresh_uncounted(give, program, cells, values):
    fresh = cells[~program.given[cells]]
    give(program, cells, values)
    program.state_words[program.cell_owner[fresh[0]]] -= 1


def _held_overwritten(give, program, cells, values):
    """The first held cell's word is its new value alone."""
    i = np.flatnonzero(program.given[cells])[0]
    new = values[i]
    give(program, cells, values)
    program.cell_values[cells[i]] = new


# name -> (does the mutant apply to a give of these cells, mutant, semiring or None)
CELL_MUTANTS = {
    "slot-over": (lambda program, cells: np.diff(cells, append=len(program.given)).max() > 1,
                  _slot_over, "int"),
    "fresh-uncounted": (lambda program, cells: not program.given[cells].all(),
                        _fresh_uncounted, None),
    "held-overwritten": (lambda program, cells: program.given[cells].any(),
                         _held_overwritten, "int"),
}


def _cell_give_run(monkeypatch, config, out_dir, wrap):
    """Run ``config`` with ``plan._give_cells`` replaced by ``wrap(give)``;
    returns the summary and the rounds whose counted state words differ
    from the words the stores measure."""
    give, group_step, unmatched = plan_module._give_cells, PlanProgram.group_step, []

    def traced(program, round_no):
        found = group_step(program, round_no)
        if found is not None and found[3].tolist() != store_words(program).tolist():
            unmatched.append(round_no)
        return found

    with monkeypatch.context() as mp:
        mp.setattr(plan_module, "_give_cells", wrap(give))
        mp.setattr(PlanProgram, "group_step", traced)
        summary = run_experiment(config, out_dir=out_dir)
    return summary, unmatched


@pytest.mark.parametrize("position", sorted(PICK))
@pytest.mark.parametrize("mutant", sorted(CELL_MUTANTS))
def test_every_cell_give_mutant_is_caught(monkeypatch, tmp_path, mutant, position):
    applies, mutate, semiring = CELL_MUTANTS[mutant]
    caught = 0
    for name in SPARSE_GOLDEN:
        fields = GOLDEN_CONFIGS[name]
        if semiring is not None and fields.get("semiring", "int") != semiring:
            continue
        config = ExperimentConfig(seed=1, **fields)
        sites = []

        def recording(give):
            def call(program, cells, values):
                sites.append(applies(program, cells))
                give(program, cells, values)
            return call

        _cell_give_run(monkeypatch, config, str(tmp_path / "clean"), recording)
        sites = np.flatnonzero(sites).tolist()
        if not sites:  # no give of this plan has a cell the mutant needs
            continue
        site = sites[PICK[position](len(sites))]

        def mutated(give):
            calls = []

            def call(program, cells, values):
                calls.append(None)
                (mutate if len(calls) - 1 == site else lambda g, *args: g(*args))(
                    give, program, cells, values)
            return call

        summary, unmatched = _cell_give_run(monkeypatch, config, str(tmp_path / name), mutated)
        transcript = summary.get("transcript_path")
        changed = transcript is None or _digest(transcript) != GOLDEN[name][1]
        assert not summary["ok"] or changed or unmatched, name
        caught += 1
    assert caught >= 3  # every mutant applies to several golden plans


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
