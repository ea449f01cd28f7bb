"""The sparse fetch as ``Fetch`` group ops against the per-processor reference.

Every sparse golden config is built twice: once as it ships, with one
``Fetch`` group op per fetch round and one in the trailing local step, and
once with ``fetch_reference.fetch_fragment`` patched into the sparse
module.  Both must give the same transcript bytes, the same outputs and
the same violation records, at every cap factor the tests use.  The
greedy's round assignment is checked against the probing original.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpcmm import MpcConfig, MpcError, get_semiring, run
from mpcmm import plan as plan_module
from mpcmm.experiment import ExperimentConfig, build_schedule, generate_instance, run_experiment
from mpcmm.matrix import SparseMatrix, naive_multiply
from mpcmm.plan import Fetch, MissingTile, Plan, PlanProgram
from mpcmm.schedules import sparse
from mpcmm.schedules.sparse import OutputMask

import fetch_reference
from fetch_reference import per_processor_fetch
from handler_program import given_row
from plan_reference import drop_row, family_row
from test_golden import CONFIGS as GOLDEN_CONFIGS

INT = get_semiring("int")
SPARSE_GOLDEN = sorted(
    name for name, fields in GOLDEN_CONFIGS.items() if fields["case"].startswith("sparse")
)


def _build(config):
    spec = get_semiring(config.semiring)
    return build_schedule(config, *generate_instance(config, spec), spec)


def _fetches(plan):
    return [op for ops in plan.groups.values() for op in ops if isinstance(op, Fetch)]


def _outcome(schedule, cap_factor):
    """Transcript bytes, per-processor output bytes and product, or the error."""
    try:
        result, out = schedule.execute(cap_factor)
    except MpcError as err:
        return type(err).__name__, str(err)
    outputs = [(p, r, np.asarray(c).tolist(), block.tobytes())  # cells list their columns
               for p, r, c, block in zip(*result.outputs)]
    return result.transcript.to_csv(), outputs, out


@pytest.mark.parametrize("cap_factor", [4, 2, 1])
@pytest.mark.parametrize("name", SPARSE_GOLDEN)
def test_golden_configs_fetch_matches_reference(name, cap_factor):
    config = ExperimentConfig(seed=1, cap_factor=cap_factor, **GOLDEN_CONFIGS[name])
    grouped = _build(config)
    with per_processor_fetch():
        reference = _build(config)
        reference_summary = run_experiment(config, write=False)
    assert not _fetches(reference.program.plan)
    assert _outcome(grouped, cap_factor) == _outcome(reference, cap_factor)
    assert run_experiment(config, write=False) == reference_summary


def test_cap_factor_1_breaks_a_budget_in_some_golden_fetch():
    """So the differential test above compares violation records too."""
    violations = [
        run_experiment(ExperimentConfig(seed=1, cap_factor=1, **GOLDEN_CONFIGS[name]),
                       write=False)["violation"]
        for name in SPARSE_GOLDEN
    ]
    assert any(v is not None for v in violations)


def test_one_fetch_per_round_and_one_in_the_trailing_step():
    plan = _build(ExperimentConfig(seed=1, **GOLDEN_CONFIGS["sparse-trivial-blockdiag"])
                  ).program.plan
    rounds = sorted(rd for rd, ops in plan.groups.items() for op in ops if isinstance(op, Fetch))
    assert rounds == list(range(1, plan.num_rounds + 2))
    assert not plan.ops


@st.composite
def term_sets(draw):
    """A random term set as a (3, m) array sorted by (r, j, k), and d."""
    n = draw(st.integers(1, 10))
    triples = draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=120))
    triples = sorted(triples, key=lambda t: (t[0], t[2], t[1]))
    return np.array(triples, dtype=np.int64).reshape(-1, 3).T, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(case=term_sets())
def test_pointer_greedy_matches_the_probing_greedy(case):
    terms, d = case
    got = sparse._fetch_assignment(terms, d)
    assert got.tolist() == fetch_reference.fetch_assignment(terms, d).tolist()


@pytest.mark.parametrize("name", SPARSE_GOLDEN)
def test_pointer_greedy_matches_on_golden_ledgers(name):
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name])
    spec = get_semiring(config.semiring)
    a, b, mask = generate_instance(config, spec)
    terms = sparse.build_ledger(a, b, mask)
    assert (sparse._fetch_assignment(terms, config.d).tolist()
            == fetch_reference.fetch_assignment(terms, config.d).tolist())


def _terms(*triples):
    """Fetch columns r, k, j, a_at, b_at, slot of ``triples``, for row tiles
    that hold every k (word k of each tile); ``_fetch_plan`` sets the slots."""
    r, k, j = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return np.stack((r, k, j, k, k, np.full_like(r, -1)))


def _fetch_plan(moved):
    """Processor p holds the family rows ("a", p) = [a(p, 0), a(p, 1), a(p, 2)],
    a(r, k) = 10r + k + 1, and ("b", p) = [b(0, p), b(1, p), b(2, p)],
    b(k, j) = k + 2j + 1; round 1 moves ``moved`` (terms with j != r), which
    the trailing step folds before the resident term (0, 0, 0).  The output
    cells are the terms' (r, j), each owner's in column order."""
    plan = Plan(num_procs=3, num_rounds=1)
    p, k = np.arange(3)[:, None], np.arange(3)
    plan.set_family("a", [0, 3, 6, 9], (10 * p + k + 1).ravel())
    plan.set_family("b", [0, 3, 6, 9], (k + 2 * p + 1).ravel())
    cells = sorted({(0, 0), *zip(moved[0].tolist(), moved[2].tolist())})
    slot = {(r, j): sum(q == r for q, _ in cells[:i]) for i, (r, j) in enumerate(cells)}
    resident = _terms((0, 0, 0))
    for terms in (moved, resident):
        terms[5] = [slot[r, j] for r, j in zip(terms[0].tolist(), terms[2].tolist())]
    plan.add_group(1, Fetch(0, moved))
    plan.add_group(2, Fetch(0, resident))
    r, j = np.array(cells).T
    plan.emit_cells(r, r, j)
    return plan


def test_fetch_folds_products_per_cell_and_charges_words():
    moved = _terms((0, 1, 2), (0, 2, 2), (1, 0, 2), (2, 0, 1))
    result = run(PlanProgram(_fetch_plan(moved), INT), MpcConfig(3, 16))
    procs, rows, cols, blocks = result.outputs
    assert procs == [0, 1, 2]  # one row of cells per owner
    cells = {(r, j): v for r, js, block in zip(rows, cols, blocks)
             for j, v in zip(js.tolist(), block.tolist())}
    a = lambda r, k: 10 * r + k + 1
    b = lambda k, j: k + 2 * j + 1
    assert cells == {
        (0, 0): a(0, 0) * b(0, 0),
        (0, 2): a(0, 1) * b(1, 2) + a(0, 2) * b(2, 2),
        (1, 2): a(1, 0) * b(0, 2),
        (2, 1): a(2, 0) * b(0, 1),
    }
    sent, received, _ = result.transcript.figures.tolist()
    assert sent == [[0, 1, 3]]
    assert received == [[2, 1, 1]]


def test_a_resident_term_folds_in_its_own_round_and_a_moved_one_in_the_next():
    """Round 1's fetch holds a resident term of cell (0, 0) and moves one of
    cell (1, 2); each owner's one cell is its row tile's only slot."""
    plan = _fetch_plan(_terms((0, 1, 0), (1, 0, 2)))
    plan.groups[2] = [Fetch(0, _terms())]
    program = PlanProgram(plan, INT)
    program.start()
    program.group_step(1)
    assert given_row(program, 0) == [(0 + 2) * (1 + 0 + 1)]
    assert given_row(program, 1) == []
    program.group_step(2)
    assert given_row(program, 1) == [(10 + 1) * (0 + 4 + 1)]


def test_fetch_reads_b_at_the_sender_and_names_it_when_missing():
    plan = _fetch_plan(_terms((0, 1, 2), (1, 0, 2)))
    drop_row(plan, "b", 2)
    with pytest.raises(MissingTile) as caught:
        run(PlanProgram(plan, INT), MpcConfig(3, 16))
    assert (caught.value.processor, caught.value.round, caught.value.key) == (2, 1, ("b", 2))


def test_a_missing_resident_value_is_named_at_the_trailing_step():
    plan = _fetch_plan(_terms((1, 0, 2)))
    drop_row(plan, "b", 0)
    with pytest.raises(MissingTile) as caught:
        run(PlanProgram(plan, INT), MpcConfig(3, 16))
    assert (caught.value.processor, caught.value.round, caught.value.key) == (0, None, ("b", 0))


@pytest.mark.parametrize("row, column, where", [(3, 1, (1, 2)), (4, 0, (2, 1)), (4, 2, (0, 2))],
                         ids=["a-folded", "b-moved", "b-resident"])
def test_an_offset_past_its_row_tile_raises_value_error(row, column, where):
    # Word 3 of a 3-word tile would be the next tile's first word.  Columns 0
    # and 1 are moved in round 1 and folded in round 2, the trailing step,
    # before the resident term (0, 0, 0), column 2 of the fold.
    moved = _terms((0, 1, 2), (1, 0, 2))
    if column < 2:
        moved[row, column] = 3
    plan = _fetch_plan(moved)
    if column == 2:
        (last,) = plan.groups[2]
        terms = last.terms.copy()
        terms[row, 0] = 3
        plan.groups[2] = [last._replace(terms=terms)]
    p, rd = where
    key = ("a" if row == 3 else "b", p)
    with pytest.raises(ValueError, match=re.escape(f"tile {key!r} at processor {p} in round {rd}")):
        run(PlanProgram(plan, INT), MpcConfig(3, 16))


def test_each_processor_holds_two_row_tiles_and_a_read_takes_each_once(monkeypatch):
    """The row tiles are rows of the "a" and "b" families, not store tiles,
    and a fetch reads each family with one call over all of its terms."""
    config = ExperimentConfig(seed=1, **GOLDEN_CONFIGS["sparse-trivial-blockdiag"])
    spec = get_semiring(config.semiring)
    a, b, mask = generate_instance(config, spec)
    schedule = build_schedule(config, a, b, mask, spec)
    plan = schedule.program.plan
    assert not plan.init and sorted(plan.families) == ["a", "b"]
    for p in range(config.n):  # A's row p in column order, B's column p in row order
        assert family_row(plan, "a", p).tolist() == a.v[a.r == p].tolist()
        assert family_row(plan, "b", p).tolist() == b.v[b.c == p].tolist()
    store_reads, family_reads = [], []
    tiles, words = plan_module._tiles, plan_module._family_words

    def recording(program, procs, keys, moves, round_no):
        store_reads.extend(keys)
        return tiles(program, procs, keys, moves, round_no)

    def recording_words(program, name, procs, at, round_no):
        family_reads.append(round_no)
        return words(program, name, procs, at, round_no)

    monkeypatch.setattr(plan_module, "_tiles", recording)
    monkeypatch.setattr(plan_module, "_family_words", recording_words)
    schedule.execute()
    assert not store_reads and family_reads
    assert max(family_reads.count(rd) for rd in family_reads) <= 3  # a, resident b, moved b


def test_a_word_is_read_at_its_offset_in_the_row_tile():
    # A's row 1 holds columns 0, 3 and 5, so a(1, 5) is word 2 of ("a", 1);
    # B's column 2 holds rows 1 and 5, so b(5, 2) is word 1 of ("b", 2).
    a = SparseMatrix.from_arrays(6, 6, [1, 1, 1], [0, 3, 5], [2, 3, 7])
    b = SparseMatrix.from_arrays(6, 6, [1, 5], [2, 2], [11, 13])
    mask = OutputMask(6, 3, ((), (2,), (), (), (), ()))
    schedule = sparse.schedule_sparse_trivial(6, 3, a, b, mask, INT)
    plan = schedule.program.plan
    assert family_row(plan, "a", 1).tolist() == [2, 3, 7]
    assert family_row(plan, "b", 2).tolist() == [11, 13]
    terms = np.concatenate([op.terms for op in _fetches(plan)], axis=1)
    assert terms.T.tolist() == [[1, 5, 2, 2, 1, 0]]
    _, out = schedule.execute()
    assert out.data[1, 2] == 7 * 13 and out == naive_multiply(a, b, INT)


def test_a_fetch_that_moves_in_the_trailing_step_raises_value_error():
    plan = Plan(num_procs=2, num_rounds=1)
    plan.add_group(2, Fetch(0, _terms((0, 1, 1))))
    with pytest.raises(ValueError, match="trailing"):
        PlanProgram(plan, INT)
