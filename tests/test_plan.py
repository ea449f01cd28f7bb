"""Plan interpreter: group-op dispatch, and the per-processor reference's
op dispatch, send payloads and tile sharing."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpcmm import MpcConfig, get_semiring, run
from mpcmm import plan as plan_module
from mpcmm.experiment import ExperimentConfig, build_schedule, generate_instance, run_experiment
from mpcmm.plan import (Fetch, Gather, MissingTile, Plan, PlanProgram, Rotate, Scatter,
                        assemble_output)
from mpcmm.schedules.common import gather, rotation_fragment

import plan_reference
import rotation_reference
from plan_reference import Drop, Mac, MulAcc, ReferenceProgram, Send, add, gather_pieces
from test_golden import SHIPPED_CONFIGS, perfbench

INT = get_semiring("int")


def _program(num_procs=2, num_rounds=1):
    return ReferenceProgram(Plan(num_procs=num_procs, num_rounds=num_rounds), INT)


def _dataclasses(module):
    return {obj for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__}


def test_every_op_has_a_dispatch_entry():
    # The shipped interpreter: group ops and a plan only, whose emits are
    # columns; a gather reads index arrays, with no recipe kinds.
    assert _dataclasses(plan_module) == {Plan}
    assert not hasattr(plan_module, "Emit")
    assert set(plan_module._GROUP_DISPATCH) == {Gather, Rotate, Scatter, Fetch}
    assert not {"_DISPATCH", "_exec", "_RECIPES"} & set(vars(plan_module))
    assert "add" not in vars(Plan)
    # The reference runs every per-processor kind, Slice and Pack among them,
    # and the per-processor rotation takes them and its gather from it.
    ops = _dataclasses(plan_reference)
    assert len(ops) == 8 and {plan_reference.Slice, plan_reference.Pack} <= ops
    assert set(plan_reference._DISPATCH) == ops
    assert rotation_reference.Slice is plan_reference.Slice
    assert rotation_reference.gather_ops is plan_reference.gather_ops


def test_plan_program_handler_is_a_stub_that_raises():
    """Only the probes patch it: every golden run, which would fail on a call,
    shows that the engine never calls it."""
    with pytest.raises(NotImplementedError, match="no processor to a handler"):
        PlanProgram(Plan(num_procs=1, num_rounds=1), INT).handler(1, 0, {}, [])


def test_plan_program_rejects_per_processor_ops():
    plan = Plan(num_procs=2, num_rounds=1)
    add(plan, 1, 0, Drop((("x",),)))
    with pytest.raises(ValueError, match="per-processor ops"):
        PlanProgram(plan, INT)
    ReferenceProgram(plan, INT)


def test_unknown_op_raises_type_error():
    program = _program()
    add(program.plan, 1, 0, ("x",))
    with pytest.raises(TypeError, match="unknown op"):
        program.handler(1, 0, {}, [])


def test_send_in_finalize_raises_value_error():
    program = _program()
    program.plan.set_init(0, ("x",), np.arange(4))
    add(program.plan, 2, 0, Send(1, (("x",),)))  # round R + 1, run by finalize
    program.start()
    with pytest.raises(ValueError, match="finalize"):
        program.finalize()


def _rotation_plan(grid, num_rounds, first_round):
    """A grid x grid rotation of 1x1 tiles whose slots start in ``first_round``;
    processor i * grid + j holds A[i, j] = i + 2j + 1 and B[i, j] = 3i + j + 1."""
    plan = Plan(num_procs=grid * grid, num_rounds=num_rounds)
    proc = lambda i, j: i * grid + j
    for i in range(grid):
        for j in range(grid):
            plan.set_init(proc(i, j), ("A", i, j), np.array([[i + 2 * j + 1]]))
            plan.set_init(proc(i, j), ("B", i, j), np.array([[3 * i + j + 1]]))

    # block (i, j) of A is source 2 * proc(i, j), of B the next; each moves whole
    sources = [(proc(i, j), (m, i, j), (1, 1), True) for i in range(grid) for j in range(grid)
               for m in "AB"]

    def tiles(_, i, j, x):
        return sources, np.stack((2 * proc(i, x), 2 * proc(x, j) + 1))[:, :, None, None], (0, 0), 1

    procs = np.arange(grid * grid).reshape(1, grid, grid)
    rotation_fragment(plan, procs, tiles, lambda _, i, j: ("C", i, j), first_round, 1)
    return plan, proc


@pytest.mark.parametrize("grid", [1, 2])
def test_ops_in_the_trailing_step_see_what_a_last_slot_hands_back(grid):
    # The rotation's last slot is placed in round R + 1, the trailing local step.
    rounds = 2
    plan, proc = _rotation_plan(grid, rounds, rounds + 2 - grid)
    a = np.array([[i + 2 * j + 1 for j in range(grid)] for i in range(grid)])
    b = np.array([[3 * i + j + 1 for j in range(grid)] for i in range(grid)])
    for i in range(grid):
        for j in range(grid):
            p = proc(i, j)
            plan.set_init(p, ("one",), np.array([[1]]))
            add(plan, rounds + 1, p, Mac(("D",), ("C", i, j), ("one",)))  # D = C
            add(plan, rounds + 1, p, Mac(("D",), ("D",), ("C", i, j)))  # D += D * C
            plan.emit([p], [("D",)], [i], [j])
    result = run(ReferenceProgram(plan, INT), MpcConfig(grid * grid, 4))
    assert result.transcript.rounds == rounds
    c = a @ b
    out = assemble_output(result.outputs, grid, grid, INT)
    assert out.tolist() == (c + c * c).tolist()


def test_ops_past_the_trailing_step_raise_value_error():
    plan = Plan(num_procs=1, num_rounds=1)
    add(plan, 3, 0, Drop((("x",),)))
    with pytest.raises(ValueError, match="trailing"):
        ReferenceProgram(plan, INT)
    plan, _ = _rotation_plan(1, 1, 3)  # its only slot in round R + 2
    with pytest.raises(ValueError, match="trailing"):
        PlanProgram(plan, INT)


@pytest.mark.parametrize("kind", ["gather", "rotate", "fold"])
def test_group_ops_that_send_in_the_trailing_step_raise_value_error(kind):
    plan = Plan(num_procs=4, num_rounds=1)
    to = np.array([1, 0, 3, 2])
    if kind == "gather":  # processor 1 holds the tiles processor 0 consumes
        sources = [(1, (key,), (1, 1), True) for key in "xy"]
        op = gather(0, np.arange(1), 1, sources, (0, 1), (0, 0))
    elif kind == "rotate":
        op = Rotate(0, np.arange(4), 1, to, to, None)
    else:  # the move that starts a four-member tree sum
        op = Scatter(0, (1,), np.arange(4), tuple(("M", l) for l in range(4)), to, None)
    plan.add_group(2, op)
    with pytest.raises(ValueError, match="trailing"):
        PlanProgram(plan, INT)


def test_missing_tile_in_a_gather_names_the_holder_and_round():
    # A[1, 0] is held by processor 2 and first consumed by processor 3.
    plan, proc = _rotation_plan(2, 3, 3)  # the gather runs in round 2
    del plan.init[proc(1, 0)][("A", 1, 0)]
    with pytest.raises(MissingTile) as caught:
        run(PlanProgram(plan, INT), MpcConfig(4, 4))
    assert caught.value.processor == 2 and caught.value.round == 2
    assert caught.value.key == ("A", 1, 0)


def test_a_gathered_source_must_have_its_shape():
    # each 4 x 4 tile is one source of four 4-word units, stored as 2 x 8
    plan = Plan(num_procs=1, num_rounds=1)
    for stack in "ab":
        plan.set_init(0, (stack,), np.ones((2, 8), dtype=np.int64))
    sources = [(0, (stack,), (4, 4), True) for stack in "ab"]
    plan.add_group(1, gather(0, np.arange(1), 4, sources, (0, 1), (np.arange(4)[:, None],) * 2, 4))
    with pytest.raises(ValueError, match=re.escape("('a',) has shape (2, 8), not (4, 4)")):
        run(PlanProgram(plan, INT), MpcConfig(1, 64))


@pytest.mark.parametrize("src, at, message", [
    # unit 3 of the 3-unit ("T",): the first unit of ("U",), the next source
    (0, (0, 3), "unit 3 of source ('T',), 3 units"),
    (0, (0, -2), "unit -2 of source ('T',)"),
    (-1, (0, -1), "unit 0 of no tile"),  # no tile to read a unit of
    (0, (0, 1, 2), "must broadcast to"),  # a row of two units needs two
], ids=["past", "below", "no-tile", "count"])
def test_a_packing_piece_must_name_words_of_its_tile(src, at, message):
    # processor 0 packs each 1 x 2 row of both 2 x 2 tiles out of its
    # 3-word tile ("T",), which it keeps; ("U",) follows it
    sources = [(0, ("T",), (3,), False), (0, ("U",), (3,), False)]
    op = gather(0, np.arange(1), 2, sources, (0, 0), ((2, -1), (2, -1)))
    assert op.words.tolist() == [[[[2, -1]] * 2]] * 2
    with pytest.raises(ValueError, match=re.escape(message)):
        gather(0, np.arange(1), 2, sources, (0, src), ((2, -1), at))


def _edit(op, field, index, value):
    array = getattr(op, field).copy()
    array[index] = value
    return op._replace(**{field: array})


@pytest.mark.parametrize("edit, message", [
    # row 0 reads zeros where A[0, 0], which moves out, was
    (lambda op: _edit(op, "words", (0, 0, 0, 0), -1), "read 0 times"),
    # row 1 reads row 0's A tile too, charged to its holder
    (lambda op: _edit(_edit(op, "words", (0, 1, 0, 0), op.words[0, 0, 0, 0]),
                      "charges", (0, 1, 0, 0), 0), "read 2 times"),
    (lambda op: _edit(op, "words", (1, 3, 0, 0), 8), "past the 8 units"),
    (lambda op: _edit(op, "charges", (1, 3, 0, 0), 2), "is charged to processor 2"),
    (lambda op: _edit(op, "charges", (1, 3, 0, 0), 4), "no processor of 4"),
    (lambda op: op._replace(width=2), "must tile"),
    (lambda op: op._replace(moves=op.moves[:-1]), "every source"),
], ids=["lost", "twice", "past", "charge", "nobody", "width", "moves"])
def test_a_gather_that_misplaces_a_word_raises_value_error(edit, message):
    plan, _ = _rotation_plan(2, 3, 3)  # the gather runs in round 2
    (op,) = plan.groups[2]
    PlanProgram(plan, INT)
    plan.groups[2] = [edit(op)]
    with pytest.raises(ValueError, match=message):
        PlanProgram(plan, INT)


@st.composite
def _gathers(draw):
    """A gather's description over up to four processors, in units of 1, 2
    or 4 words: each unit reads a kept source (one stored tile per
    processor, at any of its units or -1), a moved source (each read whole
    and once, its units drawn in any order) or zeros of no source."""
    procs_n = draw(st.integers(1, 4))
    side = draw(st.sampled_from([1, 2, 4]))
    width = draw(st.sampled_from([w for w in (1, 2, 4) if side % w == 0]))
    procs = draw(st.lists(st.integers(0, procs_n - 1), min_size=1, max_size=4))
    shape = (2, len(procs), side, side // width)

    def tile(units):
        words = draw(st.lists(st.integers(0, 9), min_size=units * width,
                              max_size=units * width))
        return np.array(words, dtype=np.int64).reshape(units, width)

    init = {p: {("T", p): tile(2 * side)} for p in range(procs_n)}
    sources = [(p, ("T", p), (2 * side, width), False) for p in range(procs_n)]
    kinds = draw(st.lists(st.sampled_from(["kept", "moved", "zero"]),
                          min_size=math.prod(shape), max_size=math.prod(shape)))
    src, at = np.full((2, len(kinds)), -1)
    for u in (u for u, kind in enumerate(kinds) if kind == "kept"):
        src[u], at[u] = draw(st.integers(0, procs_n - 1)), draw(st.integers(-1, 2 * side - 1))
    moved = draw(st.permutations([u for u, kind in enumerate(kinds) if kind == "moved"]))
    while moved:  # cut into moved sources of one to three units
        count = draw(st.integers(1, min(3, len(moved))))
        holder, key = draw(st.integers(0, procs_n - 1)), ("M", len(sources))
        init[holder][key] = tile(count)
        src[moved[:count]], at[moved[:count]] = len(sources), np.arange(count)
        sources.append((holder, key, (count, width), True))
        moved = moved[count:]
    return procs_n, procs, side, width, sources, src.reshape(shape), at.reshape(shape), init


@settings(max_examples=80, deadline=None)
@given(case=_gathers(), semiring=st.sampled_from(["int", "tropical"]))
def test_index_gather_matches_the_per_piece_reference(case, semiring):
    procs_n, procs, side, width, sources, src, at, init = case
    spec = get_semiring(semiring)
    plan = Plan(num_procs=procs_n, num_rounds=1)
    for p, store in init.items():
        for key, tile in store.items():
            plan.set_init(p, key, tile)
    ref_states = [dict(plan.init[p]) for p in range(procs_n)]
    a, b, words = gather_pieces(spec, ref_states, procs, side, sources, src, at, width)
    plan.add_group(1, gather(0, np.array(procs), side, sources, src, at, width))
    program = PlanProgram(plan, spec)
    assert all(np.array_equal(x, y) for x, y in zip(program.group_words[1], words))
    program.start()
    program.group_step(1)
    stacks = program.stacks[0]
    assert np.array_equal(stacks.a, a) and np.array_equal(stacks.b, b)
    assert [sorted(store) for store in program.states] == [sorted(store)
                                                           for store in ref_states]


def test_send_past_the_last_round_raises_value_error():
    plan = Plan(num_procs=2, num_rounds=1)
    plan.set_init(0, ("x",), np.arange(4))
    add(plan, 2, 0, Send(1, (("x",),)))
    with pytest.raises(ValueError, match="finalize"):
        run(ReferenceProgram(plan, INT), MpcConfig(2, 8))


def test_single_key_send_matches_bundled_send():
    program = _program()
    x = np.arange(6, dtype=np.int64).reshape(2, 3)
    y = np.arange(10, 14, dtype=np.int64).reshape(2, 2)
    # a column view: its single-key payload must be a contiguous copy
    z = np.arange(12, dtype=np.int64).reshape(4, 3)[:, 1:2]
    tiles = {("x",): x, ("y",): y, ("z",): z}
    for key, tile in tiles.items():
        program.plan.set_init(0, key, tile)
    add(program.plan, 1, 0, *(Send(1, (key,)) for key in tiles), Send(1, tuple(tiles)))
    _, sends = program.handler(1, 0, program.init_state(0), [])
    *singles, (_, bundle_tag, bundle_payload) = sends
    for (dst, tag, payload), (key, tile) in zip(singles, tiles.items()):
        assert dst == 1 and tag == ((key, tile.shape),)
        assert payload.dtype == np.int64 and payload.flags.c_contiguous
        assert payload.tobytes() == np.ascontiguousarray(tile).tobytes()
    assert bundle_tag == sum((tag for _, tag, _ in singles), ())
    assert bundle_payload.tobytes() == b"".join(p.tobytes() for _, _, p in singles)


def test_delivered_payload_survives_later_accumulation():
    plan = Plan(num_procs=2, num_rounds=1)
    x = np.array([[1, 2], [3, 4]], dtype=np.int64)
    plan.set_init(0, ("x",), x)
    plan.set_init(0, ("y",), np.ones((2, 2), dtype=np.int64))
    # the send shares ("x",)'s memory; the sender then rebinds that key twice
    # x += y * y (elementwise, so x += 1), then x += y @ y
    add(plan, 1, 0, Send(1, (("x",),)), MulAcc(("x",), ("y",), ("y",)), Mac(("x",), ("y",), ("y",)))
    add(plan, 2, 0, Drop((("y",),)))  # round R + 1
    plan.emit([0, 1], [("x",), ("x",)], [0, 0], [0, 2])
    result = run(ReferenceProgram(plan, INT), MpcConfig(2, 8))
    sender, receiver = result.outputs[3]
    assert np.array_equal(receiver, [[1, 2], [3, 4]])
    assert np.array_equal(sender, [[4, 5], [6, 7]])
    assert np.array_equal(x, [[1, 2], [3, 4]])


def _scatter_plan():
    """Processor 0 holds x = [1, 2, 3, 4] and processor 1 y = [10, 20, 30, 40]
    and s0 = [100]; one scatter in round 1 sums them into s0 at processor 1,
    s1 at processor 0 and s2 at processor 2, in the trailing step."""
    plan = Plan(num_procs=3, num_rounds=1)
    plan.set_init(0, ("x",), np.array([1, 2, 3, 4]))
    plan.set_init(1, ("y",), np.array([10, 20, 30, 40]))
    plan.set_init(1, ("s", 0), np.array([100]))
    cells = [("s", 0), ("s", 1), ("s", 2)]
    # x: 1 -> 1, 2 stays at 0, 3 -> 2, 4 is dropped; y: 10 and 20 stay, 30 -> 0, 40 -> 2
    plan.scatter(1, (1,), [0, 1], [("x",), ("y",)], [1, 0, 2, -1, 1, 1, 0, 2],
                 [0, 1, 2, -1, 0, 0, 1, 2], cells)
    plan.emit([1, 0, 2], cells, [0, 0, 0], [0, 1, 2])
    return plan


def test_scatter_sums_its_units_at_their_receivers_and_charges_their_words():
    result = run(PlanProgram(_scatter_plan(), INT), MpcConfig(3, 8))
    out = assemble_output(result.outputs, 1, 3, INT)
    assert out.tolist() == [[100 + 1 + 10 + 20, 2 + 30, 3 + 40]]
    # peak: x; y and s0; at processor 2 the two words it ends the run with
    sent, received, peak = result.transcript.figures.tolist()
    assert (sent, received, peak) == ([[2, 2, 0]], [[1, 1, 2]], [[4, 5, 2]])


def test_assemble_output_places_blocks_as_stored_and_leaves_the_rest_zero():
    """A 2-d block fills its rows and columns from its corner and a flat one
    is one row; cells no block covers keep the carrier's zero."""
    trop = get_semiring("tropical")
    outputs = [0, 2], [0, 2], [1, 0], [np.array([[1, 2], [3, 4]]), np.array([5, 6, 7])]
    out = assemble_output(outputs, 3, 4, trop)
    inf = trop.zero
    assert out.dtype == np.int64
    assert out.tolist() == [[inf, 1, 2, inf], [inf, 3, 4, inf], [5, 6, 7, inf]]


@pytest.mark.parametrize("edit, message", [
    (lambda op: op._replace(keys=(("s", 0),) * 3, procs=op.procs[[0, 0, 0]]), "one sum"),
    (lambda op: op._replace(take=np.insert(op.take, 1, op.take[:, 1], axis=1)), "at most once"),
    (lambda op: op._replace(take=op.take[:, ::-1]), "in turn"),
])
def test_a_give_that_repeats_a_destination_or_a_unit_raises_value_error(edit, message):
    plan = _scatter_plan()
    plan.groups[2] = [edit(op) for op in plan.groups[2]]
    with pytest.raises(ValueError, match=message):
        PlanProgram(plan, INT)


def test_a_give_into_a_key_of_another_shape_raises_value_error():
    """Its sum would replace the held tile with one of other words, which
    ``_give`` counts only for a fresh key."""
    plan = Plan(num_procs=1, num_rounds=1)
    plan.set_init(0, ("x",), np.array([1, 2]))
    plan.set_init(0, ("s",), np.array([5]))
    plan.scatter(1, (2,), [0], [("x",)], [0], [0], [("s",)])
    with pytest.raises(ValueError, match=re.escape("hands a (2,) tile to a key that holds "
                                                   "a (1,) one")):
        run(PlanProgram(plan, INT), MpcConfig(1, 8))


def test_a_give_whose_unit_went_elsewhere_raises_missing_tile():
    plan = _scatter_plan()
    (move,) = plan.groups[1]
    plan.groups[1] = [move._replace(to=np.where(move.to == 2, 1, move.to))]
    with pytest.raises(MissingTile) as caught:
        run(PlanProgram(plan, INT), MpcConfig(3, 8))
    assert (caught.value.processor, caught.value.round, caught.value.key) == (2, None, ("s", 2))


def test_a_missing_emit_names_the_lowest_processor_at_finalize():
    """Emits added out of processor order are read in processor order, each
    processor's as added: the first missing key is processor 1's first."""
    plan = Plan(num_procs=4, num_rounds=1)
    plan.set_init(1, ("x",), np.arange(2))
    plan.emit([3, 1], [("y",), ("v",)], [0, 1], [0, 0])
    plan.emit([2, 1, 1], [("z",), ("x",), ("u",)], [2, 3, 4], [0, 0, 0])
    with pytest.raises(MissingTile) as caught:
        run(PlanProgram(plan, INT), MpcConfig(4, 8))
    assert (caught.value.processor, caught.value.round, caught.value.key) == (1, None, ("v",))


def test_finalize_returns_the_emits_in_processor_order():
    plan = Plan(num_procs=3, num_rounds=1)
    for p in range(3):
        plan.set_init(p, ("x",), np.array([p]))
    plan.emit([2, 0], [("x",), ("x",)], [2, 0], [0, 0])
    plan.emit([1], [("x",)], [1], [0])
    procs, rows, cols, blocks = run(PlanProgram(plan, INT), MpcConfig(3, 8)).outputs
    assert (procs, rows, cols) == ([0, 1, 2], [0, 1, 2], [0, 0, 0])
    assert [block.tolist() for block in blocks] == [[0], [1], [2]]


def test_an_emit_needs_one_of_each_column_per_block():
    with pytest.raises(ValueError, match="one processor, key, row and col per block"):
        Plan(num_procs=2, num_rounds=1).emit([0, 1], [("x",)], [0, 0], [0, 1])


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_emits_cover_each_output_cell_at_most_once(name):
    """``assemble_output`` writes each block once and sums nothing: every
    block lies inside the padded output and no two cover one cell."""
    config = SHIPPED_CONFIGS[name]
    spec = get_semiring(config.semiring)
    schedule = build_schedule(config, *generate_instance(config, spec), spec)
    _, rows, cols, blocks = schedule.execute(cap_factor=config.cap_factor)[0].outputs
    cover = np.zeros((schedule.out_rows, schedule.out_cols), dtype=np.int64)
    for r0, c0, block in zip(rows, cols, blocks):
        height, width = block.shape if block.ndim == 2 else (1, block.size)
        assert 0 <= r0 <= r0 + height <= schedule.out_rows, (r0, block.shape)
        assert 0 <= c0 <= c0 + width <= schedule.out_cols, (c0, block.shape)
        cover[r0 : r0 + height, c0 : c0 + width] += 1
    assert blocks and cover.max() == 1


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_builders_place_no_per_processor_op(name):
    config = SHIPPED_CONFIGS[name]
    spec = get_semiring(config.semiring)
    schedule = build_schedule(config, *generate_instance(config, spec), spec)
    assert schedule.program.plan.ops == {}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_plans_hand_no_processor_to_the_handler(monkeypatch, name):
    """Group ops change the stores in place and count their words where
    tiles leave and arrive: at every group step, the trailing one too, the
    state words the step returns are the words of the tiles in the stores.
    ``PlanProgram.handler`` raises if called, so the run also shows that no
    processor is handed to it."""
    steps = []
    group_step = PlanProgram.group_step

    def traced_group_step(program, round_no):
        group = group_step(program, round_no)
        if group is not None:
            measured = [sum(tile.size for tile in store.values()) for store in program.states]
            steps.append((program, round_no, group[3].tolist(), measured))
        return group

    monkeypatch.setattr(PlanProgram, "group_step", traced_group_step)
    summary = run_experiment(SHIPPED_CONFIGS[name], write=False)
    assert summary["ok"] and steps
    for _, round_no, counted, measured in steps:
        assert counted == measured, round_no
    (program,) = {id(program): program for program, *_ in steps}.values()
    assert [round_no for _, round_no, _, _ in steps] == sorted(program.plan.groups)


@pytest.mark.parametrize("fields", [
    dict(case="square", n=16, alpha=1.0),
    dict(case="ndn", n=16, d=4),
    dict(case="dnd-n", n=16, d=4),
    dict(case="dnd-d", n=16, d=4),
    dict(case="sparse-trivial", n=16, d=2),
    dict(case="sparse-twophase", n=32, d=4, instance="blockdiag"),
])
def test_perfbench_probes_read_names_the_plans_still_have(fields):
    """``perfbench/probes.py`` reads ``Plan.ops``, ``Plan.final_ops``,
    ``PlanProgram.handler`` and ``PlanProgram.finalize``; the shipped plans
    hold no per-processor op."""
    probes = perfbench("probes").Probes("layers")
    with probes:
        summary = run_experiment(ExperimentConfig(seed=1, **fields), write=False)
    assert summary["ok"]
    counts = {name: value for name, value in probes.metrics().items()
              if name.startswith("plan.ops.")}
    assert counts and set(counts.values()) == {0}
    assert probes.calls["plan.finalize"] > 0
