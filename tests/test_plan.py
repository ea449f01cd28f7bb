"""Plan interpreter: op dispatch, send payloads and tile sharing."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mpcmm import MpcConfig, get_semiring, run
from mpcmm import plan as plan_module
from mpcmm.experiment import ExperimentConfig, build_schedule, generate_instance
from mpcmm.plan import (Drop, Emit, Fetch, Gather, Mac, MissingTile, MulAcc, Plan,
                        PlanProgram, Rotate, Scatter, Send, assemble_output)
from mpcmm.schedules.common import rotation_fragment

from test_golden import CONFIGS as GOLDEN_CONFIGS

INT = get_semiring("int")


def _program(num_procs=2, num_rounds=1):
    return PlanProgram(Plan(num_procs=num_procs, num_rounds=num_rounds), INT)


def test_every_op_has_a_dispatch_entry():
    ops = {
        obj
        for obj in vars(plan_module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == plan_module.__name__
    } - {Plan, Emit}
    assert len(ops) == 8
    assert set(plan_module._DISPATCH) == ops
    assert set(plan_module._GROUP_DISPATCH) == {Gather, Rotate, Scatter, Fetch}


def test_unknown_op_raises_type_error():
    program = _program()
    program.plan.add(1, 0, Emit(("x",), 0, 0, (1,)))
    with pytest.raises(TypeError, match="unknown op"):
        program.handler(1, 0, {}, [])


def test_send_in_finalize_raises_value_error():
    program = _program()
    program.plan.set_init(0, ("x",), np.arange(4))
    program.plan.add(2, 0, Send(1, (("x",),)))  # round R + 1, run by finalize
    with pytest.raises(ValueError, match="finalize"):
        program.finalize(0, program.init_state(0), [])


def _rotation_plan(grid, num_rounds, first_round):
    """A grid x grid rotation of 1x1 tiles whose slots start in ``first_round``;
    processor i * grid + j holds A[i, j] = i + 2j + 1 and B[i, j] = 3i + j + 1."""
    plan = Plan(num_procs=grid * grid, num_rounds=num_rounds)
    proc = lambda i, j: i * grid + j
    for i in range(grid):
        for j in range(grid):
            plan.set_init(proc(i, j), ("A", i, j), np.array([[i + 2 * j + 1]]))
            plan.set_init(proc(i, j), ("B", i, j), np.array([[3 * i + j + 1]]))

    def parts(i, j, x):
        return ((((proc(i, x), ("A", i, x), None),), 0), (((proc(x, j), ("B", x, j), None),), 0))

    rotation_fragment(plan, grid, proc, parts, lambda i, j: ("C", i, j), first_round, 1)
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
            plan.add(rounds + 1, p, Mac(("D",), ("C", i, j), ("one",)))  # D = C
            plan.add(rounds + 1, p, Mac(("D",), ("D",), ("C", i, j)))  # D += D * C
            plan.emit(p, ("D",), i, j, (1, 1))
    result = run(PlanProgram(plan, INT), MpcConfig(grid * grid, 4))
    assert result.transcript.rounds == rounds
    c = a @ b
    out = assemble_output(result.outputs, grid, grid, INT)
    assert out.tolist() == (c + c * c).tolist()


def test_ops_past_the_trailing_step_raise_value_error():
    plan = Plan(num_procs=1, num_rounds=1)
    plan.add(3, 0, Drop((("x",),)))
    with pytest.raises(ValueError, match="trailing"):
        PlanProgram(plan, INT)
    plan, _ = _rotation_plan(1, 1, 3)  # its only slot in round R + 2
    with pytest.raises(ValueError, match="trailing"):
        PlanProgram(plan, INT)


@pytest.mark.parametrize("kind", ["gather", "rotate", "fold"])
def test_group_ops_that_send_in_the_trailing_step_raise_value_error(kind):
    plan = Plan(num_procs=4, num_rounds=1)
    to = np.array([1, 0, 3, 2])
    if kind == "gather":  # processor 1 holds the pieces processor 0 consumes
        pieces = ((1, ("x",), None),), 0
        op = Gather(0, np.arange(1), 1, ((pieces, pieces),))
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


@pytest.mark.parametrize("pieces, message", [(0, "0 equal pieces"), (3, "3 equal pieces"),
                                             (2, "has shape")])
def test_gather_tiles_must_be_equal_pieces(pieces, message):
    plan = Plan(num_procs=1, num_rounds=1)
    plan.set_init(0, ("x",), np.ones((2, 2), dtype=np.int64))
    tile = tuple((0, ("x",), None) for _ in range(pieces)), 0
    plan.add_group(1, Gather(0, np.arange(1), 4, ((tile, tile),)))
    with pytest.raises(ValueError, match=message):
        run(PlanProgram(plan, INT), MpcConfig(1, 64))


def test_send_past_the_last_round_raises_value_error():
    plan = Plan(num_procs=2, num_rounds=1)
    plan.set_init(0, ("x",), np.arange(4))
    plan.add(2, 0, Send(1, (("x",),)))
    with pytest.raises(ValueError, match="finalize"):
        run(PlanProgram(plan, INT), MpcConfig(2, 8))


def test_single_key_send_matches_bundled_send():
    program = _program()
    x = np.arange(6, dtype=np.int64).reshape(2, 3)
    y = np.arange(10, 14, dtype=np.int64).reshape(2, 2)
    # a column view: its single-key payload must be a contiguous copy
    z = np.arange(12, dtype=np.int64).reshape(4, 3)[:, 1:2]
    tiles = {("x",): x, ("y",): y, ("z",): z}
    for key, tile in tiles.items():
        program.plan.set_init(0, key, tile)
    program.plan.add(1, 0, *(Send(1, (key,)) for key in tiles), Send(1, tuple(tiles)))
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
    plan.add(1, 0, Send(1, (("x",),)), MulAcc(("x",), ("y",), ("y",)), Mac(("x",), ("y",), ("y",)))
    plan.add(2, 0, Drop((("y",),)))  # round R + 1
    plan.emit(0, ("x",), 0, 0, (2, 2))
    plan.emit(1, ("x",), 0, 2, (2, 2))
    result = run(PlanProgram(plan, INT), MpcConfig(2, 8))
    (_, _, sender), = result.outputs[0]
    (_, _, receiver), = result.outputs[1]
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
    for p, key in zip((1, 0, 2), cells):
        plan.emit(p, key, 0, key[1], (1,))
    return plan


def test_scatter_sums_its_units_at_their_receivers_and_charges_their_words():
    result = run(PlanProgram(_scatter_plan(), INT), MpcConfig(3, 8))
    out = assemble_output(result.outputs, 1, 3, INT)
    assert out.tolist() == [[100 + 1 + 10 + 20, 2 + 30, 3 + 40]]
    rows = [(r.words_sent, r.words_received, r.peak_memory) for r in result.transcript.rows]
    # peak: x; y and s0; at processor 2 the two words it ends the run with
    assert rows == [(2, 1, 4), (2, 1, 5), (0, 2, 2)]


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


def test_a_give_whose_unit_went_elsewhere_raises_missing_tile():
    plan = _scatter_plan()
    (move,) = plan.groups[1]
    plan.groups[1] = [move._replace(to=np.where(move.to == 2, 1, move.to))]
    with pytest.raises(MissingTile) as caught:
        run(PlanProgram(plan, INT), MpcConfig(3, 8))
    assert (caught.value.processor, caught.value.round, caught.value.key) == (2, None, ("s", 2))


def _workload_configs():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {f"{name}-{i}": config for name in workloads.NAMES
            for i, config in enumerate(workloads.configs(name, workloads.DEFAULT_SEED))}


SHIPPED_CONFIGS = {**{name: ExperimentConfig(seed=1, **fields)
                      for name, fields in GOLDEN_CONFIGS.items()}, **_workload_configs()}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_builders_place_no_per_processor_op(name):
    config = SHIPPED_CONFIGS[name]
    spec = get_semiring(config.semiring)
    schedule = build_schedule(config, *generate_instance(config, spec), spec)
    assert schedule.program.plan.ops == {}
