"""Plan interpreter: op dispatch, send payloads and tile sharing."""

import dataclasses

import numpy as np
import pytest

from mpcmm import MpcConfig, get_semiring, run
from mpcmm import plan as plan_module
from mpcmm.plan import (Drop, Emit, Fetch, Fold, Gather, Mac, MissingTile, MulAcc, Plan,
                        PlanProgram, Rotate, Send, assemble_output)
from mpcmm.schedules.common import rotation_fragment

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
    assert set(plan_module._GROUP_DISPATCH) == {Gather, Rotate, Fold, Fetch}


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
    if kind == "gather":  # processor 1 holds the pieces processor 0 consumes
        pieces = ((1, ("x",), None),), 0
        op = Gather(0, np.arange(1), 1, ((pieces, pieces),))
    elif kind == "rotate":
        to = np.array([1, 0, 3, 2])
        op = Rotate(0, np.arange(4), 1, to, to, None)
    else:  # a scatter: step 0 of a four-member fold
        keys = tuple(("M", l) for l in range(4)), tuple(("s", e) for e in range(4))
        op = Fold(0, np.arange(4).reshape(1, 4), 2, 4, 0, (keys[0],), (keys[1],))
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
