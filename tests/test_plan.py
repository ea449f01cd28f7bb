"""Plan interpreter: op dispatch, send payloads and tile sharing."""

import dataclasses

import numpy as np
import pytest

from mpcmm import MpcConfig, get_semiring, run
from mpcmm import plan as plan_module
from mpcmm.plan import Drop, Emit, Mac, MulAcc, Plan, PlanProgram, Send

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
    assert set(plan_module._GROUP_DISPATCH) == {plan_module.Rotate, plan_module.Fold}


def test_unknown_op_raises_type_error():
    program = _program()
    program.plan.add(1, 0, Emit(("x",), 0, 0, (1,)))
    with pytest.raises(TypeError, match="unknown op"):
        program.handler(1, 0, {}, [])


def test_send_in_finalize_raises_value_error():
    program = _program()
    program.plan.set_init(0, ("x",), np.arange(4))
    program.plan.at_final(0, Send(1, (("x",),)))
    with pytest.raises(ValueError, match="finalize"):
        program.finalize(0, program.init_state(0), [])


def test_ops_past_the_last_round_run_at_finalize_after_at_final_ops():
    plan = Plan(num_procs=1, num_rounds=1)
    plan.set_init(0, ("x",), np.array([[2]]))
    plan.set_init(0, ("y",), np.array([[3]]))
    plan.set_init(0, ("one",), np.array([[1]]))
    plan.add(3, 0, Mac(("x",), ("x",), ("y",)))  # x += x * y
    plan.add(2, 0, Mac(("x",), ("y",), ("one",)))  # x += y
    plan.at_final(0, Mac(("x",), ("y",), ("one",)))
    plan.emit(0, ("x",), 0, 0, (1, 1))
    result = run(PlanProgram(plan, INT), MpcConfig(1, 4))
    assert result.transcript.rounds == 1
    # at_final, then round 2, then round 3: ((2 + 3) + 3) * (1 + 3) = 32
    assert result.outputs[0][0][2].tolist() == [[32]]


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
    plan.at_final(0, Drop((("y",),)))
    plan.emit(0, ("x",), 0, 0, (2, 2))
    plan.emit(1, ("x",), 0, 2, (2, 2))
    result = run(PlanProgram(plan, INT), MpcConfig(2, 8))
    (_, _, sender), = result.outputs[0]
    (_, _, receiver), = result.outputs[1]
    assert np.array_equal(receiver, [[1, 2], [3, 4]])
    assert np.array_equal(sender, [[4, 5], [6, 7]])
    assert np.array_equal(x, [[1, 2], [3, 4]])
