"""The rotation as group ops against the per-processor reference.

Every schedule that rotates tiles (square, both (d,n,d) cases and the
sparse layers) is built twice: once as it ships, with one ``Gather``
group op for the distribution round and one ``Rotate`` per slot, and
once with ``rotation_reference.rotation_fragment`` patched into the
builder modules.  Both must give the same transcript bytes, the same
outputs and the same violation records.
"""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpcmm.experiment as experiment
from mpcmm.experiment import ExperimentConfig, build_schedule, generate_instance, run_experiment
from mpcmm.matrix import SparseMatrix, naive_multiply
from mpcmm.plan import Gather, Rotate
from mpcmm.semiring import get_semiring
from mpcmm.schedules import rect, sparse, square
from mpcmm.schedules.sparse import EpsilonSchedule, default_mask

import rotation_reference
from plan_reference import run_references
from test_golden import CONFIGS as GOLDEN_CONFIGS, SHIPPED_CONFIGS

SEMIRINGS = st.sampled_from(["int", "bool", "tropical"])


@contextlib.contextmanager
def per_processor_rotation():
    with pytest.MonkeyPatch.context() as mp:
        for module in (square, rect, sparse):
            mp.setattr(module, "rotation_fragment", rotation_reference.rotation_fragment)
        mp.setattr(sparse, "hand_back", rotation_reference.hand_back)
        run_references(mp)
        yield


def _build(config):
    spec = get_semiring(config.semiring)
    a, b, mask = generate_instance(config, spec)
    return build_schedule(config, a, b, mask, spec), a, b, mask, spec


def _execute(schedule):
    result, out = schedule.execute()
    outputs = [(p, r, c, block.tobytes()) for p, r, c, block in zip(*result.outputs)]
    return result.transcript.to_csv(), outputs, out


def _rotations(schedule):
    return [op for ops in schedule.program.plan.groups.values() for op in ops
            if isinstance(op, (Gather, Rotate))]


def _assert_built_both_ways_agree(build):
    """``build()`` returns (schedule, a, b, mask, spec); returns the transcript."""
    grouped, a, b, mask, spec = build()
    assert _rotations(grouped), "the schedule should rotate tiles"
    with per_processor_rotation():
        reference = build()[0]
    assert not _rotations(reference)
    csv, outputs, out = _execute(grouped)
    ref_csv, ref_outputs, ref_out = _execute(reference)
    assert csv == ref_csv
    assert outputs == ref_outputs
    assert out == ref_out
    oracle = naive_multiply(a, b, spec)
    if mask is None:
        assert out == oracle
    else:
        assert experiment.masked_equal(out, oracle, mask)
    return csv


def _assert_both_ways_agree(config):
    _assert_built_both_ways_agree(lambda: _build(config))


ROTATING_GOLDEN = sorted(
    name for name, fields in GOLDEN_CONFIGS.items()
    if fields["case"] in ("square", "dnd-n", "dnd-d")
    or name in ("sparse-twophase-blockdiag", "sparse-twophase-grid3")
)


@pytest.mark.parametrize("name", ROTATING_GOLDEN)
def test_golden_configs_group_matches_reference(name):
    _assert_both_ways_agree(ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name]))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 14),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    redistribute=st.booleans(),
    semiring=SEMIRINGS,
    seed=st.integers(1, 100),
)
def test_square_group_matches_reference(n, alpha, redistribute, semiring, seed):
    config = ExperimentConfig(case="square", n=n, alpha=alpha, redistribute=redistribute,
                              semiring=semiring, seed=seed)
    _assert_both_ways_agree(config)


@settings(max_examples=20, deadline=None)
@given(g=st.integers(1, 3), t=st.integers(1, 4), semiring=SEMIRINGS, seed=st.integers(1, 100))
def test_dnd_n_group_matches_reference(g, t, semiring, seed):
    d = g * g
    _assert_both_ways_agree(
        ExperimentConfig(case="dnd-n", n=d * t, d=d, semiring=semiring, seed=seed)
    )


@settings(max_examples=20, deadline=None)
@given(s=st.integers(2, 6), data=st.data(), semiring=SEMIRINGS, seed=st.integers(1, 100))
def test_dnd_d_group_matches_reference(s, data, semiring, seed):
    n = s * s
    d = data.draw(st.integers(1, n), label="d")
    _assert_both_ways_agree(
        ExperimentConfig(case="dnd-d", n=n, d=d, semiring=semiring, seed=seed)
    )


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([4, 9]), k=st.integers(1, 4), semiring=SEMIRINGS,
       seed=st.integers(1, 100))
def test_sparse_layers_group_matches_reference(d, k, semiring, seed):
    config = ExperimentConfig(case="sparse-twophase", n=d * k, d=d, instance="blockdiag",
                              semiring=semiring, seed=seed)
    assert _build(config)[0].meta["fallback"] is False  # the layers are kept
    _assert_both_ways_agree(config)


# Layers whose block has fewer than d rows, inner indices or columns: the
# missing ones are padding, packed as zero tiles at their consumers.  Every
# word is 1, so each semiring accepts the inputs.  Transcript SHA-256 per
# (rows, inner, cols) block shape; the words do not depend on the semiring.
PADDED_BLOCKS = {
    (3, 4, 4): "bb065dfcbcc1a11509902b637dc8d66326ce241b7fded68dba58a4bc3aef8204",
    (4, 3, 4): "19001fcd38ec147eaf66c81b8c10698cd5b1db33043640f8fdf8835fa4b9dd6f",
    (4, 4, 3): "c11dd4c8c4ded65ec1dfb2244b5109b6f92c91198e97c44a134cf302c604c1cf",
}


@pytest.mark.parametrize("semiring", ["int", "bool", "tropical"])
@pytest.mark.parametrize("shape", sorted(PADDED_BLOCKS))
def test_padded_layer_blocks_match_reference(shape, semiring):
    n, d = 16, 4
    rows, inner, cols = shape
    spec = get_semiring(semiring)
    a = SparseMatrix.from_entries(n, n, [(r, k, 1) for r in range(rows) for k in range(inner)])
    b = SparseMatrix.from_entries(n, n, [(k, j, 1) for k in range(inner) for j in range(cols)])
    mask = default_mask(a, b, d)

    def build():
        schedule = sparse.schedule_sparse_twophase(n, d, a, b, mask, EpsilonSchedule(), spec)
        assert schedule.meta["fallback"] is False  # the padded layer is kept
        return schedule, a, b, mask, spec

    csv = _assert_built_both_ways_agree(build)
    assert max(int(line.split(",")[0]) for line in csv.splitlines()[1:]) == 3
    assert hashlib.sha256(csv.encode()).hexdigest() == PADDED_BLOCKS[shape]


@pytest.mark.parametrize(
    "fields",
    [dict(case="square", n=16, alpha=2.0), dict(case="dnd-n", n=64, d=4, semiring="tropical"),
     dict(case="sparse-twophase", n=36, d=9, instance="blockdiag")],
)
def test_executing_a_schedule_twice_gives_the_same_bytes(fields):
    schedule = _build(ExperimentConfig(**fields))[0]
    first, second = _execute(schedule), _execute(schedule)
    assert first[0] == second[0] and first[1] == second[1] and first[2] == second[2]


VIOLATION_CONFIGS = [
    dict(case="square", n=16),
    dict(case="dnd-n", n=36, d=9),
    dict(case="sparse-twophase", n=32, d=4, instance="blockdiag"),
]


@pytest.mark.parametrize("cap_factor", [1, 2])
@pytest.mark.parametrize("fields", VIOLATION_CONFIGS)
def test_violation_records_match_reference(fields, cap_factor):
    config = ExperimentConfig(cap_factor=cap_factor, **fields)
    summary = run_experiment(config, write=False)
    with per_processor_rotation():
        reference = run_experiment(config, write=False)
    assert summary == reference
    if cap_factor == 1:
        assert summary["violation"] is not None


def test_rotation_moves_data_through_its_send_arrays(monkeypatch):
    build = experiment.build_schedule

    def misrouted(config, a, b, mask, spec):
        schedule = build(config, a, b, mask, spec)
        ops = schedule.program.plan.groups[2]  # the first slot, which sends
        i, op = next((i, op) for i, op in enumerate(ops) if isinstance(op, Rotate))
        a_to = op.a_to.copy()
        a_to[[0, 1]] = a_to[[1, 0]]  # rows 0 and 1 swap their A destinations
        ops[i] = op._replace(a_to=a_to)
        schedule.program = type(schedule.program)(schedule.program.plan, spec)
        return schedule

    monkeypatch.setattr(experiment, "build_schedule", misrouted)
    summary = run_experiment(ExperimentConfig(case="square", n=16), write=False)
    assert summary["oracle_match"] is False


def test_rotation_emits_one_group_op_per_slot():
    schedule = _build(ExperimentConfig(case="square", n=16))[0]
    plan = schedule.program.plan
    ops = [op for _, round_ops in sorted(plan.groups.items()) for op in round_ops]
    assert [type(op) for op in ops] == [Gather] + [Rotate] * 4
    assert not plan.ops


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_all_grids_of_a_rotation_turn_in_one_rotate_per_round(name):
    """The (d, n, d) groups' members and a sparse layer's blocks turn in the
    same rounds, as one rotation: no round holds two ``Rotate`` ops."""
    plan = _build(SHIPPED_CONFIGS[name])[0].program.plan
    for round_no, ops in plan.groups.items():
        assert sum(isinstance(op, Rotate) for op in ops) <= 1, f"round {round_no}"


# The dense cases move every input piece through group ops: the gathers
# move the inputs out of their holders' stores, and no per-processor op
# is left to drop them.
DENSE_GOLDEN = sorted(
    name for name, fields in GOLDEN_CONFIGS.items()
    if fields["case"] in ("ndn", "dnd-n", "dnd-d")
    or (fields["case"] == "square" and not fields.get("redistribute"))
)


@pytest.mark.parametrize("name", DENSE_GOLDEN)
def test_dense_inputs_move_only_through_gathers(name):
    plan = _build(ExperimentConfig(seed=1, **GOLDEN_CONFIGS[name]))[0].program.plan
    assert any(isinstance(op, Gather) for ops in plan.groups.values() for op in ops)
    assert not plan.ops
