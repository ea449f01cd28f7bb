"""Round engine semantics: budgets, the one round hook, determinism, export;
and the message delivery of the per-processor adapter the references run on."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpcmm
from mpcmm import (
    BandwidthExceeded,
    MemoryExceeded,
    MpcConfig,
    NonTermination,
    Program,
    Transcript,
    assert_transcript,
    get_semiring,
    naive_multiply,
    run,
)
from mpcmm.engine import RoundRow
from mpcmm.instances import random_dense

from handler_program import HandlerProgram

INT = get_semiring("int")


class LocalMultiply(HandlerProgram):
    """Single processor multiplies two resident 4x4 matrices in one round."""

    num_procs = 1
    total_rounds = 1
    min_memory = 1

    def __init__(self, a, b):
        self.a, self.b = a, b

    def init_state(self, p):
        return {"a": self.a.data.copy(), "b": self.b.data.copy()}

    def handler(self, round_no, p, state, inbox):
        c = INT.matmul(state["a"], state["b"])
        return {"c": c}, []

    def finalize(self, states):
        return [0], [0], [0], [states[0]["c"]]


class Blast(HandlerProgram):
    """Processor 0 addresses `words` words at processor 1 in round 1."""

    num_procs = 2
    total_rounds = 1

    def __init__(self, words):
        self.words = words

    def handler(self, round_no, p, state, inbox):
        if p == 0:
            return state, [(1, ("blob",), np.zeros(self.words, dtype=np.int64))]
        return state, []


def test_local_multiply_single_round_no_messages():
    rng = np.random.default_rng(0)
    a, b = random_dense(4, 4, INT, rng), random_dense(4, 4, INT, rng)
    result = run(LocalMultiply(a, b), MpcConfig(1, 48))
    t = result.transcript
    assert t.rounds == 1
    assert not t.figures[:2].any()
    (got,) = result.outputs[3]
    assert np.array_equal(got, naive_multiply(a, b, INT).data)


def test_oversized_send_raises_bandwidth_exceeded():
    config = MpcConfig(2, 8, cap_factor=4)
    with pytest.raises(BandwidthExceeded) as info:
        run(Blast(2 * config.budget), config)
    assert info.value.processor == 0
    assert info.value.round == 1
    assert info.value.direction == "sent"


def test_overloaded_receiver_raises_on_receive_side():
    class ManyToOne(HandlerProgram):
        num_procs = 5
        total_rounds = 1

        def handler(self, round_no, p, state, inbox):
            if p > 0:
                return state, [(0, ("x", p), np.zeros(8, dtype=np.int64))]
            return state, []

    # each sender ships 8 <= budget, but processor 0 collects 32 > budget
    with pytest.raises(BandwidthExceeded) as info:
        run(ManyToOne(), MpcConfig(5, 4, cap_factor=4))
    assert info.value.processor == 0
    assert info.value.direction == "received"


def test_memory_violation_detected():
    class Hoarder(HandlerProgram):
        num_procs = 1
        total_rounds = 1

        def handler(self, round_no, p, state, inbox):
            return {"blob": np.zeros(100, dtype=np.int64)}, []

    with pytest.raises(MemoryExceeded) as info:
        run(Hoarder(), MpcConfig(1, 16, cap_factor=4))
    assert info.value.round == 1


def test_initial_state_too_large():
    class FatStart(Program):
        num_procs = 1
        total_rounds = 1

        def init_state(self, p):
            return {"blob": np.zeros(100, dtype=np.int64)}

    # charged as round 1's in-phase footprint
    with pytest.raises(MemoryExceeded) as info:
        run(FatStart(), MpcConfig(1, 16))
    assert info.value.round == 1


def test_non_termination_guard():
    class Forever(Program):
        num_procs = 1
        total_rounds = 50

    with pytest.raises(NonTermination):
        run(Forever(), MpcConfig(1, 4, max_rounds=10))


def test_processor_count_must_match():
    with pytest.raises(ValueError):
        run(Blast(1), MpcConfig(3, 8))


def test_inbox_is_previous_round_outbox_in_src_order():
    log = {}

    class PingAll(HandlerProgram):
        num_procs = 3
        total_rounds = 2

        def handler(self, round_no, p, state, inbox):
            if round_no == 1 and p > 0:
                return state, [(0, ("from", p), np.array([p], dtype=np.int64))]
            if round_no == 2 and p == 0:
                log["tags"] = [m.tag for m in inbox]
            return state, []

    run(PingAll(), MpcConfig(3, 8))
    assert log["tags"] == [("from", 1), ("from", 2)]


def test_conservation_and_determinism():
    from mpcmm import ProblemShape, schedule_square

    rng = np.random.default_rng(1)
    a, b = random_dense(16, 16, INT, rng), random_dense(16, 16, INT, rng)
    sched = schedule_square(ProblemShape(16, 1.0), a, b, INT)
    t1 = sched.execute()[0].transcript
    t2 = sched.execute()[0].transcript
    assert t1.to_csv() == t2.to_csv()
    sent, received, _ = t1.figures
    assert np.array_equal(sent.sum(axis=1), received.sum(axis=1))
    assert t1.to_csv() == reference_csv(t1)


def reference_csv(t):
    """The transcript CSV as a `csv.writer` loop over the figures writes it."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["round", "processor", "words_sent", "words_received", "peak_memory"])
    for r in range(t.rounds):
        for p in range(t.processors):
            w.writerow([r + 1, p, *t.figures[:, r, p].tolist()])
    return out.getvalue()


def test_assert_transcript_and_csv_round_trip():
    config = MpcConfig(2, 8, cap_factor=4)
    good = Transcript(np.array([[[8, 8]], [[8, 8]], [[16, 16]]]))
    assert assert_transcript(good, config)
    for k in range(3):  # one figure over the budget, sent, received or peak, fails the run
        figures = good.figures.copy()
        figures[k, 0, 1] = config.budget + 1
        bad = Transcript(figures)
        assert not assert_transcript(bad, config)
        for t in (good, bad):
            replayed = Transcript.from_csv(t.to_csv())
            assert assert_transcript(replayed, config) == assert_transcript(t, config)
            assert np.array_equal(replayed.figures, t.figures)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 7), st.data())
def test_csv_round_trip_and_reference_bytes_over_random_figures(rounds, procs, data):
    size = 3 * rounds * procs
    words = data.draw(st.lists(st.integers(0, 2**62), min_size=size, max_size=size))
    t = Transcript(np.array(words, dtype=np.int64).reshape(3, rounds, procs))
    text = t.to_csv()
    assert text == reference_csv(t)
    replayed = Transcript.from_csv(text)
    # a transcript of no rounds has no lines to name its processors
    assert replayed.figures.shape == (3, rounds, procs if rounds else 0)
    assert np.array_equal(replayed.figures.reshape(3, -1), t.figures.reshape(3, -1))


def test_rows_list_the_figures_line_by_line():
    t = run(Grouped(), MpcConfig(2, 8)).transcript
    assert t.rows == [RoundRow(r + 1, p, *t.figures[:, r, p].tolist())
                      for r in range(t.rounds) for p in range(t.processors)]
    assert t.rows[1] == RoundRow(round=1, processor=1, words_sent=0, words_received=5,
                                 peak_memory=0)
    with pytest.raises(AttributeError):
        t.rows = []


_CSV = Transcript(np.arange(12).reshape(3, 2, 2)).to_csv().splitlines()
HEADER, LINES = _CSV[0], _CSV[1:]  # lines (1, 0), (1, 1), (2, 0), (2, 1)


@pytest.mark.parametrize("lines", [
    LINES[:1] + LINES[2:],  # (1, 1) missing
    LINES[:3],  # (2, 1) missing
    LINES[:2] + LINES[1:],  # (1, 1) repeated
    LINES[:3] + LINES[2:3],  # (2, 0) repeated in place of (2, 1)
    [LINES[1], LINES[0]] + LINES[2:],  # out of order
    ["2,0,0,0,0", "2,1,0,0,0"],  # round 1 missing
], ids=["missing", "missing-last", "repeated", "repeated-in-place", "out-of-order",
        "round-1-missing"])
def test_from_csv_rejects_a_missing_repeated_or_misplaced_line(lines):
    with pytest.raises(ValueError, match="once, in order"):
        Transcript.from_csv("\n".join([HEADER, *lines]) + "\n")


@pytest.mark.parametrize("line", ["1,1,1,5", "1,1,1,5,9,0", ",", "1;1;1;5;9"])
def test_from_csv_rejects_a_line_without_five_fields(line):
    with pytest.raises(ValueError, match="5 fields"):
        Transcript.from_csv("\n".join([HEADER, LINES[0], line, *LINES[2:]]) + "\n")


def test_from_csv_skips_blank_lines():
    text = "\n".join([HEADER, LINES[0], "", *LINES[1:]]) + "\n\n"
    assert np.array_equal(Transcript.from_csv(text).figures, np.arange(12).reshape(3, 2, 2))


@pytest.mark.parametrize("field", ["x", "1.5", "", "0x10", str(2**63)])
def test_from_csv_rejects_a_field_that_is_not_an_integer_word(field):
    with pytest.raises(ValueError, match="int64 word"):
        Transcript.from_csv("\n".join([HEADER, LINES[0], f"1,1,{field},5,9", *LINES[2:]]) + "\n")


def test_min_memory_checked():
    rng = np.random.default_rng(2)
    a, b = random_dense(4, 4, INT, rng), random_dense(4, 4, INT, rng)
    prog = LocalMultiply(a, b)
    prog.min_memory = 48
    with pytest.raises(ValueError):
        run(prog, MpcConfig(1, 16))


def test_non_int64_payload_rejected():
    class FloatSender(HandlerProgram):
        num_procs = 2
        total_rounds = 1

        def handler(self, round_no, p, state, inbox):
            if p == 0:
                return state, [(1, ("f",), np.array([0.5, 1.5]))]
            return state, []

    with pytest.raises(TypeError, match="float64"):
        run(FloatSender(), MpcConfig(2, 8))


@pytest.mark.parametrize("dst", [-1, 2])
def test_send_to_an_invalid_destination_rejected(dst):
    class Stray(HandlerProgram):
        num_procs = 2
        total_rounds = 1

        def handler(self, round_no, p, state, inbox):
            return state, [(dst, ("x",), np.zeros(1, dtype=np.int64))] if p == 1 else []

    with pytest.raises(ValueError, match=f"processor 1 sent to invalid destination {dst}"):
        run(Stray(), MpcConfig(2, 8))


def test_inbox_words_charged_to_receiver_memory():
    class Deliver(HandlerProgram):
        num_procs = 2
        total_rounds = 2

        def handler(self, round_no, p, state, inbox):
            if round_no == 1 and p == 0:
                return state, [(1, ("x",), np.zeros(5, dtype=np.int64))]
            return state, []

    t = run(Deliver(), MpcConfig(2, 8)).transcript
    sent, received, peak = t.figures.tolist()  # [round][processor]
    assert (sent, received, peak) == ([[5, 0], [0, 0]], [[0, 5], [0, 0]], [[5, 0], [0, 5]])


class Grouped(Program):
    """Group work: processor 0 holds 3 words and sends 5 to processor 1."""

    num_procs = 2
    total_rounds = 2

    def group_step(self, round_no, states):
        if round_no == 1:
            return np.array([3, 0]), np.array([5, 0]), np.array([0, 5]), []
        return None


def test_group_words_join_the_budget_figures():
    t = run(Grouped(), MpcConfig(2, 8)).transcript
    # held words carry over the barrier; received words count as inbox
    sent, received, peak = t.figures.tolist()
    assert (sent, received, peak) == ([[5, 0], [0, 0]], [[0, 5], [0, 0]], [[8, 0], [3, 5]])


@pytest.mark.parametrize("named", [[1], []])
def test_the_engine_measures_the_stores_a_group_step_names(named):
    class Giving(Grouped):
        """Round 1's group work also gives processor 1 a 2-word tile, in place."""

        def group_step(self, round_no, states):
            group = super().group_step(round_no, states)
            if round_no == 1:
                states[1]["g"] = np.zeros(2, dtype=np.int64)
                return (*group[:3], named)
            return group

    t = run(Giving(), MpcConfig(2, 8)).transcript
    # a processor the step leaves out keeps its cached state words
    words = 2 if named else 0
    sent, received, peak = t.figures.tolist()
    assert (sent, received, peak) == ([[5, 0], [0, 0]], [[0, 5], [0, 0]],
                                      [[8, words], [3, 5 + words]])


def test_group_words_break_budgets_like_messages():
    with pytest.raises(BandwidthExceeded) as info:
        run(Grouped(), MpcConfig(2, 1, cap_factor=4))
    assert (info.value.processor, info.value.round, info.value.direction,
            info.value.words) == (0, 1, "sent", 5)


def test_trailing_group_step_runs_once_before_finalize_and_stays_local():
    calls = []

    class Trailing(Grouped):
        words = 0  # words the trailing group step sends

        def group_step(self, round_no, states):
            calls.append(("group", round_no))
            if round_no == 3:
                none = np.zeros(2, dtype=np.int64)
                return none, np.array([self.words, 0]), none, []
            return super().group_step(round_no, states)

        def finalize(self, states):
            calls.append(("finalize", len(states)))
            return super().finalize(states)

    result = run(Trailing(), MpcConfig(2, 8))
    assert calls == [("group", 1), ("group", 2), ("group", 3), ("finalize", 2)]
    assert result.outputs == ([], [], [], []) and result.transcript.output_words == 0
    sender = Trailing()
    sender.words = 1
    with pytest.raises(ValueError, match="after the last barrier"):
        run(sender, MpcConfig(2, 8))


def test_group_step_is_the_engines_only_round_hook():
    """Per-processor handlers and their messages live in ``tests/`` only."""
    assert not {"active", "handler"} & set(dir(Program))
    assert not hasattr(mpcmm, "Message") and not hasattr(mpcmm.engine, "Message")
