"""Round engine semantics: budgets, delivery order, determinism, export."""

import numpy as np
import pytest

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

INT = get_semiring("int")


class LocalMultiply(Program):
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

    def finalize(self, p, state, inbox):
        return [(0, 0, state["c"])]


class Blast(Program):
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
    assert t.max_sent() == 0 and t.max_received() == 0
    got = result.outputs[0][0][2]
    assert np.array_equal(got, naive_multiply(a, b, INT).data)


def test_oversized_send_raises_bandwidth_exceeded():
    config = MpcConfig(2, 8, cap_factor=4)
    with pytest.raises(BandwidthExceeded) as info:
        run(Blast(2 * config.budget), config)
    assert info.value.processor == 0
    assert info.value.round == 1
    assert info.value.direction == "sent"


def test_overloaded_receiver_raises_on_receive_side():
    class ManyToOne(Program):
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
    class Hoarder(Program):
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

        def handler(self, round_no, p, state, inbox):
            return state, []

    with pytest.raises(NonTermination):
        run(Forever(), MpcConfig(1, 4, max_rounds=10))


def test_processor_count_must_match():
    with pytest.raises(ValueError):
        run(Blast(1), MpcConfig(3, 8))


def test_inbox_is_previous_round_outbox_in_src_order():
    log = {}

    class PingAll(Program):
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
    for rnd in range(1, t1.rounds + 1):
        rows = [r for r in t1.rows if r.round == rnd]
        assert sum(r.words_sent for r in rows) == sum(r.words_received for r in rows)


def test_assert_transcript_and_csv_round_trip():
    config = MpcConfig(2, 8, cap_factor=4)
    good = Transcript(processors=2, rounds=1, rows=[RoundRow(1, 0, 8, 8, 16), RoundRow(1, 1, 8, 8, 16)])
    assert assert_transcript(good, config)
    bad = Transcript(processors=2, rounds=1, rows=[RoundRow(1, 0, 8, 99, 16)])
    assert not assert_transcript(bad, config)
    for t in (good, bad):
        replayed = Transcript.from_csv(t.to_csv())
        assert assert_transcript(replayed, config) == assert_transcript(t, config)
        assert replayed.rows == t.rows


def test_min_memory_checked():
    rng = np.random.default_rng(2)
    a, b = random_dense(4, 4, INT, rng), random_dense(4, 4, INT, rng)
    prog = LocalMultiply(a, b)
    prog.min_memory = 48
    with pytest.raises(ValueError):
        run(prog, MpcConfig(1, 16))


def test_non_int64_payload_rejected():
    class FloatSender(Program):
        num_procs = 2
        total_rounds = 1

        def handler(self, round_no, p, state, inbox):
            if p == 0:
                return state, [(1, ("f",), np.array([0.5, 1.5]))]
            return state, []

    with pytest.raises(TypeError, match="float64"):
        run(FloatSender(), MpcConfig(2, 8))


def test_inbox_words_charged_to_receiver_memory():
    class Deliver(Program):
        num_procs = 2
        total_rounds = 2

        def handler(self, round_no, p, state, inbox):
            if round_no == 1 and p == 0:
                return state, [(1, ("x",), np.zeros(5, dtype=np.int64))]
            return state, []

    t = run(Deliver(), MpcConfig(2, 8)).transcript
    assert [(r.round, r.processor, r.words_sent, r.words_received, r.peak_memory)
            for r in t.rows] == [(1, 0, 5, 0, 5), (1, 1, 0, 5, 0), (2, 0, 0, 0, 0),
                                 (2, 1, 0, 0, 5)]


def test_idle_processors_are_not_handed_to_handler():
    calls = []

    class OneSender(Program):
        num_procs = 3
        total_rounds = 2

        def init_state(self, p):
            return {"x": np.zeros(p + 1, dtype=np.int64)}

        def active(self, round_no):
            return [0] if round_no == 1 else []

        def handler(self, round_no, p, state, inbox):
            calls.append((round_no, p))
            if round_no == 1:
                return state, [(2, ("m",), np.zeros(4, dtype=np.int64))]
            return state, []

    t = run(OneSender(), MpcConfig(3, 8)).transcript
    # processor 2 is handed its inbox in round 2; processor 1 never runs
    assert calls == [(1, 0), (2, 2)]
    assert [(r.round, r.processor, r.words_sent, r.words_received, r.peak_memory)
            for r in t.rows] == [(1, 0, 4, 0, 5), (1, 1, 0, 0, 2), (1, 2, 0, 4, 3),
                                 (2, 0, 0, 0, 1), (2, 1, 0, 0, 2), (2, 2, 0, 0, 7)]


class Grouped(Program):
    """Group work: processor 0 holds 3 words and sends 5 to processor 1."""

    num_procs = 2
    total_rounds = 2

    def active(self, round_no):
        return []

    def group_step(self, round_no, states, inboxes):
        if round_no == 1:
            return np.array([3, 0]), np.array([5, 0]), np.array([0, 5]), []
        return None


def test_group_words_join_the_budget_figures():
    t = run(Grouped(), MpcConfig(2, 8)).transcript
    # held words carry over the barrier; received words count as inbox
    assert [(r.round, r.processor, r.words_sent, r.words_received, r.peak_memory)
            for r in t.rows] == [(1, 0, 5, 0, 8), (1, 1, 0, 5, 0), (2, 0, 0, 0, 3),
                                 (2, 1, 0, 0, 5)]


@pytest.mark.parametrize("named", [[1], []])
def test_the_engine_measures_the_stores_a_group_step_names(named):
    calls = []

    class Giving(Grouped):
        """Round 1's group work also gives processor 1 a 2-word tile, in place."""

        def group_step(self, round_no, states, inboxes):
            group = super().group_step(round_no, states, inboxes)
            if round_no == 1:
                states[1]["g"] = np.zeros(2, dtype=np.int64)
                return (*group[:3], named)
            return group

        def handler(self, round_no, p, state, inbox):
            calls.append((round_no, p))
            return state, []

    t = run(Giving(), MpcConfig(2, 8)).transcript
    # a processor the step leaves out keeps its cached state words
    words = 2 if named else 0
    assert [(r.round, r.processor, r.words_sent, r.words_received, r.peak_memory)
            for r in t.rows] == [(1, 0, 5, 0, 8), (1, 1, 0, 5, words), (2, 0, 0, 0, 3),
                                 (2, 1, 0, 0, 5 + words)]
    assert calls == []


def test_group_words_break_budgets_like_messages():
    with pytest.raises(BandwidthExceeded) as info:
        run(Grouped(), MpcConfig(2, 1, cap_factor=4))
    assert (info.value.processor, info.value.round, info.value.direction,
            info.value.words) == (0, 1, "sent", 5)


def test_trailing_group_step_runs_once_before_finalize_and_stays_local():
    calls = []

    class Trailing(Grouped):
        words = 0  # words the trailing group step sends

        def group_step(self, round_no, states, inboxes):
            calls.append(("group", round_no))
            if round_no == 3:
                none = np.zeros(2, dtype=np.int64)
                return none, np.array([self.words, 0]), none, []
            return super().group_step(round_no, states, inboxes)

        def finalize(self, p, state, inbox):
            calls.append(("finalize", p))
            return []

    run(Trailing(), MpcConfig(2, 8))
    assert calls == [("group", 1), ("group", 2), ("group", 3), ("finalize", 0), ("finalize", 1)]
    sender = Trailing()
    sender.words = 1
    with pytest.raises(ValueError, match="after the last barrier"):
        run(sender, MpcConfig(2, 8))
