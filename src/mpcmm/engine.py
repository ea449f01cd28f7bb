"""Synchronous round engine with memory and bandwidth budgets.

Execution model: a program runs on P processors, each with M words of
memory.  A round is one local compute phase followed by one message
barrier; the messages a processor emits in round r are delivered, sorted
by (source, emission order), as the inbox of round r + 1.  After the
last barrier the program's ``finalize`` consumes the final inbox and
emits the per-processor outputs; that trailing local step needs no
communication and is not counted as a round.

Budgets, checked at every barrier with budget = cap_factor * M:

* words sent per processor per round   <= budget
* words received per processor per round <= budget
* peak memory per processor per round  <= budget

Peak memory charges element words only (message routing metadata is
free) as the larger of the two phase footprints: state + inbox at the
start of the compute phase, and state + outbox at its end.  A violation
raises at the first offending round, which is exactly when the modelled
algorithm is considered failed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np


WORD = np.dtype(np.int64)  # the only payload element type


class MpcError(Exception):
    pass


class MemoryExceeded(MpcError):
    def __init__(self, processor, round_no, used, budget):
        super().__init__(
            f"processor {processor} used {used} words in round {round_no} (budget {budget})"
        )
        self.processor = processor
        self.round = round_no
        self.used = used
        self.budget = budget


class BandwidthExceeded(MpcError):
    def __init__(self, processor, round_no, direction, words, budget):
        super().__init__(
            f"processor {processor} {direction} {words} words in round {round_no} "
            f"(budget {budget})"
        )
        self.processor = processor
        self.round = round_no
        self.direction = direction  # "sent" | "received"
        self.words = words
        self.budget = budget


class NonTermination(MpcError):
    pass


@dataclass(frozen=True)
class MpcConfig:
    processors: int
    memory: int
    cap_factor: int = 4
    max_rounds: int = 10_000

    def __post_init__(self):
        if self.processors < 1 or self.memory < 1 or self.cap_factor < 1:
            raise ValueError("processors, memory and cap_factor must all be >= 1")

    @property
    def budget(self) -> int:
        return self.cap_factor * self.memory


@dataclass(frozen=True)
class Message:
    src: int
    dst: int
    tag: tuple  # routing metadata, not charged against any budget
    payload: np.ndarray  # flat int64 words

    @property
    def words(self) -> int:
        return int(self.payload.size)


@dataclass
class RoundRow:
    round: int
    processor: int
    words_sent: int
    words_received: int
    peak_memory: int


@dataclass
class Transcript:
    processors: int
    rounds: int
    rows: list = field(default_factory=list)  # RoundRow per (round, processor)
    output_words: list = field(default_factory=list)

    def max_sent(self):
        return max((r.words_sent for r in self.rows), default=0)

    def max_received(self):
        return max((r.words_received for r in self.rows), default=0)

    def max_memory(self):
        return max((r.peak_memory for r in self.rows), default=0)

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["round", "processor", "words_sent", "words_received", "peak_memory"])
        for r in self.rows:
            w.writerow([r.round, r.processor, r.words_sent, r.words_received, r.peak_memory])
        return out.getvalue()

    @staticmethod
    def from_csv(text: str) -> "Transcript":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        expected = ["round", "processor", "words_sent", "words_received", "peak_memory"]
        if header != expected:
            raise ValueError(f"bad transcript header {header}")
        rows = [RoundRow(*map(int, row)) for row in reader if row]
        procs = max((r.processor for r in rows), default=-1) + 1
        rounds = max((r.round for r in rows), default=0)
        return Transcript(processors=procs, rounds=rounds, rows=rows)

    def summary(self, config: MpcConfig, violation=None) -> dict:
        return {
            "rounds": self.rounds,
            "processors": self.processors,
            "memory": config.memory,
            "cap_factor": config.cap_factor,
            "budget": config.budget,
            "max_words_sent": self.max_sent(),
            "max_words_received": self.max_received(),
            "max_peak_memory": self.max_memory(),
            "output_words": sum(self.output_words),
            "violation": violation,
        }


def assert_transcript(t: Transcript, config: MpcConfig) -> bool:
    """True iff every row respects the three budget inequalities."""
    b = config.budget
    return all(
        r.words_sent <= b and r.words_received <= b and r.peak_memory <= b for r in t.rows
    )


class Program:
    """A per-processor round handler set with a fixed round count.

    ``handler`` must be deterministic given (round, processor, state,
    inbox) and must not mutate its arguments; it returns the new state
    and a list of (dst, tag, payload) sends.  ``finalize`` runs after
    the last barrier and returns (row, col, block) outputs.
    """

    num_procs: int = 1
    total_rounds: int = 0
    min_memory: int = 1

    def init_state(self, p: int) -> dict:
        return {}

    def handler(self, round_no: int, p: int, state: dict, inbox: list):
        return state, []

    def finalize(self, p: int, state: dict, inbox: list) -> list:
        return []


def _words(state: dict) -> int:
    words = 0
    for value in state.values():
        words += value.size
    return words


@dataclass
class RunResult:
    transcript: Transcript
    outputs: dict  # processor -> [(row, col, np.ndarray block)]


def run(program: Program, config: MpcConfig) -> RunResult:
    """Execute the program round by round, enforcing all budgets."""
    procs = config.processors
    if procs != program.num_procs:
        raise ValueError(
            f"config has {procs} processors but the program needs {program.num_procs}"
        )
    if config.memory < program.min_memory:
        raise ValueError(
            f"memory {config.memory} below the program's minimum {program.min_memory}"
        )
    if program.total_rounds > config.max_rounds:
        raise NonTermination(
            f"program declares {program.total_rounds} rounds (hard cap {config.max_rounds})"
        )
    budget = config.budget

    # Initial states are charged as round 1's in-phase footprint (state
    # plus an empty inbox), so bandwidth violations in round 1 surface
    # ahead of a too-large starting layout.
    states = {p: program.init_state(p) for p in range(procs)}
    inboxes = {p: [] for p in range(procs)}
    inbox_words = [0] * procs
    transcript = Transcript(processors=procs, rounds=program.total_rounds)

    for round_no in range(1, program.total_rounds + 1):
        sent = [0] * procs
        received = [0] * procs
        peak = [0] * procs
        new_states = {}
        new_inboxes = {p: [] for p in range(procs)}
        # One pass: each send is delivered as it is emitted, so every
        # inbox is ordered by (source, emission order).
        for p in range(procs):
            in_words = _words(states[p]) + inbox_words[p]
            state, sends = program.handler(round_no, p, states[p], inboxes[p])
            out_words = 0
            for dst, tag, payload in sends:
                if not (0 <= dst < procs):
                    raise ValueError(f"processor {p} sent to invalid destination {dst}")
                payload = np.ascontiguousarray(payload).ravel()
                if payload.dtype != WORD:
                    raise TypeError(
                        f"processor {p} sent a {payload.dtype} payload in round {round_no}; "
                        "payloads must be int64 words"
                    )
                words = payload.size
                new_inboxes[dst].append(Message(p, dst, tag, payload))
                received[dst] += words
                out_words += words
            sent[p] = out_words
            peak[p] = max(in_words, _words(state) + out_words)
            new_states[p] = state

        for p in range(procs):
            if sent[p] > budget:
                raise BandwidthExceeded(p, round_no, "sent", sent[p], budget)
        for p in range(procs):
            if received[p] > budget:
                raise BandwidthExceeded(p, round_no, "received", received[p], budget)
        for p in range(procs):
            if peak[p] > budget:
                raise MemoryExceeded(p, round_no, peak[p], budget)

        for p in range(procs):
            transcript.rows.append(RoundRow(round_no, p, sent[p], received[p], peak[p]))
        states, inboxes, inbox_words = new_states, new_inboxes, received

    outputs = {}
    output_words = [0] * procs
    for p in range(procs):
        fin_words = _words(states[p]) + inbox_words[p]
        if fin_words > budget:
            raise MemoryExceeded(p, max(program.total_rounds, 1), fin_words, budget)
        if program.total_rounds:
            row = transcript.rows[(program.total_rounds - 1) * procs + p]
            row.peak_memory = max(row.peak_memory, fin_words)
        outputs[p] = program.finalize(p, states[p], inboxes[p])
        output_words[p] = int(sum(np.asarray(block).size for _, _, block in outputs[p]))
    transcript.output_words = output_words
    return RunResult(transcript, outputs)
