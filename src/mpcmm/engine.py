"""Synchronous round engine with memory and bandwidth budgets.

Execution model: a program runs on P processors, each with M words of
memory.  A round is one local compute phase followed by one message
barrier; the messages a processor emits in round r are delivered, sorted
by (source, emission order), as the inbox of round r + 1.  After the
last barrier of a program with R rounds comes the trailing local step,
numbered R + 1: the engine checks each processor's final footprint,
runs the program's ``group_step`` for round R + 1 once, and then its
``finalize`` consumes each final inbox and emits that processor's
outputs.  The step communicates nothing and is not counted as a round.

Budgets, checked at every barrier with budget = cap_factor * M:

* words sent per processor per round   <= budget
* words received per processor per round <= budget
* peak memory per processor per round  <= budget

Peak memory charges element words only (message routing metadata is
free) as the larger of the two phase footprints: state + inbox at the
start of the compute phase, and state + outbox at its end.  A violation
raises at the first offending round, which is exactly when the modelled
algorithm is considered failed; the checks run over all processors in
the order sent, received, peak, so the first record is well defined.

Two optional program hooks let whole rounds run without touching every
processor:

* ``active(round_no)`` names the processors ``handler`` has work for in
  the round other than their inbox.  A processor left out whose inbox is
  empty is not handed to ``handler``: it keeps its state and the engine
  keeps its cached state words.  The default, ``None``, hands every
  processor to ``handler``.
* ``group_step(round_no, states, inboxes)`` runs work done for many
  processors at once (tile stacks moved by index permutation, say)
  before the round's handlers.  It may change stores in place.  It
  returns (held, sent, received, changed): that work's words as three
  int arrays over processors, taken from static shapes rather than
  measured (words held at the end of the round, and so at the start of
  the next or at finalize, words sent and words received), and the
  processors whose states it changed.  The engine adds the words to the
  same sent, received and peak figures as messages, and re-measures the
  state words of each processor in ``changed`` right after the step.
  In the trailing local step the three arrays must be zero.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

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


class Message(NamedTuple):
    src: int
    dst: int
    tag: tuple  # routing metadata, not charged against any budget
    payload: np.ndarray  # flat int64 words


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
    the last barrier and returns (row, col, block) outputs.  The
    optional hooks ``start``, ``active`` and ``group_step`` are
    described in the module docstring; their defaults hand every
    processor to ``handler`` in every round.
    """

    num_procs: int = 1
    total_rounds: int = 0
    min_memory: int = 1

    def start(self) -> None:
        """Called at the start of every run, before ``init_state``."""

    def init_state(self, p: int) -> dict:
        return {}

    def active(self, round_no: int):
        """Processors, ascending, that ``handler`` has work for in the round
        other than their inbox; None means all of them."""
        return None

    def group_step(self, round_no: int, states: list, inboxes: dict):
        """Run the round's group work before its handlers.

        It may change entries of ``states`` (a list over processors) in
        place or replace them, and pop entries of ``inboxes`` (processor ->
        non-empty message list), but only for the processors it returns in
        ``changed``.  Returns (held, sent, received, changed), or None for
        no group work.  It is also called once for round ``total_rounds +
        1``, the trailing local step, before any ``finalize``; the work it
        does there must hold, send and receive nothing.
        """
        return None

    def handler(self, round_no: int, p: int, state: dict, inbox: list):
        return state, []

    def finalize(self, p: int, state: dict, inbox: list) -> list:
        """Processor p's (row, col, block) outputs: each block is an int64
        array, 2-d or flat (one row), whose first word goes to (row, col)."""
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


def _first_over(values, budget):
    """The first processor whose figure exceeds the budget, or None."""
    over = np.flatnonzero(values > budget)
    return int(over[0]) if over.size else None


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
    everyone = range(procs)

    # Initial states are charged as round 1's in-phase footprint (state
    # plus an empty inbox), so bandwidth violations in round 1 surface
    # ahead of a too-large starting layout.
    program.start()
    states = [program.init_state(p) for p in everyone]
    state_words = np.array([_words(s) for s in states], dtype=np.int64)
    held = np.zeros(procs, dtype=np.int64)  # group words held across the last barrier
    inboxes = {}  # processor -> its non-empty inbox
    inbox_words = np.zeros(procs, dtype=np.int64)
    transcript = Transcript(processors=procs, rounds=program.total_rounds)

    for round_no in range(1, program.total_rounds + 1):
        in_words = state_words + inbox_words + held
        sent = np.zeros(procs, dtype=np.int64)
        received = np.zeros(procs, dtype=np.int64)
        group = program.group_step(round_no, states, inboxes)
        if group is None:
            held = np.zeros(procs, dtype=np.int64)
        else:
            held, group_sent, group_received, changed = group
            sent += group_sent
            received += group_received
            for p in changed:
                state_words[p] = _words(states[p])
        active = program.active(round_no)
        if active is None:
            handled = everyone
        elif inboxes:
            handled = sorted(set(active).union(inboxes))
        else:
            handled = active

        # One pass: each send is delivered as it is emitted, so every
        # inbox is ordered by (source, emission order).
        new_inboxes = {}
        delivered = {}  # destination -> words
        handled_sent, handled_words = [], []
        for p in handled:
            state, sends = program.handler(round_no, p, states[p], inboxes.get(p) or [])
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
                box = new_inboxes.get(dst)
                if box is None:
                    box = new_inboxes[dst] = []
                box.append(Message(p, dst, tag, payload))
                delivered[dst] = delivered.get(dst, 0) + words
                out_words += words
            states[p] = state
            handled_sent.append(out_words)
            handled_words.append(_words(state))
        if handled_sent:
            handled = list(handled)
            sent[handled] += handled_sent
            state_words[handled] = handled_words
        if delivered:
            received[list(delivered)] += list(delivered.values())
        peak = np.maximum(in_words, state_words + sent + held)

        for direction, figures in (("sent", sent), ("received", received)):
            p = _first_over(figures, budget)
            if p is not None:
                raise BandwidthExceeded(p, round_no, direction, int(figures[p]), budget)
        p = _first_over(peak, budget)
        if p is not None:
            raise MemoryExceeded(p, round_no, int(peak[p]), budget)

        transcript.rows.extend(
            map(RoundRow, repeat(round_no), everyone, sent.tolist(), received.tolist(),
                peak.tolist())
        )
        inboxes, inbox_words = new_inboxes, received

    outputs = {}
    output_words = [0] * procs
    final_words = (state_words + inbox_words + held).tolist()
    for p in everyone:
        fin_words = final_words[p]
        if fin_words > budget:
            raise MemoryExceeded(p, max(program.total_rounds, 1), fin_words, budget)
        if program.total_rounds:
            row = transcript.rows[(program.total_rounds - 1) * procs + p]
            row.peak_memory = max(row.peak_memory, fin_words)
    group = program.group_step(program.total_rounds + 1, states, inboxes)
    if group is not None and any(words.any() for words in group[:3]):
        raise ValueError("group work after the last barrier must hold, send and receive nothing")
    for p in everyone:
        outputs[p] = program.finalize(p, states[p], inboxes.get(p) or [])
        output_words[p] = sum(block.size for _, _, block in outputs[p])
    transcript.output_words = output_words
    return RunResult(transcript, outputs)
