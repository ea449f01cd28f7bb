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
The transcript is these figures, ``Transcript.figures``: one (3, R, P)
int64 array, a (sent, received, peak) slice written per round; the final
footprint is checked at the trailing step and counts in round R's peak.

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

from dataclasses import dataclass, field
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


class RoundRow(NamedTuple):
    round: int
    processor: int
    words_sent: int
    words_received: int
    peak_memory: int


_CSV_HEADER = "round,processor,words_sent,words_received,peak_memory"


@dataclass(eq=False)
class Transcript:
    """A run's budget figures: ``figures[k, r - 1, p]`` is processor p's
    words sent (k = 0), words received (k = 1) and peak memory (k = 2)
    in round r, one (3, rounds, processors) int64 array."""

    figures: np.ndarray
    output_words: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return self.figures.shape[1]

    @property
    def processors(self) -> int:
        return self.figures.shape[2]

    def _table(self) -> np.ndarray:
        ids = np.indices(self.figures.shape[1:]).reshape(2, -1)
        ids[0] += 1
        return np.concatenate([ids, self.figures.reshape(3, -1)])

    @property
    def rows(self) -> list:
        """The CSV's lines, one RoundRow per (round, processor), from ``figures``."""
        return list(map(RoundRow, *self._table().tolist()))

    def to_csv(self) -> str:
        words = self._table().T.ravel().tolist()
        return _CSV_HEADER + "\n" + "%d,%d,%d,%d,%d\n" * (len(words) // 5) % tuple(words)

    @staticmethod
    def from_csv(text: str) -> "Transcript":
        """Parse ``to_csv``'s text, blank lines skipped; anything else raises ValueError."""
        header, *lines = text.splitlines() or [""]
        if header != _CSV_HEADER:
            raise ValueError(f"bad transcript header {header!r}")
        fields = [line.split(",") for line in lines if line]
        if any(len(line) != 5 for line in fields):
            raise ValueError("every transcript line must have 5 fields")
        try:
            table = np.array(fields, dtype=np.int64).reshape(-1, 5).T
        except (ValueError, OverflowError) as err:
            raise ValueError(f"transcript field is not an int64 word: {err}") from None
        procs = int(table[1].max(initial=-1)) + 1
        rounds = len(fields) // max(procs, 1)
        t = Transcript(table[2:, : rounds * procs].reshape(3, rounds, procs).copy())
        if not np.array_equal(t._table()[:2], table[:2]):
            raise ValueError("transcript must list each (round, processor) once, in order")
        return t

    def summary(self, config: MpcConfig, violation=None) -> dict:
        sent, received, peak = self.figures.max(axis=(1, 2), initial=0).tolist()
        return {
            "rounds": self.rounds,
            "processors": self.processors,
            "memory": config.memory,
            "cap_factor": config.cap_factor,
            "budget": config.budget,
            "max_words_sent": sent,
            "max_words_received": received,
            "max_peak_memory": peak,
            "output_words": sum(self.output_words),
            "violation": violation,
        }


def assert_transcript(t: Transcript, config: MpcConfig) -> bool:
    """True iff every figure respects its budget inequality."""
    return bool((t.figures <= config.budget).all())


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
    figures = np.zeros((3, program.total_rounds, procs), dtype=np.int64)

    for round_no in range(1, program.total_rounds + 1):
        in_words = state_words + inbox_words + held
        sent, received = np.zeros((2, procs), dtype=np.int64)
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
                    raise TypeError(f"processor {p} sent a {payload.dtype} payload in round "
                                    f"{round_no}; payloads must be int64 words")
                new_inboxes.setdefault(dst, []).append(Message(p, dst, tag, payload))
                delivered[dst] = delivered.get(dst, 0) + payload.size
                out_words += payload.size
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

        for direction, words in (("sent", sent), ("received", received)):
            p = _first_over(words, budget)
            if p is not None:
                raise BandwidthExceeded(p, round_no, direction, int(words[p]), budget)
        p = _first_over(peak, budget)
        if p is not None:
            raise MemoryExceeded(p, round_no, int(peak[p]), budget)

        figures[:, round_no - 1] = sent, received, peak
        inboxes, inbox_words = new_inboxes, received

    final_words = state_words + inbox_words + held
    p = _first_over(final_words, budget)
    if p is not None:
        raise MemoryExceeded(p, max(program.total_rounds, 1), int(final_words[p]), budget)
    np.maximum(figures[2, -1:], final_words, out=figures[2, -1:])  # no-op without rounds
    group = program.group_step(program.total_rounds + 1, states, inboxes)
    if group is not None and any(words.any() for words in group[:3]):
        raise ValueError("group work after the last barrier must hold, send and receive nothing")
    outputs = {p: program.finalize(p, states[p], inboxes.get(p) or []) for p in everyone}
    output_words = [sum(block.size for _, _, block in outputs[p]) for p in everyone]
    return RunResult(Transcript(figures, output_words), outputs)
