"""Synchronous round engine with memory and bandwidth budgets.

Execution model: a program runs on P processors, each with M words of
memory.  A round is one local compute phase followed by one barrier, and
the program's one round hook, ``group_step(round_no, states)``, runs the
round's work for many processors at once (tile stacks moved by index
permutation, say).  It may change stores in place.  It returns (held,
sent, received, changed), or None for no work: the words as three int
arrays over processors, taken from static shapes rather than measured
(words held at the end of the round, and so at the start of the next or
at finalize, words sent and words received), and the processors whose
states it changed.  The engine re-measures the state words of each
processor in ``changed`` right after the step.  After the last barrier
of a program with R rounds comes the trailing local step, numbered
R + 1: the engine checks each processor's final footprint, runs
``group_step`` for round R + 1 once, and then ``finalize(states)`` once
for the run's output blocks.  The step communicates nothing (its three
arrays must be zero) and is not counted as a round.

Budgets, checked at every barrier with budget = cap_factor * M:

* words sent per processor per round   <= budget
* words received per processor per round <= budget
* peak memory per processor per round  <= budget

Peak memory charges element words only as the larger of the two phase
footprints: state + the words received in the previous round + the words
held across its barrier at the start of the compute phase, and state +
sent + held at its end.  A violation raises at the first offending
round, which is exactly when the modelled algorithm is considered
failed; the checks run over all processors in the order sent, received,
peak, so the first record is well defined.  The transcript is these
figures, ``Transcript.figures``: one (3, R, P) int64 array, a (sent,
received, peak) slice written per round; the final footprint is checked
at the trailing step and counts in round R's peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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
    output_words: int = 0  # the words of every output block

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
            "output_words": self.output_words,
            "violation": violation,
        }


def assert_transcript(t: Transcript, config: MpcConfig) -> bool:
    """True iff every figure respects its budget inequality."""
    return bool((t.figures <= config.budget).all())


class Program:
    """A program over a fixed round count; its hooks are described in the
    module docstring."""

    num_procs: int = 1
    total_rounds: int = 0
    min_memory: int = 1

    def start(self) -> None:
        """Called at the start of every run, before ``init_state``."""

    def init_state(self, p: int) -> dict:
        return {}

    def group_step(self, round_no: int, states: list):
        """Run the round's work.

        It may change entries of ``states`` (a list over processors) in
        place or replace them, but only for the processors it returns in
        ``changed``.  Returns (held, sent, received, changed), or None for
        no work.  It is also called once for round ``total_rounds + 1``,
        the trailing local step, before ``finalize``; the work it does
        there must hold, send and receive nothing.
        """
        return None

    def finalize(self, states: list) -> tuple:
        """The run's output from the final ``states``: columns (procs, rows,
        cols, blocks), where block i, an int64 array 2-d or flat (one row),
        is processor procs[i]'s and its first word goes to (rows[i], cols[i])."""
        return [], [], [], []


def _words(state: dict) -> int:
    words = 0
    for value in state.values():
        words += value.size
    return words


@dataclass
class RunResult:
    transcript: Transcript
    outputs: tuple  # (procs, rows, cols, blocks) columns: see ``Program.finalize``


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

    # Initial states are charged as round 1's in-phase footprint, so
    # bandwidth violations in round 1 surface ahead of a too-large
    # starting layout.
    program.start()
    states = [program.init_state(p) for p in range(procs)]
    state_words = np.array([_words(s) for s in states], dtype=np.int64)
    # words held across the last barrier, and received in the last round
    held, received = np.zeros((2, procs), dtype=np.int64)
    figures = np.zeros((3, program.total_rounds, procs), dtype=np.int64)

    for round_no in range(1, program.total_rounds + 1):
        in_words = state_words + received + held
        group = program.group_step(round_no, states)
        if group is None:
            held, sent, received = np.zeros((3, procs), dtype=np.int64)
        else:
            held, sent, received, changed = group
            for p in changed:
                state_words[p] = _words(states[p])
        peak = np.maximum(in_words, state_words + sent + held)

        for direction, words in (("sent", sent), ("received", received)):
            p = _first_over(words, budget)
            if p is not None:
                raise BandwidthExceeded(p, round_no, direction, int(words[p]), budget)
        p = _first_over(peak, budget)
        if p is not None:
            raise MemoryExceeded(p, round_no, int(peak[p]), budget)

        figures[:, round_no - 1] = sent, received, peak

    final_words = state_words + received + held
    p = _first_over(final_words, budget)
    if p is not None:
        raise MemoryExceeded(p, max(program.total_rounds, 1), int(final_words[p]), budget)
    np.maximum(figures[2, -1:], final_words, out=figures[2, -1:])  # no-op without rounds
    group = program.group_step(program.total_rounds + 1, states)
    if group is not None and any(words.any() for words in group[:3]):
        raise ValueError("group work after the last barrier must hold, send and receive nothing")
    outputs = program.finalize(states)
    return RunResult(Transcript(figures, sum(block.size for block in outputs[3])), outputs)
