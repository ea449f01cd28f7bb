"""Reproducible experiments: instance, schedule, run, verdict, artifacts.

An :class:`ExperimentConfig` fully determines a run; the summary JSON
and transcript CSV written for the same config are byte-identical
across invocations.  The summary's ``ok`` field folds together oracle
agreement, budget compliance and the lower-bound sandwich.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .bounds import BoundReport, lower_bound_dnd, lower_bound_ndn, lower_bound_terms
from .engine import MpcError, assert_transcript
from .instances import block_diagonal, random_d_sparse, random_dense
from .matrix import DenseMatrix, SparseMatrix, load_matrix, naive_multiply
from .schedules.rect import schedule_dnd_dproc, schedule_dnd_nproc, schedule_ndn
from .schedules.sparse import (
    EpsilonSchedule,
    default_mask,
    schedule_sparse_trivial,
    schedule_sparse_twophase,
)
from .schedules.square import ProblemShape, schedule_square
from .semiring import builtin_semirings, get_semiring

OUTDIR_ENV = "MPCMM_OUTDIR"
INSTANCE_KINDS = ("random", "blockdiag", "file")


@dataclass(frozen=True)
class Case:
    """One multiplication case: how to build it, its inputs and its lower bound.

    ``build(config, a, b, mask, spec)`` returns the Schedule.  ``dims(n, d)``
    gives the dense input shapes ((A rows, A cols), (B rows, B cols)); None
    marks a d-sparse case.  ``lower(config, machine)`` gives the round lower
    bound for the simulated ``MpcConfig``; None reports no bound.
    ``fields`` names the config fields the case reads besides
    ``COMMON_FIELDS``, in artifact-name order; the CLI takes no other flag.
    """

    build: Callable
    dims: Callable | None
    lower: Callable | None
    fields: tuple[str, ...]


COMMON_FIELDS = ("n", "semiring", "seed", "cap_factor")


CASES = {
    "square": Case(
        lambda c, a, b, mask, spec: schedule_square(
            ProblemShape(c.n, c.alpha), a, b, spec, redistribute=c.redistribute
        ),
        lambda n, d: ((n, n), (n, n)),
        # The schedule runs on ceil(n**(alpha/2))**2 processors, not n**alpha.
        lambda c, machine: lower_bound_terms(c.n**3, machine.processors, machine.memory),
        ("alpha", "redistribute"),
    ),
    "ndn": Case(
        lambda c, a, b, mask, spec: schedule_ndn(c.n, c.d, a, b, spec),
        lambda n, d: ((n, d), (d, n)),
        lambda c, machine: lower_bound_ndn(c.n, c.d),
        ("d",),
    ),
    "dnd-n": Case(
        lambda c, a, b, mask, spec: schedule_dnd_nproc(c.n, c.d, a, b, spec),
        lambda n, d: ((d, n), (n, d)),
        lambda c, machine: lower_bound_dnd(c.n, c.d, "n"),
        ("d",),
    ),
    "dnd-d": Case(
        lambda c, a, b, mask, spec: schedule_dnd_dproc(c.n, c.d, a, b, spec),
        lambda n, d: ((d, n), (n, d)),
        lambda c, machine: lower_bound_dnd(c.n, c.d, "d"),
        ("d",),
    ),
    "sparse-trivial": Case(
        lambda c, a, b, mask, spec: schedule_sparse_trivial(c.n, c.d, a, b, mask, spec),
        None,
        None,
        ("d", "instance", "file_a", "file_b"),
    ),
    "sparse-twophase": Case(
        lambda c, a, b, mask, spec: schedule_sparse_twophase(
            c.n, c.d, a, b, mask, EpsilonSchedule(0.0, c.eps), spec
        ),
        None,
        None,
        ("d", "eps", "instance", "file_a", "file_b"),
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    case: str
    n: int
    d: int = 0
    alpha: float = 1.0
    semiring: str = "int"
    seed: int = 1
    eps: float = 0.1
    cap_factor: int = 4
    instance: str = "random"  # random | blockdiag | file
    redistribute: bool = False
    file_a: str = ""
    file_b: str = ""

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r} (expected one of {', '.join(CASES)})")
        if self.instance not in INSTANCE_KINDS:
            raise ValueError(f"unknown instance kind {self.instance!r}")
        if self.semiring not in [spec.name for spec in builtin_semirings()]:
            raise ValueError(f"unknown semiring {self.semiring!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.cap_factor < 1:
            raise ValueError("cap_factor must be >= 1")

    def prefix(self) -> str:
        """The artifact name: the case, n, a bit per field the case reads and
        for cap_factor (none for a default flag, path or cap_factor), the
        semiring and the seed.  Configs differing in a field a run reads differ."""
        bits = [_BITS[name](self) for name in (*CASES[self.case].fields, "cap_factor")]
        return "-".join([self.case, f"n{self.n}", *filter(None, bits), self.semiring,
                         f"s{self.seed}"])


def _path_bit(tag: str, path: str) -> str:
    return path and tag + hashlib.sha256(path.encode()).hexdigest()[:8]


def _float_bit(tag: str, value: float) -> str:
    """``value`` spelled with ``:g`` when that reads back as ``value``, else
    exactly (``repr``), so distinct values never share a name."""
    short = f"{value:g}"
    return tag + (short if float(short) == value else repr(value))


_BITS = {
    "d": lambda c: f"d{c.d}",
    "alpha": lambda c: _float_bit("a", c.alpha),
    "redistribute": lambda c: "r" if c.redistribute else "",
    "eps": lambda c: _float_bit("e", c.eps),
    "instance": lambda c: c.instance,
    "file_a": lambda c: _path_bit("A", c.file_a),
    "file_b": lambda c: _path_bit("B", c.file_b),
    "cap_factor": lambda c: (f"c{c.cap_factor}"
                             if c.cap_factor != ExperimentConfig.cap_factor else ""),
}


def generate_instance(config: ExperimentConfig, spec):
    """Seeded or loaded inputs for the configured case: (A, B, mask-or-None).

    Raises ValueError when a word of A or B lies outside the carrier's
    domain, or when a sparse A or B stores the zero element, before any
    schedule sees it.
    """
    rng = np.random.default_rng(config.seed)
    n, d = config.n, config.d
    dims = CASES[config.case].dims
    if dims is not None:
        a_shape, b_shape = dims(n, d)
        a, b = random_dense(*a_shape, spec, rng), random_dense(*b_shape, spec, rng)
        spec.check_words(a.data, "A")
        spec.check_words(b.data, "B")
        return a, b, None
    if config.instance == "random":
        a = random_d_sparse(n, d, spec, rng)
        b = random_d_sparse(n, d, spec, rng)
    elif config.instance == "blockdiag":
        a = block_diagonal(n, d, spec, rng)
        b = block_diagonal(n, d, spec, rng)
    else:
        a, b = _load(config.file_a, "--file-a", n), _load(config.file_b, "--file-b", n)
    for matrix, name in ((a, "A"), (b, "B")):
        spec.check_words(matrix.v, name)
        matrix.validate(spec, name)
    return a, b, default_mask(a, b, d)


def _load(path: str, flag: str, n: int):
    """The n x n sparse matrix in ``path``; a ValueError naming the path if
    it is empty, unreadable, dense or of another size."""
    if not path:
        raise ValueError(f"--instance file needs {flag}")
    try:
        m = load_matrix(path)
    except OSError as err:
        raise ValueError(f"cannot read {flag} {path!r}: {err.strerror}") from None
    if not isinstance(m, SparseMatrix) or (m.rows, m.cols) != (n, n):
        kind = "SPARSE" if isinstance(m, SparseMatrix) else "DENSE"
        raise ValueError(f"{path}: a {kind} {m.rows}x{m.cols} matrix, but sparse experiments "
                         f"at --n {n} need a SPARSE {n}x{n} one")
    return m


def build_schedule(config: ExperimentConfig, a, b, mask, spec):
    return CASES[config.case].build(config, a, b, mask, spec)


def masked_equal(out: DenseMatrix, oracle: DenseMatrix, mask) -> bool:
    """True iff ``out`` and ``oracle`` agree on every cell the mask lists."""
    rows, cols = mask.pairs
    return bool(np.array_equal(out.data[rows, cols], oracle.data[rows, cols]))


def run_experiment(config: ExperimentConfig, out_dir=None, write=True) -> dict:
    """Run one experiment; returns the summary dict (also written to disk)."""
    spec = get_semiring(config.semiring)
    a, b, mask = generate_instance(config, spec)
    schedule = build_schedule(config, a, b, mask, spec)

    summary = {"config": asdict(config), "processors": schedule.config.processors,
               "memory": schedule.config.memory}
    transcript_csv = None
    try:
        result, out = schedule.execute(cap_factor=config.cap_factor)
    except MpcError as err:
        summary.update(
            {
                "ok": False,
                "violation": {
                    "type": type(err).__name__,
                    "processor": getattr(err, "processor", None),
                    "round": getattr(err, "round", None),
                    "direction": getattr(err, "direction", None),
                    "words": getattr(err, "words", None),
                    "used": getattr(err, "used", None),
                    "budget": getattr(err, "budget", None),
                },
            }
        )
    else:
        oracle = naive_multiply(a, b, spec)
        if mask is None:
            match = out == oracle
        else:
            match = masked_equal(out, oracle, mask)
        cfg = schedule.machine(config.cap_factor)
        budget_ok = assert_transcript(result.transcript, cfg)
        summary.update(result.transcript.summary(cfg, violation=None))
        summary["oracle_match"] = bool(match)
        lower = CASES[config.case].lower
        if lower is not None:
            report = BoundReport(
                config.case,
                {"n": config.n, "d": config.d, "alpha": config.alpha,
                 "P": cfg.processors, "M": cfg.memory},
                lower(config, cfg),
                result.transcript.rounds,
            )
            summary["bound"] = report.to_dict()
            bound_ok = report.ok
        else:
            summary["bound"] = None
            bound_ok = True
        if "decomposition" in schedule.meta:
            summary["decomposition"] = schedule.meta["decomposition"]
            summary["fallback"] = schedule.meta["fallback"]
        summary["ok"] = bool(match) and budget_ok and bound_ok
        transcript_csv = result.transcript.to_csv()

    if write:
        directory = out_dir or os.environ.get(OUTDIR_ENV) or "mpcmm-runs"
        os.makedirs(directory, exist_ok=True)
        prefix = config.prefix()
        summary_path = os.path.join(directory, f"{prefix}.summary.json")
        with open(summary_path, "w") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        summary["summary_path"] = summary_path
        if transcript_csv is not None:
            transcript_path = os.path.join(directory, f"{prefix}.transcript.csv")
            with open(transcript_path, "w") as fh:
                fh.write(transcript_csv)
            summary["transcript_path"] = transcript_path
    return summary
