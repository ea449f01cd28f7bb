"""Reproducible experiments: instance, schedule, run, verdict, artifacts.

An :class:`ExperimentConfig` fully determines a run; the summary JSON
and transcript CSV written for the same config are byte-identical
across invocations.  The summary's ``ok`` field folds together oracle
agreement, budget compliance and the lower-bound sandwich.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import BoundReport, lower_bound_for
from .engine import MpcConfig, MpcError, assert_transcript
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
from .semiring import get_semiring

DENSE_CASES = ("square", "ndn", "dnd-n", "dnd-d")
SPARSE_CASES = ("sparse-trivial", "sparse-twophase")
OUTDIR_ENV = "MPCMM_OUTDIR"


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

    def prefix(self) -> str:
        bits = [self.case, f"n{self.n}"]
        if self.case != "square":
            bits.append(f"d{self.d}")
        else:
            bits.append(f"a{self.alpha:g}")
        if self.case in SPARSE_CASES:
            bits.append(f"e{self.eps:g}")
            bits.append(self.instance)
        bits.append(self.semiring)
        bits.append(f"s{self.seed}")
        return "-".join(bits)


def generate_instance(config: ExperimentConfig, spec):
    """Seeded inputs for the configured case: (A, B, mask-or-None)."""
    rng = np.random.default_rng(config.seed)
    n, d = config.n, config.d
    if config.case == "square":
        return random_dense(n, n, spec, rng), random_dense(n, n, spec, rng), None
    if config.case == "ndn":
        return random_dense(n, d, spec, rng), random_dense(d, n, spec, rng), None
    if config.case in ("dnd-n", "dnd-d"):
        return random_dense(d, n, spec, rng), random_dense(n, d, spec, rng), None
    if config.case in SPARSE_CASES:
        if config.instance == "random":
            a = random_d_sparse(n, d, spec, rng)
            b = random_d_sparse(n, d, spec, rng)
        elif config.instance == "blockdiag":
            a = block_diagonal(n, d, spec, rng)
            b = block_diagonal(n, d, spec, rng)
        elif config.instance == "file":
            a, b = load_matrix(config.file_a), load_matrix(config.file_b)
            if not isinstance(a, SparseMatrix) or not isinstance(b, SparseMatrix):
                raise ValueError("sparse experiments need SPARSE matrix files")
        else:
            raise ValueError(f"unknown instance kind {config.instance!r}")
        return a, b, default_mask(a, b, d)
    raise ValueError(f"unknown case {config.case!r}")


def build_schedule(config: ExperimentConfig, a, b, mask, spec):
    n, d = config.n, config.d
    if config.case == "square":
        shape = ProblemShape(n, config.alpha)
        return schedule_square(shape, a, b, spec, redistribute=config.redistribute)
    if config.case == "ndn":
        return schedule_ndn(n, d, a, b, spec)
    if config.case == "dnd-n":
        return schedule_dnd_nproc(n, d, a, b, spec)
    if config.case == "dnd-d":
        return schedule_dnd_dproc(n, d, a, b, spec)
    if config.case == "sparse-trivial":
        return schedule_sparse_trivial(n, d, a, b, mask, spec)
    if config.case == "sparse-twophase":
        eps = EpsilonSchedule(0.0, config.eps)
        return schedule_sparse_twophase(n, d, a, b, mask, eps, spec)
    raise ValueError(f"unknown case {config.case!r}")


def masked_equal(out: DenseMatrix, oracle: DenseMatrix, mask) -> bool:
    return all(out.data[r, j] == oracle.data[r, j] for r in range(mask.n) for j in mask.cols(r))


def output_dir(explicit=None) -> str:
    return explicit or os.environ.get(OUTDIR_ENV) or "mpcmm-runs"


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
        cfg = schedule.config
        if config.cap_factor != cfg.cap_factor:
            cfg = MpcConfig(cfg.processors, cfg.memory, config.cap_factor, cfg.max_rounds)
        budget_ok = assert_transcript(result.transcript, cfg)
        summary.update(result.transcript.summary(cfg, violation=None))
        summary["oracle_match"] = bool(match)
        if config.case in DENSE_CASES:
            lower = lower_bound_for(config.case, config.n, config.d, config.alpha)
            report = BoundReport(
                config.case,
                {"n": config.n, "d": config.d, "alpha": config.alpha,
                 "P": cfg.processors, "M": cfg.memory},
                lower,
                result.transcript.rounds,
            )
            summary["bound"] = report.to_dict()
            bound_ok = report.ok
        else:
            summary["bound"] = None
            bound_ok = True
        if config.case == "sparse-twophase":
            summary["decomposition"] = schedule.meta.get("decomposition")
            summary["fallback"] = schedule.meta.get("fallback")
        summary["ok"] = bool(match) and budget_ok and bound_ok
        transcript_csv = result.transcript.to_csv()

    if write:
        directory = output_dir(out_dir)
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
