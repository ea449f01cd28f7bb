"""mpcmm benchmark: run one named workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-fine --seed 1 --seconds 40 --trace 0

The workload's configs run back to back through ``run_experiment(...,
write=True)``, as a CLI user runs them: one process, one config after
another, no threads (a closed loop with one client).  Whole passes over
the workload repeat until ``--seconds`` have passed; the first pass warms
caches and is not timed into the figures, which are medians over the
remaining passes.  Every config of every pass is checked: its summary
must report ``ok``, and its summary and transcript bytes must hash the
same on every pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics (see
``probes.py``) plus the layer microbenchmarks (see ``micro.py``).  The
last line of standard output is the result object; the line before it
records the machine, the build and the simulated statistics per config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_BASE = os.path.join(ROOT, ".perfbench-out")

REFERENCE_NOTE = (
    "The simulated model has no external reference: results are checked only "
    "against the naive oracle product and the closed-form lower bounds."
)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Gate:
    """Correctness gate: one operation per config run; records simulated stats."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.configs = {}  # prefix -> simulated statistics and artifact hashes

    def check(self, config, summary, error):
        self.attempted += 1
        prefix = config.prefix()
        if error is not None:
            print(f"FAIL {prefix}: {error}", file=sys.stderr)
            self.failed += 1
            return
        if not summary.get("ok") or "transcript_path" not in summary:
            print(f"FAIL {prefix}: not ok: {summary.get('violation')}", file=sys.stderr)
            self.failed += 1
            return
        hashes = (_sha256(summary["summary_path"]), _sha256(summary["transcript_path"]))
        seen = self.configs.get(prefix)
        if seen is None:
            self.configs[prefix] = self._stats(summary, hashes)
        elif (seen["summary_sha256"], seen["transcript_sha256"]) != hashes:
            print(f"FAIL {prefix}: artifacts differ between repeats", file=sys.stderr)
            self.failed += 1

    @staticmethod
    def _stats(summary, hashes):
        with open(summary["transcript_path"]) as fh:
            words = sum(int(row["words_sent"]) for row in csv.DictReader(fh))
        bound = summary.get("bound") or {}
        return {
            "P": summary["processors"],
            "M": summary["memory"],
            "rounds": summary["rounds"],
            "lower_bound": bound.get("lower_rounds"),
            "bound_ratio": bound.get("ratio"),
            "max_words_sent": summary["max_words_sent"],
            "max_words_received": summary["max_words_received"],
            "max_peak_memory": summary["max_peak_memory"],
            "words": words,
            "summary_sha256": hashes[0],
            "transcript_sha256": hashes[1],
        }


def run_pass(configs, probes, gate, out_dir, run_experiment):
    """One pass over the workload; the probes keep its span totals."""
    with probes:
        for config in configs:
            summary, error = None, None
            try:
                with probes.frame("experiment.run"):
                    summary = run_experiment(config, out_dir=out_dir, write=True)
            except Exception:  # one failed config must not stop the run
                error = traceback.format_exc()
            gate.check(config, summary, error)


def medians(samples):
    """Metric name -> median over passes, from a list of per-pass dicts."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def unit_of(name):
    if name.endswith("_us") or "us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    return None


def src_sha256():
    """Digest of every Python file under src/, so a record names its code."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            digest.update(_sha256(path).encode())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(numpy_version):
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
    }


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "mpcmm")):
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    import micro
    import probes as probes_mod
    import workloads
    from mpcmm.experiment import run_experiment

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=_seed, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    configs = workloads.configs(args.workload, args.seed)
    gate = Gate()
    os.makedirs(OUT_BASE, exist_ok=True)
    out_dir = os.path.join(OUT_BASE, f"run-{os.getpid()}")
    # Untraced passes carry only the three phase probes; in a traced run
    # passes alternate, starting (and warming up) untraced.
    kinds = ["phases", "layers"] if args.trace else ["phases"]
    samples = {kind: [] for kind in kinds}
    start = time.perf_counter()
    micro_metrics = micro.microbenchmarks() if args.trace else {}
    try:
        n, pass_s = 0, 0.0
        # Start a pass only if it should end within --seconds; the warm-up
        # pass and one measured pass of each kind always run.
        while n < 1 + len(kinds) or time.perf_counter() - start + pass_s < args.seconds:
            kind = kinds[n % len(kinds)]
            p = probes_mod.Probes(kind)
            pass_start = time.perf_counter()
            run_pass(configs, p, gate, out_dir, run_experiment)
            pass_s = time.perf_counter() - pass_start
            if n > 0:
                samples[kind].append(p.metrics())
            n += 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    plain = medians(samples["phases"])
    if args.trace:
        values = medians(samples["layers"])
        values["trace.overhead_s"] = values["trace.run_s"] - plain["run_s"]
        values.update(micro_metrics)
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        stats = gate.configs.values()
        metrics = {
            "run_s": {"value": plain["run_s"], "unit": "s"},
            "setup_s": {"value": plain["setup_s"], "unit": "s"},
            "simulate_s": {"value": plain["simulate_s"], "unit": "s"},
            "sim_rounds": {"value": sum(s["rounds"] for s in stats), "unit": "rounds"},
            "sim_words": {"value": sum(s["words"] for s in stats), "unit": "words"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {kind: len(s) for kind, s in samples.items()},
        "samples": samples,
        "machine": machine_record(numpy.__version__),
        "configs": gate.configs,
        "reference": REFERENCE_NOTE,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
