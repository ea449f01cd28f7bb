"""Command line entry point.

Subcommands: ``run`` (one experiment with artifacts in ``--outdir``, else
the ``MPCMM_OUTDIR`` environment variable), ``bounds`` (lower bound vs
measured rounds as JSON), ``verify`` (oracle battery across semirings and
seeds, nonzero exit on any failure) and ``bench`` (round counts over
``--sizes``).  Each takes ``--case`` and a flag per other
``ExperimentConfig`` field it does not sweep, and rejects a flag outside
``COMMON_FIELDS`` and the case's ``CASES`` field list.  A bad input or an
inconsistent config (a ``ValueError``) prints one error line and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import typing

from .experiment import CASES, COMMON_FIELDS, INSTANCE_KINDS, ExperimentConfig, run_experiment
from .semiring import builtin_semirings


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _add_config_flags(parser, cases, skip=()):
    """Add ``--case`` (one of ``cases``) and a flag per other config field
    not in ``skip``.  A flag left off the command line stays out of the
    parsed namespace, so ``_config`` sees which fields were given."""
    hints = typing.get_type_hints(ExperimentConfig)
    choices = {"case": list(cases), "instance": INSTANCE_KINDS,
               "semiring": [spec.name for spec in builtin_semirings()]}
    for field in [f for f in dataclasses.fields(ExperimentConfig) if f.name not in skip]:
        kind = {"action": "store_true"} if hints[field.name] is bool else {
            "type": hints[field.name], "choices": choices.get(field.name),
            "required": field.default is dataclasses.MISSING}
        parser.add_argument(_flag(field.name), default=argparse.SUPPRESS, **kind)
    reads = "; ".join(f"{name}: {' '.join(map(_flag, CASES[name].fields))}" for name in cases)
    parser.epilog = f"every case reads {' '.join(map(_flag, COMMON_FIELDS))}; also {reads}"


def _config(args, **values) -> ExperimentConfig:
    """The config of the given flags over ``values``; raises ValueError
    for a flag whose field the case does not read."""
    given = {name: value for name, value in vars(args).items()
             if name in ExperimentConfig.__dataclass_fields__}
    reads = ("case", *COMMON_FIELDS, *CASES[args.case].fields)
    stray = [_flag(name) for name in given if name not in reads]
    if stray:
        raise ValueError(f"case {args.case} does not read {', '.join(stray)}")
    return ExperimentConfig(**{**values, **given})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mpcmm")
    sub = parser.add_subparsers(dest="command", required=True)
    bounded = [name for name, case in CASES.items() if case.lower is not None]

    run = sub.add_parser("run", help="run one experiment and write artifacts")
    _add_config_flags(run, CASES)
    run.add_argument("--outdir", default=None)

    bounds = sub.add_parser("bounds", help="lower bound vs measured rounds")
    _add_config_flags(bounds, bounded)

    verify = sub.add_parser("verify", help="oracle battery across semirings and seeds")
    _add_config_flags(verify, CASES, skip=("semiring", "seed"))
    verify.add_argument("--seeds", type=int, default=3)

    bench = sub.add_parser("bench", help="round counts across a size sweep")
    _add_config_flags(bench, bounded, skip=("n",))
    bench.add_argument("--sizes", type=int, nargs="+", required=True, help="values of n")

    args = parser.parse_args(argv)
    try:
        return _command(args)
    except ValueError as err:
        # Bad inputs and inconsistent configs are typed errors, not crashes.
        print(f"mpcmm: error: {err}", file=sys.stderr)
        return 2


def _command(args) -> int:
    if args.command == "run":
        summary = run_experiment(_config(args), out_dir=args.outdir)
        print(json.dumps(summary, sort_keys=True, indent=2))
        return 0 if summary.get("ok") else 1

    if args.command == "bounds":
        summary = run_experiment(_config(args), write=False)
        if "bound" not in summary:
            print(json.dumps(summary, sort_keys=True, indent=2))
            return 1
        print(json.dumps(summary["bound"], sort_keys=True, indent=2))
        return 0 if summary["bound"]["ok"] else 1

    if args.command == "verify":
        failures = 0
        for spec in builtin_semirings():
            for seed in range(1, args.seeds + 1):
                config = _config(args, semiring=spec.name, seed=seed)
                summary = run_experiment(config, write=False)
                ok = summary.get("ok", False)
                failures += 0 if ok else 1
                print(f"{'PASS' if ok else 'FAIL'} {config.prefix()} "
                      f"rounds={summary.get('rounds')}")
        return 0 if failures == 0 else 1

    if args.command == "bench":
        for n in args.sizes:
            reads_d = "d" in CASES[args.case].fields
            config = _config(args, n=n, **({"d": max(n // 4, 1)} if reads_d else {}))
            start = time.perf_counter()
            summary = run_experiment(config, write=False)
            elapsed = time.perf_counter() - start
            row = {
                "case": args.case,
                "n": n,
                "d": config.d,
                "rounds": summary.get("rounds"),
                "lower": (summary.get("bound") or {}).get("lower_rounds"),
                "ok": summary.get("ok"),
                "seconds": round(elapsed, 4),
            }
            print(json.dumps(row, sort_keys=True))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
