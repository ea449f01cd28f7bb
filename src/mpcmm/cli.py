"""Command line entry point.

Subcommands: ``run`` (one experiment with artifacts), ``bounds`` (lower
bound vs measured rounds as JSON), ``verify`` (oracle battery across
semirings and seeds, nonzero exit on any failure), ``bench`` (round
count sweep).  The default artifact directory comes from the
``MPCMM_OUTDIR`` environment variable.  A bad input or an inconsistent
config (a ``ValueError``) prints one error line and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .experiment import CASES, INSTANCE_KINDS, ExperimentConfig, run_experiment
from .semiring import builtin_semirings


def _add_common(p):
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--semiring", default="int",
                   choices=[spec.name for spec in builtin_semirings()])
    p.add_argument("--cap-factor", type=int, default=4)
    p.add_argument("--outdir", default=None)


def _run_parsers(sub):
    run = sub.add_parser("run", help="run one experiment and write artifacts")
    cases = run.add_subparsers(dest="case", required=True)

    square = cases.add_parser("square")
    square.add_argument("--n", type=int, required=True)
    square.add_argument("--alpha", type=float, default=1.0)
    square.add_argument("--redistribute", action="store_true")
    _add_common(square)

    ndn = cases.add_parser("ndn")
    ndn.add_argument("--n", type=int, required=True)
    ndn.add_argument("--d", type=int, required=True)
    _add_common(ndn)

    dnd = cases.add_parser("dnd")
    dnd.add_argument("--n", type=int, required=True)
    dnd.add_argument("--d", type=int, required=True)
    dnd.add_argument("--procs", choices=["n", "d"], required=True)
    _add_common(dnd)

    sparse = cases.add_parser("sparse")
    sparse.add_argument("--n", type=int, required=True)
    sparse.add_argument("--d", type=int, required=True)
    sparse.add_argument("--eps", type=float, default=0.1)
    sparse.add_argument("--mode", choices=["trivial", "twophase"], default="twophase")
    sparse.add_argument("--instance", choices=INSTANCE_KINDS, default="random")
    sparse.add_argument("--file-a", default="")
    sparse.add_argument("--file-b", default="")
    _add_common(sparse)


def _config_from(args) -> ExperimentConfig:
    case = args.case
    if case == "dnd":
        case = f"dnd-{args.procs}"
    elif case == "sparse":
        case = f"sparse-{args.mode}"
    return ExperimentConfig(
        case=case,
        n=args.n,
        d=getattr(args, "d", 0),
        alpha=getattr(args, "alpha", 1.0),
        semiring=args.semiring,
        seed=args.seed,
        eps=getattr(args, "eps", 0.1),
        cap_factor=args.cap_factor,
        instance=getattr(args, "instance", "random"),
        redistribute=getattr(args, "redistribute", False),
        file_a=getattr(args, "file_a", ""),
        file_b=getattr(args, "file_b", ""),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mpcmm")
    sub = parser.add_subparsers(dest="command", required=True)
    _run_parsers(sub)

    bounded = [name for name, case in CASES.items() if case.lower is not None]
    bounds = sub.add_parser("bounds", help="lower bound vs measured rounds")
    bounds.add_argument("--case", choices=bounded, required=True)
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--d", type=int, default=0)
    bounds.add_argument("--alpha", type=float, default=1.0)
    _add_common(bounds)

    verify = sub.add_parser("verify", help="oracle battery across semirings and seeds")
    verify.add_argument("--case", choices=list(CASES), required=True)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--d", type=int, default=0)
    verify.add_argument("--alpha", type=float, default=1.0)
    verify.add_argument("--eps", type=float, default=0.1)
    verify.add_argument("--seeds", type=int, default=3)
    verify.add_argument("--instance", choices=["random", "blockdiag"], default="random")
    verify.add_argument("--cap-factor", type=int, default=4)

    bench = sub.add_parser("bench", help="round counts across a size sweep")
    bench.add_argument("--case", choices=bounded, required=True)
    bench.add_argument("--sizes", type=int, nargs="+", required=True, help="values of n")
    bench.add_argument("--d", type=int, default=0)
    bench.add_argument("--alpha", type=float, default=1.0)
    _add_common(bench)

    args = parser.parse_args(argv)
    try:
        return _command(args)
    except ValueError as err:
        # Bad inputs and inconsistent configs are typed errors, not crashes.
        print(f"mpcmm: error: {err}", file=sys.stderr)
        return 2


def _command(args) -> int:
    if args.command == "run":
        summary = run_experiment(_config_from(args), out_dir=args.outdir)
        print(json.dumps(summary, sort_keys=True, indent=2))
        return 0 if summary.get("ok") else 1

    if args.command == "bounds":
        config = ExperimentConfig(
            case=args.case, n=args.n, d=args.d, alpha=args.alpha,
            semiring=args.semiring, seed=args.seed, cap_factor=args.cap_factor,
        )
        summary = run_experiment(config, out_dir=args.outdir, write=False)
        if "bound" not in summary:
            print(json.dumps(summary, sort_keys=True, indent=2))
            return 1
        print(json.dumps(summary["bound"], sort_keys=True, indent=2))
        return 0 if summary["bound"]["ok"] else 1

    if args.command == "verify":
        failures = 0
        for spec in builtin_semirings():
            for seed in range(1, args.seeds + 1):
                config = ExperimentConfig(
                    case=args.case, n=args.n, d=args.d, alpha=args.alpha,
                    semiring=spec.name, seed=seed, eps=args.eps,
                    cap_factor=args.cap_factor, instance=args.instance,
                )
                summary = run_experiment(config, write=False)
                ok = summary.get("ok", False)
                failures += 0 if ok else 1
                print(f"{'PASS' if ok else 'FAIL'} {config.prefix()} "
                      f"rounds={summary.get('rounds')}")
        return 0 if failures == 0 else 1

    if args.command == "bench":
        for n in args.sizes:
            config = ExperimentConfig(
                case=args.case, n=n, d=args.d or max(n // 4, 1), alpha=args.alpha,
                semiring=args.semiring, seed=args.seed, cap_factor=args.cap_factor,
            )
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
