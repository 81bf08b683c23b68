"""Command-line front end.

Subcommands: run (one experiment), sweep (vary one axis), verify (named
property suites), oracle-gen (materialize a label oracle to CSV), theta
(disagreement-coefficient reports).  Exit codes: 0 success, 1 verification
or run failure, 2 config error.  PIVOTLEARN_OUT sets the default output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import clustering as clu
from . import generic as gen
from . import ranking as rk
from .harness import (
    SWEEP_AXES,
    TASKS,
    ConfigError,
    ExperimentConfig,
    experiment_oracle,
    run,
    sweep,
)
from .oracles import save_oracle
from .verify import SUITES, run_suite

_ENV_OUT = "PIVOTLEARN_OUT"


def _default_out(kind: str) -> str:
    return os.path.join(os.environ.get(_ENV_OUT, "pivotlearn-out"), kind)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; overrides the flags below")
    parser.add_argument("--task", choices=TASKS, help="hypothesis class to learn")
    parser.add_argument("--n", type=int, help="item count (pool size for generic)")
    parser.add_argument("--k", type=int, help="cluster capacity (clustering)")
    parser.add_argument("--d", type=int, help="feature dimension (geometric, must be 2)")
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--mu", type=float, default=None, help="smoothing floor, default 1/N")
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--c1", type=float, default=1.0, help="ranking sample-size constant")
    parser.add_argument("--c2", type=float, default=1.0, help="clustering sample-size constant")
    parser.add_argument("--c3", type=float, default=1.0, help="generic sample-size constant")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--noise", choices=("none", "uniform_flip", "distance_decay"),
                        default="none")
    parser.add_argument("--eta", type=float, default=0.0, help="uniform flip probability")
    parser.add_argument("--rho", type=float, default=1.0, help="distance-decay exponent")
    parser.add_argument("--scale", type=float, default=0.5, help="distance-decay scale")
    parser.add_argument("--erm", choices=("exact", "local_search"), default="exact")
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--force-p", type=int, default=None, help="override ranking sample size")
    parser.add_argument("--force-q", type=int, default=None, help="override clustering sample size")
    parser.add_argument("--force-m", type=int, default=None, help="override generic sample size")
    parser.add_argument("--oracle-file", default=None, help="labels CSV to load instead of synthesizing")
    parser.add_argument("--class-file", default=None, help="hypothesis CSV for generic runs")
    parser.add_argument("--out", default=None, help="output directory")


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            return ExperimentConfig.from_dict(json.load(fh))
    if args.task is None or args.n is None:
        raise ConfigError("task" if args.task is None else "n",
                          "required (pass flags or --config)")
    return ExperimentConfig.from_dict({
        "task": args.task,
        "n": args.n,
        "k": args.k,
        "d": args.d,
        "params": {
            "epsilon": args.epsilon,
            "mu": args.mu,
            "delta": args.delta,
            "iterations": args.iterations,
            "c1": args.c1,
            "c2": args.c2,
            "c3": args.c3,
            "master_seed": args.seed,
        },
        "noise": {"kind": args.noise, "eta": args.eta, "rho": args.rho, "scale": args.scale},
        "erm": args.erm,
        "restarts": args.restarts,
        "force_p": args.force_p,
        "force_q": args.force_q,
        "force_m": args.force_m,
        "oracle_path": args.oracle_file,
        "class_path": args.class_file,
        "output_dir": args.out,
    })


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    out_dir = args.out or config.output_dir or _default_out("run")
    record = run(config, out_dir)
    final = record.final_err
    print(f"task={config.task} n={config.n} status={record.trajectory.status}")
    print(f"final_err={final}" + (f" nu={record.nu} excess={record.final_excess}"
                                  if record.nu is not None else ""))
    print(f"distinct_queries={record.counters['distinct_labeled']}")
    print(f"artifacts: {out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    template = _config_from_args(args)
    kind = float if args.axis == "epsilon" else int
    try:
        values = [kind(chunk) for chunk in args.values.split(",") if chunk.strip()]
    except ValueError:
        raise ConfigError("values", f"{args.axis} takes {kind.__name__} values, got "
                                    f"{args.values!r}") from None
    out_dir = args.out or template.output_dir or _default_out("sweep")
    _, summary = sweep(template, args.axis, values, workers=args.workers, out_dir=out_dir)
    print(f"{args.axis:>10}  {'queries':>10}  {'final_err':>12}  {'excess':>12}")
    for value, queries, err, _nu, excess, _mx in summary:
        excess_s = "-" if excess is None else f"{excess:.6f}"
        print(f"{value!s:>10}  {queries:>10}  {err:>12.6f}  {excess_s:>12}")
    print(f"artifacts: {out_dir}")
    return 0


def _cmd_verify(args) -> int:
    unknown = [s for s in args.suites if s not in SUITES]
    if unknown:
        raise ConfigError("suite", f"unknown: {', '.join(unknown)}")
    reports = [run_suite(s) for s in args.suites or SUITES]
    failed = 0
    for report in reports:
        for result in report.results:
            mark = "PASS" if result.passed else "FAIL"
            line = f"[{mark}] {report.suite}: {result.name}"
            if not result.passed:
                failed += 1
                line += f"  ({result.detail})"
            print(line)
    print(f"{len(reports)} suites, {failed} failing properties")
    return 1 if failed else 0


def _cmd_oracle_gen(args) -> int:
    # erm and epsilon do not shape the labels; local search takes any n
    oracle = experiment_oracle(ExperimentConfig.from_dict({
        "task": args.task, "n": args.n, "k": args.k, "erm": "local_search",
        "params": {"epsilon": 0.2, "master_seed": args.seed},
        "noise": {"kind": args.noise, "eta": args.eta, "rho": args.rho, "scale": args.scale},
    }))
    out_csv = args.out or os.path.join(_default_out("oracle"), f"{args.task}-n{args.n}.csv")
    os.makedirs(os.path.dirname(out_csv) or ".", exist_ok=True)
    sidecar = save_oracle(oracle, out_csv)
    print(f"labels:  {out_csv}")
    print(f"sidecar: {sidecar}")
    err = oracle.ground_truth_error()
    if err is not None:
        print(f"realized ground-truth error: {err:.6f}")
    return 0


def _theta_class(args) -> gen.FiniteClass:
    if args.family == "thresholds":
        return gen.thresholds_class(args.pool)
    if args.family == "intervals":
        return gen.intervals_class(args.pool)
    if args.family == "permutations":
        limits = (("n", 2, rk._SN_CLASS_MAX_N),)
    else:
        limits = (("n", 2, clu._EXACT_ERM_MAX_N), ("k", 1, clu._EXACT_ERM_MAX_K))
    for name, low, high in limits:
        value = getattr(args, name)
        if value is None or not low <= value <= high:
            kind = args.family[:-1]  # "permutation" or "partition"
            raise ConfigError(name, f"{kind} classes are enumerated for {low} <= {name} <= {high}")
    if args.family == "permutations":
        return rk.enumerate_sn_class(args.n)
    return clu.enumerate_partitions_class(args.n, args.k)


def _cmd_theta(args) -> int:
    cls = _theta_class(args)
    r_floor = args.r_floor if args.r_floor is not None else 1.0 / cls.pool_size
    if args.uniform:
        theta, pivot = gen.uniform_disagreement_coefficient(cls, r_floor)
        kind = "uniform"
    else:
        pivot = args.pivot
        if not (0 <= pivot < len(cls)):
            raise ConfigError("pivot", f"must be in 0..{len(cls) - 1}")
        theta = gen.disagreement_coefficient(cls, pivot, r_floor)
        kind = "pivot"
    print(f"family={args.family} hypotheses={len(cls)} pool={cls.pool_size}")
    print(f"theta[{kind}={int(pivot)}] at r_floor={float(r_floor)!r}: {float(theta)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotlearn",
        description="Query-efficient learning of rankings, clusterings, and finite classes "
                    "from pairwise labels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its artifacts")
    _add_config_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per value of an axis")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run named property suites")
    p_verify.add_argument("suites", nargs="*", metavar="suite",
                          help=f"suites to run (default: all). Known: {', '.join(sorted(SUITES))}")
    p_verify.set_defaults(fn=_cmd_verify)

    p_gen = sub.add_parser("oracle-gen", help="synthesize and persist a label oracle")
    p_gen.add_argument("--task", choices=("ranking", "clustering"), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--noise", choices=("none", "uniform_flip", "distance_decay"),
                       default="none")
    p_gen.add_argument("--eta", type=float, default=0.0)
    p_gen.add_argument("--rho", type=float, default=1.0)
    p_gen.add_argument("--scale", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output CSV path")
    p_gen.set_defaults(fn=_cmd_oracle_gen)

    p_theta = sub.add_parser("theta", help="disagreement-coefficient report for a class")
    p_theta.add_argument("--family", choices=("thresholds", "intervals", "permutations",
                                              "partitions"), required=True)
    p_theta.add_argument("--pool", type=int, default=40, help="pool size (thresholds/intervals)")
    p_theta.add_argument("--n", type=int, default=None, help="items (permutations/partitions)")
    p_theta.add_argument("--k", type=int, default=None, help="cluster cap (partitions)")
    p_theta.add_argument("--pivot", type=int, default=0)
    p_theta.add_argument("--uniform", action="store_true", help="max over all pivots")
    p_theta.add_argument("--r-floor", type=float, default=None)
    p_theta.set_defaults(fn=_cmd_theta)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
