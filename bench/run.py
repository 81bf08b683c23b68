"""pivotlearn benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload ranking-scale --seed 0 --seconds 10 --trace 0

Workloads, metric names, units and bounds come from BENCHMARK.json at the
repository root.  With ``--trace 0`` the workload runs in SETUPS fresh
processes one after another; each imports pivotlearn, runs one cold
repetition, then timed repetitions for its share of ``--seconds``.  The
metrics are

* run_s           median wall time of one timed repetition, all processes;
* setup_s         median time from process spawn to the first timed
                  repetition (interpreter, imports, one cold repetition);
* peak_rss_mb     median over the processes of their peak resident set;
* labels_distinct distinct labeled pairs summed over one repetition's runs;
* final_err       mean final error of one repetition's runs.

With ``--trace 1`` one process alternates untraced and traced repetitions
and reports the per-layer metrics (medians over traced repetitions); raw
spans go to bench/out/.  Outputs are checked in both modes: invariants at
any seed, byte-identical outputs across all repetitions (traced or not),
and the golden digest at the default seed.  The last stdout line is the
JSON result; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUPS = 3
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def spawn_worker(spec: dict, timeout: float) -> tuple[float, dict]:
    """(spawn time on the monotonic clock, worker result) for one fresh process."""
    env = dict(os.environ, **BLAS_ENV)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return t_spawn, json.loads(lines[-1])


def percentile_note(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, and the count."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 samples beyond it ({n} samples)"
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return f"p{p} {sorted(values)[rank - 1]:.6g} ({n} samples)"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")

    def read(*parts) -> str:
        with open(os.path.join(git, *parts)) as fh:
            return fh.read()

    try:
        head = read("HEAD").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            return read(ref).strip()
        for line in read("packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over src/pivotlearn/*.py, naming the code when git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "pivotlearn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_outputs(reps: list[dict], workload: str, seed: int, toy: bool) -> list[str]:
    """Mark repetitions whose outputs differ from the reference as failed.

    The reference is the golden digest at the default seed, else the first
    repetition's digest: every repetition, traced or not, must match it.
    """
    golden = load_json(os.path.join(BENCH, "golden.json"))
    if not toy and seed == golden["seed"]:
        want, source = golden["sha256"][workload], f"the golden digest at seed {seed}"
    else:
        want = next((rep["digest"] for rep in reps if rep["ok"]), None)
        source = "the first repetition"
    problems = []
    for i, rep in enumerate(reps):
        if rep["ok"] and rep["digest"] != want:
            rep["ok"] = False
            rep["problems"].append(f"output digest {rep['digest']} differs from {source}")
        kind = "traced" if rep["traced"] else "untraced"
        problems += [f"repetition {i} ({kind}): {p}" for p in rep["problems"]]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "pivotlearn", "__init__.py")):
        print(f"benchmark: no src/pivotlearn under {ROOT}", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"benchmark: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("benchmark: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    processes = 1 if trace else SETUPS
    spans_path = os.path.join(BENCH, "out", f"spans-{args.workload}-{args.seed}.jsonl")
    outcomes = []
    try:
        for _ in range(processes):
            remaining = DEADLINE_S - (time.monotonic() - t_start)
            outcomes.append(spawn_worker({
                "workload": args.workload, "seed": args.seed, "toy": args.toy,
                "budget_s": args.seconds / processes, "trace": trace,
                "spans_path": spans_path if trace else None,
            }, timeout=max(1.0, remaining)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    reps = [rep for _, out in outcomes for rep in out["reps"]]
    problems = check_outputs(reps, args.workload, args.seed, args.toy)
    failed = sum(not rep["ok"] for rep in reps)
    timed = [rep for rep in reps if rep["ok"] and not rep.get("cold")]
    untraced = [rep["wall_s"] for rep in timed if not rep["traced"]]
    first = next((rep for rep in reps if rep["ok"]), None)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": outcomes[0][1]["python"], "numpy": outcomes[0][1]["numpy"],
        "commit": git_commit(), "src_sha256": source_digest(), "blas_threads": 1,
    }
    print("env " + json.dumps(env, sort_keys=True))

    if trace:
        declared = spec["per_layer"]
        traced = [rep["layers"] for rep in timed if rep["traced"]]
        measured = {key: statistics.median(r[key] for r in traced) for key in traced[0]} if traced else {}
        if traced and untraced:
            walls = [rep["wall_s"] for rep in timed if rep["traced"]]
            measured["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    else:
        declared = spec["end_to_end"]
        setups = [out["t_ready"] - t_spawn for t_spawn, out in outcomes]
        measured = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(out["peak_rss_mb"] for _, out in outcomes),
        }
        if untraced:
            measured["run_s"] = statistics.median(untraced)
        if first is not None:
            measured["labels_distinct"] = first["labels_distinct"]
            measured["final_err"] = first["final_err"]
        print(f"run_s median {measured.get('run_s', float('nan')):.6g} s; "
              f"{percentile_note(untraced)}; closed loop, 1 client")
        print(f"setup_s per process {[round(s, 4) for s in setups]}")
    print(f"error_rate {failed}/{len(reps)} = {failed / len(reps):.4g} (failed/attempted repetitions)")

    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {measured[m['name']]:>14.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
