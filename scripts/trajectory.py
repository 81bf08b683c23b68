"""Compare two pivotlearn checkouts on the benchmark's end-to-end metrics.

    python3 scripts/trajectory.py --compare PARENT CHANGE --pairs 5

For each workload and each pair i of N, runs

    python3 A/bench/run.py --workload W --seed i --seconds S --trace 0

in checkout A and the same command in checkout B, alternating which side goes
first (A first on even pairs), each in a fresh process.  Every run is printed
as it finishes; each side's first run per workload also prints the env line
bench/run.py wrote (commit, source digest, Python, numpy, cores).  Then, per
workload and end-to-end metric (names, units, directions and bounds from A's
BENCHMARK.json): A's and B's medians, B's change against A's median, A's
quartile spread, B's wins (pairs where B reads better, ties counting for
neither) and the verdict the benchmark's rules give, the first that holds of

    worse       B's median is worse than A's by more than the bound
    unresolved  A's quartile spread exceeds bound x |A's median|, unless
                every B run beats every A run
    gain        B wins at least 90% of the pairs, and its median beats A's
                by more than A's quartile spread
    same        none of these

Before each run a host-speed probe, the best of 3 np.sort calls on a fixed
2**20-element float64 array, is timed in a fresh process and printed beside
the run; each side's probe median per workload goes in the table and the
JSON, so host drift between the sides can be told from a change in the code.
A run that is not `correct` (a failed output check, a failed repetition or no
result at all) is flagged, and the exit code is then 1.  The last stdout line
is the summary as JSON.

peak_rss_mb follows glibc's heap layout as well as live data, and the layout
moves with the length of the checkout path: ranking-scale has read anywhere
from 57.8 to 61.2 MB for the same code.  So a warning is printed first when
A's and B's paths differ in length.  bench/run.py passes its environment to
its workers, so

    MALLOC_MMAP_THRESHOLD_=131072 python3 scripts/trajectory.py --compare A B

gives the fixed-threshold reading, with glibc's dynamic mmap threshold off.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600.0

PROBE = ("import timeit; import numpy as np; values = np.random.default_rng(0).random(1 << 20); "
         "print(min(timeit.repeat(lambda: np.sort(values), number=1, repeat=3)))")


def host_probe_s() -> float:
    """Seconds of the best of 3 np.sort calls on a fixed 2**20-element float64 array, timed
    in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return float(proc.stdout)


def bench_run(checkout: str, workload: str, seed: int, seconds: float, toy: bool) -> dict:
    """bench/run.py's final JSON line for one run, plus its env line; `correct` False on failure."""
    argv = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *(["--toy"] * toy)]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "metrics": {}, "why": f"no result in {RUN_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        why = f"exit {proc.returncode}, no result line: {proc.stderr.strip()[-300:]}"
        return {"correct": False, "metrics": {}, "why": why}
    env = next((line[4:] for line in lines if line.startswith("env ")), None)
    result["env"] = json.loads(env) if env else None
    if not result.get("correct"):
        checks = [line for line in lines if line.startswith("CHECK FAILED")]
        result["why"] = "; ".join(checks) or f"exit {proc.returncode}"
    return result


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metric: dict, a: list[float], b: list[float]) -> dict:
    """Medians, A's quartile spread, B's wins over the pairs and the benchmark's verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    a_iqr = quartile_spread(a)
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    worse = sign * change > bound
    if worse:
        verdict = "worse"
    elif a_iqr > bound * abs(a_med) and max(sign * y for y in b) >= min(sign * x for x in a):
        verdict = "unresolved"
    elif wins >= 0.9 * len(a) and sign * (a_med - b_med) > a_iqr:
        verdict = "gain"
    else:
        verdict = "same"
    return {
        "unit": metric["unit"], "a_median": a_med, "b_median": b_med, "change": change,
        "a_iqr": a_iqr, "b_wins": wins, "pairs": len(a), "bound": bound,
        "worse_than_bound": worse, "verdict": verdict,
    }


def compare(a: str, b: str, workloads: list[str], pairs: int, seconds: float, toy: bool,
            metrics: list[dict]) -> tuple[dict, dict, int]:
    """(summary per workload and metric, each side's probe median per workload, number of
    runs that were not correct)."""
    summary, probes, not_correct = {}, {}, 0
    for workload in workloads:
        runs = {"A": [], "B": []}
        probe = {"A": [], "B": []}
        for seed in range(pairs):
            for side in ("AB" if seed % 2 == 0 else "BA"):
                probe[side].append(host_probe_s())
                result = bench_run(a if side == "A" else b, workload, seed, seconds, toy)
                runs[side].append(result)
                values = {name: m["value"] for name, m in result["metrics"].items()}
                flag = "" if result["correct"] else f"  NOT CORRECT: {result.get('why', '')}"
                print(f"{workload} seed {seed} {side}: probe_s={probe[side][-1]:.6g} "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()) + flag, flush=True)
                not_correct += not result["correct"]
                if seed == 0 and result.get("env"):  # each side's first run names its code and host
                    print(f"  {side} env {json.dumps(result['env'], sort_keys=True)}")
        summary[workload] = {}
        for metric in metrics:
            name = metric["name"]
            kept = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                    for x, y in zip(runs["A"], runs["B"])
                    if name in x["metrics"] and name in y["metrics"]]
            if kept:
                summary[workload][name] = summarize(metric, *map(list, zip(*kept)))
        probes[workload] = {f"{side.lower()}_median": statistics.median(times)
                            for side, times in probe.items()}
    return summary, probes, not_correct


def print_table(summary: dict, probes: dict) -> None:
    print(f"{'workload':<18} {'metric':<16} {'A median':>12} {'B median':>12} {'change':>8} "
          f"{'A IQR':>10} {'B wins':>7} {'verdict':<10}")
    for workload, rows in summary.items():
        for name, s in rows.items():
            print(f"{workload:<18} {name:<16} {s['a_median']:>12.6g} {s['b_median']:>12.6g} "
                  f"{s['change']:>+8.2%} {s['a_iqr']:>10.4g} {s['b_wins']:>3}/{s['pairs']:<3}"
                  f" {s['verdict']:<10} {s['unit']}")
        a_med, b_med = probes[workload]["a_median"], probes[workload]["b_median"]
        print(f"{workload:<18} {'host probe_s':<16} {a_med:>12.6g} {b_med:>12.6g} "
              f"{(b_med - a_med) / a_med:>+8.2%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), required=True,
                    help="two checkouts: the base and the change")
    ap.add_argument("--pairs", type=int, default=5, help="interleaved pairs per workload")
    ap.add_argument("--workload", action="append", help="repeatable; default every workload")
    ap.add_argument("--seconds", type=float, default=None,
                    help="bench/run.py --seconds (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    a, b = (os.path.abspath(path) for path in args.compare)
    for checkout in (a, b):
        if not os.path.isfile(os.path.join(checkout, "bench", "run.py")):
            ap.error(f"{checkout} has no bench/run.py")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if len(a) != len(b):
        print(f"warning: the checkout paths differ in length ({len(a)} and {len(b)} characters), "
              "and glibc's heap layout, so peak_rss_mb, can move with that alone; compare from "
              "paths of equal length, or under MALLOC_MMAP_THRESHOLD_=131072", flush=True)
    with open(os.path.join(a, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    summary, probes, not_correct = compare(a, b, workloads, args.pairs, seconds, args.toy,
                                           spec["end_to_end"])
    print_table(summary, probes)
    print(f"{not_correct} run(s) not correct")
    print(json.dumps({"a": a, "b": b, "not_correct": not_correct, "workloads": summary,
                      "probe_s": probes}))
    return 1 if not_correct else 0


if __name__ == "__main__":
    sys.exit(main())
