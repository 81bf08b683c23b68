"""Fast self-test of the benchmark: every workload at toy size.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans as sp  # noqa: E402
import worker  # noqa: E402

worker.import_program()
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# computed by run.py from traced and untraced repetitions together
RUN_LEVEL = {"trace.overhead_s"}

# (child, parent) span names every traced repetition of the workload shows
EXPECTED_EDGES = {
    "ranking-scale": [
        ("harness.run_experiment", sp.ROOT),
        ("core.run_erm_iteration", "harness.run_experiment"),
        ("ranking.build", "core.run_erm_iteration"),
        ("oracles.query_many", "ranking.build"),
        ("ranking.local_search_erm", "core.run_erm_iteration"),
        ("core.true_error", "core.run_erm_iteration"),
        ("oracles.verification_labels", "core.true_error"),
        ("seeding.pair_uniform", "oracles.verification_labels"),
        ("seeding.derive_rng", "core.run_erm_iteration"),
    ],
    "clustering-search": [
        ("clustering.build", "core.run_erm_iteration"),
        ("clustering.local_search_erm", "core.run_erm_iteration"),
    ],
    "small-sweep": [
        ("harness.sweep", sp.ROOT),
        ("harness.run_experiment", "harness.sweep"),
        ("ranking.exact_erm", "core.run_erm_iteration"),
        ("clustering.exact_erm", "core.run_erm_iteration"),
        ("ranking.exact_min_error", "harness.run_experiment"),
        ("clustering.exact_min_error", "harness.run_experiment"),
        ("generic.build", "harness.run_experiment"),
        ("generic.class_argmin", "harness.run_experiment"),
        ("generic.vc_dimension", "harness.run_experiment"),
        ("geometric.enumerate_orders_2d", "harness.run_experiment"),
        ("geometric.geometric_erm_2d", "core.run_erm_iteration"),
    ],
}


def read_spans(path):
    reps: dict[int, list] = {}
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            reps.setdefault(s["rep"], []).append(s)
    return list(reps.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_toy_run(workload, tmp_path):
    path = str(tmp_path / "spans.jsonl")
    out = worker.measure(workload, seed=1, budget_s=0.0, trace=True, toy=True, spans_path=path)
    reps = out["reps"]
    assert [r["traced"] for r in reps] == [False, False, True]
    for rep in reps:
        assert rep["ok"], rep["problems"]
    assert len({r["digest"] for r in reps}) == 1, "tracing changed the outputs"

    declared = {m["name"] for m in SPEC["per_layer"]} - RUN_LEVEL
    layers = reps[-1]["layers"]
    assert declared <= set(layers), declared - set(layers)
    assert layers["trace.uncovered_s"] >= 0

    (spans,) = read_spans(path)
    by_id = {s["id"]: s for s in spans}
    edges = {(s["name"], by_id[s["parent"]]["name"]) for s in spans if s["parent"] is not None}
    for edge in EXPECTED_EDGES[workload]:
        assert edge in edges, edge
    if workload == "small-sweep" and workloads.sweep_workers() > 1:
        threads = {s["thread"] for s in spans if s["name"] == "harness.run_experiment"}
        assert len(threads) > 1


def test_self_times_split_overlapping_threads():
    # root 0..10 on one thread; children a (1..5) and b (2..6) on two others
    spans = [
        (1, sp.ROOT, 0.0, 10.0, None, 0, None),
        (2, "a", 1.0, 5.0, 1, 1, None),
        (3, "b", 2.0, 6.0, 1, 2, None),
        (4, "c", 3.0, 4.0, 2, 1, None),
    ]
    assert sp.self_times(spans) == pytest.approx({1: 5.0, 2: 2.0, 3: 2.5, 4: 0.5})
    assert sp.union_length([(1.0, 5.0), (2.0, 6.0), (7.0, 8.0)]) == pytest.approx(6.0)
    assert sp.check_nesting(spans) == []
    assert sp.check_nesting(spans + [(5, "d", 9.0, 11.0, 1, 0, None)])


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_declared_metrics(trace, section):
    proc = run_cli(ROOT, "--workload", "clustering-search", "--seed", "2", "--seconds", "0.2",
                   "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli(tmp_path, "--workload", "small-sweep", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
