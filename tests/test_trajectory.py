"""scripts/trajectory.py --compare, run at toy size on this checkout against itself."""

import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "trajectory.py")


def _compare(*flags, other=ROOT):
    argv = [sys.executable, SCRIPT, "--compare", ROOT, other, "--toy", "--seconds", "0.1", *flags]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def test_compare_reports_every_pair_and_metric_in_under_10_s():
    t0 = time.monotonic()
    proc = _compare("--pairs", "2", "--workload", "clustering-search")
    assert time.monotonic() - t0 < 10.0
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    runs = [line for line in lines if line.startswith("clustering-search seed ")]
    # pair i runs at seed i; A goes first in pair 0 and B in pair 1
    assert [line.split(":")[0] for line in runs] == [
        "clustering-search seed 0 A", "clustering-search seed 0 B",
        "clustering-search seed 1 B", "clustering-search seed 1 A"]
    assert not any("NOT CORRECT" in line for line in lines)
    summary = json.loads(lines[-1])
    assert summary["not_correct"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    rows = summary["workloads"]["clustering-search"]
    assert set(rows) == names
    assert all(row["pairs"] == 2 for row in rows.values())
    for name in ("labels_distinct", "final_err"):  # the same code gives the same outputs
        row = rows[name]
        assert row["a_median"] == row["b_median"] and row["b_wins"] == 0
        assert row["change"] == 0.0 and not row["worse_than_bound"]
    # a host-speed probe is timed before every run and summarized per side
    assert all(" probe_s=" in line for line in runs)
    probe = summary["probe_s"]["clustering-search"]
    assert set(probe) == {"a_median", "b_median"}
    assert all(0 < value < 1 for value in probe.values())
    assert any(line.split()[1] == "host" for line in lines if line.startswith("clustering-search "))


def test_compare_flags_a_run_that_is_not_correct():
    proc = _compare("--pairs", "1", "--workload", "no-such-workload")
    assert proc.returncode == 1
    assert "NOT CORRECT" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["not_correct"] == 2


def test_compare_warns_when_the_checkout_paths_differ_in_length(tmp_path):
    """Heap layout, and so peak RSS, moves with the checkout path's length."""
    link = tmp_path / "checkout"
    if len(str(link)) == len(ROOT):
        link = tmp_path / "checkout-2"
    link.symlink_to(ROOT)
    warned, same = (_compare("--pairs", "1", "--workload", "no-such-workload", other=other)
                    for other in (str(link), ROOT))
    assert warned.stdout.startswith("warning: the checkout paths differ in length")
    assert "MALLOC_MMAP_THRESHOLD_=131072" in warned.stdout.splitlines()[0]
    assert "warning" not in same.stdout


def _summarize():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


_LOWER = {"unit": "s", "better": "lower", "bound": 0.1}
_HIGHER = {"unit": "ratio", "better": "higher", "bound": 0.1}
_TEN = [1.0 + i / 100 for i in range(10)]  # median 1.045, quartile spread 0.045
_SPREAD = [0.7, 0.9, 1.0, 1.1, 1.3]  # median 1.0, quartile spread 0.2, over 0.1 x 1.0


@pytest.mark.parametrize("metric, a, b, verdict", [
    (_LOWER, _TEN, [x + 0.15 for x in _TEN], "worse"),  # +14% against a 10% bound
    (_HIGHER, _TEN, [x - 0.15 for x in _TEN], "worse"),
    (_LOWER, _SPREAD, [x + 0.3 for x in _SPREAD], "worse"),  # worse comes before unresolved
    (_LOWER, _SPREAD, [x - 0.01 for x in _SPREAD], "unresolved"),  # B wins every pair
    (_LOWER, _SPREAD, [0.6, 0.6, 0.6, 0.65, 0.69], "gain"),  # every B run beats every A run
    (_LOWER, _TEN, [x - 0.06 for x in _TEN[:9]] + [1.10], "gain"),  # 9 of 10, by 0.06
    (_HIGHER, _TEN, [x + 0.06 for x in _TEN], "gain"),
    (_LOWER, _TEN, [x - 0.06 for x in _TEN[:8]] + [1.09, 1.10], "same"),  # 8 of 10
    (_LOWER, _TEN, [x - 0.02 for x in _TEN], "same"),  # by less than A's spread
    (_LOWER, _TEN, _TEN, "same"),  # ties count for neither side
], ids=["worse", "worse-higher", "worse-first", "unresolved", "beats-every-run", "gain",
        "gain-higher", "too-few-wins", "within-spread", "ties"])
def test_summary_gives_the_benchmark_verdict(metric, a, b, verdict):
    row = _summarize()(metric, a, b)
    assert row["verdict"] == verdict
    assert row["worse_than_bound"] == (verdict == "worse")
