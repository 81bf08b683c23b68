"""Outside-in tracing of pivotlearn's public functions.

`install(tracer)` swaps every traced function for a timing wrapper under each
name it is bound to: the defining module, every pivotlearn module that
imported it (``harness.true_error`` as well as ``core.true_error``, the
``derive_rng`` bound in each module) and the package namespace.  Oracle
methods are patched on their classes.  `uninstall()` puts the originals
back.  Wrappers only observe: they pass arguments and results through
untouched, so a traced run must produce byte-identical outputs.

Spans are kept in memory as tuples and summarised after a repetition, never
during it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); methods are "Class.method".
TARGETS = (
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.sweep", "harness", "sweep"),
    ("core.run_erm_iteration", "core", "run_erm_iteration"),
    ("core.true_error", "core", "true_error"),
    ("oracles.query_many", "oracles", "LabelOracle.query_many"),
    ("oracles.query_many", "oracles", "InstanceOracle.query_many"),
    ("oracles.verification_labels", "oracles", "LabelOracle.verification_labels"),
    ("oracles.verification_labels", "oracles", "InstanceOracle.verification_labels"),
    ("seeding.derive_rng", "seeding", "derive_rng"),
    ("seeding.pair_uniform", "seeding", "pair_uniform"),
    ("ranking.build", "ranking", "build_ranking_estimator"),
    ("ranking.local_search_erm", "ranking", "local_search_erm"),
    ("ranking.exact_erm", "ranking", "exact_erm"),
    ("ranking.exact_min_error", "ranking", "exact_min_error"),
    ("clustering.build", "clustering", "build_clustering_estimator"),
    ("clustering.local_search_erm", "clustering", "local_search_erm"),
    ("clustering.exact_erm", "clustering", "exact_erm"),
    ("clustering.exact_min_error", "clustering", "exact_min_error"),
    ("generic.build", "generic", "build_generic_estimator"),
    ("generic.class_argmin", "generic", "class_argmin"),
    ("generic.disagreement_coefficient", "generic", "disagreement_coefficient"),
    ("generic.vc_dimension", "generic", "vc_dimension"),
    ("geometric.enumerate_orders_2d", "geometric", "enumerate_orders_2d"),
    ("geometric.geometric_erm_2d", "geometric", "geometric_erm_2d"),
)
LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
ROOT = "bench.repetition"
BUILDERS = ("ranking.build", "clustering.build", "generic.build")


class Tracer:
    """In-memory span store; one per traced repetition.

    A span is (id, name, start, end, parent id, thread id, attrs).  A span
    opened on a thread with no open span of its own (a sweep worker thread)
    takes the innermost open span of the opening thread as its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.estimators: list[tuple] = []  # (builder span name, estimator)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, probe):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        tid = threading.get_ident()
        before = probe(args, None, None) if probe else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, tid, None))
            raise
        t1 = time.perf_counter()
        stack.pop()
        attrs = probe(args, before, result) if probe else None
        self.spans.append((sid, name, t0, t1, parent, tid, attrs))
        if name in BUILDERS:
            self.estimators.append((name, result))
        return result

    def repetition(self, fn):
        """Run fn() inside the root span; returns (result, wall seconds)."""
        result = self.call(ROOT, fn, (), {}, None)
        span = self.spans[-1]
        return result, span[3] - span[2]


def _oracle_probe(args, before, result):
    # query_many: raw pairs asked and new distinct pairs, from the counters
    counters = args[0].counters
    if result is None:
        return counters.distinct_labeled
    return {"pairs": len(result), "fresh": counters.distinct_labeled - before}


def _length_probe(args, before, result):
    return None if result is None else {"pairs": len(result)}


def _true_error_probe(args, before, result):
    reads = args[1].counters.verification_reads
    return reads if result is None else {"pairs": reads - before}


def _build_probe(args, before, result):
    return None if result is None else {"samples": result.n_samples}


def _orders_probe(args, before, result):
    return None if result is None else {"orders": len(result[0])}


PROBES = {
    "oracles.query_many": _oracle_probe,
    "oracles.verification_labels": _length_probe,
    "core.true_error": _true_error_probe,
    "ranking.build": _build_probe,
    "clustering.build": _build_probe,
    "generic.build": _build_probe,
    "geometric.enumerate_orders_2d": _orders_probe,
}


def _wrapper(tracer: Tracer, name: str, fn):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, probe)

    return traced


class Installation:
    """The set of (namespace, attribute, original) swaps made by install()."""

    def __init__(self):
        self.swaps: list[tuple] = []

    def uninstall(self):
        for owner, attr, original in reversed(self.swaps):
            setattr(owner, attr, original)
        self.swaps.clear()


def install(tracer: Tracer) -> Installation:
    """Patch every binding of every target with a wrapper feeding `tracer`."""
    modules = [
        m for key, m in sys.modules.items() if key == "pivotlearn" or key.startswith("pivotlearn.")
    ]
    inst = Installation()
    for name, module_name, attr in TARGETS:
        module = sys.modules[f"pivotlearn.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            inst.swaps.append((owner, method, original))
            setattr(owner, method, _wrapper(tracer, name, original))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    inst.swaps.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return inst


# -- summaries -----------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Per-span self time.

    Between two consecutive span boundaries the elapsed time goes to the open
    spans that have no open child.  On one thread that is exactly span time
    minus child-covered time; when k sweep threads are open at once, the
    interval is split k ways, so self times still add up to wall time.
    """
    events = []
    for sid, _name, t0, t1, parent, _tid, _attrs in spans:
        events.append((t0, 1, sid, parent))
        events.append((t1, 0, sid, parent))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, kind, sid, parent in events:
        dt = t - last
        if dt > 0 and leaves:
            share = dt / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        if kind == 1:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


def union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    start = None
    for t0, t1 in sorted(intervals):
        if t0 > end:
            if start is not None:
                total += end - start
            start, end = t0, t1
        else:
            end = max(end, t1)
    if start is not None:
        total += end - start
    return total


def _ess_ratio(est) -> float:
    w = est.weight_num.astype(np.float64)
    if len(w) == 0:
        return 0.0
    return float(w.sum() ** 2 / (w @ w)) / len(w)


def check_nesting(spans) -> list[str]:
    """Each span lies inside its parent's interval; one root per repetition."""
    by_id = {s[0]: s for s in spans}
    problems = []
    roots = [s for s in spans if s[4] is None]
    if len(roots) != 1 or roots[0][1] != ROOT:
        problems.append(f"expected one {ROOT} root span, found {[s[1] for s in roots]}")
    for sid, name, t0, t1, parent, _tid, _attrs in spans:
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"{name} span {sid} has unknown parent {parent}")
        elif not (p[2] <= t0 and t1 <= p[3]):
            problems.append(f"{name} span {sid} escapes its parent {p[1]}")
    return problems


def summarize(tracer: Tracer, workers: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced repetition, plus any check failures.

    Checks: span nesting, the pivot of every built estimator evaluating to
    exactly 0, and self times plus uncovered time adding up to the wall time.
    """
    spans = tracer.spans
    problems = check_nesting(spans)
    own = self_times(spans)
    root = next(s for s in spans if s[1] == ROOT)
    wall = root[3] - root[2]
    layer_spans = [s for s in spans if s[1] != ROOT]
    uncovered = wall - union_length((s[2], s[3]) for s in layer_spans)

    metrics: dict[str, float] = {}
    sums: dict[str, dict[str, float]] = {name: defaultdict(float) for name in LAYER_NAMES}
    for sid, name, t0, t1, _parent, _tid, attrs in layer_spans:
        acc = sums[name]
        acc["calls"] += 1
        acc["self_s"] += own.get(sid, 0.0)
        acc["span_s"] += t1 - t0
        for key, value in (attrs or {}).items():
            acc[key] += value
    for name in LAYER_NAMES:
        acc = sums[name]
        metrics[f"{name}.calls"] = int(acc["calls"])
        metrics[f"{name}.self_s"] = acc["self_s"]
    for name in ("core.true_error", "oracles.verification_labels", "oracles.query_many"):
        metrics[f"{name}.pairs"] = int(sums[name]["pairs"])
    q = sums["oracles.query_many"]
    metrics["oracles.query_many.fresh_ratio"] = q["fresh"] / q["pairs"] if q["pairs"] else 0.0
    for name in BUILDERS:
        metrics[f"{name}.samples"] = int(sums[name]["samples"])
        ratios = [_ess_ratio(est) for n_, est in tracer.estimators if n_ == name]
        metrics[f"{name}.ess_ratio"] = float(np.mean(ratios)) if ratios else 0.0
    metrics["geometric.enumerate_orders_2d.orders"] = int(sums["geometric.enumerate_orders_2d"]["orders"])
    sweep_s = sums["harness.sweep"]["span_s"]
    sweep_ids = {s[0] for s in layer_spans if s[1] == "harness.sweep"}
    in_sweep = sum(
        s[3] - s[2] for s in layer_spans if s[1] == "harness.run_experiment" and s[4] in sweep_ids
    )
    metrics["harness.sweep.parallel_efficiency"] = in_sweep / (workers * sweep_s) if sweep_s else 0.0

    self_total = sum(metrics[f"{name}.self_s"] for name in LAYER_NAMES)
    if abs(self_total + uncovered - wall) > 1e-6 * max(1.0, wall) + 1e-7:
        problems.append(
            f"layer self times {self_total:.6f} s + uncovered {uncovered:.6f} s "
            f"!= traced wall {wall:.6f} s"
        )
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_s"] = uncovered

    for name, est in tracer.estimators:
        if est.evaluate_int(est.pivot) != 0:
            problems.append(f"{name} returned an estimator whose pivot does not evaluate to 0")
    return metrics, problems

