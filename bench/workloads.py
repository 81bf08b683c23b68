"""The benchmark's workloads: configs made from a seed, one repetition each.

Every workload goes through the public API only (`run_experiment`, `sweep`).
The workload seed becomes `Params.master_seed`; the program sees nothing but
the generated configs.  All workloads use 10% uniformly flipped labels.

Why these three (layer-to-metric table in bench/README.md):

* ranking-scale -- at large n the quadratic `true_error` scan, the memory it
  takes, the ranking climb and the per-item band loop dominate; no
  clustering code runs.
* clustering-search -- isolates the O(n^3) clustering swap pass; evaluation
  and memory are a small share, so changes there should not move it.
* small-sweep -- thousands of small calls dominated by per-call overhead
  (`derive_rng`, builders, exact enumeration, planar enumeration); the only
  workload on the parallel sweep path and on the generic and geometric
  layers.  Large-n memory work should not move it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

# harness functions are looked up on the module at call time, so a traced
# run sees the benchmark's own calls into them
from pivotlearn import ExperimentConfig, NoiseSpec, Params, harness

NOISE = NoiseSpec(kind="uniform_flip", eta=0.1)


def sweep_workers() -> int:
    """Threads for the sweep: two, but never more than the usable cores."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    # seed, toy -> inputs; inputs -> (records, extra deterministic output)
    make: Callable[[int, bool], object]
    run: Callable[[object], tuple[list, list]]


def _single(inputs):
    return [harness.run_experiment(inputs)], []


def _ranking_scale(seed: int, toy: bool):
    return ExperimentConfig(
        task="ranking",
        n=120 if toy else 3200,
        params=Params(epsilon=0.3, c1=1.3e-4, iterations=2, master_seed=seed),
        noise=NOISE,
        erm="local_search",
        restarts=1,
    )


def _clustering_search(seed: int, toy: bool):
    return ExperimentConfig(
        task="clustering",
        n=24 if toy else 200,
        k=4,
        params=Params(epsilon=0.3, c2=1e-2, iterations=2, master_seed=seed),
        noise=NOISE,
        erm="local_search",
        restarts=1,
    )


# Tiny pools make each run's final error a noisy draw, so the cheap templates
# sweep many epsilon points to keep the repetition's mean error steady across
# seeds; the planar template is the costliest per run and sweeps fewer.
MANY_EPSILONS = tuple(round(0.1 + 0.006 * i, 3) for i in range(64))
SOME_EPSILONS = MANY_EPSILONS[::2]
FEW_EPSILONS = MANY_EPSILONS[::8]


def _small_sweep(seed: int, toy: bool):
    # a sweep point's seed depends on the template seed and the axis value
    # only; distinct template seeds keep the four templates' noise independent
    def params(j):
        return Params(epsilon=0.3, master_seed=4 * seed + j)

    many, some, few = MANY_EPSILONS, SOME_EPSILONS, FEW_EPSILONS
    if toy:
        many = some = few = MANY_EPSILONS[:2]
    return [
        (ExperimentConfig(task="ranking", n=8, params=params(0), noise=NOISE, force_p=2), many),
        (ExperimentConfig(task="clustering", n=10, k=3, params=params(1), noise=NOISE, force_q=2), many),
        (ExperimentConfig(task="generic", n=40, params=params(2), noise=NOISE), some),
        (ExperimentConfig(task="geometric", n=8 if toy else 14, params=params(3), noise=NOISE), few),
    ]


def _run_sweeps(inputs):
    records, summaries = [], []
    for template, epsilons in inputs:
        recs, summary = harness.sweep(template, "epsilon", epsilons, workers=sweep_workers())
        records.extend(recs)
        summaries.append(summary)
    return records, summaries


WORKLOADS = {
    "ranking-scale": Workload(_ranking_scale, _single),
    "clustering-search": Workload(_clustering_search, _single),
    "small-sweep": Workload(_small_sweep, _run_sweeps),
}


def digest(records, extra) -> str:
    """sha256 of the deterministic outputs: every RunRecord.to_dict() plus extras."""
    payload = json.dumps(
        {"records": [r.to_dict() for r in records], "extra": extra}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_records(records) -> list[str]:
    """Invariants that hold at any seed; returns one message per violation."""
    problems = []
    if not records:
        problems.append("repetition produced no runs")
    for i, rec in enumerate(records):
        label = f"run {i} ({rec.config.task}, n={rec.config.n})"
        if rec.trajectory.status != "completed":
            problems.append(f"{label}: status {rec.trajectory.status!r}")
        spent = sum(row.distinct_queries for row in rec.trajectory.rows)
        if spent != rec.counters["distinct_labeled"]:
            problems.append(
                f"{label}: per-iteration distinct queries sum to {spent}, "
                f"counters say {rec.counters['distinct_labeled']}"
            )
        err = rec.final_err
        if err is None or not (0.0 <= err <= 1.0):
            problems.append(f"{label}: final_err {err!r} outside [0, 1]")
    return problems
