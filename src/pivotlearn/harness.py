"""Experiment harness: validated configs, seeded runs, sweeps, and artifacts.

A run synthesizes (or loads) an oracle, executes the iterative
build-estimator/minimize loop, and produces a RunRecord.  Artifacts are
deterministic: record.json and trajectory.csv depend only on the config, so
reruns and different worker counts produce byte-identical files.  Measured
wall times are real but live in a separate timings.json sidecar, and the
deterministic files carry zeros in their wall_ms slots.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import clustering as clu
from . import generic as gen
from . import geometric as geo
from . import ranking as rk
from .core import (
    MAX_SAMPLE_SIZE,
    Params,
    Trajectory,
    TrajectoryRow,
    is_integer,
    run_erm_iteration,
    true_error,
)
from .oracles import (
    InstanceOracle,
    NoiseSpec,
    load_oracle,
    make_clustering_oracle,
    make_ranking_oracle,
)
from .seeding import derive_rng

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "run_experiment",
    "write_run",
    "run",
    "sweep",
    "SWEEP_AXES",
    "TASKS",
]

SWEEP_AXES = ("n", "epsilon", "k")

_PARAM_FIELDS = ("epsilon", "mu", "delta", "iterations", "c1", "c2", "c3", "master_seed")
_RESTARTS = 5
_NOISE_FIELDS = ("kind", "eta", "rho", "scale", "path")


class ConfigError(ValueError):
    """Invalid experiment config; `field` is the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


def _is_float(value) -> bool:
    """A number that converts to a float: an integer past the float range does not."""
    return isinstance(value, float) or (isinstance(value, int) and abs(value) <= sys.float_info.max)


def _json_object(value, field_path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(field_path, f"must be a JSON object, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a task, a pool, run parameters, and an ERM choice."""

    task: str
    n: int
    k: Optional[int] = None
    d: Optional[int] = None
    params: Params = Params(epsilon=0.2)
    noise: NoiseSpec = NoiseSpec()
    erm: str = "exact"
    restarts: int = _RESTARTS
    force_p: Optional[int] = None
    force_q: Optional[int] = None
    force_m: Optional[int] = None
    oracle_path: Optional[str] = None
    class_path: Optional[str] = None
    output_dir: Optional[str] = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError("task", f"must be one of {TASKS}, got {self.task!r}")
        for name in ("n", "k", "d", "restarts", "force_p", "force_q", "force_m"):
            value = getattr(self, name)
            if not (is_integer(value) or (value is None and name not in ("n", "restarts"))):
                raise ConfigError(name, f"must be an integer, got {value!r}")
        for name in ("oracle_path", "class_path", "output_dir"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise ConfigError(name, f"must be a path string, got {value!r}")
        if self.n < 2:
            raise ConfigError("n", "must be >= 2")
        task = _TASKS[self.task]
        for name in _TASK_FIELDS:  # a field the task never reads would be recorded, yet ignored
            if getattr(self, name) is not None and name not in task.reads:
                readers = " or ".join(t for t in TASKS if name in _TASKS[t].reads)
                raise ConfigError(name, f"only {readers} runs take {name}, not {self.task!r}")
        if "k" in task.reads and (self.k is None or self.k < 1):
            raise ConfigError("k", "clustering needs k >= 1")
        if "d" in task.reads:
            if self.d is None:
                object.__setattr__(self, "d", 2)
            elif self.d != 2:
                raise ConfigError("d", "geometric runs enumerate orders in d = 2 only")
        if self.erm not in task.erms:
            erms = " or ".join(map(repr, task.erms))
            raise ConfigError("erm", f"{self.task} runs take {erms}, got {self.erm!r}")
        if self.erm == "exact" and not _enumerable(self):  # refused before labels are bought
            bounds = " and ".join(f"{name} <= {cap}" for name, cap in task.exact_max)
            raise ConfigError("erm", f"exact {self.task} ERM enumerates {bounds}; use local_search")
        if self.restarts < 1:
            raise ConfigError("restarts", "must be >= 1")
        if self.restarts != _RESTARTS and self.erm != "local_search":
            raise ConfigError("restarts", f"only local_search reads restarts, not {self.erm!r}")
        read = ("epsilon", "iterations", "master_seed", *task.params)
        for f in fields(Params):  # a parameter the task never reads keeps its default
            if f.name not in read and getattr(self.params, f.name) != f.default:
                raise ConfigError(f"params.{f.name}", f"{self.task} runs never read {f.name}")
        for name in ("force_p", "force_q", "force_m"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= MAX_SAMPLE_SIZE:
                raise ConfigError(name, "must be in 1..2**31 - 1 when present")
        if self.noise.kind not in task.noise:
            raise ConfigError("noise.kind", f"{self.task} runs support {' or '.join(task.noise)}")
        if self.noise.kind == "adversarial_file" and self.oracle_path is None:
            raise ConfigError("noise.kind", "adversarial_file labels are read from oracle_path")

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["params"] = {name: getattr(self.params, name) for name in _PARAM_FIELDS}
        data["noise"] = self.noise.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        for key in _json_object(data, "config"):
            if key not in known:
                raise ConfigError(key, "unknown config field")
        if "task" not in data or "n" not in data:
            raise ConfigError("task" if "task" not in data else "n", "required field missing")
        raw_params = _json_object(data.get("params", {}), "params")
        for key in raw_params:
            if key not in _PARAM_FIELDS:
                raise ConfigError(f"params.{key}", "unknown parameter field")
        try:
            params = Params(**{k: raw_params[k] for k in _PARAM_FIELDS if k in raw_params})
        except (TypeError, ValueError) as exc:
            raise ConfigError("params", str(exc)) from exc
        raw_noise = _json_object(data.get("noise", {}), "noise")
        for key, value in raw_noise.items():
            if key not in _NOISE_FIELDS:
                raise ConfigError(f"noise.{key}", "unknown noise field")
            if key in ("eta", "rho", "scale") and not _is_float(value):
                raise ConfigError(f"noise.{key}", f"must be a number, got {value!r}")
        try:
            noise = NoiseSpec.from_dict(raw_noise)
        except ValueError as exc:
            raise ConfigError("noise", str(exc)) from exc
        simple = {k: data[k] for k in known - {"params", "noise"} if k in data}
        return cls(params=params, noise=noise, **simple)

    def with_overrides(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


@dataclass
class RunRecord:
    """Everything a run produced, ready for deterministic serialization."""

    config: ExperimentConfig
    trajectory: Trajectory
    nu: Optional[float]
    counters: dict
    task_info: dict = field(default_factory=dict)
    wall_ms_total: float = 0.0

    @property
    def final_err(self) -> Optional[float]:
        return self.trajectory.rows[-1].err if self.trajectory.rows else None

    @property
    def final_excess(self) -> Optional[float]:
        if self.final_err is None or self.nu is None:
            return None
        return self.final_err - self.nu

    def row_dicts(self, real_wall: bool = False) -> list[dict]:
        out = []
        for row in self.trajectory.rows:
            excess = None
            if row.err is not None and self.nu is not None:
                excess = row.err - self.nu
            out.append(
                {
                    "iteration": row.iteration,
                    "err": row.err,
                    "excess": excess,
                    "estimator_value": row.estimator_value,
                    "distinct_queries": row.distinct_queries,
                    "cumulative_queries": row.cumulative_queries,
                    "wall_ms": row.wall_ms if real_wall else 0.0,
                }
            )
        return out

    def to_dict(self) -> dict:
        from . import __version__

        return {
            "version": __version__,
            "config": self.config.to_dict(),
            "status": self.trajectory.status,
            "trajectory": self.row_dicts(),
            "final_hypothesis": _serialize_hypothesis(self.trajectory.final_hypothesis),
            "final_err": self.final_err,
            "nu": self.nu,
            "final_excess": self.final_excess,
            "counters": self.counters,
            "task_info": self.task_info,
            "wall_ms_total": 0.0,
        }

    def timings_dict(self) -> dict:
        return {
            "wall_ms_total": self.wall_ms_total,
            "per_iteration_wall_ms": [row.wall_ms for row in self.trajectory.rows],
        }


def _serialize_hypothesis(h) -> Optional[dict]:
    if h is None:
        return None
    if isinstance(h, rk.Permutation):
        return {"kind": "permutation", "rank": h.rank.tolist()}
    if isinstance(h, clu.Clustering):
        return {"kind": "clustering", "assign": h.assign.tolist(), "k": h.k}
    if isinstance(h, (int, np.integer)):
        return {"kind": "class_member", "index": int(h)}
    raise TypeError(f"cannot serialize hypothesis of type {type(h)!r}")


def _derived_seed(master_seed: int, *tags) -> int:
    return int(derive_rng(master_seed, *tags).integers(0, 2**63))


# -- the task table --------------------------------------------------------------


class _Plan(NamedTuple):
    """One run's parts, ready for the build -> ERM loop."""

    oracle: object
    h0: object
    build: Callable  # (pivot, oracle, params, rng=) -> estimator
    search: Callable  # (estimator, start, rng=) -> next hypothesis
    nu: Callable  # () -> least error in the class
    info: dict
    # hypothesis -> error, for a class run off the batched scan; its search
    # is then estimator -> (next hypothesis, estimate)
    error: Optional[Callable] = None


@dataclass(frozen=True)
class _Task:
    """What one task reads from a config, and the plan of its runs.

    `reads` names the optional config fields the task reads; the others must
    stay None.  `params` names the Params fields it reads besides epsilon,
    iterations and master_seed; the others must keep their defaults.  Exact
    search, and with it nu, enumerates only while every (field, bound) pair
    of `exact_max` holds.
    """

    reads: tuple
    params: tuple
    noise: tuple
    erms: tuple
    exact_max: tuple
    plan: Callable  # config -> _Plan


def _enumerable(config: ExperimentConfig) -> bool:
    return all(getattr(config, name) <= cap for name, cap in _TASKS[config.task].exact_max)


def _pair_oracle(config: ExperimentConfig, mode: str, truth: Callable):
    """The file at config.oracle_path, or the ground truth `truth(rng)` under config.noise."""
    if config.oracle_path:
        oracle = load_oracle(config.oracle_path, mode=mode)
        if oracle.n != config.n:
            raise ConfigError("n", f"oracle file holds {oracle.n} items, config says {config.n}")
        return oracle
    seed = config.params.master_seed
    make = make_ranking_oracle if mode == "ranking" else make_clustering_oracle
    return make(truth(derive_rng(seed, "ground-truth")), config.noise, seed=seed)


def _search(config: ExperimentConfig, module):
    if config.erm == "exact":
        return module.exact_erm
    return partial(module.local_search_erm, restarts=config.restarts)


def _sample_p(config: ExperimentConfig) -> int:
    return config.force_p or rk.sample_size_p(config.n, config.params.epsilon, config.params.c1)


def _ranking(config: ExperimentConfig) -> _Plan:
    oracle = _pair_oracle(config, "ranking", lambda rng: rk.random_permutation(config.n, rng))
    p = _sample_p(config)
    return _Plan(
        oracle, rk.Permutation.identity(config.n), partial(rk.build_ranking_estimator, p=p),
        _search(config, rk), lambda: rk.exact_min_error(oracle)[0], {"p": p},
    )


def _clustering(config: ExperimentConfig) -> _Plan:
    n, k, params = config.n, config.k, config.params
    oracle = _pair_oracle(config, "clustering", lambda rng: clu.random_clustering(n, k, rng))
    q = config.force_q or clu.sample_size_q(n, k, params.epsilon, params.c2)
    h0 = clu.Clustering(np.arange(n) % k + 1, k)
    return _Plan(
        oracle, h0, partial(clu.build_clustering_estimator, q=q), _search(config, clu),
        lambda: clu.exact_min_error(oracle, k)[0], {"q": q},
    )


def _geometric(config: ExperimentConfig) -> _Plan:
    seed = config.params.master_seed
    features = geo.random_features(config.n, 2, derive_rng(seed, "features"))
    oracle = _pair_oracle(
        config, "ranking", lambda rng: geo.induced_permutation(rng.standard_normal(2), features)
    )
    p = _sample_p(config)
    orders, _ = geo.enumerate_orders_2d(features)
    return _Plan(
        oracle, orders[0], partial(rk.build_ranking_estimator, p=p),
        lambda est, start, rng=None: geo.geometric_erm_2d(est, features),
        lambda: min(true_error(orders, oracle)), {"p": p, "enumerated_orders": len(orders)},
    )


def _generic(config: ExperimentConfig) -> _Plan:
    """Hypotheses are class row indices; the instance pool is the class's own
    pool (n = pool size, thresholds class unless class_path is given)."""
    params, seed, path = config.params, config.params.master_seed, config.class_path
    cls = gen.load_class_csv(path) if path else gen.thresholds_class(config.n)
    pool = cls.pool_size
    truth_idx = int(derive_rng(seed, "ground-truth").integers(len(cls)))
    labels = cls.labels[truth_idx].copy()
    if config.noise.kind == "uniform_flip":
        flips = derive_rng(seed, "instance-noise").random(pool) < config.noise.eta
        labels = labels ^ flips.astype(np.uint8)
    oracle = InstanceOracle(labels)
    errors = (cls.labels != oracle.verification_labels()).mean(axis=1)
    info: dict = {"pool_size": pool, "class_size": len(cls)}
    m = config.force_m
    if m is None:
        mu = params.resolved_mu(pool)
        theta = max(1.0, gen.disagreement_coefficient(cls, 0, mu))
        dim = max(1, gen.vc_dimension(cls))
        m = gen.sample_size_m(theta, dim, params.epsilon, mu, params.delta, params.c3)
        info.update({"theta": theta, "vc_dim": dim})
    info["m"] = m
    return _Plan(
        oracle, 0, partial(gen.build_generic_estimator, cls, m=m), partial(gen.class_argmin, cls),
        lambda: float(errors.min()), info, error=lambda h: float(errors[h]),
    )


_FLIP = ("none", "uniform_flip")
_PAIR_NOISE = (*_FLIP, "adversarial_file")
_BOTH_ERMS = ("exact", "local_search")
_TASKS = {
    "ranking": _Task(
        ("force_p", "oracle_path"), ("c1",), (*_PAIR_NOISE, "distance_decay"), _BOTH_ERMS,
        (("n", rk._EXACT_ERM_MAX_N),), _ranking,
    ),
    "clustering": _Task(
        ("k", "force_q", "oracle_path"), ("c2",), _PAIR_NOISE, _BOTH_ERMS,
        (("n", clu._EXACT_ERM_MAX_N), ("k", clu._EXACT_ERM_MAX_K)), _clustering,
    ),
    "generic": _Task(
        ("force_m", "class_path"), ("mu", "delta", "c3"), _FLIP, ("exact",), (), _generic
    ),
    "geometric": _Task(
        ("d", "force_p"), ("c1",), (*_FLIP, "distance_decay"), ("exact",), (), _geometric
    ),
}
TASKS = tuple(_TASKS)
_TASK_FIELDS = tuple(dict.fromkeys(name for task in _TASKS.values() for name in task.reads))


def experiment_oracle(config: ExperimentConfig):
    """The oracle a run of config labels from (what `pivotlearn oracle-gen` saves)."""
    return _TASKS[config.task].plan(config).oracle


def _class_iteration(plan: _Plan, params: Params) -> Trajectory:
    """The build -> ERM loop over a finite class: each row's value comes from
    the class-wide argmin and its error from plan.error."""
    oracle, h, traj = plan.oracle, plan.h0, Trajectory()
    traj.rows.append(TrajectoryRow(0, h, plan.error(h), None, 0, 0, 0.0))
    for i in range(1, params.iterations + 1):
        t0 = time.perf_counter()
        before = oracle.counters.distinct_labeled
        est = plan.build(h, oracle, params, rng=derive_rng(params.master_seed, "build", i))
        h, value = plan.search(est)
        wall = (time.perf_counter() - t0) * 1000.0
        total = oracle.counters.distinct_labeled
        traj.rows.append(TrajectoryRow(i, h, plan.error(h), value, total - before, total, wall))
    return traj


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute one config end to end; no files are written."""
    t0 = time.perf_counter()
    plan = _TASKS[config.task].plan(config)
    if plan.error is None:
        traj = run_erm_iteration(plan.h0, plan.oracle, config.params, plan.build, plan.search)
    else:
        traj = _class_iteration(plan, config.params)
    nu = plan.nu() if _enumerable(config) else None  # read before the counters: it scans labels
    return RunRecord(
        config=config, trajectory=traj, nu=nu, counters=plan.oracle.counters.to_dict(),
        task_info=plan.info, wall_ms_total=(time.perf_counter() - t0) * 1000.0,
    )


_TRAJECTORY_COLUMNS = (
    "iteration", "err", "excess", "distinct_queries", "cumulative_queries", "wall_ms",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_run(record: RunRecord, out_dir: str) -> dict:
    """Write record.json, trajectory.csv, and the volatile timings.json."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "record": os.path.join(out_dir, "record.json"),
        "trajectory": os.path.join(out_dir, "trajectory.csv"),
        "timings": os.path.join(out_dir, "timings.json"),
    }
    with open(paths["record"], "w") as fh:
        json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["trajectory"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRAJECTORY_COLUMNS)
        for row in record.row_dicts():
            writer.writerow([_cell(row[c]) for c in _TRAJECTORY_COLUMNS])
    with open(paths["timings"], "w") as fh:
        json.dump(record.timings_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def run(config: ExperimentConfig, out_dir: Optional[str] = None) -> RunRecord:
    """run_experiment plus artifact writing when a directory is resolved."""
    record = run_experiment(config)
    out_dir = out_dir or config.output_dir
    if out_dir:
        write_run(record, out_dir)
    return record


def _axis_override(template: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    point_seed = _derived_seed(template.params.master_seed, "sweep-point", axis, repr(value))
    params, fields = {"master_seed": point_seed}, {}
    if axis == "epsilon":
        params["epsilon"] = float(value)
    elif axis in ("n", "k"):
        fields[axis] = int(value)
    else:
        raise ConfigError("axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
    try:
        params = template.params.with_overrides(**params)
    except ValueError as exc:
        raise ConfigError("params", str(exc)) from exc
    return template.with_overrides(params=params, **fields)


def sweep(
    template: ExperimentConfig,
    axis: str,
    values,
    *,
    workers: int = 1,
    out_dir: Optional[str] = None,
) -> tuple[list[RunRecord], list[list]]:
    """One run per axis value, in parallel, collected in input order.

    Each point derives its own master seed from the template seed and the
    axis value, so results do not depend on evaluation order or worker
    count.  Returns (records, summary rows); when out_dir is set, writes
    each point under point-<idx>-<axis>-<value>/ plus summary.csv.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
    if workers < 1:
        raise ConfigError("workers", "must be >= 1")
    values = list(values)
    if not values:
        raise ConfigError("values", "sweep needs at least one value")
    configs = [_axis_override(template, axis, v) for v in values]
    if workers == 1:
        records = [run_experiment(c) for c in configs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_experiment, configs))
    summary = []
    for value, record in zip(values, records):
        per_build = [row.distinct_queries for row in record.trajectory.rows[1:]]
        summary.append(
            [
                value,
                record.counters["distinct_labeled"],
                record.final_err,
                record.nu,
                record.final_excess,
                max(per_build) if per_build else 0,
            ]
        )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for idx, (value, record) in enumerate(zip(values, records)):
            write_run(record, os.path.join(out_dir, f"point-{idx:02d}-{axis}-{value}"))
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [axis, "distinct_queries", "final_err", "nu", "excess", "max_build_queries"]
            )
            for row in summary:
                writer.writerow([_cell(v) for v in row])
    return records, summary
