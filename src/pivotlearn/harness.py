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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

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

TASKS = ("ranking", "clustering", "generic", "geometric")
SWEEP_AXES = ("n", "epsilon", "k")

_PARAM_FIELDS = ("epsilon", "mu", "delta", "iterations", "c1", "c2", "c3", "master_seed")
_NOISE_FIELDS = ("kind", "eta", "rho", "scale", "path")


class ConfigError(ValueError):
    """Invalid experiment config; `field` is the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


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
    restarts: int = 5
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
        if self.task == "clustering":
            if self.k is None or self.k < 1:
                raise ConfigError("k", "clustering needs k >= 1")
        elif self.k is not None:
            raise ConfigError("k", f"only clustering runs take k, not {self.task!r}")
        if self.task == "geometric":
            if self.d is None:
                object.__setattr__(self, "d", 2)
            elif self.d != 2:
                raise ConfigError("d", "geometric runs enumerate orders in d = 2 only")
        elif self.d is not None:
            raise ConfigError("d", f"only geometric runs take d, not {self.task!r}")
        if self.erm not in ("exact", "local_search"):
            raise ConfigError("erm", f"must be 'exact' or 'local_search', got {self.erm!r}")
        if self.restarts < 1:
            raise ConfigError("restarts", "must be >= 1")
        for name in ("force_p", "force_q", "force_m"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= MAX_SAMPLE_SIZE:
                raise ConfigError(name, "must be in 1..2**31 - 1 when present")
        if self.task == "generic" and self.noise.kind not in ("none", "uniform_flip"):
            raise ConfigError("noise.kind", "generic runs support none or uniform_flip")

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "params": {name: getattr(self.params, name) for name in _PARAM_FIELDS},
            "noise": self.noise.to_dict(),
            "erm": self.erm,
            "restarts": self.restarts,
            "force_p": self.force_p,
            "force_q": self.force_q,
            "force_m": self.force_m,
            "oracle_path": self.oracle_path,
            "class_path": self.class_path,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {
            "task", "n", "k", "d", "params", "noise", "erm", "restarts",
            "force_p", "force_q", "force_m", "oracle_path", "class_path", "output_dir",
        }
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
            if key in ("eta", "rho", "scale") and not isinstance(value, (int, float)):
                raise ConfigError(f"noise.{key}", f"must be a number, got {value!r}")
        try:
            noise = NoiseSpec.from_dict(raw_noise)
        except ValueError as exc:
            raise ConfigError("noise", str(exc)) from exc
        simple = {
            k: data[k]
            for k in known - {"params", "noise"}
            if k in data
        }
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


# -- per-task run paths ----------------------------------------------------------


def _ranking_oracle(config: ExperimentConfig):
    seed = config.params.master_seed
    if config.oracle_path:
        oracle = load_oracle(config.oracle_path, mode="ranking")
        if oracle.n != config.n:
            raise ConfigError("n", f"oracle file holds {oracle.n} items, config says {config.n}")
        return oracle
    truth = rk.random_permutation(config.n, derive_rng(seed, "ground-truth"))
    return make_ranking_oracle(truth, config.noise, seed=seed)


def _clustering_oracle(config: ExperimentConfig):
    seed = config.params.master_seed
    if config.oracle_path:
        oracle = load_oracle(config.oracle_path, mode="clustering")
        if oracle.n != config.n:
            raise ConfigError("n", f"oracle file holds {oracle.n} items, config says {config.n}")
        return oracle
    truth = clu.random_clustering(config.n, config.k, derive_rng(seed, "ground-truth"))
    return make_clustering_oracle(truth, config.noise, seed=seed)


def _run_ranking(config: ExperimentConfig):
    oracle = _ranking_oracle(config)
    p = config.force_p or rk.sample_size_p(config.n, config.params.epsilon, config.params.c1)

    def builder(h, orc, params, rng=None):
        return rk.build_ranking_estimator(h, orc, params, p=p, rng=rng)

    if config.erm == "exact":
        erm = rk.exact_erm
    else:
        def erm(est, start, rng=None):
            return rk.local_search_erm(est, start, restarts=config.restarts, rng=rng)

    h0 = rk.Permutation.identity(config.n)
    traj = run_erm_iteration(h0, oracle, config.params, builder, erm)
    nu = rk.exact_min_error(oracle)[0] if config.n <= 10 else None
    return traj, nu, {"p": p}, oracle


def _run_clustering(config: ExperimentConfig):
    oracle = _clustering_oracle(config)
    q = config.force_q or clu.sample_size_q(
        config.n, config.k, config.params.epsilon, config.params.c2
    )

    def builder(h, orc, params, rng=None):
        return clu.build_clustering_estimator(h, orc, params, q=q, rng=rng)

    if config.erm == "exact":
        erm = clu.exact_erm
    else:
        def erm(est, start, rng=None):
            return clu.local_search_erm(est, start, restarts=config.restarts, rng=rng)

    h0 = clu.Clustering(np.arange(config.n) % config.k + 1, config.k)
    traj = run_erm_iteration(h0, oracle, config.params, builder, erm)
    nu = (
        clu.exact_min_error(oracle, config.k)[0]
        if config.n <= clu._EXACT_ERM_MAX_N and config.k <= clu._EXACT_ERM_MAX_K
        else None
    )
    return traj, nu, {"q": q}, oracle


def _run_geometric(config: ExperimentConfig):
    seed = config.params.master_seed
    features = geo.random_features(config.n, 2, derive_rng(seed, "features"))
    direction = derive_rng(seed, "ground-truth").standard_normal(2)
    truth = geo.induced_permutation(direction, features)
    oracle = make_ranking_oracle(truth, config.noise, seed=seed)
    p = config.force_p or rk.sample_size_p(config.n, config.params.epsilon, config.params.c1)

    def builder(h, orc, params, rng=None):
        return rk.build_ranking_estimator(h, orc, params, p=p, rng=rng)

    orders, _ = geo.enumerate_orders_2d(features)

    def erm(est, start, rng=None):
        return geo.geometric_erm_2d(est, features)

    traj = run_erm_iteration(orders[0], oracle, config.params, builder, erm)
    nu = min(true_error(orders, oracle))
    return traj, nu, {"p": p, "enumerated_orders": len(orders)}, oracle


def _generic_class(config: ExperimentConfig) -> gen.FiniteClass:
    if config.class_path:
        return gen.load_class_csv(config.class_path)
    return gen.thresholds_class(config.n)


def _run_generic(config: ExperimentConfig):
    """Iterate the annulus builder and class-wide minimization directly.

    Hypotheses are class row indices; the instance pool is the class's own
    pool (n = pool size, thresholds class unless class_path is given).
    """
    params = config.params
    seed = params.master_seed
    cls = _generic_class(config)
    pool = cls.pool_size
    truth_idx = int(derive_rng(seed, "ground-truth").integers(len(cls)))
    labels = cls.labels[truth_idx].copy()
    if config.noise.kind == "uniform_flip":
        flips = derive_rng(seed, "instance-noise").random(pool) < config.noise.eta
        labels = labels ^ flips.astype(np.uint8)
    oracle = InstanceOracle(labels)
    truth_labels = oracle.verification_labels()

    def err_of(idx: int) -> float:
        return float(np.mean(cls.labels[idx] != truth_labels))

    info: dict = {"pool_size": pool, "class_size": len(cls)}
    m = config.force_m
    if m is None:
        mu = params.resolved_mu(pool)
        theta = max(1.0, gen.disagreement_coefficient(cls, 0, mu))
        dim = max(1, gen.vc_dimension(cls))
        m = gen.sample_size_m(theta, dim, params.epsilon, mu, params.delta, params.c3)
        info.update({"theta": theta, "vc_dim": dim})
    info["m"] = m

    traj = Trajectory()
    h = 0
    traj.rows.append(TrajectoryRow(0, h, err_of(h), None, 0, 0, 0.0))
    for i in range(1, params.iterations + 1):
        t0 = time.perf_counter()
        before = oracle.counters.distinct_labeled
        est = gen.build_generic_estimator(
            cls, h, oracle, params, m=m, rng=derive_rng(seed, "build", i)
        )
        h_next, value = gen.class_argmin(cls, est)
        spent = oracle.counters.distinct_labeled - before
        wall = (time.perf_counter() - t0) * 1000.0
        traj.rows.append(
            TrajectoryRow(
                i, h_next, err_of(h_next), value, spent,
                oracle.counters.distinct_labeled, wall,
            )
        )
        h = h_next
    mismatch = cls.labels != truth_labels
    nu = float(mismatch.mean(axis=1).min())
    return traj, nu, info, oracle


_RUNNERS = {
    "ranking": _run_ranking,
    "clustering": _run_clustering,
    "generic": _run_generic,
    "geometric": _run_geometric,
}


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute one config end to end; no files are written."""
    t0 = time.perf_counter()
    traj, nu, info, oracle = _RUNNERS[config.task](config)
    record = RunRecord(
        config=config,
        trajectory=traj,
        nu=nu,
        counters=oracle.counters.to_dict(),
        task_info=info,
        wall_ms_total=(time.perf_counter() - t0) * 1000.0,
    )
    return record


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
    return template.with_overrides(params=template.params.with_overrides(**params), **fields)


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
