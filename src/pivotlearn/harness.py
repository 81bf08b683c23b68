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
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from . import clustering as clu
from . import generic as gen
from . import geometric as geo
from . import ranking as rk
from .core import (
    MAX_SAMPLE_SIZE,
    RESTARTS,
    ParamError,
    Params,
    Trajectory,
    _erm_loop,
    is_finite_number,
    is_integer,
    python_scalars,
    run_erm_iteration,
    true_error,
)
from .oracles import InstanceOracle, LabelOracle, NoiseSpec, load_oracle
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
    restarts: int = RESTARTS
    force_p: Optional[int] = None
    force_q: Optional[int] = None
    force_m: Optional[int] = None
    oracle_path: Optional[str] = None
    class_path: Optional[str] = None
    output_dir: Optional[str] = None

    def __post_init__(self):
        python_scalars(self)
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
        if "k" in task.reads and (self.k is None or not 1 <= self.k <= clu._MAX_K):
            raise ConfigError("k", "clustering needs k in 1..2**31 - 1")
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
        if self.restarts != RESTARTS and self.erm != "local_search":
            raise ConfigError("restarts", f"only local_search reads restarts, not {self.erm!r}")
        forced = {p for name, ps in _SIZE_PARAMS.items() if getattr(self, name) is not None
                  for p in ps}
        read = {"epsilon", "iterations", "master_seed", *task.params} - forced
        for f in fields(Params):  # a parameter the run never reads keeps its default
            if f.name not in read and getattr(self.params, f.name) != f.default:
                why = (f"a forced sample size leaves {f.name} unread" if f.name in forced
                       else f"{self.task} runs never read {f.name}")
                raise ConfigError(f"params.{f.name}", why)
        for name in ("force_p", "force_q", "force_m"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= MAX_SAMPLE_SIZE:
                raise ConfigError(name, "must be in 1..2**31 - 1 when present")
        if "force_m" in task.reads and self.force_m is None and self.n > gen._VC_POOL_CAP:
            raise ConfigError("force_m", f"must be set for n > {gen._VC_POOL_CAP}, the pool "
                                         "size where m's VC dimension search is capped")
        if self.noise.kind not in task.noise:
            raise ConfigError("noise.kind", f"{self.task} runs support {' or '.join(task.noise)}")
        if self.noise.kind == "adversarial_file" and self.oracle_path is None:
            raise ConfigError("noise.kind", "adversarial_file labels are read from oracle_path")
        if self.oracle_path is not None and self.noise.kind not in ("none", "adversarial_file"):
            raise ConfigError("noise.kind", f"the labels are read from {self.oracle_path!r}, "
                                            f"so {self.noise.kind} noise would never apply")
        for f in fields(NoiseSpec):  # a noise field the kind never reads keeps its default
            read = f.name in ("kind", *NoiseSpec.READS[self.noise.kind])
            if not read and getattr(self.noise, f.name) != f.default:
                raise ConfigError(f"noise.{f.name}", f"{self.noise.kind} noise never reads it")
        if self.noise.path not in (None, self.oracle_path):
            raise ConfigError("noise.path", f"the labels are read from {self.oracle_path!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """A config from JSON: each field left out takes its dataclass default."""
        defaults = {f.name: f.default for f in fields(cls)}
        for key in _json_object(data, "config"):
            if key not in defaults:
                raise ConfigError(key, "unknown config field")
        if "task" not in data or "n" not in data:
            raise ConfigError("task" if "task" not in data else "n", "required field missing")
        values = dict(data)
        for name in ("params", "noise"):
            section = _json_object(data.get(name, {}), name)
            for key in section:
                if key not in {f.name for f in fields(defaults[name])}:
                    raise ConfigError(f"{name}.{key}", "unknown field")
            try:
                values[name] = replace(defaults[name], **section)
            except ParamError as exc:
                raise ConfigError(f"{name}.{exc.field}", exc.reason) from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(name, str(exc)) from exc
        return cls(**values)


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
        return self.row_dicts()[-1]["excess"] if self.trajectory.rows else None

    def row_dicts(self) -> list[dict]:
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
                    "wall_ms": 0.0,
                }
            )
        return out

    def to_dict(self) -> dict:
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
    if isinstance(h, (rk.Permutation, clu.Clustering)):
        return h.to_dict()
    if isinstance(h, (int, np.integer)):
        return {"kind": "class_member", "index": int(h)}
    raise TypeError(f"cannot serialize hypothesis of type {type(h)!r}")


# -- the task table --------------------------------------------------------------


class _Plan(NamedTuple):
    """One run's parts, ready for the build -> ERM loop."""

    oracle: object
    h0: object
    build: Callable  # (pivot, oracle, params, rng=) -> estimator
    search: Callable  # (estimator, start, rng=) -> next hypothesis
    nu: Callable  # () -> least error in the class
    info: dict
    scored: Optional[Callable] = None  # a class run's row -> the labels its estimator scores
    errors: Optional[Callable] = None  # a class run's rows -> their errors, from the class table


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
    return LabelOracle(mode, noise=config.noise, seed=seed,
                       ground_truth=truth(derive_rng(seed, "ground-truth")))


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
    features = geo.random_features(config.n, derive_rng(seed, "features"))
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
    seed, path = config.params.master_seed, config.class_path
    cls = gen.load_class_csv(path) if path else gen.thresholds_class(config.n)
    pool = cls.pool_size
    if pool != config.n:
        raise ConfigError("n", f"class file holds {pool} instances, config says {config.n}")
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
        m, theta, dim = gen.class_sample_size(cls, 0, config.params)
        info.update({"theta": theta, "vc_dim": dim})
    info["m"] = m
    return _Plan(
        oracle, 0, partial(gen.build_generic_estimator, cls, m=m),
        lambda est, start, rng=None: gen.class_argmin(cls, est), lambda: float(errors.min()),
        info, scored=lambda h: cls.labels[h], errors=lambda hs: errors[hs].tolist(),
    )


# the Params fields each forced sample size stands in for
_SIZE_PARAMS = {"force_p": ("c1",), "force_q": ("c2",), "force_m": ("delta", "c3")}
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


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute one config end to end; no files are written."""
    t0 = time.perf_counter()
    plan = _TASKS[config.task].plan(config)
    loop = (plan.h0, plan.oracle, config.params, plan.build, plan.search)
    if plan.errors is None:
        traj = run_erm_iteration(*loop)
    else:  # the loop body: the benchmark pins a class run's build and argmin under this function
        traj = _erm_loop(*loop, plan.scored, plan.errors)
    nu = plan.nu() if _enumerable(config) else None  # read before the counters: it scans labels
    return RunRecord(
        config=config, trajectory=traj, nu=nu, counters=asdict(plan.oracle.counters),
        task_info=plan.info, wall_ms_total=(time.perf_counter() - t0) * 1000.0,
    )


_TRAJECTORY_COLUMNS = (
    "iteration", "err", "excess", "distinct_queries", "cumulative_queries", "wall_ms",
)


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
        writer = csv.DictWriter(fh, _TRAJECTORY_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(record.row_dicts())
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


def _axis_value(axis: str, value):
    """value as the Python int or float a point runs, keys its stream and reports with."""
    if axis == "epsilon":
        if not is_finite_number(value):
            raise ConfigError("values", f"epsilon takes finite number values, got {value!r}")
        return float(value)
    if not is_integer(value):  # int() would truncate 7.5, while the summary says 7.5
        raise ConfigError("values", f"{axis} takes integer values, got {value!r}")
    return int(value)


def _axis_override(template: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    rng = derive_rng(template.params.master_seed, "sweep-point", axis, repr(value))
    params, fields = {"master_seed": int(rng.integers(0, 2**63))}, {}
    if axis == "epsilon":
        params["epsilon"] = value
    else:  # n or k: sweep has checked the axis
        fields[axis] = value
    try:
        params = replace(template.params, **params)
    except ParamError as exc:
        raise ConfigError(f"params.{exc.field}", exc.reason) from exc
    return replace(template, params=params, **fields)


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
    if not is_integer(workers) or workers < 1:
        raise ConfigError("workers", f"must be an integer >= 1, got {workers!r}")
    values = [_axis_value(axis, v) for v in values]
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
            writer.writerows(summary)
    return records, summary
