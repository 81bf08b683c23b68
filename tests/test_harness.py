import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import (
    ConfigError,
    ErmFailedError,
    ExperimentConfig,
    NoiseSpec,
    Params,
    run,
    run_experiment,
    sweep,
    write_run,
)
from pivotlearn import clustering as clu
from pivotlearn import generic as gen
from pivotlearn import oracles as orc
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.core import ParamError
from pivotlearn.harness import TASKS
from pivotlearn.seeding import derive_rng


def _cfg(**kw):
    base = dict(task="ranking", n=7,
                params=Params(epsilon=0.25, iterations=2, master_seed=5),
                noise=NoiseSpec(kind="uniform_flip", eta=0.1), erm="exact")
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigError) as exc:
        _cfg(n=1)
    assert exc.value.field == "n"
    with pytest.raises(ConfigError):
        _cfg(task="sorting")
    with pytest.raises(ConfigError):
        _cfg(task="clustering")  # k required
    with pytest.raises(ConfigError):
        _cfg(erm="annealing")
    with pytest.raises(ConfigError):
        _cfg(restarts=0)
    assert _cfg(n=np.int64(7)).n == 7  # NumPy integers count as integers


# the task that reads each forced sample size
_FORCED_READERS = {"force_p": {}, "force_q": {"task": "clustering", "k": 3},
                   "force_m": {"task": "generic", "n": 30}}


@pytest.mark.parametrize("name", ["force_p", "force_q", "force_m"])
def test_config_forced_sample_sizes_are_bounded(name):
    reader = _FORCED_READERS[name]
    assert getattr(_cfg(**reader, **{name: 2**31 - 1}), name) == 2**31 - 1
    for value in (0, 2**31, 10**30):
        with pytest.raises(ConfigError) as exc:
            _cfg(**reader, **{name: value})
        assert exc.value.field == name


@pytest.mark.parametrize("field, value", [
    ("class_path", 7), ("oracle_path", 3.5), ("output_dir", 5), ("output_dir", b"out"),
])
def test_config_paths_must_be_strings(field, value):
    # an integer would reach open() as a file descriptor
    with pytest.raises(ConfigError) as exc:
        _cfg(**{field: value})
    assert exc.value.field == field
    assert "must be a path string" in str(exc.value)


def test_config_paths_accept_strings_and_none():
    cfg = _cfg(oracle_path="labels.csv", class_path=None, output_dir="out", noise=NoiseSpec())
    assert (cfg.oracle_path, cfg.class_path, cfg.output_dir) == ("labels.csv", None, "out")


@pytest.mark.parametrize("task, n, k", [
    ("ranking", rk._EXACT_ERM_MAX_N + 1, None),
    ("clustering", clu._EXACT_ERM_MAX_N + 1, 3),
    ("clustering", 8, clu._EXACT_ERM_MAX_K + 1),
])
def test_config_refuses_exact_erm_beyond_its_cap(task, n, k):
    with pytest.raises(ConfigError) as exc:
        _cfg(task=task, n=n, k=k)
    assert exc.value.field == "erm"
    assert _cfg(task=task, n=n, k=k, erm="local_search").n == n


def test_config_accepts_exact_erm_at_its_cap():
    assert _cfg(n=rk._EXACT_ERM_MAX_N).erm == "exact"
    assert _cfg(task="clustering", n=clu._EXACT_ERM_MAX_N, k=clu._EXACT_ERM_MAX_K).erm == "exact"


def test_config_geometric_defaults_d():
    cfg = _cfg(task="geometric", n=6)
    assert cfg.d == 2
    with pytest.raises(ConfigError):
        _cfg(task="geometric", n=6, d=3)  # enumeration is planar only


@pytest.mark.parametrize("task, extra", [
    ("ranking", {}), ("clustering", {"k": 3}), ("generic", {}),
])
def test_config_d_only_for_geometric(task, extra):
    # d would be accepted and recorded, yet no non-geometric run reads it
    with pytest.raises(ConfigError) as exc:
        _cfg(task=task, d=7, **extra)
    assert exc.value.field == "d"
    data = _cfg(task=task, **extra).to_dict()
    assert data["d"] is None
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({**data, "d": 2})
    assert exc.value.field == "d"


def test_config_generic_noise_restriction():
    with pytest.raises(ConfigError):
        _cfg(task="generic", n=20, noise=NoiseSpec(kind="distance_decay"))


# (task, field, value): a field the task never reads, so the config refuses it
_UNREAD_FIELDS = [
    ("clustering", "force_p", 3), ("generic", "force_p", 3),
    ("ranking", "force_q", 3), ("generic", "force_q", 3), ("geometric", "force_q", 3),
    ("ranking", "force_m", 3), ("clustering", "force_m", 3), ("geometric", "force_m", 3),
    ("ranking", "class_path", "/nonexistent.csv"), ("clustering", "class_path", "c.csv"),
    ("geometric", "class_path", "c.csv"),
    ("geometric", "oracle_path", "labels.csv"), ("generic", "oracle_path", "labels.csv"),
    # parameters away from their defaults, and restarts without local search
    ("ranking", "params.mu", 0.5), ("ranking", "params.delta", 0.3), ("ranking", "params.c2", 7.0),
    ("ranking", "params.c3", 7.0), ("clustering", "params.c1", 7.0), ("clustering", "params.mu", 1),
    ("generic", "params.c1", 7.0), ("generic", "params.c2", 7.0), ("geometric", "params.c2", 7.0),
    ("geometric", "params.delta", 0.3), ("ranking", "restarts", 9), ("clustering", "restarts", 9),
    ("generic", "restarts", 9), ("geometric", "restarts", 1),
]


def _task_cfg(task, **kw):
    return _cfg(task=task, **({"k": 3} if task == "clustering" else {}), **kw)


# (task, forced size, parameter, value): a forced size leaves its formula's
# parameters unread, so the config refuses them away from their defaults
_FORCED_UNREAD = [
    ("ranking", "force_p", "params.c1", 7.0), ("geometric", "force_p", "params.c1", 7.0),
    ("clustering", "force_q", "params.c2", 7.0), ("generic", "force_m", "params.delta", 0.3),
    ("generic", "force_m", "params.c3", 7.0),
]
_UNREAD_CASES = [(*case, None) for case in _UNREAD_FIELDS]
_UNREAD_CASES += [(task, name, value, forced) for task, forced, name, value in _FORCED_UNREAD]


@pytest.mark.parametrize(
    "task, name, value, forced", _UNREAD_CASES,
    ids=["-".join(str(part) for part in case if part is not None) for case in _UNREAD_CASES],
)
def test_config_refuses_fields_the_task_never_reads(task, name, value, forced):
    sized = {} if forced is None else {forced: 2}
    data = _task_cfg(task, **sized).to_dict()
    if name.startswith("params."):
        data["params"][name[len("params."):]] = value
        kw = {"params": Params(**data["params"])}
    else:
        data[name], kw = value, {name: value}
    for make in (lambda: _task_cfg(task, **sized, **kw), lambda: ExperimentConfig.from_dict(data)):
        with pytest.raises(ConfigError) as exc:
            make()
        assert exc.value.field == name


@pytest.mark.parametrize("task", ["geometric", "generic"])
def test_config_refuses_local_search_without_a_local_search(task):
    with pytest.raises(ConfigError) as exc:
        _task_cfg(task, erm="local_search")
    assert exc.value.field == "erm"


def test_config_refuses_distance_decay_on_clustering():
    with pytest.raises(ConfigError) as exc:
        _task_cfg("clustering", noise=NoiseSpec(kind="distance_decay"))
    assert exc.value.field == "noise.kind"


@pytest.mark.parametrize("task", TASKS)
def test_config_refuses_adversarial_noise_without_an_oracle_file(task):
    with pytest.raises(ConfigError) as exc:
        _task_cfg(task, noise=NoiseSpec(kind="adversarial_file", path="labels.csv"))
    assert exc.value.field == "noise.kind"


@pytest.mark.parametrize("task, name, value", [
    ("ranking", "force_p", 3), ("geometric", "force_p", 3), ("clustering", "force_q", 3),
    ("generic", "force_m", 3), ("generic", "class_path", "c.csv"),
    ("ranking", "oracle_path", "labels.csv"), ("clustering", "oracle_path", "labels.csv"),
    ("ranking", "erm", "local_search"), ("clustering", "erm", "local_search"),
    ("ranking", "noise", NoiseSpec(kind="distance_decay")),
    ("geometric", "noise", NoiseSpec(kind="distance_decay")),
    ("ranking", "noise", NoiseSpec(kind="adversarial_file", path="labels.csv")),
    ("ranking", "params", Params(0.25, c1=7.0)), ("clustering", "params", Params(0.25, c2=7.0)),
    ("geometric", "params", Params(0.25, c1=7.0)),
    ("generic", "params", Params(epsilon=0.25, mu=0.5, delta=0.3, c3=7.0)),
])
def test_config_keeps_fields_the_task_reads(task, name, value):
    extra = {"oracle_path": "labels.csv"} if name == "noise" and value.path else {}
    if name == "oracle_path":  # the file's labels carry no noise of the run's
        extra = {"noise": NoiseSpec()}
    assert getattr(_task_cfg(task, **{name: value}, **extra), name) == value


def test_noise_path_must_be_a_string():
    data = {**_cfg().to_dict(), "oracle_path": "labels.csv"}
    data["noise"] = {"kind": "adversarial_file", "path": [1]}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(data)
    assert exc.value.field == "noise" and "path" in str(exc.value)
    data["noise"]["path"] = "labels.csv"
    assert ExperimentConfig.from_dict(data).noise.path == "labels.csv"


# (noise section, oracle_path, field the error must name): noise a run cannot honour
_NOISE_REFUSED = [
    ({"kind": "distance_decay", "rho": math.nan}, None, "noise.rho"),
    ({"kind": "distance_decay", "scale": math.inf}, None, "noise.scale"),
    ({"kind": "uniform_flip", "eta": -math.inf}, None, "noise.eta"),
    ({"kind": "uniform_flip", "eta": 0.1, "rho": 3.0}, None, "noise.rho"),
    ({"kind": "none", "eta": 0.3}, None, "noise.eta"),
    ({"kind": "none", "scale": 0.3}, None, "noise.scale"),
    ({"kind": "distance_decay", "eta": 0.1}, None, "noise.eta"),
    ({"kind": "none", "path": "b.csv"}, "b.csv", "noise.path"),
    ({"kind": "adversarial_file", "path": "b.csv", "rho": 2.0}, "b.csv", "noise.rho"),
    ({"kind": "adversarial_file", "path": "elsewhere.csv"}, "b.csv", "noise.path"),
    # the file's labels are the run's: noise beside them would never apply
    ({"kind": "uniform_flip", "eta": 0.2}, "b.csv", "noise.kind"),
    ({"kind": "distance_decay"}, "b.csv", "noise.kind"),
    # a number that is not finite, named by its field
    ({"kind": "uniform_flip", "eta": 10**400}, None, "noise.eta"),
    ({"kind": "distance_decay", "rho": None}, None, "noise.rho"),
    ({"kind": "distance_decay", "scale": [0.1]}, None, "noise.scale"),
    ({"kind": "uniform_flip", "eta": True}, None, "noise.eta"),
    ({"kind": "distance_decay", "rho": "x"}, None, "noise.rho"),
]


@pytest.mark.parametrize("noise, oracle_path, named", _NOISE_REFUSED)
def test_config_refuses_noise_the_run_cannot_honour(noise, oracle_path, named):
    data = {"task": "ranking", "n": 6, "params": {"epsilon": 0.3}, "noise": noise,
            "oracle_path": oracle_path}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(data)
    assert exc.value.field == named


def test_config_takes_numpy_noise_numbers():
    data = {"task": "ranking", "n": 6, "noise": {"kind": "uniform_flip", "eta": np.float32(0.25)}}
    assert ExperimentConfig.from_dict(data).noise == NoiseSpec("uniform_flip", eta=0.25)


def test_config_from_dict_fills_left_out_fields_with_their_defaults():
    assert ExperimentConfig.from_dict({"task": "ranking", "n": 6}) == ExperimentConfig("ranking", 6)
    data = {"task": "ranking", "n": 6, "params": {"iterations": 2},
            "noise": {"kind": "uniform_flip", "eta": 0}}
    config = ExperimentConfig.from_dict(data)
    assert config == ExperimentConfig("ranking", 6, params=Params(0.2, iterations=2),
                                      noise=NoiseSpec("uniform_flip", eta=0.0))
    assert json.dumps(config.to_dict()["noise"]["eta"]) == "0.0"


def test_config_roundtrip():
    cfg = _cfg(task="clustering", k=3, erm="local_search", restarts=7)
    d = cfg.to_dict()
    assert d["task"] == "clustering"
    assert d["params"]["epsilon"] == 0.25
    assert "workers" not in d
    back = ExperimentConfig.from_dict(d)
    assert back == cfg


def test_config_from_dict_rejects_unknown_fields():
    d = _cfg().to_dict()
    d["verbosity"] = 3
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(d)
    assert "verbosity" in exc.value.field


def test_config_from_dict_nested_error_path():
    d = _cfg().to_dict()
    d["params"]["epsilon"] = 7.0
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(d)
    assert exc.value.field.startswith("params")


@pytest.mark.parametrize("name, value, why", [
    ("epsilon", 7.0, "must be in (0, 1)"), ("epsilon", "0.3", "must be a number"),
    ("mu", 1.5, "must be in (0, 1]"), ("delta", 0, "must be in (0, 1)"),
    ("iterations", 0, "must be >= 1"), ("c1", math.inf, "must be positive and finite"),
    ("master_seed", -1, "must be non-negative"),
])
def test_config_from_dict_names_the_refused_parameter(name, value, why):
    d = _cfg().to_dict()
    d["params"][name] = value
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(d)
    assert exc.value.field == f"params.{name}"
    assert str(exc.value).startswith(f"params.{name}: {why}")


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5])
def test_params_refuse_a_seed_the_streams_would_truncate(seed):
    """The streams read a master seed's low 64 bits, so a seed at or past
    2**64 would rerun a smaller one under its own name."""
    assert Params(epsilon=0.3, master_seed=2**64 - 1).master_seed == 2**64 - 1
    with pytest.raises(ParamError) as exc:
        Params(epsilon=0.3, master_seed=seed)
    assert exc.value.field == "master_seed"
    d = _cfg().to_dict()
    d["params"]["master_seed"] = seed
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(d)
    assert str(exc.value) == "params.master_seed: must be non-negative and below 2**64"


def test_config_refuses_a_generic_pool_past_the_vc_cap_without_force_m():
    """m comes from a VC dimension search capped at pool size 40: past it a
    generic run needs force_m, and is refused before it starts without one."""
    cap = gen._VC_POOL_CAP
    assert _cfg(task="generic", n=cap).force_m is None
    assert _cfg(task="generic", n=cap + 1, force_m=3).n == cap + 1
    with pytest.raises(ConfigError, match=f"must be set for n > {cap}, ") as exc:
        _cfg(task="generic", n=cap + 1)
    assert exc.value.field == "force_m"


def test_generic_sweep_past_the_vc_cap_fails_before_its_first_run(monkeypatch):
    runs = []
    monkeypatch.setattr("pivotlearn.harness.run_experiment", runs.append)
    with pytest.raises(ConfigError) as exc:
        sweep(_cfg(task="generic", n=20), "n", [20, gen._VC_POOL_CAP + 10])
    assert exc.value.field == "force_m"
    assert runs == []


@pytest.mark.parametrize("name, task", [("c1", "ranking"), ("c2", "clustering"), ("c3", "generic")])
def test_config_refuses_a_constant_past_the_float_range(name, task):
    # 0 < 10**400 < inf holds for a Python int, but its sample size is infinite
    d = _task_cfg(task, erm="local_search" if task != "generic" else "exact").to_dict()
    d["params"][name] = 10**400
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(d)
    assert exc.value.field == f"params.{name}"
    assert str(exc.value).startswith(f"params.{name}: must be positive and finite")


def test_config_caps_k_where_clustering_does():
    assert _cfg(task="clustering", k=clu._MAX_K, erm="local_search").k == 2**31 - 1
    for k in (clu._MAX_K + 1, 10**10):
        with pytest.raises(ConfigError) as exc:
            _cfg(task="clustering", k=k, erm="local_search")
        assert exc.value.field == "k" and "1..2**31 - 1" in str(exc.value)


# (task, config fields, Params fields): NumPy scalars a config stores as Python numbers
_NUMPY_CONFIGS = [
    ("ranking", {"n": np.int64(7), "erm": "local_search", "restarts": np.uint8(2)},
     {"epsilon": np.float64(0.25), "c1": np.float32(0.5), "iterations": np.int16(2),
      "master_seed": np.int64(5)}),
    ("ranking", {"force_p": np.int32(3)}, {"master_seed": np.uint64(5)}),
    ("clustering", {"k": np.int8(3), "force_q": np.int64(2)}, {}),
    ("clustering", {}, {"c2": np.int64(2)}),
    ("generic", {"n": np.int64(12), "force_m": np.int64(4)}, {"mu": np.float64(0.25)}),
    ("generic", {"n": np.int64(12)}, {"delta": np.float16(0.25), "c3": np.float64(0.5)}),
]


@pytest.mark.parametrize("task, top, params", _NUMPY_CONFIGS)
def test_config_stores_numpy_scalars_as_python_numbers(tmp_path, task, top, params):
    # a NumPy scalar used to reach record.json only after the run had bought its labels
    def config(plain):
        def value(v):
            return v.item() if plain and isinstance(v, np.generic) else v

        fields_ = {"k": 3} if task == "clustering" else {}
        fields_.update({name: value(v) for name, v in top.items()})
        prm = {"epsilon": 0.25, "iterations": 2, "master_seed": 5,
               **{name: value(v) for name, v in params.items()}}
        return _cfg(task=task, **fields_, params=Params(**prm))

    got, want = config(plain=False), config(plain=True)
    for holder, ref in ((got, want), (got.params, want.params)):
        for f in dataclasses.fields(holder):
            value = getattr(holder, f.name)
            assert value == getattr(ref, f.name) and type(value) is type(getattr(ref, f.name))
    run(got, str(tmp_path / "got"))
    run(want, str(tmp_path / "want"))
    for name in ("record.json", "trajectory.csv"):
        with open(tmp_path / "got" / name, "rb") as a, open(tmp_path / "want" / name, "rb") as b:
            assert a.read() == b.read()


# (field path in the config dict, bad value, field the error must name)
_NON_INTEGER_FIELDS = [
    (("n",), "8", "n"),
    (("n",), 8.5, "n"),
    (("restarts",), "3", "restarts"),
    (("force_p",), 2.5, "force_p"),
    (("force_q",), 2.0, "force_q"),
    (("force_m",), 2.0, "force_m"),
    (("k",), "3", "k"),
    (("d",), 2.0, "d"),
    (("params", "iterations"), 2.5, "iterations"),
    (("params", "master_seed"), 1.5, "master_seed"),
    (("n",), True, "n"),
]


# (params field, task that reads it): a bool there is refused, not read as 1
_BOOL_PARAMS = [("mu", "generic"), ("c1", "ranking"), ("c2", "clustering"), ("c3", "generic")]


@pytest.mark.parametrize("name, task", _BOOL_PARAMS)
def test_config_from_dict_rejects_a_bool_parameter(name, task):
    d = _task_cfg(task).to_dict()
    d["params"][name] = True
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(d)
    assert exc.value.field == f"params.{name}" and "must be a number" in str(exc.value)


@pytest.mark.parametrize("path, value, name", _NON_INTEGER_FIELDS)
def test_config_from_dict_rejects_non_integers(path, value, name):
    d = _cfg().to_dict()
    d[path[0]] = value if len(path) == 1 else {**d[path[0]], path[1]: value}
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(d)
    assert name in str(exc.value) and "must be an integer" in str(exc.value)


_EDGE_NUMBERS = [10**400, -(10**400), 2**63, -1, 0, 1.5, math.nan, math.inf, -math.inf]
_EDGES = [*_EDGE_NUMBERS, None, True, "7", [7], {"n": 7}]
_JSON_VALUES = st.recursive(
    st.one_of(
        st.sampled_from(_EDGES), st.integers(-(2**80), 2**80),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
        st.sampled_from(["ranking", "clustering", "generic", "geometric", "exact",
                         "local_search", "uniform_flip", "distance_decay", "adversarial_file"]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_CONFIG_PATHS = [
    *[(name,) for name in ExperimentConfig.__dataclass_fields__],
    *[("params", f.name) for f in dataclasses.fields(Params)],
    *[("noise", f.name) for f in dataclasses.fields(NoiseSpec)],
    ("verbosity",), ("params", "verbosity"), ("noise", "verbosity"),
]


def _valid_config_dict(task):
    return _cfg(task=task, k=3 if task == "clustering" else None).to_dict()


def _parent(data, path):
    """The dict that holds the field at `path`, or None when no dict does."""
    node = data
    for key in path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    return node if isinstance(node, dict) else None


@pytest.mark.parametrize("task", TASKS)
def test_config_from_dict_one_edge_value_fails_only_with_config_error(task):
    """Every field set alone to each edge value builds a config or raises ConfigError."""
    for path, value in itertools.product(_CONFIG_PATHS, _EDGES):
        data = _valid_config_dict(task)
        _parent(data, path)[path[-1]] = value
        try:
            ExperimentConfig.from_dict(data)
        except ConfigError:
            pass


@st.composite
def _json_configs(draw):
    """A valid config dict of any task with fields set to junk, dropped or
    added, or no config shape at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON_VALUES)
    data = _valid_config_dict(draw(st.sampled_from(TASKS)))
    edits = st.tuples(st.sampled_from(_CONFIG_PATHS),
                      st.one_of(st.sampled_from(_EDGE_NUMBERS), _JSON_VALUES))
    for path, value in draw(st.lists(edits, max_size=4)):
        node = _parent(data, path)
        if node is None:
            continue
        if draw(st.integers(0, 4)) == 0:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return data


@given(_json_configs())
@settings(max_examples=200, deadline=None)
def test_config_from_dict_fails_only_with_config_error(data):
    """Any JSON-like input builds a config or raises ConfigError, never another error."""
    try:
        ExperimentConfig.from_dict(data)
    except ConfigError:
        pass


# --------------------------------------------------------------------- runs

def test_run_experiment_deterministic_all_tasks():
    for cfg in (_cfg(task="clustering", n=8, k=3, erm="local_search", restarts=3),
                _cfg(task="generic", n=25), _cfg(task="geometric", n=6)):
        assert verify._rerun_identical(cfg) is None, cfg.task


def test_run_record_contents():
    rec = run_experiment(_cfg())
    d = rec.to_dict()
    assert d["status"] == "completed"
    assert d["config"]["task"] == "ranking"
    assert [r["iteration"] for r in d["trajectory"]] == [0, 1, 2]
    assert all(r["wall_ms"] == 0.0 for r in d["trajectory"])
    assert d["final_hypothesis"]["kind"] == "permutation"
    assert d["counters"]["distinct_labeled"] > 0
    assert d["wall_ms_total"] == 0.0
    assert rec.timings_dict()["wall_ms_total"] > 0.0
    assert rec.final_excess == pytest.approx(rec.final_err - rec.nu)


def test_run_trajectory_excess_column():
    rec = run_experiment(_cfg())
    rows = rec.row_dicts()
    for row in rows:
        assert row["excess"] == pytest.approx(row["err"] - rec.nu)


def test_nu_reported_only_at_desk_scale():
    rec = run_experiment(_cfg(task="clustering", n=13, k=3, erm="local_search"))
    assert rec.nu is None
    assert rec.final_excess is None


@pytest.mark.parametrize("erm", ["exact", "local_search"])
def test_ranking_nu_reported_up_to_the_exact_search_bound(erm):
    seed, noise = 9, NoiseSpec(kind="uniform_flip", eta=0.2)
    cfg = _cfg(n=12, erm=erm, force_p=2, noise=noise,
               params=Params(epsilon=0.3, iterations=2, master_seed=seed))
    rec = run_experiment(cfg)
    truth = rk.random_permutation(12, derive_rng(seed, "ground-truth"))
    nu, _ = rk.exact_min_error(orc.make_ranking_oracle(truth, noise, seed=seed))
    assert rec.nu == nu
    assert all(row.err >= nu for row in rec.trajectory.rows)
    assert run_experiment(_cfg(n=rk._EXACT_ERM_MAX_N + 1, erm="local_search", force_p=2)).nu is None


def test_run_generic_task_info():
    rec = run_experiment(_cfg(task="generic", n=25))
    info = rec.task_info
    assert info["pool_size"] == 25
    assert info["class_size"] == 26
    assert info["vc_dim"] == 1
    assert info["theta"] >= 1.0
    assert info["m"] >= 1


def test_run_geometric_task_info():
    rec = run_experiment(_cfg(task="geometric", n=6))
    assert rec.task_info["enumerated_orders"] <= 30
    assert rec.trajectory.status == "completed"


def test_force_p_is_respected():
    rec = run_experiment(_cfg(force_p=2))
    assert rec.task_info["p"] == 2


def test_oracle_path_roundtrip(tmp_path):
    n = 7
    truth = rk.random_permutation(n, derive_rng(55, "t"))
    oracle = orc.make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=55)
    path = str(tmp_path / "labels.csv")
    orc.save_oracle(oracle, path)
    rec = run_experiment(_cfg(oracle_path=path, noise=NoiseSpec()))
    # the run consumed the saved labels: rebuilding them gives the same nu
    nu, _ = rk.exact_min_error(orc.load_oracle(path))
    assert rec.nu == pytest.approx(nu)


def test_oracle_path_size_mismatch(tmp_path):
    truth = rk.random_permutation(5, derive_rng(56, "t"))
    oracle = orc.make_ranking_oracle(truth, NoiseSpec(kind="none"), seed=56)
    path = str(tmp_path / "labels.csv")
    orc.save_oracle(oracle, path)
    with pytest.raises(ConfigError):
        run_experiment(_cfg(n=7, oracle_path=path, noise=NoiseSpec()))


def test_class_path_generic(tmp_path):
    cls = gen.intervals_class(12)
    path = str(tmp_path / "class.csv")
    gen.save_class_csv(cls, path)
    rec = run_experiment(_cfg(task="generic", n=12, class_path=path))
    assert rec.task_info["class_size"] == len(cls)
    assert rec.task_info["vc_dim"] == 2


@pytest.mark.parametrize("n", [500, 3])
def test_class_path_of_another_pool_size_is_refused(tmp_path, n):
    path = str(tmp_path / "class.csv")
    gen.save_class_csv(gen.intervals_class(6), path)
    with pytest.raises(ConfigError) as exc:
        run_experiment(_cfg(task="generic", n=n, class_path=path, force_m=2))
    assert exc.value.field == "n"
    assert str(exc.value) == f"n: class file holds 6 instances, config says {n}"


def test_generic_erm_failure_raises_with_the_errors_of_its_rows(monkeypatch):
    cfg = _cfg(task="generic", n=20, force_m=3,
               params=Params(epsilon=0.3, iterations=3, master_seed=6))
    full = run_experiment(cfg).trajectory.rows
    argmin, calls = gen.class_argmin, []

    def failing(cls, est):
        calls.append(est)
        if len(calls) == 2:
            raise RuntimeError("argmin blew up")
        return argmin(cls, est)

    monkeypatch.setattr(gen, "class_argmin", failing)
    with pytest.raises(ErmFailedError, match="ERM failed at iteration 2: argmin blew up") as exc:
        run_experiment(cfg)
    traj = exc.value.trajectory
    assert traj.status == "erm_failed"
    assert [(r.hypothesis, r.err) for r in traj.rows] == [(r.hypothesis, r.err) for r in full[:2]]
    assert all(r.err is not None for r in traj.rows)


# Small configs that reach every ERM path (exact and local search for both
# pair tasks, the class-wide argmin, the planar-order argmin) with sampled
# bands, clusters and annuli.  The digests were taken from the code before the
# shared enumeration kernel replaced the per-module argmin loops; a refactor
# of the learner must keep every record byte-identical.
_GOLDEN_GRID = {
    ("ranking", "exact"): dict(n=8, force_p=2),
    ("ranking", "local_search"): dict(n=24, force_p=3, restarts=2),
    ("clustering", "exact"): dict(n=10, k=3, force_q=2),
    ("clustering", "local_search"): dict(n=16, k=3, force_q=3, restarts=2),
    ("generic", "exact"): dict(n=30, force_m=4),
    ("geometric", "exact"): dict(n=8, force_p=2),
}
_GOLDEN_DIGESTS = {
    ("ranking", "exact", 0): "a699bccfd5abfff53677c9a97747480c675425dd38d73023933a854152988cf8",
    ("ranking", "exact", 1): "85a22d706f79d9aeeec1c04db259a01fe38e65f6042d383bdc47d63a79b0308c",
    ("ranking", "exact", 2): "c202b67dbdc322a1ca2aa89b17d06928ed55bbb4c855329cb0c08241051dd8b3",
    ("ranking", "local_search", 0): "2d0e7298d49320507a951b5289f281400122512b7a2ecfb20926b20d095a10ad",
    ("ranking", "local_search", 1): "29f2c8dea6b557d3f54f05f2f164a23c09f49b686399e088b74f09447e69b703",
    ("ranking", "local_search", 2): "a5e5b37ac9c08a6f11c397a240a84f99bf7db6e8474d671bb94f87f05ed66c87",
    ("clustering", "exact", 0): "3fa8f1b37e85ae3a12d3cfb870292540d962e6f5fbd71b490e3bbf3338895476",
    ("clustering", "exact", 1): "5b65b16676364e4bae663b8f36e572d024ae90d8dc42fb297516ee8c43b8ed5a",
    ("clustering", "exact", 2): "e9a609ec819a6e951d5376a3ba6142140eb65565228f0bb6c4aef4b6457b40a8",
    ("clustering", "local_search", 0): "1ceb20277d532a3c0820b3b0fdac781269130af4d56adc9c6df7f7cf3cd09745",
    ("clustering", "local_search", 1): "cde42aa3fb3f9bc989fa9b7254406b3da73f1291c14a91ba16d45f243a8588ea",
    ("clustering", "local_search", 2): "cdff5a079cf9e77966a325dbc8e7e6f0049530a49dc43426a46aad657cf614c8",
    ("generic", "exact", 0): "d0fe74747fcca09f28f8ca6ce8250b0db090e5a18d50d1ce3e50aaeaba15896d",
    ("generic", "exact", 1): "493893b894130bbfda981c07e4c0b0cbd52a51d7754953df351b040cc2344b34",
    ("generic", "exact", 2): "a791236149e71f57fc53739bda707dd8b387146b3f7f5f66473ccc3055818eba",
    ("geometric", "exact", 0): "075e2e936d712d02a1ca25904a2c6dbe99e48ff2c1bb7dc2f95bc7af6bfbd085",
    ("geometric", "exact", 1): "eb16948e100e9c6baa9d89ed297d1ead0694e56620110d1e5ab97b699a66f874",
    ("geometric", "exact", 2): "03d286402b7d2dac9fd27fe058db97486288a23cdd27f080954179b9fbd4d987",
}


@pytest.mark.parametrize("task, erm, seed", list(_GOLDEN_DIGESTS))
def test_record_digest_golden(task, erm, seed):
    cfg = ExperimentConfig(
        task=task, erm=erm,
        params=Params(epsilon=0.3, iterations=2, master_seed=seed),
        noise=NoiseSpec(kind="uniform_flip", eta=0.1),
        **_GOLDEN_GRID[task, erm],
    )
    record = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == _GOLDEN_DIGESTS[task, erm, seed]


# Generic runs that size m from the thresholds class's own disagreement
# coefficient and VC dimension (no force_m), at the sweep's pool size and one
# smaller; each n runs every seed in one process, so later seeds read
# whatever the first run of that class computed.
_GENERIC_SIZED_DIGESTS = {
    (30, 0): "2eb5d8e50e9f111ff1bd8cd54307be261f16d2764de3916236b98ff757363265",
    (30, 1): "4b8a9afee68e53859654fe2f7d87757c0bf385ec97a35d189dbabe83d2f16736",
    (30, 2): "84ee51986351f223c579004b494b219c4953b457a4ddedc072b357cc0181f308",
    (40, 0): "58de0db11a080188dac2d7e9ad4d4e6f7bfa8a518c1bd276170921880e92aada",
    (40, 1): "1ef08570cc67995c31b3a8b832212f1b7410f169f61146ed70738a8ea53b5474",
}


@pytest.mark.parametrize("n, seed", list(_GENERIC_SIZED_DIGESTS))
def test_generic_sized_record_digest_golden(n, seed):
    cfg = ExperimentConfig(
        task="generic", n=n,
        params=Params(epsilon=0.3, iterations=2, master_seed=seed),
        noise=NoiseSpec(kind="uniform_flip", eta=0.1),
    )
    record = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == _GENERIC_SIZED_DIGESTS[n, seed]


def _derivation_tags(monkeypatch, cfg) -> list[tuple]:
    """Tags of every derive_rng call one run makes, whichever module makes it."""
    import pivotlearn
    import pivotlearn.seeding

    original = pivotlearn.seeding.derive_rng
    tags = []

    def counting(master_seed, *rest):
        tags.append(rest)
        return original(master_seed, *rest)

    for module in [pivotlearn] + [m for name, m in sys.modules.items()
                                  if name.startswith("pivotlearn.")]:
        if getattr(module, "derive_rng", None) is original:
            monkeypatch.setattr(module, "derive_rng", counting)
    run_experiment(cfg)
    return tags


@pytest.mark.parametrize("task, erm, extra", [
    ("ranking", "exact", dict(n=8, force_p=2)),
    ("ranking", "local_search", dict(n=24, force_p=3, restarts=1)),
    ("clustering", "exact", dict(n=10, k=3, force_q=2)),
    ("clustering", "local_search", dict(n=16, k=3, force_q=3, restarts=1)),
    ("geometric", "exact", dict(n=8, force_p=2)),
    ("generic", "exact", dict(n=12, force_m=3)),
])
def test_unread_erm_stream_is_never_derived(monkeypatch, task, erm, extra):
    cfg = _cfg(task=task, erm=erm, params=Params(epsilon=0.3, iterations=3, master_seed=4),
               **extra)
    tags = _derivation_tags(monkeypatch, cfg)
    assert [t for t in tags if t[0] == "build"] == [("build", i) for i in (1, 2, 3)]
    assert not [t for t in tags if t[0] == "erm"]


@pytest.mark.parametrize("task, extra", [
    ("ranking", dict(n=24, force_p=3)), ("clustering", dict(n=16, k=3, force_q=3)),
])
def test_restarted_local_search_derives_its_erm_stream(monkeypatch, task, extra):
    cfg = _cfg(task=task, erm="local_search", restarts=2,
               params=Params(epsilon=0.3, iterations=3, master_seed=4), **extra)
    tags = _derivation_tags(monkeypatch, cfg)
    assert [t for t in tags if t[0] == "erm"] == [("erm", i) for i in (1, 2, 3)]


# ---------------------------------------------------------------- artifacts

def test_write_run_artifacts(tmp_path):
    rec = run_experiment(_cfg())
    paths = write_run(rec, str(tmp_path / "out"))
    record = json.loads(Path(paths["record"]).read_text())
    assert record["config"]["n"] == 7
    with open(paths["trajectory"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "err", "excess", "distinct_queries",
                       "cumulative_queries", "wall_ms"]
    assert len(rows) == 1 + 3  # header + iterations 0..2
    assert all(r[-1] == "0.0" for r in rows[1:])  # wall column zeroed
    timings = json.loads(Path(paths["timings"]).read_text())
    assert timings["wall_ms_total"] > 0


def test_run_writes_when_out_dir_given(tmp_path):
    out = str(tmp_path / "runout")
    rec = run(_cfg(), out_dir=out)
    assert os.path.exists(os.path.join(out, "record.json"))
    assert rec.final_err is not None


def test_record_json_byte_stable():
    # compares the written record.json and trajectory.csv bytes of two runs
    assert verify._rerun_identical(_cfg()) is None


# ------------------------------------------------------------------- sweeps

def test_sweep_axis_values_and_summary(tmp_path):
    base = _cfg(erm="local_search", restarts=2)
    out = str(tmp_path / "sw")
    records, summary = sweep(base, "n", [6, 8], workers=1, out_dir=out)
    assert [r.config.n for r in records] == [6, 8]
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n"
    assert [r[0] for r in rows[1:]] == ["6", "8"]
    assert os.path.isdir(os.path.join(out, "point-00-n-6"))
    assert os.path.isdir(os.path.join(out, "point-01-n-8"))


def test_sweep_over_numpy_numbers_runs_what_it_reports(tmp_path):
    """NumPy values seed, run, summarize and name each point as their Python values do."""
    base = _cfg(erm="local_search", restarts=2)
    python = sweep(base, "n", [6, 8], workers=1, out_dir=str(tmp_path / "py"))
    numpy = sweep(base, "n", np.array([6, 8]), workers=1, out_dir=str(tmp_path / "np"))
    assert [r.to_dict() for r in numpy[0]] == [r.to_dict() for r in python[0]]
    assert numpy[1] == python[1]
    for name in ("summary.csv", "point-00-n-6/record.json", "point-01-n-8/record.json"):
        assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "py" / name).read_bytes()
    records, summary = sweep(_cfg(), "epsilon", [np.float32(0.3)], workers=1,
                             out_dir=str(tmp_path / "eps"))
    ran = records[0].config.params.epsilon
    assert ran == float(np.float32(0.3)) and summary[0][0] == ran
    with open(tmp_path / "eps" / "summary.csv") as fh:
        assert list(csv.reader(fh))[1][0] == repr(ran)
    assert (tmp_path / "eps" / f"point-00-epsilon-{ran!r}").is_dir()


def test_sweep_worker_count_invariance():
    base = _cfg(erm="local_search", restarts=2,
                params=Params(epsilon=0.3, iterations=2, master_seed=12))
    assert verify._sweep_identical(base, "epsilon", (0.2, 0.3, 0.4), workers=4) is None


def test_threaded_sweep_fills_the_shared_class_once_per_value():
    """Threads that race to derive the shared class's theta and VC dimension
    all read what a serial sweep reads."""
    base = _cfg(task="generic", n=33, params=Params(epsilon=0.3, iterations=2, master_seed=3))
    epsilons = [round(0.2 + 0.01 * i, 2) for i in range(12)]
    gen.thresholds_class.cache_clear()  # nothing derived yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, _ = sweep(base, "epsilon", epsilons, workers=6)
    finally:
        sys.setswitchinterval(interval)
    serial, _ = sweep(base, "epsilon", epsilons, workers=1)
    assert [r.to_dict() for r in threaded] == [r.to_dict() for r in serial]
    cls = gen.thresholds_class(33)
    assert cls._derived == {("theta", 0, 1 / 33): 1.0, ("vc", 4): 1}


def test_sweep_per_point_seeds_differ():
    base = _cfg(erm="local_search", restarts=2)
    records, _ = sweep(base, "n", [6, 7], workers=1)
    seeds = [r.config.params.master_seed for r in records]
    assert seeds[0] != seeds[1]


@pytest.mark.parametrize("axis, value", [("n", 7.5), ("n", 7.0), ("n", True), ("k", 2.5)])
def test_sweep_refuses_a_non_integer_size(axis, value):
    """int() would run n = 7 for 7.5 while the summary row and point say 7.5."""
    base = _cfg(task="clustering", k=2) if axis == "k" else _cfg()
    with pytest.raises(ConfigError) as exc:
        sweep(base, axis, [value], workers=1)
    assert exc.value.field == "values"


@pytest.mark.parametrize("value", ["0.3", True, None, [0.3]])
def test_sweep_refuses_a_non_number_epsilon(value):
    """float("0.3") would run at 0.3 while the summary row and point say '0.3'."""
    with pytest.raises(ConfigError) as exc:
        sweep(_cfg(), "epsilon", [value], workers=1)
    assert exc.value.field == "values"


@pytest.mark.parametrize("workers", [1.5, 2.0, True, "2"])
def test_sweep_refuses_a_non_integer_worker_count(workers):
    """1.5 would run on a two-thread pool; True or 2.0 would pass as a count."""
    with pytest.raises(ConfigError) as exc:
        sweep(_cfg(), "epsilon", [0.3], workers=workers)
    assert exc.value.field == "workers"


def test_sweep_k_axis_requires_clustering():
    with pytest.raises(ConfigError):
        sweep(_cfg(), "k", [2, 3], workers=1)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ConfigError):
        sweep(_cfg(), "banana", [1], workers=1)
