import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import ExperimentConfig, NoiseSpec, Params, run_experiment, verify
from pivotlearn import clustering as clu
from pivotlearn import generic as gen
from pivotlearn import ranking as rk
from pivotlearn.cli import _config_from_args, build_parser, main
from pivotlearn.harness import _TASKS, TASKS
from pivotlearn.oracles import LabelOracle
from pivotlearn.verify import SUITES, run_suite


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pivotlearn" in capsys.readouterr().out


def test_run_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["run", "--task", "ranking", "--n", "7", "--epsilon", "0.25",
                 "--iterations", "2", "--noise", "uniform_flip", "--eta", "0.1",
                 "--seed", "3", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "status=completed" in text
    assert os.path.exists(os.path.join(out, "record.json"))
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "timings.json"))


def test_run_env_var_default_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIVOTLEARN_OUT", str(tmp_path / "envout"))
    code = main(["run", "--task", "ranking", "--n", "6", "--iterations", "1",
                 "--erm", "local_search", "--restarts", "2"])
    assert code == 0
    assert os.path.exists(str(tmp_path / "envout" / "run" / "record.json"))


def test_run_config_file_wins(tmp_path, capsys):
    cfg = {
        "task": "clustering", "n": 7, "k": 3,
        "params": {"epsilon": 0.3, "iterations": 2, "master_seed": 4},
        "noise": {"kind": "uniform_flip", "eta": 0.1},
        "erm": "local_search", "restarts": 2,
        "output_dir": str(tmp_path / "fromcfg"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(path), "--task", "ranking"])
    assert code == 0
    assert "task=clustering" in capsys.readouterr().out
    assert os.path.exists(str(tmp_path / "fromcfg" / "record.json"))


# (flags, the config they parse to): together the cases give every config flag
_FLAG_CONFIGS = [
    (["--task", "ranking", "--n", "6"], ExperimentConfig(task="ranking", n=6)),
    (["--task", "ranking", "--n", "20", "--epsilon", "0.3", "--iterations", "2", "--c1", "0.5",
      "--seed", "4", "--noise", "distance_decay", "--rho", "1.5", "--scale", "0.4",
      "--erm", "local_search", "--restarts", "2", "--out", "o"],
     ExperimentConfig(task="ranking", n=20, params=Params(0.3, iterations=2, c1=0.5, master_seed=4),
                      noise=NoiseSpec("distance_decay", rho=1.5, scale=0.4), erm="local_search",
                      restarts=2, output_dir="o")),
    (["--task", "clustering", "--n", "8", "--k", "3", "--c2", "0.5", "--noise", "uniform_flip",
      "--eta", "0.1"],
     ExperimentConfig(task="clustering", n=8, k=3, params=Params(0.2, c2=0.5),
                      noise=NoiseSpec("uniform_flip", eta=0.1))),
    (["--task", "clustering", "--n", "8", "--k", "3", "--force-q", "2", "--oracle-file", "l.csv"],
     ExperimentConfig(task="clustering", n=8, k=3, force_q=2, oracle_path="l.csv")),
    (["--task", "generic", "--n", "30", "--mu", "0.1", "--delta", "0.2", "--c3", "0.5",
      "--class-file", "c.csv"],
     ExperimentConfig(task="generic", n=30, params=Params(0.2, mu=0.1, delta=0.2, c3=0.5),
                      class_path="c.csv")),
    (["--task", "generic", "--n", "30", "--force-m", "4"],
     ExperimentConfig(task="generic", n=30, force_m=4)),
    (["--task", "geometric", "--n", "8", "--d", "2", "--force-p", "3"],
     ExperimentConfig(task="geometric", n=8, d=2, force_p=3)),
]


@pytest.mark.parametrize("flags, config", _FLAG_CONFIGS)
def test_flags_parse_to_the_config_they_set(flags, config):
    assert _config_from_args(build_parser().parse_args(["run", *flags])) == config


def test_every_config_field_has_a_flag_and_takes_the_dataclass_default():
    """A run flag sets each field of ExperimentConfig, Params and NoiseSpec
    but noise.path, and no flag that sets one has a default of its own."""
    paths = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"params", "noise"}
    paths |= {f"params.{f.name}" for f in dataclasses.fields(Params)}
    paths |= {f"noise.{f.name}" for f in dataclasses.fields(NoiseSpec)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert paths - {a.dest for a in sub.choices["run"]._actions} == {"noise.path"}
    for name in ("run", "sweep", "oracle-gen"):
        for action in sub.choices[name]._actions:
            if action.dest in paths:
                assert action.default is argparse.SUPPRESS, (name, action.dest)


def test_run_missing_required_flags_is_config_error(capsys):
    assert main(["run", "--n", "6"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_d_outside_geometric_is_config_error(tmp_path, capsys):
    code = main(["run", "--task", "ranking", "--n", "6", "--d", "7",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "config error: d:" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x"))


@pytest.mark.parametrize("flags", [
    ["--task", "ranking", "--n", "15"],
    ["--task", "clustering", "--n", "40", "--k", "3"],
])
def test_run_exact_erm_beyond_its_cap_is_config_error(tmp_path, capsys, monkeypatch, flags):
    def refuse(*args):
        raise AssertionError("a label was bought")

    monkeypatch.setattr(LabelOracle, "query_many", refuse)
    assert main(["run", *flags, "--out", str(tmp_path / "x")]) == 2
    assert "config error: erm:" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x"))


@pytest.mark.parametrize("flags, named", [
    (["--task", "clustering", "--k", "3", "--force-p", "3"], "force_p"),
    (["--task", "ranking", "--force-q", "3"], "force_q"),
    (["--task", "ranking", "--force-m", "3"], "force_m"),
    (["--task", "ranking", "--class-file", "/nonexistent.csv"], "class_path"),
    (["--task", "geometric", "--oracle-file", "labels.csv"], "oracle_path"),
    (["--task", "generic", "--erm", "local_search"], "erm"),
    (["--task", "clustering", "--k", "3", "--noise", "distance_decay"], "noise.kind"),
    (["--task", "ranking", "--eta", "0.3"], "noise.eta"),
])
def test_run_field_the_task_never_reads_is_config_error(tmp_path, capsys, monkeypatch,
                                                        flags, named):
    def refuse(*args):
        raise AssertionError("a label was bought")

    monkeypatch.setattr(LabelOracle, "query_many", refuse)
    assert main(["run", *flags, "--n", "8", "--out", str(tmp_path / "x")]) == 2
    assert f"config error: {named}:" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x"))


@pytest.mark.parametrize("path, named", [("labels.csv", "noise.kind"), ([1], "noise")])
def test_run_adversarial_noise_without_an_oracle_file_is_config_error(tmp_path, capsys,
                                                                      path, named):
    cfg = {"task": "ranking", "n": 6, "params": {"epsilon": 0.3},
           "noise": {"kind": "adversarial_file", "path": path}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert f"config error: {named}:" in capsys.readouterr().err


def test_run_k_past_the_cluster_id_range_is_config_error(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a label was bought")

    monkeypatch.setattr(LabelOracle, "query_many", refuse)
    argv = ["run", "--task", "clustering", "--n", "5", "--k", "10000000000",
            "--erm", "local_search", "--force-q", "2", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "config error: k:" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x"))


def test_run_bad_epsilon_is_config_error(tmp_path, capsys):
    code = main(["run", "--task", "ranking", "--n", "6", "--epsilon", "2.0",
                 "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("flags, code, named", [
    (["--c1", "inf"], 2, "c1"),
    (["--c2", "inf"], 2, "c2"),
    (["--c3", "inf"], 2, "c3"),
    (["--c1", "nan"], 2, "c1"),
    (["--force-p", "1000000000000000000000000000000"], 2, "force_p"),
    (["--c1", "1e300"], 1, "sample size p"),
    (["--epsilon", "1e-120"], 1, "sample size p"),
])
def test_run_huge_or_non_finite_sample_size_is_named(tmp_path, capsys, flags, code, named):
    argv = ["run", "--task", "ranking", "--n", "10", "--out", str(tmp_path / "x"), *flags]
    assert main(argv) == code
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("patch", [
    {"n": "8"}, {"n": 8.5}, {"restarts": "3"}, {"force_p": 2.5},
    {"params": {"epsilon": 0.3, "iterations": 2.5}},
    {"params": {"epsilon": 0.3, "master_seed": 1.5}},
])
def test_run_config_non_integer_is_config_error(tmp_path, capsys, patch):
    cfg = {"task": "ranking", "n": 6, "params": {"epsilon": 0.3}, **patch}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "must be an integer" in err


@pytest.mark.parametrize("cfg, named", [
    (5, "config"),
    ({"task": "ranking", "n": 6, "params": None}, "params"),
    ({"task": "ranking", "n": 6, "params": {"epsilon": 0.3}, "noise": None}, "noise"),
    ({"task": "ranking", "n": 6, "params": {"epsilon": 0.3},
      "noise": {"kind": "uniform_flip", "eta": [1]}}, "noise.eta"),
])
def test_run_config_wrong_json_shape_is_config_error(tmp_path, capsys, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert f"config error: {named}:" in capsys.readouterr().err


def test_run_config_non_string_path_is_config_error(tmp_path, capsys):
    cfg = {"task": "generic", "n": 12, "params": {"epsilon": 0.3}, "class_path": 7}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "class_path" in err


@pytest.mark.parametrize("axis, values, named", [
    ("n", "6,7.5", "values"), ("epsilon", "0.2,abc", "values"),
    ("epsilon", "1.5", "params.epsilon"),
])
def test_sweep_bad_values_are_config_errors(tmp_path, capsys, axis, values, named):
    argv = ["sweep", "--task", "ranking", "--n", "6", "--axis", axis, "--values", values,
            "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert f"config error: {named}:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


def test_sweep_prints_table(tmp_path, capsys):
    out = str(tmp_path / "sw")
    code = main(["sweep", "--task", "ranking", "--n", "6", "--epsilon", "0.3",
                 "--iterations", "1", "--erm", "local_search", "--restarts", "2",
                 "--axis", "n", "--values", "6,8", "--workers", "2", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "final_err" in text
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.isdir(os.path.join(out, "point-00-n-6"))


# -- the property registry: each property runs at the inputs of `pivotlearn verify`, then at
# these hypothesis draws.  The module tests run the other properties at their own cases
# (larger build counts, more draws) by calling the same check.

_SEEDS = st.integers(0, 10_000)
_LABEL_FILES = tempfile.TemporaryDirectory()  # adversarial label files of the stress draws


def _draws(examples, **inputs):
    return examples, st.fixed_dictionaries(inputs)


@st.composite
def _stress_cases(draw):
    """A small config of any task, noise kind (a label file for pair tasks), ERM and size."""
    task = draw(st.sampled_from(TASKS))
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(_TASKS[task].noise))
    fields = {"k": draw(st.integers(1, 4))} if task == "clustering" else {}
    force = {"clustering": "force_q", "generic": "force_m"}.get(task, "force_p")
    fields[force] = draw(st.none() | st.integers(1, 6))
    noise = NoiseSpec()
    if kind == "uniform_flip":
        noise = NoiseSpec(kind, eta=draw(st.floats(0, 0.5, exclude_max=True)))
    elif kind == "distance_decay":
        noise = NoiseSpec(kind, rho=draw(st.floats(0.1, 2)), scale=draw(st.floats(0.05, 1)))
    elif kind == "adversarial_file":  # labels that no ground truth explains
        path = os.path.join(_LABEL_FILES.name, f"{task}-{n}.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([("u", "v", "label")] + [
                (u, v, draw(st.integers(0, 1))) for u in range(n) for v in range(u + 1, n)])
        noise, fields["oracle_path"] = NoiseSpec(kind, path=path), path
    erm = draw(st.sampled_from(_TASKS[task].erms))
    if erm == "local_search":
        fields["restarts"] = draw(st.integers(1, 3))
    params = Params(epsilon=draw(st.floats(0.1, 0.6)), iterations=draw(st.integers(1, 3)),
                    master_seed=draw(_SEEDS))
    epsilons = tuple(draw(st.lists(st.floats(0.1, 0.6), min_size=2, max_size=2, unique=True)))
    config = ExperimentConfig(task=task, n=n, noise=noise, erm=erm, params=params, **fields)
    return {"config": config, "epsilons": epsilons}


_ANNULI = _draws(20, family=st.sampled_from(["thresholds", "intervals"]),
                 pool=st.integers(4, 24), mu=st.sampled_from([1.0, 0.5, 0.25, 0.11, 0.03]),
                 seed=_SEEDS)
_STRONGER = {
    ("canonicalization", verify._relabel_invariant): [
        _draws(50, n=st.integers(2, 12), k=st.integers(2, 4), seed=_SEEDS)],
    ("annuli", verify._annuli_disjoint): [_ANNULI],
    ("annuli", verify._annuli_cover): [_ANNULI],
    ("annuli", verify._annuli_mass): [_ANNULI],
    ("geometric-bound", verify._disagreement_bound): [
        _draws(10, n=st.integers(3, 12), seed=_SEEDS)],
    ("stress", verify._stress): [(60, _stress_cases())],
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_suite_passes(suite):
    report = run_suite(suite)
    assert report.passed, [(r.name, r.detail) for r in report.results if not r.passed]
    for check in dict.fromkeys(prop.check for prop in SUITES[suite]):
        for examples, cases in _STRONGER.get((suite, check), ()):

            @settings(max_examples=examples, deadline=None)
            @given(cases)
            def drawn(case):
                assert check(**case) is None

            drawn()


def test_verify_selected_suite(capsys):
    assert main(["verify", "unbiasedness-ranking", "determinism"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "[PASS] unbiasedness-ranking: mean over 1500 builds matches regret",
        "[PASS] determinism: repeated run records identical",
        "[PASS] determinism: sweep summaries identical at 1 and 8 workers",
        "2 suites, 0 failing properties",
    ]


def test_verify_names_the_failing_property(capsys, monkeypatch):
    broken = dataclasses.replace(SUITES["rank-distances"][0], check=lambda **c: f"at {c['n']}")
    monkeypatch.setitem(SUITES, "rank-distances", [broken, SUITES["rank-distances"][1]])
    assert main(["verify", "rank-distances"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] rank-distances: footrule sandwich  (at " in out
    assert "[PASS] rank-distances: inversion count vs quadratic scan" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "made-up-suite"]) == 2


def test_oracle_gen_ranking(tmp_path, capsys):
    out = str(tmp_path / "orc.csv")
    code = main(["oracle-gen", "--task", "ranking", "--n", "9",
                 "--noise", "uniform_flip", "--eta", "0.2", "--seed", "5",
                 "--out", out])
    assert code == 0
    assert os.path.exists(out)
    assert os.path.exists(out + ".json")
    assert "realized ground-truth error" in capsys.readouterr().out


def test_oracle_gen_clustering_needs_k(tmp_path):
    assert main(["oracle-gen", "--task", "clustering", "--n", "8",
                 "--out", str(tmp_path / "c.csv")]) == 2


def test_generated_oracle_feeds_run(tmp_path, capsys):
    out = str(tmp_path / "orc.csv")
    main(["oracle-gen", "--task", "ranking", "--n", "7", "--noise", "uniform_flip",
          "--eta", "0.1", "--seed", "6", "--out", out])
    capsys.readouterr()
    code = main(["run", "--task", "ranking", "--n", "7", "--iterations", "2",
                 "--oracle-file", out, "--out", str(tmp_path / "run")])
    assert code == 0
    assert "status=completed" in capsys.readouterr().out


def test_run_from_an_oracle_file_refuses_noise_it_would_never_apply(tmp_path, capsys):
    """The file's labels are the run's labels: a noise flag beside it would be
    recorded, yet change nothing."""
    out = str(tmp_path / "orc.csv")
    assert main(["oracle-gen", "--task", "ranking", "--n", "12", "--out", out]) == 0
    run = ["run", "--task", "ranking", "--n", "12", "--oracle-file", out, "--force-p", "3"]
    for noise in (["--noise", "uniform_flip", "--eta", "0.2"], ["--noise", "distance_decay"]):
        capsys.readouterr()
        assert main([*run, *noise, "--out", str(tmp_path / "x")]) == 2
        assert "config error: noise.kind:" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")
    for noise in ([], ["--noise", "none"]):
        assert main([*run, *noise, "--out", str(tmp_path / "ok")]) == 0


def test_run_refuses_a_ranking_oracle_file_for_a_clustering_task(tmp_path, capsys):
    """A saved file holds u < v rows only, so its sidecar's mode is all that tells them apart."""
    out = str(tmp_path / "r.csv")
    assert main(["oracle-gen", "--task", "ranking", "--n", "6", "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    assert main(["run", "--task", "clustering", "--n", "6", "--k", "2", "--oracle-file", out,
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mode 'ranking' does not match mode='clustering'" in err
    assert not os.path.exists(tmp_path / "x")


def test_run_refuses_a_class_file_of_another_pool_size(tmp_path, capsys):
    path = str(tmp_path / "class.csv")
    gen.save_class_csv(gen.intervals_class(6), path)
    run = ["run", "--task", "generic", "--class-file", path, "--force-m", "2"]
    for n in ("500", "3"):
        assert main([*run, "--n", n, "--out", str(tmp_path / "x")]) == 2
        assert f"config error: n: class file holds 6 instances, config says {n}" in (
            capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "x")
    assert main([*run, "--n", "6", "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "2"), ("--mu", "1.5"), ("--delta", "0"), ("--iterations", "0"),
    ("--c1", "-1"), ("--seed", "-3"),
])
def test_run_names_the_parameter_it_refuses(tmp_path, capsys, flag, value):
    assert main(["run", "--task", "ranking", "--n", "6", flag, value,
                 "--out", str(tmp_path / "x")]) == 2
    field = {"--seed": "master_seed"}.get(flag, flag[2:])
    assert f"config error: params.{field}: must be" in capsys.readouterr().err


def test_run_refuses_a_seed_past_64_bits(tmp_path, capsys):
    assert main(["run", "--task", "ranking", "--n", "6", "--seed", str(2**64),
                 "--out", str(tmp_path / "x")]) == 2
    assert "config error: params.master_seed: must be non-negative and below 2**64" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x")


def test_run_refuses_a_generic_pool_past_the_vc_cap(tmp_path, capsys):
    out = str(tmp_path / "x")
    n = str(gen._VC_POOL_CAP + 1)
    assert main(["run", "--task", "generic", "--n", n, "--out", out]) == 2
    assert "config error: force_m: must be set for n > 40" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["run", "--task", "generic", "--n", n, "--force-m", "2", "--out", out]) == 0


@pytest.mark.parametrize("task, k", [("ranking", None), ("clustering", 3)])
def test_oracle_gen_writes_the_labels_a_run_learns_from(tmp_path, monkeypatch, task, k):
    n, seed, eta = 9, 7, 0.2
    out = str(tmp_path / "orc.csv")
    flags = ["--k", str(k)] if k else []
    assert main(["oracle-gen", "--task", task, "--n", str(n), *flags, "--noise", "uniform_flip",
                 "--eta", str(eta), "--seed", str(seed), "--out", out]) == 0
    with open(out) as fh:
        rows = [tuple(map(int, row)) for row in list(csv.reader(fh))[1:]]

    queried = []
    query_many = LabelOracle.query_many

    def spy(self, us, vs):
        queried.append(self)
        return query_many(self, us, vs)

    monkeypatch.setattr(LabelOracle, "query_many", spy)
    run_experiment(ExperimentConfig(
        task=task, n=n, k=k, erm="local_search", noise=NoiseSpec(kind="uniform_flip", eta=eta),
        params=Params(epsilon=0.3, iterations=1, master_seed=seed),
    ))
    oracle = queried[0]
    assert all(o is oracle for o in queried)
    us, vs, labels = np.array(rows).T
    assert sorted(zip(us.tolist(), vs.tolist())) == [(u, v) for u in range(n)
                                                     for v in range(u + 1, n)]
    assert oracle.verification_labels(us, vs).tolist() == labels.tolist()


def test_theta_families(capsys):
    assert main(["theta", "--family", "thresholds", "--pool", "20"]) == 0
    assert "theta[pivot=0]" in capsys.readouterr().out
    assert main(["theta", "--family", "permutations", "--n", "5", "--uniform"]) == 0
    assert "uniform" in capsys.readouterr().out


@pytest.mark.parametrize("r_floor", ["nan", "inf", "0"])
@pytest.mark.parametrize("uniform", [[], ["--uniform"]])
def test_theta_refuses_a_floor_that_is_not_positive_and_finite(capsys, r_floor, uniform):
    assert main(["theta", "--family", "thresholds", "--r-floor", r_floor, *uniform]) == 2
    out, err = capsys.readouterr()
    assert "theta[" not in out
    assert "config error: r_floor: must be positive and finite" in err


@pytest.mark.parametrize("family", ["thresholds", "intervals"])
@pytest.mark.parametrize("pool", ["1", "0", "-4"])
def test_theta_refuses_a_pool_below_two(capsys, family, pool):
    assert main(["theta", "--family", family, "--pool", pool]) == 2
    assert f"config error: pool: {family[:-1]} classes need pool >= 2" in capsys.readouterr().err


def test_theta_permutations_cap(capsys):
    # the cap is the one enumerate_sn_class enforces
    assert main(["theta", "--family", "permutations", "--n", "8"]) == 0
    assert "hypotheses=40320" in capsys.readouterr().out
    for n in ("9", "1"):
        assert main(["theta", "--family", "permutations", "--n", n]) == 2
        assert "config error: n: permutation classes are enumerated for 2 <= n <= 8" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("args, field", [
    (["--n", "13", "--k", "3"], "n"),
    (["--n", "1", "--k", "3"], "n"),
    (["--k", "3"], "n"),
    (["--n", "6", "--k", "5"], "k"),
    (["--n", "6"], "k"),
])
def test_theta_partitions_range(capsys, args, field):
    assert main(["theta", "--family", "partitions", *args]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("force", [[], ["--force-m", "3"]])
def test_run_mu_without_a_finite_reciprocal_is_config_error(tmp_path, capsys, force):
    assert main(["run", "--task", "generic", "--n", "20", "--mu", "5e-324", *force,
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: params.mu: must be in (0, 1] with a finite reciprocal")


@pytest.mark.parametrize("task, patch, failure, line", [
    ("clustering", "local_search_erm", MemoryError("Unable to allocate 14.9 GiB"),
     "error: ERM failed at iteration 1: Unable to allocate 14.9 GiB"),
    ("ranking", "random_permutation", MemoryError("Unable to allocate 7.28 TiB"),
     "error: Unable to allocate 7.28 TiB"),
    ("ranking", "random_permutation", MemoryError(), "error: MemoryError"),
])
def test_run_failure_prints_one_error_line(tmp_path, capsys, monkeypatch, task, patch,
                                           failure, line):
    """A failed ERM step or an allocation that fails exits 1 without a traceback."""
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr({"ranking": rk, "clustering": clu}[task], patch, fail)
    args = ["run", "--task", task, "--n", "12", "--erm", "local_search", "--iterations", "1"]
    if task == "clustering":
        args += ["--k", "3"]
    assert main([*args, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_run_config_that_is_not_json_is_config_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"task": "ranking", "n": 5,}')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: {path}: Expecting property name")


def _readme_cli_commands() -> list[list[str]]:
    """argv of each `pivotlearn ...` line in the sh block under README's `## CLI`,
    continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("pivotlearn ")]


def _readme_python_blocks() -> list[str]:
    """Each fenced python block of README, dedented."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fences = re.finditer(r"^( *)```python\n(.*?)^\1```", text, re.MULTILINE | re.DOTALL)
    return [textwrap.dedent(m.group(2)) for m in fences]


def test_readme_python_blocks_run(capsys):
    """A renamed or removed name in the documented library path fails here, not for a reader.

    Each block runs in a fresh namespace; N = 200 stands in for the sizes
    the large-n snippets leave to the reader.
    """
    blocks = _readme_python_blocks()
    assert len(blocks) >= 3
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"N": 200})
    assert "distinct pairs labeled:" in capsys.readouterr().out


def test_readme_cli_examples_parse():
    """A renamed or removed flag or suite fails here, not in a reader's shell."""
    commands = _readme_cli_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pivotlearn {' '.join(argv)}")
        if args.command == "verify":
            assert set(args.suites) <= set(SUITES), argv
