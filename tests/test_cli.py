import csv
import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import ExperimentConfig, NoiseSpec, Params, run_experiment, verify
from pivotlearn.cli import main
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
    ("n", "6,7.5", "values"), ("epsilon", "0.2,abc", "values"), ("epsilon", "1.5", "params"),
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
