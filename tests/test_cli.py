import json
import os

import pytest

from pivotlearn.cli import main
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


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_suite_passes(suite):
    report = run_suite(suite)
    assert report.passed, [(r.name, r.detail) for r in report.results if not r.passed]


def test_verify_selected_suite(capsys):
    assert main(["verify", "rank-distances"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "0 failing" in out


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
