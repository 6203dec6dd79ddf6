"""Tests of scripts/run_experiments.py on a tiny matrix, against the CLI
commands it runs, and a smoke test of scripts/diff_outputs.py on one tree
against itself."""

import csv
import importlib.util
import json
from pathlib import Path

from dataclasses import asdict

import numpy as np
import pytest
from conftest import planted_rank1

from perfcast import RunConfig, write_matrix_csv
from perfcast.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_script(name="run_experiments"):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOO_REPORTS = {"loo-ridge": ("ridge", "in_groups_plus_regression"),
               "loo-cliques-in_groups": ("cliques", "in_groups"),
               "loo-cliques-in_groups_plus_regression":
                   ("cliques", "in_groups_plus_regression"),
               "loo-als": ("als", "in_groups_plus_regression"),
               "loo-ensemble": ("ensemble", "in_groups_plus_regression")}
FLAGS = ["--fractions", "10,20", "--repeats", "1", "--outlier-fraction", "10"]


@pytest.fixture
def matrix_csv(tmp_path):
    m, _, _ = planted_rank1(8, 5, seed=21)
    vals = np.array(m.values)
    vals[1, 2] = vals[5, 0] = np.nan
    src = tmp_path / "m.csv"
    write_matrix_csv(m.with_values(vals), src)
    return src


def test_run_experiments_writes_every_artifact(matrix_csv, tmp_path, capsys):
    out = tmp_path / "results"

    rc = load_script().main([str(matrix_csv), "--out-dir", str(out), *FLAGS])

    assert rc == 0
    # svd is scored only by the sweeps; cliques once per protocol
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}.json" for name in LOO_REPORTS]
        + ["outliers.csv", "outliers.json", "sweep.csv", "sweep.json"])
    for name, (algorithm, protocol) in LOO_REPORTS.items():
        data = json.loads((out / f"{name}.json").read_text())
        assert [r["results"][0]["algorithm"] for r in data["reports"]] == [
            algorithm]
        assert data["run_config"]["command"] == "evaluate"
        assert (data["run_config"]["algorithm"],
                data["run_config"]["protocol"]) == (algorithm, protocol)
        assert data["run_config"]["input"] == str(matrix_csv)
    for name in ("sweep", "outliers"):
        data = json.loads((out / f"{name}.json").read_text())
        assert [r["fraction"] for r in data["reports"]] == [0.1, 0.2]
        assert data["run_config"]["command"] == name
        assert data["run_config"]["algorithms"] == [
            "ridge", "cliques", "als", "svd", "ensemble"]
        assert "algorithm" not in data["run_config"]
        with open(out / f"{name}.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2 * 5
    outliers = json.loads((out / "outliers.json").read_text())
    assert outliers["run_config"]["outlier_fraction"] == 0.1
    assert all(set(r) == {"fraction", "note", "results"}
               for r in outliers["reports"])
    printed = capsys.readouterr().out
    assert printed.count("$ perfcast ") == len(LOO_REPORTS) + 2
    assert f"reports written to {out}/" in printed


def test_run_experiments_defaults_are_runconfig_defaults(matrix_csv,
                                                         tmp_path):
    out = tmp_path / "results"
    assert load_script().main([str(matrix_csv), "--out-dir", str(out),
                               "--algorithms", "ridge"]) == 0
    defaults = asdict(RunConfig())
    for name in ("loo-ridge", "sweep", "outliers"):
        run_config = json.loads((out / f"{name}.json").read_text())[
            "run_config"]
        for key in ("fractions", "repeats", "seed", "outlier_fraction"):
            assert run_config[key] == pytest.approx(defaults[key]), key


def test_run_experiments_writes_what_the_cli_writes(matrix_csv, tmp_path):
    out = tmp_path / "results"
    flags = ["--seed", "3", *FLAGS]
    assert load_script().main([str(matrix_csv), "--out-dir", str(out),
                               *flags]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}

    # the same files, written again by direct calls with the same flags
    direct = [["evaluate", "--algorithm", "cliques", "--protocol",
               "in_groups", "--out-json", "loo-cliques-in_groups.json"]]
    direct += [[name, "--algorithms", "ridge,cliques,als,svd,ensemble",
                "--out-json", f"{name}.json", "--out-csv", f"{name}.csv"]
               for name in ("sweep", "outliers")]
    for command, *args in direct:
        args = [str(out / a) if a.endswith((".json", ".csv")) else a
                for a in args]
        assert main([command, str(matrix_csv), *args, *flags]) == 0
    for name in ("loo-cliques-in_groups.json", "sweep.json", "sweep.csv",
                 "outliers.json", "outliers.csv"):
        assert (out / name).read_bytes() == written[name], name


def test_run_experiments_bad_fraction_is_a_usage_error(matrix_csv, tmp_path,
                                                       capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        load_script().main([str(matrix_csv), "--out-dir", str(out),
                            "--fractions", "5,200"])
    assert exc.value.code == 2
    assert "percentage out of range [0, 100): 200" in capsys.readouterr().err
    assert not [p for p in tmp_path.rglob("*") if p.is_file()
                and p != matrix_csv]


def test_diff_outputs_finds_no_difference_in_one_tree(capsys):
    rc = load_script("diff_outputs").main(
        [str(ROOT), str(ROOT), "--seeds", "0", "--workloads", "loo-als1"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "0 of 120 outputs differ (8 inputs, seeds 0)\n")
