"""Smoke tests of scripts/run_experiments.py on a tiny matrix and of
scripts/diff_outputs.py on one tree against itself."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
from conftest import planted_rank1

from perfcast import write_matrix_csv

ROOT = Path(__file__).resolve().parent.parent


def load_script(name="run_experiments"):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_writes_every_artifact(tmp_path, capsys):
    m, _, _ = planted_rank1(8, 5, seed=21)
    vals = np.array(m.values)
    vals[1, 2] = vals[5, 0] = np.nan
    src = tmp_path / "m.csv"
    write_matrix_csv(m.with_values(vals), src)
    out = tmp_path / "results"

    rc = load_script().main([str(src), "--out-dir", str(out),
                             "--fractions", "10,20", "--repeats", "1",
                             "--outlier-fraction", "10"])

    assert rc == 0
    loo = json.loads((out / "loo.json").read_text())["reports"]
    # ridge, cliques under each of two protocols, als, svd, ensemble
    assert [r["results"][0]["algorithm"] for r in loo] == [
        "ridge", "cliques", "cliques", "als", "svd", "ensemble"]
    for name in ("sweep", "outliers"):
        reports = json.loads((out / f"{name}.json").read_text())["reports"]
        assert [r["fraction"] for r in reports] == [0.1, 0.2]
        with open(out / f"{name}.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2 * 5
    loo_config = json.loads((out / "loo.json").read_text())["run_config"]
    assert "algorithm" not in loo_config and "protocol" not in loo_config
    assert loo_config["runs"] == [
        {"algorithm": a, "protocol": p} for a, p in [
            ("ridge", "in_groups_plus_regression"),
            ("cliques", "in_groups"), ("cliques", "in_groups_plus_regression"),
            ("als", "in_groups_plus_regression"),
            ("svd", "in_groups_plus_regression"),
            ("ensemble", "in_groups_plus_regression")]]
    for name in ("sweep", "outliers"):
        run_config = json.loads((out / f"{name}.json").read_text())[
            "run_config"]
        assert run_config["algorithms"] == [
            "ridge", "cliques", "als", "svd", "ensemble"]
        assert "algorithm" not in run_config
    outliers = json.loads((out / "outliers.json").read_text())
    assert outliers["run_config"]["outlier_fraction"] == 0.1
    assert all(set(r) == {"fraction", "note", "results"}
               for r in outliers["reports"])
    assert f"reports written to {out}/" in capsys.readouterr().out


def test_diff_outputs_finds_no_difference_in_one_tree(capsys):
    rc = load_script("diff_outputs").main(
        [str(ROOT), str(ROOT), "--seeds", "0", "--workloads", "loo-als1"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "0 of 32 outputs differ (8 inputs, seeds 0)\n")
