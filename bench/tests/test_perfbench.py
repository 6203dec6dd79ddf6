"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest bench/tests
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    emitted = [*spans.layer_metrics(_tree(), cells=1),
               "placement.regret", "trace.overhead_ratio"]
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {name: run._unit(name) for name in emitted})
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)


def _tree():
    # invocation 0-10 > cli.main 1-9 > [ridge 2-4 > copy 2.5-3, ridge 5-6.5]
    return [
        ["invocation", 0.0, 10.0, -1, None],
        ["cli.main", 1.0, 9.0, 0, None],
        ["ridge.ridge_predict", 2.0, 4.0, 1, None],
        ["matrix.with_cell_missing", 2.5, 3.0, 2, None],
        ["ridge.ridge_predict", 5.0, 6.5, 1, {"error": "NoBasisError"}],
    ]


def test_self_time_is_duration_minus_children():
    assert spans.self_times(_tree()) == [2.0, 4.5, 1.5, 0.5, 1.5]


def test_self_time_counts_overlapping_children_once():
    tree = [["a", 0.0, 10.0, -1, None],
            ["b", 1.0, 5.0, 0, None],
            ["c", 3.0, 7.0, 0, None],
            ["d", 8.0, 12.0, 0, None]]  # runs past its parent's end
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_invocations_split_and_reindex():
    tree = _tree()
    second = [[n, s + 20, e + 20, p if p < 0 else p + len(tree), i]
              for n, s, e, p, i in tree]
    groups = spans.invocations(tree + second)
    assert len(groups) == 2
    assert groups[1][1][3] == 0 and groups[1][3][3] == 2
    assert spans.self_times(groups[1]) == spans.self_times(tree)


def test_layer_metrics_on_hand_built_tree():
    tree = _tree() + [
        ["cliques.clique_predict", 6.6, 8.0, 1, None],
        ["cliques.group_estimates", 6.7, 6.8, 5, {"n": 0}],
        ["ridge.ridge_predict", 6.9, 7.9, 5, None],
        ["factorization.als_fit", 8.1, 8.5, 1, {"iters": 6, "max_iters": 6}],
        ["factorization.als_fit", 8.5, 8.9, 1, {"iters": 3, "max_iters": 6}],
    ]
    m = spans.layer_metrics(tree, cells=2)
    assert m["ridge.ridge_predict.calls"] == 3
    assert m["ridge.no_basis.calls"] == 1
    assert m["ridge.calls_per_cell"] == 1.5
    assert m["cliques.ridge_fallback.calls"] == 1
    assert m["cliques.covered_ratio"] == 0.0
    assert m["matrix.with_cell_missing.s"] == 0.5
    assert m["factorization.als_fit.iters_total"] == 9
    assert m["factorization.als_fit.not_converged"] == 1
    assert m["cli.self_s"] == pytest.approx(8.0 - 2.0 - 1.5 - 1.4 - 0.8)


def test_generator_is_seeded_and_matches_make_synthetic(tmp_path):
    from perfcast import write_matrix_csv

    syn = workloads.WORKLOADS["loo-als1"].input
    paths = []
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        _, observed = workloads.make_input(syn, seed)
        paths.append(tmp_path / f"{tag}.csv")
        write_matrix_csv(observed, paths[-1])
    digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    assert digest[0] == digest[1] != digest[2]

    script = tmp_path / "script.csv"
    subprocess.run(
        [sys.executable, str(workloads.MAKE_SYNTHETIC), "--out", str(script),
         "--structure", syn.structure, "--rows", str(syn.rows),
         "--machines", str(syn.machines), "--rank", str(syn.rank),
         "--groups", str(syn.groups), "--noise", str(syn.noise),
         "--density", str(syn.density), "--seed", "3"],
        env={**run._env(), "PYTHONPATH": str(workloads.SRC)},
        check=True, stdout=subprocess.DEVNULL)
    assert script.read_bytes() == paths[0].read_bytes()


@pytest.fixture(scope="module")
def loo_cliques_runs(tmp_path_factory):
    """One untraced and one traced worker run of loo-cliques, seed 2:
    each runs every input once."""
    root = tmp_path_factory.mktemp("runs")
    workload = workloads.WORKLOADS["loo-cliques"]
    inputs = run._write_inputs(workload, 2, root)
    results = {sub: run._run_worker(root / sub, workload.name, 0.0,
                                    sub == "traced")
               for sub in ("untraced", "traced")}
    return workload, inputs, results


def test_traced_and_untraced_outputs_are_byte_identical(loo_cliques_runs):
    _, inputs, results = loo_cliques_runs
    untraced, traced = results["untraced"], results["traced"]
    n = len(inputs)
    assert untraced["failures"] == traced["failures"] == [None] * n
    assert untraced["kept"] == traced["kept"] == {
        str(j): f"m{j}/inv{j}" for j in range(n)}
    assert untraced["hashes"] == traced["hashes"]
    for name in ("report.json", "report.csv"):
        assert ((untraced["dir"] / "m1" / "inv1" / name).read_bytes()
                == (traced["dir"] / "m1" / "inv1" / name).read_bytes())
    assert (traced["dir"] / "spans.json").exists()


def test_checks_pass_and_catch_a_tampered_report(loo_cliques_runs, tmp_path):
    workload, inputs, results = loo_cliques_runs
    truth, observed, _ = inputs[0]
    good = results["untraced"]["dir"] / "m0" / "inv0"
    verdict = checks.check(workload, good, observed, truth)
    assert verdict.problems == [] and verdict.uncovered == 0
    assert verdict.mean_rel_error > 0

    bad = tmp_path / "bad"
    shutil.copytree(good, bad)
    payload = json.loads((bad / "report.json").read_text())
    payload["reports"][0]["results"][0]["cells"][0]["predicted"] *= 2
    (bad / "report.json").write_text(json.dumps(payload))
    assert checks.check(workload, bad, observed, truth).problems


def test_traced_run_reports_the_layers(loo_cliques_runs):
    _, inputs, results = loo_cliques_runs
    observed = inputs[0][1]
    metrics, self_s = run._traced_figures(results["traced"],
                                          observed.count_present)
    assert metrics["matrix.with_cell_missing.calls"] == observed.count_present
    assert metrics["factorization.als_fit.calls"] == 0
    assert self_s[0][0] == "matrix.with_cell_missing"
