"""End-to-end command-line behavior through cli.main()."""

import csv
import hashlib
import json
import math
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from conftest import grid, planted_rank1, sparse_matrix

from perfcast import (RunConfig, jsonfile, masking_sweep, outlier_sweep,
                      read_matrix_csv, report_to_json, write_matrix_csv)
from perfcast.cli import _build_parser, _load_config, main
from perfcast.config import make_run_config


def write_obs(path, rows, header="program,args,machine,seconds"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def scaled_csv(matrix_csv, tmp_path, factor):
    """matrix_csv's matrix with every time multiplied by factor, written
    to a CSV of its own."""
    m = read_matrix_csv(matrix_csv)
    path = tmp_path / "scaled.csv"
    write_matrix_csv(m.with_values(m.values * factor), path)
    return path


class TestIngest:
    def test_happy_path(self, tmp_path, capsys):
        src = tmp_path / "obs.csv"
        write_obs(src, ["P1,a1,C1,5", "P1,a1,C2,10", "P2,a1,C1,3"])
        out = tmp_path / "m.csv"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "2x2 matrix" in captured.out
        assert captured.err == ""
        assert out.read_text().splitlines()[0] == "program::args,C1,C2"

    def test_duplicate_warning_exit_zero(self, tmp_path, capsys):
        src = tmp_path / "obs.csv"
        write_obs(src, ["P1,a1,C1,4", "P1,a1,C1,6", "P1,a1,C2,1"])
        out = tmp_path / "m.csv"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        line = out.read_text().splitlines()[1]
        assert line == "P1::a1,5.0,1.0"

    def test_missing_header_is_error(self, tmp_path, capsys):
        src = tmp_path / "obs.csv"
        write_obs(src, ["P1,C1,5"], header="program,machine,seconds")
        assert main(["ingest", str(src), "--out",
                     str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "program,args,machine,seconds" in err

    def test_separator_in_program_id_is_error(self, tmp_path, capsys):
        # Both rows would be written as p::x::a, which the matrix reader
        # rejects as a duplicate row key.
        src = tmp_path / "obs.csv"
        write_obs(src, ["p::x,a,C1,1", "p,x::a,C1,2"])
        out = tmp_path / "m.csv"
        assert main(["ingest", str(src), "--out", str(out)]) == 1
        assert "obs.csv:2: program id 'p::x'" in capsys.readouterr().err
        assert not out.exists()


# p3::a3 is cold, so the ALS member cannot be fit: every fill is ridge's,
# cliques' or their mean.
PINNED_INPUT = [[1.0, 2.1, 2.9, 8.0], [2.0, 4.2, None, 5.5],
                [3.0, None, 9.1, 7.0], [None, None, None, None],
                [5.0, 10.3, 14.8, None], [6.0, 12.2, 18.1, 2.5],
                [7.0, 14.1, None, 6.0]]
# `complete --fills-out` on PINNED_INPUT when the default ensemble was
# ridge, cliques and als: (row, column, predicted_seconds, algorithm) per
# fill record. --ensemble ridge,cliques,als gives it still.
PINNED_FILLS = [
    (1, 2, 6.076593431887803, "ensemble:ridge+cliques"),
    (2, 1, 6.139074792176747, "ensemble:ridge+cliques"),
    (3, 0, 4.0, "ensemble:ridge"),
    (3, 1, 8.58, "ensemble:ridge"),
    (3, 2, 11.225000000000001, "ensemble:ridge"),
    (3, 3, 5.8, "ensemble:ridge"),
    (4, 3, 4.934257795895919, "ensemble:ridge"),
    (6, 2, 20.86562964370878, "ensemble:ridge+cliques"),
]


class TestComplete:
    def test_three_member_ensemble_fills_as_the_old_default(
            self, tmp_path, monkeypatch):
        # The values are pinned to 1e-12, for a BLAS that rounds apart;
        # the rest of each record, and the completed CSV's agreement with
        # the log, exactly.
        monkeypatch.chdir(tmp_path)
        m = grid(PINNED_INPUT)
        write_matrix_csv(m, "in.csv")

        def run(*flags):
            assert main(["complete", "in.csv", "--out", "completed.csv",
                         "--fills-out", "fills.json", *flags]) == 0
            log = json.loads((tmp_path / "fills.json").read_text())
            completed = read_matrix_csv("completed.csv")
            fills = []
            for f in log["fills"]:
                r = m.row_keys.index((f["program"], f["args"]))
                c = m.col_keys.index(f["machine"])
                assert completed.values[r, c] == f["predicted_seconds"]
                fills.append((r, c, f["predicted_seconds"], f["algorithm"]))
            assert completed.present_mask.all()
            assert np.array_equal(completed.values[m.present_mask],
                                  m.values[m.present_mask])
            return log["run_config"], fills

        echo, fills = run("--ensemble", "ridge,cliques,als")
        assert echo == json.loads(json.dumps({**asdict(RunConfig(
            ensemble=("ridge", "cliques", "als"))), "input": "in.csv",
            "output": "completed.csv"}))
        assert [f[:2] + f[3:] for f in fills] == [
            f[:2] + f[3:] for f in PINNED_FILLS]
        for (*_, got, _), (*_, want, _) in zip(fills, PINNED_FILLS):
            assert math.isclose(got, want, rel_tol=1e-12)
        # the default fills the same cells; where only ridge reached a
        # cell it has ridge's value and names it, a cold row's cells as
        # its column's mean
        echo, default = run()
        assert echo["ensemble"] == ["cliques", "als"]
        assert [f[:2] for f in default] == [f[:2] for f in fills]
        for (r, _, want, name), (*_, value, got) in zip(fills, default):
            if name == "ensemble:ridge":
                assert value == want
                assert got == ("ridge:column_mean" if r == 3 else "ridge")
            else:
                assert got == "ensemble:cliques"

    def test_full_matrix_roundtrip_identity(self, tmp_path, capsys):
        m, _, _ = planted_rank1(5, 4, seed=2)
        src = tmp_path / "full.csv"
        write_matrix_csv(m, src)
        out = tmp_path / "done.csv"
        assert main(["complete", str(src), "--out", str(out),
                     "--algorithm", "als"]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_als_fills_holes(self, matrix_csv, tmp_path, capsys):
        out = tmp_path / "done.csv"
        fills = tmp_path / "fills.json"
        model = tmp_path / "model.json"
        rc = main(["complete", str(matrix_csv), "--out", str(out),
                   "--algorithm", "als", "--als-lambda", "1e-8",
                   "--fills-out", str(fills), "--model-out", str(model)])
        assert rc == 0
        fill_data = json.loads(fills.read_text())
        assert len(fill_data["fills"]) == 3
        assert fill_data["run_config"]["algorithm"] == "als"
        assert fill_data["run_config"]["als_lambda"] == 1e-8
        model_data = json.loads(model.read_text())
        assert model_data["model"]["k"] == 1
        # holes were rank-1; fills must sit near the planted values
        m, u, v = planted_rank1(8, 6, seed=1)
        for f in fill_data["fills"]:
            i = int(f["program"][1:])
            j = int(f["machine"][1:])
            assert f["predicted_seconds"] == pytest.approx(u[i] * v[j],
                                                           rel=1e-3)

    def test_model_out_rejected_for_ridge(self, matrix_csv, tmp_path,
                                          capsys):
        # refused before the completion runs, so nothing is written
        out = tmp_path / "x.csv"
        rc = main(["complete", str(matrix_csv), "--out", str(out),
                   "--algorithm", "ridge",
                   "--model-out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "does not produce a factor model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--algorithm", "cliques"], "does not produce a factor model"),
        (["--ensemble", "ridge,cliques"],
         "no member of the ensemble (ridge, cliques) fits a factor model"),
    ])
    def test_model_out_refused_before_the_input_is_read(self, tmp_path,
                                                        capsys, flags,
                                                        message):
        # decided from the settings: a missing matrix file is never reached
        rc = main(["complete", str(tmp_path / "missing.csv"), "--out",
                   str(tmp_path / "x.csv"), *flags,
                   "--model-out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err and "No such file" not in err

    def test_ensemble_model_out_is_its_als_member(self, matrix_csv,
                                                  tmp_path, capsys):
        # the default ensemble (ridge, cliques, als) writes the model its
        # als member fit, which ranks and places as als's own does
        ens, als = tmp_path / "ens.json", tmp_path / "als.json"
        done = tmp_path / "done.csv"
        assert main(["complete", str(matrix_csv), "--out", str(done),
                     "--model-out", str(ens)]) == 0
        assert main(["complete", str(matrix_csv), "--out",
                     str(tmp_path / "als.csv"), "--algorithm", "als",
                     "--model-out", str(als)]) == 0
        data = json.loads(ens.read_text())
        assert data["run_config"]["algorithm"] == "ensemble"
        assert data["model"] == json.loads(als.read_text())["model"]
        capsys.readouterr()
        for argv in (["rank", str(ens)], ["place", str(done), "--model",
                                          str(ens)]):
            assert main(argv) == 0
        ranked, placed = [], []
        for line in capsys.readouterr().out.splitlines():
            (ranked if "rank" in json.loads(line) else placed).append(line)
        assert len(ranked) == 6 and len(placed) == 8

    @pytest.mark.parametrize("members,member", [
        ("ridge,cliques,als", "als")])
    def test_model_out_refused_when_the_member_cannot_be_fit(
            self, tmp_path, capsys, members, member):
        # p::a is a cold row: ridge fills it with column means, but the
        # factorization member raises, so there is no model to write;
        # the run stops before any file is written
        src = tmp_path / "cold.csv"
        write_matrix_csv(grid([[None, None, None], [1.0, 2.0, 3.0],
                               [2.0, 4.1, 6.0], [3.0, 6.0, 9.2]]), src)
        outputs = [tmp_path / name for name in ("c.csv", "f.json", "m.json")]
        rc = main(["complete", str(src), "--out", str(outputs[0]),
                   "--fills-out", str(outputs[1]), "--ensemble", members,
                   "--model-out", str(outputs[2])])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == (f"error: the ensemble's {member} member could not "
                       f"be fit (unfactorable matrix: a row has no "
                       f"observations); drop --model-out\n")
        assert not any(path.exists() for path in outputs)
        # without --model-out the completion stands
        assert main(["complete", str(src), "--out", str(outputs[0]),
                     "--ensemble", members]) == 0
        assert outputs[0].exists()

    @pytest.mark.parametrize("k", ["1", "4"])
    def test_als_refuses_factors_that_overflow(self, matrix_csv, tmp_path,
                                               capsys, k):
        # Times near the top of the float range: X0 @ F overflows, and the
        # fit is refused instead of filling with NaN; nothing is written.
        src = scaled_csv(matrix_csv, tmp_path, 1e300)
        outputs = [tmp_path / "c.csv", tmp_path / "f.json"]
        rc = main(["complete", str(src), "--out", str(outputs[0]),
                   "--fills-out", str(outputs[1]), "--algorithm", "als",
                   "--als-k", k])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: unfactorable matrix: the fit's factors overflow to inf "
            "or nan\n")
        assert not any(path.exists() for path in outputs)

    def test_ensemble_without_als_whose_factors_overflow(
            self, matrix_csv, tmp_path, capsys):
        # The default ensemble at x1e300: its als member is refused, so no
        # model is written, and every fill comes from another member.
        # Cliques and ridge overflow too, and warn; the factorization,
        # which checks its own factors, does not.
        src = scaled_csv(matrix_csv, tmp_path, 1e300)
        out, fills = tmp_path / "c.csv", tmp_path / "f.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["complete", str(src), "--out", str(out),
                       "--model-out", str(tmp_path / "m.json")])
            assert rc == 1
            assert "(unfactorable matrix: the fit's factors overflow to " \
                   "inf or nan)" in capsys.readouterr().err
            assert main(["complete", str(src), "--out", str(out),
                         "--fills-out", str(fills)]) == 0
        assert {Path(w.filename).name for w in caught} <= {"cliques.py",
                                                           "ridge.py"}
        assert "NaN" not in fills.read_text()
        records = json.loads(fills.read_text())["fills"]
        assert len(records) == 3
        for record in records:
            assert math.isfinite(record["predicted_seconds"])
            assert "als" not in record["algorithm"]
        assert read_matrix_csv(out).present_mask.all()

    def test_protocol_shapes_the_clique_fills(self, tmp_path, capsys):
        # C5 follows no other column, so no group estimate reaches its
        # missing cells; C1-C4 are proportional and form one clique
        rng = np.random.default_rng(4)
        base = rng.uniform(1, 10, 12)
        values = np.column_stack([base * s for s in (1.0, 2.0, 3.0, 0.5)]
                                 + [rng.uniform(1, 10, 12)])
        values[[1, 5, 8], [0, 2, 4]] = np.nan
        values[10, 4] = np.nan
        src = tmp_path / "m.csv"
        write_matrix_csv(grid(values.tolist()), src)

        out, fills = tmp_path / "out.csv", tmp_path / "fills.json"

        def run(*flags):
            """(completed bytes, fill mechanisms), or None on exit 1."""
            out.unlink(missing_ok=True)
            rc = main(["complete", str(src), "--out", str(out),
                       "--fills-out", str(fills), *flags])
            if rc == 1:
                return None
            log = json.loads(fills.read_text())["fills"]
            return out.read_bytes(), [f["algorithm"] for f in log]

        default, log = run("--algorithm", "cliques")
        assert log == ["cliques", "cliques", "ridge", "ridge"]
        assert run("--algorithm", "cliques", "--protocol",
                   "in_groups_plus_regression") == (default, log)
        # an ensemble's clique member adds only its in-group estimates,
        # under either protocol
        three = ("--algorithm", "ensemble", "--ensemble", "ridge,cliques,als")
        ensemble = run(*three)
        assert ensemble[1] == (["ensemble:ridge+cliques+als"] * 2
                               + ["ensemble:ridge+als"] * 2)
        assert run(*three, "--protocol", "in_groups") == ensemble
        capsys.readouterr()
        assert run("--algorithm", "cliques", "--protocol", "in_groups") is None
        assert "no group estimate for cell" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_algorithm_is_usage_error(self, matrix_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["complete", str(matrix_csv), "--out",
                  str(tmp_path / "x.csv"), "--algorithm", "magic"])
        assert exc.value.code == 2

    def test_unknown_algorithm_via_config_file(self, matrix_csv, tmp_path,
                                               capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithm = magic\n")
        rc = main(["complete", str(matrix_csv), "--out",
                   str(tmp_path / "x.csv"), "--config", str(cfg)])
        assert rc == 1
        assert "magic" in capsys.readouterr().err


class TestEvaluate:
    def test_leave_one_out_summary(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        latent = rng.uniform(1, 10, 7)
        m = grid(np.outer(latent, [1.0, 2.0, 0.5, 4.0]).tolist())
        src = tmp_path / "m.csv"
        write_matrix_csv(m, src)
        out_json = tmp_path / "r.json"
        rc = main(["evaluate", str(src), "--algorithm", "cliques",
                   "--protocol", "in_groups", "--out-json", str(out_json)])
        assert rc == 0
        assert "algorithm=cliques" in capsys.readouterr().out
        data = json.loads(out_json.read_text())
        assert data["run_config"]["protocol"] == "in_groups"
        assert data["reports"][0]["results"][0]["total_error"] < 1e-9

    def test_leave_one_out_reports_its_seed(self, tmp_path):
        # The seed the ALS refits drew their initial factors from is
        # stated once, in the run_config.
        m, _, _ = planted_rank1(6, 4, seed=5)
        src = tmp_path / "m.csv"
        write_matrix_csv(m, src)
        out_json = tmp_path / "r.json"
        assert main(["evaluate", str(src), "--algorithm", "als", "--seed",
                     "7", "--out-json", str(out_json)]) == 0
        data = json.loads(out_json.read_text())
        assert data["run_config"]["seed"] == 7
        assert set(data) == {"reports", "run_config"}
        assert "seed" not in data["reports"][0]

    def test_refits_at_the_iteration_cap_warn_once(self, matrix_csv,
                                                   tmp_path, capsys):
        # one iteration never meets tol: all 45 refits stop at the cap
        out_json = tmp_path / "r.json"
        assert main(["evaluate", str(matrix_csv), "--algorithm", "als",
                     "--als-max-iters", "1",
                     "--out-json", str(out_json)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: 45 of 45 ALS refits ran all als_max_iters (1) "
            "iterations; raise als_max_iters or als_tol for fits whose "
            "RMSE settles"]
        # the tally goes to stderr only: the report keeps its keys
        report = json.loads(out_json.read_text())["reports"][0]
        assert set(report) == {"fraction", "note", "results"}
        assert report["results"][0]["n_cells"] == 45

    def test_refits_that_settle_do_not_warn(self, matrix_csv, tmp_path,
                                            capsys):
        assert main(["evaluate", str(matrix_csv), "--algorithm", "als",
                     "--als-tol", "0.01",
                     "--out-json", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().err == ""


SHARED_FITS = [
    ["complete", "--out", "done.csv", "--fills-out", "fills.json"],
    ["sweep", "--algorithms", "als,svd,ensemble", "--fractions", "10,30",
     "--repeats", "2", "--out-json", "r.json"],
]


@pytest.mark.parametrize("argv", SHARED_FITS, ids=["complete", "sweep"])
def test_shared_fits_at_the_iteration_cap_warn_once(matrix_csv, tmp_path,
                                                    monkeypatch, capsys,
                                                    argv):
    # one iteration never meets tol: the default ensemble's ALS fit, and
    # each of the sweep's four maskings' fits, stop at the cap
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(matrix_csv), *argv[1:],
                 "--als-max-iters", "1"]) == 0
    fits = 1 if argv[0] == "complete" else 4
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {fits} of {fits} shared ALS fits ran all als_max_iters "
        f"(1) iterations; raise als_max_iters or als_tol for fits whose "
        f"RMSE settles"]


@pytest.mark.parametrize("argv", SHARED_FITS, ids=["complete", "sweep"])
def test_shared_fits_that_settle_do_not_warn(matrix_csv, tmp_path,
                                             monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(matrix_csv), *argv[1:],
                 "--als-tol", "0.01"]) == 0
    assert capsys.readouterr().err == ""


class TestSweep:
    def test_percent_fractions_make_points(self, matrix_csv, tmp_path):
        out_csv = tmp_path / "s.csv"
        rc = main(["sweep", str(matrix_csv), "--fractions", "1,5,10",
                   "--repeats", "1", "--algorithms", "ridge",
                   "--out-csv", str(out_csv)])
        assert rc == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0.01", "0.05", "0.1"]

    def test_byte_identical_reruns(self, matrix_csv, tmp_path):
        def run(tag):
            oj = tmp_path / f"{tag}.json"
            oc = tmp_path / f"{tag}.csv"
            assert main(["sweep", str(matrix_csv), "--fractions", "10,20",
                         "--repeats", "2", "--seed", "5",
                         "--algorithms", "ridge,als,ensemble",
                         "--out-json", str(oj), "--out-csv", str(oc)]) == 0
            return (hashlib.sha256(oj.read_bytes()).hexdigest(),
                    hashlib.sha256(oc.read_bytes()).hexdigest())

        assert run("a") == run("b")

    def test_threads_is_a_warned_no_op(self, matrix_csv, tmp_path, capsys):
        def run(threads):
            oj = tmp_path / f"t{threads}.json"
            oc = tmp_path / f"t{threads}.csv"
            rc = main(["sweep", str(matrix_csv), "--fractions", "20",
                       "--repeats", "1", "--algorithms", "ridge,cliques",
                       "--threads", threads,
                       "--out-json", str(oj), "--out-csv", str(oc)])
            return rc, capsys.readouterr().err, oj, oc

        rc1, err1, oj1, oc1 = run("1")
        rc2, err2, oj2, oc2 = run("2")
        assert (rc1, rc2) == (0, 0)
        assert err1 == ""
        assert "warning: threads is ignored; predictions run serially" in err2
        assert oc1.read_bytes() == oc2.read_bytes()
        d1, d2 = json.loads(oj1.read_text()), json.loads(oj2.read_text())
        # the run_config echo still records the value that was given;
        # nothing else differs
        assert (d1["run_config"]["threads"], d2["run_config"]["threads"]) \
            == (1, 2)
        assert d1["reports"] == d2["reports"]
        rc0, err0, _, _ = run("0")
        assert rc0 == 1 and "threads must be >= 1" in err0

    def test_protocol_shapes_the_clique_results(self, tmp_path):
        # C5 follows no other column, so only the fallback reaches it
        rng = np.random.default_rng(4)
        base = rng.uniform(1, 10, 12)
        values = np.column_stack([base * s for s in (1.0, 2.0, 3.0, 0.5)]
                                 + [rng.uniform(1, 10, 12)])
        src = tmp_path / "m.csv"
        write_matrix_csv(grid(values.tolist()), src)

        def run(*flags):
            out = tmp_path / "r.json"
            assert main(["sweep", str(src), "--fractions", "20,40",
                         "--repeats", "2", "--algorithms", "ridge,cliques",
                         *flags, "--out-json", str(out)]) == 0
            data = json.loads(out.read_text())
            assert data["run_config"]["protocol"] == (
                flags[1] if flags else "in_groups_plus_regression")
            return [{res["algorithm"]: res for res in rep["results"]}
                    for rep in data["reports"]]

        default = run()
        in_groups = run("--protocol", "in_groups")
        assert all(rep["cliques"]["n_uncovered"] == 0 for rep in default)
        assert sum(rep["cliques"]["n_uncovered"] for rep in in_groups) > 0
        for d, g in zip(default, in_groups, strict=True):
            assert d["ridge"] == g["ridge"]
            # in_groups keeps the cells the groups reached, as scored with
            # the fallback, and never reaches C5
            kept = g["cliques"]["cells"]
            assert all(c in d["cliques"]["cells"] and c["col"] != 4
                       for c in kept)
            assert (len(kept) + g["cliques"]["n_uncovered"]
                    == len(d["cliques"]["cells"]))

    def test_algorithm_is_not_echoed(self, matrix_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["sweep", str(matrix_csv), "--fractions", "20",
                     "--repeats", "1", "--algorithms", "ridge",
                     "--out-json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "algorithm" not in data["run_config"]
        assert data["run_config"]["algorithms"] == ["ridge"]
        # nor does a cell repeat its result's algorithm
        (rep,) = data["reports"]
        (res,) = rep["results"]
        assert res["algorithm"] == "ridge" and res["cells"]
        assert all(set(c) == {"row", "col", "predicted", "target", "error"}
                   for c in res["cells"])

    def test_infeasible_fraction_warns_but_succeeds(self, tmp_path, capsys):
        m = grid([[1, 2], [3, 4]])
        src = tmp_path / "tiny.csv"
        write_matrix_csv(m, src)
        rc = main(["sweep", str(src), "--fractions", "99", "--repeats", "1",
                   "--algorithms", "ridge"])
        assert rc == 0
        assert "infeasible" in capsys.readouterr().err

    def test_config_file_flag_precedence(self, matrix_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep settings\n"
                       "seed = 3\n"
                       "repeats = 1\n"
                       "fractions = 10\n")
        oj1 = tmp_path / "file.json"
        assert main(["sweep", str(matrix_csv), "--config", str(cfg),
                     "--algorithms", "ridge", "--out-json", str(oj1)]) == 0
        d1 = json.loads(oj1.read_text())
        assert d1["run_config"]["seed"] == 3
        assert d1["run_config"]["fractions"] == [0.1]
        oj2 = tmp_path / "flag.json"
        assert main(["sweep", str(matrix_csv), "--config", str(cfg),
                     "--seed", "9", "--algorithms", "ridge",
                     "--out-json", str(oj2)]) == 0
        assert json.loads(oj2.read_text())["run_config"]["seed"] == 9

    def test_unknown_config_key_reports_line(self, matrix_csv, tmp_path,
                                             capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sneed = 3\n")
        rc = main(["sweep", str(matrix_csv), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert ":1:" in err and "sneed" in err


class TestOutliers:
    def test_runs_and_embeds_interval(self, matrix_csv, tmp_path):
        oj = tmp_path / "o.json"
        rc = main(["outliers", str(matrix_csv), "--fractions", "20",
                   "--repeats", "1", "--outlier-fraction", "10",
                   "--outlier-lo", "0", "--outlier-hi", "4",
                   "--algorithms", "ridge,ensemble", "--out-json", str(oj)])
        assert rc == 0
        run = json.loads(oj.read_text())["run_config"]
        assert run["command"] == "outliers"
        assert (run["outlier_fraction"], run["outlier_lo"],
                run["outlier_hi"]) == (0.1, 0.0, 4.0)

    def test_subnormal_time_scaled_to_zero_is_refused(self, tmp_path,
                                                      capsys):
        # every factor below 1e-6 takes 1e-320 to 0: refused, not re-drawn
        # without end
        path = tmp_path / "x.csv"
        path.write_text("program::args,m1,m2,m3\np::a,1e-320,2.0,3.0\n"
                        "q::b,1.0,2.1,3.2\nr::c,2.0,4.1,6.0\n"
                        "s::d,3.0,6.0,9.2\n")
        rc = main(["outliers", str(path), "--algorithms", "ridge",
                   "--outlier-fraction", "99", "--outlier-hi", "0.000001",
                   "--fractions", "10", "--repeats", "1"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: every outlier factor below 1e-06 scales cell (p::a, m1) "
            "to zero; raise the outlier interval\n")


@pytest.mark.parametrize("command,flags", [
    ("evaluate", ["--algorithm", "cliques", "--protocol", "in_groups"]),
    ("sweep", ["--algorithms", "ridge,als", "--fractions", "10,20"]),
    ("outliers", ["--algorithms", "ridge", "--fractions", "10,20",
                  "--outlier-hi", "3"]),
])
def test_report_config_is_the_run_config(matrix_csv, tmp_path, command,
                                         flags):
    # The file's run_config rebuilds the run's RunConfig: no setting is
    # lost. Beside the fields it holds the input, the command and a
    # sweep's algorithms, and no report repeats a setting.
    out = tmp_path / "r.json"
    argv = [command, str(matrix_csv), *flags, "--repeats", "1", "--seed",
            "3", "--als-k", "2", "--ridge-lambda", "0.5", "--out-json",
            str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    echo = data["run_config"]
    assert echo.pop("input") == str(matrix_csv)
    assert echo.pop("command") == command
    if command != "evaluate":
        assert echo.pop("algorithms") == flags[1].split(",")
    rebuilt = make_run_config(
        {k: tuple(v) if isinstance(v, list) else v for k, v in echo.items()},
        {})
    assert rebuilt == _load_config(_build_parser().parse_args(argv))
    assert data["reports"]
    assert all(set(r) == {"fraction", "note", "results"}
               for r in data["reports"])


def assert_stdlib_rendering(path):
    """The file holds what the stdlib writes for its own content with
    indent=2 and sort_keys=True, plus a newline, byte for byte."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["evaluate", "--algorithm", "ensemble", "--out-json", "r.json"],
    ["sweep", "--algorithms", "ridge,cliques,als,svd,ensemble",
     "--fractions", "10,30", "--repeats", "2", "--out-json", "r.json"],
    ["outliers", "--algorithms", "ridge,ensemble", "--fractions", "20",
     "--repeats", "1", "--outlier-fraction", "10", "--out-json", "r.json"],
    ["complete", "--algorithm", "ensemble", "--out", "done.csv",
     "--fills-out", "fills.json"],
])
def test_json_files_are_the_stdlib_rendering(matrix_csv, tmp_path,
                                             monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(matrix_csv), *argv[1:]]) == 0
    (written,) = tmp_path.glob("*.json")
    assert_stdlib_rendering(written)


def test_long_json_files_are_the_stdlib_rendering(tmp_path, monkeypatch):
    # More than two slices of records each: a leave-one-out ensemble
    # report whose cells lack cliques only where columns 10-15 are not
    # proportional (so some carry an "excluded" list and some do not),
    # and a fill log whose fills come from two mechanisms.
    m = sparse_matrix((80, 16), 0.5, seed=5, rank=1)
    vals = np.array(m.values)
    vals[:, 10:] *= np.random.default_rng(5).uniform(0.5, 2.0, (80, 6))
    write_matrix_csv(m.with_values(vals), tmp_path / "m.csv")
    monkeypatch.chdir(tmp_path)
    fast = ["--als-max-iters", "20"]
    assert main(["evaluate", "m.csv", "--algorithm", "ensemble",
                 "--out-json", "r.json", *fast]) == 0
    assert main(["complete", "m.csv", "--out", "done.csv", "--fills-out",
                 "fills.json", *fast]) == 0
    cells = json.loads((tmp_path / "r.json").read_text())[
        "reports"][0]["results"][0]["cells"]
    fills = json.loads((tmp_path / "fills.json").read_text())["fills"]
    assert min(len(cells), len(fills)) > 2 * jsonfile._SLICE
    assert {tuple(c.get("excluded", ())) for c in cells} == {
        (), ("cliques",)}
    assert len({f["algorithm"] for f in fills}) == 2
    assert_stdlib_rendering(tmp_path / "r.json")
    assert_stdlib_rendering(tmp_path / "fills.json")


@pytest.mark.parametrize("flags,reason", [
    (["--algorithms", "ridge,ridge"], "algorithms must be distinct"),
    (["--protocol", "regression"], "'regression' is not one of"),
    (["--fractions", "200"], "percentage out of range"),
    # the rule of --algorithms: a member would count twice in the mean
    (["--ensemble", "cliques,cliques,als"],
     "ensemble members must be distinct, got cliques, cliques, als"),
])
def test_usage_error_keeps_the_reason(matrix_csv, capsys, flags, reason):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(matrix_csv), *flags])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "outliers"])
def test_sweeps_take_no_algorithm_flag(matrix_csv, capsys, command):
    # --algorithms names what a sweep scores; --algorithm, or an
    # abbreviation of --algorithms, is refused before any work
    with pytest.raises(SystemExit) as exc:
        main([command, str(matrix_csv), "--algorithm", "ridge",
              "--algorithms", "als"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --algorithm ridge"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command,flags,refused", [
    # --model is place's input flag, not an abbreviation of --model-out
    ("complete", ["--out", "c.csv", "--model", "m.json", "--algorithm",
                  "als"], "--model m.json"),
    ("evaluate", ["--algo", "als", "--out-j", "r.json", "--als-max", "6"],
     "--algo als --out-j r.json --als-max 6"),
])
def test_abbreviated_flags_are_refused(matrix_csv, tmp_path, monkeypatch,
                                       capsys, command, flags, refused):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, str(matrix_csv), *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {refused}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matrix.csv"]


def test_sweep_accepts_algorithm_in_a_config_file(matrix_csv, tmp_path):
    # one file may serve complete, evaluate and the sweeps alike
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algorithm = ridge\n")
    out = tmp_path / "r.json"
    assert main(["sweep", str(matrix_csv), "--config", str(cfg),
                 "--algorithms", "als", "--fractions", "20", "--repeats",
                 "1", "--out-json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert "algorithm" not in data["run_config"]
    assert [r["algorithm"] for r in data["reports"][0]["results"]] == ["als"]


# svd is a baseline of the sweeps only: complete and evaluate refuse it,
# as their algorithm or an ensemble member, before the matrix is read
@pytest.mark.parametrize("command", ["complete", "evaluate"])
@pytest.mark.parametrize("flags,choices", [
    (["--algorithm", "svd"], "ridge, cliques, als, ensemble"),
    (["--ensemble", "ridge,svd"], "ridge, cliques, als"),
])
def test_svd_neither_completes_nor_is_left_out(tmp_path, capsys, command,
                                               flags, choices):
    out = ["--out", str(tmp_path / "x.csv")] if command == "complete" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "missing.csv"), *out, *flags])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"'svd' is not one of {choices}\n" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "outliers"])
def test_sweeps_score_svd_at_its_rank(matrix_csv, tmp_path, command):
    out = tmp_path / "r.json"
    assert main([command, str(matrix_csv), "--algorithms", "als,svd",
                 "--svd-k", "2", "--fractions", "20,40", "--repeats", "2",
                 "--out-json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["run_config"]["svd_k"] == 2
    cfg = RunConfig(svd_k=2, fractions=(0.2, 0.4), repeats=2)
    sweep = outlier_sweep if command == "outliers" else masking_sweep
    want = [report_to_json(r) for r in sweep(read_matrix_csv(matrix_csv),
                                             ["als", "svd"], cfg)]
    assert data["reports"] == want
    svd = [rep["results"][1] for rep in data["reports"]]
    assert all(res["algorithm"] == "svd" and res["cells"] for res in svd)


def test_empty_fill_log_is_the_stdlib_rendering(tmp_path):
    m, _, _ = planted_rank1(5, 4, seed=2)
    src, fills = tmp_path / "full.csv", tmp_path / "fills.json"
    write_matrix_csv(m, src)
    assert main(["complete", str(src), "--out", str(tmp_path / "done.csv"),
                 "--fills-out", str(fills)]) == 0
    assert json.loads(fills.read_text())["fills"] == []
    assert_stdlib_rendering(fills)


def test_model_file_is_the_stdlib_rendering_and_ranks(matrix_csv, tmp_path,
                                                      capsys):
    fills, model = tmp_path / "fills.json", tmp_path / "model.json"
    assert main(["complete", str(matrix_csv), "--out",
                 str(tmp_path / "done.csv"), "--algorithm", "als",
                 "--fills-out", str(fills), "--model-out", str(model)]) == 0
    assert_stdlib_rendering(fills)
    assert_stdlib_rendering(model)
    capsys.readouterr()
    assert main(["rank", str(model)]) == 0
    ranked = [json.loads(line)
              for line in capsys.readouterr().out.splitlines()]
    assert [r["rank"] for r in ranked] == list(range(1, 7))
    assert sorted(r["machine"] for r in ranked) == [f"c{j:02d}"
                                                    for j in range(6)]


def in_model(edit):
    """Apply edit to the model inside a --model-out file's data."""
    def apply(data):
        edit(data["model"])
        return data
    return apply


class TestRankAndPlace:
    def make_model(self, tmp_path, matrix_csv, k=1):
        model = tmp_path / "model.json"
        rc = main(["complete", str(matrix_csv), "--out",
                   str(tmp_path / "done.csv"), "--algorithm", "als",
                   "--als-k", str(k), "--model-out", str(model)])
        assert rc == 0
        return model, tmp_path / "done.csv"

    def test_rank_prints_json_lines(self, matrix_csv, tmp_path, capsys):
        model, _ = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        assert main(["rank", str(model)]) == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert [l["rank"] for l in lines] == list(range(1, 7))
        assert {l["machine"] for l in lines} == {f"c{j:02d}"
                                                 for j in range(6)}

    def test_rank_k2_errors(self, matrix_csv, tmp_path, capsys):
        model, _ = self.make_model(tmp_path, matrix_csv, k=2)
        capsys.readouterr()
        assert main(["rank", str(model)]) == 1
        assert "ordering defined only for K=1" in capsys.readouterr().err

    def test_place_all_rows(self, matrix_csv, tmp_path, capsys):
        _, done = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        assert main(["place", str(done)]) == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 8
        assert all(l["rationale"] == "min_predicted" for l in lines)
        # rank-1 data: every program prefers the same (cheapest) machine
        assert len({l["machine"] for l in lines}) == 1

    def test_place_cold_row_with_ranking(self, tmp_path, capsys):
        m = grid([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0],
                  [None, None]])
        src = tmp_path / "cold.csv"
        write_matrix_csv(m, src)
        # build a model from the warm part of the matrix
        warm = grid([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        warm_path = tmp_path / "warm.csv"
        write_matrix_csv(warm, warm_path)
        model, _ = self.make_model(tmp_path, warm_path)
        capsys.readouterr()
        rc = main(["place", str(src), "--rows", "p4::a4",
                   "--model", str(model)])
        assert rc == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        decision = json.loads(line)
        assert decision["rationale"] == "cold_row_ranked_fastest"
        assert decision["machine"] == "C1"  # C1 column is the fast one
        assert decision["predicted_seconds"] is None

    def test_place_with_k2_model_and_no_cold_row(self, matrix_csv, tmp_path,
                                                 capsys):
        # the ranking places cold rows only: with every requested row
        # predicted, a K=2 model is loaded and checked but not ranked, and
        # the lines are those of a run without --model (it was refused
        # with "ordering defined only for K=1")
        model, done = self.make_model(tmp_path, matrix_csv, k=2)
        capsys.readouterr()
        for rows in ([], ["--rows", "p03::a03,p00::a00"]):
            assert main(["place", str(done), *rows]) == 0
            plain = capsys.readouterr()
            assert plain.out and plain.err == ""
            assert main(["place", str(done), *rows,
                         "--model", str(model)]) == 0
            assert capsys.readouterr() == plain

    def test_place_cold_row_with_k2_model_errors(self, matrix_csv, tmp_path,
                                                 capsys):
        # a requested cold row needs the ranking, which K=2 does not give
        model, done = self.make_model(tmp_path, matrix_csv, k=2)
        m = read_matrix_csv(done)
        cold = grid(m.values.tolist() + [[None] * m.n_cols],
                    row_keys=[*m.row_keys, ("new", "x")], col_keys=m.col_keys)
        src = tmp_path / "cold.csv"
        write_matrix_csv(cold, src)
        capsys.readouterr()
        assert main(["place", str(src), "--rows", "p00::a00",
                     "--model", str(model)]) == 0
        capsys.readouterr()
        for rows in ([], ["--rows", "new::x"]):
            assert main(["place", str(src), *rows,
                         "--model", str(model)]) == 1
            assert capsys.readouterr() == (
                "", "error: ordering defined only for K=1\n")

    @pytest.mark.parametrize("last,message", [
        ([None, None], "error: cold row q::a: no predictions and no machine "
                       "ranking supplied\n"),
        ([3.0, None], "error: row q::a is only partially predicted; "
                      "complete the matrix first\n"),
    ], ids=["cold", "partial"])
    def test_place_prints_nothing_when_a_row_fails(self, tmp_path, capsys,
                                                   last, message):
        # the full row p::a comes first, and no decision of it is printed
        m = grid([[1.0, 2.0], last], row_keys=[("p", "a"), ("q", "a")])
        src = tmp_path / "m.csv"
        write_matrix_csv(m, src)
        assert main(["place", str(src)]) == 1
        assert capsys.readouterr() == ("", message)

    def test_place_schedule(self, matrix_csv, tmp_path, capsys):
        _, done = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        assert main(["place", str(done), "--schedule"]) == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert "makespan" in lines[-1]
        assert len(lines) == 9  # 8 assignments + makespan

    @pytest.mark.parametrize("schedule", [False, True])
    def test_floored_predictions_warn_once(self, tmp_path, capsys,
                                           schedule):
        # C3 falls as C1 rises, so ridge extrapolates p4's and p5's C3
        # below zero and floors them; only placed rows are counted
        m = grid([[1.0, 2.0, 5.0], [2.0, 4.0, 4.0], [3.0, 6.0, 3.0],
                  [4.0, 8.0, 2.0], [10.0, 20.0, None], [9.0, 18.0, None]])
        src, done = tmp_path / "m.csv", tmp_path / "done.csv"
        write_matrix_csv(m, src)
        assert main(["complete", str(src), "--out", str(done),
                     "--algorithm", "ridge"]) == 0
        capsys.readouterr()
        argv = ["place", str(done)] + ["--schedule"] * schedule
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ("warning: 2 predicted time(s) in 2 placed row(s) are "
                       "at or below the prediction floor 1e-09 s\n")
        placed = [json.loads(line) for line in out.splitlines()]
        assert len(placed) == 6 + schedule
        assert sum(p.get("predicted_seconds") == 1e-9 for p in placed) == 2
        assert main(argv + ["--rows", "p0::a0,p3::a3"]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_row_key(self, matrix_csv, tmp_path, capsys):
        _, done = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        assert main(["place", str(done), "--rows", "nope::x"]) == 1
        assert "unknown program" in capsys.readouterr().err

    def test_schedule_with_model_is_an_error(self, matrix_csv, tmp_path,
                                             capsys):
        # a batch schedule ranks no machines, so it has no use for a model
        model, done = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        assert main(["place", str(done), "--schedule",
                     "--model", str(model)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert "--model" in err and "--schedule" in err

    @pytest.mark.parametrize("schedule", [False, True])
    def test_repeated_row_key(self, matrix_csv, tmp_path, capsys, schedule):
        # the same key twice would place (or schedule) that program twice
        _, done = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        argv = ["place", str(done), "--rows", "p01::a01,p02::a02,p01::a01"]
        assert main(argv + ["--schedule"] * schedule) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: program 'p01::a01' is listed twice in --rows\n"

    @pytest.mark.parametrize("edit,message", [
        (in_model(lambda d: d.pop("k")), "model JSON lacks key 'k'"),
        # each of these once read as rank 1 (or 0) and ranked the machines
        (in_model(lambda d: d.update(k=1.5)),
         "model JSON k is 1.5, not an integer of at least 1"),
        (in_model(lambda d: d.update(k="1")),
         "model JSON k is '1', not an integer of at least 1"),
        (in_model(lambda d: d.update(k=True)),
         "model JSON k is True, not an integer of at least 1"),
        (in_model(lambda d: d.update(k=0)),
         "model JSON k is 0, not an integer of at least 1"),
        (in_model(lambda d: d.pop("programs")),
         "model JSON lacks key 'programs'"),
        (in_model(lambda d: d["machines"][2].pop("factors")),
         "model JSON lacks key 'factors'"),
        (in_model(lambda d: d["programs"][3]["factors"].append(1.0)),
         "factors of ('p03', 'a03') have length 2, not rank 1"),
        # every list one too long: no ragged array to trip over first
        (in_model(lambda d: [c["factors"].append(1.0)
                             for c in d["machines"]]),
         "factors of 'c00' have length 2, not rank 1"),
        (lambda data: [1, 2], "model JSON must be an object, not list"),
        (lambda data: "model", "model JSON must be an object, not str"),
        (lambda data: 3, "model JSON must be an object, not int"),
        (lambda data: {"model": [1, 2]},
         "model JSON must be an object, not list"),
        (in_model(lambda d: d.update(programs=3)),
         "model JSON is malformed: 'int' object is not iterable"),
        (in_model(lambda d: d["programs"][0].update(factors=3)),
         "factors of ('p00', 'a00') are 3, not a list of numbers"),
        (in_model(lambda d: d["machines"][1].update(factors=[None])),
         "factors of 'c01' are [None], not a list of numbers"),
        # NaN would sort a machine first in every ranking
        (in_model(lambda d: d["machines"][1].update(factors=[math.nan])),
         "factors of 'c01' are [nan], not finite"),
        (in_model(lambda d: d["programs"][2].update(factors=[-math.inf])),
         "factors of ('p02', 'a02') are [-inf], not finite"),
        (in_model(lambda d: d["machines"][0].update(factors=[10 ** 400])),
         f"factors of 'c00' are [{10 ** 400}], not finite"),
        (in_model(lambda d: d.update(config=[1])),
         "model JSON config is [1], not an object"),
        (in_model(lambda d: d.update(train_rmse_history=5)),
         "model JSON train_rmse_history is 5, not a list of numbers"),
        (in_model(lambda d: d.update(train_rmse_history=["x"])),
         "model JSON train_rmse_history is ['x'], not a list of numbers"),
        # a matrix holds no key twice, so no model fit on one does; rank
        # once listed c00 twice
        (in_model(lambda d: d["machines"][3].update(machine="c00")),
         "factor model repeats key 'c00'"),
        (in_model(lambda d: d["programs"][5].update(program="p02",
                                                    args="a02")),
         "factor model repeats key ('p02', 'a02')"),
        (in_model(lambda d: d["machines"][2].update(machine=["c02"])),
         "key ['c02'] is not made of strings"),
        (in_model(lambda d: d["programs"][1].update(args=1)),
         "key ('p01', 1) is not made of strings"),
        # a matrix has at least one row and one column; rank once printed
        # nothing and exited 0
        (in_model(lambda d: d.update(programs=[])),
         "factor model needs at least one program and one machine"),
        (in_model(lambda d: d.update(machines=[])),
         "factor model needs at least one program and one machine"),
    ], ids=["k", "k-fraction", "k-string", "k-true", "k-zero", "programs",
            "factors", "one-long-row", "all-long-columns",
            "top-level-list", "top-level-string", "top-level-number",
            "model-list", "programs-number", "factors-number",
            "factors-null", "factors-nan", "factors-infinity",
            "factors-huge-int", "config-list", "history-number",
            "history-strings", "machine-repeated", "program-repeated",
            "machine-list", "args-number", "no-programs", "no-machines"])
    def test_malformed_model_is_an_error(self, matrix_csv, tmp_path, capsys,
                                         edit, message):
        model, done = self.make_model(tmp_path, matrix_csv)
        data = json.loads(model.read_text())
        model.write_text(json.dumps(edit(data)))
        capsys.readouterr()
        for argv in (["rank", str(model)],
                     ["place", str(done), "--model", str(model)]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {message}\n"
