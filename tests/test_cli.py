"""End-to-end command-line behavior through cli.main()."""

import csv
import hashlib
import json

import numpy as np
import pytest
from conftest import grid, planted_rank1

from perfcast import write_matrix_csv
from perfcast.cli import main


def write_obs(path, rows, header="program,args,machine,seconds"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


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


class TestComplete:
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
        regression, log = run("--algorithm", "cliques",
                              "--protocol", "regression")
        assert log == ["ridge"] * 4
        assert regression == run("--algorithm", "ridge")[0] != default
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
        assert data["reports"][0]["config"]["protocol"] == "in_groups"
        assert data["reports"][0]["results"][0]["total_error"] < 1e-9


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
        # the run_config echo still records the value that was given
        assert (d1["run_config"]["threads"], d2["run_config"]["threads"]) \
            == (1, 2)
        # and so does each report's config echo; nothing else differs
        for r1, r2 in zip(d1["reports"], d2["reports"], strict=True):
            assert (r1["config"].pop("threads"),
                    r2["config"].pop("threads")) == (1, 2)
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
        regression = run("--protocol", "regression")
        assert all(rep["cliques"]["n_uncovered"] == 0 for rep in default)
        assert sum(rep["cliques"]["n_uncovered"] for rep in in_groups) > 0
        for d, g, r in zip(default, in_groups, regression, strict=True):
            assert d["ridge"] == g["ridge"] == r["ridge"]
            # the regression protocol scores ridge under the clique name
            assert ([c["predicted"] for c in r["cliques"]["cells"]]
                    == [c["predicted"] for c in r["ridge"]["cells"]])
            # in_groups keeps the cells the groups reached, as scored with
            # the fallback, and never reaches C5
            kept = g["cliques"]["cells"]
            assert all(c in d["cliques"]["cells"] and c["col"] != 4
                       for c in kept)
            assert (len(kept) + g["cliques"]["n_uncovered"]
                    == len(d["cliques"]["cells"]))
        assert ([rep["cliques"] for rep in default]
                != [rep["cliques"] for rep in regression])

    def test_algorithm_is_not_echoed(self, matrix_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["sweep", str(matrix_csv), "--fractions", "20",
                     "--repeats", "1", "--algorithms", "ridge",
                     "--out-json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "algorithm" not in data["run_config"]
        assert data["run_config"]["algorithms"] == ["ridge"]
        assert all("algorithm" not in rep["config"]
                   for rep in data["reports"])

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
        data = json.loads(oj.read_text())
        assert data["reports"][0]["config"]["outliers"] == {
            "fraction": 0.1, "lo": 0.0, "hi": 4.0}


@pytest.mark.parametrize("command,flags", [
    ("evaluate", ["--algorithm", "cliques", "--protocol", "in_groups"]),
    ("sweep", ["--algorithms", "ridge,als", "--fractions", "10,20"]),
    ("outliers", ["--algorithms", "ridge", "--fractions", "10,20",
                  "--outlier-hi", "3"]),
])
def test_report_config_is_the_run_config(matrix_csv, tmp_path, command,
                                         flags):
    out = tmp_path / "r.json"
    assert main([command, str(matrix_csv), *flags, "--repeats", "1",
                 "--seed", "3", "--als-k", "2", "--ridge-lambda", "0.5",
                 "--out-json", str(out)]) == 0
    data = json.loads(out.read_text())
    echo = data["run_config"]
    del echo["input"]
    echo.pop("algorithms", None)  # sweep and outliers only
    assert data["reports"]
    for report in data["reports"]:
        config = dict(report["config"])
        assert ("outliers" in config) == (command == "outliers")
        config.pop("outliers", None)
        assert config == echo


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

    def test_place_schedule(self, matrix_csv, tmp_path, capsys):
        _, done = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        assert main(["place", str(done), "--schedule"]) == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert "makespan" in lines[-1]
        assert len(lines) == 9  # 8 assignments + makespan

    def test_unknown_row_key(self, matrix_csv, tmp_path, capsys):
        _, done = self.make_model(tmp_path, matrix_csv)
        capsys.readouterr()
        assert main(["place", str(done), "--rows", "nope::x"]) == 1
        assert "unknown program" in capsys.readouterr().err
