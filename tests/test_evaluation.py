"""Scoring, ensemble, leave-one-out, sweeps, completion, report files."""

import csv
import json
import math

import numpy as np
import pytest
from conftest import grid, planted_rank1
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast import (Algorithm, CliqueProtocol, RunConfig, cliques,
                      evaluation, MaskSpec, als_fit, complete_matrix,
                      ensemble_predict, factorization, leave_one_out,
                      mask_random, masking_sweep, outlier_sweep,
                      prediction_error, report_to_json, ridge_predict,
                      write_reports_csv, write_reports_json)
from perfcast.ridge import ridge_block


def small_cfg(**kw):
    base = dict(ridge_lambda=1e-8, als_k=1, als_lambda=1e-8, seed=0,
                clique_min_overlap=3)
    base.update(kw)
    return RunConfig(**base)


class TestPredictionError:
    def test_examples(self):
        assert prediction_error(110, 100) == 0.10
        assert prediction_error(100, 100) == 0.0
        assert prediction_error(40, 100) == 0.60

    def test_nonpositive_target(self):
        with pytest.raises(ValueError, match="positive"):
            prediction_error(10, 0)
        with pytest.raises(ValueError):
            prediction_error(10, -5)

    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, p, t, alpha):
        assert prediction_error(alpha * p, alpha * t) == pytest.approx(
            prediction_error(p, t), abs=1e-12, rel=1e-12)


class TestEnsemblePredict:
    def test_mean(self):
        assert ensemble_predict([10, 20, 30]) == 20

    def test_degenerate_single_member(self):
        assert ensemble_predict([10]) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_predict([])

    @given(st.floats(1e-9, 1e9), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_identical_values_exact(self, x, n):
        assert ensemble_predict([x] * n) == x

    def test_awkward_float_identity(self):
        # 0.1+0.1+0.1 then /3 would NOT return 0.1; the mean must
        assert ensemble_predict([0.1, 0.1, 0.1]) == 0.1

    def test_composition_with_error(self):
        assert prediction_error(ensemble_predict([12, 14, 16]), 14) == 0.0


def proportional_matrix(n=9, m=5, seed=12):
    rng = np.random.default_rng(seed)
    latent = rng.uniform(1, 10, n)
    mults = rng.uniform(0.25, 4, m)
    return grid(np.outer(latent, mults).tolist())


class TestLeaveOneOut:
    def test_clique_exact_on_proportional_columns(self):
        m = proportional_matrix()
        report = leave_one_out(m, small_cfg(algorithm="cliques",
                                            protocol="in_groups"))
        res = report.results[0]
        assert res.n_uncovered == 0
        assert len(res.cells) == m.count_present
        assert res.total_error < 1e-9

    def test_does_not_mutate_input(self):
        m = proportional_matrix(6, 4, seed=3)
        before = np.array(m.values)
        leave_one_out(m, small_cfg(algorithm="ridge"))
        assert np.array_equal(
            np.nan_to_num(m.values), np.nan_to_num(before))

    def test_total_error_recomputable(self):
        m = proportional_matrix(7, 4, seed=5)
        report = leave_one_out(m, small_cfg(algorithm="als"))
        res = report.results[0]
        assert res.total_error == pytest.approx(
            sum(c.error for c in res.cells) / len(res.cells))

    def test_protocol_regression_equals_ridge_algorithm(self):
        m = proportional_matrix(7, 4, seed=6)
        via_protocol = leave_one_out(m, small_cfg(algorithm="cliques",
                                                  protocol="regression"))
        via_ridge = leave_one_out(m, small_cfg(algorithm="ridge"))
        a = [(c.row, c.col, c.predicted) for c in via_protocol.results[0].cells]
        b = [(c.row, c.col, c.predicted) for c in via_ridge.results[0].cells]
        assert a == b

    def test_in_groups_skips_isolated_machines(self):
        # C3 is uncorrelated noise: its cells count as uncovered under the
        # groups-only protocol and are excluded from the mean
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, 1.5, 2.5]
        m = grid(np.column_stack([base, [2 * b for b in base], noise]).tolist())
        report = leave_one_out(m, small_cfg(algorithm="cliques",
                                            protocol="in_groups"))
        res = report.results[0]
        assert res.n_uncovered == 5
        assert len(res.cells) == 10
        assert res.total_error < 1e-9

    def test_fallback_protocol_covers_everything(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, 1.5, 2.5]
        m = grid(np.column_stack([base, [2 * b for b in base], noise]).tolist())
        report = leave_one_out(m, small_cfg(
            algorithm="cliques", protocol="in_groups_plus_regression"))
        res = report.results[0]
        assert res.n_uncovered == 0
        assert len(res.cells) == 15

    def test_ensemble_members_recorded_on_exclusion(self):
        # one matrix column is in no clique, another row is nearly empty;
        # fabricate an uncoverable member case via svd on a thin matrix
        m = proportional_matrix(6, 4, seed=8)
        cfg = small_cfg(algorithm="ensemble", ensemble=("ridge", "als"))
        report = leave_one_out(m, cfg)
        res = report.results[0]
        assert res.algorithm == "ensemble"
        assert res.n_uncovered == 0
        for c in res.cells:
            assert c.excluded == ()


class TestMaskingSweep:
    def test_bad_svd_rank_raises(self):
        m = proportional_matrix(6, 4, seed=2)
        with pytest.raises(ValueError, match="rank must be in"):
            masking_sweep(m, [Algorithm.SVD], small_cfg(
                fractions=(0.3,), repeats=1, seed=1, svd_k=5))

    def test_fraction_zero_flagged(self):
        m = proportional_matrix(6, 4, seed=2)
        (report,) = masking_sweep(m, [Algorithm.RIDGE], small_cfg(
            fractions=(0.0,), repeats=2, seed=1))
        assert report.note == "no held-out cells"
        assert report.results[0].total_error is None
        assert report.results[0].cells == ()

    def test_planted_rank1_als_accurate_at_all_fractions(self):
        m, _, _ = planted_rank1(10, 8, seed=4)
        reports = masking_sweep(m, [Algorithm.ALS], small_cfg(
            fractions=(0.1, 0.3, 0.5), repeats=2, seed=3))
        for report in reports:
            assert report.results[0].total_error < 1e-3

    def test_deterministic(self):
        m, _, _ = planted_rank1(8, 6, seed=5)
        algorithms = [Algorithm.RIDGE, Algorithm.ALS]

        def sweep(seed):
            return masking_sweep(m, algorithms, small_cfg(
                fractions=(0.2, 0.4), repeats=2, seed=seed))
        a = sweep(9)
        b = sweep(9)
        assert [report_to_json(r) for r in a] == [report_to_json(r) for r in b]
        c = sweep(10)
        assert [report_to_json(r) for r in a] != [report_to_json(r) for r in c]

    def test_algorithms_share_the_mask(self):
        m, _, _ = planted_rank1(8, 6, seed=6)
        (report,) = masking_sweep(m, [Algorithm.RIDGE, Algorithm.ALS],
                                  small_cfg(fractions=(0.3,), repeats=1,
                                            seed=2))
        cells_of = {res.algorithm: {(c.row, c.col) for c in res.cells}
                    for res in report.results}
        assert cells_of["ridge"] == cells_of["als"]

    def test_infeasible_fraction_warning_entry(self):
        m = grid([[1, 2], [3, 4]])
        reports = masking_sweep(m, [Algorithm.RIDGE], small_cfg(
            fractions=(0.25, 0.75), repeats=1, seed=0))
        assert reports[0].note is None
        assert "infeasible" in reports[1].note
        assert reports[1].results[0].cells == ()

    def test_pooled_mean_over_repeats(self):
        m, _, _ = planted_rank1(8, 6, seed=7)
        (report,) = masking_sweep(m, [Algorithm.RIDGE], small_cfg(
            fractions=(0.2,), repeats=3, seed=4))
        res = report.results[0]
        assert len(res.cells) == 3 * round(0.2 * 48)
        assert res.total_error == pytest.approx(
            sum(c.error for c in res.cells) / len(res.cells))


class TestOutlierSweep:
    def test_zero_fraction_matches_masking_sweep(self):
        m, _, _ = planted_rank1(8, 6, seed=9)
        algorithms = [Algorithm.RIDGE, Algorithm.ALS]
        cfg = small_cfg(fractions=(0.2, 0.4), repeats=2, seed=5,
                        outlier_fraction=0.0, outlier_lo=0, outlier_hi=4)
        masked = masking_sweep(m, algorithms, cfg)
        outliers = outlier_sweep(m, algorithms, cfg)
        for a, b in zip(masked, outliers):
            assert [r.total_error for r in a.results] == [
                r.total_error for r in b.results]
            assert [r.cells for r in a.results] == [r.cells for r in b.results]

    def test_targets_stay_clean(self):
        # corrupt heavily; the recorded targets must equal the original cells
        m, _, _ = planted_rank1(8, 6, seed=10)
        reports = outlier_sweep(m, [Algorithm.RIDGE], small_cfg(
            fractions=(0.25,), repeats=1, seed=7, outlier_fraction=0.5,
            outlier_lo=0, outlier_hi=10))
        for cell in reports[0].results[0].cells:
            assert cell.target == m.values[cell.row, cell.col]

    def test_outlier_config_echoed(self):
        m, _, _ = planted_rank1(6, 5, seed=11)
        (report,) = outlier_sweep(m, [Algorithm.RIDGE], small_cfg(
            fractions=(0.2,), repeats=1, seed=8, outlier_fraction=0.1,
            outlier_lo=0, outlier_hi=4))
        assert report.config["outliers"] == {"fraction": 0.1, "lo": 0,
                                             "hi": 4}


class TestCompleteMatrix:
    def test_full_matrix_identity(self):
        m = proportional_matrix(5, 4, seed=13)
        completed, fills, model = complete_matrix(m, small_cfg(
            algorithm="als"))
        assert fills == []
        assert model is not None  # the model is useful even with no holes
        assert np.array_equal(completed.values, m.values)

    def test_als_fills_planted_holes(self):
        m, _, _ = planted_rank1(10, 8, seed=14)
        masked, held = mask_random(m, MaskSpec(0.4, 15))
        completed, fills, model = complete_matrix(masked, small_cfg(
            algorithm="als"))
        assert model is not None
        assert completed.present_mask.all()
        assert len(fills) == len(held)
        for h in held:
            got = completed.values[h.row, h.col]
            assert got == pytest.approx(h.true_time, rel=1e-3)

    def test_fill_log_reports_fallback_mechanism(self):
        # isolated noisy column forces the clique algorithm through ridge
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, None, 2.5]
        m = grid([[b, 2 * b, x] for b, x in zip(base, noise)])
        completed, fills, _ = complete_matrix(m, small_cfg(
            algorithm="cliques"))
        assert completed.present_mask.all()
        (fill,) = fills
        assert fill.algorithm == "ridge"
        assert fill.machine == "C3"

    def test_clique_fill_uses_group_scaling(self):
        m = proportional_matrix(6, 4, seed=16).with_cell_missing(2, 1)
        completed, fills, _ = complete_matrix(m, small_cfg(
            algorithm="cliques"))
        (fill,) = fills
        assert fill.algorithm == "cliques"

    # Rows p0..p4 (args "a") on proportional machines C1..C3. EMPTY_COLUMN
    # has never run anything on C3; COLD_ROW has never run p2::a anywhere.
    EMPTY_COLUMN = [[1.0, 2.0, None], [2.0, 4.0, None], [3.0, 6.0, None],
                    [4.0, 8.0, None], [5.0, 10.0, None]]
    COLD_ROW = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [None, None, None],
                [4.0, 8.0, 12.0], [5.0, 10.0, 15.0]]

    @pytest.mark.parametrize("values,algorithm,expected", [
        (EMPTY_COLUMN, Algorithm.RIDGE,
         "raise:no basis for prediction: column 'C3'"),
        (EMPTY_COLUMN, Algorithm.CLIQUES,
         "raise:no basis for prediction: column 'C3'"),
        (EMPTY_COLUMN, Algorithm.ALS, "raise:unfactorable matrix: a column"),
        (EMPTY_COLUMN, Algorithm.SVD, "raise:unfactorable matrix: a column"),
        (EMPTY_COLUMN, Algorithm.ENSEMBLE,
         "raise:no ensemble member could predict cell (p0::a, C3)"),
        (COLD_ROW, Algorithm.RIDGE, "fill:ridge"),
        (COLD_ROW, Algorithm.CLIQUES, "raise:cold row: p2::a"),
        (COLD_ROW, Algorithm.ALS, "raise:unfactorable matrix: a row"),
        (COLD_ROW, Algorithm.SVD, "raise:unfactorable matrix: a row"),
        (COLD_ROW, Algorithm.ENSEMBLE, "fill:ensemble:ridge"),
    ])
    def test_outcome_on_empty_column_and_cold_row(self, values, algorithm,
                                                  expected):
        m = grid(values, row_keys=[(f"p{i}", "a") for i in range(5)])
        kind, _, detail = expected.partition(":")
        if kind == "raise":
            with pytest.raises(ValueError) as exc:
                complete_matrix(m, small_cfg(algorithm=algorithm.value))
            assert str(exc.value).startswith(detail)
        else:
            completed, fills, _ = complete_matrix(
                m, small_cfg(algorithm=algorithm.value))
            assert completed.present_mask.all()
            assert {f.algorithm for f in fills} == {detail}

    def test_ensemble_counts_clique_fallback_as_a_member(self):
        # C3 is in no clique, so the clique member falls back to ridge and
        # ridge's value enters the mean twice; the log still names all three
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, None, 2.5]
        m = grid([[b, 2 * b, x] for b, x in zip(base, noise)])
        cfg = small_cfg(algorithm="ensemble")
        _, fills, _ = complete_matrix(m, cfg)
        (fill,) = fills
        ridge = ridge_predict(m, 3, 2, cfg.ridge)
        als = factorization.predict(als_fit(m, cfg.als), 3, 2)
        assert fill.algorithm == "ensemble:ridge+cliques+als"
        assert fill.predicted == ensemble_predict([ridge, ridge, als])
        assert fill.predicted != ensemble_predict([ridge, als])

    @pytest.mark.parametrize("protocol", list(CliqueProtocol))
    def test_ensemble_solves_ridge_once_per_cell(self, monkeypatch,
                                                 protocol):
        # The clique member's fallback (and, under the regression protocol,
        # the whole member) reuses the ridge member's solve of the cell.
        # Every cell that reaches the ridge block kernel, from any caller,
        # is counted. Completion applies the protocol: under in_groups the
        # clique member cannot reach the noise column and is excluded.
        calls = []

        def counting(m, rows, cols, cfg):
            calls.extend(zip(map(int, rows), map(int, cols)))
            return ridge_block(m, rows, cols, cfg)
        monkeypatch.setattr(evaluation, "ridge_block", counting)
        monkeypatch.setattr(cliques, "ridge_block", counting)
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, None, 2.5]
        m = grid([[b, 2 * b, x] for b, x in zip(base, noise)])
        cfg = small_cfg(algorithm="ensemble", protocol=protocol.value)
        _, fills, _ = complete_matrix(m, cfg)
        assert calls == [(3, 2)]
        assert fills[0].algorithm == (
            "ensemble:ridge+als" if protocol is CliqueProtocol.IN_GROUPS
            else "ensemble:ridge+cliques+als")
        calls.clear()
        report = leave_one_out(m, cfg)
        cells = [(c.row, c.col) for c in report.results[0].cells]
        assert calls == cells

    def test_ensemble_mechanism_lists_members(self):
        m, _, _ = planted_rank1(7, 5, seed=17)
        masked, _ = mask_random(m, MaskSpec(0.2, 18))
        _, fills, model = complete_matrix(masked, small_cfg(
            algorithm="ensemble"))
        assert model is None
        assert all(f.algorithm.startswith("ensemble:") for f in fills)


class TestReportFiles:
    def make_reports(self):
        m, _, _ = planted_rank1(7, 5, seed=19)
        return masking_sweep(m, [Algorithm.RIDGE, Algorithm.ALS], small_cfg(
            fractions=(0.2, 0.4), repeats=1, seed=11))

    def test_csv_layout(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "summary.csv"
        write_reports_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "algorithm", "total_error", "n_cells",
                           "n_uncovered"]
        assert len(rows) == 1 + 2 * 2
        for frac, alg, err, n_cells, n_uncov in rows[1:]:
            assert float(err) >= 0
            assert int(n_cells) > 0
            assert int(n_uncov) == 0
        assert rows[1][0] == "0.2"

    def test_json_total_error_recomputable(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "r.json"
        write_reports_json(reports, path, extra={"seed": 11})
        data = json.loads(path.read_text())
        assert data["seed"] == 11
        for rep in data["reports"]:
            for res in rep["results"]:
                mean = sum(c["error"] for c in res["cells"]) / res["n_cells"]
                assert math.isclose(res["total_error"], mean, rel_tol=1e-12)

    def test_json_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_reports_json(self.make_reports(), a)
        write_reports_json(self.make_reports(), b)
        assert a.read_bytes() == b.read_bytes()

