"""Scoring, ensemble, leave-one-out, sweeps, completion, report files."""

import csv
import json
import math
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from conftest import (decoded, ensemble_cells, grid, planted_rank1,
                      sparse_matrices)
from hypothesis import given, settings
from hypothesis import strategies as st
from complete_reference import complete_matrix as reference_complete_matrix
from loo_reference import ensemble_predict, prediction_error

from perfcast import (RunConfig, cliques, evaluation, MaskSpec, als_fit,
                      complete_matrix, factorization, leave_one_out,
                      mask_random, masking_sweep, outlier_sweep,
                      report_to_json, write_reports_csv, write_reports_json)
from perfcast.config import parse_algorithms
from perfcast.ridge import ridge_block, ridge_predict

ALGORITHMS = ["ridge", "cliques", "als", "svd", "ensemble"]
PROTOCOLS = ["in_groups", "in_groups_plus_regression"]
# the default ensemble before ridge left it: ridge a member, so the
# fallback fills nothing
THREE = ("ridge", "cliques", "als")


def cell_keys(res):
    """The (row, col) of each scored cell of an AlgorithmResult, in order."""
    return list(zip(res.rows.tolist(), res.cols.tolist()))


def small_cfg(**kw):
    base = dict(ridge_lambda=1e-8, als_k=1, als_lambda=1e-8, seed=0,
                clique_min_overlap=3)
    base.update(kw)
    return RunConfig(**base)


class TestPredictionError:
    """The oracles' per-cell relative error, which the package's scored
    errors are held to (test_acceptance's criterion 1)."""

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
    """The per-cell mean of the oracles, and the package's kernel on the
    same values (one member each)."""

    def test_mean(self):
        assert ensemble_predict([10, 20, 30]) == 20
        assert ensemble_cells([10], [20], [30]).tolist() == [20]

    def test_degenerate_single_member(self):
        assert ensemble_predict([10]) == 10
        assert ensemble_cells([10]).tolist() == [10]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_predict([])

    @given(st.floats(1e-9, 1e9), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_identical_values_exact(self, x, n):
        assert ensemble_predict([x] * n) == x
        assert ensemble_cells(*[[x]] * n).tolist() == [x]

    def test_awkward_float_identity(self):
        # 0.1+0.1+0.1 then /3 would NOT return 0.1; the mean must
        assert ensemble_predict([0.1, 0.1, 0.1]) == 0.1
        assert ensemble_cells([0.1], [0.1], [0.1]).tolist() == [0.1]

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
        assert res.rows.size == m.count_present
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
            sum(res.error.tolist()) / res.error.size)

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
        assert res.rows.size == 10
        assert res.total_error < 1e-9

    def test_fallback_protocol_covers_everything(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, 1.5, 2.5]
        m = grid(np.column_stack([base, [2 * b for b in base], noise]).tolist())
        report = leave_one_out(m, small_cfg(
            algorithm="cliques", protocol="in_groups_plus_regression"))
        res = report.results[0]
        assert res.n_uncovered == 0
        assert res.rows.size == 15

    def test_ensemble_members_recorded_on_exclusion(self):
        # one matrix column is in no clique, another row is nearly empty
        m = proportional_matrix(6, 4, seed=8)
        cfg = small_cfg(algorithm="ensemble", ensemble=("ridge", "als"))
        report = leave_one_out(m, cfg)
        res = report.results[0]
        assert res.algorithm == "ensemble"
        assert res.n_uncovered == 0
        assert res.mechanism.size == res.rows.size
        for _, excluded in decoded((res.mechanism, res.labels)):
            assert excluded == ()


class TestMaskingSweep:
    def test_bad_svd_rank_raises(self):
        m = proportional_matrix(6, 4, seed=2)
        with pytest.raises(ValueError, match="rank must be in"):
            masking_sweep(m, ["svd"], small_cfg(
                fractions=(0.3,), repeats=1, seed=1, svd_k=5))

    def test_fraction_zero_flagged(self):
        m = proportional_matrix(6, 4, seed=2)
        (report,) = masking_sweep(m, ["ridge"], small_cfg(
            fractions=(0.0,), repeats=2, seed=1))
        assert report.note == "no held-out cells"
        assert report.results[0].total_error is None
        assert report.results[0].rows.size == 0

    def test_planted_rank1_als_accurate_at_all_fractions(self):
        m, _, _ = planted_rank1(10, 8, seed=4)
        reports = masking_sweep(m, ["als"], small_cfg(
            fractions=(0.1, 0.3, 0.5), repeats=2, seed=3))
        for report in reports:
            assert report.results[0].total_error < 1e-3

    def test_deterministic(self):
        m, _, _ = planted_rank1(8, 6, seed=5)
        algorithms = ["ridge", "als"]

        def sweep(seed):
            return masking_sweep(m, algorithms, small_cfg(
                fractions=(0.2, 0.4), repeats=2, seed=seed))
        a = sweep(9)
        b = sweep(9)
        assert [report_to_json(r) for r in a] == [report_to_json(r) for r in b]
        c = sweep(10)
        assert [report_to_json(r) for r in a] != [report_to_json(r) for r in c]

    @pytest.mark.parametrize("sweep", [masking_sweep, outlier_sweep])
    def test_repeated_algorithm_rejected(self, sweep):
        # each of its cells would be scored twice under one name
        m = proportional_matrix(6, 4, seed=2)
        with pytest.raises(ValueError,
                           match="algorithms must be distinct, got ridge, "
                                 "als, ridge"):
            sweep(m, ["ridge", "als", "ridge"],
                  small_cfg(fractions=(0.3,), repeats=1))

    @pytest.mark.parametrize("sweep", [masking_sweep, outlier_sweep])
    @pytest.mark.parametrize("algorithms", [["magic"],
                                            ["ridge", "svd", "magic"]])
    def test_algorithm_list_refused_as_the_flag_refuses_it(self, sweep,
                                                           algorithms):
        m = proportional_matrix(6, 4, seed=2)
        with pytest.raises(ValueError) as flag:
            parse_algorithms(",".join(algorithms))
        with pytest.raises(ValueError) as got:
            sweep(m, algorithms, small_cfg(fractions=(0.3,), repeats=1))
        assert str(got.value) == str(flag.value)

    @pytest.mark.parametrize("sweep", [masking_sweep, outlier_sweep])
    def test_bare_algorithm_name_refused(self, sweep, monkeypatch):
        # it was read letter by letter: "'r' is not one of ..."; refused
        # by its type, as RunConfig refuses a bare ensemble, before any fit
        m = proportional_matrix(6, 4, seed=2)
        monkeypatch.setattr(evaluation, "_score", None)  # no fit may start
        with pytest.raises(ValueError, match=re.escape(
                "algorithms must be of type tuple[str, ...], got 'ridge'")):
            sweep(m, "ridge", small_cfg(fractions=(0.3,), repeats=1))

    @pytest.mark.parametrize("sweep", [masking_sweep, outlier_sweep])
    def test_empty_algorithm_list_refused(self, sweep):
        # it once gave reports with no results
        m = proportional_matrix(6, 4, seed=2)
        with pytest.raises(ValueError, match="^empty algorithm list$"):
            sweep(m, [], small_cfg(fractions=(0.3,), repeats=1))

    def test_algorithms_share_the_mask(self):
        m, _, _ = planted_rank1(8, 6, seed=6)
        (report,) = masking_sweep(m, ["ridge", "als"],
                                  small_cfg(fractions=(0.3,), repeats=1,
                                            seed=2))
        cells_of = {res.algorithm: set(cell_keys(res))
                    for res in report.results}
        assert cells_of["ridge"] == cells_of["als"]

    def test_infeasible_fraction_warning_entry(self):
        m = grid([[1, 2], [3, 4]])
        reports = masking_sweep(m, ["ridge"], small_cfg(
            fractions=(0.25, 0.75), repeats=1, seed=0))
        assert reports[0].note is None
        assert "infeasible" in reports[1].note
        assert reports[1].results[0].rows.size == 0

    def test_pooled_mean_over_repeats(self):
        m, _, _ = planted_rank1(8, 6, seed=7)
        (report,) = masking_sweep(m, ["ridge"], small_cfg(
            fractions=(0.2,), repeats=3, seed=4))
        res = report.results[0]
        assert res.rows.size == 3 * round(0.2 * 48)
        # pooled in repeat order, and summed in that order
        held = [mask_random(m, MaskSpec(0.2, evaluation._child_seed(
            4, 0, 0, rep)))[1] for rep in range(3)]
        assert cell_keys(res) == [(r, c) for cells in held
                                  for r, c in cells.tolist()]
        assert res.total_error == sum(res.error.tolist()) / res.error.size

    def test_no_cells_at_zero_and_infeasible_fractions(self):
        m, _, _ = planted_rank1(8, 6, seed=7)
        reports = masking_sweep(m, ALGORITHMS, small_cfg(
            fractions=(0, 0.99), repeats=2, seed=4))
        assert reports[0].note == "no held-out cells"
        assert "infeasible" in reports[1].note
        for report in reports:
            assert [res.algorithm for res in report.results] == ALGORITHMS
            for res in report.results:
                assert res.rows.size == res.cols.size == 0
                assert res.rows.dtype == res.cols.dtype == np.intp
                assert res.predicted.size == res.error.size == 0
                assert res.mechanism.size == 0
                assert res.mechanism.dtype == np.intp
                assert res.n_uncovered == 0
                assert res.total_error is None
            assert all(r["cells"] == [] and r["n_cells"] == 0
                       for r in report_to_json(report)["results"])


class TestOutlierSweep:
    def test_zero_fraction_matches_masking_sweep(self):
        m, _, _ = planted_rank1(8, 6, seed=9)
        algorithms = ["ridge", "als"]
        cfg = small_cfg(fractions=(0.2, 0.4), repeats=2, seed=5,
                        outlier_fraction=0.0, outlier_lo=0, outlier_hi=4)
        masked = masking_sweep(m, algorithms, cfg)
        outliers = outlier_sweep(m, algorithms, cfg)
        for a, b in zip(masked, outliers):
            assert [r.total_error for r in a.results] == [
                r.total_error for r in b.results]
            assert (report_to_json(a)["results"]
                    == report_to_json(b)["results"])

    def test_targets_stay_clean(self):
        # corrupt heavily; the recorded targets must equal the original cells
        m, _, _ = planted_rank1(8, 6, seed=10)
        reports = outlier_sweep(m, ["ridge"], small_cfg(
            fractions=(0.25,), repeats=1, seed=7, outlier_fraction=0.5,
            outlier_lo=0, outlier_hi=10))
        res = reports[0].results[0]
        assert res.rows.size > 0
        np.testing.assert_array_equal(res.target, m.values[res.rows, res.cols])

    def test_outlier_config_echoed(self, tmp_path):
        # the file states the corruption settings once, in the run_config
        # its caller gives; a report record holds no settings
        m, _, _ = planted_rank1(6, 5, seed=11)
        cfg = small_cfg(fractions=(0.2,), repeats=1, seed=8,
                        outlier_fraction=0.1, outlier_lo=0, outlier_hi=4)
        path = tmp_path / "r.json"
        write_reports_json(outlier_sweep(m, ["ridge"], cfg), path,
                           asdict(cfg))
        data = json.loads(path.read_text())
        assert [set(r) for r in data["reports"]] == [
            {"fraction", "note", "results"}]
        run = data["run_config"]
        assert (run["outlier_fraction"], run["outlier_lo"],
                run["outlier_hi"]) == (0.1, 0, 4)


class TestCompleteMatrix:
    def test_full_matrix_identity(self):
        m = proportional_matrix(5, 4, seed=13)
        completed, (rows, cols, mechanism), model = complete_matrix(
            m, small_cfg(algorithm="als"))
        assert rows.size == cols.size == 0 and decoded(mechanism) == []
        assert model is not None  # the model is useful even with no holes
        assert np.array_equal(completed.values, m.values)

    def test_als_fills_planted_holes(self):
        m, _, _ = planted_rank1(10, 8, seed=14)
        masked, held = mask_random(m, MaskSpec(0.4, 15))
        completed, (rows, _, _), model = complete_matrix(masked, small_cfg(
            algorithm="als"))
        assert model is not None
        assert completed.present_mask.all()
        assert rows.size == len(held)
        for r, c in held.tolist():
            got = completed.values[r, c]
            assert got == pytest.approx(m.values[r, c], rel=1e-3)

    def test_fill_log_reports_fallback_mechanism(self):
        # isolated noisy column forces the clique algorithm through ridge
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, None, 2.5]
        m = grid([[b, 2 * b, x] for b, x in zip(base, noise)])
        completed, (_, (col,), mechanism), _ = complete_matrix(
            m, small_cfg(algorithm="cliques"))
        assert completed.present_mask.all()
        assert decoded(mechanism) == ["ridge"]
        assert m.col_keys[col] == "C3"

    def test_clique_fill_uses_group_scaling(self):
        m = proportional_matrix(6, 4, seed=16).with_cell_missing(2, 1)
        completed, (_, _, mechanism), _ = complete_matrix(m, small_cfg(
            algorithm="cliques"))
        assert decoded(mechanism) == ["cliques"]

    # Rows p0..p4 (args "a") on proportional machines C1..C3. EMPTY_COLUMN
    # has never run anything on C3; COLD_ROW has never run p2::a anywhere.
    # svd, scored only by the sweeps, completes neither.
    EMPTY_COLUMN = [[1.0, 2.0, None], [2.0, 4.0, None], [3.0, 6.0, None],
                    [4.0, 8.0, None], [5.0, 10.0, None]]
    COLD_ROW = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [None, None, None],
                [4.0, 8.0, 12.0], [5.0, 10.0, 15.0]]
    NOT_A_FILLER = "'svd' is not one of ridge, cliques, als, ensemble"

    @pytest.mark.parametrize("values,algorithm,expected", [
        (EMPTY_COLUMN, "ridge",
         "raise:no basis for prediction: column 'C3'"),
        (EMPTY_COLUMN, "cliques",
         "raise:no basis for prediction: column 'C3'"),
        (EMPTY_COLUMN, "als", "raise:unfactorable matrix: a column"),
        (EMPTY_COLUMN, "svd", f"raise:{NOT_A_FILLER}"),
        (EMPTY_COLUMN, "ensemble",
         "raise:no basis for prediction: column 'C3'"),
        (COLD_ROW, "ridge", "fill:ridge:column_mean"),
        (COLD_ROW, "cliques", "fill:ridge:column_mean"),
        (COLD_ROW, "als", "raise:unfactorable matrix: a row"),
        (COLD_ROW, "svd", f"raise:{NOT_A_FILLER}"),
        (COLD_ROW, "ensemble", "fill:ridge:column_mean"),
    ])
    def test_outcome_on_empty_column_and_cold_row(self, values, algorithm,
                                                  expected):
        m = grid(values, row_keys=[(f"p{i}", "a") for i in range(5)])
        kind, _, detail = expected.partition(":")
        if kind == "raise":
            with pytest.raises(ValueError) as exc:
                complete_matrix(m, small_cfg(algorithm=algorithm))
            assert str(exc.value).startswith(detail)
        else:
            completed, (_, _, mechanism), _ = complete_matrix(
                m, small_cfg(algorithm=algorithm))
            assert completed.present_mask.all()
            assert set(decoded(mechanism)) == {detail}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ensemble_leaves_out_clique_fallback(self, protocol):
        # C3 is in no clique, so the clique member has no estimate of its
        # own there: the mean is ridge's and als's alone, under either
        # protocol, and the log names only those two
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, None, 2.5]
        m = grid([[b, 2 * b, x] for b, x in zip(base, noise)])
        cfg = small_cfg(algorithm="ensemble", protocol=protocol,
                        ensemble=THREE)
        completed, ((row,), (col,), mechanism), _ = complete_matrix(m, cfg)
        predicted = completed.values[row, col]
        ridge = ridge_predict(m, 3, 2, cfg)
        als = factorization.predict(als_fit(m, cfg), 3, 2)
        assert (row, col) == (3, 2)
        assert decoded(mechanism) == ["ensemble:ridge+als"]
        assert predicted == ensemble_predict([ridge, als])
        assert predicted != ensemble_predict([ridge, ridge, als])

    def test_ensemble_of_agreeing_members_is_that_value(self, monkeypatch):
        # Members that agree give their value exactly, as ensemble_predict
        # does: three 0.1s would sum and divide to 0.10000000000000002.
        # Every member is pinned to 0.1 here.
        def tenth(m, rows, *_):
            return np.full(len(rows), 0.1)
        def in_groups(m, grouping, rows, *_):
            return tenth(m, rows), {}
        monkeypatch.setattr(evaluation, "ridge_block", lambda *args: (
            tenth(*args), {}, np.zeros(len(args[1]), bool)))
        monkeypatch.setattr(evaluation, "clique_block", in_groups)
        monkeypatch.setattr(evaluation, "predict_cells", tenth)
        assert sum([0.1] * 3) / 3 != 0.1
        m = proportional_matrix(6, 4, seed=16).with_cell_missing(2, 1)
        completed, (rows, cols, mechanism), _ = complete_matrix(
            m, small_cfg(algorithm="ensemble", ensemble=THREE))
        assert list(zip(completed.values[rows, cols].tolist(),
                        decoded(mechanism))) == [
            (0.1, "ensemble:ridge+cliques+als")]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ensemble_solves_ridge_once_per_cell(self, monkeypatch,
                                                 protocol):
        # Only the ridge member solves ridge: the clique member, scored
        # only inside the ensemble, has no fallback under either protocol.
        # Every cell that reaches the ridge block kernel, from any caller,
        # is counted.
        calls = []

        def counting(m, rows, cols, cfg):
            calls.extend(zip(map(int, rows), map(int, cols)))
            return ridge_block(m, rows, cols, cfg)
        monkeypatch.setattr(evaluation, "ridge_block", counting)
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, None, 2.5]
        m = grid([[b, 2 * b, x] for b, x in zip(base, noise)])
        cfg = small_cfg(algorithm="ensemble", protocol=protocol,
                        ensemble=THREE)
        _, (_, _, mechanism), _ = complete_matrix(m, cfg)
        assert calls == [(3, 2)]
        assert decoded(mechanism) == ["ensemble:ridge+als"]
        calls.clear()
        report = leave_one_out(m, cfg)
        assert calls == cell_keys(report.results[0])

    def test_one_kernel_call_per_algorithm(self, monkeypatch):
        # Completion hands every missing cell, here more than 512, to each
        # kernel in one call; the kernels bound their own memory. The
        # clique member, scored only inside the ensemble, solves no ridge.
        calls = {"ridge": 0, "cliques": 0}

        def counting(name, kernel):
            def counted(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            return counted
        monkeypatch.setattr(evaluation, "ridge_block",
                            counting("ridge", ridge_block))
        monkeypatch.setattr(evaluation, "clique_block",
                            counting("cliques", cliques.clique_block))
        m, _, _ = planted_rank1(60, 20, seed=23)
        masked, held = mask_random(m, MaskSpec(0.5, 24))
        assert len(held) > 512
        _, (rows, _, _), _ = complete_matrix(masked, small_cfg(
            algorithm="ensemble", ensemble=THREE))
        assert rows.size == len(held)
        assert calls == {"ridge": 1, "cliques": 1}

    def test_ensemble_mechanism_lists_members(self):
        m, _, _ = planted_rank1(7, 5, seed=17)
        masked, _ = mask_random(m, MaskSpec(0.2, 18))
        _, (_, _, mechanism), model = complete_matrix(masked, small_cfg(
            algorithm="ensemble"))
        assert model.config["algorithm"] == "als"  # the als member's fit
        assert all(a.startswith("ensemble:") for a in decoded(mechanism))
        _, _, model = complete_matrix(masked, small_cfg(
            algorithm="ensemble", ensemble=("ridge", "cliques")))
        assert model is None

    def test_ensemble_mechanisms_are_shared(self):
        # One string per distinct set of contributing members, then the
        # two fallback labels, and an integer code per cell, not one
        # string per cell: the fill log writes that coded column as it is.
        m, _, _ = planted_rank1(12, 6, seed=17)
        masked, _ = mask_random(m, MaskSpec(0.4, 18))
        _, (rows, _, (codes, names)), _ = complete_matrix(
            masked, small_cfg(algorithm="ensemble", ensemble=THREE))
        assert codes.dtype == np.intp and codes.size == rows.size > 10
        assert len(names) == len(set(names)) == 2 ** 3 + 2
        assert names[codes[0]] == "ensemble:ridge+cliques+als"


def fallback_matrix():
    """12x5: C1..C4 proportional, C5 noise that only the clique fallback
    reaches."""
    rng = np.random.default_rng(4)
    base = rng.uniform(1, 10, 12)
    return grid(np.column_stack([base * s for s in (1.0, 2.0, 3.0, 0.5)]
                                + [rng.uniform(1, 10, 12)]).tolist())


class TestEnsembleMembersStandAlone:
    """The ensemble averages only what each member made by its own
    mechanism, so a clique member adds its in-group estimates alone."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ensemble_column_ignores_what_else_is_scored(self, protocol):
        # the same bytes alone, beside its members, and under in_groups
        m = fallback_matrix()
        cfg = small_cfg(fractions=(0.2, 0.4), repeats=2, seed=3,
                        protocol=protocol)

        def ensemble_results(algorithms, cfg):
            return [json.dumps(report_to_json(rep)["results"][-1])
                    for rep in masking_sweep(m, algorithms, cfg)]
        alone = ensemble_results(["ensemble"], cfg)
        assert alone == ensemble_results(["ridge", "cliques", "als",
                                          "ensemble"], cfg)
        assert alone == ensemble_results(["ensemble"], replace(
            cfg, protocol="in_groups"))
        # the clique fallback reached C5 beside the ensemble, which left
        # the clique member out there
        (report, _) = masking_sweep(m, ["cliques", "ensemble"], cfg)
        fell_back = (report.results[0].cols == 4).any()
        assert fell_back == (protocol != "in_groups")
        ens = report.results[1]
        assert (ens.cols == 4).any()
        assert all("cliques" in excluded for col, (_, excluded) in
                   zip(ens.cols.tolist(), decoded((ens.mechanism,
                                                   ens.labels)))
                   if col == 4)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_pooled_sweep_codes_match_reference(self, protocol):
        # A sweep pools its repeats' cells in order. Each cell's code
        # decodes to the members that predicted it on its own masking's
        # train, as the per-cell reference completion of that train says.
        m = fallback_matrix()
        cfg = small_cfg(fractions=(0.2, 0.4), repeats=2, seed=3,
                        protocol=protocol, algorithm="ensemble")
        reports = masking_sweep(m, ["cliques", "ensemble"], cfg)
        for fi, (fraction, report) in enumerate(zip(cfg.fractions,
                                                    reports)):
            want = []
            for rep in range(cfg.repeats):
                train, held = mask_random(m, MaskSpec(
                    fraction, evaluation._child_seed(cfg.seed, 0, fi, rep)))
                fills = {(r, c): mechanism for r, c, _, mechanism
                         in reference_complete_matrix(train, cfg)[1]}
                for r, c in held.tolist():
                    names = fills[r, c].removeprefix("ensemble:").split("+")
                    want.append((r, c, fills[r, c], tuple(
                        mem for mem in cfg.ensemble if mem not in names)))
            ens = report.results[1]
            got = decoded((ens.mechanism, ens.labels))
            assert ens.mechanism.dtype == np.intp
            assert [(r, c, *label) for r, c, label in zip(
                ens.rows.tolist(), ens.cols.tolist(), got)] == want
            assert any(excluded == ("cliques",) for _, excluded in got)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ensemble_only_run_makes_no_clique_fallback_solve(
            self, monkeypatch, protocol):
        # The only ridge solves are the ridge member's: one per masking,
        # over every cell of it.
        calls = []

        def counting(m, rows, cols, cfg):
            calls.append(len(rows))
            return ridge_block(m, rows, cols, cfg)
        monkeypatch.setattr(evaluation, "ridge_block", counting)
        m = fallback_matrix()
        holed = m.with_cell_missing(3, 4)
        cfg = small_cfg(algorithm="ensemble", protocol=protocol,
                        fractions=(0.3,), repeats=2, ensemble=THREE)
        complete_matrix(holed, cfg)
        leave_one_out(m, cfg)
        assert calls == [1, m.count_present]
        calls.clear()
        reports = (masking_sweep(m, ["ensemble"], cfg)
                   + outlier_sweep(m, ["ensemble"], cfg))
        assert len(calls) == 2 * cfg.repeats
        assert sum(calls) == sum(rep.results[0].rows.size
                                 + rep.results[0].n_uncovered
                                 for rep in reports)
        calls.clear()
        # scored on its own, the clique algorithm falls back to ridge
        # under in_groups_plus_regression
        masking_sweep(m, ["cliques"], cfg)
        assert (sum(calls) > 0) == (protocol != "in_groups")


class TestRidgeFallback:
    """The default ensemble, cliques and als, gives a cell that neither
    predicts ridge's value, with both members excluded. So it fills
    exactly the cells that the three-member ensemble (THREE) fills, and
    where ridge has no value either it raises the same first reason."""

    @staticmethod
    def without_ridge(name):
        """The default's mechanism for a cell THREE names name."""
        members = name.removeprefix("ensemble:").split("+")
        return "ensemble:" + "+".join(mem for mem in members
                                      if mem != "ridge")

    @given(m=sparse_matrices(), threshold=st.sampled_from([0.5, 0.9, 0.97]),
           protocol=st.sampled_from(PROTOCOLS))
    @settings(max_examples=80, deadline=None)
    def test_completion_covers_what_three_members_cover(self, m, threshold,
                                                        protocol):
        cfg = RunConfig(algorithm="ensemble", protocol=protocol,
                        als_max_iters=20, clique_threshold=threshold)
        assert cfg.ensemble == ("cliques", "als")
        try:
            three, (rows, cols, names), _ = complete_matrix(
                m, replace(cfg, ensemble=THREE))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                complete_matrix(m, cfg)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        completed, (got_rows, got_cols, got_names), _ = complete_matrix(m,
                                                                        cfg)
        assert completed.present_mask.all()
        assert got_rows.tolist() == rows.tolist()
        assert got_cols.tolist() == cols.tolist()
        for name, got, want, value in zip(
                decoded(names), decoded(got_names),
                three.values[rows, cols].tolist(),
                completed.values[rows, cols].tolist()):
            if name == "ensemble:ridge":  # ridge's value in both
                assert got in ("ridge", "ridge:column_mean")
                assert value == want
            else:
                assert got == self.without_ridge(name)

    @given(m=sparse_matrices(), protocol=st.sampled_from(PROTOCOLS))
    @settings(max_examples=40, deadline=None)
    def test_leave_one_out_scores_what_three_members_score(self, m,
                                                           protocol):
        # the same cells scored and uncovered; a cell only ridge reached
        # has ridge's value and lacks both members in either report
        cfg = RunConfig(algorithm="ensemble", protocol=protocol,
                        als_max_iters=20)
        (three,) = leave_one_out(m, replace(cfg, ensemble=THREE)).results
        (got,) = leave_one_out(m, cfg).results
        assert cell_keys(got) == cell_keys(three)
        assert got.n_uncovered == three.n_uncovered
        for (name, excluded), (got_name, got_excluded), want, value in zip(
                decoded((three.mechanism, three.labels)),
                decoded((got.mechanism, got.labels)),
                three.predicted.tolist(), got.predicted.tolist()):
            if name == "ensemble:ridge":
                assert got_name in ("ridge", "ridge:column_mean")
                assert got_excluded == excluded == ("cliques", "als")
                assert value == want
            else:
                assert got_name == self.without_ridge(name)
                assert got_excluded == tuple(mem for mem in excluded
                                             if mem != "ridge")

    def test_ridge_runs_only_on_cells_no_member_predicts(self, monkeypatch):
        # ALS covers every cell of a matrix with no empty row or column,
        # so ridge is not called at all; a cold row makes ALS unfactorable,
        # and ridge then sees only the cells cliques left, once
        calls = []

        def counting(m, rows, cols, cfg):
            calls.append(list(zip(rows.tolist(), cols.tolist())))
            return ridge_block(m, rows, cols, cfg)
        monkeypatch.setattr(evaluation, "ridge_block", counting)
        m, _, _ = planted_rank1(10, 6, seed=23)
        masked, _ = mask_random(m, MaskSpec(0.3, 24))
        _, (_, _, mechanism), model = complete_matrix(
            masked, small_cfg(algorithm="ensemble"))
        assert calls == [] and model is not None
        assert set(decoded(mechanism)) <= {"ensemble:cliques+als",
                                           "ensemble:als"}
        values = masked.values.copy()
        values[4] = np.nan
        cold = masked.with_values(values)
        _, (rows, cols, mechanism), model = complete_matrix(
            cold, small_cfg(algorithm="ensemble"))
        assert isinstance(model, factorization.UnfactorableError)
        names = decoded(mechanism)
        lone = [(r, c) for r, c, name in zip(rows.tolist(), cols.tolist(),
                                              names)
                if not name.startswith("ensemble:")]
        assert calls == [lone]
        assert {(4, c) for c in range(6)} <= set(lone)
        assert all(name == "ridge:column_mean" for (r, _), name in zip(
            zip(rows.tolist(), cols.tolist()), names) if r == 4)

    def test_fallback_labels_follow_the_members(self):
        # the fallback's two labels come after the members' subsets and
        # lack every member; an ensemble with ridge lists them too, but
        # no cell uses them
        m = proportional_matrix(6, 4, seed=16).with_cell_missing(2, 1)
        for ensemble in [("cliques", "als"), THREE, ("als",)]:
            _, (_, _, (codes, names)), _ = complete_matrix(m, small_cfg(
                algorithm="ensemble", ensemble=ensemble))
            assert len(names) == 2 ** len(ensemble) + 2
            assert names[-2:] == ["ridge", "ridge:column_mean"]
            if "ridge" in ensemble:
                assert (codes < 2 ** len(ensemble)).all()
        # ridge alone has those two labels only
        _, (_, _, (codes, names)), _ = complete_matrix(m, small_cfg(
            algorithm="ridge"))
        assert names == ["ridge", "ridge:column_mean"]
        assert codes.tolist() == [0]


class TestOneFallbackRule:
    """Ridge, cliques under in_groups_plus_regression and the ensemble give
    the cells their column leaves uncovered ridge's value, and a cell ridge
    cannot predict keeps ridge's reason. So in completion, leave-one-out
    and a sweep, each of the three leaves a cell uncovered exactly when no
    other row observes its column, and a cold row's cells (no other time
    in their row) get the same column mean from all three."""

    FILLED = ["ridge", "cliques", "ensemble"]

    def check(self, train, rows, cols, outcomes):
        """outcomes[alg] maps i to (value, mechanism) for each cell
        (rows[i], cols[i]) that alg covered; the cells are all missing
        from train or all observed in it."""
        own = train.present_mask[rows, cols]
        others = train.present_mask[:, cols].sum(axis=0) - own
        cold = train.present_mask[rows].sum(axis=1) - own == 0
        for alg in self.FILLED:
            assert set(outcomes[alg]) == set(np.flatnonzero(others > 0)
                                             .tolist()), alg
        for i in np.flatnonzero(cold & (others > 0)).tolist():
            got = {outcomes[alg][i] for alg in self.FILLED}
            assert len(got) == 1
            assert got.pop()[1] == "ridge:column_mean"

    @staticmethod
    def outcome(res, rows, cols):
        """An AlgorithmResult's covered cells as check's outcomes."""
        index = {cell: i for i, cell in enumerate(zip(rows.tolist(),
                                                      cols.tolist()))}
        names = [name for name, _ in decoded((res.mechanism, res.labels))]
        return {index[cell]: (value, name) for cell, value, name in zip(
            cell_keys(res), res.predicted.tolist(), names)}

    @given(m=sparse_matrices(), threshold=st.sampled_from([0.5, 0.9, 0.97]))
    @settings(max_examples=40, deadline=None)
    def test_uncovered_and_cold_cells_alike(self, m, threshold):
        cfg = RunConfig(als_max_iters=20, clique_threshold=threshold,
                        fractions=(0.3,), repeats=1)
        assert cfg.protocol == "in_groups_plus_regression"
        # completion: every missing cell in one call, as complete_matrix
        # makes it; an uncovered cell's reason is ridge's
        rows, cols = np.nonzero(~m.present_mask)
        columns, _ = evaluation._predict_cells(m, rows, cols, self.FILLED,
                                               cfg)
        outcomes = {}
        for alg in self.FILLED:
            values, reasons, code, labels = columns[alg]
            covered = ~np.isnan(values)
            assert sorted(reasons) == np.flatnonzero(~covered).tolist()
            assert all(str(exc).startswith("no basis for prediction: column")
                       for exc in reasons.values())
            outcomes[alg] = {i: (values[i], labels[code[i]][0])
                             for i in np.flatnonzero(covered).tolist()}
        self.check(m, rows, cols, outcomes)
        # leave-one-out: every observed cell, left out of m
        rows, cols = np.nonzero(m.present_mask)
        outcomes = {}
        for alg in self.FILLED:
            (res,) = leave_one_out(m, replace(cfg, algorithm=alg)).results
            outcomes[alg] = self.outcome(res, rows, cols)
            assert res.n_uncovered == rows.size - len(outcomes[alg])
        self.check(m, rows, cols, outcomes)
        # a sweep: the held-out cells of its one masking, missing from its
        # train
        (report,) = masking_sweep(m, self.FILLED, cfg)
        if report.note is None:
            train, held = mask_random(m, MaskSpec(
                0.3, evaluation._child_seed(cfg.seed, 0, 0, 0)))
            rows, cols = held.T
            self.check(train, rows, cols, {
                res.algorithm: self.outcome(res, rows, cols)
                for res in report.results})


class TestReportFiles:
    def make_reports(self):
        m, _, _ = planted_rank1(7, 5, seed=19)
        return masking_sweep(m, ["ridge", "als"], small_cfg(
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
        write_reports_json(reports, path, {"seed": 11})
        data = json.loads(path.read_text())
        assert data["run_config"] == {"seed": 11}
        for rep in data["reports"]:
            for res in rep["results"]:
                mean = sum(c["error"] for c in res["cells"]) / res["n_cells"]
                assert math.isclose(res["total_error"], mean, rel_tol=1e-12)

    def test_json_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_reports_json(self.make_reports(), a, {"seed": 11})
        write_reports_json(self.make_reports(), b, {"seed": 11})
        assert a.read_bytes() == b.read_bytes()

    def test_json_file_holds_report_to_json(self, tmp_path):
        # the streamed file is the stdlib rendering of report_to_json's
        # records, an ensemble's excluded lists and a result with no
        # cells included
        m, _, _ = planted_rank1(7, 5, seed=19)
        reports = masking_sweep(m, ["ridge", "ensemble"], small_cfg(
            fractions=(0.0, 0.3), repeats=2, seed=11,
            ensemble=("ridge", "als")))
        assert reports[0].results[0].rows.size == 0
        path = tmp_path / "r.json"
        write_reports_json(reports, path, {"seed": 11})
        want = {"reports": [report_to_json(r) for r in reports],
                "run_config": {"seed": 11}}
        assert path.read_text() == json.dumps(want, indent=2,
                                              sort_keys=True) + "\n"

    def test_json_cells_are_not_held_as_a_list(self, tmp_path):
        # 10,000 cells: the records held as a list take about 4 MB, and
        # the file is written one record at a time
        n = 10_000
        rng = np.random.default_rng(0)
        result = evaluation.AlgorithmResult(
            "ensemble", np.arange(n) // 40, np.arange(n) % 40,
            rng.uniform(1, 2, n), rng.uniform(1, 2, n), rng.uniform(0, 1, n),
            np.zeros(n, np.intp), (("ensemble:ridge+cliques", ("als",)),), 0)
        report = evaluation.EvalReport(0.0, (result,))
        tracemalloc.start()
        try:
            write_reports_json([report], tmp_path / "r.json", {})
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            records = report_to_json(report)
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records["results"][0]["cells"]) == n
        assert streamed < held / 5

