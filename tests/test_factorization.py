"""ALS and SVD low-rank completion."""

import loo_reference
import numpy as np
import pytest
from conftest import grid, planted_rank1, predict_all, sparse_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast import (FactorModel, MaskSpec, RunConfig, UnfactorableError,
                      als_fit, mask_random, model_from_json, model_to_json,
                      rank_machines, svd_fit)
from perfcast.factorization import als_refits, predict, predict_cells


def rank1_2x2():
    # outer product of row weights (1, 1.5) and column weights (2, 4)
    return grid([[2.0, 4.0], [3.0, 6.0]])


def manual_model(row_factors, col_factors, col_keys=None):
    U = np.atleast_2d(np.asarray(row_factors, dtype=float))
    V = np.atleast_2d(np.asarray(col_factors, dtype=float))
    k = U.shape[1]
    rows = tuple((f"p{i}", "") for i in range(U.shape[0]))
    cols = tuple(col_keys) if col_keys else tuple(
        f"C{j + 1}" for j in range(V.shape[1]))
    return FactorModel(k, rows, cols, U, V, (), {})


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.als_k, cfg.als_lambda, cfg.als_max_iters, cfg.als_tol,
                cfg.seed) == (1, 1e-2, 200, 1e-6, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="als_k must be >= 1, got 0"):
            RunConfig(als_k=0)
        with pytest.raises(ValueError, match="als_lambda .* got -1"):
            RunConfig(als_lambda=-1)
        with pytest.raises(ValueError, match="als_tol .* got 0"):
            RunConfig(als_tol=0)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_lambda_must_be_positive(self, lam):
        # at 0 a row or column seen fewer than K times has no one solution
        with pytest.raises(ValueError, match=f"als_lambda must be positive "
                           f"and finite, got {lam}"):
            RunConfig(als_lambda=lam)


class TestAlsFit:
    def test_rank1_full_reconstruction(self):
        model = als_fit(rank1_2x2(), RunConfig(als_k=1, als_lambda=1e-9))
        recon = predict_all(model)
        assert np.allclose(recon, rank1_2x2().values, rtol=1e-6)

    def test_rank1_completion(self):
        m = grid([[2.0, 4.0], [3.0, None]])
        model = als_fit(m, RunConfig(als_k=1, als_lambda=1e-9))
        assert predict(model, 1, 1) == pytest.approx(6.0, abs=1e-4)

    def test_empty_row_unfactorable(self):
        m = grid([[1.0, 2.0], [None, None]])
        with pytest.raises(UnfactorableError, match="unfactorable"):
            als_fit(m)

    def test_empty_column_unfactorable(self):
        m = grid([[1.0, None], [2.0, None]])
        with pytest.raises(UnfactorableError, match="unfactorable"):
            als_fit(m)

    @pytest.mark.parametrize("k", [1, 4])
    def test_factors_that_overflow_are_refused(self, k):
        # At x1e300, X0 @ F overflows. The fit raises, and each refit
        # leaves its cell uncovered with that reason.
        m, _, _ = planted_rank1(8, 6, seed=3)
        big = m.with_values(m.values * 1e300)
        cfg = RunConfig(als_k=k)
        with pytest.raises(UnfactorableError, match="factors overflow"):
            als_fit(big, cfg)
        rows, cols = np.nonzero(big.present_mask)
        values, reasons, iters = als_refits(big, rows, cols, cfg)
        assert np.isnan(values).all() and not iters.any()
        assert sorted(reasons) == list(range(rows.size))
        assert {str(e) for e in reasons.values()} == {
            "unfactorable matrix: the fit's factors overflow to inf or nan"}

    def test_factors_that_divide_by_zero_are_refused(self):
        # At K = 3 and x1e300, the elimination of this fit divides by a
        # zero pivot. No warning escapes (the suite turns them into
        # errors): the fit raises, as one that overflows does.
        m = sparse_matrix((3, 4), 0.0, 0)
        big = m.with_values(m.values * 1e300)
        cfg = RunConfig(als_k=3, als_lambda=1.0, als_max_iters=1)
        with pytest.raises(UnfactorableError, match="factors overflow"):
            als_fit(big, cfg)
        rows, cols = np.nonzero(big.present_mask)
        values, reasons, _ = als_refits(big, rows, cols, cfg)
        assert np.isnan(values).all() and sorted(reasons) == list(
            range(rows.size))

    def test_deterministic(self):
        m, _, _ = planted_rank1(8, 6, seed=3)
        masked, _ = mask_random(m, MaskSpec(0.3, 4))
        a = als_fit(masked, RunConfig(seed=11))
        b = als_fit(masked, RunConfig(seed=11))
        assert np.array_equal(a.row_factors, b.row_factors)
        assert np.array_equal(a.col_factors, b.col_factors)
        c = als_fit(masked, RunConfig(seed=12))
        assert not np.array_equal(a.row_factors, c.row_factors)

    def test_rmse_history_non_increasing(self):
        # Each half-step exactly minimizes squared error plus the ridge
        # penalty, so plain train RMSE is guaranteed monotone only when the
        # penalty is negligible; rank 1 keeps every solve well conditioned.
        for seed in range(12):
            m, _, _ = planted_rank1(9, 7, seed=seed)
            masked, _ = mask_random(m, MaskSpec(0.35, seed))
            hist = als_fit(masked, RunConfig(
                als_k=1, als_lambda=1e-8, seed=seed,
                als_tol=1e-10)).train_rmse_history
            assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_regularized_objective_non_increasing(self):
        # With a real lambda the monotone quantity is SSE + lam*||factors||^2.
        # Same seed and tol give the same trajectory, so refitting with a
        # growing iteration cap replays it one step at a time.
        m, _, _ = planted_rank1(9, 7, seed=1)
        masked, _ = mask_random(m, MaskSpec(0.35, 1))
        mask = masked.present_mask
        lam = 1e-2

        def objective(model):
            resid = (model.row_factors @ model.col_factors)[mask]
            resid = resid - masked.values[mask]
            return float(resid @ resid) + lam * (
                float((model.row_factors ** 2).sum())
                + float((model.col_factors ** 2).sum()))

        history = [objective(als_fit(masked, RunConfig(
            als_k=2, als_lambda=lam, als_max_iters=it, als_tol=1e-30,
            seed=1)))
            for it in range(1, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    def test_k1_factors_strictly_positive(self):
        m, _, _ = planted_rank1(7, 5, seed=9)
        model = als_fit(m, RunConfig(als_k=1))
        assert (model.row_factors > 0).all()
        assert (model.col_factors > 0).all()

    @pytest.mark.parametrize("k", [1, 2])
    def test_planted_rank_k_heldout(self, k):
        # density >= 0.5, no noise: held-out error must be tiny
        rng = np.random.default_rng(100 + k)
        n, mm = 18, 14
        U = rng.uniform(0.5, 3, (n, k))
        V = rng.uniform(0.5, 3, (k, mm))
        m = grid((U @ V).tolist())
        masked, held = mask_random(m, MaskSpec(0.5, 21))
        model = als_fit(masked, RunConfig(als_k=k, als_lambda=1e-8,
                                          als_tol=1e-12, als_max_iters=500,
                                          seed=0))
        errs = [abs(predict(model, r, c) - m.values[r, c]) / m.values[r, c]
                for r, c in held.tolist()]
        assert max(errs) < 1e-3

    def test_refits_reject_a_missing_cell(self):
        m = grid([[2.0, None], [3.0, 6.0]])
        with pytest.raises(ValueError, match="observed cells only"):
            list(als_refits(m, np.array([1, 0]), np.array([1, 1])))

    def test_config_echo(self):
        model = als_fit(rank1_2x2(),
                        RunConfig(als_k=1, als_lambda=0.5, seed=3))
        assert model.config["algorithm"] == "als"
        assert model.config["lambda"] == 0.5
        assert model.config["seed"] == 3


class TestPredict:
    def test_inner_product(self):
        assert predict(manual_model([[2.0]], [[3.0]]), 0, 0) == 6.0

    def test_floor_applied(self):
        model = manual_model([[1.0, -2.0]], [[1.0], [1.0]])
        assert predict(model, 0, 0) == 1e-9

    def test_cells_are_predict_with_its_floor(self):
        # cell (1, 0) is negative before the floor; each cell, one at a
        # time or in a stack, is the per-cell inner product bit for bit
        model = manual_model([[1.0, 2.0], [1.0, -2.0]],
                             [[1.0, 3.0], [1.0, 0.5]])
        rows, cols = np.array([1, 0, 1]), np.array([0, 1, 1])
        want = [loo_reference.predict(model, r, c) for r, c in zip(rows, cols)]
        assert want[0] == 1e-9
        assert [predict(model, r, c) for r, c in zip(rows, cols)] == want
        assert predict_cells(model, rows, cols).tolist() == want

    def test_all_predictions_positive_after_fit(self):
        m, _, _ = planted_rank1(10, 8, seed=13)
        masked, _ = mask_random(m, MaskSpec(0.4, 14))
        model = als_fit(masked, RunConfig(als_k=1))
        assert (predict_all(model) > 0).all()

    @given(st.integers(0, 10 ** 6), st.floats(0.001, 1000))
    @settings(max_examples=60, deadline=None)
    def test_gauge_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        U = rng.uniform(-2, 2, (4, 2))
        V = rng.uniform(-2, 2, (2, 3))
        a = manual_model(U, V)
        b = manual_model(U * alpha, V / alpha)
        pa, pb = predict_all(a), predict_all(b)
        assert np.allclose(pa, pb, rtol=1e-12, atol=1e-12)


class TestRankMachines:
    def test_sorted_by_embedding(self):
        model = manual_model([[1.0]], [[0.5, 2.0, 1.0]],
                             col_keys=("C1", "C2", "C3"))
        assert rank_machines(model) == ["C1", "C3", "C2"]

    def test_ties_broken_by_id(self):
        model = manual_model([[1.0]], [[1.0, 1.0, 1.0]],
                             col_keys=("Cb", "Ca", "Cc"))
        assert rank_machines(model) == ["Ca", "Cb", "Cc"]

    def test_k2_rejected(self):
        model = manual_model([[1.0, 1.0]], [[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="ordering defined only for K=1"):
            rank_machines(model)

    def test_recovers_planted_order(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.5, 5, 9)
        m = grid(np.outer(u, [4.0, 2.0, 8.0]).tolist(),
                 col_keys=("C1", "C2", "C3"))
        model = als_fit(m, RunConfig(als_k=1, als_lambda=1e-9))
        assert rank_machines(model) == ["C2", "C1", "C3"]

    def test_invariant_under_row_permutation(self):
        m, _, _ = planted_rank1(8, 5, seed=31)
        perm = np.random.default_rng(1).permutation(8)
        shuffled = grid(m.values[perm].tolist(),
                        row_keys=[m.row_keys[i] for i in perm],
                        col_keys=m.col_keys)
        assert rank_machines(als_fit(m, RunConfig(als_k=1))) == rank_machines(
            als_fit(shuffled, RunConfig(als_k=1)))


class TestSvdFit:
    def test_full_rank_exact(self):
        rng = np.random.default_rng(17)
        m = grid(rng.uniform(1, 9, (4, 3)).tolist())
        model = svd_fit(m, k=3)
        assert np.allclose(predict_all(model), m.values, atol=1e-8)

    def test_rank1_full_exact(self):
        m, _, _ = planted_rank1(6, 5, seed=19)
        model = svd_fit(m, k=1)
        assert np.allclose(predict_all(model), m.values, rtol=1e-8)

    def test_imputation_converges(self):
        m = grid([[2.0, 4.0], [3.0, None]])
        model = svd_fit(m, k=1, max_outer=200)
        assert predict(model, 1, 1) == pytest.approx(6.0, rel=0.05)

    def test_errors_match_als(self):
        with pytest.raises(UnfactorableError):
            svd_fit(grid([[1.0, 2.0], [None, None]]), k=1)
        with pytest.raises(ValueError):
            svd_fit(rank1_2x2(), k=5)


class TestModelJson:
    @pytest.mark.parametrize("k,rows,cols,message", [
        (0, [("p", "")], ["c"], "rank must be at least 1, got 0"),
        (1, [], ["c"], "needs at least one program and one machine"),
        (1, [("p", "")], [], "needs at least one program and one machine"),
    ], ids=["rank-zero", "no-programs", "no-machines"])
    def test_model_needs_a_rank_and_keys(self, k, rows, cols, message):
        # as a PCMatrix needs a row and a column
        with pytest.raises(ValueError, match=message):
            FactorModel(k, tuple(rows), tuple(cols),
                         np.ones((len(rows), k)), np.ones((k, len(cols))),
                         (), {})

    def test_roundtrip_bit_exact(self):
        import json
        m, _, _ = planted_rank1(5, 4, seed=23)
        masked, _ = mask_random(m, MaskSpec(0.25, 2))
        model = als_fit(masked, RunConfig(als_k=2, als_lambda=1e-3))
        data = json.loads(json.dumps(model_to_json(model)))
        back = model_from_json(data)
        assert back.k == model.k
        assert back.row_keys == model.row_keys
        assert back.col_keys == model.col_keys
        assert np.array_equal(back.row_factors, model.row_factors)
        assert np.array_equal(back.col_factors, model.col_factors)
        assert back.config == model.config

    def test_roundtrip_predicts_bit_for_bit_at_k4(self):
        # Every model stores its column factors column-major, so the dot
        # products sum a cell's K terms in one order on every path: fitted,
        # read back or built from row-major arrays, per cell or stacked.
        import json
        m, _, _ = planted_rank1(60, 12, seed=29)
        rng = np.random.default_rng(29)
        m = m.with_values(m.values * rng.uniform(0.9, 1.1, m.values.shape))
        masked, _ = mask_random(m, MaskSpec(0.3, 4))
        rows, cols = np.divmod(np.arange(m.values.size), m.n_cols)
        for model in (svd_fit(masked, k=4),
                      als_fit(masked, RunConfig(als_k=4, als_max_iters=20))):
            back = model_from_json(json.loads(json.dumps(
                model_to_json(model))))
            row_major = manual_model(model.row_factors,
                                     np.ascontiguousarray(model.col_factors))
            want = [loo_reference.predict(model, r, c)
                    for r, c in zip(rows, cols)]
            for fit in (model, back, row_major):
                assert [predict(fit, r, c)
                        for r, c in zip(rows, cols)] == want
                assert predict_cells(fit, rows, cols).tolist() == want
