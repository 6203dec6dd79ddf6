"""The batched ALS kernel against the per-row/per-column reference loop."""

import numpy as np
import pytest
from als_reference import reference_als_fit
from conftest import predict_all, sparse_matrix
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perfcast import ALSConfig, PCMatrix, UnfactorableError, als_fit
from perfcast import factorization
from perfcast.factorization import (_fit_stack, _half_step, als_refits,
                                    predict)
from perfcast.matrix import PREDICTION_FLOOR

ranks = st.integers(1, 4)
lams = st.sampled_from([1e-8, 1e-2])
shapes = st.tuples(st.integers(1, 12), st.integers(1, 10))
densities = st.floats(0.0, 1.0)
seeds = st.integers(0, 2 ** 32 - 1)


@given(k=ranks, lam=lams, shape=shapes, density=densities, seed=seeds,
       max_iters=st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_fit_matches_reference(k, lam, shape, density, seed, max_iters):
    mat = sparse_matrix(shape, density, seed)
    mask = mat.present_mask
    # With lam <= 1e-8 a row or column seen at most K times has a (nearly)
    # singular system: its factor is fixed only to about cond * eps, and
    # rounding differences steer the two fits to different solutions.
    # test_half_step_solves_normal_equations covers those draws.
    assume(k == 1 or lam == 1e-2
           or min(mask.sum(axis=1).min(), mask.sum(axis=0).min()) > k)
    cfg = ALSConfig(k=k, lam=lam, max_iters=max_iters, seed=seed % 1000)
    got, want = als_fit(mat, cfg), reference_als_fit(mat, cfg)

    scale = float(np.nanmean(mat.values))
    # The atol covers rank-K inner products that land near zero.
    np.testing.assert_allclose(predict_all(got), predict_all(want),
                               rtol=1e-9, atol=1e-9 * scale)
    # Once the training RMSE is at rounding level, the relative-change stop
    # compares rounding noise and may end either fit an iteration earlier.
    if want.train_rmse_history[-1] > 1e-12 * scale:
        assert len(got.train_rmse_history) == len(want.train_rmse_history)
    if k == 1:
        assert got.train_rmse_history == want.train_rmse_history
        assert np.array_equal(got.row_factors, want.row_factors)
        assert np.array_equal(got.col_factors, want.col_factors)


@given(k=st.integers(1, 3), lam=st.sampled_from([1e-3, 1e-2, 1e-1]),
       shape=shapes, density=densities, seed=seeds,
       max_iters=st.integers(1, 30),
       blank=st.sampled_from([None, "row", "column"]))
@settings(max_examples=200, deadline=None)
# Column 2 holds exactly K observations: the refit without (0, 8) misses
# rtol at entry (6, 2) by 6.4e-9 relative, and 1-ulp changes of its inputs
# move the per-cell fit there by up to 2.3e-8.
@example(k=3, lam=0.01, shape=(10, 10), density=0.375, seed=927,
         max_iters=5, blank=None)
def test_refits_match_per_cell_fits(k, lam, shape, density, seed, max_iters,
                                    blank):
    # The stacked leave-one-out fits against one cold als_fit per cell on
    # the matrix without it. Low densities leave rows and columns seen
    # once, whose cell is uncovered; blank empties the first row or
    # column, which leaves every cell uncovered.
    # At K > 1 and lam = 1e-3 a factor of a row or column seen once is
    # fixed only to about |v|^2 / lam: a 1-ulp change in its inputs moves
    # predictions by up to 3e-9 relative (measured at K = 3), in the
    # per-cell fit as much as in the stack. At 1e-2 the worst measured
    # was 1.6e-11, at K = 1 2.5e-15, but a column seen exactly K times
    # can still be that ill-conditioned: see ulp_spread.
    assume(k == 1 or lam >= 1e-2)
    mat = sparse_matrix(shape, density, seed)
    scale = float(np.nanmean(mat.values))
    vals = np.array(mat.values)
    if blank == "row":
        vals[0] = np.nan
    if blank == "column":
        vals[:, 0] = np.nan
    mat = PCMatrix(mat.row_keys, mat.col_keys, vals)
    cfg = ALSConfig(k=k, lam=lam, max_iters=max_iters, seed=seed % 1000)
    assert_refits_match_per_cell_fits(mat, cfg, rtol=1e-9, atol=1e-9 * scale,
                                      rounding=1e-12 * scale)


def ulp_spread(mat, cfg, want, draws=8):
    """Entry by entry, how far als_fit on mat moves from want's
    reconstruction, and from its prediction of each cell, when every
    observed time is moved by one ulp up or down: the largest difference
    over a few seeded draws. It measures the fit's own conditioning."""
    rng = np.random.default_rng(0)
    full = predict_all(want)
    spread = np.zeros_like(full)
    for _ in range(draws):
        vals = np.nextafter(mat.values, rng.choice([-np.inf, np.inf],
                                                   mat.values.shape))
        fit = als_fit(PCMatrix(mat.row_keys, mat.col_keys, vals), cfg)
        spread = np.maximum(spread, np.abs(predict_all(fit) - full))
    return spread


def assert_refits_match_per_cell_fits(mat, cfg, rtol, atol, rounding):
    """als_refits and the stacked fits behind it, cell by cell, against
    als_fit on the matrix without that cell: the same cells are
    uncovered, with the same error; every covered cell's full
    reconstruction matches at rtol/atol, and so does its prediction; its
    iteration count matches unless the training RMSE ended below
    rounding, where the relative-change stop compares rounding noise.

    An entry that misses rtol/atol must lie within twice the per-cell
    fit's own ulp_spread there: it is then conditioning, not stacking."""
    rows, cols = np.nonzero(mat.present_mask)
    values, reasons, iters = als_refits(mat, rows, cols, cfg)
    # rows, cols are the observed cells in row-major order, which is how
    # _fit_stack numbers them
    covered = np.array([i for i in range(rows.size) if i not in reasons],
                       dtype=np.intp)
    U, V, stack_iters, _ = (_fit_stack(mat, cfg, covered) if covered.size
                            else (None, None, None, None))
    fit = dict(zip(covered.tolist(), range(covered.size)))
    for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        held = mat.with_cell_missing(r, c)
        try:
            want = als_fit(held, cfg)
        except UnfactorableError as exc:
            assert i in reasons and np.isnan(values[i]) and iters[i] == 0
            assert isinstance(reasons[i], UnfactorableError)
            assert str(reasons[i]) == str(exc)
            continue
        assert i not in reasons
        # Stacking reorders rounding only; the atol covers rank-K inner
        # products that land near zero. The left-out cell is among them.
        j = fit[i]
        got = np.append(np.maximum(U[j] @ V[j], PREDICTION_FLOOR), values[i])
        ref = np.append(predict_all(want), predict(want, r, c))
        off = ~np.isclose(got, ref, rtol=rtol, atol=atol)
        if off.any():
            spread = ulp_spread(held, cfg, want)
            bound = 2 * np.append(spread, spread[r, c])
            np.testing.assert_array_less(np.abs(got - ref)[off], bound[off])
        if want.train_rmse_history[-1] > rounding:
            assert iters[i] == stack_iters[j] == len(want.train_rmse_history)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("rank,lam", [(1, 1e-4), (2, 1e-3)])
def test_refits_near_their_targets_match_per_cell_fits(rank, lam, tol):
    # Noiseless rank-1 and rank-2 data: every refit closes in on its
    # targets until only lambda's shrinkage is left, with an SSE of 1e-11
    # to 1e-8 of sum x**2, where the SSE from the half-step sums is
    # rounding noise. Below _EXACT the refits gather their residuals, so
    # each stops where the per-cell fit stops. From the sums alone, up to
    # 87 of the 86-odd refits per case stopped elsewhere, with predictions
    # off by up to 5.9e-6 relative.
    mat = sparse_matrix((12, 8), 0.9, 17, rank=rank)
    cfg = ALSConfig(k=rank, lam=lam, tol=tol)
    targets = mat.values[mat.present_mask]
    for r, c in np.argwhere(mat.present_mask)[::5].tolist():
        want = als_fit(mat.with_cell_missing(r, c), cfg)
        sse = want.train_rmse_history[-1] ** 2 * (targets.size - 1)
        assert sse < factorization._EXACT * (
            targets @ targets - mat.values[r, c] ** 2)
    scale = float(np.nanmean(mat.values))
    assert_refits_match_per_cell_fits(mat, cfg, rtol=1e-9, atol=1e-9 * scale,
                                      rounding=0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_rmse_from_sums_matches_gathered_rmse(k, monkeypatch):
    # Noisy data keeps every refit's SSE above _EXACT of its sum x**2, so
    # its RMSE comes from the half-step sums. Measured, that RMSE is off
    # the gathered one by about 2 eps (sum x**2 / SSE) relative, at most
    # 5e-11 at the threshold; here the SSE is near 1e-4 of sum x**2.
    mat = sparse_matrix((40, 12), 0.6, 5, rank=k)
    noise = np.random.default_rng(6).standard_normal(mat.values.shape)
    mat = PCMatrix(mat.row_keys, mat.col_keys,
                   mat.values * (1 + 0.01 * noise))
    targets = mat.values[mat.present_mask]
    left_out = np.arange(targets.size)
    sumsq = targets @ targets - targets ** 2
    cfg = ALSConfig(k=k, max_iters=30, tol=1e-9)
    _, _, iters, trail = _fit_stack(mat, cfg, left_out)
    exact = factorization._EXACT
    monkeypatch.setattr(factorization, "_EXACT", np.inf)  # gather them all
    _, _, want_iters, want_trail = _fit_stack(mat, cfg, left_out)
    # every fit runs to the cap, so each trail entry holds every fit
    assert (iters == cfg.max_iters).all()
    assert (want_iters == cfg.max_iters).all()
    eps = np.finfo(float).eps
    for rmse, want in zip(trail, want_trail, strict=True):
        ratio = want ** 2 * (targets.size - 1) / sumsq
        assert (ratio > exact).all()
        gap = np.abs(rmse - want) / want
        assert (gap <= 4 * eps / ratio).all()
        assert (gap <= 1e-10).all()


@given(k=ranks, lam=lams, shape=shapes, density=densities, seed=seeds,
       skip=st.booleans())
@settings(max_examples=300, deadline=None)
def test_half_step_solves_normal_equations(k, lam, shape, density, seed,
                                           skip):
    # Every draw, nearly singular systems included: each row's factor
    # solves that row's normal equations (Vo Vo^T + lam I) u = Vo y to rounding. Two
    # fits are stacked; with skip, each leaves out its own observed cell.
    mat = sparse_matrix(shape, density, seed)
    mask = mat.present_mask
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.5, 1.5, (2, k, shape[1]))
    X0 = np.where(mask, mat.values, 0.0)
    cells = np.argwhere(mask)[rng.integers(0, mask.sum(), 2)]
    skipped = (cells[:, 0], cells[:, 1]) if skip else None
    stack, rhs = _half_step(V, mask.astype(float), X0, lam, skipped)
    eps = np.finfo(float).eps
    for fit, (U, B, F) in enumerate(zip(stack, rhs, V)):
        fit_mask = mask.copy()
        if skip:
            fit_mask[tuple(cells[fit])] = False
        for i, u in enumerate(U):
            obs = np.flatnonzero(fit_mask[i])
            if obs.size == 0:  # only the left-out cell: no data, u = 0
                assert not u.any() and not B[i].any()
                continue
            Vo = F[:, obs]
            A = Vo @ Vo.T + lam * np.eye(k)
            b = Vo @ mat.values[i, obs]
            # the right-hand side it returns is the one it solved for
            np.testing.assert_allclose(B[i], b, rtol=1e-13)
            resid = np.linalg.norm(A @ u - b) / (
                np.linalg.norm(A) * np.linalg.norm(u) + np.linalg.norm(b))
            assert resid <= 16 * eps
