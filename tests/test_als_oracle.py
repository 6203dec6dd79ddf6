"""The batched ALS kernel against the per-row/per-column reference loop."""

import numpy as np
from als_reference import reference_als_fit
from conftest import sparse_matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perfcast import ALSConfig, PCMatrix, UnfactorableError, als_fit
from perfcast.factorization import _half_step, als_refits, predict_all

ranks = st.integers(1, 4)
lams = st.sampled_from([0.0, 1e-8, 1e-2])
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
    if k == 1 and lam > 0:
        assert got.train_rmse_history == want.train_rmse_history
        assert np.array_equal(got.row_factors, want.row_factors)
        assert np.array_equal(got.col_factors, want.col_factors)


@given(k=st.integers(1, 3), lam=st.sampled_from([1e-3, 1e-2, 1e-1]),
       shape=shapes, density=densities, seed=seeds,
       max_iters=st.integers(1, 30),
       blank=st.sampled_from([None, "row", "column"]))
@settings(max_examples=200, deadline=None)
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
    # was 1.6e-11, at K = 1 2.5e-15.
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
    cells = [tuple(c) for c in np.argwhere(mat.present_mask).tolist()]
    for (r, c), got in zip(cells, als_refits(mat, cells, cfg), strict=True):
        try:
            want = als_fit(mat.with_cell_missing(r, c), cfg)
        except UnfactorableError as exc:
            assert isinstance(got, UnfactorableError)
            assert str(got) == str(exc)
            continue
        # Stacking reorders rounding only; the atol covers rank-K inner
        # products that land near zero. The left-out cell is among them.
        np.testing.assert_allclose(predict_all(got), predict_all(want),
                                   rtol=1e-9, atol=1e-9 * scale)
        # Once the training RMSE is at rounding level, the relative-change
        # stop compares rounding noise.
        if want.train_rmse_history[-1] > 1e-12 * scale:
            assert len(got.train_rmse_history) == len(
                want.train_rmse_history)


@given(k=ranks, lam=lams, shape=shapes, density=densities, seed=seeds,
       skip=st.booleans())
@settings(max_examples=300, deadline=None)
def test_half_step_solves_normal_equations(k, lam, shape, density, seed,
                                           skip):
    # Every draw, singular systems included: each row's factor solves that
    # row's normal equations (Vo Vo^T + lam I) u = Vo y to rounding. Two
    # fits are stacked; with skip, each leaves out its own observed cell.
    mat = sparse_matrix(shape, density, seed)
    mask = mat.present_mask
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.5, 1.5, (2, k, shape[1]))
    X0 = np.where(mask, mat.values, 0.0)
    cells = np.argwhere(mask)[rng.integers(0, mask.sum(), 2)]
    skipped = (cells[:, 0], cells[:, 1]) if skip else None
    stack = _half_step(V, mask.astype(float), X0, lam, skipped)
    eps = np.finfo(float).eps
    for fit, (U, F) in enumerate(zip(stack, V)):
        fit_mask = mask.copy()
        if skip:
            fit_mask[tuple(cells[fit])] = False
        for i, u in enumerate(U):
            obs = np.flatnonzero(fit_mask[i])
            if obs.size == 0:  # only the left-out cell: no data, u = 0
                assert not u.any()
                continue
            Vo = F[:, obs]
            A = Vo @ Vo.T + lam * np.eye(k)
            b = Vo @ mat.values[i, obs]
            resid = np.linalg.norm(A @ u - b) / (
                np.linalg.norm(A) * np.linalg.norm(u) + np.linalg.norm(b))
            if lam > 0:
                assert resid <= 16 * eps
                continue
            # The pseudo-inverse is accurate to its condition number, over
            # the singular values it keeps, and gives the minimum-norm
            # solution: nothing outside the span of Vo.
            s = np.linalg.svd(A, compute_uv=False)
            assert resid <= 16 * eps * s[0] / s[s > 1e-15 * s[0]][-1]
            off_span = u - Vo @ np.linalg.lstsq(Vo, u, rcond=None)[0]
            assert np.linalg.norm(off_span) <= 1e-9 * np.linalg.norm(u)
