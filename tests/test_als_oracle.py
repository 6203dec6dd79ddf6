"""The batched ALS kernel against the per-row/per-column reference loop."""

import numpy as np
import pytest
from als_reference import reference_als_fit, reference_half_step
from conftest import grid, predict_all, sparse_matrix
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perfcast import PCMatrix, RunConfig, UnfactorableError, als_fit
from perfcast import factorization
from perfcast.factorization import (_fit_stack, _half_step, _left_out_rows,
                                    _problem, als_refits, predict)
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
    cfg = RunConfig(als_k=k, als_lambda=lam, als_max_iters=max_iters,
                    seed=seed % 1000)
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
# Column 2 holds exactly K observations. Started cold, the refit without
# (0, 8) missed rtol at entry (6, 2) by 6.4e-9 relative, and 1-ulp changes
# of its inputs moved the per-cell fit there by up to 2.3e-8. From the full
# fit's factors the worst entry is off by 1.9e-11.
@example(k=3, lam=0.01, shape=(10, 10), density=0.375, seed=927,
         max_iters=5, blank=None)
def test_refits_match_per_cell_fits(k, lam, shape, density, seed, max_iters,
                                    blank):
    # The stacked leave-one-out fits against one reference fit per cell on
    # the matrix without it, started from the full fit's column factors.
    # Low densities leave rows and columns seen once, whose cell is
    # uncovered; blank empties the first row or column, which leaves every
    # cell uncovered.
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
    cfg = RunConfig(als_k=k, als_lambda=lam, als_max_iters=max_iters,
                    seed=seed % 1000)
    assert_refits_match_per_cell_fits(mat, cfg, rtol=1e-9, atol=1e-9 * scale,
                                      rounding=1e-12 * scale)


def stacked(mat, cfg, left_out):
    """_fit_stack's refits of mat, each leaving out its cell left_out[b]
    (an index into the observed cells in row-major order), started as
    als_refits starts them, from the full fit's column factors: each
    fit's final factors (fits, rows, K) and (fits, K, cols), its
    iteration count, and per iteration the RMSEs of the stack."""
    start = als_fit(mat, cfg).col_factors
    n = len(left_out)
    U = np.empty((n, mat.n_rows, cfg.als_k))
    V = np.empty((n, cfg.als_k, mat.n_cols))
    iters, trail = np.zeros(n, dtype=np.intp), []
    for rmse, fits, n_iters, u, v in _fit_stack(_problem(mat, cfg), cfg,
                                                start, left_out):
        trail.append(rmse)
        U[fits], V[fits], iters[fits] = u, v, n_iters
    return U, V, iters, trail


def ulp_spread(mat, cfg, want, start, draws=8):
    """Entry by entry, how far the reference fit on mat from start moves
    from want's reconstruction, and from its prediction of each cell,
    when every observed time is moved by one ulp up or down: the largest
    difference over a few seeded draws. It measures the fit's own
    conditioning."""
    rng = np.random.default_rng(0)
    full = predict_all(want)
    spread = np.zeros_like(full)
    for _ in range(draws):
        vals = np.nextafter(mat.values, rng.choice([-np.inf, np.inf],
                                                   mat.values.shape))
        fit = reference_als_fit(PCMatrix(mat.row_keys, mat.col_keys, vals),
                                cfg, start)
        spread = np.maximum(spread, np.abs(predict_all(fit) - full))
    return spread


def assert_refits_match_per_cell_fits(mat, cfg, rtol, atol, rounding):
    """als_refits and the stacked fits behind it, cell by cell, against
    the reference fit on the matrix without that cell, started from the
    column factors of als_fit on the whole matrix: the same cells are
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
    # a covered cell means every row and column is observed
    start = als_fit(mat, cfg).col_factors if covered.size else None
    U, V, stack_iters, _ = (stacked(mat, cfg, covered)
                            if covered.size else (None, None, None, None))
    fit = dict(zip(covered.tolist(), range(covered.size)))
    for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        held = mat.with_cell_missing(r, c)
        try:
            want = reference_als_fit(held, cfg, start)
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
            spread = ulp_spread(held, cfg, want, start)
            bound = 2 * np.append(spread, spread[r, c])
            np.testing.assert_array_less(np.abs(got - ref)[off], bound[off])
        if want.train_rmse_history[-1] > rounding:
            assert iters[i] == stack_iters[j] == len(want.train_rmse_history)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("rank,lam", [(1, 1e-4), (2, 1e-3)])
def test_refits_near_their_targets_match_per_cell_fits(rank, lam, tol):
    # Noiseless rank-1 and rank-2 data: every refit closes in on its
    # targets until only lambda's shrinkage is left, with an SSE of 3e-11
    # to 4e-9 of sum x**2, where the SSE from the half-step sums is
    # rounding noise. Below _EXACT the refits gather their residuals, so
    # each stops where the per-cell fit stops. From the sums alone, up to
    # 92 of the 93 rank-1 refits stopped elsewhere, with predictions off
    # by up to 4.9e-9 relative; the rank-2 refits run all 200 iterations
    # either way. (Started cold, up to 87 refits per case stopped
    # elsewhere, off by up to 5.9e-6.)
    mat = sparse_matrix((12, 8), 0.9, 17, rank=rank)
    cfg = RunConfig(als_k=rank, als_lambda=lam, als_tol=tol)
    targets = mat.values[mat.present_mask]
    start = als_fit(mat, cfg).col_factors
    for r, c in np.argwhere(mat.present_mask)[::5].tolist():
        want = reference_als_fit(mat.with_cell_missing(r, c), cfg, start)
        sse = want.train_rmse_history[-1] ** 2 * (targets.size - 1)
        assert sse < factorization._EXACT * (
            targets @ targets - mat.values[r, c] ** 2)
    scale = float(np.nanmean(mat.values))
    assert_refits_match_per_cell_fits(mat, cfg, rtol=1e-9, atol=1e-9 * scale,
                                      rounding=0.0)


@pytest.mark.parametrize("rank,tol,seed", [(1, 1e-3, 2), (2, 1e-2, 0)])
def test_refits_that_stop_apart_match_stacks_of_one(rank, tol, seed):
    # Noiseless data and a tol stop: the refits of one stack stop at
    # several iterations, so the stack runs iterations where no fit stops,
    # where some leave it and where its last fits stop. Each refit against
    # the stack of the one fit that leaves out the same cell.
    mat = sparse_matrix((8, 6), 0.8, seed, rank=rank)
    cfg = RunConfig(als_k=rank, als_lambda=1e-3, als_tol=tol,
                    als_max_iters=60)
    rows, cols = np.nonzero(mat.present_mask)
    values, reasons, iters = als_refits(mat, rows, cols, cfg)
    assert not reasons
    left_out = np.arange(rows.size)  # one stack, in the refits' order
    _, _, stack_iters, trail = stacked(mat, cfg, left_out)
    assert len(trail[0]) == rows.size
    assert np.array_equal(stack_iters, iters)
    assert np.unique(iters).size >= 3
    assert iters.max() < cfg.als_max_iters
    # each iteration's RMSEs are those of the fits still running
    assert [r.size for r in trail] == [
        np.count_nonzero(iters >= it) for it in range(1, iters.max() + 1)]
    assert_matches_stacks_of_one(mat, cfg, values, iters)


def assert_matches_stacks_of_one(mat, cfg, values, iters):
    """Each refit of als_refits(mat) against the stack of the one fit
    that leaves out the same cell: the same iteration count, and its
    prediction at rtol 1e-9."""
    rows, cols = np.nonzero(mat.present_mask)
    scale = float(np.nanmean(mat.values))
    for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        U, V, one_iters, _ = stacked(mat, cfg, np.array([i]))
        assert one_iters[0] == iters[i]
        want = max(U[0, r] @ V[0, :, c], PREDICTION_FLOOR)
        np.testing.assert_allclose(values[i], want, rtol=1e-9,
                                   atol=1e-9 * scale)


@pytest.mark.parametrize("rank,tol,seed", [(1, 1e-3, 2), (2, 1e-2, 0)])
def test_refilled_slots_match_stacks_of_one(rank, tol, seed, monkeypatch):
    # A stack of three slots: as fits stop, the next cells of the queue
    # take their slots, and the stack shrinks only once the queue is empty.
    mat = sparse_matrix((8, 6), 0.8, seed, rank=rank)
    cfg = RunConfig(als_k=rank, als_lambda=1e-3, als_tol=tol,
                    als_max_iters=60)
    monkeypatch.setattr(factorization, "_STACK", 3 * (8 + 6) * (rank + 2))
    rows, cols = np.nonzero(mat.present_mask)
    values, reasons, iters = als_refits(mat, rows, cols, cfg)
    assert not reasons
    _, _, stack_iters, trail = stacked(mat, cfg, np.arange(rows.size))
    assert np.array_equal(stack_iters, iters)
    assert np.unique(iters).size >= 3
    # Each fit holds a slot for each of its iterations, and the stack
    # shrinks only at the end: in batches of three, it would grow back to
    # three after each batch.
    sizes = [r.size for r in trail]
    assert sum(sizes) == iters.sum() and sizes[0] == 3 < rows.size
    assert sizes == sorted(sizes, reverse=True)
    assert_matches_stacks_of_one(mat, cfg, values, iters)


def test_warm_refits_near_converged_per_cell_fits():
    # A refit starts one cell away from its answer, so at a small budget
    # it lands closer to the converged fit than a cold fit does. Rank-1
    # times with 5% noise, 40x20 at density 0.6; the budget is the
    # benchmark's leave-one-out one (6 iterations, tol 1e-9). The cold
    # per-cell fits at tol 1e-10 stop after at most 12 iterations.
    # Measured: the warm refits are at most 5.3e-6 relative from them, the
    # cold fits at the same budget up to 2.7e-5.
    rng = np.random.default_rng(2)
    vals = np.outer(rng.uniform(0.5, 5, 40), rng.uniform(0.5, 5, 20))
    vals *= np.exp(rng.normal(0, 0.05, vals.shape))
    vals[rng.random(vals.shape) >= 0.6] = np.nan
    mat = grid(vals.tolist())
    cfg = RunConfig(als_max_iters=6, als_tol=1e-9)
    rows, cols = np.nonzero(mat.present_mask)
    values, reasons, _ = als_refits(mat, rows, cols, cfg)
    assert not reasons
    warm, cold = [], []
    for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        held = mat.with_cell_missing(r, c)
        fit = als_fit(held, RunConfig(als_tol=1e-10))
        assert len(fit.train_rmse_history) < 20
        want = predict(fit, r, c)
        warm.append(abs(values[i] - want) / want)
        cold.append(abs(predict(als_fit(held, cfg), r, c) - want) / want)
    assert max(warm) < 1e-5
    assert max(warm) < max(cold)


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
    cfg = RunConfig(als_k=k, als_max_iters=30, als_tol=1e-9)
    # one stack of every fit, so each trail entry is in the fits' order
    monkeypatch.setattr(factorization, "_STACK", 2 ** 30)
    _, _, iters, trail = stacked(mat, cfg, left_out)
    exact = factorization._EXACT
    monkeypatch.setattr(factorization, "_EXACT", np.inf)  # gather them all
    _, _, want_iters, want_trail = stacked(mat, cfg, left_out)
    # every fit runs to the cap, so each trail entry holds every fit
    assert (iters == cfg.als_max_iters).all()
    assert (want_iters == cfg.als_max_iters).all()
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
    M, X0 = mask.astype(float), np.where(mask, mat.values, 0.0)
    cells = np.argwhere(mask)[rng.integers(0, mask.sum(), 2)]
    left = _left_out_rows(M, X0, cells[:, 0], cells[:, 1]) if skip else None
    stack, rhs = _half_step(V.swapaxes(0, 1), M, X0, lam, left)
    eps = np.finfo(float).eps
    for fit, (U, B, F) in enumerate(zip(stack.transpose(1, 2, 0),
                                        rhs.transpose(1, 2, 0), V)):
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


def norms(a, axes):
    """2-norms of a over axes, each taken on a rescaled copy so that no
    square overflows or underflows."""
    top = np.abs(a).max(axis=axes, keepdims=True)
    top = np.where(top > 0, top, 1.0)
    return np.sqrt(((a / top) ** 2).sum(axis=axes)) * top.squeeze(axes)


@given(k=st.sampled_from([2, 3, 4, 8]), fits=st.integers(1, 8), lam=lams,
       shape=shapes, density=densities, seed=seeds,
       scale=st.sampled_from([1e-150, 1.0, 1e150]), skip=st.booleans())
@settings(max_examples=300, deadline=None)
def test_half_step_matches_batched_solve(k, fits, lam, shape, density, seed,
                                         scale, skip):
    # The elimination against reference_half_step's np.linalg.solve, every
    # draw included: low densities leave rows seen fewer than K times,
    # whose systems at lam 1e-8 are nearly singular, and the times are
    # scaled far from 1. With skip, each fit leaves out its own cell.
    mat = sparse_matrix(shape, density, seed)
    mask = mat.present_mask
    rng = np.random.default_rng(seed)
    F = rng.uniform(0.5, 1.5, (k, fits, shape[1]))
    M, X0 = mask.astype(float), np.where(mask, mat.values * scale, 0.0)
    cells = np.argwhere(mask)[rng.integers(0, mask.sum(), fits)]
    left = _left_out_rows(M, X0, cells[:, 0], cells[:, 1]) if skip else None
    x, r = _half_step(F, M, X0, lam, left)
    want_x, want_r = reference_half_step(F, M, X0, lam, left)
    assert np.isfinite(x).all()
    np.testing.assert_allclose(r, want_r, rtol=1e-13)
    # each fit's systems, built cell by cell: (fits, rows, K, K) and
    # (fits, rows, K)
    fit_mask = np.repeat(M[None], fits, axis=0)
    if skip:
        fit_mask[np.arange(fits), cells[:, 0], cells[:, 1]] = 0.0
    A = np.einsum("fic,afc,bfc->fiab", fit_mask, F, F) + lam * np.eye(k)
    b = np.einsum("fic,afc->fia", fit_mask * X0, F)
    u, want_u = x.transpose(1, 2, 0), want_x.transpose(1, 2, 0)
    empty = ~fit_mask.any(axis=2)  # only the left-out cell: no data, u = 0
    assert not u[empty].any()
    A, b, u, want_u = A[~empty], b[~empty], u[~empty], want_u[~empty]
    eps = np.finfo(float).eps
    resid = norms(np.einsum("sab,sb->sa", A, u) - b, 1) / (
        norms(A, (1, 2)) * norms(u, 1) + norms(b, 1))
    assert (resid <= 16 * eps).all()
    # Both solvers are backward stable, so they agree to the systems'
    # conditioning.
    gap = norms(u - want_u, 1)
    assert (gap <= 32 * eps * np.linalg.cond(A) * norms(want_u, 1)).all()
