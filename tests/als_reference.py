"""Reference ALS: the per-row/per-column solve loop and the K=1 closed form.

This is the original implementation of ``perfcast.factorization.als_fit``,
kept as the oracle that the batched kernel is tested against. Its branches
for lambda 0 (a least-squares solve, a zero denominator) are gone, since
``RunConfig`` refuses an ``als_lambda`` that is not positive. Given start
column factors, it is also the oracle of a leave-one-out refit, which
starts from the full matrix's fit.

``reference_half_step`` is the batched half-step that the elimination in
``_half_step`` replaced: one ``np.linalg.solve`` over every K x K system.

``reference_refits`` is ``als_refits`` as it was before its stack kept
each slot's left-out row and column in one array of the mask and times
side by side and handed out stopped fits by slot: the loop that built
each refit's row and column with ``left_out_rows`` and copied out every
stopped fit's factors. The refits run the same arithmetic, so the two
agree bit for bit. Like als_refits, it ignores every floating-point
error of the fits, whose factors are checked after them.
"""

import numpy as np

from perfcast import factorization
from perfcast.config import RunConfig
from perfcast.factorization import (_EMPTY_COL, _EMPTY_ROW, _OVERFLOW,
                                    FactorModel, UnfactorableError,
                                    _check_factorable, _gathered_sse,
                                    _half_step, _problem, _sign_normalize)
from perfcast.matrix import PREDICTION_FLOOR


def reference_als_fit(m, cfg: RunConfig = RunConfig(),
                      start=None) -> FactorModel:
    """Factor the observed cells of the matrix into rank-K embeddings.

    Alternates exact regularized solves (rows, then columns) until the
    relative change in training RMSE drops below tol or max_iters is hit.
    Initialization is seeded uniform noise in (0.5, 1.5) scaled so initial
    predictions land near the mean observed time, or the column factors
    start (K x cols) when given; the first solve sets the row factors.
    """
    mask = m.present_mask
    _check_factorable(mask)
    values = m.values
    n, mm = values.shape
    k = cfg.als_k

    rng = np.random.default_rng(cfg.seed)
    scale = np.sqrt(values[mask].mean() / k)
    U = rng.uniform(0.5, 1.5, (n, k)) * scale
    V = rng.uniform(0.5, 1.5, (k, mm)) * scale
    if start is not None:
        V = np.array(start, dtype=np.float64)
    X0 = np.where(mask, values, 0.0)

    eye = cfg.als_lambda * np.eye(k)
    history: list[float] = []
    prev = None
    for _ in range(cfg.als_max_iters):
        if k == 1:
            v = V[0]
            U[:, 0] = (X0 @ v) / (mask @ (v * v) + cfg.als_lambda)
            u = U[:, 0]
            V[0] = (u @ X0) / ((u * u) @ mask + cfg.als_lambda)
        else:
            for i in range(n):
                obs = np.flatnonzero(mask[i])
                Vo = V[:, obs]
                A = Vo @ Vo.T + eye
                U[i] = np.linalg.solve(A, Vo @ values[i, obs])
            for j in range(mm):
                obs = np.flatnonzero(mask[:, j])
                Uo = U[obs]
                A = Uo.T @ Uo + eye
                V[:, j] = np.linalg.solve(A, Uo.T @ values[obs, j])

        resid = (U @ V)[mask] - values[mask]
        rmse = float(np.sqrt(np.mean(resid * resid)))
        history.append(rmse)
        if prev is not None and (prev == 0.0
                                 or abs(prev - rmse) / prev < cfg.als_tol):
            break
        prev = rmse

    _sign_normalize(U, V)
    config = {"algorithm": "als", "k": cfg.als_k, "lambda": cfg.als_lambda,
              "max_iters": cfg.als_max_iters, "tol": cfg.als_tol,
              "seed": cfg.seed}
    return FactorModel(k, m.row_keys, m.col_keys, U, V, tuple(history), config)


def reference_half_step(F, M, X0, lam, left=None):
    """_half_step's systems, built in (rows, fits) layout and solved by one
    np.linalg.solve: an LU factorization with partial pivoting, one
    LAPACK call per system. Same arguments and results as _half_step: F
    is (K, fits, cols), and the solutions and right-hand sides are
    returned as (K, fits, rows)."""
    k, fits, cols = F.shape
    F = F.swapaxes(0, 1)
    FF = (F[:, :, None, :] * F[:, None, :, :]).reshape(fits, k * k, cols)
    A = (M @ FF.reshape(-1, cols).T).reshape(-1, fits, k, k)
    b = (X0 @ F.reshape(-1, cols).T).reshape(-1, fits, k)
    if left is not None:
        rows, m_rows, x_rows = left
        stack = np.arange(fits)
        A[rows, stack] = (m_rows[:, None]
                          @ FF.swapaxes(1, 2)).reshape(-1, k, k)
        b[rows, stack] = (x_rows[:, None] @ F.swapaxes(1, 2))[:, 0]
    A += lam * np.eye(k)
    x = np.linalg.solve(A, b[..., None])[..., 0]
    return x.transpose(2, 1, 0), b.transpose(2, 1, 0)


def left_out_rows(M, X0, rows, cols):
    """(rows, M[rows], X0[rows]) with entry (b, cols[b]) of both zeroed:
    for each fit b, the row that holds the cell (rows[b], cols[b]) it
    leaves out, without that cell."""
    fit = np.arange(rows.size)
    m_rows, x_rows = M[rows], X0[rows]
    m_rows[fit, cols] = 0.0
    x_rows[fit, cols] = 0.0
    return rows, m_rows, x_rows


def _reference_stack(p, cfg: RunConfig, start, left_out=None):
    """_fit_stack before slots were handed out by index: the same fits, but
    each fit that takes a slot builds its row and column without its cell
    through load, and the factors of every stopped fit are copied out.

    Yields, per iteration, (rmse, fits, iters, U, V): the RMSE of each
    fit in the stack, in stack order, then the fits that stopped (their
    indices into left_out, [0] for the one fit), their iteration counts
    and final factors, (stopped, rows, K) and (stopped, K, cols).
    """
    M, X0, targets = p.M, p.X0, p.targets
    n, mm = M.shape
    k, lam = cfg.als_k, cfg.als_lambda
    if left_out is None:
        queue = slots = 1
        by_row = by_col = None
        count = targets.size
    else:
        queue, count = len(left_out), targets.size - 1
        slots = min(queue, max(1, factorization._STACK
                               // ((n + mm) * (k + 2))))
        total_sq = targets @ targets

        def load(fits):
            """The left-out rows and columns and sum x**2 of fits."""
            cells = left_out[fits]
            rows, cols = p.obs_rows[cells], p.obs_cols[cells]
            x = targets[cells]
            return (left_out_rows(M, X0, rows, cols),
                    left_out_rows(M.T, X0.T, cols, rows), total_sq - x * x)

        by_row, by_col, sumsq = load(np.arange(slots))
    live = np.arange(slots)  # stack slot -> fit
    age = np.zeros(slots, dtype=np.intp)
    prev = np.full(slots, np.nan)  # no RMSE yet: no stop
    V = np.repeat(start[:, None], slots, axis=1)  # (K, fits, cols)
    loaded = slots
    while live.size:
        Ut, _ = _half_step(V, M, X0, lam, by_row)
        V, b = _half_step(Ut, M.T, X0.T, lam, by_col)
        U, Vf = Ut.transpose(1, 2, 0), V.swapaxes(0, 1)
        if left_out is None:
            sse = _gathered_sse(U, Vf, p)
        else:
            sse = (sumsq - np.einsum("kfc,kfc->f", V, b)
                   - lam * np.einsum("kfc,kfc->f", V, V))
            near = np.flatnonzero(sse < factorization._EXACT * sumsq)
            if near.size:
                sse[near] = _gathered_sse(U[near], Vf[near], p,
                                          left_out[live[near]])
        # A rounded difference can dip below zero; sqrt would warn.
        rmse = np.sqrt(np.maximum(sse, 0.0) / count)
        age += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            done = ((age == cfg.als_max_iters) | (prev == 0.0) | np.isnan(rmse)
                    | (np.abs(prev - rmse) / prev < cfg.als_tol))
        # C-ordered, as the solve lays it out at K > 1: the next row
        # half-step hands BLAS the same operands wherever fits stopped
        V = np.ascontiguousarray(V)
        yield rmse, live[done], age[done], U[done], Vf[done]
        if not done.any():
            prev = rmse
            continue
        if left_out is None:  # the one fit stopped
            return
        free = np.flatnonzero(done)
        fill, prev = free[:queue - loaded], rmse.copy()
        if fill.size:
            fits = np.arange(loaded, loaded + fill.size)
            loaded += fill.size
            live[fill], age[fill], prev[fill] = fits, 0, np.nan
            V[:, fill] = start[:, None]
            new_rows, new_cols, sumsq[fill] = load(fits)
            for held, new in zip(by_row + by_col, new_rows + new_cols):
                held[fill] = new
        if fill.size < free.size:  # the queue is empty
            keep = ~done
            keep[fill] = True
            live, age, prev, V = live[keep], age[keep], prev[keep], V[:, keep]
            by_row = tuple(a[keep] for a in by_row)
            by_col = tuple(a[keep] for a in by_col)
            sumsq = sumsq[keep]


def _reference_full_fit(p, cfg: RunConfig):
    """_full_fit through _reference_stack."""
    t = p.targets
    trail = []
    with np.errstate(all="ignore"):  # callers check
        for rmse, _, _, U, V in _reference_stack(
                p, cfg, p.draws * np.sqrt(t.sum() / t.size / cfg.als_k)):
            trail.append(rmse.item())
    return U[0], V[0], trail


def reference_refits(m, rows, cols, cfg: RunConfig = RunConfig()):
    """als_refits through _reference_stack: the same (values, reasons,
    iters), each stopped fit's prediction taken from its copied-out
    factors."""
    mask = m.present_mask
    if not mask[rows, cols].all():
        raise ValueError("als_refits leaves out observed cells only")
    row_counts, col_counts = mask.sum(axis=1), mask.sum(axis=0)
    # without its cell, a fit has an empty row or column
    no_row = (row_counts == 0).any() | (row_counts[rows] == 1)
    no_col = (col_counts == 0).any() | (col_counts[cols] == 1)
    reasons = {i: UnfactorableError(_EMPTY_ROW if no_row[i] else _EMPTY_COL)
               for i in np.flatnonzero(no_row | no_col).tolist()}
    covered = np.flatnonzero(~(no_row | no_col))
    values = np.full(len(rows), np.nan)
    iters = np.zeros(len(rows), dtype=np.intp)
    if covered.size:  # then m has no empty row or column
        p = _problem(m, cfg)
        _, start, _ = _reference_full_fit(p, cfg)
        left_out = np.searchsorted(p.observed, rows[covered] * m.n_cols
                                   + cols[covered])
        with np.errstate(all="ignore"):  # checked below
            for _, fits, n_iters, U, V in _reference_stack(p, cfg, start,
                                                             left_out):
                cells, fit = covered[fits], np.arange(fits.size)
                iters[cells] = n_iters
                values[cells] = (U[fit, rows[cells]][:, None, :]
                                 @ V[fit, :, cols[cells]][:, :, None])[:, 0, 0]
        over = covered[~np.isfinite(values[covered])]  # the fit overflowed
        reasons |= dict.fromkeys(over.tolist(), UnfactorableError(_OVERFLOW))
        values[over], iters[over] = np.nan, 0
    return np.maximum(values, PREDICTION_FLOOR), reasons, iters
