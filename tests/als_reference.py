"""Reference ALS: the per-row/per-column solve loop and the K=1 closed form.

This is the original implementation of ``perfcast.factorization.als_fit``,
kept as the oracle that the batched kernel is tested against. Its branches
for lambda 0 (a least-squares solve, a zero denominator) are gone, since
``RunConfig`` refuses an ``als_lambda`` that is not positive. Given start
column factors, it is also the oracle of a leave-one-out refit, which
starts from the full matrix's fit.

``reference_half_step`` is the batched half-step that the elimination in
``_half_step`` replaced: one ``np.linalg.solve`` over every K x K system.
"""

import numpy as np

from perfcast.config import RunConfig
from perfcast.factorization import (FactorModel, _check_factorable,
                                    _sign_normalize)


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
