"""Reference ALS: the per-row/per-column solve loop and the K=1 closed form.

This is the original implementation of ``perfcast.factorization.als_fit``,
kept as the oracle that the batched kernel is tested against. Its branches
for lambda 0 (a least-squares solve, a zero denominator) are gone, since
``ALSConfig`` refuses a lambda that is not positive.
"""

import numpy as np

from perfcast.factorization import (ALSConfig, FactorModel, _check_factorable,
                                    _sign_normalize)


def reference_als_fit(m, cfg: ALSConfig = ALSConfig()) -> FactorModel:
    """Factor the observed cells of the matrix into rank-K embeddings.

    Alternates exact regularized solves (rows, then columns) until the
    relative change in training RMSE drops below tol or max_iters is hit.
    Initialization is seeded uniform noise in (0.5, 1.5) scaled so initial
    predictions land near the mean observed time.
    """
    mask = m.present_mask
    _check_factorable(mask)
    values = m.values
    n, mm = values.shape
    k = cfg.k

    rng = np.random.default_rng(cfg.seed)
    scale = np.sqrt(values[mask].mean() / k)
    U = rng.uniform(0.5, 1.5, (n, k)) * scale
    V = rng.uniform(0.5, 1.5, (k, mm)) * scale
    X0 = np.where(mask, values, 0.0)

    eye = cfg.lam * np.eye(k)
    history: list[float] = []
    prev = None
    for _ in range(cfg.max_iters):
        if k == 1:
            v = V[0]
            U[:, 0] = (X0 @ v) / (mask @ (v * v) + cfg.lam)
            u = U[:, 0]
            V[0] = (u @ X0) / ((u * u) @ mask + cfg.lam)
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
        if prev is not None and (prev == 0.0 or abs(prev - rmse) / prev < cfg.tol):
            break
        prev = rmse

    _sign_normalize(U, V)
    config = {"algorithm": "als", "k": cfg.k, "lambda": cfg.lam,
              "max_iters": cfg.max_iters, "tol": cfg.tol, "seed": cfg.seed}
    return FactorModel(k, m.row_keys, m.col_keys, U, V, tuple(history), config)
