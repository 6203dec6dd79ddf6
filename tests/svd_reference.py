"""Reference SVD completion: a full SVD of the imputed matrix every step.

This is the original implementation of ``perfcast.factorization.svd_fit``,
kept unchanged as the oracle that the Gram-matrix kernel is tested against.
"""

import numpy as np

from perfcast.factorization import (FactorModel, _check_factorable,
                                    _sign_normalize)


def reference_svd_fit(m, k: int, max_outer: int = 50) -> FactorModel:
    """Impute-and-decompose completion: fill missing cells with row means,
    truncate an SVD to rank k, refill from the reconstruction, repeat.

    Deterministic. Stops early once imputed cells settle.
    """
    mask = m.present_mask
    _check_factorable(mask)
    if not (1 <= k <= min(m.n_rows, m.n_cols)):
        raise ValueError(f"rank must be in [1, {min(m.n_rows, m.n_cols)}], got {k}")
    if max_outer < 1:
        raise ValueError("max_outer must be >= 1")
    values = m.values

    row_means = np.array([values[i, mask[i]].mean() for i in range(m.n_rows)])
    X = np.where(mask, values, row_means[:, None])
    missing = ~mask
    history: list[float] = []
    U = s = Vt = None
    for _ in range(max_outer):
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        recon = (U[:, :k] * s[:k]) @ Vt[:k]
        resid = recon[mask] - values[mask]
        history.append(float(np.sqrt(np.mean(resid * resid))))
        if not missing.any():
            break
        old = X[missing]
        new = recon[missing]
        X = np.where(mask, values, recon)
        if np.all(np.abs(new - old) <= 1e-12 * (np.abs(old) + 1e-30)):
            break

    root = np.sqrt(s[:k])
    Uf = U[:, :k] * root
    Vf = root[:, None] * Vt[:k]
    _sign_normalize(Uf, Vf)
    config = {"algorithm": "svd", "k": k, "max_outer": max_outer}
    return FactorModel(k, m.row_keys, m.col_keys, Uf, Vf, tuple(history), config)
