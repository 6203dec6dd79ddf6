"""Reference SVD completion: a full SVD of the imputed matrix every step.

This is the original implementation of ``perfcast.factorization.svd_fit``,
kept unchanged as the oracle that the Gram-matrix kernel is tested against.
``gram_svd_fit`` is the Gram-matrix kernel with the settle test it had
before, which ``svd_fit`` must match bit for bit.
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


def gram_svd_fit(m, k: int, max_outer: int = 50) -> FactorModel:
    """svd_fit as it was before its settle test looked at one imputed
    cell first and kept the previous step's imputed values: every step
    gathers them again and tests them all. The same arithmetic, so the
    same bits."""
    mask = m.present_mask
    _check_factorable(mask)
    if not (1 <= k <= min(m.n_rows, m.n_cols)):
        raise ValueError(f"rank must be in [1, {min(m.n_rows, m.n_cols)}], got {k}")
    if max_outer < 1:
        raise ValueError("max_outer must be >= 1")
    values = m.values

    row_means = np.where(mask, values, 0.0).sum(axis=1) / mask.sum(axis=1)
    X = np.where(mask, values, row_means[:, None])
    # flat indices, in values[mask]'s order: only imputed cells are rewritten
    observed = np.flatnonzero(mask)
    missing = np.flatnonzero(~mask)
    targets = values.ravel()[observed]
    flat = X.ravel()  # a view, as is A: X or X^T, whichever has fewer columns
    wide = m.n_rows < m.n_cols
    A = X.T if wide else X
    history: list[float] = []
    for _ in range(max_outer):
        P = np.linalg.eigh(A.T @ A)[1][:, :-k - 1:-1]  # top k, descending
        AP = A @ P
        recon = AP @ P.T
        if wide:
            recon = recon.T
        resid = recon.take(observed) - targets
        history.append(float(np.sqrt(np.mean(resid * resid))))
        if not missing.size:
            break
        old = flat[missing]
        new = recon.take(missing)
        flat[missing] = new
        if np.all(np.abs(new - old) <= 1e-12 * (np.abs(old) + 1e-30)):
            break

    s = np.linalg.norm(AP, axis=0)
    root = np.sqrt(s)
    left = np.divide(AP, root, out=np.zeros_like(AP), where=s > 0)
    right = root[:, None] * P.T
    Uf, Vf = (right.T, left.T) if wide else (left, right)
    _sign_normalize(Uf, Vf)
    config = {"algorithm": "svd", "k": k, "max_outer": max_outer}
    return FactorModel(k, m.row_keys, m.col_keys, Uf, Vf, tuple(history), config)
