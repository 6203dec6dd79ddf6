"""Reference ridge: the per-cell regression that the block kernel replaced.

This is the earlier ``perfcast.ridge.ridge_predict`` with its
``_solve_standardized``, kept as the oracle that
``perfcast.ridge.ridge_block`` is tested against: one cell per call, one
``np.ix_`` gather and one small solve. Its per-cell drop order is
``drop_positions``, which the block kernel's per-column drop ranks are
tested against. ``predict_with_features`` also says which features a
prediction kept, none for the column mean.
"""

import numpy as np

from perfcast.matrix import PREDICTION_FLOOR
from perfcast.ridge import NoBasisError, RidgeConfig


def _solve_standardized(X, y, x0, lam):
    """Ridge with intercept on standardized features; returns the prediction
    for feature vector x0. Uses the dual (n x n) system when features
    outnumber training rows; both forms are the same estimator."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    Xs = (X - mu) / sd
    z0 = (x0 - mu) / sd
    ybar = y.mean()
    yc = y - ybar
    n, k = Xs.shape
    if k <= n:
        w = np.linalg.solve(Xs.T @ Xs + lam * np.eye(k), Xs.T @ yc)
        return float(ybar + z0 @ w)
    alpha = np.linalg.solve(Xs @ Xs.T + lam * np.eye(n), yc)
    return float(ybar + z0 @ (Xs.T @ alpha))


def drop_positions(mask, features, candidates):
    """Each feature's position in a cell's drop order: fewest
    co-observations with the target column over the candidate rows
    first, ties to the lower column index."""
    co_counts = mask[np.ix_(candidates, features)].sum(axis=0)
    drop_order = np.lexsort((features, co_counts))
    drop_pos = np.empty(features.size, dtype=int)
    drop_pos[drop_order] = np.arange(features.size)
    return drop_pos


def ridge_predict(m, row: int, col: int, cfg: RidgeConfig = RidgeConfig()) -> float:
    """Predict the (row, col) cell from the rest of the matrix.

    The target cell is treated as missing whatever it currently holds, so
    the same call serves truly missing cells and held-out evaluation cells.
    Fallback chain when the full feature set is untrainable: drop the
    feature with the fewest co-observations with the target column (ties to
    the lower column index) until enough complete training rows exist; with
    no features left, fall back to the target column's mean. Raises
    NoBasisError if the target column has no observed values at all.
    """
    return predict_with_features(m, row, col, cfg)[0]


def predict_with_features(m, row: int, col: int,
                          cfg: RidgeConfig = RidgeConfig()):
    """(ridge_predict's value, the indices of the features it kept)."""
    mask = m.present_mask
    values = m.values

    def column_mean() -> float:
        col_present = mask[:, col].copy()
        col_present[row] = False
        if not col_present.any():
            raise NoBasisError(
                f"no basis for prediction: column {m.col_keys[col]!r} has no "
                f"observed values"
            )
        return (max(float(values[col_present, col].mean()),
                    PREDICTION_FLOOR), np.empty(0, dtype=int))

    feat_mask = mask[row].copy()
    feat_mask[col] = False
    features = np.flatnonzero(feat_mask)
    if features.size == 0:
        return column_mean()

    candidates = np.flatnonzero(mask[:, col])
    candidates = candidates[candidates != row]
    if candidates.size < cfg.min_training_rows:
        return column_mean()

    # Shrink order is fixed up front: co-observation counts between a
    # feature and the target column do not depend on which features remain.
    cand_feat = mask[np.ix_(candidates, features)]
    drop_pos = drop_positions(mask, features, candidates)

    # A candidate row becomes usable once every feature it lacks is dropped.
    steps_needed = np.where(~cand_feat, drop_pos[None, :] + 1, 0).max(axis=1)
    s = int(np.sort(steps_needed)[cfg.min_training_rows - 1])
    if s >= features.size:
        return column_mean()

    kept = features[drop_pos >= s]
    train_rows = candidates[steps_needed <= s]
    X = values[np.ix_(train_rows, kept)]
    y = values[train_rows, col]
    x0 = values[row, kept]
    pred = _solve_standardized(X, y, x0, cfg.lam)
    return max(pred, PREDICTION_FLOOR), kept
