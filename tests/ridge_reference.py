"""Reference ridge: the per-cell regression that the block kernel replaced.

This is the earlier ``perfcast.ridge.ridge_predict`` with its
``_solve_standardized``, kept as the oracle that
``perfcast.ridge.ridge_block`` is tested against: one cell per call, one
``np.ix_`` gather and one small solve. Its per-cell drop order is
``drop_positions``, which the block kernel's per-column drop orders are
tested against. ``predict_with_features`` also says which features a
prediction kept, none for the column mean, and ``predict_with_mechanism``
names the mechanism as the package's fill log does.

``shrink`` is the block kernel's earlier shrink step, a matmul over a
bounded span of cells per 52-rank window, kept as the oracle that
``perfcast.ridge._shrink`` is tested against: the same four arrays, with
the same values and dtypes.
"""

import numpy as np

from perfcast.config import RunConfig
from perfcast.matrix import PREDICTION_FLOOR
from perfcast.ridge import NoBasisError


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


def ridge_predict(m, row: int, col: int,
                  cfg: RunConfig = RunConfig()) -> float:
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


def predict_with_mechanism(m, row: int, col: int,
                           cfg: RunConfig = RunConfig()) -> tuple[float, str]:
    """(ridge_predict's value, "ridge:column_mean" where it kept no
    feature, else "ridge")."""
    value, kept = predict_with_features(m, row, col, cfg)
    return value, "ridge" if kept.size else "ridge:column_mean"


def predict_with_features(m, row: int, col: int,
                          cfg: RunConfig = RunConfig()):
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
    if candidates.size < cfg.ridge_min_training_rows:
        return column_mean()

    # Shrink order is fixed up front: co-observation counts between a
    # feature and the target column do not depend on which features remain.
    cand_feat = mask[np.ix_(candidates, features)]
    drop_pos = drop_positions(mask, features, candidates)

    # A candidate row becomes usable once every feature it lacks is dropped.
    steps_needed = np.where(~cand_feat, drop_pos[None, :] + 1, 0).max(axis=1)
    s = int(np.sort(steps_needed)[cfg.ridge_min_training_rows - 1])
    if s >= features.size:
        return column_mean()

    kept = features[drop_pos >= s]
    train_rows = candidates[steps_needed <= s]
    X = values[np.ix_(train_rows, kept)]
    y = values[train_rows, col]
    x0 = values[row, kept]
    pred = _solve_standardized(X, y, x0, cfg.ridge_lambda)
    return max(pred, PREDICTION_FLOOR), kept


# Distinct powers of two up to 2**51 sum exactly in a float64, so one
# matmul finds the highest drop rank among 52 of them.
WINDOW = 52
# Most (cells x rows) entries that one pass of shrink holds.
SPAN = 2**13


def shrink(mask, rows, cols, min_rows):
    """Each cell's kept features and training rows: features are dropped
    in the target column's order until min_rows candidate rows, the target
    column's other rows, observe every kept feature. A cell that would
    have to drop every feature keeps none and trains on every candidate
    row.

    Returns (n, k, train, kept): each cell's numbers of training rows and
    kept features, and those rows' and features' indices, each cell's in
    order, concatenated. The cells pass as many at a time as keep their
    (cells x rows) arrays within SPAN entries."""
    present = mask.astype(float)
    co_observed = present.T @ present
    rank = np.argsort(np.argsort(co_observed, axis=1, kind="stable"), axis=1)
    lacks = 1.0 - present.T  # lacks[f, r]: row r does not observe f
    index = np.min_scalar_type(max(mask.shape))
    row_index = np.arange(mask.shape[0], dtype=index)
    col_index = np.arange(mask.shape[1], dtype=index)
    n, k = np.zeros((2, rows.size), dtype=index)
    train, kept = [row_index[:0]], [col_index[:0]]
    step = max(1, SPAN // mask.shape[0])
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        span_train, span_kept = _shrink_span(mask, lacks, rank, rows[part],
                                             cols[part], min_rows)
        n[part] = span_train.sum(axis=1)
        k[part] = span_kept.sum(axis=1)
        train.append(np.broadcast_to(row_index, span_train.shape)[span_train])
        kept.append(np.broadcast_to(col_index, span_kept.shape)[span_kept])
    return n, k, np.concatenate(train), np.concatenate(kept)


def _shrink_span(mask, lacks, rank, rows, cols, min_rows):
    """shrink for one span of cells, as (cells x rows) and (cells x
    columns) masks of the training rows and kept features."""
    n_cols = rank.shape[0]
    span = np.arange(rows.size)
    # A training row must observe the target column as well as the kept
    # features. The target column ranks n_cols, past every feature, so it
    # is never dropped: a row that lacks it needs n_cols + 1 drops, more
    # than there are, and so does the target row.
    required = mask[rows]
    required[span, cols] = True
    drop = rank[cols]
    drop[span, cols] = n_cols
    steps = _steps(lacks, required, drop)
    steps[span, rows] = n_cols + 1
    # s drops leave min_rows training rows. With fewer candidate rows, s
    # is n_cols + 1 and the cell keeps no feature. A cell that keeps none
    # trains on every candidate row: those take at most n_cols drops.
    at = min(min_rows, steps.shape[1]) - 1
    s = np.partition(steps, at, axis=1)[:, at:at + 1]
    kept = required & (drop >= s)
    kept[span, cols] = False
    return steps <= np.minimum(s, n_cols), kept


def _steps(lacks, required, drop):
    """steps[c, r]: the drops after which row r observes every column
    cell c requires, i.e. 1 + the highest drop rank among those columns
    that the row lacks (0 when it lacks none). Within a window that rank
    is the exponent of a sum of distinct powers of two, and later
    windows outrank earlier ones."""
    steps = np.zeros((required.shape[0], lacks.shape[1]), dtype=np.int64)
    for lo in range(0, lacks.shape[0] + 1, WINDOW):  # ranks 0..n_cols
        pos = drop - lo
        in_window = required & (pos >= 0) & (pos < WINDOW)
        sums = np.ldexp(in_window, pos, dtype=float) @ lacks
        # Such a sum stores 1023 + its highest position as its biased
        # exponent (bits 52 up; a sum is never negative), and 0 stores 0.
        top = sums.view(np.int64) >> 52
        top -= 1022 - lo
        np.maximum(steps, top, out=steps)
    return steps
