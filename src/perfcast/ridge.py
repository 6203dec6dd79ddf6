"""Regression baseline: predict one machine's time from the other machines.

For a target cell the features are the target row's observed columns, the
training rows are the other rows observed everywhere the target row is.
Features are standardized, the solve is regularized least squares with an
unpenalized intercept, and a feature-shrinking fallback keeps the model
trainable on sparse data.

`ridge_block` predicts a block of cells per call and returns arrays: the
values, NaN where a cell is uncovered, and the reasons for the uncovered
cells. Which features a cell keeps and which rows train it follow from
the presence mask alone: one matmul counts the co-observations of every
column pair, which fix each cell's drop order, and one matmul over the
cells gives the drops after which each row can train each cell. The
cells' systems are then solved as zero-padded stacks: primal where a cell
has no more features than training rows, dual otherwise. The cells run
a bounded number at a time, so memory does not grow with the block; only
the cells left without a solve take the column mean, one at a time.
`ridge_predict` is the block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import PREDICTION_FLOOR


class NoBasisError(ValueError):
    """Nothing to regress on: no observed values support a prediction."""


@dataclass(frozen=True)
class RidgeConfig:
    lam: float = 1e-2
    min_training_rows: int = 3

    def __post_init__(self):
        if not self.lam > 0:  # at 0, rank-deficient cells have no one answer
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.min_training_rows < 2:
            raise ValueError(
                f"min_training_rows must be at least 2, got {self.min_training_rows}"
            )


# Distinct powers of two up to 2**51 sum exactly in a float64, so one
# matmul finds the highest drop position among 52 of them.
_WINDOW = 52
_POW2 = 2.0 ** np.arange(_WINDOW)
# Most padded training values (cells x rows x features) in one stacked solve.
_STACK = 2**13
# Most (cells x rows) entries that one pass of the shrink step holds.
_SPAN = 2**13


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
    values, reasons = ridge_block(m, [row], [col], cfg)
    if reasons:
        raise reasons[0]
    return float(values[0])


def ridge_block(m, rows, cols, cfg: RidgeConfig = RidgeConfig()):
    """ridge_predict for each cell (rows[i], cols[i]) in one pass; returns
    (values, reasons): values[i] is the prediction, NaN where there is
    none, and reasons maps each such i to the NoBasisError that says
    why."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    present = m.present_mask.astype(float)
    co_observed = present.T @ present  # rows observing both columns
    lacks = 1.0 - present.T  # lacks[f, r]: row r does not observe column f
    values = np.full(rows.size, np.nan)
    # The cells run as many at a time as keep their (cells x rows) arrays
    # within _SPAN entries, so the memory does not grow with the block.
    step = max(1, _SPAN // m.n_rows)
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        _predict(m, co_observed, lacks, rows[part], cols[part], cfg,
                 values[part])
    # A cell with no solve takes the target column's mean without the
    # target row.
    reasons = {}
    for i in np.flatnonzero(np.isnan(values)).tolist():
        col_present = m.present_mask[:, cols[i]].copy()
        col_present[rows[i]] = False
        if col_present.any():
            values[i] = max(float(m.values[col_present, cols[i]].mean()),
                            PREDICTION_FLOOR)
        else:
            reasons[i] = NoBasisError(
                f"no basis for prediction: column {m.col_keys[cols[i]]!r} "
                f"has no observed values")
    return values, reasons


def _predict(m, co_observed, lacks, rows, cols, cfg, out):
    """Solve one span of cells into out, leaving the cells that no
    feature set trains untouched."""
    mask = m.present_mask
    cells = np.arange(rows.size)
    features = mask[rows]
    seen = features[cells, cols]  # the target cell, as in leave-one-out
    features[cells, cols] = False
    # The candidate rows are the target column's other rows. A feature's
    # co-observations with the target column over them: the target row no
    # longer counts where it observed both.
    candidates = mask[:, cols].T.copy()
    candidates[cells, rows] = False
    co_counts = co_observed[cols] - (features & seen[:, None])
    trainable = np.flatnonzero(
        features.any(axis=1)
        & (candidates.sum(axis=1) >= cfg.min_training_rows))
    if trainable.size:
        kept, train = _shrink(lacks, features[trainable],
                              candidates[trainable], co_counts[trainable],
                              cfg.min_training_rows)
        some = kept.any(axis=1)
        solved = trainable[some]
        preds = _solve(m.values, rows[solved], cols[solved], kept[some],
                       train[some], cfg.lam)
        out[solved] = np.maximum(preds, PREDICTION_FLOOR)


def _shrink(lacks, features, candidates, co_counts, min_rows):
    """Each cell's kept features and training rows, as (cells x columns)
    and (cells x rows) masks: features are dropped fewest co-observations
    with the target column first (ties to the lower column index) until
    min_rows candidate rows observe every kept feature. A cell that would
    have to drop every feature keeps none. lacks[f, r] is 1 where row r
    does not observe column f, else 0."""
    n_cols, n_rows = lacks.shape
    # The drop order is fixed up front: co-observation counts between a
    # feature and the target column do not depend on which features remain.
    # Columns that are not features sort last.
    counts = np.where(features, co_counts.astype(np.int64), n_rows + 1)
    columns = np.broadcast_to(np.arange(n_cols), counts.shape)
    order = np.lexsort((columns, counts), axis=1)
    drop_pos = np.empty_like(order)
    np.put_along_axis(drop_pos, order, np.arange(n_cols), axis=1)

    steps = _steps(lacks, features, drop_pos)
    np.copyto(steps, n_cols, where=~candidates)  # never a training row
    s = np.sort(steps, axis=1)[:, min_rows - 1:min_rows]
    return features & (drop_pos >= s), steps <= s


def _steps(lacks, features, drop_pos):
    """steps[c, r]: the drops after which row r observes every feature
    cell c keeps, i.e. 1 + the highest drop position among the cell's
    features that the row lacks (0 when it lacks none). Within a window
    that position is the exponent of a sum of distinct powers of two, and
    later windows outrank earlier ones."""
    steps = np.zeros((features.shape[0], lacks.shape[1]), dtype=np.int64)
    for lo in range(0, int(features.sum(axis=1).max()), _WINDOW):
        pos = drop_pos - lo
        in_window = features & (pos >= 0) & (pos < _WINDOW)
        powers = np.where(in_window, _POW2[np.clip(pos, 0, _WINDOW - 1)], 0.0)
        sums = powers @ lacks
        # Such a sum stores 1023 + its highest position as its biased
        # exponent (bits 52 up; a sum is never negative), and 0 stores 0.
        top = sums.view(np.int64) >> 52
        top -= 1022 - lo
        np.maximum(steps, top, out=steps)
    return steps


def _solve(values, rows, cols, kept, train, lam):
    """Predict each cell from its kept features over its training rows:
    ridge with an unpenalized intercept on standardized features, in the
    primal (features x features) form when a cell has no more features
    than training rows and the dual (rows x rows) form otherwise; both are
    the same estimator. Returns the predictions before the floor."""
    n = train.sum(axis=1)
    k = kept.sum(axis=1)
    preds = np.empty(rows.size)
    for form, dual in [(k <= n, False), (k > n, True)]:
        group = np.flatnonzero(form)
        for part in _stacks(group, n[group], k[group]):
            preds[part] = _solve_stack(values, rows[part], cols[part],
                                       kept[part], train[part], n[part],
                                       k[part], lam, dual)
    return preds


def _stacks(cells, n, k):
    """Split cells into stacks of similar shape, each padded stack holding
    at most _STACK training values (a single larger cell stands alone)."""
    order = np.lexsort((k, n))
    start = 0
    while start < order.size:
        rest = order[start:]
        padded = (np.arange(1, rest.size + 1) * n[rest]
                  * np.maximum.accumulate(k[rest]))
        stop = start + max(1, int(np.searchsorted(padded, _STACK, "right")))
        yield cells[order[start:stop]]
        start = stop


def _indices(chosen, real):
    """Each cell's chosen indices in order, padded with 0 to real's width
    (real marks the entries that hold one)."""
    out = np.zeros(real.shape, dtype=np.intp)
    out[real] = np.nonzero(chosen)[1]
    return out


def _solve_stack(values, rows, cols, kept, train, n, k, lam, dual):
    # Each cell's training rows, then its kept features, in index order;
    # the padding past n and k is zero and adds nothing to any sum.
    real_r = np.arange(n.max()) < n[:, None]
    real_c = np.arange(k.max()) < k[:, None]
    r_idx = _indices(train, real_r)
    c_idx = _indices(kept, real_c)
    X = np.where(real_r[:, :, None] & real_c[:, None, :],
                 values[r_idx[:, :, None], c_idx[:, None, :]], 0.0)
    y = np.where(real_r, values[r_idx, cols[:, None]], 0.0)
    x0 = np.where(real_c, values[rows[:, None], c_idx], 0.0)

    # Standardize over the real rows only.
    count = n[:, None].astype(float)
    mu = X.sum(axis=1) / count
    Xc = np.where(real_r[:, :, None], X - mu[:, None, :], 0.0)
    sd = np.sqrt((Xc * Xc).sum(axis=1) / count)
    sd[sd == 0] = 1.0
    Xs = Xc / sd[:, None, :]
    z0 = (x0 - mu) / sd
    ybar = y.sum(axis=1) / n
    yc = np.where(real_r, y - ybar[:, None], 0.0)[:, :, None]

    Xt = Xs.transpose(0, 2, 1)
    if dual:
        w = Xt @ np.linalg.solve(Xs @ Xt + lam * np.eye(Xs.shape[1]), yc)
    else:
        w = np.linalg.solve(Xt @ Xs + lam * np.eye(Xs.shape[2]), Xt @ yc)
    return ybar + (z0[:, None, :] @ w)[:, 0, 0]
