"""Regression baseline: predict one machine's time from the other machines.

For a target cell the features are the target row's observed columns, the
training rows are the other rows observed everywhere the target row is.
Features are standardized, the solve is regularized least squares with an
unpenalized intercept, and a feature-shrinking fallback keeps the model
trainable on sparse data.

`ridge_block` predicts a block of cells per call and returns arrays: the
values, NaN where a cell is uncovered, and the reasons for the uncovered
cells. Which features a cell keeps and which rows train it follow from
the presence mask alone. One matmul counts the co-observations of every
column pair, and one stable sort of each column's counts gives that
column's drop order: a cell drops its features in its target column's
order, since leaving an observed target cell out lowers the count of
every feature of its row by one. A matmul over the cells then gives the
drops after which each row can train each cell. The cells pass through
this shrink step a bounded number at a time, each keeping only the
indices of its kept features and training rows. Cells of one shape
(training rows, kept features) are solved as one stack, primal or dual
by that shape; a cell that keeps no feature predicts the mean of its
column's other observed rows, and one with no such row is uncovered.
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
        if not np.isfinite(self.lam):  # at inf, a solve gives NaN
            raise ValueError(f"lambda must be finite, got {self.lam}")
        if self.min_training_rows < 2:
            raise ValueError(
                f"min_training_rows must be at least 2, got {self.min_training_rows}"
            )


# Distinct powers of two up to 2**51 sum exactly in a float64, so one
# matmul finds the highest drop rank among 52 of them.
_WINDOW = 52
# Most training values (cells x rows x features) in one stacked solve.
_STACK = 2**12
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
    n, k, train, kept = _shrink(m.present_mask, rows, cols,
                                cfg.min_training_rows)
    values = _solve(m.values, rows, cols, n, k, train, kept, cfg.lam)
    np.maximum(values, PREDICTION_FLOOR, out=values)
    # A cell trains on no row only when no other row observes its column.
    reasons = {i: NoBasisError(f"no basis for prediction: column "
                               f"{m.col_keys[cols[i]]!r} has no observed "
                               f"values")
               for i in np.flatnonzero(n == 0).tolist()}
    return values, reasons


def _drop_ranks(co_observed):
    """rank[c, f]: where feature f falls in target column c's drop order,
    fewest co-observations with c first, ties to the lower column index.

    A cell drops its features in this order whether or not it holds an
    observation: leaving the target cell out lowers the count of every
    feature of its row by one, which keeps their order."""
    order = np.argsort(co_observed, axis=1, kind="stable")
    return np.argsort(order, axis=1)


def _shrink(mask, rows, cols, min_rows):
    """Each cell's kept features and training rows: features are dropped
    in the target column's order (_drop_ranks) until min_rows candidate
    rows, the target column's other rows, observe every kept feature. A
    cell that would have to drop every feature keeps none and trains on
    every candidate row.

    Returns (n, k, train, kept): each cell's numbers of training rows and
    kept features, and those rows' and features' indices, each cell's in
    order, concatenated. The cells pass as many at a time as keep their
    (cells x rows) arrays within _SPAN entries; what each keeps is its
    index lists."""
    present = mask.astype(float)
    rank = _drop_ranks(present.T @ present)
    lacks = 1.0 - present.T  # lacks[f, r]: row r does not observe f
    index = np.min_scalar_type(max(mask.shape))
    row_index = np.arange(mask.shape[0], dtype=index)
    col_index = np.arange(mask.shape[1], dtype=index)
    n, k = np.zeros((2, rows.size), dtype=index)
    train, kept = [row_index[:0]], [col_index[:0]]
    step = max(1, _SPAN // mask.shape[0])
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
    """_shrink for one span of cells, as (cells x rows) and (cells x
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
    for lo in range(0, lacks.shape[0] + 1, _WINDOW):  # ranks 0..n_cols
        pos = drop - lo
        in_window = required & (pos >= 0) & (pos < _WINDOW)
        sums = np.ldexp(in_window, pos, dtype=float) @ lacks
        # Such a sum stores 1023 + its highest position as its biased
        # exponent (bits 52 up; a sum is never negative), and 0 stores 0.
        top = sums.view(np.int64) >> 52
        top -= 1022 - lo
        np.maximum(steps, top, out=steps)
    return steps


def _solve(values, rows, cols, n, k, train, kept, lam):
    """Predict each cell from its kept features over its training rows:
    ridge with an unpenalized intercept on standardized features. Cell
    i's training rows are its n[i] entries of train and its features its
    k[i] entries of kept; a cell with no features predicts its training
    rows' mean, and a cell with no training rows is not solved. Returns
    the predictions before the floor, NaN where there is none."""
    train_at = np.cumsum(n, dtype=np.intp) - n
    kept_at = np.cumsum(k, dtype=np.intp) - k
    preds = np.full(rows.size, np.nan)
    for part in _stacks(n, k):
        preds[part] = _solve_stack(
            values, rows[part], cols[part],
            train[train_at[part, None] + np.arange(n[part[0]])],
            kept[kept_at[part, None] + np.arange(k[part[0]])], lam)
    return preds


def _stacks(n, k):
    """Split the cells that have training rows into stacks of one (n, k)
    shape, each holding at most _STACK training values (a featureless
    cell counts its n; a single larger cell stands alone)."""
    order = np.lexsort((k, n))
    order = order[n[order] > 0]
    runs = np.flatnonzero(np.diff(n[order]) | np.diff(k[order])) + 1
    for run in np.split(order, runs) if order.size else ():
        step = max(1, _STACK // (int(n[run[0]]) * max(int(k[run[0]]), 1)))
        yield from (run[i:i + step] for i in range(0, run.size, step))


def _solve_stack(values, rows, cols, r_idx, c_idx, lam):
    # Each cell's training rows, then its kept features, in index order.
    X = values[r_idx[:, :, None], c_idx[:, None, :]]
    y = values[r_idx, cols[:, None]]
    x0 = values[rows[:, None], c_idx]

    # Standardize, in place.
    n = r_idx.shape[1]
    mu = X.sum(axis=1) / n
    X -= mu[:, None, :]
    sd = np.sqrt((X * X).sum(axis=1) / n)
    sd[sd == 0] = 1.0
    X /= sd[:, None, :]
    z0 = (x0 - mu) / sd
    ybar = y.sum(axis=1) / n
    yc = (y - ybar[:, None])[:, :, None]

    # The primal (features x features) form when the cells have no more
    # features than training rows, the dual (rows x rows) form otherwise;
    # both are the same estimator.
    Xt = X.transpose(0, 2, 1)
    if X.shape[2] > X.shape[1]:
        w = Xt @ np.linalg.solve(X @ Xt + lam * np.eye(X.shape[1]), yc)
    else:
        w = np.linalg.solve(Xt @ X + lam * np.eye(X.shape[2]), Xt @ yc)
    return ybar + (z0[:, None, :] @ w)[:, 0, 0]
