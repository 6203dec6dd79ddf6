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
every feature of its row by one. The shrink step then runs top down on
packed row bitsets. A cell starts from its candidate rows, the other
rows that observe its target column, and takes on its row's features
from the last dropped: each ANDs in the rows that observe it, while at
least ridge_min_training_rows rows remain. The first feature that would leave
fewer ends the walk, so the kept features are a suffix of the drop order
and the last bitset holds the training rows. The cells pass a bounded
number at a time, each keeping only the indices of its kept features and
training rows. Cells of one shape (training rows, kept features) are
solved as one stack, primal or dual by that shape; a cell that keeps no
feature predicts the mean of its column's other observed rows, and one
with no such row is uncovered. `ridge_block` says which cells took that
column mean, so that their mechanism can be named apart from a solve.
`ridge_predict` is the block of one. Both read `ridge_lambda` and
`ridge_min_training_rows` from the `RunConfig` they are given.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .matrix import PREDICTION_FLOOR


class NoBasisError(ValueError):
    """Nothing to regress on: no observed values support a prediction."""


# Most training values (cells x rows x features) in one stacked solve.
_STACK = 2**12
# Most bytes of row bitsets (cells x rows / 8) that one span of the shrink
# step holds.
_SPAN = 2**16


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
    values, reasons, _ = ridge_block(m, [row], [col], cfg)
    if reasons:
        raise reasons[0]
    return float(values[0])


def ridge_block(m, rows, cols, cfg: RunConfig = RunConfig()):
    """ridge_predict for each cell (rows[i], cols[i]) in one pass; returns
    (values, reasons, mean): values[i] is the prediction, NaN where there
    is none, reasons maps each such i to the NoBasisError that says why,
    and mean[i] is True where the cell kept no feature and predicts its
    column's mean."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    n, k, train, kept = _shrink(m.present_mask, rows, cols,
                                cfg.ridge_min_training_rows)
    values = _solve(m.values, rows, cols, n, k, train, kept, cfg.ridge_lambda)
    np.maximum(values, PREDICTION_FLOOR, out=values)
    # A cell trains on no row only when no other row observes its column.
    reasons = {i: NoBasisError(f"no basis for prediction: column "
                               f"{m.col_keys[cols[i]]!r} has no observed "
                               f"values")
               for i in np.flatnonzero(n == 0).tolist()}
    return values, reasons, (k == 0) & (n > 0)


def _drop_order(mask):
    """order[c]: the columns other than c, fewest co-observations with
    target column c first (one matmul counts them all), ties to the lower
    column index.

    A cell drops its features in this order whether or not it holds an
    observation: leaving the target cell out lowers the count of every
    feature of its row by one, which keeps their order."""
    present = mask.astype(float)
    order = np.argsort(present.T @ present, axis=1, kind="stable")
    n_cols = order.shape[0]
    return order[order != np.arange(n_cols)[:, None]].reshape(n_cols, -1)


def _shrink(mask, rows, cols, min_rows):
    """Each cell's kept features and training rows: features are dropped
    in the target column's order (_drop_order) until min_rows candidate
    rows, the target column's other rows, observe every kept feature. A
    cell that would have to drop every feature keeps none and trains on
    every candidate row.

    Returns (n, k, train, kept): each cell's numbers of training rows and
    kept features, and those rows' and features' indices, each cell's in
    order, concatenated. The cells pass as many at a time as keep their
    row bitsets within _SPAN bytes."""
    n_rows, n_cols = mask.shape
    order = _drop_order(mask)
    # bits[c]: the rows that observe column c, packed into uint64 words
    bits = np.zeros((n_cols, -(-n_rows // 64)), dtype=np.uint64)
    bits.view(np.uint8)[:, :-(-n_rows // 8)] = np.packbits(mask.T, axis=1)
    index = np.min_scalar_type(max(n_rows, n_cols))
    step = max(1, _SPAN // (bits.shape[1] * 8))
    # at least one span, so that an empty block gives four empty arrays
    spans = [_shrink_span(mask, bits, order, rows[at:at + step],
                          cols[at:at + step], min_rows, index)
             for at in range(0, max(rows.size, 1), step)]
    return tuple(np.concatenate(got) for got in zip(*spans))


def _count(bitsets):
    """Set bits per bitset: exact in a float64, and a matmul sums a short
    row faster than an integer reduction does."""
    return np.bitwise_count(bitsets) @ np.ones(bitsets.shape[1])


def _shrink_span(mask, bits, order, rows, cols, min_rows, index):
    """_shrink for one span of cells, top down. Each cell's bitset starts
    as its candidate rows; from the end of its column's drop order, each
    feature its row observes is ANDed in while min_rows rows remain, and
    the first that would leave fewer stops the cell. Returns n, k, train
    and kept as arrays of the index dtype."""
    have = bits[cols]
    clear = np.uint8(128) >> (rows & 7).astype(np.uint8)
    have.view(np.uint8)[np.arange(rows.size), rows >> 3] &= ~clear
    walking = _count(have) >= min_rows
    cell, feat = [rows[:0]], [rows[:0]]
    for pos in range(order.shape[1] - 1, -1, -1):
        if not walking.any():
            break
        f = order[cols, pos]
        use = np.flatnonzero(walking & mask[rows, f])
        both = np.take(have, use, axis=0)
        both &= np.take(bits, f[use], axis=0)
        fits = _count(both) >= min_rows
        took = use[fits]
        have[took] = both[fits]
        cell.append(took)
        feat.append(f[took])
        walking[use[~fits]] = False
    # Each cell's kept features in column order, and its training rows
    # from the set bits of its bitset's nonzero bytes, in row order.
    cell, n_cols = np.concatenate(cell), mask.shape[1]
    kept = np.sort(cell * n_cols + np.concatenate(feat)) % n_cols
    byte = have.view(np.uint8)
    at = np.flatnonzero(byte)
    bit = np.flatnonzero(np.unpackbits(byte.ravel()[at]))
    train = at[bit >> 3] % byte.shape[1] * 8 + (bit & 7)
    k = np.bincount(cell, minlength=rows.size)
    return tuple(a.astype(index) for a in (_count(have), k, train, kept))


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
