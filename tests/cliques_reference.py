"""Reference clique scaling: one slope, one cell per call.

These are the earlier ``scaling_coefficient``, ``group_estimates`` and
``clique_predict`` of ``perfcast.cliques``, kept unchanged as the oracle
that ``perfcast.cliques.clique_block`` is tested against. Each slope is a
fresh dot product over the co-observed rows; the ridge fallback is the
per-cell ``ridge_reference.ridge_predict``.
"""

import numpy as np
from ridge_reference import ridge_predict

from perfcast.cliques import ColdRowError, Grouping
from perfcast.ridge import NoBasisError, RidgeConfig


def scaling_coefficient(m, from_col: int, to_col: int,
                        exclude_row: int | None = None) -> float:
    """Least-squares slope through the origin mapping one column onto
    another, over their co-observed rows."""
    pm = m.present_mask
    both = pm[:, from_col] & pm[:, to_col]
    if exclude_row is not None:
        both = both.copy()
        both[exclude_row] = False
    if not both.any():
        raise ValueError(
            f"no co-observed rows between columns {from_col} and {to_col}"
        )
    x = m.values[both, from_col]
    y = m.values[both, to_col]
    return float(x @ y) / float(x @ x)


def group_estimates(m, grouping: Grouping, row: int, col: int) -> list[float]:
    """Per-mate estimates for a cell: mate's time in this row scaled onto
    the target machine. Mates without a value in the row, or without any
    co-observation with the target column, contribute nothing."""
    pm = m.present_mask
    estimates = []
    for mate in grouping.mates(col):
        if not pm[row, mate]:
            continue
        try:
            slope = scaling_coefficient(m, mate, col, exclude_row=row)
        except ValueError:  # no co-observed row besides this one
            continue
        estimates.append(float(m.values[row, mate]) * slope)
    return estimates


def clique_predict(m, grouping: Grouping, row: int, col: int,
                   ridge_cfg: RidgeConfig = RidgeConfig(),
                   fallback: bool = True, ridge=None) -> tuple[float, str]:
    """Predict a cell as the mean of its group-mate estimates.

    Returns (value, mechanism), the mechanism being "cliques" or "ridge".
    The target cell is treated as missing. Machines outside any real group
    (or with no usable mate in this row) fall back to the regression
    baseline; a row with no observations at all raises ColdRowError. With
    fallback False such a cell raises NoBasisError instead. ridge, when
    given, is called with no arguments for the fallback's value in place
    of ridge_predict, by a caller that has already solved this cell.
    """
    estimates = group_estimates(m, grouping, row, col)
    if estimates:
        return float(np.mean(estimates)), "cliques"
    if not fallback:
        raise NoBasisError(f"no group estimate for cell ({m.row_label(row)}, "
                           f"{m.col_keys[col]})")
    row_mask = m.present_mask[row].copy()
    row_mask[col] = False
    if not row_mask.any():
        raise ColdRowError(f"cold row: {m.row_label(row)} has no observations")
    if ridge is None:
        return ridge_predict(m, row, col, ridge_cfg), "ridge"
    return ridge(), "ridge"
