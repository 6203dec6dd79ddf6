"""Reference machine grouping and clique scaling: one pair, one cell per
call.

``pearson``, ``edges`` and ``find_cliques`` are the earlier per-pair
correlation, graph loop and set-based greedy clique search of
``perfcast.cliques``, kept as the oracle that ``correlations``,
``build_graph`` and ``find_cliques`` are tested against. Each r is its own
masked gather, two means and three dot products.

``scaling_coefficient``, ``group_estimates`` and ``clique_predict`` are
the earlier per-cell scaling, kept unchanged as the oracle that
``perfcast.cliques.clique_block`` is tested against. Each slope is a fresh
dot product over the co-observed rows; the ridge fallback is the per-cell
``ridge_reference.predict_with_mechanism``.

``grid_slopes``, ``grid_estimates`` and ``grid_block`` are the earlier
block kernel, which computed a slope and an estimate for every entry of a
(cells x columns) grid and kept the group mates that the row observes,
kept as the exact oracle that ``perfcast.cliques.clique_block`` is tested
against: the same values bit for bit, and the same reasons.
"""

import math

import numpy as np
from ridge_reference import predict_with_mechanism

from perfcast.cliques import Grouping, PairSums, pair_sums
from perfcast.config import RunConfig
from perfcast.ridge import NoBasisError


def pearson(m, col_a: int, col_b: int, min_overlap: int = 3) -> float | None:
    """Pearson r between two machine columns over rows observed in both;
    None when fewer than min_overlap rows are co-observed or either
    restricted column is constant."""
    pm = m.present_mask
    both = pm[:, col_a] & pm[:, col_b]
    if int(both.sum()) < min_overlap:
        return None
    x = m.values[both, col_a]
    y = m.values[both, col_b]
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    return float(dx @ dy) / math.sqrt(sxx * syy)


def edges(m, threshold: float, min_overlap: int) -> set[tuple[int, int]]:
    """Every column pair (i, j), i < j, with |r| above threshold."""
    out = set()
    for i in range(m.n_cols):
        for j in range(i + 1, m.n_cols):
            r = pearson(m, i, j, min_overlap)
            if r is not None and abs(r) > threshold:
                out.add((i, j))
    return out


def find_cliques(n_vertices: int, edges) -> tuple[tuple[int, ...], ...]:
    """Greedy clique cover over an edge set: seed one clique per vertex,
    highest degree first, and grow it by the highest-degree candidate
    still adjacent to every member (ties to the lower vertex index)."""
    adj: dict[int, set[int]] = {v: set() for v in range(n_vertices)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    degree = {v: len(adj[v]) for v in adj}
    order = sorted(adj, key=lambda v: (-degree[v], v))

    cliques: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for v in order:
        members = [v]
        candidates = set(adj[v])
        while candidates:
            best = min(candidates, key=lambda u: (-degree[u], u))
            members.append(best)
            candidates &= adj[best]
        key = tuple(sorted(members))
        if key not in seen:
            seen.add(key)
            cliques.append(key)
    return tuple(cliques)


def mates(cliques, vertex: int) -> list[int]:
    """All other vertices sharing at least one clique with ``vertex``."""
    out = {v for cl in cliques if vertex in cl for v in cl}
    out.discard(vertex)
    return sorted(out)


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
    for mate in mates(grouping.cliques, col):
        if not pm[row, mate]:
            continue
        try:
            slope = scaling_coefficient(m, mate, col, exclude_row=row)
        except ValueError:  # no co-observed row besides this one
            continue
        estimates.append(float(m.values[row, mate]) * slope)
    return estimates


def clique_predict(m, grouping: Grouping, row: int, col: int,
                   cfg: RunConfig = RunConfig(),
                   fallback: bool = True) -> tuple[float, str]:
    """Predict a cell as the mean of its group-mate estimates.

    Returns (value, mechanism), the mechanism being "cliques" or, from the
    fallback, "ridge" or "ridge:column_mean".
    The target cell is treated as missing. Machines outside any real group
    (or with no usable mate in this row) fall back to the regression
    baseline, a row with no other observation to its column's mean. With
    fallback False such a cell raises NoBasisError instead.
    """
    estimates = group_estimates(m, grouping, row, col)
    if estimates:
        return float(np.mean(estimates)), "cliques"
    if not fallback:
        raise NoBasisError(f"no group estimate for cell ({m.row_label(row)}, "
                           f"{m.col_keys[col]})")
    return predict_with_mechanism(m, row, col, cfg)


def grid_slopes(m, sums: PairSums, rows, cols):
    """slope[i, a]: the least-squares slope through the origin from column
    a onto column cols[i], over the rows other than rows[i] that observe
    both; usable[i, a] where there is such a row. A row index of -1 leaves
    no row out.

    The left-out row's terms come back out of the pair sums; where one of
    them is as large as what remains, that difference would lose digits,
    so the pair is summed again directly.
    """
    mask, values = m.present_mask, m.values
    cells = np.arange(rows.size)
    left_out = (rows >= 0)[:, None] & mask[rows]
    x = np.where(left_out, values[rows], 0.0)
    y = x[cells, cols][:, None]
    target_seen = left_out[cells, cols][:, None]
    xy = sums.xy[cols] - x * y
    xx = sums.xx.T[cols] - np.where(target_seen, x * x, 0.0)
    usable = sums.count[cols] - (left_out & target_seen) > 0
    redo = usable & target_seen & ((x * x >= xx) | (x * y >= xy))
    for i, a in zip(*np.nonzero(redo)):
        both = mask[:, a] & mask[:, cols[i]]
        both[rows[i]] = False
        xa = values[both, a]
        xy[i, a] = xa @ values[both, cols[i]]
        xx[i, a] = xa @ xa
    with np.errstate(divide="ignore", invalid="ignore"):
        return xy / xx, usable


def grid_estimates(m, grouping: Grouping, sums: PairSums, rows, cols):
    """est[i, a]: group mate a's time in row rows[i] scaled onto column
    cols[i], where valid[i, a]: a shares a clique with cols[i], has a
    value in the row and a co-observed row besides it (0 elsewhere)."""
    slope, usable = grid_slopes(m, sums, rows, cols)
    valid = grouping.mates[cols] & m.present_mask[rows] & usable
    return np.where(valid, m.values[rows] * slope, 0.0), valid


def grid_block(m, grouping: Grouping, rows, cols, span: int = 2**11):
    """The clique estimates' mean for each cell (rows[i], cols[i]), the
    (cells x columns) grid computed span entries at a time; returns
    (values, reasons) as ``clique_block`` does."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    sums = pair_sums(m)
    n_est = np.zeros(rows.size, dtype=int)
    values = np.zeros(rows.size)
    step = max(1, span // m.n_cols)
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        est, valid = grid_estimates(m, grouping, sums, rows[part], cols[part])
        n_est[part] = valid.sum(axis=1)
        values[part] = est.sum(axis=1) / np.maximum(n_est[part], 1)
    values[n_est == 0] = np.nan
    reasons = {i: NoBasisError(f"no group estimate for cell "
                               f"({m.row_label(rows[i])}, "
                               f"{m.col_keys[cols[i]]})")
               for i in np.flatnonzero(n_est == 0).tolist()}
    return values, reasons
