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
``ridge_reference.ridge_predict``.
"""

import math

import numpy as np
from ridge_reference import ridge_predict

from perfcast.cliques import ColdRowError, Grouping
from perfcast.ridge import NoBasisError, RidgeConfig


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
