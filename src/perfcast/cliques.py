"""Machine grouping by timing correlation, and prediction inside groups.

Two machines whose observed time columns are strongly linearly related
(|Pearson r| above a threshold) get an edge in a similarity graph. Cliques
of that graph are groups inside which every pair of columns is modeled as
a scalar multiple of the other, so a missing time is recovered by scaling
a group mate's time. The clique search is a cheap greedy pass, not an
exact maximum-clique enumeration: it guarantees at least one clique per
vertex and runs in at most cubic time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ridge import NoBasisError, RidgeConfig, ridge_predict


class ColdRowError(ValueError):
    """The program has no observed time anywhere; per-cell prediction is
    impossible and the caller should fall back to machine ranking."""


@dataclass(frozen=True)
class SimilarityGraph:
    n_vertices: int
    edges: frozenset[tuple[int, int]]
    threshold: float
    min_overlap: int

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n_vertices)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class Grouping:
    """Cliques found in the similarity graph; a vertex can sit in several."""

    cliques: tuple[tuple[int, ...], ...]
    membership: dict[int, tuple[int, ...]]

    def mates(self, vertex: int) -> list[int]:
        """All other vertices sharing at least one clique with ``vertex``."""
        out: set[int] = set()
        for idx in self.membership.get(vertex, ()):
            out.update(self.cliques[idx])
        out.discard(vertex)
        return sorted(out)


def _pearson_arrays(xa, xb, pa, pb, min_overlap):
    both = pa & pb
    if int(both.sum()) < min_overlap:
        return None
    x = xa[both]
    y = xb[both]
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    return float(dx @ dy) / math.sqrt(sxx * syy)


def pearson(m, col_a: int, col_b: int, min_overlap: int = 3) -> float | None:
    """Pearson r between two machine columns over rows observed in both.

    Returns None when fewer than min_overlap rows are co-observed or either
    restricted column is constant.
    """
    pm = m.present_mask
    return _pearson_arrays(
        m.values[:, col_a], m.values[:, col_b], pm[:, col_a], pm[:, col_b],
        min_overlap,
    )


def build_graph(m, threshold: float = 0.97, min_overlap: int = 3) -> SimilarityGraph:
    """Test every column pair; connect machines with |r| above threshold."""
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    values = m.values
    pm = m.present_mask
    edges = set()
    for i in range(m.n_cols):
        for j in range(i + 1, m.n_cols):
            r = _pearson_arrays(values[:, i], values[:, j], pm[:, i], pm[:, j],
                                min_overlap)
            if r is not None and abs(r) > threshold:
                edges.add((i, j))
    return SimilarityGraph(m.n_cols, frozenset(edges), threshold, min_overlap)


def find_cliques(g: SimilarityGraph) -> Grouping:
    """Greedy clique cover: seed one clique per vertex, richest first.

    From each seed the clique grows by the highest-degree candidate still
    adjacent to every member (ties to the lower vertex index); duplicates
    are collapsed. Every vertex ends up in at least one clique, possibly a
    singleton. Maximal cliques can be missed by design.
    """
    adj = g.adjacency()
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

    membership: dict[int, tuple[int, ...]] = {}
    for idx, cl in enumerate(cliques):
        for v in cl:
            membership[v] = membership.get(v, ()) + (idx,)
    return Grouping(tuple(cliques), membership)


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


def grouping_to_json(grouping: Grouping, col_keys, threshold: float,
                     min_overlap: int) -> dict:
    """JSON-ready view of a grouping with machine ids instead of indices."""
    return {
        "threshold": threshold,
        "min_overlap": min_overlap,
        "cliques": [[col_keys[v] for v in cl] for cl in grouping.cliques],
    }
