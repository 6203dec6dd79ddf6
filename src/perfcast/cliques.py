"""Machine grouping by timing correlation, and prediction inside groups.

Two machines whose observed time columns are strongly linearly related
(|Pearson r| above a threshold) get an edge in a similarity graph. Every
pair's r comes from one set of co-observation sums (`correlations`), and
the graph and the groups are boolean (machines x machines) matrices.
Cliques of that graph are groups inside which every pair of columns is
modeled as a scalar multiple of the other, so a missing time is recovered
by scaling a group mate's time. The clique search is a cheap greedy pass,
not an exact maximum-clique enumeration: it guarantees at least one
clique per vertex and runs in at most cubic time.

`clique_block` predicts every cell it is given in one call and returns
arrays: the values (NaN where a cell is uncovered), the reasons for the
uncovered cells, and which cells fell back to ridge. Every slope comes
from the pair sums of that call (`pair_sums`: three matmuls over the
zero-filled matrix); a cell whose own row observes the target takes that
row's terms back out, and sums a pair again directly where the removed
term is as large as what remains. Cells without a group estimate fall
back to one `ridge_block` call, or to the ridge arrays the caller already
has. `clique_predict`, `group_estimates` and `scaling_coefficient` are the
block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ridge import NoBasisError, RidgeConfig, ridge_block


# Most (cells x columns) entries that one pass of the estimates holds.
_SPAN = 2**11


class ColdRowError(ValueError):
    """The program has no observed time anywhere; per-cell prediction is
    impossible and the caller should fall back to machine ranking."""


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """adjacent[a, b]: |r| between machine columns a and b exceeds the
    threshold (False on the diagonal)."""

    adjacent: np.ndarray
    threshold: float
    min_overlap: int


@dataclass(frozen=True, eq=False)
class Grouping:
    """Cliques found in the similarity graph; a vertex can sit in several.
    mates[c, a]: columns c and a share a clique (a != c)."""

    cliques: tuple[tuple[int, ...], ...]
    mates: np.ndarray


def correlations(m, min_overlap: int = 3) -> np.ndarray:
    """r[a, b]: Pearson r between machine columns a and b over the rows
    observed in both; NaN where fewer than min_overlap rows are co-observed
    or either restricted column is constant.

    Every pair's sums come from four matmuls over the zero-filled columns,
    each shifted by its observed mean first: raw sums cancel on a column
    with a large offset. Where a pair's rows sit so far from a column's
    mean that the mean term is as large as what remains, that difference
    would lose digits, so the pair is summed again directly.
    """
    present = m.present_mask.astype(float)
    x = np.where(m.present_mask, m.values, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(m.present_mask, x - x.sum(axis=0) / present.sum(axis=0),
                     0.0)
        n = present.T @ present
        s = d.T @ present  # s[a, b]: column a's sum over the rows of b
        mean_term = s * s / n
        cov = d.T @ d - s * s.T / n
        var = (d * d).T @ present - mean_term
        redo = (n >= min_overlap) & (mean_term >= var)
        for a, b in zip(*np.nonzero(np.triu(redo | redo.T))):
            both = m.present_mask[:, a] & m.present_mask[:, b]
            da = d[both, a] - d[both, a].mean()
            db = d[both, b] - d[both, b].mean()
            cov[a, b] = cov[b, a] = da @ db
            var[a, b], var[b, a] = da @ da, db @ db
        r = cov / np.sqrt(var * var.T)
    r[(n < min_overlap) | ~(var > 0) | ~(var.T > 0)] = np.nan
    return r


def pearson(m, col_a: int, col_b: int, min_overlap: int = 3) -> float | None:
    """correlations(m, min_overlap)[col_a, col_b], None where undefined."""
    r = correlations(m, min_overlap)[col_a, col_b]
    return None if np.isnan(r) else float(r)


def build_graph(m, threshold: float = 0.97, min_overlap: int = 3) -> SimilarityGraph:
    """Connect machines with |r| above threshold."""
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if min_overlap < 2:
        raise ValueError(f"min_overlap must be at least 2, got {min_overlap}")
    adjacent = np.abs(correlations(m, min_overlap)) > threshold
    np.fill_diagonal(adjacent, False)
    return SimilarityGraph(adjacent, threshold, min_overlap)


def find_cliques(g: SimilarityGraph) -> Grouping:
    """Greedy clique cover: seed one clique per vertex, richest first.

    From each seed the clique grows by the highest-degree candidate still
    adjacent to every member (ties to the lower vertex index); duplicates
    are collapsed. Every vertex ends up in at least one clique, possibly a
    singleton. Maximal cliques can be missed by design.
    """
    adj = [set(np.flatnonzero(row).tolist()) for row in g.adjacent]
    order = np.argsort(-g.adjacent.sum(axis=1), kind="stable").tolist()
    rank = {v: i for i, v in enumerate(order)}
    cliques: dict[tuple[int, ...], None] = {}  # in order of discovery
    mates = np.zeros_like(g.adjacent)
    for v in order:
        members = [v]
        candidates = adj[v]
        while candidates:
            best = min(candidates, key=rank.__getitem__)
            members.append(best)
            candidates = candidates & adj[best]
        cliques.setdefault(tuple(sorted(members)), None)
        mates[np.ix_(members, members)] = True
    np.fill_diagonal(mates, False)
    return Grouping(tuple(cliques), mates)


class PairSums(NamedTuple):
    """Sums over the rows that observe both columns, for every ordered
    column pair (a, c): xy = sum of x_a * x_c, xx = sum of x_a ** 2, and
    count = the number of such rows. xy and count are symmetric."""

    xy: np.ndarray
    xx: np.ndarray
    count: np.ndarray


def pair_sums(m) -> PairSums:
    """Every column pair's sums from three matmuls over the zero-filled
    matrix."""
    present = m.present_mask.astype(float)
    x = np.where(m.present_mask, m.values, 0.0)
    return PairSums(x.T @ x, (x * x).T @ present, present.T @ present)


def scaling_coefficient(m, from_col: int, to_col: int,
                        exclude_row: int | None = None) -> float:
    """Least-squares slope through the origin mapping one column onto
    another, over their co-observed rows; the same slope that group
    estimates scale by."""
    rows = [-1 if exclude_row is None else exclude_row]
    slope, usable = _slopes(m, pair_sums(m), np.array(rows),
                            np.array([to_col]))
    if not usable[0, from_col]:
        raise ValueError(
            f"no co-observed rows between columns {from_col} and {to_col}"
        )
    return float(slope[0, from_col])


def _slopes(m, sums: PairSums, rows, cols):
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


def _estimates(m, grouping: Grouping, sums: PairSums, rows, cols):
    """est[i, a]: group mate a's time in row rows[i] scaled onto column
    cols[i], where valid[i, a]: a shares a clique with cols[i], has a
    value in the row and a co-observed row besides it (0 elsewhere)."""
    slope, usable = _slopes(m, sums, rows, cols)
    valid = grouping.mates[cols] & m.present_mask[rows] & usable
    return np.where(valid, m.values[rows] * slope, 0.0), valid


def group_estimates(m, grouping: Grouping, row: int, col: int) -> list[float]:
    """Per-mate estimates for a cell: mate's time in this row scaled onto
    the target machine. Mates without a value in the row, or without any
    co-observation with the target column, contribute nothing."""
    est, valid = _estimates(m, grouping, pair_sums(m), np.array([row]),
                            np.array([col]))
    return [float(e) for e in est[0, valid[0]]]


def clique_predict(m, grouping: Grouping, row: int, col: int,
                   ridge_cfg: RidgeConfig = RidgeConfig(),
                   fallback: bool = True) -> tuple[float, str]:
    """Predict a cell as the mean of its group-mate estimates.

    Returns (value, mechanism), the mechanism being "cliques" or "ridge".
    The target cell is treated as missing. Machines outside any real group
    (or with no usable mate in this row) fall back to the regression
    baseline; a row with no observations at all raises ColdRowError. With
    fallback False such a cell raises NoBasisError instead.
    """
    values, reasons, via_ridge = clique_block(m, grouping, [row], [col],
                                              ridge_cfg, fallback)
    if reasons:
        raise reasons[0]
    return float(values[0]), "ridge" if via_ridge[0] else "cliques"


def clique_block(m, grouping: Grouping, rows, cols,
                 ridge_cfg: RidgeConfig = RidgeConfig(), fallback: bool = True,
                 ridge=None):
    """clique_predict for each cell (rows[i], cols[i]) in one pass; returns
    (values, reasons, via_ridge) as ridge_block returns (values, reasons),
    via_ridge marking the cells that fell back to ridge. The pair sums of
    m are computed once per call, so a caller passes all its cells at
    once; the estimates run a bounded span of cells at a time.

    ridge, when given, is what ridge_block returns for the same cells,
    from a caller that has already solved them; otherwise ridge_block runs
    on the fallback cells only.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    sums = pair_sums(m)
    n_est = np.zeros(rows.size, dtype=int)
    values = np.zeros(rows.size)
    # As many cells at a time as keep the (cells x columns) work within
    # _SPAN entries.
    step = max(1, _SPAN // m.n_cols)
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        est, valid = _estimates(m, grouping, sums, rows[part], cols[part])
        n_est[part] = valid.sum(axis=1)
        values[part] = est.sum(axis=1) / np.maximum(n_est[part], 1)
    no_group = n_est == 0
    values[no_group] = np.nan
    others = m.present_mask[rows].sum(axis=1) - m.present_mask[rows, cols]
    via_ridge = no_group & (others > 0) & fallback
    reasons = {
        i: ColdRowError(f"cold row: {m.row_label(rows[i])} has no "
                        f"observations") if fallback else
        NoBasisError(f"no group estimate for cell ({m.row_label(rows[i])}, "
                     f"{m.col_keys[cols[i]]})")
        for i in np.flatnonzero(no_group & ~via_ridge).tolist()}
    lone = np.flatnonzero(via_ridge)
    if lone.size and ridge is None:
        values[lone], missed = ridge_block(m, rows[lone], cols[lone],
                                           ridge_cfg)
        reasons.update(zip(lone[list(missed)].tolist(), missed.values()))
    elif lone.size:
        values[lone] = ridge[0][lone]
        reasons.update((i, ridge[1][i]) for i in lone.tolist()
                       if i in ridge[1])
    return values, reasons, via_ridge


def grouping_to_json(grouping: Grouping, col_keys, threshold: float,
                     min_overlap: int) -> dict:
    """JSON-ready view of a grouping with machine ids instead of indices."""
    return {
        "threshold": threshold,
        "min_overlap": min_overlap,
        "cliques": [[col_keys[v] for v in cl] for cl in grouping.cliques],
    }
