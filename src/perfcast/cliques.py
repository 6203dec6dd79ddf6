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
arrays, as `ridge_block` does: the values (NaN where no group mate has an
estimate) and the reasons for the uncovered cells. It computes only the
(cell, mate) pairs whose mate the cell's row observes. Every slope comes
from the pair sums of that call (`pair_sums`: three matmuls over the
zero-filled matrix), less the cell's own row where it observes both
columns, summed again directly where that term is as large as what
remains. Group scaling is all this module does: under
`in_groups_plus_regression` the caller (`evaluation._predict_cells`)
gives ridge's values to the cells it leaves uncovered. `clique_predict`
and `group_estimates` are the block of one, kept because the benchmark's
tracer (`bench/spans.py`) wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ridge import NoBasisError


# Most (cells x columns) entries in one pass's candidate mask and grid.
_SPAN = 2**14


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


def build_graph(m, threshold: float = 0.97, min_overlap: int = 3) -> np.ndarray:
    """The similarity graph as its adjacency matrix: adjacent[a, b] where
    |r| between machine columns a and b exceeds threshold (False on the
    diagonal)."""
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if min_overlap < 2:
        raise ValueError(f"min_overlap must be at least 2, got {min_overlap}")
    adjacent = np.abs(correlations(m, min_overlap)) > threshold
    np.fill_diagonal(adjacent, False)
    return adjacent


def find_cliques(adjacent: np.ndarray) -> Grouping:
    """Greedy clique cover: seed one clique per vertex, richest first.

    From each seed the clique grows by the highest-degree candidate still
    adjacent to every member (ties to the lower vertex index); duplicates
    are collapsed. Every vertex ends up in at least one clique, possibly a
    singleton. Maximal cliques can be missed by design.
    """
    adj = [set(np.flatnonzero(row).tolist()) for row in adjacent]
    order = np.argsort(-adjacent.sum(axis=1), kind="stable").tolist()
    rank = {v: i for i, v in enumerate(order)}
    cliques: dict[tuple[int, ...], None] = {}  # in order of discovery
    mates = np.zeros_like(adjacent)
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


def _slopes(m, sums: PairSums, rows, cols, pairs):
    """(x, slope, usable) for each pair k of a cell i and a column a that
    row rows[i] observes, pairs[k] = i * n_cols + a: x[k] is column a's
    time in the row, slope[k] the least-squares slope through the origin
    from column a onto column cols[i] over the other rows that observe
    both, and usable[k] where there is such a row. A pair whose left-out
    term is as large as what remains of its sum is summed again directly.
    Index arrays are dropped once used: a pass holds few arrays of pairs."""
    mask, values, n_cols = m.present_mask, m.values, m.n_cols
    target = rows * n_cols + cols
    i = pairs // n_cols
    seen = mask.take(target)
    y, seen = np.where(seen, values.take(target), 0.0)[i], seen[i]
    start = np.arange(rows.size) * n_cols  # where cell i's pairs start
    x = values.take(pairs + (rows * n_cols - start)[i])
    at = pairs + (cols * n_cols - start)[i]  # column pair (cols[i], a)
    del i
    usable = sums.count.take(at) > seen
    xy, xx = sums.xy.take(at), sums.xx.T.take(at)
    del at
    y *= x  # the left-out row's terms
    xy -= y
    x_x = np.where(seen, x * x, 0.0)
    xx -= x_x
    for k in np.flatnonzero(usable & seen & ((x_x >= xx) | (y >= xy))):
        cell, a = divmod(pairs[k], n_cols)
        both = mask[:, a] & mask[:, cols[cell]]
        both[rows[cell]] = False
        xa = values[both, a]
        xy[k], xx[k] = xa @ values[both, cols[cell]], xa @ xa
    with np.errstate(divide="ignore", invalid="ignore"):
        return x, np.divide(xy, xx, out=xy), usable


def group_estimates(m, grouping: Grouping, row: int, col: int) -> list[float]:
    """Per-mate estimates for a cell: mate's time in this row scaled onto
    the target machine. Mates without a value in the row, or without any
    co-observation with the target column, contribute nothing."""
    pairs = np.flatnonzero(grouping.mates[col] & m.present_mask[row])
    x, slope, usable = _slopes(m, pair_sums(m), np.array([row]),
                               np.array([col]), pairs)
    return (x * slope)[usable].tolist()


def clique_predict(m, grouping: Grouping, row: int, col: int) -> float:
    """Predict a cell as the mean of its group-mate estimates, the target
    cell treated as missing; a cell with no estimate (its machine outside
    any real group, or no usable mate in this row) raises NoBasisError."""
    values, reasons = clique_block(m, grouping, [row], [col])
    if reasons:
        raise reasons[0]
    return float(values[0])


def clique_block(m, grouping: Grouping, rows, cols):
    """clique_predict for each cell (rows[i], cols[i]) in one pass; returns
    (values, reasons) as ridge_block does. The pair sums of m are computed
    once per call, so a caller passes all its cells at once; the estimates
    run _SPAN // n_cols cells at a time."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    sums = pair_sums(m)
    values = np.zeros(rows.size)
    covered = np.zeros(rows.size, dtype=bool)
    step = max(1, _SPAN // m.n_cols)
    for start in range(0, rows.size, step):
        r, c = rows[start:start + step], cols[start:start + step]
        pairs = np.flatnonzero(grouping.mates[c] & m.present_mask[r])
        x, slope, usable = _slopes(m, sums, r, c, pairs)
        pairs = pairs[usable]
        # each estimate at its mate's column: a row sum's order is positional
        grid = np.zeros((r.size, m.n_cols))
        grid.put(pairs, (x * slope)[usable])
        n = np.bincount(pairs // m.n_cols, minlength=r.size)
        values[start:start + step] = grid.sum(axis=1) / np.maximum(n, 1)
        covered[start:start + step] = n > 0
        del pairs, x, slope, grid  # before the next span allocates its own
    values[~covered] = np.nan
    reasons = {i: NoBasisError(f"no group estimate for cell "
                               f"({m.row_label(rows[i])}, "
                               f"{m.col_keys[cols[i]]})")
               for i in np.flatnonzero(~covered).tolist()}
    return values, reasons
