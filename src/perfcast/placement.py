"""Consumers of a completed matrix: pick a machine per program, or pack a
batch of programs onto machines with a simple list-scheduling heuristic.
A decision's rationale is a plain string, as its JSON line prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import PCMatrix


@dataclass(frozen=True)
class PlacementDecision:
    program: str
    args: str
    machine: str
    predicted: float | None  # unknown for cold rows placed by ranking
    rationale: str  # "min_predicted" or "cold_row_ranked_fastest"

    def to_json(self) -> dict:
        return {"program": self.program, "args": self.args,
                "machine": self.machine,
                "predicted_seconds": self.predicted,
                "rationale": self.rationale}


def _by_key(m: PCMatrix) -> np.ndarray:
    """Column indices in machine-id order (Python's string order), so that
    np.argmin's first minimum breaks a tie to the smaller machine id."""
    return np.array(sorted(range(m.n_cols), key=m.col_keys.__getitem__))


def _check_rows(m: PCMatrix, rows) -> None:
    """Refuse a row index that is repeated, negative or out of range."""
    seen = set()
    for r in rows:
        if not 0 <= r < m.n_rows:
            raise ValueError(f"row {r} is out of range for a matrix of "
                             f"{m.n_rows} rows")
        if r in seen:
            raise ValueError(f"row {m.row_label(r)} ({r}) is listed twice")
        seen.add(r)


def place_rows(
    completed: PCMatrix,
    rows: list[int],
    ranking: list[str] | None = None,
) -> list[PlacementDecision]:
    """Choose a machine for each of rows, in order, by greedy_place's rule.

    Every fully predicted row is decided by one argmin over the rows'
    times in machine-id order. The first row in order that cannot be
    placed raises, so no decision is returned unless all can be made; so
    does a row index listed twice, negative or out of range.
    """
    _check_rows(completed, rows)
    index = np.asarray(rows, dtype=np.intp)
    present = completed.present_mask[index]
    full = present.all(axis=1)
    fallback = ranking[0] if ranking else None
    for i in np.flatnonzero(~full).tolist():
        label = completed.row_label(rows[i])
        if present[i].any():
            raise ValueError(f"row {label} is only partially predicted; "
                             f"complete the matrix first")
        if fallback is None:
            raise ValueError(f"cold row {label}: no predictions and no "
                             f"machine ranking supplied")
        if fallback not in completed.col_keys:
            raise ValueError(f"ranked machine {fallback!r} is not a column "
                             f"of the matrix")
    by_key = _by_key(completed)
    placed = index[full]
    times = completed.values[np.ix_(placed, by_key)]  # machine-id order
    best = by_key[np.argmin(times, axis=1)]
    chosen = zip([completed.col_keys[b] for b in best.tolist()],
                 completed.values[placed, best].tolist())
    decisions = []
    for r, decided in zip(rows, full.tolist()):
        program, args = completed.row_keys[r]
        if decided:
            machine, predicted = next(chosen)
            decisions.append(PlacementDecision(program, args, machine,
                                               predicted, "min_predicted"))
        else:
            decisions.append(PlacementDecision(program, args, fallback, None,
                                               "cold_row_ranked_fastest"))
    return decisions


def greedy_place(
    completed: PCMatrix,
    row: int,
    ranking: list[str] | None = None,
) -> PlacementDecision:
    """Choose the machine with the smallest predicted time for one row.

    Ties go to the lexicographically smallest machine id. A row with no
    predictions at all (cold) falls back to the first machine of the
    supplied performance ranking; a partially filled row is rejected since
    the comparison would be incomplete, and so is a negative or
    out-of-range row index.
    """
    return place_rows(completed, [row], ranking)[0]


def schedule_batch(
    completed: PCMatrix,
    rows: list[int],
) -> tuple[dict[str, list[int]], float]:
    """Assign a batch of rows to machines, longest jobs first.

    Rows are processed in descending order of their best-case (minimum
    predicted) time; each goes to the machine where current load plus its
    predicted time is smallest, ties to the smaller machine id. Returns
    the per-machine row lists (in assignment order) and the makespan.
    Heuristic: the exact minimum-makespan problem is NP-hard. A row index
    listed twice, negative or out of range is refused.
    """
    _check_rows(completed, rows)
    index = np.asarray(rows, dtype=np.intp)
    full = completed.present_mask[index].all(axis=1)
    if not full.all():
        r = rows[int(full.argmin())]
        raise ValueError(f"row {completed.row_label(r)} is not fully "
                         f"predicted")
    assignment: dict[str, list[int]] = {c: [] for c in completed.col_keys}
    if not rows:
        return assignment, 0.0

    by_key = _by_key(completed)
    times = completed.values[np.ix_(index, by_key)]  # machine-id order
    loads = np.zeros(completed.n_cols)
    # stable, so rows of equal minimum keep their order in rows
    for i in np.argsort(-times.min(axis=1), kind="stable").tolist():
        k = np.argmin(loads + times[i])
        loads[k] += times[i, k]
        assignment[completed.col_keys[by_key[k]]].append(rows[i])
    return assignment, float(loads.max())
