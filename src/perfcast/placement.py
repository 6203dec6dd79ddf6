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


def greedy_place(
    completed: PCMatrix,
    row: int,
    ranking: list[str] | None = None,
) -> PlacementDecision:
    """Choose the machine with the smallest predicted time for one row.

    Ties go to the lexicographically smallest machine id. A row with no
    predictions at all (cold) falls back to the first machine of the
    supplied performance ranking; a partially filled row is rejected since
    the comparison would be incomplete.
    """
    times = completed.values[row]
    present = completed.present_mask[row]
    program, args = completed.row_keys[row]
    if not present.any():
        if not ranking:
            raise ValueError(
                f"cold row {completed.row_label(row)}: no predictions and "
                f"no machine ranking supplied")
        machine = ranking[0]
        if machine not in completed.col_keys:
            raise ValueError(f"ranked machine {machine!r} is not a column "
                             f"of the matrix")
        return PlacementDecision(program, args, machine, None,
                                 "cold_row_ranked_fastest")
    if not present.all():
        raise ValueError(f"row {completed.row_label(row)} is only partially "
                         f"predicted; complete the matrix first")
    by_key = _by_key(completed)
    best = by_key[np.argmin(times[by_key])]
    return PlacementDecision(program, args, completed.col_keys[best],
                             float(times[best]), "min_predicted")


def schedule_batch(
    completed: PCMatrix,
    rows: list[int],
) -> tuple[dict[str, list[int]], float]:
    """Assign a batch of rows to machines, longest jobs first.

    Rows are processed in descending order of their best-case (minimum
    predicted) time; each goes to the machine where current load plus its
    predicted time is smallest, ties to the smaller machine id. Returns
    the per-machine row lists (in assignment order) and the makespan.
    Heuristic: the exact minimum-makespan problem is NP-hard.
    """
    for r in rows:
        if not completed.present_mask[r].all():
            raise ValueError(f"row {completed.row_label(r)} is not fully "
                             f"predicted")
    assignment: dict[str, list[int]] = {c: [] for c in completed.col_keys}
    if not rows:
        return assignment, 0.0

    by_key = _by_key(completed)
    times = completed.values[:, by_key]  # columns in machine-id order
    order = sorted(rows, key=lambda r: -float(np.min(times[r])))
    loads = np.zeros(completed.n_cols)
    for r in order:
        k = np.argmin(loads + times[r])
        loads[k] += times[r, k]
        assignment[completed.col_keys[by_key[k]]].append(r)
    return assignment, float(loads.max())
