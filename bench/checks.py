"""Output checks: re-read what one invocation wrote and verify it.

Files are read back through the program's own readers (read_matrix_csv,
json.load) and compared with the input and the benchmark's truth. A check
never raises: whatever goes wrong becomes a problem in the verdict, so the
run counts the invocation's cells as failed instead of aborting.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Verdict:
    uncovered: int = 0
    problems: list[str] = field(default_factory=list)
    mean_rel_error: float | None = None
    placement_regret: float | None = None

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def check(workload, outdir: Path, observed, truth) -> Verdict:
    verdict = Verdict()
    try:
        if workload.algorithms is None:
            _check_completion(verdict, outdir, observed, truth)
        else:
            _check_reports(verdict, workload, outdir, observed)
    except Exception as exc:  # any unreadable output fails the invocation
        verdict.problems.append(f"{type(exc).__name__}: {exc}")
    return verdict


def _check_completion(v: Verdict, d: Path, observed, truth) -> None:
    from perfcast import read_matrix_csv

    completed = read_matrix_csv(d / "completed.csv")
    v.expect(completed.row_keys == observed.row_keys
             and completed.col_keys == observed.col_keys,
             "completed matrix keys differ from the input's")
    present = observed.present_mask
    missing = ~present
    v.expect(np.array_equal(completed.values[present],
                            observed.values[present]),
             "observed cells changed")
    vals = completed.values
    filled = missing & np.isfinite(vals)
    v.uncovered = int((missing & ~filled).sum())
    v.expect(bool(np.all(vals[filled] > 0)), "a fill is not positive")

    with open(d / "fills.json") as fh:
        fills = json.load(fh)["fills"]
    row_index = {key: i for i, key in enumerate(observed.row_keys)}
    col_index = {key: j for j, key in enumerate(observed.col_keys)}
    seen = set()
    for f in fills:
        r = row_index[(f["program"], f["args"])]
        c = col_index[f["machine"]]
        v.expect(bool(missing[r, c]), f"fill of observed cell ({r}, {c})")
        v.expect((r, c) not in seen, f"cell ({r}, {c}) filled twice")
        seen.add((r, c))
        v.expect(f["predicted_seconds"] == vals[r, c],
                 f"fill log disagrees with the CSV at ({r}, {c})")
    v.expect(len(seen) == int(filled.sum()), "fill log misses filled cells")
    if filled.any():
        true = truth.values[filled]
        v.mean_rel_error = float(np.mean(np.abs(vals[filled] - true) / true))

    _check_place(v, d / "place.jsonl", completed, truth)
    _check_schedule(v, d / "schedule.jsonl", completed)


def _check_place(v: Verdict, path: Path, completed, truth) -> None:
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    v.expect(len(lines) == completed.n_rows, "place: not one line per row")
    col_index = {key: j for j, key in enumerate(completed.col_keys)}
    regrets = []
    for r, decision in enumerate(lines):
        times = completed.values[r]
        best = min(range(completed.n_cols),
                   key=lambda j: (times[j], completed.col_keys[j]))
        v.expect((decision["program"], decision["args"])
                 == completed.row_keys[r], f"place: row {r} out of order")
        v.expect(decision["machine"] == completed.col_keys[best]
                 and decision["predicted_seconds"] == times[best],
                 f"place: row {r} is not on its fastest predicted machine")
        chosen = truth.values[r, col_index[decision["machine"]]]
        regrets.append(chosen / truth.values[r].min() - 1.0)
    if regrets:
        v.placement_regret = float(np.mean(regrets))


def _check_schedule(v: Verdict, path: Path, completed) -> None:
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    makespan = lines[-1]["makespan"]
    row_index = {key: i for i, key in enumerate(completed.row_keys)}
    col_index = {key: j for j, key in enumerate(completed.col_keys)}
    loads = {machine: 0.0 for machine in completed.col_keys}
    rows = []
    for a in lines[:-1]:
        r = row_index[(a["program"], a["args"])]
        c = col_index[a["machine"]]
        v.expect(a["predicted_seconds"] == completed.values[r, c],
                 f"schedule: row {r} time disagrees with the matrix")
        loads[a["machine"]] += a["predicted_seconds"]
        rows.append(r)
    v.expect(sorted(rows) == list(range(completed.n_rows)),
             "schedule: rows not assigned exactly once")
    v.expect(math.isclose(makespan, max(loads.values()), rel_tol=1e-12),
             "schedule: makespan is not the largest machine load")


def _check_reports(v: Verdict, workload, d: Path, observed) -> None:
    with open(d / "report.json") as fh:
        reports = json.load(fh)["reports"]
    n_present = observed.count_present
    expected = workload.held_out(n_present)
    fractions = workload.fractions or (0.0,)
    v.expect(len(reports) == len(expected), "wrong number of reports")
    present = observed.present_mask
    errors = []
    summary = []
    for report, fraction, n_held in zip(reports, fractions, expected):
        v.expect(report["fraction"] == fraction,
                 f"report fraction {report['fraction']} != {fraction}")
        algorithms = [res["algorithm"] for res in report["results"]]
        v.expect(algorithms == list(workload.algorithms),
                 f"report algorithms {algorithms}")
        for res in report["results"]:
            cells = res["cells"]
            v.uncovered += res["n_uncovered"]
            v.expect(res["n_cells"] == len(cells), "n_cells != len(cells)")
            v.expect(res["n_cells"] + res["n_uncovered"] == n_held,
                     f"{res['algorithm']}: {res['n_cells']} cells + "
                     f"{res['n_uncovered']} uncovered != {n_held} held out")
            keys = {(c["row"], c["col"]) for c in cells}
            v.expect(len(keys) == len(cells), "a cell is scored twice")
            if workload.fractions is None and res["n_uncovered"] == 0:
                v.expect(len(keys) == n_present,
                         "leave-one-out missed observed cells")
            res_errors = []
            for c in cells:
                r, col, p, t = c["row"], c["col"], c["predicted"], c["target"]
                v.expect(bool(present[r, col])
                         and t == observed.values[r, col],
                         f"cell ({r}, {col}) target is not the input value")
                v.expect(math.isfinite(p) and p > 0,
                         f"cell ({r}, {col}) prediction {p} not positive")
                v.expect(math.isclose(c["error"], abs(p - t) / t,
                                      rel_tol=1e-9, abs_tol=1e-15),
                         f"cell ({r}, {col}) error is not |p - t| / t")
                res_errors.append(c["error"])
            if res_errors:
                v.expect(math.isclose(res["total_error"],
                                      sum(res_errors) / len(res_errors),
                                      rel_tol=1e-9),
                         f"{res['algorithm']}: total_error is not the mean")
            errors.extend(res_errors)
            total = ("" if res["total_error"] is None
                     else repr(res["total_error"]))
            summary.append([repr(report["fraction"]), res["algorithm"], total,
                            str(res["n_cells"]), str(res["n_uncovered"])])
    with open(d / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    v.expect(rows[1:] == summary, "report CSV disagrees with the JSON")
    if errors:
        v.mean_rel_error = sum(errors) / len(errors)
