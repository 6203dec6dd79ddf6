"""Reference leave-one-out: every algorithm refit on a per-cell copy.

This is the earlier `leave_one_out` of perfcast.evaluation, kept verbatim
(serial instead of a thread pool) as the oracle for the driver that fits
ridge and cliques once on the full matrix. Every base algorithm here sees
`with_cell_missing`, and the `in_groups` mean is `sum / len`. ALS refits
each cell with the reference loop (`als_reference`), started from the
column factors of the reference fit on the full matrix. An
ensemble member counts only a value it made by its own mechanism: the
clique member's ridge fallback is left out under either protocol. A cell
that no member predicts takes ridge's value, with every member excluded,
unless ridge is a member. Ridge and
the clique estimates come from the per-cell references
(`ridge_reference`, `cliques_reference`), not from the block kernels that
the `leave_one_out` under test runs. So do the factorizations' cell
predictions, the ensemble's mean and the relative error: `predict`,
`ensemble_predict` and `prediction_error` are the earlier per-cell
functions of the package, kept here as the definitions that its column
kernels are checked against.

The scored cells are kept one record per cell, and `report_to_json`
renders them in the driver's report record, so comparing the two
renderings checks the driver's columns-to-JSON path as well.
"""

from dataclasses import dataclass

import numpy as np
from als_reference import reference_als_fit
from cliques_reference import clique_predict, group_estimates
from ridge_reference import ridge_predict

from perfcast.cliques import build_graph, find_cliques
from perfcast.config import RunConfig
from perfcast.evaluation import ColdRowError, EvalReport
from perfcast.factorization import UnfactorableError
from perfcast.matrix import PREDICTION_FLOOR
from perfcast.ridge import NoBasisError


def predict(model, row: int, col: int) -> float:
    """Inner product of the two embeddings, floored at a positive epsilon."""
    return max(float(model.row_factors[row] @ model.col_factors[:, col]),
               PREDICTION_FLOOR)


def prediction_error(predicted: float, target: float) -> float:
    """Relative error |predicted - target| / target; target must be > 0."""
    if target <= 0:
        raise ValueError(f"target time must be positive, got {target}")
    return abs(predicted - target) / target


def ensemble_predict(per_algorithm: list[float]) -> float:
    """Mean of the component predictions that were actually available.

    Identical inputs return that value exactly (no round trip through a
    sum that could round).
    """
    if not per_algorithm:
        raise ValueError("no ensemble component produced a prediction")
    first = per_algorithm[0]
    if all(v == first for v in per_algorithm):
        return first
    return sum(per_algorithm) / len(per_algorithm)


@dataclass(frozen=True)
class HeldOutCell:
    row: int
    col: int
    true_time: float


@dataclass(frozen=True)
class CellPrediction:
    row: int
    col: int
    predicted: float
    target: float
    error: float
    algorithm: str
    excluded: tuple[str, ...] = ()  # ensemble members that could not predict


@dataclass(frozen=True)
class AlgorithmResult:
    algorithm: str
    cells: tuple[CellPrediction, ...]
    total_error: float | None  # None when no cell was scored
    n_uncovered: int


def _base_algorithms(algorithms, ensemble) -> set[str]:
    needed = set()
    for alg in algorithms:
        if alg == "ensemble":
            needed.update(ensemble)
            needed.add("ridge")  # the fallback of an ensemble without it
        else:
            needed.add(alg)
    return needed


def _assemble(algorithms, cells, preds, ensemble):
    """Fold raw per-cell predictions into per-algorithm scored rows."""
    rows: dict[str, list[CellPrediction]] = {a: [] for a in algorithms}
    uncovered = {a: 0 for a in algorithms}
    for i, cell in enumerate(cells):
        for alg in algorithms:
            excluded: tuple[str, ...] = ()
            if alg == "ensemble":
                avail = [preds[mem][i] for mem in ensemble
                         if preds[mem][i] is not None]
                excluded = tuple(mem for mem in ensemble
                                 if preds[mem][i] is None)
                value = ensemble_predict(avail) if avail else None
                if value is None and "ridge" not in ensemble:
                    value, excluded = preds["ridge"][i], ensemble
            else:
                value = preds[alg][i]
            if value is None:
                uncovered[alg] += 1
                continue
            rows[alg].append(CellPrediction(
                cell.row, cell.col, value, cell.true_time,
                prediction_error(value, cell.true_time), alg, excluded))
    return rows, uncovered


def _finish(algorithms, rows, uncovered) -> tuple[AlgorithmResult, ...]:
    out = []
    for alg in algorithms:
        cells = tuple(rows[alg])
        total = (sum(c.error for c in cells) / len(cells)) if cells else None
        out.append(AlgorithmResult(alg, cells, total, uncovered[alg]))
    return tuple(out)


def leave_one_out(m, cfg: RunConfig = RunConfig()) -> EvalReport:
    """Score every present cell by removing it alone and predicting it back.

    The machine grouping is computed once on the full matrix (one cell out
    of thousands does not move the correlation structure); everything that
    consumes cell values sees only the matrix with the target cell removed.
    """
    mask = m.present_mask
    cells = [HeldOutCell(int(r), int(c), float(m.values[r, c]))
             for r, c in np.argwhere(mask)]
    algorithm, protocol = cfg.algorithm, cfg.protocol
    ensemble = tuple(cfg.ensemble)
    algorithms = [algorithm]
    needed = _base_algorithms(algorithms, ensemble)

    grouping = None
    if "cliques" in needed:
        grouping = find_cliques(build_graph(m, cfg.clique_threshold,
                                            cfg.clique_min_overlap))
    start = None  # where m is unfactorable, so is every per-cell copy
    if "als" in needed:
        try:
            start = reference_als_fit(m, cfg).col_factors
        except UnfactorableError:
            pass

    def predict_one(cell):
        train = m.with_cell_missing(cell.row, cell.col)
        out = {}
        for alg in needed:
            try:
                if alg == "ridge":
                    out[alg] = ridge_predict(train, cell.row, cell.col,
                                             cfg)
                elif alg == "cliques":
                    if protocol == "in_groups":
                        ests = group_estimates(train, grouping, cell.row,
                                               cell.col)
                        out[alg] = sum(ests) / len(ests) if ests else None
                    else:
                        value, mechanism = clique_predict(
                            train, grouping, cell.row, cell.col, cfg)
                        own = (algorithm != "ensemble"
                               or mechanism == alg)
                        out[alg] = value if own else None
                elif alg == "als":
                    model = reference_als_fit(train, cfg, start)
                    out[alg] = predict(model, cell.row, cell.col)
            except (NoBasisError, ColdRowError, UnfactorableError):
                out[alg] = None
        return out

    per_cell = [predict_one(cell) for cell in cells]
    preds = {alg: [pc[alg] for pc in per_cell] for alg in needed}
    rows, uncovered = _assemble(algorithms, cells, preds, ensemble)
    results = _finish(algorithms, rows, uncovered)
    return EvalReport(0.0, results)


def _cell_to_json(cell: CellPrediction) -> dict:
    out = {"row": cell.row, "col": cell.col, "predicted": cell.predicted,
           "target": cell.target, "error": cell.error}
    if cell.excluded:
        out["excluded"] = list(cell.excluded)
    return out


def report_to_json(report: EvalReport) -> dict:
    return {
        "fraction": report.fraction,
        "note": report.note,
        "results": [
            {"algorithm": res.algorithm,
             "total_error": res.total_error,
             "n_cells": len(res.cells),
             "n_uncovered": res.n_uncovered,
             "cells": [_cell_to_json(c) for c in res.cells]}
            for res in report.results
        ],
    }
