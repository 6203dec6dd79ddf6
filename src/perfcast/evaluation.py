"""Experiment harness: relative-error scoring, ensemble averaging, and the
three evaluation drivers (leave-one-out, masking sweep, outlier sweep).

All drivers share one contract: hold cells out of an immutable matrix,
predict them from what remains, and score each prediction by relative
error |predicted - target| / target. A report collects per-algorithm cell
records, their mean, and a tally of cells the algorithm could not cover.
Reports serialize to JSON (full) and CSV (one summary line per fraction
and algorithm) with no timestamps, so equal seeds give equal bytes.
"""

from __future__ import annotations

import csv
import enum
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import factorization
from .cliques import (ColdRowError, build_graph, clique_predict, find_cliques,
                      group_estimates)
from .factorization import ALSConfig, UnfactorableError, als_fit, svd_fit
from .matrix import (HeldOutCell, MaskInfeasibleError, MaskSpec, PCMatrix,
                     inject_outliers, mask_random)
from .ridge import NoBasisError, RidgeConfig, ridge_predict


class Algorithm(str, enum.Enum):
    RIDGE = "ridge"
    CLIQUES = "cliques"
    ALS = "als"
    SVD = "svd"
    ENSEMBLE = "ensemble"


class CliqueProtocol(str, enum.Enum):
    """Scoring variants for the clique algorithm in leave-one-out runs.

    REGRESSION ignores groups entirely; IN_GROUPS scores only cells the
    group-scaling step can reach (everything else counts as uncovered);
    IN_GROUPS_PLUS_REGRESSION is the production behavior with fallback.
    """
    REGRESSION = "regression"
    IN_GROUPS = "in_groups"
    IN_GROUPS_PLUS_REGRESSION = "in_groups_plus_regression"


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


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    fraction: float
    seed: int
    repeats: int
    results: tuple[AlgorithmResult, ...]
    config: dict = field(default_factory=dict)
    note: str | None = None


@dataclass(frozen=True)
class EvalConfig:
    """Hyperparameters for every algorithm the harness can run."""
    ridge: RidgeConfig = RidgeConfig()
    als: ALSConfig = ALSConfig()
    clique_threshold: float = 0.97
    clique_min_overlap: int = 3
    svd_k: int = 1
    svd_max_outer: int = 50
    ensemble: tuple[Algorithm, ...] = (Algorithm.RIDGE, Algorithm.CLIQUES,
                                       Algorithm.ALS)
    threads: int = 1

    def __post_init__(self):
        if not self.ensemble:
            raise ValueError("ensemble member list must be non-empty")
        if Algorithm.ENSEMBLE in self.ensemble:
            raise ValueError("ensemble cannot contain itself")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def echo(self) -> dict:
        return {
            "ridge": {"lambda": self.ridge.lam,
                      "min_training_rows": self.ridge.min_training_rows},
            "als": {"k": self.als.k, "lambda": self.als.lam,
                    "max_iters": self.als.max_iters, "tol": self.als.tol,
                    "seed": self.als.seed},
            "cliques": {"threshold": self.clique_threshold,
                        "min_overlap": self.clique_min_overlap},
            "svd": {"k": self.svd_k, "max_outer": self.svd_max_outer},
            "ensemble": [a.value for a in self.ensemble],
            "threads": self.threads,
        }


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


def _map(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _base_algorithms(algorithms, cfg: EvalConfig) -> set[Algorithm]:
    needed = set()
    for alg in algorithms:
        if alg is Algorithm.ENSEMBLE:
            needed.update(cfg.ensemble)
        else:
            needed.add(alg)
    return needed


def _predictions_for(train: PCMatrix, cells, needed, cfg: EvalConfig,
                     protocol: CliqueProtocol) -> dict:
    """One prediction (or None) per held-out cell for each base algorithm.

    Models that train once per matrix (grouping, ALS, SVD) are built here
    and shared across cells; per-cell solvers fan out over threads.
    """
    preds: dict[Algorithm, list] = {}
    if Algorithm.RIDGE in needed:
        def run_ridge(cell):
            try:
                return ridge_predict(train, cell.row, cell.col, cfg.ridge)
            except NoBasisError:
                return None
        preds[Algorithm.RIDGE] = _map(run_ridge, cells, cfg.threads)
    if Algorithm.CLIQUES in needed:
        grouping = find_cliques(build_graph(train, cfg.clique_threshold,
                                            cfg.clique_min_overlap))
        def run_clique(cell):
            try:
                if protocol is CliqueProtocol.REGRESSION:
                    return ridge_predict(train, cell.row, cell.col, cfg.ridge)
                if protocol is CliqueProtocol.IN_GROUPS:
                    ests = group_estimates(train, grouping, cell.row, cell.col)
                    return sum(ests) / len(ests) if ests else None
                return clique_predict(train, grouping, cell.row, cell.col,
                                      cfg.ridge)
            except (ColdRowError, NoBasisError):
                return None
        preds[Algorithm.CLIQUES] = _map(run_clique, cells, cfg.threads)
    if Algorithm.ALS in needed:
        try:
            model = als_fit(train, cfg.als)
            preds[Algorithm.ALS] = [factorization.predict(model, c.row, c.col)
                                    for c in cells]
        except UnfactorableError:
            preds[Algorithm.ALS] = [None] * len(cells)
    if Algorithm.SVD in needed:
        try:
            model = svd_fit(train, cfg.svd_k, cfg.svd_max_outer)
            preds[Algorithm.SVD] = [factorization.predict(model, c.row, c.col)
                                    for c in cells]
        except UnfactorableError:
            preds[Algorithm.SVD] = [None] * len(cells)
    return preds


def _assemble(algorithms, cells, preds, cfg: EvalConfig):
    """Fold raw per-cell predictions into per-algorithm scored rows."""
    rows: dict[Algorithm, list[CellPrediction]] = {a: [] for a in algorithms}
    uncovered = {a: 0 for a in algorithms}
    for i, cell in enumerate(cells):
        for alg in algorithms:
            excluded: tuple[str, ...] = ()
            if alg is Algorithm.ENSEMBLE:
                avail = [preds[mem][i] for mem in cfg.ensemble
                         if preds[mem][i] is not None]
                excluded = tuple(mem.value for mem in cfg.ensemble
                                 if preds[mem][i] is None)
                value = ensemble_predict(avail) if avail else None
            else:
                value = preds[alg][i]
            if value is None:
                uncovered[alg] += 1
                continue
            rows[alg].append(CellPrediction(
                cell.row, cell.col, value, cell.true_time,
                prediction_error(value, cell.true_time), alg.value, excluded))
    return rows, uncovered


def _finish(algorithms, rows, uncovered) -> tuple[AlgorithmResult, ...]:
    out = []
    for alg in algorithms:
        cells = tuple(rows[alg])
        total = (sum(c.error for c in cells) / len(cells)) if cells else None
        out.append(AlgorithmResult(alg.value, cells, total, uncovered[alg]))
    return tuple(out)


def leave_one_out(
    m: PCMatrix,
    algorithm: Algorithm,
    cfg: EvalConfig = EvalConfig(),
    protocol: CliqueProtocol = CliqueProtocol.IN_GROUPS_PLUS_REGRESSION,
    dataset: str = "",
) -> EvalReport:
    """Score every present cell by removing it alone and predicting it back.

    The machine grouping is computed once on the full matrix (one cell out
    of thousands does not move the correlation structure); everything that
    consumes cell values sees only the matrix with the target cell removed.
    """
    mask = m.present_mask
    cells = [HeldOutCell(int(r), int(c), float(m.values[r, c]))
             for r, c in np.argwhere(mask)]
    algorithms = [algorithm]
    needed = _base_algorithms(algorithms, cfg)

    grouping = None
    if Algorithm.CLIQUES in needed:
        grouping = find_cliques(build_graph(m, cfg.clique_threshold,
                                            cfg.clique_min_overlap))

    def predict_one(cell):
        train = m.with_cell_missing(cell.row, cell.col)
        out = {}
        for alg in needed:
            try:
                if alg is Algorithm.RIDGE:
                    out[alg] = ridge_predict(train, cell.row, cell.col,
                                             cfg.ridge)
                elif alg is Algorithm.CLIQUES:
                    if protocol is CliqueProtocol.REGRESSION:
                        out[alg] = ridge_predict(train, cell.row, cell.col,
                                                 cfg.ridge)
                    elif protocol is CliqueProtocol.IN_GROUPS:
                        ests = group_estimates(train, grouping, cell.row,
                                               cell.col)
                        out[alg] = sum(ests) / len(ests) if ests else None
                    else:
                        out[alg] = clique_predict(train, grouping, cell.row,
                                                  cell.col, cfg.ridge)
                elif alg is Algorithm.ALS:
                    model = als_fit(train, cfg.als)
                    out[alg] = factorization.predict(model, cell.row, cell.col)
                elif alg is Algorithm.SVD:
                    model = svd_fit(train, cfg.svd_k, cfg.svd_max_outer)
                    out[alg] = factorization.predict(model, cell.row, cell.col)
            except (NoBasisError, ColdRowError, UnfactorableError):
                out[alg] = None
        return out

    per_cell = _map(predict_one, cells, cfg.threads)
    preds = {alg: [pc[alg] for pc in per_cell] for alg in needed}
    rows, uncovered = _assemble(algorithms, cells, preds, cfg)
    results = _finish(algorithms, rows, uncovered)
    config = cfg.echo()
    config["protocol"] = protocol.value
    return EvalReport(dataset, 0.0, 0, 1, results, config,
                      note="leave-one-out")


def _child_seed(seed: int, tag: int, fraction_index: int, repeat: int) -> int:
    seq = np.random.SeedSequence((seed, tag, fraction_index, repeat))
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep(m, fractions, algorithms, repeats, seed, cfg, dataset,
           corrupt=None, extra_config=None) -> list[EvalReport]:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    algorithms = list(algorithms)
    needed = _base_algorithms(algorithms, cfg)
    config = cfg.echo()
    if extra_config:
        config.update(extra_config)

    reports = []
    for fi, fraction in enumerate(fractions):
        rows = {a: [] for a in algorithms}
        uncovered = {a: 0 for a in algorithms}
        n_cells_seen = 0
        note = None
        for rep in range(repeats):
            try:
                train, held = mask_random(
                    m, MaskSpec(fraction, _child_seed(seed, 0, fi, rep)))
            except MaskInfeasibleError as exc:
                note = f"infeasible fraction skipped: {exc}"
                rows = {a: [] for a in algorithms}
                uncovered = {a: 0 for a in algorithms}
                n_cells_seen = 0
                break
            if corrupt is not None:
                train = corrupt(train, _child_seed(seed, 1, fi, rep))
            n_cells_seen += len(held)
            preds = _predictions_for(
                train, held, needed, cfg,
                CliqueProtocol.IN_GROUPS_PLUS_REGRESSION)
            rep_rows, rep_uncov = _assemble(algorithms, held, preds, cfg)
            for a in algorithms:
                rows[a].extend(rep_rows[a])
                uncovered[a] += rep_uncov[a]
        if note is None and n_cells_seen == 0:
            note = "no held-out cells"
        reports.append(EvalReport(dataset, float(fraction), seed, repeats,
                                  _finish(algorithms, rows, uncovered),
                                  dict(config), note))
    return reports


def masking_sweep(
    m: PCMatrix,
    fractions,
    algorithms,
    repeats: int = 5,
    seed: int = 0,
    cfg: EvalConfig = EvalConfig(),
    dataset: str = "",
) -> list[EvalReport]:
    """Mask each fraction of cells (repeats times), predict the held-out
    cells with every requested algorithm, and average the errors.

    All algorithms see the same mask at a given fraction and repeat, so
    curves are comparable point by point. Fully deterministic in the seed.
    """
    return _sweep(m, fractions, algorithms, repeats, seed, cfg, dataset)


def outlier_sweep(
    m: PCMatrix,
    outlier_fraction: float,
    interval: tuple[float, float],
    fractions,
    algorithms,
    repeats: int = 5,
    seed: int = 0,
    cfg: EvalConfig = EvalConfig(),
    dataset: str = "",
) -> list[EvalReport]:
    """Masking sweep with corrupted training data and clean targets.

    Cells are held out first, then a fraction of the REMAINING training
    cells is scaled by uniform draws from the interval. Scoring uses the
    pre-corruption values, so the curves measure robustness to bad
    measurements. With outlier_fraction 0 the results match masking_sweep.
    """
    lo, hi = interval

    def corrupt(train, inj_seed):
        return inject_outliers(train, outlier_fraction, lo, hi, inj_seed)

    extra = {"outliers": {"fraction": outlier_fraction, "lo": lo, "hi": hi}}
    return _sweep(m, fractions, algorithms, repeats, seed, cfg, dataset,
                  corrupt=corrupt, extra_config=extra)


# ---------------------------------------------------------------------------
# Matrix completion (fill every missing cell)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FillRecord:
    row: int
    col: int
    program: str
    args: str
    machine: str
    predicted: float
    algorithm: str  # mechanism that produced the value (fallbacks included)


def complete_matrix(
    m: PCMatrix,
    algorithm: Algorithm,
    cfg: EvalConfig = EvalConfig(),
):
    """Fill every missing cell; returns (completed, fills, model).

    The fill log records which mechanism produced each value: the clique
    algorithm reports "ridge" for cells it reached only through fallback,
    and the ensemble notes members that could not contribute. model is the
    fitted factorization when one was trained, else None.
    """
    missing = [(int(r), int(c)) for r, c in np.argwhere(~m.present_mask)]

    # als/svd fit even when nothing is missing: the model itself is a
    # deliverable (machine ranking for programs outside the matrix)
    model = None
    if algorithm is Algorithm.ALS:
        model = als_fit(m, cfg.als)
    elif algorithm is Algorithm.SVD:
        model = svd_fit(m, cfg.svd_k, cfg.svd_max_outer)

    if not missing:
        return m, [], model

    fills = []
    vals = np.array(m.values)

    def record(r, c, value, mechanism):
        vals[r, c] = value
        p, a = m.row_keys[r]
        fills.append(FillRecord(r, c, p, a, m.col_keys[c], value, mechanism))

    if algorithm in (Algorithm.ALS, Algorithm.SVD):
        for r, c in missing:
            record(r, c, factorization.predict(model, r, c), algorithm.value)
    elif algorithm is Algorithm.RIDGE:
        results = _map(lambda rc: ridge_predict(m, rc[0], rc[1], cfg.ridge),
                       missing, cfg.threads)
        for (r, c), value in zip(missing, results):
            record(r, c, value, "ridge")
    elif algorithm is Algorithm.CLIQUES:
        grouping = find_cliques(build_graph(m, cfg.clique_threshold,
                                            cfg.clique_min_overlap))

        def fill_one(rc):
            r, c = rc
            ests = group_estimates(m, grouping, r, c)
            if ests:
                return sum(ests) / len(ests), "cliques"
            if not m.present_mask[r].any():
                raise ColdRowError(
                    f"cold row: {m.row_label(r)} has no observations")
            return ridge_predict(m, r, c, cfg.ridge), "ridge"

        for (r, c), (value, mech) in zip(missing,
                                         _map(fill_one, missing, cfg.threads)):
            record(r, c, value, mech)
    elif algorithm is Algorithm.ENSEMBLE:
        cells = [HeldOutCell(r, c, 1.0) for r, c in missing]
        preds = _predictions_for(m, cells, set(cfg.ensemble), cfg,
                                 CliqueProtocol.IN_GROUPS_PLUS_REGRESSION)
        for i, (r, c) in enumerate(missing):
            avail = [preds[mem][i] for mem in cfg.ensemble
                     if preds[mem][i] is not None]
            if not avail:
                raise ValueError(
                    f"no ensemble member could predict cell "
                    f"({m.row_label(r)}, {m.col_keys[c]})")
            members = [mem.value for mem in cfg.ensemble
                       if preds[mem][i] is not None]
            record(r, c, ensemble_predict(avail),
                   "ensemble:" + "+".join(members))
    else:
        raise ValueError(f"unknown completion algorithm: {algorithm}")

    return m.with_values(vals), fills, model


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _cell_to_json(cell: CellPrediction) -> dict:
    out = {"row": cell.row, "col": cell.col, "predicted": cell.predicted,
           "target": cell.target, "error": cell.error,
           "algorithm": cell.algorithm}
    if cell.excluded:
        out["excluded"] = list(cell.excluded)
    return out


def report_to_json(report: EvalReport) -> dict:
    return {
        "dataset": report.dataset,
        "fraction": report.fraction,
        "seed": report.seed,
        "repeats": report.repeats,
        "note": report.note,
        "config": report.config,
        "results": [
            {"algorithm": res.algorithm,
             "total_error": res.total_error,
             "n_cells": len(res.cells),
             "n_uncovered": res.n_uncovered,
             "cells": [_cell_to_json(c) for c in res.cells]}
            for res in report.results
        ],
    }


def write_reports_json(reports, path, extra: dict | None = None) -> None:
    payload = {"reports": [report_to_json(r) for r in reports]}
    if extra:
        payload.update(extra)
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reports_csv(reports, path) -> None:
    """Summary CSV, one line per (fraction, algorithm), ready for plotting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fraction", "algorithm", "total_error", "n_cells",
                    "n_uncovered"])
        for report in reports:
            for res in report.results:
                total = "" if res.total_error is None else repr(res.total_error)
                w.writerow([repr(report.fraction), res.algorithm, total,
                            len(res.cells), res.n_uncovered])
