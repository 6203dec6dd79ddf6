"""Experiment harness: relative-error scoring, ensemble averaging, the
three evaluation drivers (leave-one-out, masking sweep, outlier sweep) and
matrix completion.

Leave-one-out, the sweeps and completion predict through one core. Each
base algorithm is fit once by `_fit_predict` and predicts every cell in
one kernel call, which gives a column of arrays: the values, NaN where a
cell is uncovered, the reasons for the uncovered cells, and a per-cell
code for the mechanism. The ensemble is one masked mean over its members'
values, by default cliques' and als'. One rule fills what a column leaves
uncovered: ridge alone, the ensemble and cliques under
`in_groups_plus_regression` give those cells ridge's value (`_plus_ridge`),
which names a cell that took its column's mean `ridge:column_mean`, and a
cell ridge cannot predict either keeps ridge's reason. A program with no
time at all gets its column means from all three. Completion raises the
reason of the first uncovered cell.

Every driver takes one `RunConfig` and reads the settings it needs from
it; algorithms and protocols are compared and stored by their names. A
report holds only what varies by report: its fraction, a note when the
fraction was skipped or held nothing out, and per algorithm its scored
cells as columns, their mean and a tally of the cells it could not cover.
The settings are the caller's to record, once per file: the report JSON
states them in its `run_config`.

Leave-one-out scores one masking of the matrix and a sweep one per
repeat, all through `_score`, by relative error |predicted - target| /
target. Reports serialize to JSON (full) and CSV (one summary line per
fraction and algorithm) with no timestamps, so equal seeds give equal
bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .cliques import build_graph, clique_block, find_cliques
from .config import _ALGORITHMS, RunConfig, check_algorithms
from .factorization import (FactorModel, UnfactorableError, als_fit,
                            als_refits, predict_cells, svd_fit)
from .jsonfile import ABSENT, Table, write_json
from .matrix import (MaskInfeasibleError, MaskSpec, PCMatrix,
                     inject_outliers, mask_random)
from .ridge import ridge_block


@dataclass(frozen=True, eq=False)
class AlgorithmResult:
    """One algorithm's scored cells as columns, in scoring order: cell i is
    (rows[i], cols[i]), predicted[i] against target[i] with relative error
    error[i], and labels[mechanism[i]] is the (mechanism, ensemble members
    it lacked) pair that every cell of that code shares."""
    algorithm: str
    rows: np.ndarray
    cols: np.ndarray
    predicted: np.ndarray
    target: np.ndarray
    error: np.ndarray
    mechanism: np.ndarray
    labels: tuple[tuple[str, tuple[str, ...]], ...]
    n_uncovered: int

    @property
    def total_error(self) -> float | None:
        """Mean error, summed cell by cell in order; None with no cells."""
        errors = self.error.tolist()
        return sum(errors) / len(errors) if errors else None


@dataclass(frozen=True)
class EvalReport:
    fraction: float  # 0.0 for leave-one-out
    results: tuple[AlgorithmResult, ...]
    # why a sweep fraction holds no cells (infeasible, or none held out)
    note: str | None = None
    # (ALS fits that ran all max_iters iterations, ALS fits): the refits
    # of leave-one-out, a sweep's shared fits; not serialized
    capped_fits: tuple[int, int] = (0, 0)


def _fit_predict(alg: str, train: PCMatrix, rows, cols,
                 cfg: RunConfig, refit: bool):
    """Fit one base algorithm on train and predict every cell (rows[i],
    cols[i]) in one kernel call; returns (column, fit), the column as
    _predict_cells describes it. Its cells share the label (alg, ()),
    but ridge's column is all NaN here, with no label: _predict_cells
    fills it (_plus_ridge).

    With refit, ALS is fit once per cell without that cell, each refit
    started from the full matrix's fit (als_refits). fit is the
    FactorModel of the shared als/svd fit, each cell's iteration count for
    ALS refits (0 where uncovered), else None; a shared fit that raises
    UnfactorableError leaves every cell uncovered and is that error.
    """
    fit, reasons, code = None, {}, np.zeros(rows.size, np.intp)
    if alg == "ridge":
        return (np.full(rows.size, np.nan), reasons, code, ()), fit
    if alg == "cliques":
        grouping = find_cliques(build_graph(train, cfg.clique_threshold,
                                            cfg.clique_min_overlap))
        values, reasons = clique_block(train, grouping, rows, cols)
    elif refit:
        values, reasons, fit = als_refits(train, rows, cols, cfg)
    else:
        try:
            fit = (als_fit(train, cfg) if alg == "als"
                   else svd_fit(train, cfg.svd_k))
        except UnfactorableError as exc:  # every cell is uncovered
            fit = exc
            values = np.full(rows.size, np.nan)
            reasons = dict.fromkeys(range(rows.size), exc)
        else:
            values = predict_cells(fit, rows, cols)
    return (values, reasons, code, ((alg, ()),)), fit


def _ensemble(members, columns):
    """The ensemble's column from its members' columns, NaN where no
    member gave a value and with no reasons: _predict_cells fills it.

    A cell's value is the mean of its members' values, summed in members
    order, and exactly their value where they all agree. Its code has bit
    j set where members[j] gave a value.
    """
    values = np.stack([columns[mem][0] for mem in members])
    covered = ~np.isnan(values)
    total = sum(np.where(covered, values, 0.0))
    first = values[covered.argmax(axis=0), np.arange(values.shape[1])]
    agree = ((values == first) | ~covered).all(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(agree, first, total / covered.sum(axis=0))
    code = 2 ** np.arange(len(members)) @ covered
    labels = []
    for subset in range(2 ** len(members)):
        names = [mem for j, mem in enumerate(members) if subset >> j & 1]
        labels.append(("ensemble:" + "+".join(names), tuple(
            mem for mem in members if mem not in names)))
    return mean, {}, code, tuple(labels)


def _plus_ridge(train: PCMatrix, rows, cols, cfg: RunConfig, column,
                excluded):
    """column with its NaN cells given ridge's values, coded after its
    labels as ("ridge", excluded), or as ("ridge:column_mean", excluded)
    where a cell kept no feature and predicts its column's mean. The
    reasons are ridge's, for the cells it could not predict either. With
    no NaN cell, ridge is not called. The values and codes change in
    place."""
    values, _, code, labels = column
    lone = np.flatnonzero(np.isnan(values))
    reasons = {}
    if lone.size:
        values[lone], missed, mean = ridge_block(train, rows[lone],
                                                 cols[lone], cfg)
        code[lone] = len(labels) + mean
        reasons = dict(zip(lone[list(missed)].tolist(), missed.values()))
    return values, reasons, code, (*labels, ("ridge", excluded),
                                   ("ridge:column_mean", excluded))


def _predict_cells(train: PCMatrix, rows, cols, algorithms, cfg: RunConfig):
    """Every requested algorithm's column for the cells (rows[i],
    cols[i]), and each factorization's fit as _fit_predict returns it.

    A column is (values, reasons, code, labels): values[i] is the cell's
    prediction, NaN where there is none, reasons maps each such i to the
    error that says why, and labels[code[i]] is a covered cell's shared
    (mechanism, excluded) pair; the labels depend only on the algorithm
    and cfg. The cells are either all missing from train (sweeps,
    completion) or all observed (leave-one-out), where ALS is refit for
    each cell.

    Ridge, the ensemble and cliques under in_groups_plus_regression give
    the cells their column leaves uncovered ridge's value (_plus_ridge),
    the ensemble's with every member excluded; a cell ridge cannot
    predict either keeps ridge's reason. Ridge's column is filled before
    the ensemble stacks it, cliques' after: the ensemble averages only
    what each member made by its own mechanism.
    """
    # With no cells the shared fit is still made: complete_matrix returns
    # the model.
    refit = rows.size > 0 and bool(train.present_mask[rows, cols].all())
    members = list(cfg.ensemble) if "ensemble" in algorithms else []
    base = {*algorithms, *members} - {"ensemble"}
    columns, fits = {}, {}
    for alg in [a for a in _ALGORITHMS if a in base]:
        columns[alg], fits[alg] = _fit_predict(alg, train, rows, cols, cfg,
                                               refit)
    if "ridge" in columns:
        columns["ridge"] = _plus_ridge(train, rows, cols, cfg,
                                       columns["ridge"], ())
    if members:
        columns["ensemble"] = _plus_ridge(train, rows, cols, cfg,
                                          _ensemble(members, columns),
                                          tuple(members))
    if "cliques" in algorithms and cfg.protocol != "in_groups":
        columns["cliques"] = _plus_ridge(train, rows, cols, cfg,
                                         columns["cliques"], ())
    return columns, fits


def _score(maskings, algorithms, cfg: RunConfig):
    """Score every algorithm on the maskings (train, rows, cols, targets):
    predict each masking's cells (rows[i], cols[i]) from its train, and
    pool the covered cells of all maskings, in order, against targets.
    Returns the AlgorithmResults and the (capped, total) tally of the ALS
    fits, as EvalReport.capped_fits holds it."""
    empty = np.empty(0, np.intp)  # index columns stay integers
    scored = {alg: [(empty, empty, np.empty(0), np.empty(0), empty)]
              for alg in algorithms}
    labels = dict.fromkeys(algorithms, ())
    uncovered = dict.fromkeys(algorithms, 0)
    capped = total = 0
    for train, rows, cols, targets in maskings:
        columns, fits = _predict_cells(train, rows, cols, algorithms, cfg)
        iters = fits.get("als")
        if isinstance(iters, FactorModel):  # one shared fit
            iters = np.array([len(iters.train_rmse_history)])
        if isinstance(iters, np.ndarray):  # 0 where a refit raised
            capped += int((iters == cfg.als_max_iters).sum())
            total += int((iters > 0).sum())
        for alg in algorithms:
            values, _, code, labels[alg] = columns[alg]
            ok = ~np.isnan(values)
            scored[alg].append((rows[ok], cols[ok], values[ok], targets[ok],
                                code[ok]))
            uncovered[alg] += rows.size - int(ok.sum())
    results = []
    for alg in algorithms:
        rows, cols, predicted, target, mechanism = map(np.concatenate,
                                                       zip(*scored[alg]))
        results.append(AlgorithmResult(
            alg, rows, cols, predicted, target,
            np.abs(predicted - target) / target, mechanism, labels[alg],
            uncovered[alg]))
    return tuple(results), (capped, total)


def leave_one_out(m: PCMatrix, cfg: RunConfig = RunConfig()) -> EvalReport:
    """Score every present cell by leaving out that one cell and predicting
    it back with cfg.algorithm (cliques under cfg.protocol).

    Ridge and cliques are fit once on the full matrix: both treat the
    target cell as missing, and one cell out of thousands does not move
    the machine grouping. ALS trains on every observed cell, so each cell
    is predicted by a fit on the matrix without it.
    """
    rows, cols = np.nonzero(m.present_mask)
    results, capped = _score([(m, rows, cols, m.values[rows, cols])],
                             [cfg.algorithm], cfg)
    return EvalReport(0.0, results, capped_fits=capped)


def _child_seed(seed: int, tag: int, fraction_index: int, repeat: int) -> int:
    seq = np.random.SeedSequence((seed, tag, fraction_index, repeat))
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep(m, algorithms, cfg: RunConfig, corrupt=None) -> list[EvalReport]:
    algorithms = check_algorithms(algorithms)
    reports = []
    for fi, fraction in enumerate(cfg.fractions):
        maskings, note = [], None
        try:
            for rep in range(cfg.repeats):
                train, held = mask_random(
                    m, MaskSpec(fraction, _child_seed(cfg.seed, 0, fi, rep)))
                if corrupt is not None:
                    train = corrupt(train, _child_seed(cfg.seed, 1, fi, rep))
                rows, cols = held.T
                maskings.append((train, rows, cols, m.values[rows, cols]))
        except MaskInfeasibleError as exc:
            maskings, note = [], f"infeasible fraction skipped: {exc}"
        if note is None and not any(rows.size for _, rows, *_ in maskings):
            note = "no held-out cells"
        results, capped = _score(maskings, algorithms, cfg)
        reports.append(EvalReport(float(fraction), results, note, capped))
    return reports


def masking_sweep(m: PCMatrix, algorithms,
                  cfg: RunConfig = RunConfig()) -> list[EvalReport]:
    """Mask each of cfg.fractions of the cells (cfg.repeats times), predict
    the held-out cells with every requested algorithm, and average the
    errors.

    All algorithms see the same mask at a given fraction and repeat, so
    curves are comparable point by point. Fully deterministic in cfg.seed.
    """
    return _sweep(m, algorithms, cfg)


def outlier_sweep(m: PCMatrix, algorithms,
                  cfg: RunConfig = RunConfig()) -> list[EvalReport]:
    """Masking sweep with corrupted training data and clean targets.

    Cells are held out first, then cfg.outlier_fraction of the REMAINING
    training cells is scaled by uniform draws from (cfg.outlier_lo,
    cfg.outlier_hi). Scoring uses the pre-corruption values, so the curves
    measure robustness to bad measurements. With outlier_fraction 0 the
    results match masking_sweep.
    """
    fraction, lo, hi = cfg.outlier_fraction, cfg.outlier_lo, cfg.outlier_hi
    return _sweep(m, algorithms, cfg,
                  lambda train, seed: inject_outliers(train, fraction, lo, hi,
                                                      seed))


# ---------------------------------------------------------------------------
# Matrix completion (fill every missing cell)
# ---------------------------------------------------------------------------

def complete_matrix(m: PCMatrix, cfg: RunConfig = RunConfig()):
    """Fill every missing cell with cfg.algorithm (cliques under
    cfg.protocol); returns (completed, (rows, cols, (codes, names)),
    model), the filled cells (rows[i], cols[i]) in row-major order.

    names[codes[i]] names what produced cell i's value: the ensemble
    lists the members that contributed, and ridge, the clique algorithm
    and the ensemble report "ridge" (or "ridge:column_mean") for the
    cells only ridge reached. model is the ALS fit of als itself or of an
    ensemble's als member, else None; it is fit even when nothing is
    missing, since it also ranks machines for programs outside the
    matrix. Where that ALS fit could not be made, model is the
    UnfactorableError that says why. The first cell in row-major order
    that cannot be predicted raises its reason.
    """
    rows, cols = np.nonzero(~m.present_mask)
    columns, fits = _predict_cells(m, rows, cols, [cfg.algorithm], cfg)
    values, reasons, code, labels = columns[cfg.algorithm]
    if reasons:
        raise reasons[min(reasons)]
    vals = np.array(m.values)
    vals[rows, cols] = values
    return (m.with_values(vals), (rows, cols, (code, [n for n, _ in labels])),
            fits.get("als"))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _cells(res: AlgorithmResult) -> Table:
    """res's scored cells as a table of report records; a cell that lacks
    no ensemble member has no "excluded" key."""
    return Table({"row": res.rows, "col": res.cols,
                  "predicted": res.predicted, "target": res.target,
                  "error": res.error,
                  "excluded": (res.mechanism, [list(e) if e else ABSENT
                                               for _, e in res.labels])})


def _report_record(report: EvalReport, cells) -> dict:
    """The report's JSON record, each result's cells as cells(result)
    gives them."""
    results = [{"algorithm": res.algorithm, "total_error": res.total_error,
                "n_cells": res.rows.size, "n_uncovered": res.n_uncovered,
                "cells": cells(res)} for res in report.results]
    return {"fraction": report.fraction, "note": report.note,
            "results": results}


def report_to_json(report: EvalReport) -> dict:
    return _report_record(report, lambda res: _cells(res).records())


def write_reports_json(reports, path, run_config: dict) -> None:
    """Write the reports' JSON records (report_to_json) to path under
    "reports", beside the run's settings under "run_config". Each result's
    cells stay a `Table`: they go to the file from their columns, a slice
    of records at a time, and are never held as a list of dicts."""
    write_json({"reports": [_report_record(r, _cells) for r in reports],
                "run_config": run_config}, path)


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
                            res.rows.size, res.n_uncovered])
