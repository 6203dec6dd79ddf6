"""Experiment harness: relative-error scoring, ensemble averaging, the
three evaluation drivers (leave-one-out, masking sweep, outlier sweep) and
matrix completion.

Leave-one-out, the sweeps and completion predict through one core. Each
base algorithm is fit once by `_fit_predict` and predicts every cell in
one kernel call, which gives a column of arrays: the values, NaN where a
cell is uncovered, the reasons for the uncovered cells, and a per-cell
code for the mechanism. The ensemble is one masked mean over its members'
values. Completion raises the reason of the first uncovered cell.

Every driver takes one `RunConfig` and reads the settings it needs from
it. A report's `config` is the flat echo of that `RunConfig`
(`dataclasses.asdict`), without `algorithm` in a sweep, whose algorithms
are an argument; outlier reports also repeat their corruption settings
under `outliers`.

Drivers score each prediction by relative error
|predicted - target| / target. A report collects per-algorithm cell
records, their mean, and a tally of cells the algorithm could not cover.
Reports serialize to JSON (full) and CSV (one summary line per fraction
and algorithm) with no timestamps, so equal seeds give equal bytes.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field

import numpy as np

from .cliques import build_graph, clique_block, find_cliques
from .config import Algorithm, CliqueProtocol, RunConfig
from .factorization import (UnfactorableError, als_fit, als_refits,
                            predict_cells, predict_refits, svd_fit)
from .jsonfile import write_json
from .matrix import (MaskInfeasibleError, MaskSpec, PCMatrix, inject_outliers,
                     mask_random)
from .ridge import ridge_block


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


def _base_algorithms(algorithms, cfg: RunConfig) -> list[Algorithm]:
    needed = (set(map(Algorithm, cfg.ensemble))
              if Algorithm.ENSEMBLE in algorithms else set())
    needed.update(a for a in algorithms if a is not Algorithm.ENSEMBLE)
    return [a for a in Algorithm if a in needed]


def _fit_predict(alg: Algorithm, train: PCMatrix, rows, cols,
                 cfg: RunConfig, refit: bool, ridge):
    """Fit one base algorithm on train and predict every cell (rows[i],
    cols[i]) in one kernel call; returns (values, reasons, via_ridge,
    model), via_ridge marking the values ridge made for the clique
    algorithm.

    With refit, a factorization is fit once per cell without that cell.
    ridge is the ridge member's (values, reasons) for the same cells, or
    None; cliques, under cfg.protocol, reuse it. model is the FactorModel
    of the shared als/svd fit, else None; a shared fit that raises
    UnfactorableError leaves every cell uncovered.
    """
    protocol = CliqueProtocol(cfg.protocol)
    if alg is Algorithm.RIDGE or (alg is Algorithm.CLIQUES and
                                  protocol is CliqueProtocol.REGRESSION):
        got = ridge or ridge_block(train, rows, cols, cfg.ridge)
        return (*got, np.full(rows.size, alg is Algorithm.CLIQUES), None)

    if alg is Algorithm.CLIQUES:
        grouping = find_cliques(build_graph(train, cfg.clique_threshold,
                                            cfg.clique_min_overlap))
        fallback = protocol is CliqueProtocol.IN_GROUPS_PLUS_REGRESSION
        return (*clique_block(train, grouping, rows, cols, cfg.ridge,
                              fallback, ridge), None)

    nowhere = np.zeros(rows.size, dtype=bool)
    if refit:
        return (*predict_refits(_refits(alg, train, rows, cols, cfg), rows,
                                cols), nowhere, None)
    try:
        model = (als_fit(train, cfg.als) if alg is Algorithm.ALS
                 else svd_fit(train, cfg.svd_k, cfg.svd_max_outer))
    except UnfactorableError as exc:  # every cell is uncovered
        return (*predict_refits([exc] * rows.size, rows, cols), nowhere, None)
    return predict_cells(model, rows, cols), {}, nowhere, model


def _refits(alg: Algorithm, train: PCMatrix, rows, cols, cfg: RunConfig):
    """Fit a factorization once per cell on train without that cell and
    yield its FactorModel or the UnfactorableError the fit raised. The ALS
    fits run stacked; SVD refits one copy of train at a time."""
    if alg is Algorithm.ALS:
        yield from als_refits(train, list(zip(rows, cols)), cfg.als)
        return
    for r, c in zip(rows, cols):
        try:
            yield svd_fit(train.with_cell_missing(r, c), cfg.svd_k,
                          cfg.svd_max_outer)
        except UnfactorableError as exc:
            yield exc


def _ensemble(train: PCMatrix, rows, cols, members, columns):
    """The ensemble's column from its members' columns.

    A cell's value is the mean of the values its members produced, summed
    in members order as ensemble_predict sums them, and exactly their
    value where they all agree. Its code has bit j set where members[j]
    produced a value.
    """
    values = np.stack([columns[mem][0] for mem in members])
    covered = ~np.isnan(values)
    total = sum(np.where(covered, values, 0.0))
    first = values[covered.argmax(axis=0), np.arange(rows.size)]
    agree = ((values == first) | ~covered).all(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(agree, first, total / covered.sum(axis=0))
    code = 2 ** np.arange(len(members)) @ covered
    labels = []
    for subset in range(2 ** len(members)):
        names = [mem.value for j, mem in enumerate(members)
                 if subset >> j & 1]
        labels.append(("ensemble:" + "+".join(names), tuple(
            mem.value for mem in members if mem.value not in names)))
    reasons = {i: ValueError(
        f"no ensemble member could predict cell "
        f"({train.row_label(rows[i])}, {train.col_keys[cols[i]]})")
        for i in np.flatnonzero(code == 0).tolist()}
    return mean, reasons, code, labels


def _predict_cells(train: PCMatrix, rows, cols, algorithms, cfg: RunConfig):
    """Every requested algorithm's column for the cells (rows[i],
    cols[i]), and the als/svd models fit once on train.

    A column is (values, reasons, code, labels): values[i] is the cell's
    prediction, NaN where there is none, reasons maps each such i to the
    error that says why, and labels[code[i]] is a covered cell's shared
    (mechanism, excluded) pair. The cells are either all missing from
    train (sweeps, completion) or all observed (leave-one-out), where a
    factorization is refit for each cell. A clique member that fell back
    to ridge adds ridge's value to the ensemble.
    """
    # With no cells the shared fit is still made: complete_matrix returns
    # the model.
    refit = rows.size > 0 and bool(train.present_mask[rows, cols].all())
    columns, models = {}, {}
    for alg in _base_algorithms(algorithms, cfg):
        # ridge first: cliques may reuse its values and reasons
        ridge = columns.get(Algorithm.RIDGE)
        values, reasons, via_ridge, models[alg] = _fit_predict(
            alg, train, rows, cols, cfg, refit, ridge and ridge[:2])
        columns[alg] = (values, reasons, via_ridge,
                        ((alg.value, ()), ("ridge", ())))
    if Algorithm.ENSEMBLE in algorithms:
        columns[Algorithm.ENSEMBLE] = _ensemble(
            train, rows, cols, list(map(Algorithm, cfg.ensemble)), columns)
    return columns, models


def _score(train: PCMatrix, rows, cols, targets, algorithms,
           cfg: RunConfig):
    """Predict the cells (rows[i], cols[i]) from train and score each
    algorithm's covered cells against targets: its CellPrediction rows
    and its count of uncovered cells."""
    if (targets <= 0).any():
        raise ValueError(f"target time must be positive, got "
                         f"{float(targets[targets <= 0][0])}")
    columns, _ = _predict_cells(train, rows, cols, algorithms, cfg)
    scored, uncovered = {}, {}
    for alg in algorithms:
        values, _, code, labels = columns[alg]
        ok = ~np.isnan(values)
        errors = np.abs(values[ok] - targets[ok]) / targets[ok]
        scored[alg] = [
            CellPrediction(r, c, v, t, e, alg.value, labels[k][1])
            for r, c, v, t, e, k in zip(
                rows[ok].tolist(), cols[ok].tolist(), values[ok].tolist(),
                targets[ok].tolist(), errors.tolist(), code[ok].tolist())]
        uncovered[alg] = rows.size - len(scored[alg])
    return scored, uncovered


def _finish(algorithms, rows, uncovered) -> tuple[AlgorithmResult, ...]:
    out = []
    for alg in algorithms:
        cells = tuple(rows[alg])
        total = (sum(c.error for c in cells) / len(cells)) if cells else None
        out.append(AlgorithmResult(alg.value, cells, total, uncovered[alg]))
    return tuple(out)


def leave_one_out(m: PCMatrix, cfg: RunConfig = RunConfig(),
                  dataset: str = "") -> EvalReport:
    """Score every present cell by removing it alone and predicting it back
    with cfg.algorithm (cliques under cfg.protocol).

    Ridge and cliques are fit once on the full matrix: both treat the
    target cell as missing, and one cell out of thousands does not move
    the machine grouping. ALS and SVD train on every observed cell, so
    each cell is predicted by a fit on the matrix without it.
    """
    rows, cols = np.nonzero(m.present_mask)
    algorithms = [Algorithm(cfg.algorithm)]
    results = _finish(algorithms, *_score(
        m, rows, cols, m.values[rows, cols], algorithms, cfg))
    return EvalReport(dataset, 0.0, cfg.seed, 1, results, asdict(cfg),
                      note="leave-one-out")


def _child_seed(seed: int, tag: int, fraction_index: int, repeat: int) -> int:
    seq = np.random.SeedSequence((seed, tag, fraction_index, repeat))
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep(m, algorithms, cfg: RunConfig, dataset, corrupt=None,
           extra_config=None) -> list[EvalReport]:
    algorithms = [Algorithm(a) for a in algorithms]
    config = asdict(cfg)
    del config["algorithm"]  # a sweep's algorithms are an argument
    if extra_config:
        config.update(extra_config)

    reports = []
    for fi, fraction in enumerate(cfg.fractions):
        rows = {a: [] for a in algorithms}
        uncovered = {a: 0 for a in algorithms}
        n_cells_seen = 0
        note = None
        for rep in range(cfg.repeats):
            try:
                train, held = mask_random(
                    m, MaskSpec(fraction, _child_seed(cfg.seed, 0, fi, rep)))
            except MaskInfeasibleError as exc:
                note = f"infeasible fraction skipped: {exc}"
                rows = {a: [] for a in algorithms}
                uncovered = {a: 0 for a in algorithms}
                n_cells_seen = 0
                break
            if corrupt is not None:
                train = corrupt(train, _child_seed(cfg.seed, 1, fi, rep))
            n_cells_seen += len(held)
            cells = np.array(held).reshape(-1, 3)
            h_rows, h_cols = cells[:, :2].T.astype(np.intp)
            rep_rows, rep_uncov = _score(train, h_rows, h_cols, cells[:, 2],
                                         algorithms, cfg)
            for a in algorithms:
                rows[a].extend(rep_rows[a])
                uncovered[a] += rep_uncov[a]
        if note is None and n_cells_seen == 0:
            note = "no held-out cells"
        reports.append(EvalReport(
            dataset, float(fraction), cfg.seed, cfg.repeats,
            _finish(algorithms, rows, uncovered), dict(config), note))
    return reports


def masking_sweep(m: PCMatrix, algorithms, cfg: RunConfig = RunConfig(),
                  dataset: str = "") -> list[EvalReport]:
    """Mask each of cfg.fractions of the cells (cfg.repeats times), predict
    the held-out cells with every requested algorithm, and average the
    errors.

    All algorithms see the same mask at a given fraction and repeat, so
    curves are comparable point by point. Fully deterministic in cfg.seed.
    """
    return _sweep(m, algorithms, cfg, dataset)


def outlier_sweep(m: PCMatrix, algorithms, cfg: RunConfig = RunConfig(),
                  dataset: str = "") -> list[EvalReport]:
    """Masking sweep with corrupted training data and clean targets.

    Cells are held out first, then cfg.outlier_fraction of the REMAINING
    training cells is scaled by uniform draws from (cfg.outlier_lo,
    cfg.outlier_hi). Scoring uses the pre-corruption values, so the curves
    measure robustness to bad measurements. With outlier_fraction 0 the
    results match masking_sweep.
    """
    fraction, lo, hi = cfg.outlier_fraction, cfg.outlier_lo, cfg.outlier_hi

    def corrupt(train, inj_seed):
        return inject_outliers(train, fraction, lo, hi, inj_seed)

    extra = {"outliers": {"fraction": fraction, "lo": lo, "hi": hi}}
    return _sweep(m, algorithms, cfg, dataset, corrupt=corrupt,
                  extra_config=extra)


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


def complete_matrix(m: PCMatrix, cfg: RunConfig = RunConfig()):
    """Fill every missing cell with cfg.algorithm (cliques under
    cfg.protocol); returns (completed, fills, model).

    The fill log records which mechanism produced each value: the clique
    algorithm reports "ridge" for cells it reached only through fallback,
    and the ensemble lists the members that contributed. model is the
    fitted factorization for als/svd, else None; it is fit even when
    nothing is missing, since it also ranks machines for programs outside
    the matrix. The first cell in row-major order that cannot be predicted
    raises its reason.
    """
    algorithm = Algorithm(cfg.algorithm)
    rows, cols = np.nonzero(~m.present_mask)
    columns, models = _predict_cells(m, rows, cols, [algorithm], cfg)
    values, reasons, code, labels = columns[algorithm]
    if reasons:
        raise reasons[min(reasons)]
    vals = np.array(m.values)
    vals[rows, cols] = values
    fills = [FillRecord(r, c, *m.row_keys[r], m.col_keys[c], v, labels[k][0])
             for r, c, v, k in zip(rows.tolist(), cols.tolist(),
                                   values.tolist(), code.tolist())]
    return m.with_values(vals), fills, models.get(algorithm)


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
    write_json(payload, path)


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
