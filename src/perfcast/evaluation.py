"""Experiment harness: relative-error scoring, ensemble averaging, the
three evaluation drivers (leave-one-out, masking sweep, outlier sweep) and
matrix completion.

Every driver predicts through one core: each base algorithm is fit once
by `_fit_predict` and predicts every cell in one kernel call, and the
ensemble is composed from the members' results. Leave-one-out uses the
full matrix for ridge and cliques, which treat the target cell as
missing, and refits ALS and SVD per cell without it (the ALS refits run
stacked, many per solve). A cell an algorithm cannot reach is uncovered
with the reason its kernel gave; completion raises the first such reason.

Every driver takes one `RunConfig` and reads the settings it needs from
it: the algorithm (leave-one-out and completion), the clique protocol
(every driver, through `_fit_predict`), the sweep fractions, repeats and
seed, the outlier settings, and each algorithm's hyperparameters, which
are read once per fit. A report's `config` is the flat echo of that `RunConfig`
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
from typing import NamedTuple

import numpy as np

from . import factorization
from .cliques import build_graph, clique_block, find_cliques
from .config import Algorithm, CliqueProtocol, RunConfig
from .factorization import UnfactorableError, als_fit, als_refits, svd_fit
from .jsonfile import write_json
from .matrix import (HeldOutCell, MaskInfeasibleError, MaskSpec, PCMatrix,
                     inject_outliers, mask_random)
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


class Outcome(NamedTuple):
    """One algorithm's prediction for one cell."""
    value: float | None  # None when the algorithm could not cover the cell
    mechanism: str = ""  # what produced value, fallbacks included
    excluded: tuple[str, ...] = ()  # ensemble members that could not predict
    reason: ValueError | None = None  # why value is None


def _outcome(got, mechanism: str) -> Outcome:
    """The Outcome of one cell's kernel result: a value, a (value,
    mechanism) pair, or the error that says why there is no value."""
    if isinstance(got, ValueError):
        return Outcome(None, reason=got)
    if isinstance(got, tuple):
        return Outcome(*got)
    return Outcome(got, mechanism)


def _fit_predict(alg: Algorithm, train: PCMatrix, rows, cols,
                 cfg: RunConfig, refit: bool, ridge):
    """Fit one base algorithm on train and predict every cell (rows[i],
    cols[i]) in one kernel call; returns (got, mechanism, model).

    got holds each cell's kernel result: a value, a (value, mechanism)
    pair, or the error that says why there is none, and mechanism names
    what made a bare value. Ridge and cliques treat a cell as missing
    whatever train holds there. A factorization does not, so with refit
    (train observes every cell) it is fit once per cell without that cell.
    ridge is the ridge member's got for the same cells, or None; cliques,
    under cfg.protocol, reuse it. model is the FactorModel of the shared
    als/svd fit, else None. A shared fit that raises UnfactorableError
    leaves every cell uncovered with that reason; ridge and cliques give
    their reasons per cell.
    """
    protocol = CliqueProtocol(cfg.protocol)
    if alg is Algorithm.RIDGE or (alg is Algorithm.CLIQUES and
                                  protocol is CliqueProtocol.REGRESSION):
        return (ridge_block(train, rows, cols, cfg.ridge) if ridge is None
                else ridge), "ridge", None

    if alg is Algorithm.CLIQUES:
        grouping = find_cliques(build_graph(train, cfg.clique_threshold,
                                            cfg.clique_min_overlap))
        fallback = protocol is CliqueProtocol.IN_GROUPS_PLUS_REGRESSION
        return clique_block(train, grouping, rows, cols, cfg.ridge, fallback,
                            ridge), "", None

    if refit:
        shared, fits = None, _refits(alg, train, rows, cols, cfg)
    else:
        try:
            shared = (als_fit(train, cfg.als) if alg is Algorithm.ALS
                      else svd_fit(train, cfg.svd_k, cfg.svd_max_outer))
        except UnfactorableError as exc:
            shared = exc  # every cell is uncovered with this reason
        fits = [shared] * len(rows)
    got = [fit if isinstance(fit, ValueError)
           else factorization.predict(fit, r, c)
           for r, c, fit in zip(rows, cols, fits)]
    return got, alg.value, None if isinstance(shared, ValueError) else shared


def _refits(alg: Algorithm, train: PCMatrix, rows, cols, cfg: RunConfig):
    """Fit a factorization once per cell on train without that cell, in
    cell order, and yield its FactorModel or the UnfactorableError the fit
    raised. The ALS fits run stacked; SVD refits one copy of train at a
    time."""
    if alg is Algorithm.ALS:
        yield from als_refits(train, list(zip(rows, cols)), cfg.als)
        return
    for r, c in zip(rows, cols):
        try:
            yield svd_fit(train.with_cell_missing(r, c), cfg.svd_k,
                          cfg.svd_max_outer)
        except UnfactorableError as exc:
            yield exc


def _ensemble_outcome(train: PCMatrix, cell, members,
                      mechanisms: dict) -> Outcome:
    """Compose the ensemble from its members' (name, Outcome) pairs.

    mechanisms maps the names of the members that contributed to their
    "ensemble:a+b" string, so that cells share one copy of each.
    """
    got = [(name, o.value) for name, o in members if o.value is not None]
    excluded = tuple(name for name, o in members if o.value is None)
    if not got:
        return Outcome(None, excluded=excluded, reason=ValueError(
            f"no ensemble member could predict cell "
            f"({train.row_label(cell.row)}, {train.col_keys[cell.col]})"))
    names = tuple(name for name, _ in got)
    mechanism = mechanisms.get(names)
    if mechanism is None:
        mechanism = mechanisms[names] = "ensemble:" + "+".join(names)
    return Outcome(ensemble_predict([v for _, v in got]), mechanism,
                   excluded)


def _predict_cells(train: PCMatrix, cells, algorithms, cfg: RunConfig):
    """Every requested algorithm's Outcome for each cell, in cell order,
    and the models fit once on train (the FactorModel for als/svd).

    Each base algorithm is fit once on train, with the clique algorithm
    under cfg.protocol, and predicts all the cells in one kernel call;
    the kernels bound their own memory. The cells are either all missing
    from train (sweeps, completion) or all observed (leave-one-out), where
    a factorization is refit for each cell. The ensemble is the mean of
    the values its members produced, fallbacks included: a clique member
    that fell back to ridge adds ridge's value, taken from the ridge
    member when the ensemble has one.
    """
    rows, cols = [c.row for c in cells], [c.col for c in cells]
    # A factorization trains on every observed cell, so a cell train still
    # observes (leave-one-out) gets its own fit without it. With no cells
    # the shared fit is still made: complete_matrix returns the model.
    refit = bool(cells) and bool(train.present_mask[rows, cols].all())
    got, mechanism, models = {}, {}, {}
    for alg in _base_algorithms(algorithms, cfg):
        # ridge first: cliques may reuse its results
        got[alg], mechanism[alg], models[alg] = _fit_predict(
            alg, train, rows, cols, cfg, refit, got.get(Algorithm.RIDGE))

    # Members keep their kernels' results; Outcomes are made only for the
    # requested algorithms. An Outcome column for every member measured
    # about 5% more peak memory on ensemble completion.
    outcomes = {alg: [_outcome(g, mechanism[alg]) for g in got[alg]]
                for alg in algorithms if alg is not Algorithm.ENSEMBLE}
    if Algorithm.ENSEMBLE in algorithms:
        members, mechanisms = list(map(Algorithm, cfg.ensemble)), {}
        outcomes[Algorithm.ENSEMBLE] = [
            _ensemble_outcome(train, cell, [
                (mem.value, _outcome(got[mem][i], mechanism[mem]))
                for mem in members], mechanisms)
            for i, cell in enumerate(cells)]
    return outcomes, models


def _assemble(algorithms, cells, outcomes):
    """Fold per-cell outcomes into per-algorithm scored rows."""
    rows: dict[Algorithm, list[CellPrediction]] = {}
    uncovered = {}
    for alg in algorithms:
        rows[alg] = [
            CellPrediction(cell.row, cell.col, o.value, cell.true_time,
                           prediction_error(o.value, cell.true_time),
                           alg.value, o.excluded)
            for cell, o in zip(cells, outcomes[alg]) if o.value is not None]
        uncovered[alg] = len(cells) - len(rows[alg])
    return rows, uncovered


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
    cells = [HeldOutCell(int(r), int(c), float(m.values[r, c]))
             for r, c in np.argwhere(m.present_mask)]
    algorithms = [Algorithm(cfg.algorithm)]
    outcomes, _ = _predict_cells(m, cells, algorithms, cfg)
    results = _finish(algorithms, *_assemble(algorithms, cells, outcomes))
    return EvalReport(dataset, 0.0, cfg.seed, 1, results, asdict(cfg),
                      note="leave-one-out")


def _child_seed(seed: int, tag: int, fraction_index: int, repeat: int) -> int:
    seq = np.random.SeedSequence((seed, tag, fraction_index, repeat))
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep_echo(cfg: RunConfig) -> dict:
    """A sweep's settings echo: the RunConfig without `algorithm`, which
    a sweep does not read (its algorithms are an argument)."""
    config = asdict(cfg)
    del config["algorithm"]
    return config


def _sweep(m, algorithms, cfg: RunConfig, dataset, corrupt=None,
           extra_config=None) -> list[EvalReport]:
    algorithms = [Algorithm(a) for a in algorithms]
    config = _sweep_echo(cfg)
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
            outcomes, _ = _predict_cells(train, held, algorithms, cfg)
            rep_rows, rep_uncov = _assemble(algorithms, held, outcomes)
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
    cells = [HeldOutCell(int(r), int(c), np.nan)
             for r, c in np.argwhere(~m.present_mask)]
    outcomes, models = _predict_cells(m, cells, [algorithm], cfg)
    vals = np.array(m.values)
    fills = []
    for cell, outcome in zip(cells, outcomes[algorithm]):
        if outcome.value is None:
            raise outcome.reason
        vals[cell.row, cell.col] = outcome.value
        p, a = m.row_keys[cell.row]
        fills.append(FillRecord(cell.row, cell.col, p, a,
                                m.col_keys[cell.col], outcome.value,
                                outcome.mechanism))
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
