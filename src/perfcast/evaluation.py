"""Experiment harness: relative-error scoring, ensemble averaging, the
three evaluation drivers (leave-one-out, masking sweep, outlier sweep) and
matrix completion.

Every driver predicts through one core: each base algorithm is fit once on
a training matrix and then predicts a batch of cells, and the ensemble is
composed from the members' results. Leave-one-out uses the full matrix for
ridge and cliques, which treat the target cell as missing, and refits ALS
and SVD per cell without it (the ALS refits run stacked, many per solve).
A cell an algorithm cannot reach is uncovered with the reason its
predictor gave; completion raises the first such reason.

Every driver takes one `RunConfig` and reads the settings it needs from
it: the algorithm, the clique protocol (leave-one-out only), the sweep
fractions, repeats and seed, the outlier settings, and each algorithm's
hyperparameters, which are read once per fit. A report's `config` is the
flat echo of that `RunConfig` (`dataclasses.asdict`); outlier reports
also repeat their corruption settings under `outliers`.

Drivers score each prediction by relative error
|predicted - target| / target. A report collects per-algorithm cell
records, their mean, and a tally of cells the algorithm could not cover.
Reports serialize to JSON (full) and CSV (one summary line per fraction
and algorithm) with no timestamps, so equal seeds give equal bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import factorization
from .cliques import ColdRowError, build_graph, clique_predict, find_cliques
from .config import Algorithm, CliqueProtocol, RunConfig
from .factorization import UnfactorableError, als_fit, als_refits, svd_fit
from .matrix import (HeldOutCell, MaskInfeasibleError, MaskSpec, PCMatrix,
                     inject_outliers, mask_random)
from .ridge import NoBasisError, ridge_predict


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


_FACTORIZATIONS = (Algorithm.ALS, Algorithm.SVD)
_BLOCK = 512  # cells predicted per algorithm before the next one runs


def _fit_ridge(train: PCMatrix, cfg: RunConfig):
    ridge_cfg = cfg.ridge

    def predict(row, col):
        return Outcome(ridge_predict(train, row, col, ridge_cfg), "ridge")
    return predict, None


def _fit_cliques(train: PCMatrix, cfg: RunConfig, protocol: CliqueProtocol,
                 ridge=None):
    """ridge, when given, returns the ridge member's Outcome for a cell:
    the regression protocol and the fallback reuse it instead of solving
    the cell again."""
    if protocol is CliqueProtocol.REGRESSION:
        return _fit_ridge(train, cfg) if ridge is None else (ridge, None)
    grouping = find_cliques(build_graph(train, cfg.clique_threshold,
                                        cfg.clique_min_overlap))
    fallback = protocol is CliqueProtocol.IN_GROUPS_PLUS_REGRESSION
    ridge_cfg = cfg.ridge

    def predict(row, col):
        reuse = None if ridge is None else lambda: _value(ridge(row, col))
        return Outcome(*clique_predict(train, grouping, row, col, ridge_cfg,
                                       fallback, reuse))
    return predict, None


def _fit_factorization(alg: Algorithm, train: PCMatrix, cfg: RunConfig):
    model = (als_fit(train, cfg.als) if alg is Algorithm.ALS
             else svd_fit(train, cfg.svd_k, cfg.svd_max_outer))
    return _factor_predictor(alg, model), model


def _factor_predictor(alg: Algorithm, model):
    def predict(row, col):
        return Outcome(factorization.predict(model, row, col), alg.value)
    return predict


def _fit(alg: Algorithm, train: PCMatrix, cfg: RunConfig,
         protocol: CliqueProtocol, ridge=None):
    """Fit one base algorithm on train; returns (predict, model).

    predict(row, col) gives the cell's Outcome; ridge and cliques treat the
    cell as missing whatever train holds there, a factorization does not.
    model is the FactorModel for als/svd, else None. Fitting and predicting
    raise NoBasisError, ColdRowError or UnfactorableError where there is no
    basis for a prediction. The protocol, and the ridge member's outcomes
    when there is one, apply to the clique algorithm.
    """
    if alg is Algorithm.RIDGE:
        return _fit_ridge(train, cfg)
    if alg is Algorithm.CLIQUES:
        return _fit_cliques(train, cfg, protocol, ridge)
    return _fit_factorization(alg, train, cfg)


def _refits(alg: Algorithm, train: PCMatrix, cells, cfg: RunConfig):
    """Fit a factorization once per cell on train without that cell, in
    cell order: (predict, model), or the uncovered Outcome. The ALS fits
    run stacked; SVD refits one copy of train at a time."""
    if alg is Algorithm.ALS:
        for fit in als_refits(train, [(c.row, c.col) for c in cells],
                              cfg.als):
            yield (Outcome(None, reason=fit)
                   if isinstance(fit, UnfactorableError)
                   else (_factor_predictor(alg, fit), fit))
        return
    for c in cells:
        yield _attempt(_fit_factorization, alg,
                       train.with_cell_missing(c.row, c.col), cfg)


def _attempt(fn, *args):
    """fn(*args), or an uncovered Outcome when the error only says that
    there is no basis for a prediction."""
    try:
        return fn(*args)
    except (NoBasisError, ColdRowError, UnfactorableError) as exc:
        return Outcome(None, reason=exc)


def _value(outcome: Outcome) -> float:
    """The outcome's value, or its reason raised again."""
    if outcome.value is None:
        raise outcome.reason
    return outcome.value


def _ensemble_outcome(train: PCMatrix, cell, members) -> Outcome:
    """Compose the ensemble from its members' (name, Outcome) pairs."""
    got = [(name, o.value) for name, o in members if o.value is not None]
    excluded = tuple(name for name, o in members if o.value is None)
    if not got:
        return Outcome(None, excluded=excluded, reason=ValueError(
            f"no ensemble member could predict cell "
            f"({train.row_label(cell.row)}, {train.col_keys[cell.col]})"))
    return Outcome(ensemble_predict([v for _, v in got]),
                   "ensemble:" + "+".join(name for name, _ in got), excluded)


def _predict_cells(train: PCMatrix, cells, algorithms, cfg: RunConfig,
                   protocol=CliqueProtocol.IN_GROUPS_PLUS_REGRESSION):
    """Every requested algorithm's Outcome for each cell, in cell order,
    and the models fit once on train (the FactorModel for als/svd).

    Each base algorithm is fit once on train and predicts every cell (a
    factorization is also refit for each cell train observes). The
    ensemble is the mean of the values its members produced, fallbacks
    included: a clique member that fell back to ridge adds ridge's value,
    taken from the ridge member when the ensemble has one.
    """
    bases = _base_algorithms(algorithms, cfg)
    present = train.present_mask
    held_in = [bool(present[c.row, c.col]) for c in cells]
    # The ridge member's outcomes for the current block, by cell.
    ridge_done: dict[tuple[int, int], Outcome] = {}
    ridge = ((lambda row, col: ridge_done[row, col])
             if Algorithm.RIDGE in bases else None)
    # A factorization trains on every observed cell, so a cell that train
    # still observes (leave-one-out) gets its own fit without it. Ridge and
    # cliques treat the target cell as missing and fit once. The shared
    # fit is made even for no cells: complete_matrix returns the model.
    every_cell_held_in = bool(cells) and all(held_in)
    shared = {alg: _attempt(_fit, alg, train, cfg, protocol, ridge)
              for alg in bases
              if alg not in _FACTORIZATIONS or not every_cell_held_in}
    models = {alg: fit[1] for alg, fit in shared.items()
              if not isinstance(fit, Outcome)}

    def outcome(fitted, cell):
        return (fitted if isinstance(fitted, Outcome)
                else _attempt(fitted[0], cell.row, cell.col))

    # One algorithm at a time over a block of cells: going cell by cell
    # across algorithms measured about 20% slower on ensemble completion,
    # and whole columns would keep every member's outcome alive at once.
    outcomes: dict[Algorithm, list[Outcome]] = {a: [] for a in algorithms}
    members = [(mem, mem.value) for mem in map(Algorithm, cfg.ensemble)]
    for start in range(0, len(cells), _BLOCK):
        block = list(zip(cells[start:start + _BLOCK],
                         held_in[start:start + _BLOCK]))
        got = {}
        for alg in bases:  # ridge first: cliques may reuse its outcomes
            own = (_refits(alg, train, [c for c, o in block if o], cfg)
                   if alg in _FACTORIZATIONS else None)
            got[alg] = [outcome(next(own) if own is not None and held
                                else shared[alg], cell)
                        for cell, held in block]
            if alg is Algorithm.RIDGE:
                ridge_done = dict(zip(((c.row, c.col) for c, _ in block),
                                      got[alg]))
        if Algorithm.ENSEMBLE in outcomes:
            got[Algorithm.ENSEMBLE] = [
                _ensemble_outcome(train, cell, [(name, got[mem][i])
                                                for mem, name in members])
                for i, (cell, _) in enumerate(block)]
        for alg, column in outcomes.items():
            column.extend(got[alg])
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
    outcomes, _ = _predict_cells(m, cells, algorithms, cfg,
                                 CliqueProtocol(cfg.protocol))
    results = _finish(algorithms, *_assemble(algorithms, cells, outcomes))
    return EvalReport(dataset, 0.0, 0, 1, results, asdict(cfg),
                      note="leave-one-out")


def _child_seed(seed: int, tag: int, fraction_index: int, repeat: int) -> int:
    seq = np.random.SeedSequence((seed, tag, fraction_index, repeat))
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep(m, algorithms, cfg: RunConfig, dataset, corrupt=None,
           extra_config=None) -> list[EvalReport]:
    algorithms = [Algorithm(a) for a in algorithms]
    config = asdict(cfg)
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
    """Fill every missing cell with cfg.algorithm; returns (completed,
    fills, model).

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
