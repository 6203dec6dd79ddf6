"""Acceptance gate: one test per headline guarantee of the package.

Every test prints a single `criterion N [PASS|FAIL] <name>` line; run
pytest with -s to see the lines for passing tests too. Criteria 4 and 5
need a real timing-matrix snapshot: point PERFCAST_DATASET_CSV at a matrix
CSV to enable them. Without it they report [WAIVED] and skip; the planted
and proportional constructions (criteria 2 and 3) exercise the same
mechanisms with known ground truth.
"""

import hashlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import ensemble_cells, planted_rank1, predict_all
from loo_reference import prediction_error

from perfcast.cli import main as cli_main
from perfcast.cliques import build_graph, correlations, find_cliques
from perfcast.config import RunConfig
from perfcast.evaluation import leave_one_out, masking_sweep
from perfcast.factorization import FactorModel, als_fit, predict
from perfcast.matrix import (MaskSpec, PCMatrix, mask_random,
                             read_matrix_csv, write_matrix_csv)
from perfcast.placement import greedy_place, schedule_batch

DATASET_ENV = "PERFCAST_DATASET_CSV"


def verdict(n: int, name: str, ok: bool) -> bool:
    print(f"criterion {n} [{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def _mat(vals) -> PCMatrix:
    vals = np.asarray(vals, dtype=float)
    rows = tuple((f"p{i}", f"a{i}") for i in range(vals.shape[0]))
    cols = tuple(f"C{j}" for j in range(vals.shape[1]))
    return PCMatrix(rows, cols, vals)


def _load_dataset(n: int, name: str) -> PCMatrix:
    path = os.environ.get(DATASET_ENV)
    if not path:
        print(f"criterion {n} [WAIVED] {name}: set {DATASET_ENV} to a "
              f"timing matrix CSV to run this check; criteria 2 and 3 "
              f"cover the same mechanisms on constructed data")
        pytest.skip(f"{DATASET_ENV} not set")
    return read_matrix_csv(path)


def test_c1_relative_error_definition():
    t0 = time.perf_counter()
    exact = (prediction_error(110.0, 100.0) == 0.10
             and prediction_error(40.0, 100.0) == 0.60
             and prediction_error(123.456, 123.456) == 0.0)
    elapsed = time.perf_counter() - t0
    # every cell the package scores carries that error, bit for bit
    m, _, _ = planted_rank1(6, 4, seed=1)
    res = leave_one_out(m, RunConfig(algorithm="ridge")).results[0]
    scored = [prediction_error(p, t) for p, t in zip(res.predicted.tolist(),
                                                      res.target.tolist())]
    exact &= res.error.tolist() == scored
    assert verdict(1, f"relative error definition ({elapsed * 1e3:.3f} ms)",
                   exact and elapsed < 1e-3)


def test_c2_planted_rank1_recovery():
    t0 = time.perf_counter()
    m, _, _ = planted_rank1(13, 50, seed=2)  # weights drawn in (0.5, 5)
    masked, held = mask_random(m, MaskSpec(0.5, seed=3))
    model = als_fit(masked, RunConfig(als_k=1, als_lambda=1e-6, seed=4))
    total = sum(prediction_error(predict(model, r, c), m.values[r, c])
                for r, c in held.tolist()) / len(held)
    elapsed = time.perf_counter() - t0
    assert verdict(
        2, f"planted rank-1 recovery (error {total:.2e}, {elapsed:.2f} s)",
        total < 1e-3 and elapsed < 5.0)


def test_c3_proportional_machines_form_one_clique():
    rng = np.random.default_rng(5)
    latent = rng.uniform(1.0, 20.0, 13)
    weights = rng.uniform(0.5, 4.0, 8)
    m = _mat(np.outer(latent, weights))

    grouping = find_cliques(build_graph(m, threshold=0.97))
    shape_ok = (len(grouping.cliques) == 1
                and len(grouping.cliques[0]) == 8)

    report = leave_one_out(m, RunConfig(algorithm="cliques",
                                        protocol="in_groups"))
    res = report.results[0]
    error_ok = (res.n_uncovered == 0 and res.total_error is not None
                and res.total_error < 1e-9)
    label = ("one size-8 clique, leave-one-out error "
             f"{res.total_error:.2e}")
    assert verdict(3, label, shape_ok and error_ok)


def test_c4_dataset_group_structure_and_errors():
    name = "dataset grouping and leave-one-out error bands"
    m = _load_dataset(4, name)
    cfg = RunConfig(algorithm="cliques")

    grouping = find_cliques(build_graph(m, cfg.clique_threshold,
                                        cfg.clique_min_overlap))
    n_groups = len(grouping.cliques)
    singles = sum(1 for c in grouping.cliques if len(c) == 1)

    def total(**setting):
        rep = leave_one_out(m, replace(cfg, **setting))
        return rep.results[0].total_error

    reg = total(algorithm="ridge")  # the regression baseline
    in_groups = total(protocol="in_groups")
    combined = total(protocol="in_groups_plus_regression")

    ok = (41 <= n_groups <= 51
          and 22 <= singles <= 32
          and reg is not None and 0.20 <= reg <= 0.30
          and in_groups is not None and 0.048 <= in_groups <= 0.088
          and combined is not None and 0.085 <= combined <= 0.145)
    label = (f"{name} (groups {n_groups}, singletons {singles}, "
             f"errors {reg:.3f}/{in_groups:.3f}/{combined:.3f})")
    assert verdict(4, label, ok)


def test_c5_dataset_sparse_regime():
    name = "dataset sparse regime: factorization vs regression"
    m = _load_dataset(5, name)
    cfg = RunConfig(fractions=(0.15, 0.30, 0.50, 0.80), repeats=3, seed=0)
    reports = masking_sweep(m, ["als", "ridge"], cfg)

    ok = True
    summary = []
    for rep in reports:
        by_alg = {res.algorithm: res.total_error for res in rep.results}
        als, ridge = by_alg["als"], by_alg["ridge"]
        ok &= als is not None and ridge is not None and als <= ridge
        if rep.fraction == 0.80:
            ok &= als is not None and als <= 0.60
        summary.append(f"{rep.fraction:g}: als {als:.3f} vs ridge "
                       f"{ridge:.3f}")
    assert verdict(5, f"{name} ({'; '.join(summary)})", bool(ok))


def test_c6_ensemble_identity():
    x = np.random.default_rng(6).uniform(1e-6, 1e6, 200)
    identical = np.array_equal(ensemble_cells(x, x, x), x)
    ok = (identical
          and ensemble_cells([0.1], [0.1], [0.1]).tolist() == [0.1]
          and ensemble_cells([10.0], [20.0], [30.0]).tolist() == [20.0])
    assert verdict(6, "ensemble identity and exact mean", ok)


def test_c7_sweep_byte_determinism(tmp_path):
    m, _, _ = planted_rank1(9, 7, seed=7)
    src = tmp_path / "m.csv"
    write_matrix_csv(m, src)

    digests = []
    for tag in ("first", "second"):
        out_json = tmp_path / f"{tag}.json"
        out_csv = tmp_path / f"{tag}.csv"
        rc = cli_main(["sweep", str(src), "--fractions", "10,25",
                       "--repeats", "2", "--seed", "11",
                       "--algorithms", "ridge,als,ensemble",
                       "--out-json", str(out_json),
                       "--out-csv", str(out_csv)])
        assert rc == 0
        digests.append((hashlib.sha256(out_json.read_bytes()).hexdigest(),
                        hashlib.sha256(out_csv.read_bytes()).hexdigest()))
    assert verdict(7, "sweep command byte-determinism under a fixed seed",
                   digests[0] == digests[1])


def test_c8_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    pearson_ok = True
    for _ in range(110):
        n = int(rng.integers(5, 11))
        vals = rng.uniform(0.2, 9.0, (n, 2))
        # drop a few cells but keep the first 4 rows complete
        for i in range(4, n):
            if rng.random() < 0.25:
                vals[i, int(rng.integers(2))] = np.nan
        m = _mat(vals)
        r = correlations(m)
        pearson_ok &= not np.isnan(r[0, 1]) and r[1, 0] == r[0, 1]
        a, b = rng.uniform(0.5, 3.0), rng.uniform(0.0, 5.0)
        shifted = np.array(vals)
        shifted[:, 0] = a * shifted[:, 0] + b
        r_affine = correlations(_mat(shifted))[0, 1]
        pearson_ok &= bool(abs(r_affine - r[0, 1]) < 1e-12)

    gauge_ok = True
    for _ in range(110):
        n, m_cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        rows = tuple((f"p{i}", f"a{i}") for i in range(n))
        cols = tuple(f"C{j}" for j in range(m_cols))
        U = rng.uniform(0.5, 2.0, (n, k))
        V = rng.uniform(0.5, 2.0, (k, m_cols))
        s = rng.uniform(0.25, 4.0, k)
        base = predict_all(FactorModel(k, rows, cols, U, V, (), {}))
        scaled = predict_all(FactorModel(k, rows, cols, U * s,
                                         V / s[:, None], (), {}))
        gauge_ok &= bool(np.all(np.abs(scaled - base) <= 1e-12 * base))

    place_ok = True
    for _ in range(110):
        vals = rng.uniform(0.5, 30.0, (int(rng.integers(2, 7)),
                                       int(rng.integers(2, 7))))
        m = _mat(vals)
        r = int(rng.integers(m.n_rows))
        choice = greedy_place(m, r).machine
        scaled_vals = np.array(vals)
        scaled_vals[r] *= float(rng.uniform(0.1, 10.0))
        place_ok &= greedy_place(m.with_values(scaled_vals),
                                 r).machine == choice

    elapsed = time.perf_counter() - t0
    label = (f"invariances: pearson {pearson_ok}, gauge {gauge_ok}, "
             f"placement {place_ok} ({elapsed:.1f} s)")
    assert verdict(8, label,
                   pearson_ok and gauge_ok and place_ok and elapsed < 30)


def test_c9_schedule_lower_bounds():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(50):
        vals = rng.uniform(0.5, 30.0, (5, 4))
        m = _mat(vals)
        assignment, makespan = schedule_batch(m, list(range(5)))
        ok &= makespan >= max(vals.min(axis=1)) - 1e-12
        assigned_total = sum(vals[r, j] for j, c in enumerate(m.col_keys)
                             for r in assignment[c])
        ok &= makespan >= assigned_total / m.n_cols - 1e-12
    assert verdict(9, "schedule makespan respects both lower bounds",
                   bool(ok))
