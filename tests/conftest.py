"""Shared builders for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from perfcast import PCMatrix, evaluation, write_matrix_csv
from perfcast.matrix import PREDICTION_FLOOR

# On CI (which sets CI), a failing property test also prints the
# @reproduce_failure blob that replays its draw exactly.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def planted_rank1(n, m, seed, lo=0.5, hi=5.0):
    """Fully observed outer-product matrix with known positive weights."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(lo, hi, n)
    v = rng.uniform(lo, hi, m)
    rows = tuple((f"p{i:02d}", f"a{i:02d}") for i in range(n))
    cols = tuple(f"c{j:02d}" for j in range(m))
    return PCMatrix(rows, cols, np.outer(u, v)), u, v


def grid(values, row_keys=None, col_keys=None):
    """Matrix from a list of lists; None marks a missing cell."""
    arr = np.array([[np.nan if v is None else float(v) for v in row]
                    for row in values])
    n, m = arr.shape
    rows = tuple(row_keys) if row_keys else tuple((f"p{i}", f"a{i}")
                                                  for i in range(n))
    cols = tuple(col_keys) if col_keys else tuple(f"C{j + 1}"
                                                  for j in range(m))
    return PCMatrix(rows, cols, arr)


def sparse_matrix(shape, density, seed, rank=None):
    """Positive matrix with every row and column observed at least once and
    each other cell kept with probability `density`, so low densities give
    rows and columns with fewer observations than the rank. Values are
    uniform in (0.5, 5.0), or with `rank`, a product of two positive
    rank-`rank` factors."""
    n, m = shape
    rng = np.random.default_rng(seed)
    keep = rng.random((n, m)) < density
    keep[np.arange(n), rng.integers(0, m, n)] = True
    keep[rng.integers(0, n, m), np.arange(m)] = True
    vals = (rng.uniform(0.5, 5.0, (n, m)) if rank is None else
            rng.uniform(0.5, 2.0, (n, rank)) @ rng.uniform(0.5, 2.0, (rank, m)))
    vals = np.where(keep, vals, np.nan)
    rows = tuple((f"p{i}", "a") for i in range(n))
    cols = tuple(f"c{j}" for j in range(m))
    return PCMatrix(rows, cols, vals)


def predict_all(model):
    """Every cell of a factor model, floored as its predictions are."""
    return np.maximum(model.row_factors @ model.col_factors, PREDICTION_FLOOR)


def decoded(column):
    """The entries of a coded column (codes, values): values[codes[i]]."""
    codes, values = column
    return [values[k] for k in np.asarray(codes).tolist()]


def ensemble_cells(*member_values):
    """The package's ensemble kernel on cells whose members produced
    member_values: one sequence per member, NaN where it produced
    nothing, and at least one value per cell."""
    values = np.array(member_values, dtype=float)
    members = ["ridge", "cliques", "als", "svd", "ensemble"][:len(values)]
    columns = {mem: (v,) for mem, v in zip(members, values)}
    return evaluation._ensemble(members, columns)[0]


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=5, max_holes=0.5):
    """Near-proportional columns (so cliques form) with random holes, a
    chance of fully cold rows and of fully empty columns."""
    n = draw(st.integers(3, max_rows))
    m = draw(st.integers(2, max_cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = np.outer(rng.uniform(1, 10, n), rng.uniform(0.5, 4, m))
    values *= rng.uniform(1 - draw(st.sampled_from([0.0, 0.05, 0.5])), 1.0,
                          (n, m))
    values[rng.random((n, m)) < draw(st.floats(0.0, max_holes))] = np.nan
    if draw(st.booleans()):
        values[rng.integers(n)] = np.nan
    if draw(st.booleans()):
        values[:, rng.integers(m)] = np.nan
    return grid(values.tolist())


@pytest.fixture
def matrix_csv(tmp_path):
    """An 8x6 rank-1 matrix CSV with three missing cells."""
    m, _, _ = planted_rank1(8, 6, seed=1)
    vals = np.array(m.values)
    vals[0, 1] = vals[3, 4] = vals[6, 2] = np.nan
    path = tmp_path / "matrix.csv"
    write_matrix_csv(m.with_values(vals), path)
    return path
