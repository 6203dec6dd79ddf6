"""Shared builders for the test suite."""

import numpy as np
import pytest

from perfcast import PCMatrix, write_matrix_csv


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


@pytest.fixture
def matrix_csv(tmp_path):
    """An 8x6 rank-1 matrix CSV with three missing cells."""
    m, _, _ = planted_rank1(8, 6, seed=1)
    vals = np.array(m.values)
    vals[0, 1] = vals[3, 4] = vals[6, 2] = np.nan
    path = tmp_path / "matrix.csv"
    write_matrix_csv(m.with_values(vals), path)
    return path
