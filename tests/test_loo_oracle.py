"""Leave-one-out and completion against their per-cell references."""

import math

import numpy as np
import pytest
from conftest import decoded, grid, sparse_matrices
from hypothesis import given, settings
from hypothesis import strategies as st
from complete_reference import complete_matrix as reference_complete_matrix
from loo_reference import leave_one_out as reference_leave_one_out
from loo_reference import report_to_json as reference_report_to_json

from perfcast import RunConfig, complete_matrix, leave_one_out, report_to_json

PROTOCOLS = ["in_groups", "in_groups_plus_regression"]
CASES = [("ridge", "in_groups_plus_regression")]
CASES += [("cliques", p) for p in PROTOCOLS]
CASES += [("als", "in_groups_plus_regression")]
CASES += [("ensemble", p) for p in PROTOCOLS]

# Under in_groups the group mean is a masked row sum divided by the count,
# where the reference divides sum() by len(): the two may round apart in
# the last place (at most 8.6e-16 relative over two runs of 1,500 draws).
# A relative change d in predicted moves error = |predicted - target| /
# target by at most d * predicted / target <= d * (1 + error), absolutely;
# relative to an error near 0 it can be any size. total_error, a mean of
# errors, inherits the same absolute bound.
IN_GROUPS_RTOL = 1e-14
# ALS refits run stacked (factorization.als_refits), each started, as the
# reference's are, from the full fit's column factors: a fit's Gram
# matrices come out of one larger matmul, and its RMSE comes from the
# column half-step's sums (gathered, with the left-out cell as an exact
# zero, where those sums would cancel), so predictions differ from the
# per-cell refit at rounding level (at most 1.7e-15 relative over two runs
# of 1,500 draws). Ridge and
# the clique estimates run as block kernels (ridge.ridge_block,
# cliques.clique_block) over zero-padded stacks and downdated pair sums:
# at the default lambda they differ from the per-cell references by at
# most 3.4e-14 relative (ridge), 7.5e-15 (cliques with fallback) and
# 1.4e-14 (ensemble) over two runs of 1,500 draws per case.
# The same absolute bound as above covers error and total_error.
STACKED_RTOL = 1e-12
INEXACT = {"predicted", "error", "total_error"}


def assert_reports_match(got, want, rtol, key=None):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            assert_reports_match(got[k], want[k], rtol, k)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_reports_match(g, w, rtol, key)
    elif rtol and key in INEXACT and isinstance(want, float):
        atol = 0.0 if key == "predicted" else rtol * (1 + want)
        assert math.isclose(got, want, rel_tol=rtol, abs_tol=atol), key
    else:
        assert got == want, key


@pytest.mark.parametrize("algorithm,protocol", CASES,
                         ids=[f"{a}-{p}" for a, p in CASES])
@given(m=sparse_matrices(),
       threshold=st.sampled_from([0.5, 0.9, 0.97]),
       min_overlap=st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_matches_reference(algorithm, protocol, m, threshold, min_overlap):
    cfg = RunConfig(algorithm=algorithm, protocol=protocol,
                    als_max_iters=20, clique_threshold=threshold,
                    clique_min_overlap=min_overlap)
    got = report_to_json(leave_one_out(m, cfg))
    want = reference_report_to_json(reference_leave_one_out(m, cfg))
    rtol = (IN_GROUPS_RTOL if (algorithm, protocol) == (
        "cliques", "in_groups") else STACKED_RTOL)
    assert_reports_match(got, want, rtol)


def _large_near_proportional():
    """60x14 near-proportional columns at 70% density; the last four
    columns are noisy enough to stay out of the cliques."""
    rng = np.random.default_rng(31)
    values = np.outer(rng.uniform(1, 10, 60), rng.uniform(0.5, 4, 14))
    values *= 1 - np.where(np.arange(14) < 10, 0.02, 0.5) * rng.random(
        (60, 14))
    values[rng.random((60, 14)) >= 0.7] = np.nan
    return grid(values.tolist())


LARGE_CASES = [("ridge", "in_groups_plus_regression")]
LARGE_CASES += [("cliques", p) for p in PROTOCOLS]
LARGE_CASES += [("ensemble", p) for p in PROTOCOLS]


@pytest.mark.parametrize("algorithm,protocol", LARGE_CASES,
                         ids=[f"{a}-{p}" for a, p in LARGE_CASES])
def test_matches_reference_over_512_cells(algorithm, protocol):
    # The drivers hand every cell to each kernel in one call; here more
    # cells than any of the kernels' own spans hold.
    m = _large_near_proportional()
    assert m.count_present > 512
    cfg = RunConfig(algorithm=algorithm, protocol=protocol,
                    ensemble=("ridge", "cliques"))
    got = report_to_json(leave_one_out(m, cfg))
    want = reference_report_to_json(reference_leave_one_out(m, cfg))
    assert_reports_match(got, want, STACKED_RTOL)


# svd is scored only by the sweeps: it completes no matrix
COMPLETE_CASES = [(a, p) for a in ["ridge", "cliques", "als", "ensemble"]
                  for p in PROTOCOLS]
ENSEMBLES = [("ridge", "cliques", "als"), ("cliques", "als"), ("als", "ridge")]


@pytest.mark.parametrize("algorithm,protocol", COMPLETE_CASES,
                         ids=[f"{a}-{p}" for a, p in COMPLETE_CASES])
@given(m=sparse_matrices(),
       threshold=st.sampled_from([0.5, 0.9, 0.97]),
       min_overlap=st.integers(2, 3),
       k=st.integers(1, 2),
       ensemble=st.sampled_from(ENSEMBLES))
@settings(max_examples=40, deadline=None)
def test_completion_matches_reference(algorithm, protocol, m, threshold,
                                      min_overlap, k, ensemble):
    # Every missing cell, predicted at once, against one cell at a time:
    # the same cells fail or fill, with the same mechanism. At rank 2 the
    # factorization's gathered inner products may round apart from
    # predict's; the block kernels' rounding is STACKED_RTOL's (above).
    cfg = RunConfig(algorithm=algorithm, protocol=protocol,
                    als_k=k, als_max_iters=20,
                    clique_threshold=threshold,
                    clique_min_overlap=min_overlap, ensemble=ensemble)
    try:
        want_values, want_fills = reference_complete_matrix(m, cfg)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            complete_matrix(m, cfg)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    completed, (rows, cols, mechanism), _ = complete_matrix(m, cfg)
    assert list(zip(rows.tolist(), cols.tolist(), decoded(mechanism))) == [
        (row, col, mechanism) for row, col, _, mechanism in want_fills]
    for (row, col, value, _) in want_fills:
        assert math.isclose(completed.values[row, col], value,
                            rel_tol=STACKED_RTOL)
    np.testing.assert_array_equal(completed.present_mask, True)
    np.testing.assert_array_equal(completed.values[m.present_mask],
                                  want_values[m.present_mask])
