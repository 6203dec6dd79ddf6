"""The Gram-matrix SVD kernel against the full-SVD reference loop."""

from unittest import mock

import numpy as np
from conftest import grid, planted_rank1, predict_all, sparse_matrix
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from svd_reference import gram_svd_fit, reference_svd_fit

from perfcast import MaskSpec, mask_random, svd_fit

EPS = np.finfo(float).eps


def reference_with_spectra(mat, k, max_outer):
    """The reference fit, and the singular values of every iterate it
    decomposed."""
    spectra, svd = [], np.linalg.svd

    def recording(X, *args, **kwargs):
        out = svd(X, *args, **kwargs)
        spectra.append(out[1])
        return out

    with mock.patch.object(np.linalg, "svd", recording):
        return reference_svd_fit(mat, k, max_outer), spectra


@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       rank=st.sampled_from([None, 1, 2, 3]), k_draw=st.integers(1, 12),
       max_outer=st.integers(1, 30))
@settings(max_examples=300, deadline=None)
# Fit exactly at rank 9 (s_1 29.9, s_9 7.2e-3, s_10 5e-17): the reference
# settles after one step, while the kernel's imputed cells move 1.3e-12
# relative per step, just above the settle test, and it runs all three.
@example(shape=(10, 10), density=0.0625, seed=8086, rank=2, k_draw=9,
         max_outer=3)
def test_fit_matches_reference(shape, density, seed, rank, k_draw, max_outer):
    # Tall and wide draws, uniform or planted low-rank values.
    mat = sparse_matrix(shape, density, seed, rank)
    k = min(k_draw, *shape)
    want, spectra = reference_with_spectra(mat, k, max_outer)
    # The kernel's rank-k subspace is off by about eps * s_1**2 /
    # (s_k**2 - s_{k+1}**2). Where that bound exceeds 1e-8 at some step,
    # s_k and s_{k+1} nearly coincide: the subspace, and so either fit's
    # answer, is not determined to this test's tolerance (see
    # test_rank_above_numerical_rank for the exactly rank-deficient case).
    # At k = min(shape) the projection is the identity, whatever the
    # spectrum.
    bound = 0.0
    if k < min(shape):
        assume(all(s[k - 1] ** 2 - s[k] ** 2 > 1e8 * EPS * s[0] ** 2
                   for s in spectra))
        bound = max(EPS * s[0] ** 2 / (s[k - 1] ** 2 - s[k] ** 2)
                    for s in spectra)
    got = svd_fit(mat, k, max_outer)

    scale = float(np.nanmean(mat.values))
    # The atol covers rank-k inner products that land near zero.
    np.testing.assert_allclose(predict_all(got), predict_all(want),
                               rtol=1e-9, atol=1e-9 * scale)
    # The settle test holds each imputed cell's change to 1e-12 of it,
    # within reach of the two kernels' rounding differences: where either
    # fit settled before max_outer, the other may settle a step apart.
    # Where the kernel's error bound is above 1e-12, its rounding alone
    # can move the imputed cells by more than that at every step, so the
    # step at which it settles is not determined and is not compared.
    steps = len(got.train_rmse_history), len(want.train_rmse_history)
    if bound < 1e-12:
        assert abs(steps[0] - steps[1]) <= (min(steps) < max_outer)
    np.testing.assert_allclose(got.train_rmse_history[:min(steps)],
                               want.train_rmse_history[:min(steps)],
                               rtol=1e-9, atol=1e-9 * scale)
    assert got.config == want.config
    assert np.isfinite(got.row_factors).all()
    assert np.isfinite(got.col_factors).all()


def holed_rank1():
    full, _, _ = planted_rank1(40, 12, seed=5)
    return mask_random(full, MaskSpec(0.4, 5))[0]


def transposed(mat):
    return grid(mat.values.T.tolist())


def test_stop_step_matches_reference():
    # The settle test fires after ~190 steps here, tall and wide alike.
    for mat in (holed_rank1(), transposed(holed_rank1())):
        got, want = svd_fit(mat, 1, 1000), reference_svd_fit(mat, 1, 1000)
        steps = len(want.train_rmse_history)
        assert 100 < steps < 1000
        assert len(got.train_rmse_history) == steps
        np.testing.assert_allclose(predict_all(got), predict_all(want),
                                   rtol=1e-12)


def assert_same_bits(got, want):
    """Two fits with the same factors, bit for bit, and the same RMSE
    history."""
    assert got.row_factors.tobytes() == want.row_factors.tobytes()
    assert got.col_factors.tobytes() == want.col_factors.tobytes()
    assert got.train_rmse_history == want.train_rmse_history


@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       rank=st.sampled_from([None, 1, 2, 3]), k_draw=st.integers(1, 12),
       max_outer=st.integers(1, 30))
@settings(max_examples=200, deadline=None)
@example(shape=(10, 10), density=0.0625, seed=8086, rank=2, k_draw=9,
         max_outer=3)
def test_fit_matches_gram_loop_bit_for_bit(shape, density, seed, rank,
                                           k_draw, max_outer):
    # svd_fit against the loop before its settle test looked at one cell
    # first: the same steps, so the same bits, whether the fit settles or
    # runs to max_outer.
    mat = sparse_matrix(shape, density, seed, rank)
    k = min(k_draw, *shape)
    assert_same_bits(svd_fit(mat, k, max_outer),
                     gram_svd_fit(mat, k, max_outer))


def test_settle_step_matches_gram_loop_bit_for_bit():
    # test_stop_step_matches_reference's inputs, which settle after ~190
    # steps, tall and wide
    for mat in (holed_rank1(), transposed(holed_rank1())):
        got = svd_fit(mat, 1, 1000)
        assert len(got.train_rmse_history) < 1000
        assert_same_bits(got, gram_svd_fit(mat, 1, 1000))


def assert_matches_reference(mat, k):
    got, want = svd_fit(mat, k), reference_svd_fit(mat, k)
    assert np.isfinite(got.row_factors).all()
    assert np.isfinite(got.col_factors).all()
    np.testing.assert_allclose(predict_all(got), predict_all(want),
                               rtol=1e-12)


def test_rank_above_numerical_rank():
    # k past the rank leaves zero or rounding-level singular values; their
    # factors must stay finite and add nothing, and no division by zero may
    # warn (the suite turns warnings into errors).
    m, _, _ = planted_rank1(6, 5, seed=19)
    for k in (3, 5):
        assert_matches_reference(m, k)
    assert_matches_reference(grid([[3.0, 3.0], [3.0, 3.0]]), 2)


def test_wide_matrix():
    # rows < cols: the Gram matrix is X X^T, and P holds left vectors
    mat = sparse_matrix((5, 9), 0.6, seed=3)
    for k in (1, 2, 5):
        assert_matches_reference(mat, k)
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        svd_fit(mat, 2, max_outer=3)
    assert [c.args[0].shape for c in eigh.call_args_list] == [(5, 5)] * 3
