"""Ridge regression baseline: per cell and as a block kernel."""

import tracemalloc

import numpy as np
import pytest
import ridge_reference
from conftest import grid, sparse_matrix, sparse_matrices
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfcast import NoBasisError, PCMatrix, RunConfig, ridge
from perfcast.ridge import ridge_block, ridge_predict


def linear_two_columns():
    """C2 = 2*C1 over five complete rows; sixth row has C1=7, C2 missing."""
    ones = [1.0, 3.0, 4.0, 5.5, 9.0]
    rows = [[x, 2 * x] for x in ones] + [[7.0, None]]
    return grid(rows)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.ridge_lambda == 1e-2 and cfg.ridge_min_training_rows == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="ridge_lambda .* got -1"):
            RunConfig(ridge_lambda=-1)
        with pytest.raises(ValueError, match="ridge_lambda .* got nan"):
            RunConfig(ridge_lambda=float("nan"))
        with pytest.raises(ValueError, match="ridge_min_training_rows must "
                           "be at least 2, got 1"):
            RunConfig(ridge_min_training_rows=1)


class TestExactRelation:
    def test_doubled_column(self):
        m = linear_two_columns()
        got = ridge_predict(m, 5, 1, RunConfig(ridge_lambda=1e-8))
        assert got == pytest.approx(14.0, rel=1e-6)

    def test_lambda_zero_refused(self):
        # at lambda 0 a cell with as many features as training rows has no
        # one answer, so the value is refused where the config is made
        with pytest.raises(ValueError, match="ridge_lambda must be positive "
                           "and finite, got 0.0"):
            RunConfig(ridge_lambda=0.0)

    def test_multifeature_exact_combination(self):
        # target = 3*f1 + 0.5*f2 + 1; independent lstsq oracle
        rng = np.random.default_rng(0)
        X = rng.uniform(1, 10, (8, 2))
        y = 3 * X[:, 0] + 0.5 * X[:, 1] + 1.0
        vals = np.column_stack([X, y])
        target_row = np.array([[2.0, 5.0, np.nan]])
        m = grid(np.vstack([vals, target_row]).tolist())
        m = PCMatrix(m.row_keys, m.col_keys,
                     np.vstack([vals, [[2.0, 5.0, np.nan]]]))
        A = np.column_stack([X, np.ones(len(X))])
        coef = np.linalg.lstsq(A, y, rcond=None)[0]
        oracle = coef[0] * 2.0 + coef[1] * 5.0 + coef[2]
        got = ridge_predict(m, 8, 2, RunConfig(ridge_lambda=1e-10))
        assert got == pytest.approx(oracle, rel=1e-6)


class TestFallbacks:
    def test_column_mean_when_no_features(self):
        # target row has nothing except the (missing) target column
        m = grid([[4.0], [4.0], [4.0], [None]])
        assert ridge_predict(m, 3, 0) == pytest.approx(4.0)

    def test_column_mean_when_shrinkage_exhausts(self):
        # the lone feature column shares no training rows with the target
        m = grid([
            [1.0, None],
            [2.0, None],
            [None, 5.0],
            [None, 7.0],
            [3.0, None],
        ])
        assert ridge_predict(m, 4, 1) == pytest.approx(6.0)

    def test_empty_target_column(self):
        m = grid([[1.0, None], [2.0, None]])
        with pytest.raises(NoBasisError, match="no basis"):
            ridge_predict(m, 0, 1)

    def test_shrinkage_drops_sparsest_feature(self):
        # f2 co-observed with target only once; f1 has full support.
        # With min_training_rows=3 the solver must drop f2 and keep f1.
        m = grid([
            [1.0, 9.0, 3.0],
            [2.0, None, 6.0],
            [3.0, None, 9.0],
            [4.0, None, 12.0],
            [5.0, 1.0, None],
        ])
        got = ridge_predict(m, 4, 2, RunConfig(ridge_lambda=1e-9))
        assert got == pytest.approx(15.0, rel=1e-6)


class TestInvariants:
    def test_permutation_of_training_rows(self):
        m = linear_two_columns()
        perm = [3, 1, 4, 0, 2, 5]
        shuffled = PCMatrix(tuple(m.row_keys[i] for i in perm), m.col_keys,
                            m.values[perm])
        a = ridge_predict(m, 5, 1)
        b = ridge_predict(shuffled, 5, 1)
        assert a == pytest.approx(b, rel=1e-9)

    def test_lambda_pulls_toward_training_mean(self):
        m = linear_two_columns()
        train_mean = float(np.mean([2.0, 6.0, 8.0, 11.0, 18.0]))
        dists = []
        for lam in [1e-8, 0.1, 1.0, 10.0, 1000.0]:
            pred = ridge_predict(m, 5, 1, RunConfig(ridge_lambda=lam))
            dists.append(abs(pred - train_mean))
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))
        # and the large-lambda limit is the mean itself
        got = ridge_predict(m, 5, 1, RunConfig(ridge_lambda=1e12))
        assert got == pytest.approx(train_mean)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_exact_linear_property(self, seed):
        # random complete training block with target an exact linear map
        rng = np.random.default_rng(seed)
        n, k = 6, 2
        X = rng.uniform(0.5, 20, (n, k))
        w = rng.uniform(0.1, 3, k)
        b = rng.uniform(0, 5)
        y = X @ w + b
        x0 = rng.uniform(0.5, 20, k)
        vals = np.column_stack([X, y])
        target = np.concatenate([x0, [np.nan]])
        m_vals = np.vstack([vals, target])
        m = grid(np.where(np.isnan(m_vals), None, m_vals).tolist())
        got = ridge_predict(m, n, k, RunConfig(ridge_lambda=1e-10))
        expected = float(x0 @ w + b)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_prediction_floor(self):
        # exact relation extrapolates negative; clamp keeps it positive
        m = grid([
            [10.0, 1.0],
            [9.0, 2.0],
            [8.0, 3.0],
            [7.0, 4.0],
            [20.0, None],
        ])
        got = ridge_predict(m, 4, 1, RunConfig(ridge_lambda=1e-9))
        assert got == 1e-9


# ridge_block against the per-cell reference, by lambda. Measured over
# two runs of 1,000 draws of sparse_matrices(12, 8, 0.6) per lambda, with
# min_training_rows 2-5, every cell (observed and missing) of each draw:
# every value equalled the reference's bit for bit at each lambda, 75,963
# solved cells and 58,716 column means, since a stack holds cells of one
# shape and so sums each cell's terms as the reference does. The bounds
# leave room for a BLAS that orders those sums otherwise; a column mean
# must match exactly. Coverage, the fallbacks and every NoBasisError
# message matched exactly, and a cell is flagged as its column's mean
# exactly where the reference kept no feature.
RTOL = {10.0: 1e-13, 1e-2: 1e-10, 1e-6: 1e-8}


def reference(m, row, col, cfg):
    """The reference's (value, kept features) or NoBasisError for one
    cell."""
    try:
        return ridge_reference.predict_with_features(m, row, col, cfg)
    except NoBasisError as exc:
        return exc


def assert_block_matches_reference(m, rows, cols, cfg):
    values, reasons, mean = ridge_block(m, rows, cols, cfg)
    assert values.dtype == np.float64 and values.shape == (len(rows),)
    assert mean.dtype == bool and mean.shape == (len(rows),)
    uncovered = set()
    for i, (row, col) in enumerate(zip(rows, cols)):
        want = reference(m, row, col, cfg)
        if isinstance(want, NoBasisError):
            uncovered.add(i)
            assert np.isnan(values[i])
            assert type(reasons[i]) is NoBasisError
            assert str(reasons[i]) == str(want)
            assert not mean[i]
            continue
        want, kept = want
        assert mean[i] == (kept.size == 0)
        assert values[i] >= 1e-9
        if kept.size:
            assert values[i] == pytest.approx(want, rel=RTOL[cfg.ridge_lambda])
        else:  # the zero-feature solve is the column mean, bit for bit
            assert values[i] == want
    assert reasons.keys() == uncovered


class TestBlockKernel:
    @given(m=sparse_matrices(max_rows=12, max_cols=8, max_holes=0.6),
           lam=st.sampled_from(sorted(RTOL)),
           min_rows=st.integers(2, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, m, lam, min_rows):
        # every cell: observed ones as in leave-one-out, missing ones as in
        # completion
        rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
        cfg = RunConfig(ridge_lambda=lam, ridge_min_training_rows=min_rows)
        assert_block_matches_reference(m, rows, cols, cfg)

    @given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([1e-2, 10.0]))
    @settings(max_examples=10, deadline=None)
    def test_more_features_than_one_window(self, seed, lam):
        # 59 features per complete row: drop orders longer than the 52
        # ranks one float64 window held in the earlier shrink step
        rng = np.random.default_rng(seed)
        values = np.outer(rng.uniform(1, 10, 12), rng.uniform(0.5, 4, 60))
        values *= rng.uniform(0.9, 1.0, values.shape)
        holes = rng.random(values.shape) < 0.2
        holes[:3] = False  # rows 0-2 are complete
        values[holes] = np.nan
        m = grid(values.tolist())
        rows = np.repeat(np.arange(3), 60)
        cols = np.tile(np.arange(60), 3)
        assert_block_matches_reference(m, rows, cols,
                                       RunConfig(ridge_lambda=lam))

    @pytest.mark.parametrize("span,stack", [(16, 1), (100, 60)])
    @pytest.mark.parametrize("lam", [1e-6, 1e-2])
    def test_many_spans_and_stacks(self, monkeypatch, span, stack, lam):
        # a block larger than one span, solved in many stacks of mixed
        # shapes, gives every cell the reference's answer
        monkeypatch.setattr(ridge, "_SPAN", span)
        monkeypatch.setattr(ridge, "_STACK", stack)
        spans, stacks = [], []
        real_span, real_stack = ridge._shrink_span, ridge._solve_stack

        def shrink_span(mask, bits, order, rows, *rest):
            spans.append(rows.size)
            return real_span(mask, bits, order, rows, *rest)

        def solve_stack(values, rows, cols, r_idx, c_idx, lam):
            # no padding: each cell's training rows are distinct rows that
            # observe its target column and every one of its features
            assert (np.diff(r_idx.astype(int), axis=1) > 0).all()
            assert (np.diff(c_idx.astype(int), axis=1) > 0).all()
            assert m.present_mask[r_idx, cols[:, None]].all()
            assert m.present_mask[r_idx[:, :, None], c_idx[:, None, :]].all()
            stacks.append(r_idx.shape + c_idx.shape[1:])
            return real_stack(values, rows, cols, r_idx, c_idx, lam)

        monkeypatch.setattr(ridge, "_shrink_span", shrink_span)
        monkeypatch.setattr(ridge, "_solve_stack", solve_stack)
        rng = np.random.default_rng(7)
        values = np.outer(rng.uniform(1, 10, 30), rng.uniform(0.5, 4, 8))
        values *= rng.uniform(0.5, 1.0, values.shape)
        values[rng.random(values.shape) < 0.4] = np.nan
        values[5] = np.nan  # a cold row
        m = grid(values.tolist())
        rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
        assert_block_matches_reference(m, rows, cols,
                                       RunConfig(ridge_lambda=lam))
        # _SPAN bounds each span's bytes of row bitsets, one 8-byte word
        # per cell for 30 rows. Each stack has one (n, k) shape, and
        # _STACK bounds its training values (n for a featureless cell)
        # unless one cell stands alone
        assert len(spans) > 1 and max(spans) == max(1, span // 8)
        assert len(stacks) > 1 and any(k == 0 for _, _, k in stacks)
        assert all(c * n * max(k, 1) <= stack or c == 1
                   for c, n, k in stacks)

    @pytest.mark.parametrize("span,stack", [(None, None), (16, 60)])
    def test_shuffled_cells_of_many_columns(self, monkeypatch, span, stack):
        # observed and missing cells of six target columns, in a shuffled
        # order: every cell gets the reference's answer in the caller's
        # order, however the spans and stacks group them
        if span:
            monkeypatch.setattr(ridge, "_SPAN", span)
            monkeypatch.setattr(ridge, "_STACK", stack)
        rng = np.random.default_rng(11)
        values = np.outer(rng.uniform(1, 10, 40), rng.uniform(0.5, 4, 9))
        values *= rng.uniform(0.6, 1.0, values.shape)
        values[rng.random(values.shape) < 0.45] = np.nan
        m = grid(values.tolist())
        rows, cols = np.nonzero(np.isin(np.arange(9), [0, 2, 3, 5, 7, 8])
                                & np.ones((40, 1), dtype=bool))
        order = rng.permutation(rows.size)
        rows, cols = rows[order], cols[order]
        seen = m.present_mask[rows, cols]
        assert seen[:40].any() and not seen[:40].all()
        assert np.unique(cols[:20]).size >= 5
        assert_block_matches_reference(m, rows, cols, RunConfig())

    def test_memory_stays_bounded(self):
        # the shrink step's spans and the solve's stacks bound the
        # temporaries: about 7,000 missing cells of a 300 x 40 matrix
        m = sparse_matrix((300, 40), 0.4, seed=3, rank=2)
        rows, cols = np.nonzero(~m.present_mask)
        assert rows.size > 6900
        tracemalloc.start()
        try:
            values, reasons, _ = ridge_block(m, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not reasons and not np.isnan(values).any()
        assert peak < 1_000_000

    def test_empty_block(self):
        values, reasons, mean = ridge_block(linear_two_columns(), [], [])
        assert values.shape == mean.shape == (0,) and reasons == {}

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4])
    def test_no_more_rows_than_min_training_rows(self, n_rows):
        # with at most min_training_rows rows no cell has enough candidate
        # rows: each takes its column's mean over the other rows, or is
        # uncovered when there is none; an empty block stays empty
        m = grid([[2.0 * (r + 1), 3.0 * (r + 1) if r % 2 else None]
                  for r in range(n_rows)])
        rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
        cfg = RunConfig(ridge_min_training_rows=max(n_rows, 2))
        assert_block_matches_reference(m, rows, cols, cfg)
        assert_block_matches_reference(m, [], [], cfg)
        values, reasons, mean = ridge_block(m, rows, cols, cfg)
        for i, (r, c) in enumerate(zip(rows, cols)):
            others = np.delete(m.values[:, c], r)
            others = others[~np.isnan(others)]
            if others.size:
                assert values[i] == others.mean() and i not in reasons
                assert mean[i]
            else:
                assert np.isnan(values[i]) and i in reasons
                assert not mean[i]


@given(m=sparse_matrices(max_rows=12, max_cols=8, max_holes=0.6))
@settings(max_examples=150, deadline=None)
def test_drop_ranks_order_each_cell_as_the_reference(m):
    # one drop order per column, without the column itself, orders every
    # cell's features as the reference orders them for that cell,
    # observed or missing
    mask = m.present_mask
    order = ridge._drop_order(mask)
    for row, col in np.ndindex(mask.shape):
        assert np.array_equal(np.sort(order[col]),
                              np.delete(np.arange(m.n_cols), col))
        features = np.flatnonzero(mask[row] & (np.arange(m.n_cols) != col))
        candidates = np.flatnonzero(mask[:, col] & (np.arange(m.n_rows) != row))
        want = ridge_reference.drop_positions(mask, features, candidates)
        got = order[col][np.isin(order[col], features)]
        assert np.array_equal(got, features[np.argsort(want)])


# The shrink step against the earlier matmul version: random masks, up to
# 70 columns (more than the 52 ranks of one of its windows), maybe a cold
# row, and a random share of the cells, observed and missing, in shuffled
# order (none: an empty block), in spans of the default size or of one to
# eight cells.
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40),
       n_cols=st.integers(1, 70), density=st.floats(0.05, 1.0),
       cold=st.booleans(), share=st.floats(0.0, 1.0),
       min_rows=st.integers(2, 4), span=st.sampled_from([None, 8, 64]))
@example(seed=1, n_rows=30, n_cols=60, density=0.7, cold=True, share=1.0,
         min_rows=3, span=None)
@example(seed=2, n_rows=12, n_cols=55, density=0.9, cold=False, share=0.5,
         min_rows=2, span=8)
@example(seed=3, n_rows=9, n_cols=5, density=0.5, cold=True, share=0.0,
         min_rows=4, span=64)
@settings(max_examples=200, deadline=None)
def test_shrink_matches_the_oracle(seed, n_rows, n_cols, density, cold,
                                   share, min_rows, span):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < density
    if cold:
        mask[rng.integers(n_rows)] = False
    rows, cols = np.nonzero(np.ones(mask.shape, dtype=bool))
    pick = rng.permutation(rows.size)[:round(share * rows.size)]
    rows, cols = rows[pick], cols[pick]
    with pytest.MonkeyPatch.context() as patch:
        if span:
            patch.setattr(ridge, "_SPAN", span)
        got = ridge._shrink(mask, rows, cols, min_rows)
    want = ridge_reference.shrink(mask, rows, cols, min_rows)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
