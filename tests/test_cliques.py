"""Correlation graph, greedy clique search, and scaling-based prediction."""

import math
import tracemalloc

import cliques_reference
import numpy as np
import pytest
from conftest import grid, planted_rank1, sparse_matrix, sparse_matrices
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast import (ColdRowError, NoBasisError, PCMatrix, RunConfig,
                      build_graph, cliques, complete_matrix, correlations,
                      evaluation, find_cliques, leave_one_out)
from perfcast.cliques import (clique_block, clique_predict, group_estimates,
                              pair_sums)


def pearson_oracle(x, y):
    """Textbook raw-sums formula, independent of the implementation."""
    n = len(x)
    sx, sy = math.fsum(x), math.fsum(y)
    sxx = math.fsum(v * v for v in x)
    syy = math.fsum(v * v for v in y)
    sxy = math.fsum(a * b for a, b in zip(x, y))
    num = n * sxy - sx * sy
    den = math.sqrt(n * sxx - sx * sx) * math.sqrt(n * syy - sy * sy)
    return num / den


def two_columns(x, y):
    return grid([[a, b] for a, b in zip(x, y)])


def edge_set(adjacent):
    """The graph's edges as (i, j) pairs, i < j."""
    return frozenset(zip(*(a.tolist() for a in np.nonzero(
        np.triu(adjacent)))))


def mates(grouping, vertex):
    return np.flatnonzero(grouping.mates[vertex]).tolist()


def slope(m, from_col, to_col, exclude_row=None):
    """The least-squares slope through the origin from one column onto
    another over their co-observed rows, leaving exclude_row out: the
    slope that group estimates scale by, one at a time. The kernel leaves
    out a row that observes from_col; leaving out none, or a row without
    from_col's value, is leaving out a row appended to m that observes
    from_col alone."""
    if exclude_row is None or not m.present_mask[exclude_row, from_col]:
        extra = np.full((1, m.n_cols), np.nan)
        extra[0, from_col] = 1.0
        m = grid(np.vstack([m.values, extra]).tolist())
        exclude_row = m.n_rows - 1
    _, got, usable = cliques._slopes(m, pair_sums(m), np.array([exclude_row]),
                                     np.array([to_col]), np.array([from_col]))
    if not usable[0]:
        raise ValueError(
            f"no co-observed rows between columns {from_col} and {to_col}")
    return float(got[0])


class TestPearson:
    def test_exact_proportional(self):
        m = two_columns([1, 2, 3], [2, 4, 6])
        assert correlations(m)[0, 1] == 1.0

    def test_exact_negative(self):
        m = two_columns([1, 2, 3], [3, 2, 1])
        assert correlations(m)[0, 1] == -1.0

    def test_matches_textbook_formula(self):
        x, y = [1, 2, 3, 4], [1.1, 1.9, 3.2, 3.8]
        m = two_columns(x, y)
        assert correlations(m)[0, 1] == pytest.approx(pearson_oracle(x, y),
                                                      rel=1e-12)

    def test_undefined_below_min_overlap(self):
        m = grid([[1, 2], [2, 4], [3, None]])
        assert np.isnan(correlations(m, min_overlap=3)[0, 1])
        assert correlations(m, min_overlap=2)[0, 1] == 1.0

    def test_undefined_zero_variance(self):
        m = two_columns([5, 5, 5], [1, 2, 3])
        assert np.isnan(correlations(m)[0, 1])

    def test_pairwise_complete_rows_only(self):
        # rows where either column is missing must not contribute
        m = grid([[1, 2], [2, 4], [3, 6], [9, None], [None, 1]])
        assert correlations(m)[0, 1] == 1.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = two_columns(rng.uniform(0.1, 50, 6), rng.uniform(0.1, 50, 6))
        r = correlations(m)
        assert r[0, 1] == r[1, 0]

    @given(st.integers(0, 10 ** 6),
           st.floats(0.01, 100), st.floats(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_positive_affine_invariance(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 50, 6)
        y = rng.uniform(0.1, 50, 6)
        r0 = correlations(two_columns(x, y))[0, 1]
        r1 = correlations(two_columns(alpha * x + beta, y))[0, 1]
        if np.isnan(r0) or np.isnan(r1):
            return
        assert r1 == pytest.approx(r0, abs=1e-12)


class TestBuildGraph:
    def test_proportional_triple_is_k3(self):
        base = np.array([1.0, 2.0, 3.0, 5.0])
        m = grid(np.column_stack([base, 2 * base, 5 * base]).tolist())
        g = build_graph(m, threshold=0.97)
        assert edge_set(g) == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_single_cell_column_isolated(self):
        m = grid([
            [1.0, 2.0, 7.0],
            [2.0, 4.0, None],
            [3.0, 6.0, None],
            [4.0, 8.0, None],
        ])
        g = build_graph(m)
        assert edge_set(g) == frozenset({(0, 1)})

    def test_threshold_validation(self):
        m = grid([[1.0, 2.0]])
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                build_graph(m, threshold=bad)

    def test_min_overlap_validation(self):
        # fewer than two co-observed rows define no correlation
        m = grid([[1.0, 2.0]])
        for bad in (1, 0, -5):
            with pytest.raises(ValueError, match=f"min_overlap must be at "
                                                 f"least 2, got {bad}"):
                build_graph(m, min_overlap=bad)

    def test_edge_requires_strict_inequality(self):
        # |r| must EXCEED the threshold; r = 1 vs threshold 1 adds no edge
        base = np.array([1.0, 2.0, 3.0])
        m = grid(np.column_stack([base, 2 * base]).tolist())
        assert edge_set(build_graph(m, threshold=1.0)) == frozenset()

    def test_negative_correlation_admitted(self):
        m = two_columns([1, 2, 3, 4], [8, 6, 4, 2])
        assert edge_set(build_graph(m, threshold=0.97)) == frozenset({(0, 1)})


def graph(n, edges):
    adjacent = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adjacent[i, j] = adjacent[j, i] = True
    return adjacent


class TestFindCliques:
    def test_complete_graph(self):
        grouping = find_cliques(graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert grouping.cliques == ((0, 1, 2),)

    def test_edgeless_graph_singletons(self):
        grouping = find_cliques(graph(4, []))
        assert grouping.cliques == ((0,), (1,), (2,), (3,))

    def test_path_graph(self):
        # a-b-c: b has the top degree, so both edges become cliques and b
        # belongs to two of them
        grouping = find_cliques(graph(3, [(0, 1), (1, 2)]))
        assert set(grouping.cliques) == {(0, 1), (1, 2)}
        assert mates(grouping, 1) == [0, 2]

    def test_every_vertex_covered(self):
        grouping = find_cliques(graph(5, [(0, 1), (2, 3)]))
        covered = {v for cl in grouping.cliques for v in cl}
        assert covered == {0, 1, 2, 3, 4}

    @given(st.integers(2, 8), st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_cliques_complete_and_cover(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = graph(n, edges)
        grouping = find_cliques(g)
        for cl in grouping.cliques:
            for a in cl:
                for b in cl:
                    if a < b:
                        assert (a, b) in edge_set(g)
        assert {v for cl in grouping.cliques for v in cl} == set(range(n))
        # mates matrix agrees with the clique list
        for v in range(n):
            assert mates(grouping, v) == sorted(
                {u for cl in grouping.cliques if v in cl for u in cl} - {v})


@st.composite
def offset_matrices(draw):
    """Near-proportional columns, each then scaled by 1e-3 to 10 and
    shifted by up to 1e4, with random holes."""
    n = draw(st.integers(3, 12))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.outer(rng.uniform(1, 10, n), rng.uniform(0.5, 4, m))
    values *= rng.uniform(1 - draw(st.sampled_from([0.0, 0.01, 0.05, 0.5])),
                          1.0, (n, m))
    values *= 10.0 ** rng.uniform(-3, 1, m)
    values += rng.choice([0.0, 1.0, 1e2, 1e4], m)
    values[rng.random((n, m)) < draw(st.floats(0.0, 0.5))] = np.nan
    return grid(values.tolist())


# correlations against the per-pair reference. Measured over two runs of
# 1,000 draws of offset_matrices() with min_overlap 2-4: at most 7.1e-14
# absolute, and the same NaN pattern.
R_ATOL = 1e-12


class TestAgainstReference:
    @given(m=offset_matrices(), min_overlap=st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_correlations(self, m, min_overlap):
        got = correlations(m, min_overlap)
        want = np.array([[np.nan if r is None else r for r in (
            cliques_reference.pearson(m, a, b, min_overlap)
            for b in range(m.n_cols))] for a in range(m.n_cols)])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=R_ATOL)

    def test_rows_far_from_the_column_mean(self):
        # C1's three rows shared with C2 sit about 765 from C1's mean but
        # span 3e-3, so the mean term is some 1e11 times what remains; the
        # pair is summed again directly, as the reference sums it
        m = grid([[float(v), None] for v in range(1, 11)]
                 + [[1000.0, 5.0], [1000.001, 6.0], [1000.003, 8.0]])
        want = cliques_reference.pearson(m, 0, 1)
        r = correlations(m)
        assert abs(r[0, 1] - want) <= R_ATOL
        assert r[1, 0] == r[0, 1]

    @given(m=offset_matrices(), min_overlap=st.integers(2, 4),
           threshold=st.sampled_from([0.5, 0.9, 0.97, 0.99, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_graph(self, m, min_overlap, threshold):
        adjacent = build_graph(m, threshold, min_overlap)
        assert not adjacent.diagonal().any()
        assert np.array_equal(adjacent, adjacent.T)
        want = cliques_reference.edges(m, threshold, min_overlap)
        for a in range(m.n_cols):
            for b in range(a + 1, m.n_cols):
                r = cliques_reference.pearson(m, a, b, min_overlap)
                if r is None or abs(abs(r) - threshold) > 1e-9:
                    assert adjacent[a, b] == ((a, b) in want)

    @given(st.integers(1, 10), st.sampled_from([0.2, 0.5, 0.8]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_find_cliques(self, n, p, seed):
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        grouping = find_cliques(graph(n, pairs))
        want = cliques_reference.find_cliques(n, pairs)
        assert grouping.cliques == want
        for v in range(n):
            assert mates(grouping, v) == cliques_reference.mates(want, v)


class TestScalingCoefficient:
    def test_exact_ratio(self):
        assert slope(two_columns([1, 2], [2, 4]), 0, 1) == 2.0

    def test_constant_columns(self):
        assert slope(two_columns([1, 1], [3, 3]), 0, 1) == 3.0

    def test_matches_direct_formula(self):
        x, y = [1, 2, 3], [2.1, 3.9, 6.2]
        oracle = math.fsum(a * b for a, b in zip(x, y)) / math.fsum(
            a * a for a in x)
        got = slope(two_columns(x, y), 0, 1)
        assert got == pytest.approx(oracle, rel=1e-15)
        assert got == pytest.approx(28.5 / 14.0, rel=1e-15)

    def test_reciprocal_exact_for_binary_ratio(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 9, 7)
        m = two_columns(x, 2 * x)
        assert slope(m, 0, 1) * slope(m, 1, 0) == 1.0

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 10))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_property_proportional(self, seed, ratio):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.3, 9, 7)
        m = two_columns(x, ratio * x)
        assert slope(m, 0, 1) * slope(m, 1, 0) == pytest.approx(1.0,
                                                                rel=1e-12)

    def test_exclude_row(self):
        m = two_columns([1, 2, 100], [2, 4, 1])
        assert slope(m, 0, 1, exclude_row=2) == 2.0


class TestCliquePrediction:
    def doubled_matrix(self):
        # C2 = 2*C1 on every complete row; (3, C2) is the cell to predict
        return grid([
            [1.0, 2.0],
            [2.0, 4.0],
            [3.0, 6.0],
            [7.0, None],
        ])

    def test_single_mate_exact(self):
        m = self.doubled_matrix()
        grouping = find_cliques(build_graph(m, min_overlap=2))
        got = clique_predict(m, grouping, 3, 1)
        assert got == pytest.approx(14.0, abs=1e-9)

    def test_mean_of_mate_estimates(self):
        # slopes to C3 are 4 (from C1) and 2 (from C2); the target row is
        # chosen so the two mate estimates are exactly 10 and 12. Its own
        # values also pull the C1-C2 correlation to 0.968 < 0.97, so C3
        # reaches its mates through two separate cliques (union pool).
        m = grid([
            [1.0, 2.0, 4.0],
            [2.0, 4.0, 8.0],
            [3.0, 6.0, 12.0],
            [2.5, 6.0, None],
        ])
        grouping = find_cliques(build_graph(m, min_overlap=3))
        assert set(grouping.cliques) == {(0, 2), (1, 2)}
        assert mates(grouping, 2) == [0, 1]
        ests = group_estimates(m, grouping, 3, 2)
        assert ests == [pytest.approx(10.0), pytest.approx(12.0)]
        got = clique_predict(m, grouping, 3, 2)
        assert got == pytest.approx(11.0)

    def test_ridge_fallback_for_isolated_column(self):
        # C3 correlates with nothing; prediction must come from regression
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        noise = [3.0, 1.0, 3.5, 1.5, 2.5]
        vals = np.column_stack([base, [2 * b for b in base], noise])
        vals = np.vstack([vals, [[6.0, 12.0, np.nan]]])
        m = PCMatrix(tuple((f"p{i}", "") for i in range(6)),
                     ("C1", "C2", "C3"), vals)
        grouping = find_cliques(build_graph(m))
        assert mates(grouping, 2) == []
        from perfcast.ridge import ridge_predict
        expected = ridge_predict(m, 5, 2, RunConfig())
        cfg = RunConfig(algorithm="cliques")
        completed, (rows, cols, (codes, names)), _ = complete_matrix(m, cfg)
        assert (rows.tolist(), cols.tolist()) == ([5], [2])
        assert completed.values[5, 2] == expected
        assert names[codes[0]] == "ridge"
        # leave-one-out scores the same cell with it present
        full = m.with_values(completed.values)
        res = leave_one_out(full, cfg).results[0]
        i = ((res.rows == 5) & (res.cols == 2)).argmax()
        assert res.predicted[i] == ridge_predict(full, 5, 2, RunConfig())
        assert res.labels[res.mechanism[i]] == ("ridge", ())
        with pytest.raises(NoBasisError, match="no group estimate"):
            complete_matrix(m, RunConfig(algorithm="cliques",
                                         protocol="in_groups"))
        with pytest.raises(NoBasisError, match="no group estimate"):
            clique_predict(m, grouping, 5, 2)

    def test_cold_row_error(self):
        m = grid([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [None, None]])
        cfg = RunConfig(algorithm="cliques", clique_min_overlap=2)
        with pytest.raises(ColdRowError, match="cold row"):
            complete_matrix(m, cfg)
        # a row whose one observation is the cell left out is cold as well
        one = grid([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [None, 9.0]])
        res = leave_one_out(one, cfg).results[0]
        assert res.n_uncovered == 1
        assert (3, 1) not in zip(res.rows.tolist(), res.cols.tolist())

    def test_target_row_excluded_from_slope(self):
        # the held-out row's own (corrupt) value in the mate column must
        # not leak into the scaling coefficient
        m = grid([
            [1.0, 2.0],
            [2.0, 4.0],
            [3.0, 6.0],
            [1000.0, 2000.0],
        ])
        grouping = find_cliques(build_graph(m, min_overlap=2))
        ests = group_estimates(m, grouping, 3, 1)
        assert ests == [pytest.approx(2000.0)]

    def test_held_out_reconstruction_on_shared_latent(self):
        # every column an exact positive multiple of one latent column
        rng = np.random.default_rng(12)
        latent = rng.uniform(1, 10, 9)
        mults = rng.uniform(0.25, 4, 5)
        m = grid(np.outer(latent, mults).tolist())
        grouping = find_cliques(build_graph(m))
        assert grouping.cliques == ((0, 1, 2, 3, 4),)
        for r in range(m.n_rows):
            for c in range(m.n_cols):
                held = m.with_cell_missing(r, c)
                got = clique_predict(held, grouping, r, c)
                assert got == pytest.approx(m.values[r, c], rel=1e-9)


# clique_block against the per-cell reference. Measured over two runs of
# 1,000 draws of sparse_matrices() with every cell of each draw (14,557
# predicted cells), fallback on and off, with and without the caller's
# ridge results: group-scaling values at most 7.5e-16 relative, ridge
# fallbacks at most 3.1e-15. Coverage, mechanisms and every error type
# and message matched exactly.
CLIQUE_RTOL = 1e-13
RIDGE_RTOL = 1e-10  # test_ridge.RTOL at the default lambda


def cliques_alone(m, threshold=0.97, min_overlap=3):
    """The clique algorithm scored on its own under the default protocol,
    in_groups_plus_regression, for every cell of m in row-major order:
    (values, reasons, mechanisms) from evaluation._predict_cells, the
    observed cells in one call as leave-one-out makes it and the missing
    ones in another as completion does."""
    cfg = RunConfig(algorithm="cliques", clique_threshold=threshold,
                    clique_min_overlap=min_overlap)
    observed = m.present_mask.ravel()
    rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
    values, reasons = np.full(rows.size, np.nan), {}
    mechanisms = [None] * rows.size
    for cells in (np.flatnonzero(observed), np.flatnonzero(~observed)):
        columns, _ = evaluation._predict_cells(
            m, rows[cells], cols[cells], ["cliques"], cfg)
        got, why, code, labels = columns["cliques"]
        values[cells] = got
        reasons.update(zip(cells[list(why)].tolist(), why.values()))
        for i, k in zip(cells.tolist(), code.tolist()):
            mechanisms[i] = labels[k][0]
    return values, reasons, mechanisms


class TestBlockKernel:
    @given(m=sparse_matrices(), threshold=st.sampled_from([0.5, 0.9, 0.97]),
           min_overlap=st.integers(2, 3), fallback=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, m, threshold, min_overlap, fallback):
        # every cell: observed ones as in leave-one-out, missing ones as in
        # completion
        grouping = find_cliques(build_graph(m, threshold, min_overlap))
        rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
        cfg = RunConfig()
        if fallback:
            values, reasons, mechanisms = cliques_alone(m, threshold,
                                                        min_overlap)
        else:
            values, reasons = clique_block(m, grouping, rows, cols)
            mechanisms = ["cliques"] * rows.size
        uncovered = set()
        for i, (row, col) in enumerate(zip(rows, cols)):
            try:
                want = cliques_reference.clique_predict(m, grouping, row, col,
                                                        cfg, fallback)
            except ValueError as exc:
                uncovered.add(i)
                assert np.isnan(values[i])
                assert type(reasons[i]) is type(exc)
                assert str(reasons[i]) == str(exc)
                continue
            mechanism = mechanisms[i]
            assert mechanism == want[1]
            rtol = CLIQUE_RTOL if mechanism == "cliques" else RIDGE_RTOL
            assert values[i] == pytest.approx(want[0], rel=rtol)
            assert group_estimates(m, grouping, row, col) == pytest.approx(
                cliques_reference.group_estimates(m, grouping, row, col),
                rel=CLIQUE_RTOL)
        assert reasons.keys() == uncovered

    @given(m=sparse_matrices(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_scaling_coefficient_matches_reference(self, m, data):
        a = data.draw(st.integers(0, m.n_cols - 1))
        c = data.draw(st.integers(0, m.n_cols - 1))
        row = data.draw(st.none() | st.integers(0, m.n_rows - 1))
        try:
            want = cliques_reference.scaling_coefficient(m, a, c, row)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                slope(m, a, c, row)
            assert str(got.value) == str(exc)
            return
        assert slope(m, a, c, row) == pytest.approx(
            want, rel=CLIQUE_RTOL)

    def test_left_out_row_that_dominates_the_sums(self):
        # row 3's terms are about 1e12 against about 20 left after taking
        # them back out of the pair sums, which would keep only a few
        # digits; those slopes are summed again directly, as the reference
        # sums them
        m = grid([[1.1, 2.3], [2.3, 4.5], [3.7, 7.1], [1e6 + 0.1, 1.3]])
        grouping = find_cliques(build_graph(m, 0.5, 2))
        assert mates(grouping, 1) == [0]
        for row, col in [(3, 1), (3, 0)]:
            assert group_estimates(m, grouping, row, col) == (
                cliques_reference.group_estimates(m, grouping, row, col))
        assert slope(m, 0, 1, exclude_row=3) == (
            cliques_reference.scaling_coefficient(m, 0, 1, exclude_row=3))

    def test_many_spans(self, monkeypatch):
        # a block larger than one pass of the estimates gives every cell
        # the reference's answer; each pass holds one cell
        monkeypatch.setattr(cliques, "_SPAN", 8)
        passes, slopes = [], cliques._slopes

        def one_pass(m, sums, rows, cols, pairs):
            passes.append(rows.size)
            return slopes(m, sums, rows, cols, pairs)

        monkeypatch.setattr(cliques, "_slopes", one_pass)
        m, _, _ = planted_rank1(20, 6, seed=3)
        values = np.array(m.values)
        values *= np.random.default_rng(3).uniform(0.97, 1.0, values.shape)
        values[np.random.default_rng(4).random(values.shape) < 0.3] = np.nan
        m = grid(values.tolist())
        grouping = find_cliques(build_graph(m, 0.9, 3))
        rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
        values, reasons, mechanisms = cliques_alone(m, 0.9, 3)
        assert passes == [1] * rows.size
        assert reasons == {}
        for i, (row, col) in enumerate(zip(rows, cols)):
            want = cliques_reference.clique_predict(m, grouping, row, col)
            assert mechanisms[i] == want[1]
            assert values[i] == pytest.approx(want[0], rel=RIDGE_RTOL)

    def test_memory_stays_bounded(self):
        # the passes bound the temporaries: about 7,000 missing cells of a
        # 300 x 40 matrix, where about a third of the (cell, column)
        # entries are a group mate that the cell's row observes
        m = sparse_matrix((300, 40), 0.4, seed=3, rank=2)
        grouping = find_cliques(build_graph(m, 0.9, 3))
        rows, cols = np.nonzero(~m.present_mask)
        assert rows.size > 6900
        assert (grouping.mates[cols] & m.present_mask[rows]).mean() > 0.3
        tracemalloc.start()
        try:
            values, reasons = clique_block(m, grouping, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reasons) < rows.size / 10
        assert peak < 512_000

    def test_empty_block(self):
        m = grid([[1.0, 2.0], [2.0, 4.0]])
        grouping = find_cliques(build_graph(m, 0.5, 2))
        values, reasons = clique_block(m, grouping, [], [])
        assert values.shape == (0,) and reasons == {}


# clique_block against the earlier grid kernel: the same arithmetic on the
# (cell, mate) pairs alone, so the same values bit for bit and the same
# reasons, for observed cells (as leave-one-out passes them), missing ones
# (as completion does) and every cell in row-major order, one cell per pass
# or all in one. Rows of more than 8 columns are summed in an order that
# depends on where their terms sit. A threshold of None makes one group of
# all columns, so that some mates share no row besides the cell's own.
@given(m=sparse_matrices(max_rows=10, max_cols=20),
       threshold=st.sampled_from([None, 0.5, 0.9, 0.97]),
       min_overlap=st.integers(2, 3), span=st.sampled_from([1, 2**20]))
@settings(max_examples=150, deadline=None)
def test_block_matches_the_grid_oracle(m, threshold, min_overlap, span):
    grouping = find_cliques(~np.eye(m.n_cols, dtype=bool) if threshold is None
                            else build_graph(m, threshold, min_overlap))
    everything = np.ones(m.values.shape, dtype=bool)
    for cells in (m.present_mask, ~m.present_mask, everything):
        rows, cols = np.nonzero(cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cliques, "_SPAN", span)
            got, why = clique_block(m, grouping, rows, cols)
        want, reasons = cliques_reference.grid_block(m, grouping, rows, cols,
                                                     span)
        assert np.array_equal(got, want, equal_nan=True)
        assert why.keys() == reasons.keys()
        for i, exc in reasons.items():
            assert type(why[i]) is type(exc) and str(why[i]) == str(exc)
    for row, col in zip(*np.nonzero(everything)):
        est, valid = cliques_reference.grid_estimates(
            m, grouping, pair_sums(m), np.array([row]), np.array([col]))
        assert group_estimates(m, grouping, row, col) == est[valid].tolist()
