"""Correlation graph, greedy clique search, and scaling-based prediction."""

import math

import cliques_reference
import numpy as np
import pytest
from conftest import grid, planted_rank1, sparse_matrices
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast import (ColdRowError, NoBasisError, PCMatrix, RidgeConfig,
                      SimilarityGraph, build_graph, clique_predict, cliques,
                      correlations, find_cliques, group_estimates,
                      grouping_to_json, pearson, scaling_coefficient)
from perfcast.cliques import clique_block
from perfcast.ridge import ridge_block


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


def edge_set(g):
    """The graph's edges as (i, j) pairs, i < j."""
    return frozenset(zip(*(a.tolist() for a in np.nonzero(
        np.triu(g.adjacent)))))


def mates(grouping, vertex):
    return np.flatnonzero(grouping.mates[vertex]).tolist()


class TestPearson:
    def test_exact_proportional(self):
        m = two_columns([1, 2, 3], [2, 4, 6])
        assert pearson(m, 0, 1) == 1.0

    def test_exact_negative(self):
        m = two_columns([1, 2, 3], [3, 2, 1])
        assert pearson(m, 0, 1) == -1.0

    def test_matches_textbook_formula(self):
        x, y = [1, 2, 3, 4], [1.1, 1.9, 3.2, 3.8]
        m = two_columns(x, y)
        assert pearson(m, 0, 1) == pytest.approx(pearson_oracle(x, y),
                                                 rel=1e-12)

    def test_undefined_below_min_overlap(self):
        m = grid([[1, 2], [2, 4], [3, None]])
        assert pearson(m, 0, 1, min_overlap=3) is None
        assert pearson(m, 0, 1, min_overlap=2) == 1.0

    def test_undefined_zero_variance(self):
        m = two_columns([5, 5, 5], [1, 2, 3])
        assert pearson(m, 0, 1) is None

    def test_pairwise_complete_rows_only(self):
        # rows where either column is missing must not contribute
        m = grid([[1, 2], [2, 4], [3, 6], [9, None], [None, 1]])
        assert pearson(m, 0, 1) == 1.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = two_columns(rng.uniform(0.1, 50, 6), rng.uniform(0.1, 50, 6))
        assert pearson(m, 0, 1) == pearson(m, 1, 0)

    @given(st.integers(0, 10 ** 6),
           st.floats(0.01, 100), st.floats(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_positive_affine_invariance(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 50, 6)
        y = rng.uniform(0.1, 50, 6)
        r0 = pearson(two_columns(x, y), 0, 1)
        r1 = pearson(two_columns(alpha * x + beta, y), 0, 1)
        if r0 is None or r1 is None:
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


def graph(n, edges, threshold=0.97, min_overlap=3):
    adjacent = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adjacent[i, j] = adjacent[j, i] = True
    return SimilarityGraph(adjacent, threshold, min_overlap)


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
        for a in range(m.n_cols):
            for b in range(m.n_cols):
                assert pearson(m, a, b, min_overlap) == (
                    None if np.isnan(got[a, b]) else got[a, b])

    def test_rows_far_from_the_column_mean(self):
        # C1's three rows shared with C2 sit about 765 from C1's mean but
        # span 3e-3, so the mean term is some 1e11 times what remains; the
        # pair is summed again directly, as the reference sums it
        m = grid([[float(v), None] for v in range(1, 11)]
                 + [[1000.0, 5.0], [1000.001, 6.0], [1000.003, 8.0]])
        want = cliques_reference.pearson(m, 0, 1)
        assert abs(correlations(m)[0, 1] - want) <= R_ATOL
        assert pearson(m, 1, 0) == pearson(m, 0, 1)

    @given(m=offset_matrices(), min_overlap=st.integers(2, 4),
           threshold=st.sampled_from([0.5, 0.9, 0.97, 0.99, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_graph(self, m, min_overlap, threshold):
        g = build_graph(m, threshold, min_overlap)
        assert not g.adjacent.diagonal().any()
        assert np.array_equal(g.adjacent, g.adjacent.T)
        want = cliques_reference.edges(m, threshold, min_overlap)
        for a in range(m.n_cols):
            for b in range(a + 1, m.n_cols):
                r = cliques_reference.pearson(m, a, b, min_overlap)
                if r is None or abs(abs(r) - threshold) > 1e-9:
                    assert g.adjacent[a, b] == ((a, b) in want)

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
        assert scaling_coefficient(two_columns([1, 2], [2, 4]), 0, 1) == 2.0

    def test_constant_columns(self):
        assert scaling_coefficient(two_columns([1, 1], [3, 3]), 0, 1) == 3.0

    def test_matches_direct_formula(self):
        x, y = [1, 2, 3], [2.1, 3.9, 6.2]
        oracle = math.fsum(a * b for a, b in zip(x, y)) / math.fsum(
            a * a for a in x)
        got = scaling_coefficient(two_columns(x, y), 0, 1)
        assert got == pytest.approx(oracle, rel=1e-15)
        assert got == pytest.approx(28.5 / 14.0, rel=1e-15)

    def test_reciprocal_exact_for_binary_ratio(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 9, 7)
        m = two_columns(x, 2 * x)
        assert (scaling_coefficient(m, 0, 1) *
                scaling_coefficient(m, 1, 0)) == 1.0

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 10))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_property_proportional(self, seed, ratio):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.3, 9, 7)
        m = two_columns(x, ratio * x)
        product = (scaling_coefficient(m, 0, 1) *
                   scaling_coefficient(m, 1, 0))
        assert product == pytest.approx(1.0, rel=1e-12)

    def test_exclude_row(self):
        m = two_columns([1, 2, 100], [2, 4, 1])
        assert scaling_coefficient(m, 0, 1, exclude_row=2) == 2.0


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
        got, mechanism = clique_predict(m, grouping, 3, 1, RidgeConfig())
        assert got == pytest.approx(14.0, abs=1e-9)
        assert mechanism == "cliques"

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
        got, _ = clique_predict(m, grouping, 3, 2, RidgeConfig())
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
        from perfcast import ridge_predict
        expected = ridge_predict(m, 5, 2, RidgeConfig())
        assert clique_predict(m, grouping, 5, 2, RidgeConfig()) == (expected,
                                                                   "ridge")
        with pytest.raises(NoBasisError, match="no group estimate"):
            clique_predict(m, grouping, 5, 2, RidgeConfig(), fallback=False)

    def test_cold_row_error(self):
        m = grid([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [None, None]])
        grouping = find_cliques(build_graph(m, min_overlap=2))
        with pytest.raises(ColdRowError, match="cold row"):
            clique_predict(m, grouping, 3, 0, RidgeConfig())

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
                got, _ = clique_predict(held, grouping, r, c, RidgeConfig())
                assert got == pytest.approx(m.values[r, c], rel=1e-9)


class TestGroupingExport:
    def test_json_shape(self):
        m, _, _ = planted_rank1(6, 4, seed=1)
        grouping = find_cliques(build_graph(m, threshold=0.97, min_overlap=3))
        data = grouping_to_json(grouping, m.col_keys, 0.97, 3)
        assert data["threshold"] == 0.97
        assert data["min_overlap"] == 3
        assert data["cliques"] == [["c00", "c01", "c02", "c03"]]


# clique_block against the per-cell reference. Measured over two runs of
# 1,000 draws of sparse_matrices() with every cell of each draw (14,557
# predicted cells), fallback on and off, with and without the caller's
# ridge results: group-scaling values at most 7.5e-16 relative, ridge
# fallbacks at most 3.1e-15. Coverage, mechanisms and every error type
# and message matched exactly.
CLIQUE_RTOL = 1e-13
RIDGE_RTOL = 1e-10  # test_ridge.RTOL at the default lambda


class TestBlockKernel:
    @given(m=sparse_matrices(), threshold=st.sampled_from([0.5, 0.9, 0.97]),
           min_overlap=st.integers(2, 3), fallback=st.booleans(),
           reuse=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, m, threshold, min_overlap, fallback,
                               reuse):
        # every cell: observed ones as in leave-one-out, missing ones as in
        # completion
        grouping = find_cliques(build_graph(m, threshold, min_overlap))
        rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
        cfg = RidgeConfig()
        ridge = ridge_block(m, rows, cols, cfg) if reuse else None
        values, reasons, via_ridge = clique_block(m, grouping, rows, cols,
                                                  cfg, fallback, ridge)
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
            mechanism = "ridge" if via_ridge[i] else "cliques"
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
                scaling_coefficient(m, a, c, row)
            assert str(got.value) == str(exc)
            return
        assert scaling_coefficient(m, a, c, row) == pytest.approx(
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
        assert scaling_coefficient(m, 0, 1, exclude_row=3) == (
            cliques_reference.scaling_coefficient(m, 0, 1, exclude_row=3))

    def test_many_spans(self, monkeypatch):
        # a block larger than one pass of the estimates gives every cell
        # the reference's answer
        monkeypatch.setattr(cliques, "_SPAN", 8)
        m, _, _ = planted_rank1(20, 6, seed=3)
        values = np.array(m.values)
        values *= np.random.default_rng(3).uniform(0.97, 1.0, values.shape)
        values[np.random.default_rng(4).random(values.shape) < 0.3] = np.nan
        m = grid(values.tolist())
        grouping = find_cliques(build_graph(m, 0.9, 3))
        rows, cols = np.nonzero(np.ones(m.values.shape, dtype=bool))
        values, reasons, via_ridge = clique_block(m, grouping, rows, cols)
        assert reasons == {}
        for i, (row, col) in enumerate(zip(rows, cols)):
            want = cliques_reference.clique_predict(m, grouping, row, col)
            assert ("ridge" if via_ridge[i] else "cliques") == want[1]
            assert values[i] == pytest.approx(want[0], rel=RIDGE_RTOL)

    def test_empty_block(self):
        m = grid([[1.0, 2.0], [2.0, 4.0]])
        grouping = find_cliques(build_graph(m, 0.5, 2))
        values, reasons, via_ridge = clique_block(m, grouping, [], [])
        assert values.shape == via_ridge.shape == (0,) and reasons == {}
