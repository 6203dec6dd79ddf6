"""Placement decisions and batch scheduling over a completed matrix."""

import itertools

import numpy as np
import pytest
from conftest import grid
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast import greedy_place, schedule_batch


def completed(values, col_keys=None):
    return grid(values, col_keys=col_keys)


class TestGreedyPlace:
    def test_argmin(self):
        m = completed([[5.0, 3.0, 9.0]], col_keys=("C1", "C2", "C3"))
        d = greedy_place(m, 0)
        assert (d.machine, d.predicted) == ("C2", 3.0)
        assert d.rationale == "min_predicted"

    def test_tie_goes_to_smallest_id(self):
        m = completed([[3.0, 3.0]], col_keys=("C1", "C2"))
        assert greedy_place(m, 0).machine == "C1"
        m2 = completed([[3.0, 3.0]], col_keys=("C2", "C1"))
        assert greedy_place(m2, 0).machine == "C1"

    def test_cold_row_uses_ranking(self):
        m = completed([[1.0, 2.0, 3.0], [None, None, None]],
                      col_keys=("C1", "C2", "C3"))
        d = greedy_place(m, 1, ranking=["C3", "C1", "C2"])
        assert d.machine == "C3"
        assert d.predicted is None
        assert d.rationale == "cold_row_ranked_fastest"

    def test_cold_row_without_ranking(self):
        m = completed([[1.0, 2.0], [None, None]])
        with pytest.raises(ValueError, match="cold row"):
            greedy_place(m, 1)

    def test_partial_row_rejected(self):
        m = completed([[1.0, None, 3.0]])
        with pytest.raises(ValueError, match="partially"):
            greedy_place(m, 0)

    def test_unknown_ranked_machine_rejected(self):
        m = completed([[1.0, 2.0], [None, None]])
        with pytest.raises(ValueError, match="not a column"):
            greedy_place(m, 1, ranking=["Cx"])

    @given(st.integers(0, 10 ** 6), st.floats(1e-3, 1e3))
    @settings(max_examples=80, deadline=None)
    def test_row_scaling_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        m = completed(rng.uniform(0.5, 50, (3, 5)).tolist())
        baseline = greedy_place(m, 1).machine
        vals = np.array(m.values)
        vals[1] *= alpha
        scaled = completed(vals.tolist())
        assert greedy_place(scaled, 1).machine == baseline


def greedy_oracle(times, rows, col_keys):
    """Independent trace of the scheduling rule, dict based."""
    loads = {c: 0.0 for c in col_keys}
    out = {c: [] for c in col_keys}
    remaining = sorted(rows, key=lambda r: -min(times[r]))
    for r in remaining:
        best = None
        for j, c in enumerate(col_keys):
            key = (loads[c] + times[r][j], c)
            if best is None or key < best[0]:
                best = (key, c, j)
        _, c, j = best
        loads[c] += times[r][j]
        out[c].append(r)
    return out, max(loads.values())


class TestScheduleBatch:
    def test_single_program(self):
        m = completed([[5.0, 3.0]], col_keys=("C1", "C2"))
        assignment, makespan = schedule_batch(m, [0])
        assert assignment == {"C1": [], "C2": [0]}
        assert makespan == 3.0

    def test_two_identical_programs_balance(self):
        m = completed([[4.0, 4.0], [4.0, 4.0]], col_keys=("C1", "C2"))
        assignment, makespan = schedule_batch(m, [0, 1])
        assert makespan == 4.0
        assert sorted(len(v) for v in assignment.values()) == [1, 1]

    def test_empty_batch(self):
        m = completed([[1.0, 2.0]])
        assignment, makespan = schedule_batch(m, [])
        assert makespan == 0.0
        assert all(v == [] for v in assignment.values())

    def test_matches_independent_trace_3x2(self):
        vals = [[4.0, 7.0], [6.0, 3.0], [5.0, 5.0]]
        m = completed(vals, col_keys=("C1", "C2"))
        assignment, makespan = schedule_batch(m, [0, 1, 2])
        oracle_assign, oracle_makespan = greedy_oracle(vals, [0, 1, 2],
                                                       ("C1", "C2"))
        assert assignment == oracle_assign
        assert makespan == oracle_makespan
        # and the greedy makespan is one of the enumerable assignments
        all_makespans = set()
        for choice in itertools.product(range(2), repeat=3):
            loads = [0.0, 0.0]
            for r, j in enumerate(choice):
                loads[j] += vals[r][j]
            all_makespans.add(max(loads))
        assert makespan in all_makespans

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_trace_random(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.5, 20, (4, 3)).round(3).tolist()
        m = completed(vals)
        rows = list(range(4))
        assignment, makespan = schedule_batch(m, rows)
        oracle_assign, oracle_makespan = greedy_oracle(vals, rows, m.col_keys)
        assert assignment == oracle_assign
        assert makespan == pytest.approx(oracle_makespan, rel=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_ties_go_to_the_smallest_id_in_any_column_order(self, seed):
        # few distinct times, so that loads tie often, and machine ids out
        # of column order and of numeric order ("C10" before "C2")
        rng = np.random.default_rng(seed)
        vals = rng.integers(1, 4, (6, 5)).astype(float).tolist()
        keys = tuple(rng.permutation(["C1", "C2", "C10", "b", "a:1"]).tolist())
        m = completed(vals, col_keys=keys)
        rows = list(range(6))
        assert schedule_batch(m, rows) == greedy_oracle(vals, rows, keys)
        for r in rows:
            d = greedy_place(m, r)
            assert (d.predicted, d.machine) == min(zip(vals[r], keys))

    def test_lower_bounds(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            vals = rng.uniform(0.5, 30, (5, 4))
            m = completed(vals.tolist())
            rows = list(range(5))
            assignment, makespan = schedule_batch(m, rows)
            assert makespan >= max(vals.min(axis=1)) - 1e-12
            assigned_total = sum(
                vals[r, j] for j, c in enumerate(m.col_keys)
                for r in assignment[c])
            assert makespan >= assigned_total / m.n_cols - 1e-12

    def test_single_row_equals_greedy_place(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = completed(rng.uniform(1, 9, (3, 4)).tolist())
            decision = greedy_place(m, 2)
            assignment, makespan = schedule_batch(m, [2])
            assert assignment[decision.machine] == [2]
            assert makespan == decision.predicted

    def test_partially_predicted_row_rejected(self):
        m = completed([[1.0, None], [2.0, 3.0]])
        with pytest.raises(ValueError, match="not fully predicted"):
            schedule_batch(m, [0, 1])
