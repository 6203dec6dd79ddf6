"""Placement decisions and batch scheduling over a completed matrix."""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from conftest import grid
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcast import (PlacementDecision, greedy_place, schedule_batch,
                      write_matrix_csv)
from perfcast.cli import main
from perfcast.placement import place_rows


def completed(values, col_keys=None):
    return grid(values, col_keys=col_keys)


def reference_greedy_place(completed, row, ranking=None):
    """The earlier one-row placement, run once per row; the oracle for
    the batched place_rows and for `place`'s output."""
    times = completed.values[row]
    present = completed.present_mask[row]
    program, args = completed.row_keys[row]
    if not present.any():
        if not ranking:
            raise ValueError(
                f"cold row {completed.row_label(row)}: no predictions and "
                f"no machine ranking supplied")
        machine = ranking[0]
        if machine not in completed.col_keys:
            raise ValueError(f"ranked machine {machine!r} is not a column "
                             f"of the matrix")
        return PlacementDecision(program, args, machine, None,
                                 "cold_row_ranked_fastest")
    if not present.all():
        raise ValueError(f"row {completed.row_label(row)} is only partially "
                         f"predicted; complete the matrix first")
    by_key = np.array(sorted(range(completed.n_cols),
                             key=completed.col_keys.__getitem__))
    best = by_key[np.argmin(times[by_key])]
    return PlacementDecision(program, args, completed.col_keys[best],
                             float(times[best]), "min_predicted")


def reference_place_rows(completed, rows, ranking=None):
    """The per-row loop that `place` ran: every row decided in order, the
    first that cannot be placed raising."""
    return [reference_greedy_place(completed, r, ranking) for r in rows]


def outcome(place, *args):
    """What place(*args) returns, or the type and message it raises."""
    try:
        return place(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# Few distinct times, so that rows tie often, and machine ids whose
# string order is neither their column order nor their numeric order
# ("C10" before "C2").
MACHINES = ["C1", "C2", "C10", "b", "a:1"]


@st.composite
def placement_cases(draw):
    """(matrix, rows, ranking): rows fully predicted, cold or partly
    predicted, a requested subset of them in any order, and no ranking,
    an empty one, one led by a column, or one led by an unknown id."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    keys = draw(st.permutations(MACHINES))[:n_cols]
    vals = np.array(draw(st.lists(st.lists(
        st.sampled_from([1.0, 2.0, 3.0]), min_size=n_cols,
        max_size=n_cols), min_size=n_rows, max_size=n_rows)))
    for r in range(n_rows):
        kind = draw(st.sampled_from(["full", "full", "full", "cold",
                                     "partial"]))
        if kind == "cold":
            vals[r] = np.nan
        elif kind == "partial" and n_cols > 1:
            vals[r, draw(st.integers(0, n_cols - 1))] = np.nan
    rows = draw(st.permutations(range(n_rows)))
    rows = rows[:draw(st.integers(0, n_rows))]
    ranking = draw(st.sampled_from(
        [None, [], list(reversed(keys)), ["Cx", *keys]]))
    return grid(vals.tolist(), col_keys=keys), rows, ranking


class TestPlaceRows:
    @given(placement_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_loop(self, case):
        m, rows, ranking = case
        want = outcome(reference_place_rows, m, rows, ranking)
        assert outcome(place_rows, m, rows, ranking) == want
        for r in rows:
            assert (outcome(greedy_place, m, r, ranking)
                    == outcome(reference_greedy_place, m, r, ranking))

    @pytest.mark.parametrize("rows,message", [
        ([0, 0], r"row p0::a0 \(0\) is listed twice"),
        ([1, 0, 1], r"row p1::a1 \(1\) is listed twice"),
        ([-1], r"row -1 is out of range for a matrix of 2 rows"),
        ([5], r"row 5 is out of range for a matrix of 2 rows"),
    ])
    def test_bad_row_index_refused(self, rows, message):
        m = completed([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match=message):
            place_rows(m, rows)
        with pytest.raises(ValueError, match=message):
            schedule_batch(m, rows)
        if len(rows) == 1:
            with pytest.raises(ValueError, match=message):
                greedy_place(m, rows[0])

    @given(placement_cases(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_cli_prints_the_per_row_decisions(self, tmp_path_factory, case,
                                              schedule):
        # `place` and `place --schedule` print, through json.dumps, what
        # the per-row loop and the independent schedule trace decide, or
        # nothing when a row cannot be placed
        m, rows, _ = case
        if not rows:
            return  # --rows names at least one program
        path = tmp_path_factory.mktemp("place") / "c.csv"
        write_matrix_csv(m, path)
        argv = ["place", str(path), "--rows",
                ",".join(m.row_label(r) for r in rows)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv + ["--schedule"] if schedule else argv)
        try:
            lines = (reference_schedule_lines(m, rows) if schedule else
                     [d.to_json() for d in reference_place_rows(m, rows)])
        except ValueError as exc:
            assert (status, out.getvalue(), err.getvalue()) == (
                1, "", f"error: {exc}\n")
        else:
            assert (status, err.getvalue()) == (0, "")
            assert out.getvalue() == "".join(
                json.dumps(line, sort_keys=True) + "\n" for line in lines)


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


def reference_schedule_lines(completed, rows):
    """The lines `place --schedule` printed: each machine's rows, in
    column order, from the independent trace, then the makespan."""
    for r in rows:
        if not completed.present_mask[r].all():
            raise ValueError(f"row {completed.row_label(r)} is not fully "
                             f"predicted")
    assignment, makespan = greedy_oracle(completed.values.tolist(), rows,
                                         completed.col_keys)
    program_args = completed.row_keys
    return [{"program": program_args[r][0], "args": program_args[r][1],
             "machine": c, "predicted_seconds": float(completed.values[r, j])}
            for j, c in enumerate(completed.col_keys)
            for r in assignment[c]] + [{"makespan": makespan}]


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
