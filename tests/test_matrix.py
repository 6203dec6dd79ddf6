"""Data model, ingestion, masking, outlier injection, CSV interchange."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import grid, planted_rank1
from hypothesis import given, settings
from hypothesis import strategies as st

import perfcast
from perfcast import (MaskInfeasibleError, MaskSpec, Observation, PCMatrix,
                      build_matrix, density, inject_outliers, mask_random,
                      read_matrix_csv, read_observations_csv, write_matrix_csv)
from perfcast.matrix import MATRIX_CSV_HEADER


def obs(p, a, c, t):
    return Observation(p, a, c, t)


class TestObservation:
    def test_rejects_empty_ids(self):
        with pytest.raises(ValueError, match="empty id"):
            obs("", "a1", "C1", 1.0)
        with pytest.raises(ValueError, match="empty id"):
            obs("P1", "", "C1", 1.0)
        with pytest.raises(ValueError, match="empty id"):
            obs("P1", "a1", "", 1.0)

    def test_rejects_nonpositive_time_naming_record(self):
        with pytest.raises(ValueError, match="P9"):
            obs("P9", "a1", "C1", 0.0)
        with pytest.raises(ValueError, match="C7"):
            obs("P1", "a1", "C7", -3.0)


class TestBuildMatrix:
    def test_one_row_two_machines(self):
        m = build_matrix([obs("P1", "a1", "C1", 5), obs("P1", "a1", "C2", 10)])
        assert m.row_keys == (("P1", "a1"),)
        assert m.col_keys == ("C1", "C2")
        assert m.values.tolist() == [[5.0, 10.0]]

    def test_duplicates_averaged(self):
        m = build_matrix([obs("P1", "a1", "C1", 4), obs("P1", "a1", "C1", 6)])
        assert m.values.tolist() == [[5.0]]

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no observations"):
            build_matrix([])

    def test_rows_grouped_by_program(self):
        # P1 rows stay adjacent even though P2 appears in between
        m = build_matrix([
            obs("P1", "a1", "C1", 1), obs("P2", "a1", "C1", 2),
            obs("P1", "a2", "C1", 3),
        ])
        assert m.row_keys == (("P1", "a1"), ("P1", "a2"), ("P2", "a1"))

    def test_columns_by_first_appearance(self):
        m = build_matrix([obs("P1", "a1", "C9", 1), obs("P1", "a1", "C1", 2)])
        assert m.col_keys == ("C9", "C1")

    def test_missing_cells_are_nan(self):
        m = build_matrix([obs("P1", "a1", "C1", 1), obs("P2", "a1", "C2", 2)])
        assert math.isnan(m.values[0, 1]) and math.isnan(m.values[1, 0])
        assert m.count_present == 2

    @given(st.permutations(list(range(8))))
    def test_permutation_insensitive_content(self, order):
        base = [obs(f"P{i % 3}", f"a{i % 2}", f"C{i % 4}", float(i + 1))
                for i in range(8)]
        reference = build_matrix(base)
        shuffled = build_matrix([base[i] for i in order])

        def triples(m):
            return sorted(
                (m.row_keys[r], m.col_keys[c], m.values[r, c])
                for r, c in np.argwhere(m.present_mask))

        assert triples(reference) == triples(shuffled)


class TestPCMatrix:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="row keys"):
            PCMatrix((("P", "a"), ("P", "a")), ("C1",), np.ones((2, 1)))
        with pytest.raises(ValueError, match="column keys"):
            PCMatrix((("P", "a"),), ("C1", "C1"), np.ones((1, 2)))

    def test_separator_in_program_id_rejected_by_name(self):
        # ("a::b", "c") would be written as a::b::c and read back as
        # ("a", "b::c")
        with pytest.raises(ValueError, match=r"row \('a::b', 'c'\): program "
                                             r"id contains '::'"):
            PCMatrix((("x", "y"), ("a::b", "c")), ("C1",), np.ones((2, 1)))
        # the args label may hold the separator: the first one splits
        m = PCMatrix((("a", "b::c"),), ("C1",), np.ones((1, 1)))
        assert m.row_label(0) == "a::b::c"

    def test_program_id_ending_in_colon_rejected_by_name(self):
        # ("a:", "b") would be written as a:::b and read back as ("a", ":b")
        with pytest.raises(ValueError, match=r"row \('a:', 'b'\): program "
                                             r"id ends in ':'"):
            PCMatrix((("a:", "b"),), ("x",), [[1.0]])
        with pytest.raises(ValueError, match=r"program id 'a:' ends in ':'"):
            Observation("a:", "b", "C1", 1.0)

    def test_colons_round_trip_where_accepted(self, tmp_path):
        # the ids the rules let through read back as written, colons and all
        keys = (("a", ":b"), (":a", "b:"), ("a:b", "::"), ("a", "b::c"))
        m = PCMatrix(keys, ("x",), [[1.0], [2.0], [3.0], [4.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        assert read_matrix_csv(path).row_keys == keys

    def test_nonpositive_cell_rejected(self):
        with pytest.raises(ValueError,
                           match=r"cell \(p0::a0, C2\) holds 0\.0"):
            grid([[1.0, 0.0]])

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_cell_rejected_by_name(self, value):
        # NaN alone marks a missing cell; an infinity is not read as one
        with pytest.raises(ValueError, match=rf"cell \(p1::a1, C2\) holds "
                                             rf"{value!r}"):
            grid([[1.0, None], [2.0, value]])

    def test_values_write_protected(self):
        m = grid([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            m.present_mask[0, 0] = False  # one mask shared by every caller

    def test_with_cell_missing(self):
        m = grid([[1.0, 2.0], [3.0, 4.0]])
        out = m.with_cell_missing(0, 1)
        assert math.isnan(out.values[0, 1])
        assert m.values[0, 1] == 2.0  # original untouched
        with pytest.raises(ValueError, match="already missing"):
            out.with_cell_missing(0, 1)


class TestDensity:
    def test_full(self):
        assert density(grid([[1, 2], [3, 4]])) == 1.0

    def test_one_missing(self):
        assert density(grid([[1, 2], [3, None]])) == 0.75


class TestMaskRandom:
    def test_fraction_zero_is_identity(self):
        m = grid([[1, 2], [3, 4]])
        masked, held = mask_random(m, MaskSpec(0.0, 1))
        assert held.shape == (0, 2) and held.dtype == np.intp
        assert np.array_equal(masked.values, m.values)

    def test_counts_and_density(self):
        m, _, _ = planted_rank1(10, 10, seed=0)
        masked, held = mask_random(m, MaskSpec(0.2, 7))
        assert len(held) == 20
        assert density(masked) == pytest.approx(0.8)

    def test_same_seed_same_output(self):
        m, _, _ = planted_rank1(10, 10, seed=0)
        _, h1 = mask_random(m, MaskSpec(0.3, 42))
        _, h2 = mask_random(m, MaskSpec(0.3, 42))
        assert np.array_equal(h1, h2)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.6))
    @settings(max_examples=60, deadline=None)
    def test_held_array_rebuilds_the_matrix(self, seed, fraction):
        m, _, _ = planted_rank1(7, 9, seed=3)
        m = m.with_cell_missing(0, 0).with_cell_missing(4, 2)
        try:
            masked, held = mask_random(m, MaskSpec(fraction, seed))
        except MaskInfeasibleError:
            return
        k = math.floor(fraction * m.count_present + 0.5)
        assert held.dtype == np.intp and held.shape == (k, 2)
        cells = list(map(tuple, held.tolist()))
        assert len(set(cells)) == k
        # in draw order: a subsequence of the seeded permutation
        present = np.argwhere(m.present_mask)
        order = np.random.default_rng(seed).permutation(len(present))
        position = {tuple(present[i].tolist()): n
                    for n, i in enumerate(order)}
        drawn = [position[cell] for cell in cells]
        assert drawn == sorted(drawn)
        rows, cols = held.T
        assert m.present_mask[rows, cols].all()
        assert np.isnan(masked.values[rows, cols]).all()
        vals = np.array(masked.values)
        vals[rows, cols] = m.values[rows, cols]
        np.testing.assert_array_equal(vals, m.values)
        assert masked.count_present == m.count_present - k

    def test_heldout_values_true(self):
        m = grid([[1, 2], [3, 4]])
        masked, held = mask_random(m, MaskSpec(0.25, 0))
        ((r, c),) = held.tolist()
        assert m.present_mask[r, c]
        assert math.isnan(masked.values[r, c])

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.8))
    @settings(max_examples=60, deadline=None)
    def test_no_empty_rows_or_columns(self, seed, fraction):
        m, _, _ = planted_rank1(6, 5, seed=1)
        try:
            masked, _ = mask_random(m, MaskSpec(fraction, seed))
        except MaskInfeasibleError:
            return
        assert masked.present_mask.any(axis=1).all()
        assert masked.present_mask.any(axis=0).all()

    def test_infeasible_fraction(self):
        m = grid([[1, 2], [3, 4]])
        # keeping every row and column non-empty needs >= 2 of 4 cells
        with pytest.raises(MaskInfeasibleError, match="mask infeasible"):
            mask_random(m, MaskSpec(0.75, 0))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            MaskSpec(1.0, 0)
        with pytest.raises(ValueError):
            MaskSpec(-0.1, 0)


class TestInjectOutliers:
    def test_fraction_zero_noop(self):
        m = grid([[1, 2], [3, 4]])
        assert np.array_equal(inject_outliers(m, 0.0, 0, 4, 1).values,
                              m.values)

    def test_missingness_preserved_and_bounds(self):
        m, _, _ = planted_rank1(8, 6, seed=2)
        masked, _ = mask_random(m, MaskSpec(0.3, 9))
        out = inject_outliers(masked, 0.5, 0, 4, 11)
        assert np.array_equal(out.present_mask, masked.present_mask)
        ratio = out.values / masked.values
        changed = np.abs(ratio - 1) > 1e-15
        present_ratio = ratio[masked.present_mask]
        assert np.all(present_ratio[np.isfinite(present_ratio)] < 4)
        assert changed[masked.present_mask].sum() <= round(
            0.5 * masked.count_present)

    def test_scaled_count(self):
        m, _, _ = planted_rank1(10, 10, seed=4)
        out = inject_outliers(m, 0.1, 2, 3, 5)  # interval away from 1
        ratio = out.values / m.values
        assert int(np.sum(np.abs(ratio - 1) > 1e-12)) == 10
        scaled = ratio[np.abs(ratio - 1) > 1e-12]
        assert np.all((scaled > 2) & (scaled < 3))

    def test_deterministic(self):
        m, _, _ = planted_rank1(5, 5, seed=6)
        a = inject_outliers(m, 0.2, 0, 10, 77)
        b = inject_outliers(m, 0.2, 0, 10, 77)
        assert np.array_equal(a.values, b.values)

    def test_invalid_interval(self):
        m = grid([[1.0]])
        with pytest.raises(ValueError, match="interval"):
            inject_outliers(m, 0.1, 3, 2, 0)
        with pytest.raises(ValueError, match=r"invalid interval \(0, inf\)"):
            inject_outliers(m, 0.1, 0, math.inf, 0)

    def test_overflowing_product_names_the_cell(self):
        # a finite interval can still scale a time past the largest float
        m = grid([[1e300]])
        with pytest.raises(ValueError, match=r"scales cell \(p0::a0, C1\) "
                                             r"past the largest float"):
            inject_outliers(m, 1.0, 0, 1e308, 0)

    def test_product_that_always_underflows_names_the_cell(self):
        # 1e-320 times any factor below 1e-6 rounds to 0: re-drawing would
        # never end, so the cell is refused
        m = grid([[2.0, 1e-320]])
        with pytest.raises(ValueError, match=r"scales cell \(p0::a0, C2\) "
                                             r"to zero"):
            inject_outliers(m, 1.0, 0, 1e-6, 0)
        # where the largest factor keeps the product positive, draws that
        # underflow are re-drawn
        out = inject_outliers(grid([[1e-320]]), 1.0, 0, 1e-3, 0)
        assert 0 < out.values[0, 0] < 1e-320 * 1e-3

    def test_redraw_ends_where_few_factors_keep_the_product(self):
        # 1e-320 times a factor below about 2.47e-4 rounds to 0. With hi 4
        # ulps above that, only a sliver of (0, hi) keeps the product
        # positive, and re-drawing from the whole interval would not end;
        # the call runs in a child process so that such a loop fails the
        # test at the timeout instead of hanging it
        code = (
            "import math, numpy as np\n"
            "from perfcast import PCMatrix, inject_outliers\n"
            "hi = 0.0002470355731225299\n"
            "for _ in range(4):\n"
            "    hi = math.nextafter(hi, 1)\n"
            "m = PCMatrix([('p', 'a')], ['m1'], np.array([[1e-320]]))\n"
            "for lo in (0.0, -0.0):\n"
            "    for seed in range(20):\n"
            "        v = inject_outliers(m, 1.0, lo, hi, seed).values[0, 0]\n"
            "        assert 0 < v <= 1e-320 * hi, v\n"
        )
        src = str(Path(perfcast.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)


class TestObservationsCsv:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("program,args,machine,seconds\n"
                     "P1,a1,C1,5.5\n"
                     "P1,a1,C2,10\n")
        rows = read_observations_csv(p)
        assert [(o.program_id, o.arg_label, o.machine_id, o.time)
                for o in rows] == [("P1", "a1", "C1", 5.5),
                                   ("P1", "a1", "C2", 10.0)]

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("program,args,machine,seconds,cpu,ram\n"
                     "P1,a1,C1,5.5,8,64\n")
        assert read_observations_csv(p)[0].time == 5.5

    def test_missing_header_names_expected(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("prog,machine,seconds\nP1,C1,5\n")
        with pytest.raises(ValueError, match="program,args,machine,seconds"):
            read_observations_csv(p)

    def test_bad_value_reports_line_number(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("program,args,machine,seconds\n"
                     "P1,a1,C1,5\n"
                     "P1,a1,C2,fast\n")
        with pytest.raises(ValueError, match=":3"):
            read_observations_csv(p)

    @pytest.mark.parametrize("seconds", ["inf", "nan", "-inf"])
    def test_non_finite_time_reports_line_number(self, tmp_path, seconds):
        p = tmp_path / "obs.csv"
        p.write_text("program,args,machine,seconds\n"
                     "P1,a1,C1,5\n"
                     f"P1,a1,C2,{seconds}\n")
        with pytest.raises(ValueError, match=r"obs\.csv:3: non-finite time"):
            read_observations_csv(p)


def reference_write_matrix_csv(m, path):
    """The earlier per-cell write_matrix_csv, which read each cell as a
    numpy scalar; the oracle for the row-at-a-time writer."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([MATRIX_CSV_HEADER, *m.col_keys])
        for i in range(m.n_rows):
            row = [m.row_label(i)]
            for j in range(m.n_cols):
                v = m.values[i, j]
                row.append("" if not np.isfinite(v) else repr(float(v)))
            writer.writerow(row)


def row_write_matrix_csv(m, path):
    """The earlier writer, one csv row of Python floats per matrix row;
    the oracle for the writer that formats a row's values at once."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([MATRIX_CSV_HEADER, *m.col_keys])
        for i, values in enumerate(m.values.tolist()):
            writer.writerow([m.row_label(i), *(
                repr(v) if math.isfinite(v) else "" for v in values)])


# Label text that csv quotes: commas, quotes and line breaks.
label_text = st.text(st.sampled_from('ab ,"\'\r\n;:\\'), max_size=6)

cell_values = st.one_of(
    st.sampled_from([math.nan, 5e-324, 1e16, 1.5e-7, 2.5e-300, 0.1, 1.0]),
    st.floats(min_value=5e-324, allow_infinity=False, allow_nan=False))


class TestMatrixCsv:
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(cell_values, min_size=n, max_size=n), min_size=1,
        max_size=4)))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_per_cell_reference(self, tmp_path_factory,
                                               values):
        keys = [("prog", f'a,{i} "q"') for i in range(len(values))]
        m = PCMatrix(keys, [f"host {j}" for j in range(len(values[0]))],
                     np.array(values))
        d = tmp_path_factory.mktemp("csv")
        write_matrix_csv(m, d / "got.csv")
        reference_write_matrix_csv(m, d / "want.csv")
        assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()

    @given(data=st.data(), n_rows=st.integers(1, 4),
           n_cols=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_the_row_writer(self, tmp_path_factory, data,
                                           n_rows, n_cols):
        # labels that need quoting, a missing cell in the first and in the
        # last column, maybe a row with none observed, and floats whose
        # repr has an exponent
        values = np.array(data.draw(st.lists(
            st.lists(cell_values, min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows)))
        values[data.draw(st.integers(0, n_rows - 1)), 0] = math.nan
        values[data.draw(st.integers(0, n_rows - 1)), -1] = math.nan
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, n_rows - 1))] = math.nan
        programs = label_text.filter(lambda p: "::" not in p
                                     and not p.endswith(":"))
        keys = [(f"{i}{data.draw(programs)}", data.draw(label_text))
                for i in range(n_rows)]
        m = PCMatrix(keys, [f"{j}{data.draw(label_text)}"
                            for j in range(n_cols)], values)
        d = tmp_path_factory.mktemp("csv")
        write_matrix_csv(m, d / "got.csv")
        row_write_matrix_csv(m, d / "want.csv")
        assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()

    def test_roundtrip_bit_exact(self, tmp_path):
        m, _, _ = planted_rank1(6, 4, seed=8)
        masked, _ = mask_random(m, MaskSpec(0.25, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(masked, path)
        back = read_matrix_csv(path)
        assert back.row_keys == masked.row_keys
        assert back.col_keys == masked.col_keys
        assert np.array_equal(back.present_mask, masked.present_mask)
        assert np.array_equal(back.values[back.present_mask],
                              masked.values[masked.present_mask])

    def test_header_cell(self, tmp_path):
        m = grid([[1.5, None]], row_keys=[("bench", "-n 2")],
                 col_keys=["hostA", "hostB"])
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "program::args,hostA,hostB"
        assert lines[1] == "bench::-n 2,1.5,"

    def test_bad_matrix_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("rowkey,C1\nP1::a1,2.0\n")
        with pytest.raises(ValueError, match="program::args"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("program::args,C1,C2\nP1::a1,2.0,\nP2::a1,1.0,\nP1::a1,3.0,\n",
         r"m\.csv:4: duplicate row key 'P1::a1', first on line 2"),
        ("program::args,C1,C2,C1\nP1::a1,2.0,,1.0\n",
         r"m\.csv:1: duplicate machine column 'C1'"),
    ])
    def test_duplicate_key_names_file_line_and_key(self, tmp_path, text,
                                                   message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_matrix_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line_number(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"program::args,C1,C2\nP1::a1,2.0,\nP2::a1,{cell},1.0\n")
        with pytest.raises(ValueError, match=r"m\.csv:3: non-finite cell"):
            read_matrix_csv(path)
