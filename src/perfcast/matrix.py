"""Timing matrix data model and the masking utilities built on it.

The central object is a programs-by-machines matrix of observed execution
times: one row per (program, argument-set) pair, one column per machine,
NaN for cells that were never observed. Everything downstream (regression,
clique scaling, factorization, the evaluation harness) reads this matrix
and never mutates it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

import numpy as np

ROW_KEY_SEP = "::"
MATRIX_CSV_HEADER = "program" + ROW_KEY_SEP + "args"
OBSERVATIONS_HEADER = ("program", "args", "machine", "seconds")
PREDICTION_FLOOR = 1e-9  # a predicted time is floored at this positive epsilon


def _program_id_problem(program_id: str) -> str | None:
    """What keeps a program id out of a row key, or None. Keys are split
    on the first ``::``, so the id may not contain it, nor end in ``:``:
    ("a:", "b") would be written as a:::b and read back as ("a", ":b")."""
    if ROW_KEY_SEP in program_id:
        return (f"contains {ROW_KEY_SEP!r}, which separates program from "
                f"args in matrix row keys")
    if program_id.endswith(":"):
        return (f"ends in ':', which would run into the {ROW_KEY_SEP!r} "
                f"that separates program from args in matrix row keys")
    return None


class MaskInfeasibleError(ValueError):
    """Requested mask cannot be drawn without emptying a row or column."""


@dataclass(frozen=True)
class Observation:
    """One log record: a program ran with some arguments on some machine."""

    program_id: str
    arg_label: str
    machine_id: str
    time: float

    def __post_init__(self):
        if not self.program_id or not self.arg_label or not self.machine_id:
            raise ValueError(
                f"observation has an empty id: "
                f"({self.program_id!r}, {self.arg_label!r}, {self.machine_id!r})"
            )
        problem = _program_id_problem(self.program_id)
        if problem:
            raise ValueError(f"program id {self.program_id!r} {problem}")
        if not math.isfinite(self.time):
            raise ValueError(
                f"non-finite time {self.time!r} for program {self.program_id!r} "
                f"args {self.arg_label!r} on machine {self.machine_id!r}"
            )
        if not (self.time > 0):
            raise ValueError(
                f"non-positive time {self.time!r} for program {self.program_id!r} "
                f"args {self.arg_label!r} on machine {self.machine_id!r}"
            )


@dataclass(frozen=True, eq=False)
class PCMatrix:
    """Immutable N x M timing matrix with NaN marking missing cells.

    ``row_keys`` are (program_id, arg_label) pairs, ``col_keys`` machine ids.
    The value array is float64 and write-protected, and so is the
    ``present_mask`` computed from it once; operations that "change" the
    matrix return a new instance.
    """

    row_keys: tuple[tuple[str, str], ...]
    col_keys: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        object.__setattr__(self, "row_keys", tuple((p, a) for p, a in self.row_keys))
        object.__setattr__(self, "col_keys", tuple(self.col_keys))
        if len(self.row_keys) < 1 or len(self.col_keys) < 1:
            raise ValueError("matrix needs at least one row and one column")
        if len(set(self.row_keys)) != len(self.row_keys):
            raise ValueError("duplicate row keys")
        for key in self.row_keys:  # a label that would split elsewhere
            problem = _program_id_problem(key[0])
            if problem:
                raise ValueError(f"row {key!r}: program id {problem}")
        if len(set(self.col_keys)) != len(self.col_keys):
            raise ValueError("duplicate column keys")
        if vals.shape != (len(self.row_keys), len(self.col_keys)):
            raise ValueError(
                f"value shape {vals.shape} does not match "
                f"{len(self.row_keys)} rows x {len(self.col_keys)} columns"
            )
        bad = np.argwhere(~(np.isnan(vals) | (vals > 0) & (vals < np.inf)))
        if bad.size:
            r, c = bad[0]
            raise ValueError(f"cell ({self.row_label(r)}, {self.col_keys[c]}) "
                             f"holds {float(vals[r, c])!r}; execution times "
                             f"must be positive and finite, NaN if missing")
        present = np.isfinite(vals)
        vals.flags.writeable = False
        present.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_present", present)

    @property
    def n_rows(self) -> int:
        return len(self.row_keys)

    @property
    def n_cols(self) -> int:
        return len(self.col_keys)

    @property
    def present_mask(self) -> np.ndarray:
        return self._present

    @property
    def count_present(self) -> int:
        return int(self._present.sum())

    def with_cell_missing(self, row: int, col: int) -> "PCMatrix":
        if not self.present_mask[row, col]:
            raise ValueError(f"cell ({row}, {col}) is already missing")
        vals = np.array(self.values)
        vals[row, col] = np.nan
        return PCMatrix(self.row_keys, self.col_keys, vals)

    def with_values(self, vals: np.ndarray) -> "PCMatrix":
        return PCMatrix(self.row_keys, self.col_keys, vals)

    def row_label(self, row: int) -> str:
        p, a = self.row_keys[row]
        return p + ROW_KEY_SEP + a


@dataclass(frozen=True)
class MaskSpec:
    """How much to hide and with which seed; draws are reproducible."""

    fraction: float
    seed: int

    def __post_init__(self):
        if not (0 <= self.fraction < 1):
            raise ValueError(f"mask fraction must be in [0, 1), got {self.fraction}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def build_matrix(observations: Iterable[Observation]) -> PCMatrix:
    """Assemble the timing matrix from raw observations.

    Rows are grouped by program (programs in order of first appearance,
    argument sets in order of first appearance within each program);
    columns follow machine first appearance. Repeated observations of the
    same cell are averaged.
    """
    obs = list(observations)
    if not obs:
        raise ValueError("no observations")

    # dicts keep first appearance: programs, args within each, machines
    args_by_prog: dict[str, dict[str, None]] = {}
    col_index: dict[str, int] = {}
    sums: dict[tuple[str, str, str], float] = {}
    counts: dict[tuple[str, str, str], int] = {}

    for o in obs:
        args_by_prog.setdefault(o.program_id, {})[o.arg_label] = None
        col_index.setdefault(o.machine_id, len(col_index))
        key = (o.program_id, o.arg_label, o.machine_id)
        sums[key] = sums.get(key, 0.0) + o.time
        counts[key] = counts.get(key, 0) + 1

    row_keys = [(p, a) for p, args in args_by_prog.items() for a in args]
    row_index = {rk: i for i, rk in enumerate(row_keys)}
    vals = np.full((len(row_keys), len(col_index)), np.nan)
    for (p, a, c), s in sums.items():
        vals[row_index[(p, a)], col_index[c]] = s / counts[(p, a, c)]
    return PCMatrix(tuple(row_keys), tuple(col_index), vals)


def density(m: PCMatrix) -> float:
    """Fraction of cells that hold an observed time."""
    return m.count_present / (m.n_rows * m.n_cols)


def mask_random(m: PCMatrix, spec: MaskSpec) -> tuple[PCMatrix, np.ndarray]:
    """Hide round(fraction * present) cells uniformly at random; returns the
    masked matrix and the held-out cells as a (k, 2) intp array of (row,
    col) pairs in draw order.

    Picks that would empty a row or column are re-drawn; if the target
    count cannot be reached this way the mask is infeasible. The draw is a
    seeded PCG64 permutation of the present cells walked in order, which is
    equivalent to sampling without replacement with re-draws (a cell that
    becomes un-removable never becomes removable again).
    """
    present = np.argwhere(m.present_mask)
    k = _round_half_up(spec.fraction * len(present))
    if k == 0:
        return m, present[:0]

    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(present))
    row_counts = m.present_mask.sum(axis=1)
    col_counts = m.present_mask.sum(axis=0)

    drawn: list[int] = []
    for idx in order.tolist():
        if len(drawn) == k:
            break
        r, c = present[idx]
        if row_counts[r] < 2 or col_counts[c] < 2:
            continue
        drawn.append(idx)
        row_counts[r] -= 1
        col_counts[c] -= 1
    if len(drawn) < k:
        raise MaskInfeasibleError(
            f"mask infeasible: wanted {k} cells but only {len(drawn)} can be "
            f"removed without emptying a row or column"
        )
    held = present[drawn]
    vals = np.array(m.values)
    vals[held[:, 0], held[:, 1]] = np.nan
    return m.with_values(vals), held


def inject_outliers(
    m: PCMatrix, fraction: float, lo: float, hi: float, seed: int
) -> PCMatrix:
    """Multiply a random subset of present cells by draws from (lo, hi).

    round(fraction * present) cells are chosen without replacement; each is
    scaled by an independent uniform draw from the open interval. A draw
    that lands on the boundary or whose product underflows to zero is
    re-drawn once, from above the least factor that keeps the product
    positive, so the result stays a valid matrix with the same missingness
    pattern;
    a cell that every draw scales to zero, or a product that overflows, is
    an error naming the cell.
    """
    if not (0 <= fraction <= 1):
        raise ValueError(f"outlier fraction must be in [0, 1], got {fraction}")
    if not (0 <= lo < hi < math.inf):
        raise ValueError(f"invalid interval ({lo}, {hi})")
    present = np.argwhere(m.present_mask)
    k = _round_half_up(fraction * len(present))
    if k == 0:
        return m

    rng = np.random.default_rng(seed)
    chosen = rng.permutation(len(present))[:k]
    vals = np.array(m.values)
    for idx in chosen:
        r, c = present[idx]
        value = float(vals[r, c])
        if value * math.nextafter(hi, lo) == 0:
            raise ValueError(f"every outlier factor below {hi!r} scales cell "
                             f"({m.row_label(r)}, {m.col_keys[c]}) to zero; "
                             f"raise the outlier interval")
        u = rng.uniform(lo, hi)
        if not (u > lo and value * u > 0):  # re-drawn from where both hold
            u = rng.uniform(_least_factor(value, lo, hi), hi)
        scaled = value * u
        if scaled == math.inf:
            raise ValueError(f"outlier factor {u!r} scales cell "
                             f"({m.row_label(r)}, {m.col_keys[c]}) past the "
                             f"largest float; lower the outlier interval")
        vals[r, c] = scaled
    return m.with_values(vals)


def _least_factor(value: float, lo: float, hi: float) -> float:
    """The least float above lo that scales a positive value to a positive
    product, given that the float below hi does: a bisection on the bit
    patterns, which order non-negative floats."""
    a, b = np.array([lo, hi]).view(np.int64).tolist()
    while b - a > 1:
        mid = (a + b) // 2
        if value * float(np.int64(mid).view(np.float64)) > 0:
            b = mid
        else:
            a = mid
    return float(np.int64(b).view(np.float64))


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def read_observations_csv(path) -> list[Observation]:
    """Read the observation log format: header program,args,machine,seconds.

    Extra columns (resource counters and the like) are ignored. Raises with
    the offending line number on malformed input, including non-finite
    times and program ids containing ``::``.
    """
    observations = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected header "
                             f"{','.join(OBSERVATIONS_HEADER)}")
        missing = [c for c in OBSERVATIONS_HEADER if c not in reader.fieldnames]
        if missing:
            raise ValueError(
                f"{path}: missing required column(s) {missing}; expected header "
                f"{','.join(OBSERVATIONS_HEADER)}"
            )
        for rec in reader:
            line = reader.line_num
            try:
                seconds = float(rec["seconds"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}:{line}: cannot parse seconds value {rec['seconds']!r}"
                ) from None
            try:
                observations.append(
                    Observation(rec["program"] or "", rec["args"] or "",
                                rec["machine"] or "", seconds)
                )
            except ValueError as e:
                raise ValueError(f"{path}:{line}: {e}") from None
    return observations


def write_matrix_csv(m: PCMatrix, path) -> None:
    """Write the matrix: first column program::args, then one column per
    machine, empty string for missing cells. A row's values are written at
    once, from the repr of their list, in which a missing cell is nan."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow([MATRIX_CSV_HEADER, *m.col_keys])
        label = []  # the csv line of a row label alone
        quote = csv.writer(SimpleNamespace(write=label.append))
        for i, values in enumerate(m.values.tolist()):
            quote.writerow([m.row_label(i)])
            f.write(label.pop()[:-2] + ","  # the label less its "\r\n"
                    + repr(values)[1:-1].replace(", ", ",").replace("nan", "")
                    + "\r\n")


def read_matrix_csv(path) -> PCMatrix:
    """Read a matrix written by write_matrix_csv.

    Row keys are split on the first ``::``, so program ids must not
    contain that separator. Missing cells are empty; a non-finite value is
    an error, and so is a repeated row key or machine column, named with
    its line.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0] != MATRIX_CSV_HEADER:
            raise ValueError(
                f"{path}: expected first header cell {MATRIX_CSV_HEADER!r}, "
                f"got {header[0]!r}" if header else f"{path}: empty header"
            )
        col_keys = tuple(header[1:])
        if len(set(col_keys)) != len(col_keys):
            repeat = next(k for i, k in enumerate(col_keys)
                          if k in col_keys[:i])
            raise ValueError(f"{path}:1: duplicate machine column {repeat!r}")
        key_line = {}  # each row key's line, in file order
        rows = []
        for rec in reader:
            if not rec:
                continue
            line = reader.line_num
            if len(rec) != len(col_keys) + 1:
                raise ValueError(
                    f"{path}:{line}: expected {len(col_keys) + 1} fields, got {len(rec)}"
                )
            if ROW_KEY_SEP not in rec[0]:
                raise ValueError(f"{path}:{line}: row key {rec[0]!r} lacks "
                                 f"{ROW_KEY_SEP!r} separator")
            key = tuple(rec[0].split(ROW_KEY_SEP, 1))
            if key_line.setdefault(key, line) != line:
                raise ValueError(f"{path}:{line}: duplicate row key "
                                 f"{rec[0]!r}, first on line {key_line[key]}")
            vals = []
            for cell in rec[1:]:
                if cell == "":
                    vals.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{line}: cannot parse cell value {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{line}: non-finite cell value "
                                     f"{cell!r}; leave missing cells empty")
                vals.append(value)
            rows.append(vals)
    return PCMatrix(tuple(key_line), col_keys, np.array(rows))
