"""Run configuration: one flat record covering every tunable, loadable from
a key=value text file with CLI flags taking precedence.

Each tunable is declared once, as a `RunConfig` field whose metadata holds
the parser for its flag and config-file value, the names it accepts (if it
is a choice: one tuple of plain strings) and its flag help; the CLI flags,
the config-file keys and every echo of the settings come from these fields.
`RunConfig` is also the one settings record the evaluation drivers and
the ridge and ALS kernels take: each reads the fields it needs by their
flag names. Every setting's type and range are checked when a `RunConfig`
is made, and the message names its key, so a bad value fails before any
input is read. `check_algorithms` holds a sweep's list to the same rules.

Fraction-valued settings (`fractions`, `outlier_fraction`) are given as
PERCENTAGES in files and flags (e.g. ``fractions = 5,10,20``) and stored
internally in [0, 1). Everything else is passed through as typed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields


def parse_percent_list(text: str) -> tuple[float, ...]:
    """"5,10,20" -> (0.05, 0.10, 0.20). Values must lie in [0, 100)."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        value = float(part)
        if not (0 <= value < 100):
            raise ValueError(f"percentage out of range [0, 100): {part}")
        out.append(value / 100.0)
    if not out:
        raise ValueError("empty percentage list")
    return tuple(out)


def parse_percent(text: str) -> float:
    """"10" -> 0.10. Exactly one value in [0, 100)."""
    values = parse_percent_list(text)
    if len(values) != 1:
        raise ValueError(f"expected one percentage, got {text!r}")
    return values[0]


def parse_name_list(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise ValueError("empty name list")
    return names


_ALGORITHMS = ("ridge", "cliques", "als", "svd", "ensemble")
# svd is a sweep-only baseline: complete, evaluate and ensemble refuse it
_FILLERS = tuple(a for a in _ALGORITHMS if a != "svd")
_MEMBERS = tuple(a for a in _FILLERS if a != "ensemble")
_PROTOCOLS = ("in_groups", "in_groups_plus_regression")


def _one_of(names: tuple[str, ...]):
    def choice(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text
    return choice


def distinct(names, what: str):
    """names, which must hold no name twice: one would count twice."""
    if len(set(names)) < len(names):
        raise ValueError(f"{what} must be distinct, got {', '.join(names)}")
    return names


def check_algorithms(names) -> tuple[str, ...]:
    """names as a tuple of distinct algorithms, at least one: the rules of
    --algorithms, which the library sweeps apply to their list too."""
    names = tuple(map(_one_of(_ALGORITHMS), names))
    if not names:
        raise ValueError("empty algorithm list")
    return distinct(names, "algorithms")


def parse_algorithms(text: str) -> tuple[str, ...]:
    """"ridge,ensemble" -> ("ridge", "ensemble"): distinct algorithms."""
    return check_algorithms(parse_name_list(text))


def parse_ensemble(text: str) -> tuple[str, ...]:
    """"ridge,als" -> ("ridge", "als"); each must be ridge, cliques or
    als."""
    return tuple(map(_one_of(_MEMBERS), parse_name_list(text)))


def _typed(kind: str, value) -> bool:
    """Whether value fits a RunConfig annotation: a bool is no number, and
    a bare string or number is no tuple."""
    item = kind.removeprefix("tuple[").removesuffix(", ...]")
    if item != kind:
        return (isinstance(value, (tuple, list))
                and all(_typed(item, v) for v in value))
    if kind == "str":
        return isinstance(value, str)
    return (isinstance(value, numbers.Integral if kind == "int"
                       else numbers.Real) and not isinstance(value, bool))


def _tunable(default, parse=None, choices=None, help=None):
    """A RunConfig field: its default, the parser of its flag and file value
    (by default: one of `choices`), and its flag help."""
    return field(default=default, metadata={
        "parse": parse or _one_of(choices), "choices": choices, "help": help})


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = _tunable("ensemble", choices=_FILLERS)
    # an ensemble's clique member adds only its in-group estimates
    protocol: str = _tunable(
        "in_groups_plus_regression", choices=_PROTOCOLS,
        help="how cliques, scored on its own, treats a cell group scaling "
        "cannot reach: in_groups leaves it uncovered (complete stops at "
        "it); in_groups_plus_regression gives it ridge's value where its "
        "row observes another machine")
    ridge_lambda: float = _tunable(1e-2, float)
    ridge_min_training_rows: int = _tunable(3, int)
    clique_threshold: float = _tunable(0.97, float)
    clique_min_overlap: int = _tunable(3, int)
    als_k: int = _tunable(1, int)
    als_lambda: float = _tunable(1e-2, float)
    als_max_iters: int = _tunable(200, int)
    als_tol: float = _tunable(1e-6, float)
    svd_k: int = _tunable(1, int)
    ensemble: tuple[str, ...] = _tunable(
        ("ridge", "cliques", "als"), parse_ensemble,
        help="comma-separated ensemble members")
    seed: int = _tunable(0, int)
    repeats: int = _tunable(5, int)
    fractions: tuple[float, ...] = _tunable(
        (0.05, 0.10, 0.20, 0.30, 0.40, 0.50), parse_percent_list,
        help="comma-separated mask PERCENTAGES, e.g. 5,10,20")
    outlier_fraction: float = _tunable(
        0.10, parse_percent, help="PERCENTAGE of training cells to corrupt")
    outlier_lo: float = _tunable(0.0, float)
    outlier_hi: float = _tunable(4.0, float)
    threads: int = _tunable(1, int)  # ignored; predictions run serially

    def __post_init__(self):
        for f in fields(self):
            if not _typed(f.type, getattr(self, f.name)):
                raise ValueError(f"{f.name} must be of type {f.type}, got "
                                 f"{getattr(self, f.name)!r}")
            if f.metadata["choices"]:  # checked as its flag and file value
                f.metadata["parse"](getattr(self, f.name))
        for ok, problem in [
            # ridge's: at 0, rank-deficient cells have no one answer, and
            # at inf, a solve gives NaN
            (0 < self.ridge_lambda < float("inf"), f"ridge_lambda must be "
             f"positive and finite, got {self.ridge_lambda}"),
            (self.ridge_min_training_rows >= 2, f"ridge_min_training_rows "
             f"must be at least 2, got {self.ridge_min_training_rows}"),
            (self.als_k >= 1, f"als_k must be >= 1, got {self.als_k}"),
            # ALS's: at 0, a row seen fewer than K times is singular, and
            # at inf, every factor is 0
            (0 < self.als_lambda < float("inf"), f"als_lambda must be "
             f"positive and finite, got {self.als_lambda}"),
            (self.als_max_iters >= 1,
             f"als_max_iters must be >= 1, got {self.als_max_iters}"),
            (0 < self.als_tol < float("inf"),
             f"als_tol must be positive and finite, got {self.als_tol}"),
            (self.seed >= 0, f"seed must be nonnegative, got {self.seed}"),
            (self.repeats >= 1, f"repeats must be >= 1, got {self.repeats}"),
            (bool(self.fractions), "fractions must not be empty"),
            (all(0 <= f < 1 for f in self.fractions),
             f"fractions must be in [0, 1), got {list(self.fractions)}"),
            (0 <= self.outlier_fraction < 1, f"outlier_fraction must be in "
             f"[0, 1), got {self.outlier_fraction}"),
            (self.svd_k >= 1, f"svd_k must be >= 1, got {self.svd_k}"),
            (0 < self.clique_threshold <= 1, f"clique_threshold must be in "
             f"(0, 1], got {self.clique_threshold}"),
            (self.clique_min_overlap >= 2, f"clique_min_overlap must be at "
             f"least 2, got {self.clique_min_overlap}"),
            (0 <= self.outlier_lo < self.outlier_hi < float("inf"),
             f"outlier interval must be finite with 0 <= outlier_lo < "
             f"outlier_hi, got [{self.outlier_lo}, {self.outlier_hi}]"),
            (bool(self.ensemble) and all(a in _MEMBERS for a in self.ensemble),
             f"ensemble members must be some of {', '.join(_MEMBERS)}, got "
             f"{', '.join(self.ensemble) or 'none'}"),
            (self.threads >= 1, f"threads must be >= 1, got {self.threads}"),
        ]:
            if not ok:
                raise ValueError(problem)
        distinct(self.ensemble, "ensemble members")


def read_config_file(path) -> dict:
    """Parse a flat key=value file into typed overrides.

    Blank lines and lines starting with # are skipped. Unknown keys,
    repeated keys and values their field's parser rejects are errors naming
    the line (typos should not silently fall back to defaults).
    """
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
    overrides, first_line = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, "
                                 f"got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in parsers:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r} (known: "
                    f"{', '.join(sorted(parsers))})")
            if first_line.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already "
                                 f"set on line {first_line[key]}")
            try:
                overrides[key] = parsers[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for "
                                 f"{key}: {exc}") from exc
    return overrides


def make_run_config(file_overrides: dict, flag_overrides: dict) -> RunConfig:
    """Defaults, then config file values, then explicit CLI flags."""
    merged = {}
    merged.update(file_overrides)
    merged.update({k: v for k, v in flag_overrides.items() if v is not None})
    return RunConfig(**merged)
