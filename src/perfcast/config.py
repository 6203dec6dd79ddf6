"""Run configuration: one flat record covering every tunable, loadable from
a key=value text file with CLI flags taking precedence.

Each tunable is declared once, as a `RunConfig` field whose metadata holds
the parser for its flag and config-file value, the names it accepts (if it
is a choice) and its flag help; the CLI flags, the config-file keys and the
`run_config` echo all come from these fields.

Fraction-valued settings (`fractions`, `outlier_fraction`) are given as
PERCENTAGES in files and flags (e.g. ``fractions = 5,10,20``) and stored
internally in [0, 1). Everything else is passed through as typed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .evaluation import Algorithm, CliqueProtocol, EvalConfig
from .factorization import ALSConfig
from .ridge import RidgeConfig


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


_ALGORITHMS = tuple(a.value for a in Algorithm)
_PROTOCOLS = tuple(p.value for p in CliqueProtocol)


def _one_of(names: tuple[str, ...]):
    def choice(text: str) -> str:  # argparse: "invalid choice value: ..."
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text
    return choice


def parse_ensemble(text: str) -> tuple[str, ...]:
    """"ridge,als" -> ("ridge", "als"); every name must be an algorithm."""
    return tuple(map(_one_of(_ALGORITHMS), parse_name_list(text)))


def _tunable(default, parse=None, choices=None, help=None):
    """A RunConfig field: its default, the parser of its flag and file value
    (by default: one of `choices`), and its flag help."""
    return field(default=default, metadata={
        "parse": parse or _one_of(choices), "choices": choices, "help": help})


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = _tunable("ensemble", choices=_ALGORITHMS)
    protocol: str = _tunable("in_groups_plus_regression", choices=_PROTOCOLS,
                             help="clique scoring protocol for leave-one-out")
    ridge_lambda: float = _tunable(1e-2, float)
    ridge_min_training_rows: int = _tunable(3, int)
    clique_threshold: float = _tunable(0.97, float)
    clique_min_overlap: int = _tunable(3, int)
    als_k: int = _tunable(1, int)
    als_lambda: float = _tunable(1e-2, float)
    als_max_iters: int = _tunable(200, int)
    als_tol: float = _tunable(1e-6, float)
    svd_k: int = _tunable(1, int)
    svd_max_outer: int = _tunable(50, int)
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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def to_eval_config(self) -> EvalConfig:
        return EvalConfig(
            ridge=RidgeConfig(lam=self.ridge_lambda,
                              min_training_rows=self.ridge_min_training_rows),
            als=ALSConfig(k=self.als_k, lam=self.als_lambda,
                          max_iters=self.als_max_iters, tol=self.als_tol,
                          seed=self.seed),
            clique_threshold=self.clique_threshold,
            clique_min_overlap=self.clique_min_overlap,
            svd_k=self.svd_k,
            svd_max_outer=self.svd_max_outer,
            ensemble=tuple(Algorithm(name) for name in self.ensemble),
        )


def read_config_file(path) -> dict:
    """Parse a flat key=value file into typed overrides.

    Blank lines and lines starting with # are skipped. Unknown keys and
    values their field's parser rejects are errors naming the line (typos
    should not silently fall back to defaults).
    """
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
    overrides = {}
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
