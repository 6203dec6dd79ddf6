"""Run configuration: one flat record covering every tunable, loadable from
a key=value text file with CLI flags taking precedence.

Fraction-valued settings (`fractions`, `outlier_fraction`) are given as
PERCENTAGES in files and flags (e.g. ``fractions = 5,10,20``) and stored
internally in [0, 1). Everything else is passed through as typed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .evaluation import Algorithm, EvalConfig
from .factorization import ALSConfig
from .ridge import RidgeConfig


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = "ensemble"
    protocol: str = "in_groups_plus_regression"
    ridge_lambda: float = 1e-2
    ridge_min_training_rows: int = 3
    clique_threshold: float = 0.97
    clique_min_overlap: int = 3
    als_k: int = 1
    als_lambda: float = 1e-2
    als_max_iters: int = 200
    als_tol: float = 1e-6
    svd_k: int = 1
    svd_max_outer: int = 50
    ensemble: tuple[str, ...] = ("ridge", "cliques", "als")
    seed: int = 0
    repeats: int = 5
    fractions: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30, 0.40, 0.50)
    outlier_fraction: float = 0.10
    outlier_lo: float = 0.0
    outlier_hi: float = 4.0
    threads: int = 1  # accepted for old configs; predictions run serially

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

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "protocol": self.protocol,
            "ridge_lambda": self.ridge_lambda,
            "ridge_min_training_rows": self.ridge_min_training_rows,
            "clique_threshold": self.clique_threshold,
            "clique_min_overlap": self.clique_min_overlap,
            "als_k": self.als_k,
            "als_lambda": self.als_lambda,
            "als_max_iters": self.als_max_iters,
            "als_tol": self.als_tol,
            "svd_k": self.svd_k,
            "svd_max_outer": self.svd_max_outer,
            "ensemble": list(self.ensemble),
            "seed": self.seed,
            "repeats": self.repeats,
            "fractions": list(self.fractions),
            "outlier_fraction": self.outlier_fraction,
            "outlier_lo": self.outlier_lo,
            "outlier_hi": self.outlier_hi,
            "threads": self.threads,
        }


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


def parse_name_list(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise ValueError("empty name list")
    return names


_PARSERS = {
    "algorithm": str,
    "protocol": str,
    "ridge_lambda": float,
    "ridge_min_training_rows": int,
    "clique_threshold": float,
    "clique_min_overlap": int,
    "als_k": int,
    "als_lambda": float,
    "als_max_iters": int,
    "als_tol": float,
    "svd_k": int,
    "svd_max_outer": int,
    "ensemble": parse_name_list,
    "seed": int,
    "repeats": int,
    "fractions": parse_percent_list,
    "outlier_fraction": lambda s: parse_percent_list(s)[0],
    "outlier_lo": float,
    "outlier_hi": float,
    "threads": int,
}

assert set(_PARSERS) == {f.name for f in fields(RunConfig)}


def read_config_file(path) -> dict:
    """Parse a flat key=value file into typed overrides.

    Blank lines and lines starting with # are skipped. Unknown keys are
    errors (typos should not silently fall back to defaults).
    """
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
            if key not in _PARSERS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r} (known: "
                    f"{', '.join(sorted(_PARSERS))})")
            try:
                overrides[key] = _PARSERS[key](value.strip())
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
