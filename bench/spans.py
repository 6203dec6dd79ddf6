"""Tracing from outside the package: spans around perfcast's layer calls.

`install` replaces each layer-boundary function with a wrapper everywhere
perfcast binds it (`evaluation` and `cliques` import names directly, so
patching only the defining module would miss their calls). A span is
[name, start, end, parent, info]; spans stay in memory and are written
once when the run ends. `layer_metrics` turns one invocation's spans into
the per-layer numbers. The recorder keeps one call stack, so it assumes the
program runs single-threaded, as the benchmark runs it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

ROOT_SPAN = "invocation"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, annotate=None):
        """Return fn wrapped to record a span; annotate(result) -> info."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(result)
            return result

        return traced

    def root(self, fn, *args):
        """Run fn(*args) under a root span that groups one invocation."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _fit_info(model) -> dict:
    return {"iters": len(model.train_rmse_history),
            "max_iters": model.config.get("max_iters")}


# (module, function, annotate) at each layer boundary.
WRAPPED = (
    ("matrix", "read_matrix_csv", None),
    ("matrix", "write_matrix_csv", None),
    ("matrix", "mask_random", None),
    ("ridge", "ridge_predict", None),
    ("cliques", "build_graph", None),
    ("cliques", "find_cliques", lambda g: {"n_cliques": len(g.cliques)}),
    ("cliques", "group_estimates", lambda ests: {"n": len(ests)}),
    ("cliques", "clique_predict", None),
    ("factorization", "als_fit", _fit_info),
    ("factorization", "svd_fit", _fit_info),
    ("factorization", "predict", None),
    ("evaluation", "leave_one_out", None),
    ("evaluation", "masking_sweep", None),
    ("evaluation", "complete_matrix", None),
    ("evaluation", "write_reports_json", None),
    ("evaluation", "write_reports_csv", None),
    ("placement", "greedy_place", None),
    ("placement", "schedule_batch", None),
    ("cli", "main", None),
)

# Evaluation drivers: their self time is `evaluation.self_s`.
DRIVERS = ("evaluation.leave_one_out", "evaluation.masking_sweep",
           "evaluation.complete_matrix")


def install(tracer: Tracer) -> None:
    """Wrap every WRAPPED function wherever perfcast binds it, and
    PCMatrix.with_cell_missing on the class."""
    import perfcast.cli  # noqa: F401  (loads every perfcast module)
    from perfcast.matrix import PCMatrix

    modules = [mod for name, mod in sys.modules.items()
               if name == "perfcast" or name.startswith("perfcast.")]
    for module_name, attr, annotate in WRAPPED:
        original = getattr(sys.modules["perfcast." + module_name], attr)
        wrapper = tracer.wrap(f"{module_name}.{attr}", original, annotate)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
    PCMatrix.with_cell_missing = tracer.wrap(
        "matrix.with_cell_missing", PCMatrix.with_cell_missing)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def invocations(spans) -> list[list]:
    """Split a run's spans into one re-indexed span list per root span."""
    groups: list[list] = []
    index: dict[int, tuple[int, int]] = {}  # old index -> (group, new index)
    for i, span in enumerate(spans):
        name, start, end, parent, info = span
        if parent < 0:
            groups.append([])
            g, new_parent = len(groups) - 1, -1
        else:
            g, new_parent = index[parent]
        index[i] = (g, len(groups[g]))
        groups[g].append([name, start, end, new_parent, info])
    return groups


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[k]


def layer_metrics(spans, cells: int) -> dict[str, float]:
    """Per-layer numbers for one invocation's spans; `cells` is the count
    of distinct cells the invocation predicts."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    durations = defaultdict(list)
    info = defaultdict(list)
    for span, own in zip(spans, selfs):
        name, start, end, _, extra = span
        calls[name] += 1
        total[name] += end - start
        self_total[name] += own
        durations[name].append(end - start)
        if extra:
            info[name].append(extra)

    def errors(name, kind):
        return sum(1 for x in info[name] if x.get("error") == kind)

    def fit_stats(name):
        fits = [x for x in info[name] if "iters" in x]
        return (sum(x["iters"] for x in fits),
                sum(1 for x in fits if x["iters"] == x["max_iters"]))

    ridge = "ridge.ridge_predict"
    ridge_us = sorted(d * 1e6 for d in durations[ridge])
    ridge_fallback = sum(
        1 for s in spans if s[0] == ridge and s[3] >= 0
        and spans[s[3]][0] == "cliques.clique_predict")
    estimates = [x["n"] for x in info["cliques.group_estimates"] if "n" in x]
    als_iters, als_not_converged = fit_stats("factorization.als_fit")
    svd_iters, _ = fit_stats("factorization.svd_fit")

    return {
        "ridge.ridge_predict.calls": calls[ridge],
        "ridge.ridge_predict.self_s": self_total[ridge],
        "ridge.ridge_predict.p50_us": _percentile(ridge_us, 0.50),
        "ridge.ridge_predict.p99_us": _percentile(ridge_us, 0.99),
        "ridge.no_basis.calls": errors(ridge, "NoBasisError"),
        "ridge.calls_per_cell": calls[ridge] / cells,
        "matrix.with_cell_missing.calls": calls["matrix.with_cell_missing"],
        "matrix.with_cell_missing.s": total["matrix.with_cell_missing"],
        "matrix.read_matrix_csv.s": total["matrix.read_matrix_csv"],
        "matrix.write_matrix_csv.s": total["matrix.write_matrix_csv"],
        "matrix.mask_random.calls": calls["matrix.mask_random"],
        "matrix.mask_random.s": total["matrix.mask_random"],
        "cliques.build_graph.s": total["cliques.build_graph"],
        "cliques.find_cliques.s": total["cliques.find_cliques"],
        "cliques.n_cliques": sum(x.get("n_cliques", 0)
                                 for x in info["cliques.find_cliques"]),
        "cliques.group_estimates.calls": calls["cliques.group_estimates"],
        "cliques.group_estimates.self_s":
            self_total["cliques.group_estimates"],
        "cliques.covered_ratio": (sum(1 for n in estimates if n > 0)
                                  / len(estimates) if estimates else 0.0),
        "cliques.ridge_fallback.calls": ridge_fallback,
        "factorization.als_fit.calls": calls["factorization.als_fit"],
        "factorization.als_fit.s": total["factorization.als_fit"],
        "factorization.als_fit.iters_total": als_iters,
        "factorization.als_fit.not_converged": als_not_converged,
        "factorization.als_fit.unfactorable": errors(
            "factorization.als_fit", "UnfactorableError"),
        "factorization.svd_fit.calls": calls["factorization.svd_fit"],
        "factorization.svd_fit.s": total["factorization.svd_fit"],
        "factorization.svd_fit.iters_total": svd_iters,
        "factorization.predict.calls": calls["factorization.predict"],
        "evaluation.self_s": sum(self_total[d] for d in DRIVERS),
        "evaluation.write_reports_json.s":
            total["evaluation.write_reports_json"],
        "evaluation.write_reports_csv.s":
            total["evaluation.write_reports_csv"],
        "cli.self_s": self_total["cli.main"],
        "placement.greedy_place.calls": calls["placement.greedy_place"],
        "placement.schedule_batch.s": total["placement.schedule_batch"],
    }


def self_time_by_span(spans) -> dict[str, float]:
    """Total self time per span name."""
    out = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] += own
    return dict(out)


def median_over(tables: list[dict]) -> dict[str, float]:
    """Per-key median over invocations; a key one of them lacks counts 0."""
    keys = dict.fromkeys(k for table in tables for k in table)
    return {k: statistics.median(t.get(k, 0) for t in tables) for k in keys}
