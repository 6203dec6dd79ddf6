#!/usr/bin/env python3
"""perfcast benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

The seed makes the run's input matrices; the program sees only their CSV
files. With --trace 0 one worker process runs the workload for S seconds
untraced and the end-to-end metrics are reported. With --trace 1 an
untraced worker and then a traced one get S/2 seconds each, and the
per-layer metrics are reported. Times are scaled by a reference loop timed
around each invocation (see REFERENCE_S). Every invocation's outputs are
checked. The last line of standard output is one JSON object: correct,
attempted, failed (cells of invocations that failed a check, plus cells
left uncovered) and metrics. The line before it is a JSON record with the
inputs' sha256, the environment, the raw times and extra figures.
`--workload all` runs each workload in turn and ends with a table instead.
README.md documents the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import (INPUT_CSV, MAKE_SYNTHETIC, ROOT, SRC, WORKLOADS,
                       input_seeds)

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
# Times are reported in seconds at the machine speed at which the
# reference loop (worker.reference_s) takes REFERENCE_S, about its median
# on the development machine. README.md says why.
REFERENCE_S = 0.060
WORKER_TIMEOUT_S = 170
# Pinned in every process that runs perfcast code.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"cells_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "mean_rel_error": "ratio"}


def _env() -> dict:
    return {**os.environ, **WORKER_ENV}


def _worker(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=_env(), stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "nproc": os.cpu_count(),
            "cpu": _cpu_model()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import check

    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = _write_inputs(workload, seed, workdir)
        cells = [workload.cells(obs) for _, obs, _ in inputs]
        predictions = [workload.predictions(obs) for _, obs, _ in inputs]
        setup = []  # (seconds, reference seconds) per fresh process
        if not trace:
            probe_csv = str(workdir / "untraced" / "m0" / INPUT_CSV)
            setup = [json.loads(_worker("probe", probe_csv).stdout)
                     for _ in range(SETUP_PROBES)]
        budget = seconds / 2 if trace else seconds
        workers = [_run_worker(workdir / "untraced", name, budget, False)]
        if trace:
            workers.append(_run_worker(workdir / "traced", name, budget, True))

        attempted = failed = 0
        problems = []
        first = {}  # input index -> verdict on its first outputs
        for w in workers:
            verdicts = {}
            for i, sub in w["kept"].items():
                truth, observed, _ = inputs[int(i) % len(inputs)]
                verdicts[int(i)] = check(workload, w["dir"] / sub,
                                         observed, truth)
            for i, error in enumerate(w["failures"]):
                j = i % len(inputs)
                # identical bytes get the verdict of the first outputs
                verdict = verdicts.get(i, verdicts[j])
                first.setdefault(j, verdicts[j])
                attempted += cells[j]
                if error or verdict.problems:
                    failed += cells[j]
                    problems.extend([error] if error else verdict.problems)
                else:
                    failed += verdict.uncovered
        if trace and workers[1]["hashes"] != workers[0]["hashes"]:
            problems.append("traced outputs differ from untraced outputs")

        untraced = workers[0]
        wall = statistics.median(_scaled_walls(untraced))
        regret = _mean(v.placement_regret for v in first.values())
        record = {
            "workload": name, "seed": seed, "trace": int(trace),
            "input_seeds": input_seeds(seed),
            "input_sha256": [digest for _, _, digest in inputs],
            "input_shape": [inputs[0][1].n_rows, inputs[0][1].n_cols],
            "cells_per_input": cells,
            "invocations": len(untraced["walls"]),
            "walls_s": untraced["walls"],
            "references_s": untraced["references"],
            "wall_raw_s": statistics.median(untraced["walls"]),
            "reference_s": statistics.median(untraced["references"]),
            "setup_probes_s": setup,
            "failed_frac": failed / attempted,
            "placement_regret": regret,
            "environment": environment(untraced["blas_threads"]),
            "problems": problems[:20],
        }
        if trace:
            traced = workers[1]
            metrics, record["self_s_by_span"] = _traced_figures(traced,
                                                                cells[0])
            metrics["placement.regret"] = regret or 0.0
            metrics["trace.overhead_ratio"] = (
                statistics.median(_scaled_walls(traced)) / wall)
            record["traced_invocations"] = len(traced["walls"])
        else:
            metrics = {
                "cells_per_s": statistics.mean(predictions) / wall,
                "wall_s": wall,
                "setup_s": statistics.median(
                    t * REFERENCE_S / ref for t, ref in setup),
                "peak_rss_mb": untraced["maxrss_kb"] / 1024.0,
                "mean_rel_error": _mean(v.mean_rel_error
                                        for v in first.values()),
            }
        record["metrics"] = metrics
        return {"record": record, "correct": not problems,
                "attempted": attempted, "failed": failed}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def _scaled_walls(worker: dict) -> list[float]:
    """Each invocation's wall time scaled by the mean of the reference
    loops timed just before and just after it."""
    refs = worker["references"]
    return [wall * REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
            for i, wall in enumerate(worker["walls"])]


def _mean(values):
    values = list(values)
    return None if None in values else statistics.mean(values)


def _write_inputs(workload, seed: int, workdir: Path) -> list:
    """Write a run's inputs to <workdir>/{untraced,traced}/m<j>/in.csv;
    return (truth, observed, sha256 of the CSV) for each."""
    from perfcast import write_matrix_csv
    from workloads import make_input

    inputs = []
    for j, input_seed in enumerate(input_seeds(seed)):
        truth, observed = make_input(workload.input, input_seed)
        for sub in ("untraced", "traced"):
            csv_path = workdir / sub / f"m{j}" / INPUT_CSV
            csv_path.parent.mkdir(parents=True)
            write_matrix_csv(observed, csv_path)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        inputs.append((truth, observed, digest))
    return inputs


def _run_worker(d: Path, name: str, seconds: float, trace: bool) -> dict:
    _worker("run", str(d), name, repr(seconds),
            *(["--trace"] if trace else []))
    result = json.loads((d / "worker.json").read_text())
    result["dir"] = d
    return result


def _traced_figures(traced: dict, cells: int) -> tuple[dict, list]:
    """Per-layer metrics and self seconds per span name, each the median
    over the traced invocations."""
    from spans import (invocations, layer_metrics, median_over,
                       self_time_by_span)

    with open(traced["dir"] / "spans.json") as fh:
        per_inv = invocations(json.load(fh))
    metrics = median_over([layer_metrics(inv, cells) for inv in per_inv])
    self_s = median_over([self_time_by_span(inv) for inv in per_inv])
    return metrics, [[name, round(s, 6)] for name, s in
                     sorted(self_s.items(), key=lambda kv: -kv[1])]


def _result_line(result: dict) -> str:
    metrics = result["record"]["metrics"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    })


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    suffix = metric.rsplit(".", 1)[-1]
    return {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us",
            "p99_us": "us", "n_cliques": "count",
            "iters_total": "count", "not_converged": "count",
            "unfactorable": "count"}.get(suffix, "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in (SRC / "perfcast", MAKE_SYNTHETIC) if not p.exists()]
    if missing:
        print(f"error: perfcast sources not found: "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace))
        results.append(result)
        print(json.dumps(result["record"], sort_keys=True), flush=True)
        if args.workload != "all":
            print(_result_line(result), flush=True)
    if args.workload == "all":
        _print_table(results)
    return 0


def _print_table(results: list[dict]) -> None:
    for result in results:
        rec = result["record"]
        print(f"\n{rec['workload']}  (seed {rec['seed']}, "
              f"first input sha256 {rec['input_sha256'][0][:16]}…, "
              f"{rec['invocations']} invocations, "
              f"correct={result['correct']})")
        rows = dict(rec["metrics"])
        rows["failed_frac"] = rec["failed_frac"]
        if rec["placement_regret"] is not None:
            rows["placement_regret"] = rec["placement_regret"]
        for metric, value in rows.items():
            print(f"  {metric:40s} {value!s:>24} {_unit(metric)}")


if __name__ == "__main__":
    sys.exit(main())
