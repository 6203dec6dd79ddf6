#!/usr/bin/env python3
"""List the outputs that differ between two source trees on the benchmark's
workloads.

    python3 scripts/diff_outputs.py OLD_TREE NEW_TREE [--seeds 0,7]
                                    [--workloads NAME,...]

OLD_TREE and NEW_TREE are checkout roots: each runs the perfcast package in
its own src/. For each seed, every workload of bench/workloads.py (this
checkout's) gets that seed's input matrices, made and written as the
benchmark makes them. One subprocess per tree then runs every step of
every workload on every input, followed by the workload's EXTRA steps,
through that tree's `perfcast.cli.main`, in a directory of its own, and
keeps each step's stdout (in the file the workload names, else
`stdout<k>.txt`), its stderr (`stderr<k>.txt`) and,
when it is not 0, its exit status (`status<k>.txt`). Relative paths are
the same in both runs, so the paths each file records are too.

Every output that differs, or that only one tree wrote, is printed, then
a count. The exit status is 1 when an output differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import (INPUT_CSV, WORKLOADS, input_seeds,  # noqa: E402
                       make_input)

# Steps beyond the benchmark's, after a workload's own: no benchmark step
# writes an ensemble's `excluded` cells, a model JSON, a ranking, a
# cliques fill log or an `in_groups` report.
EXTRA = {"complete-place": [
    [["evaluate", INPUT_CSV, "--algorithm", "ensemble",
      "--out-json", "loo.json", "--out-csv", "loo.csv"], None],
    [["sweep", INPUT_CSV, "--algorithms", "ridge,cliques,als,ensemble",
      "--fractions", "10,30", "--repeats", "2",
      "--out-json", "sweep.json", "--out-csv", "sweep.csv"], None],
    [["complete", INPUT_CSV, "--out", "als.csv", "--algorithm", "als",
      "--model-out", "model.json"], None],
    [["rank", "model.json"], "rank.jsonl"],
], "loo-cliques": [
    [["complete", INPUT_CSV, "--out", "cliques.csv", "--algorithm", "cliques",
      "--fills-out", "fills.json"], None],
    [["evaluate", INPUT_CSV, "--algorithm", "cliques", "--protocol",
      "in_groups", "--out-json", "in_groups.json", "--out-csv",
      "in_groups.csv"], None],
    [["sweep", INPUT_CSV, "--algorithms", "cliques,ensemble", "--protocol",
      "in_groups", "--fractions", "10,30", "--repeats", "2",
      "--out-json", "sweep.json", "--out-csv", "sweep.csv"], None],
]}

# Run in a subprocess with the tree's src/ first on sys.path; reads
# [[directory, [[argv, stdout name or null], ...]], ...] from stdin.
RUNNER = """
import contextlib, io, json, os, sys, traceback
import perfcast.cli
for directory, steps in json.load(sys.stdin):
    os.chdir(directory)
    for k, (argv, stdout) in enumerate(steps):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = perfcast.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception:
                status = traceback.format_exc(limit=0)
        with open(stdout or f"stdout{k}.txt", "w") as fh:
            fh.write(out.getvalue())
        with open(f"stderr{k}.txt", "w") as fh:
            fh.write(err.getvalue())
        if status != 0:
            with open(f"status{k}.txt", "w") as fh:
                fh.write(f"{status}\\n")
"""


def write_inputs(work: Path, seeds, names) -> list:
    """Write each (seed, workload, input) CSV under work/<tree>/ for both
    trees; return the runner's [directory, steps] jobs, relative to a
    tree's directory."""
    sys.path.insert(0, str(ROOT / "src"))
    from perfcast import write_matrix_csv

    jobs, made = [], {}
    for seed in seeds:
        for name in names:
            workload = WORKLOADS[name]
            steps = [[list(s.argv), s.stdout] for s in workload.steps]
            steps += EXTRA.get(name, [])
            for j, input_seed in enumerate(input_seeds(seed)):
                key = (workload.input, input_seed)
                if key not in made:
                    made[key] = make_input(workload.input, input_seed)[1]
                rel = f"seed{seed}/{name}/m{j}"
                for tree in ("old", "new"):
                    (work / tree / rel).mkdir(parents=True)
                    write_matrix_csv(made[key], work / tree / rel / INPUT_CSV)
                jobs.append([rel, steps])
    return jobs


def run_tree(tree: Path, base: Path, jobs) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", RUNNER], env=env, check=True,
                   input=json.dumps([[str(base / rel), steps]
                                     for rel, steps in jobs]), text=True)


def differences(old: Path, new: Path) -> tuple[list[str], int]:
    """(one line per output that differs, number of outputs compared)."""
    files = {p.relative_to(tree) for tree in (old, new)
             for p in tree.rglob("*") if p.is_file() and p.name != INPUT_CSV}
    lines = []
    for rel in sorted(files, key=str):
        a, b = old / rel, new / rel
        if not a.exists() or not b.exists():
            lines.append(f"only in {'new' if b.exists() else 'old'}: {rel}")
        elif a.read_bytes() != b.read_bytes():
            lines.append(f"differs: {rel}")
    return lines, len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout root of the "
                                               "old tree")
    parser.add_argument("new", type=Path, help="checkout root of the "
                                               "new tree")
    parser.add_argument("--seeds", default="0,7",
                        help="comma-separated benchmark seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = write_inputs(work, seeds, names)
        run_tree(args.old.resolve(), work / "old", jobs)
        run_tree(args.new.resolve(), work / "new", jobs)
        lines, n = differences(work / "old", work / "new")
    for line in lines:
        print(line)
    print(f"{len(lines)} of {n} outputs differ ({len(jobs)} inputs, "
          f"seeds {args.seeds})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
