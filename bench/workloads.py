"""The benchmark's workloads: seeded input matrices and the CLI calls run
on them.

Each input is built with scripts/make_synthetic.py's own generator, imported
unedited, at full density; the benchmark then masks it exactly as that
script's --density option does, so the CSV the program reads is byte for
byte what `make_synthetic.py --density` writes, while the unmasked truth
stays with the benchmark for scoring. README.md says why each workload was
chosen.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAKE_SYNTHETIC = ROOT / "scripts" / "make_synthetic.py"

INPUT_CSV = "in.csv"
# Each run reads this many inputs, invocation i the (i mod N)-th, so that
# its figures pool several matrices instead of resting on one draw.
INPUTS_PER_RUN = 8


@dataclass(frozen=True)
class Synthetic:
    """Arguments of make_synthetic.py; density is the share of cells kept."""

    structure: str
    rows: int
    machines: int
    noise: float
    density: float
    rank: int = 1
    groups: int = 4


@dataclass(frozen=True)
class Step:
    """One CLI call; its standard output is kept in `stdout` when named."""

    argv: tuple[str, ...]
    stdout: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    input: Synthetic
    steps: tuple[Step, ...]
    # What the report check expects; None marks a completion workload.
    algorithms: tuple[str, ...] | None = None
    fractions: tuple[float, ...] | None = None  # None: leave-one-out

    def cells(self, observed) -> int:
        """Distinct cells one invocation predicts on the input `observed`:
        filled cells for a completion, held-out cells for an evaluation."""
        if self.algorithms is None:
            return observed.values.size - observed.count_present
        return sum(self.held_out(observed.count_present))

    def held_out(self, n_present: int) -> list[int]:
        """Held-out cells per report, by the program's own rounding rule."""
        if self.fractions is None:
            return [n_present]
        return [math.floor(f * n_present + 0.5) for f in self.fractions]

    def predictions(self, observed) -> int:
        """Cells predicted per invocation: cells times algorithms."""
        n_alg = 1 if self.algorithms is None else len(self.algorithms)
        return self.cells(observed) * n_alg


GROUPS = Synthetic("groups", rows=300, machines=40, noise=0.05, density=0.40,
                   groups=4)

WORKLOADS = {w.name: w for w in (
    Workload(
        "complete-place",
        GROUPS,
        (Step(("complete", INPUT_CSV, "--out", "completed.csv",
               "--algorithm", "ensemble", "--fills-out", "fills.json",
               "--threads", "1")),
         Step(("place", "completed.csv"), stdout="place.jsonl"),
         Step(("place", "completed.csv", "--schedule"),
              stdout="schedule.jsonl")),
    ),
    Workload(
        "loo-cliques",
        GROUPS,
        (Step(("evaluate", INPUT_CSV, "--algorithm", "cliques",
               "--protocol", "in_groups_plus_regression",
               "--out-json", "report.json", "--out-csv", "report.csv",
               "--threads", "1")),),
        algorithms=("cliques",),
    ),
    Workload(
        "sweep-als4",
        Synthetic("lowrank", rows=600, machines=50, noise=0.05,
                  density=0.25, rank=4),
        (Step(("sweep", INPUT_CSV, "--algorithms", "als,svd",
               "--als-k", "4", "--svd-k", "4",
               # fixed iteration budget, see README.md
               "--als-max-iters", "50", "--als-tol", "1e-9",
               "--fractions", "10,30", "--repeats", "1",
               "--out-json", "report.json", "--out-csv", "report.csv",
               "--threads", "1")),),
        algorithms=("als", "svd"),
        fractions=(0.10, 0.30),
    ),
    Workload(
        "loo-als1",
        Synthetic("lowrank", rows=150, machines=30, noise=0.05,
                  density=0.40, rank=1),
        (Step(("evaluate", INPUT_CSV, "--algorithm", "als",
               # fixed iteration budget, see README.md
               "--als-max-iters", "6", "--als-tol", "1e-9",
               "--out-json", "report.json", "--out-csv", "report.csv",
               "--threads", "1")),),
        algorithms=("als",),
    ),
)}


def _make_synthetic():
    spec = importlib.util.spec_from_file_location("make_synthetic",
                                                  MAKE_SYNTHETIC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def input_seeds(seed: int) -> list[int]:
    """make_synthetic.py seeds of one run's inputs. They are even because
    that script masks with seed + 1, and distinct for distinct run seeds."""
    return [seed * 2 * INPUTS_PER_RUN + 2 * j for j in range(INPUTS_PER_RUN)]


def make_input(syn: Synthetic, seed: int):
    """Return (truth, observed): the full matrix and its masked copy, as
    `make_synthetic.py --seed SEED` builds them."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from perfcast import MaskSpec, mask_random

    args = argparse.Namespace(
        structure=syn.structure, rows=syn.rows, machines=syn.machines,
        rank=syn.rank, groups=syn.groups, noise=syn.noise, density=1.0,
        seed=seed)
    truth = _make_synthetic().build(args)
    observed, _ = mask_random(truth, MaskSpec(1.0 - syn.density, seed + 1))
    return truth, observed
