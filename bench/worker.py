"""A workload process: it runs the real CLI in-process, nothing else.

    worker.py run DIR WORKLOAD SECONDS [--trace]
    worker.py probe CSV

`run` calls perfcast.cli.main for each of the workload's steps, over and
over, until SECONDS are used; invocation i runs in DIR/m<i mod N>/, which
holds the i-th input, and every input is run at least once. Only the CLI
calls are timed. The reference loop (`reference_s`) is timed before each
invocation and once after the last. Outputs are hashed after each
invocation; each input's first outputs, and any later ones whose bytes
differ, are copied to m<j>/inv<i>/ for the parent to check. The results
go to DIR/worker.json, and with --trace the spans to DIR/spans.json.

`probe` prints the wall seconds it takes to import perfcast and read CSV,
the set-up every CLI call pays before its first prediction, followed by
the reference loop's time.

The parent pins the BLAS to one thread through the environment; the count
the library reports is recorded.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def blas_threads() -> int | None:
    """Thread count numpy's bundled scipy-openblas reports, if it is that."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def reference_s() -> float:
    """Seconds that a fixed loop of small numpy and Python work takes now.

    The loop touches nothing of perfcast, so the program under test cannot
    change it. Timed just before an invocation, it tells how fast this
    (shared, noisy) machine runs at that moment.
    """
    import numpy as np

    x = np.arange(400 * 40, dtype=np.float64).reshape(400, 40) % 97 + 1.0
    rows = np.arange(30)
    eye = np.eye(8)
    t0 = time.perf_counter()
    total = 0.0
    for i in range(2000):
        cols = np.flatnonzero(np.isfinite(x[i % 400]))[:8]
        a = x[np.ix_(rows, cols)]
        total += float(np.linalg.solve(a.T @ a + eye, a.T @ x[:30, 9])[0])
        total += sum({j: j * 0.5 for j in range(60)}.values())
    return time.perf_counter() - t0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(workdir: Path, workload_name: str, seconds: float,
        trace: bool) -> None:
    from workloads import INPUT_CSV, WORKLOADS
    import perfcast.cli

    workload = WORKLOADS[workload_name]
    inputs = sorted(workdir.glob("m*"), key=lambda p: int(p.name[1:]))
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    def invoke() -> list[str]:
        captured = []
        for step in workload.steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = perfcast.cli.main(list(step.argv))
            if status != 0:
                raise RuntimeError(f"{step.argv[0]} exited with {status}")
            captured.append(buf.getvalue())
        return captured

    walls: list[float] = []
    references: list[float] = []
    failures: list[str | None] = []
    kept: dict[int, str] = {}
    first_hashes: dict[int, dict] = {}
    started = time.perf_counter()
    while True:
        i = len(walls)
        j = i % len(inputs)
        os.chdir(inputs[j])
        for path in Path(".").iterdir():
            if path.is_file() and path.name != INPUT_CSV:
                path.unlink()
        error = None
        captured = []
        references.append(reference_s())
        t0 = time.perf_counter()
        try:
            captured = tracer.root(invoke) if tracer else invoke()
        except Exception:
            error = traceback.format_exc(limit=3)
        walls.append(time.perf_counter() - t0)
        failures.append(error)
        for step, text in zip(workload.steps, captured):
            if step.stdout:
                Path(step.stdout).write_text(text)
        outputs = sorted(p for p in Path(".").iterdir()
                         if p.is_file() and p.name != INPUT_CSV)
        hashes = {p.name: _digest(p) for p in outputs}
        if j not in first_hashes or hashes != first_hashes[j]:
            keep = Path(f"inv{i}")
            keep.mkdir()
            for p in outputs:
                shutil.copy(p, keep / p.name)
            kept[i] = f"{inputs[j].name}/{keep.name}"
        first_hashes.setdefault(j, hashes)
        elapsed = time.perf_counter() - started
        if (len(walls) >= len(inputs)
                and elapsed + statistics.median(walls) > seconds):
            break
    references.append(reference_s())

    os.chdir(workdir)
    result = {
        "walls": walls,
        "references": references,
        "failures": failures,
        "kept": kept,
        "hashes": first_hashes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
    }
    Path("worker.json").write_text(json.dumps(result))
    if tracer:
        tracer.dump("spans.json")


def probe(csv_path: str) -> None:
    t0 = time.perf_counter()
    import perfcast
    perfcast.read_matrix_csv(csv_path)
    setup = time.perf_counter() - t0
    print(json.dumps([setup, reference_s()]))


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"] and len(argv) == 2:
        probe(argv[1])
        return 0
    if argv[:1] == ["run"] and len(argv) in (4, 5):
        run(Path(argv[1]), argv[2], float(argv[3]), argv[4:] == ["--trace"])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
