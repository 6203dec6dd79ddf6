#!/usr/bin/env python3
"""Run the full evaluation battery on a timing matrix and save the reports.

Given a matrix CSV, this runs three experiments and writes their artifacts
into --out-dir:

  loo.json                leave-one-out, every algorithm that
                          `complete` and `evaluate` take (all but svd,
                          which only the sweeps score), the clique
                          algorithm under both scoring protocols
  sweep.json / sweep.csv  masking sweep over --fractions
  outliers.json / .csv    same sweep with corrupted training cells

Each JSON file states the settings once, under "run_config". A sweep's
"algorithms" list takes the place of "algorithm", and loo.json's "runs"
lists each report's (algorithm, protocol) in report order in place of
"algorithm" and "protocol".

The printed summary has one line per (experiment, fraction, algorithm).
"""

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from perfcast import (Algorithm, CliqueProtocol, RunConfig, density,
                      leave_one_out, masking_sweep, outlier_sweep,
                      read_matrix_csv, write_reports_csv,
                      write_reports_json)
from perfcast.cli import arg_type
from perfcast.config import (parse_algorithms, parse_percent,
                             parse_percent_list)

# the algorithms RunConfig.algorithm accepts: svd is scored by the sweeps
LOO_ALGORITHMS = RunConfig.__dataclass_fields__["algorithm"].metadata[
    "choices"]


def summarize(tag: str, reports) -> None:
    for report in reports:
        if report.note:
            print(f"{tag:9s} fraction={report.fraction:<5g} "
                  f"note: {report.note}")
        for res in report.results:
            total = ("n/a" if res.total_error is None
                     else f"{res.total_error:.4f}")
            print(f"{tag:9s} fraction={report.fraction:<5g} "
                  f"{res.algorithm:9s} error={total:8s} "
                  f"cells={res.rows.size:5d} uncovered={res.n_uncovered}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("matrix", help="matrix CSV (see scripts/"
                                       "make_synthetic.py or perfcast ingest)")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--algorithms", type=arg_type(parse_algorithms),
                        default=("ridge", "cliques", "als", "svd",
                                 "ensemble"))
    parser.add_argument("--fractions", type=arg_type(parse_percent_list),
                        default=(0.05, 0.10, 0.20, 0.35, 0.50),
                        help="mask percentages, e.g. 5,10,20")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outlier-fraction", default="10",
                        type=arg_type(parse_percent),
                        help="percentage of training cells to corrupt")
    args = parser.parse_args(argv)

    cfg = RunConfig(fractions=args.fractions, repeats=args.repeats,
                    seed=args.seed, outlier_fraction=args.outlier_fraction)
    m = read_matrix_csv(args.matrix)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{m.n_rows}x{m.n_cols} matrix, {m.count_present} cells, "
          f"density {density(m):.2f}")

    # 1. leave-one-out; the clique predictor is scored under each protocol
    loo_reports, runs = [], []
    for algorithm in [a for a in args.algorithms if a in LOO_ALGORITHMS]:
        cliques = algorithm == Algorithm.CLIQUES
        protocols = ([p.value for p in CliqueProtocol] if cliques
                     else [cfg.protocol])
        for protocol in protocols:
            report = leave_one_out(m, replace(cfg, algorithm=algorithm,
                                              protocol=protocol))
            loo_reports.append(report)
            runs.append({"algorithm": algorithm, "protocol": protocol})
            label = f"{algorithm}[{protocol}]" if cliques else algorithm
            res = report.results[0]
            total = ("n/a" if res.total_error is None
                     else f"{res.total_error:.4f}")
            print(f"loo       {label:32s} error={total:8s} "
                  f"uncovered={res.n_uncovered}")
    # each file states the settings once; runs, and the sweeps'
    # algorithms, name what each report ran
    run_config = asdict(cfg)
    del run_config["algorithm"]
    loo_config = {**run_config, "runs": runs}
    del loo_config["protocol"]
    write_reports_json(loo_reports, out_dir / "loo.json", loo_config)

    # 2. masking sweep
    run_config["algorithms"] = list(args.algorithms)
    sweep_reports = masking_sweep(m, args.algorithms, cfg)
    write_reports_json(sweep_reports, out_dir / "sweep.json", run_config)
    write_reports_csv(sweep_reports, out_dir / "sweep.csv")
    summarize("sweep", sweep_reports)

    # 3. outlier sweep, same fractions, corrupted training cells
    outlier_reports = outlier_sweep(m, args.algorithms, cfg)
    write_reports_json(outlier_reports, out_dir / "outliers.json",
                       run_config)
    write_reports_csv(outlier_reports, out_dir / "outliers.csv")
    summarize("outliers", outlier_reports)

    print(f"reports written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
