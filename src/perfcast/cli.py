"""Command-line entry point.

Subcommands cover the full pipeline: ingest raw timing observations into a
matrix CSV, complete the matrix, run the evaluation drivers, and consume
the results (machine ranking, program placement). Every tunable can come
from a key=value config file (--config); explicit flags win over the file.
Percent-valued flags (--fractions, --outlier-fraction) are percentages.

Each JSON file written (report, fill log, model) states the run's
settings once, under `run_config`: every `RunConfig` field and the input
path (the fill log adds its completed CSV). A report adds the `command`
that made it (`evaluate`, `sweep` or `outliers`), and a sweep's
`algorithms` list takes the place of `algorithm`.

Warnings go to stderr and leave the exit status at 0; errors print to
stderr and exit 1 (argparse usage problems exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from dataclasses import asdict, fields

from .config import (RunConfig, make_run_config, parse_algorithms,
                     read_config_file)
from .evaluation import (complete_matrix, leave_one_out, masking_sweep,
                         outlier_sweep, write_reports_csv, write_reports_json)
from .factorization import (FactorModel, UnfactorableError, model_from_json,
                            model_to_json, rank_machines)
from .jsonfile import Table, write_json
from .matrix import (PREDICTION_FLOOR, ROW_KEY_SEP, build_matrix,
                     read_matrix_csv, read_observations_csv, write_matrix_csv)
from .placement import place_rows, schedule_batch


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def arg_type(parse):
    """parse as an argparse `type`: the reason of its ValueError is kept
    in the usage error (exit 2), where argparse would print only
    "invalid <name> value"."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _add_config_flags(parser: argparse.ArgumentParser, omit=()) -> None:
    """A flag per RunConfig field not in omit (its file key stays valid)."""
    parser.set_defaults(**dict.fromkeys(omit))  # as a flag not given
    g = parser.add_argument_group(
        "configuration", "defaults < --config file < explicit flags")
    g.add_argument("--config", metavar="FILE",
                   help="flat key=value config file")
    for f in fields(RunConfig):
        if f.name in omit:
            continue
        g.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=arg_type(f.metadata["parse"]),
                       choices=f.metadata["choices"],
                       help=f.metadata["help"])


def _load_config(args) -> RunConfig:
    file_overrides = read_config_file(args.config) if args.config else {}
    flag_overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    cfg = make_run_config(file_overrides, flag_overrides)
    if cfg.threads != 1:
        _warn("threads is ignored; predictions run serially")
    return cfg


def _echo(cfg: RunConfig, **paths) -> dict:
    out = asdict(cfg)
    out.update({k: str(v) for k, v in paths.items() if v is not None})
    return out


def _report_warnings(reports) -> None:
    for report in reports:
        if report.note:
            _warn(f"fraction {report.fraction}: {report.note}")


def _warn_capped(capped: int, fits: int, what: str, cfg: RunConfig) -> None:
    """Warn once when capped of the fits (ALS `what`) ran all
    als_max_iters iterations."""
    if capped:
        _warn(f"{capped:,} of {fits:,} {what} ran all als_max_iters "
              f"({cfg.als_max_iters}) iterations; raise als_max_iters or "
              f"als_tol for fits whose RMSE settles")


def _print_report_summary(reports) -> None:
    for report in reports:
        for res in report.results:
            total = "n/a" if res.total_error is None else f"{res.total_error:.6g}"
            print(f"fraction={report.fraction:g} algorithm={res.algorithm} "
                  f"total_error={total} cells={res.rows.size} "
                  f"uncovered={res.n_uncovered}")


def _resolve_rows(m, text: str | None) -> list[int]:
    if text is None:
        return list(range(m.n_rows))
    index = {m.row_label(i): i for i in range(m.n_rows)}
    rows = {}
    for part in filter(None, map(str.strip, text.split(","))):
        name = part if ROW_KEY_SEP in part else part + ROW_KEY_SEP
        if name not in index:
            raise ValueError(f"unknown program {name!r}; matrix has "
                             f"{m.n_rows} rows")
        if name in rows:
            raise ValueError(f"program {name!r} is listed twice in --rows")
        rows[name] = index[name]
    if not rows:
        raise ValueError("empty row list")
    return list(rows.values())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    observations = read_observations_csv(args.csv)
    counts = Counter((o.program_id, o.arg_label, o.machine_id)
                     for o in observations)
    duplicates = [key for key, n in counts.items() if n > 1]
    if duplicates:
        p, a, machine = duplicates[0]
        _warn(f"{len(duplicates)} cell(s) observed more than once; values "
              f"averaged (first: {p + ROW_KEY_SEP + a} on {machine})")
    m = build_matrix(observations)
    write_matrix_csv(m, args.out)
    print(f"wrote {m.n_rows}x{m.n_cols} matrix "
          f"({m.count_present} observed cells) to {args.out}")
    return 0


def cmd_complete(args) -> int:
    cfg = _load_config(args)
    ensemble = cfg.algorithm == "ensemble"
    members = cfg.ensemble if ensemble else (cfg.algorithm,)
    if args.model_out and "als" not in members:
        raise ValueError(
            (f"no member of the ensemble ({', '.join(members)}) fits a "
             f"factor model" if ensemble else f"algorithm "
             f"{cfg.algorithm!r} does not produce a factor model")
            + "; drop --model-out or use als")
    m = read_matrix_csv(args.matrix)
    completed, (rows, cols, mechanism), model = complete_matrix(m, cfg)
    if args.model_out and isinstance(model, UnfactorableError):
        raise ValueError(f"the ensemble's als member could not be fit "
                         f"({model}); drop --model-out")
    write_matrix_csv(completed, args.out)
    if args.fills_out:
        programs, prog_args = zip(*m.row_keys)
        write_json({
            "run_config": _echo(cfg, input=args.matrix, output=args.out),
            "fills": Table({"program": (rows, programs),
                            "args": (rows, prog_args),
                            "machine": (cols, m.col_keys),
                            "predicted_seconds": completed.values[rows, cols],
                            "algorithm": mechanism}),
        }, args.fills_out)
    if args.model_out:
        write_json({"run_config": _echo(cfg, input=args.matrix),
                     "model": model_to_json(model)}, args.model_out)
    if isinstance(model, FactorModel):
        _warn_capped(int(len(model.train_rmse_history) == cfg.als_max_iters),
                     1, "shared ALS fits", cfg)
    print(f"filled {rows.size} missing cells with {cfg.algorithm}; "
          f"wrote {args.out}")
    return 0


def _write_eval_outputs(args, reports, run_config: dict) -> None:
    if args.out_json:
        write_reports_json(reports, args.out_json,
                           {**run_config, "command": args.command})
    if args.out_csv:
        write_reports_csv(reports, args.out_csv)


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    m = read_matrix_csv(args.matrix)
    report = leave_one_out(m, cfg)
    _write_eval_outputs(args, [report], _echo(cfg, input=args.matrix))
    _warn_capped(*report.capped_fits, "ALS refits", cfg)
    _print_report_summary([report])
    return 0


def cmd_sweep(args) -> int:
    """`sweep`, or `outliers`: the same sweep with corrupted training cells."""
    cfg = _load_config(args)
    m = read_matrix_csv(args.matrix)
    sweep = outlier_sweep if args.command == "outliers" else masking_sweep
    reports = sweep(m, args.algorithms, cfg)
    echo = _echo(cfg, input=args.matrix)
    del echo["algorithm"]  # --algorithms replaces it
    echo["algorithms"] = list(args.algorithms)
    _write_eval_outputs(args, reports, echo)
    _report_warnings(reports)
    _warn_capped(sum(r.capped_fits[0] for r in reports),
                 sum(r.capped_fits[1] for r in reports), "shared ALS fits",
                 cfg)
    _print_report_summary(reports)
    return 0


def _load_model(path):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("model", data)  # as a --model-out file wraps it
    return model_from_json(data)


def cmd_rank(args) -> int:
    model = _load_model(args.model)
    for position, machine in enumerate(rank_machines(model), start=1):
        print(json.dumps({"rank": position, "machine": machine},
                         sort_keys=True))
    return 0


def cmd_place(args) -> int:
    if args.schedule and args.model:
        raise ValueError("--model ranks machines only without --schedule")
    m = read_matrix_csv(args.completed)
    model = _load_model(args.model) if args.model else None
    rows = _resolve_rows(m, args.rows)
    # the ranking places cold rows only, so a model is ranked (K=1 only)
    # only when a requested row is cold
    cold = not m.present_mask[rows].any(axis=1).all()
    ranking = rank_machines(model) if model is not None and cold else None
    floored = m.values[rows] <= PREDICTION_FLOOR
    if floored.any():
        _warn(f"{int(floored.sum())} predicted time(s) in "
              f"{int(floored.any(axis=1).sum())} placed row(s) are at or "
              f"below the prediction floor {PREDICTION_FLOOR:g} s")
    if args.schedule:
        assignment, makespan = schedule_batch(m, rows)
        lines = [{"program": m.row_keys[r][0], "args": m.row_keys[r][1],
                  "machine": machine,
                  "predicted_seconds": float(m.values[r, j])}
                 for j, machine in enumerate(m.col_keys)
                 for r in assignment[machine]]
        lines.append({"makespan": makespan})
    else:
        # every row is decided before any is printed: one that fails
        # leaves stdout empty
        lines = [d.to_json() for d in place_rows(m, rows, ranking)]
    encode = json.JSONEncoder(sort_keys=True).encode
    # one call, with no joined copy of the whole output
    sys.stdout.writelines(encode(line) + "\n" for line in lines)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

# built once, not per invocation: an argparse parser is a reference cycle,
# and what it alone holds would wait for the garbage collector
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfcast", allow_abbrev=False,
        description="Predict program execution times on machines they never "
                    "ran on, by completing a sparse timing matrix.")
    # No abbreviated flags: on `complete` --model would be read as
    # --model-out, on `sweep` --algorithm as --algorithms.
    add_parser = functools.partial(
        parser.add_subparsers(dest="command", required=True).add_parser,
        allow_abbrev=False)

    p = add_parser("ingest", help="observations CSV -> matrix CSV")
    p.add_argument("csv", help="CSV with header program,args,machine,seconds")
    p.add_argument("--out", required=True, help="matrix CSV to write")
    p.set_defaults(func=cmd_ingest)

    p = add_parser("complete", help="fill every missing matrix cell")
    p.add_argument("matrix", help="matrix CSV")
    p.add_argument("--out", required=True, help="completed matrix CSV")
    p.add_argument("--fills-out", help="JSON log of per-cell fills")
    p.add_argument("--model-out", help="JSON factor model (als, or the "
                                       "ensemble's als member)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_complete)

    p = add_parser("evaluate",
                   help="leave-one-out evaluation of one algorithm")
    p.add_argument("matrix")
    p.add_argument("--out-json")
    p.add_argument("--out-csv")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    for name, help_text in [
        ("sweep", "mask increasing fractions and score predictions"),
        ("outliers", "sweep with corrupted training cells, clean targets"),
    ]:
        p = add_parser(name, help=help_text)
        p.add_argument("matrix")
        p.add_argument("--algorithms", type=arg_type(parse_algorithms),
                       default=("ridge", "cliques", "als", "ensemble"),
                       help="comma-separated algorithms to compare")
        p.add_argument("--out-json")
        p.add_argument("--out-csv")
        _add_config_flags(p, omit=("algorithm",))
        p.set_defaults(func=cmd_sweep)

    p = add_parser("rank",
                   help="order machines fastest-first from a K=1 model")
    p.add_argument("model", help="factor model JSON")
    p.set_defaults(func=cmd_rank)

    p = add_parser("place",
                   help="choose machines for programs (JSON lines)")
    p.add_argument("completed", help="completed matrix CSV")
    p.add_argument("--rows", help="comma-separated program" + ROW_KEY_SEP +
                                  "args keys (default: all rows)")
    p.add_argument("--model", help="factor model JSON for cold-row ranking")
    p.add_argument("--schedule", action="store_true",
                   help="batch schedule instead of per-program placement")
    p.set_defaults(func=cmd_place)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
