#!/usr/bin/env python3
"""Run the full evaluation battery on a timing matrix and save the reports.

Given a matrix CSV, this runs perfcast's own commands (`perfcast.cli.main`)
and writes their reports into --out-dir:

  loo-<algorithm>.json         `evaluate` of each --algorithms entry but
                               svd (which only the sweeps score)
  loo-cliques-<protocol>.json  `evaluate` of cliques, once per protocol
  sweep.json / sweep.csv       `sweep` of every --algorithms entry
  outliers.json / .csv         `outliers`: the same sweep with corrupted
                               training cells

--fractions, --repeats, --seed and --outlier-fraction go to every command
as given (percentages, as on the CLI); one not given takes RunConfig's
default. Each command's line is printed before its own summary lines and
warnings. The first command that fails stops the battery with its exit
status.
"""

import argparse
import shlex
import sys
from pathlib import Path

from perfcast import RunConfig
from perfcast.cli import arg_type, main as perfcast
from perfcast.config import parse_algorithms

# the algorithms `evaluate` takes, and the clique protocols
LOO_ALGORITHMS, PROTOCOLS = (RunConfig.__dataclass_fields__[name].metadata[
    "choices"] for name in ("algorithm", "protocol"))
FORWARDED = ("--fractions", "--repeats", "--seed", "--outlier-fraction")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("matrix", help="matrix CSV (see scripts/"
                                       "make_synthetic.py or perfcast ingest)")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--algorithms", type=arg_type(parse_algorithms),
                        default=("ridge", "cliques", "als", "svd",
                                 "ensemble"))
    for flag in FORWARDED:
        parser.add_argument(flag, dest=flag, help="passed to every command as given")
    given = vars(parser.parse_args(argv))

    shared = [f"{flag}={given[flag]}" for flag in FORWARDED
              if given[flag] is not None]
    out, algorithms = Path(given["out_dir"]), given["algorithms"]
    commands = []
    for algorithm in [a for a in algorithms if a in LOO_ALGORITHMS]:
        for protocol in PROTOCOLS if algorithm == "cliques" else [None]:
            flags = ["--protocol", protocol] if protocol else []
            name = "-".join(filter(None, ["loo", algorithm, protocol]))
            commands.append(["evaluate", "--algorithm", algorithm, *flags,
                             "--out-json", str(out / f"{name}.json")])
    for name in ("sweep", "outliers"):
        commands.append([name, "--algorithms", ",".join(algorithms),
                         "--out-json", str(out / f"{name}.json"),
                         "--out-csv", str(out / f"{name}.csv")])
    out.mkdir(parents=True, exist_ok=True)
    for command, *flags in commands:
        argv = [command, given["matrix"], *flags, *shared]
        print(f"$ perfcast {shlex.join(argv)}", flush=True)
        status = perfcast(argv)
        if status:
            return status
    print(f"reports written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
