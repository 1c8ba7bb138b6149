"""Command-line front end. Its one command, `run`, trains and scores the
grid and writes the report.

`run` builds its grid from the flags, merged and checked as a file's keys
are, or, with --config, from the file alone: no grid flag may go with it,
and keys left out take the ExperimentConfig defaults. The report goes to
--out, by default report.csv or report.json after --format. A CIFAR-10
directory, from --cifar10-dir or the file's cifar_dir, is kept as given and
resolved where the grid loads it (see experiment.load_experiment_data). A
program error ends the command with one ``latentwire: error:`` line on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import LatentWireError
from .experiment import emit_report, load_config, merge_config, run_experiment
from .zoo import FAMILIES

# dest of each `run` grid flag -> the (section, field) pairs it sets; None: top level
GRID_FLAGS = {
    "cifar10_dir": ((None, "cifar_dir"),),
    "cifar10_subset": ((None, "cifar_subset"),),
    "ratios": ((None, "ratios"),),
    "family": ((None, "family"),),
    "devices": ((None, "n_devices"),),
    "seeds": ((None, "seeds"),),
    "ae_epochs": (("ae", "epochs"),),
    "clf_epochs": (("clf", "epochs"),),
    "batch_size": (("ae", "batch_size"), ("clf", "batch_size")),
    "jobs": ((None, "jobs"),),
}


def _int_list(text):
    return [int(v) for v in text.split(",")]


def _float_list(text):
    return [float(v) for v in text.split(",")]


def _experiment_config(args):
    given = [dest for dest in GRID_FLAGS if getattr(args, dest) is not None]
    if args.config:
        if given:
            raise ValueError(f"--{given[0].replace('_', '-')} cannot go with --config")
        return load_config(args.config)
    body = {}
    for dest in given:
        for section, name in GRID_FLAGS[dest]:
            (body.setdefault(section, {}) if section else body)[name] = getattr(args, dest)
    return merge_config(body)


def cmd_run(args):
    cfg = _experiment_config(args)
    report = run_experiment(cfg)
    out = args.out or f"report.{args.format}"
    emit_report(report, out, fmt=args.format)
    failed = [r for r in report.rows if r.failed]
    for row in report.rows:
        if row.failed:
            print(f"cr={row.cr:g} seed={row.seed}: FAILED ({row.error})")
        else:
            print(f"cr={row.cr:g} seed={row.seed}: acc={row.accuracy:.4f} "
                  f"params={row.params} train={row.train_s:.3f}s test={row.test_s:.3f}s")
    print(f"report written to {out}")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latentwire",
        description="Edge autoencoder compression with latent-wire classification.")
    parser.add_argument("--verbose", action="store_true", help="log cell details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the benchmark grid and emit a report")
    p.add_argument("--config", help="JSON config; takes no grid flag beside it")
    p.add_argument("--cifar10-dir", help="run on CIFAR-10 from this directory, "
                   "not on synthetic data")
    p.add_argument("--cifar10-subset", help="CLASSESxPER_CLASS, e.g. 2x1000; "
                   "needs --cifar10-dir")
    p.add_argument("--ratios", type=_float_list)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--devices", type=int)
    p.add_argument("--seeds", type=_int_list)
    p.add_argument("--ae-epochs", type=int)
    p.add_argument("--clf-epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="report path; default report.csv or report.json")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return cmd_run(args)
    except (LatentWireError, ValueError, OSError) as exc:
        print(f"latentwire: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
