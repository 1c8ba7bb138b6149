"""Command-line front end. Its one command, `run`, trains and scores the
grid and writes the report.

`run` builds its grid from the flags, merged and checked as a file's keys
are, or, with --config, from the file alone: no grid flag may go with it,
and keys left out take the ExperimentConfig defaults. The report goes to
--out, report.csv by default: JSON when the path ends in .json, else CSV.
Each cell's line is printed before the report is written. A CIFAR-10
directory, from --cifar10-dir or the file's cifar_dir, is kept as given and
resolved where the grid loads it (see experiment.load_experiment_data). A
program error ends the command with one ``latentwire: error:`` line on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
import typing

from .errors import LatentWireError
from .experiment import (ExperimentConfig, emit_report, load_config, merge_config,
                         run_experiment)
from .zoo import FAMILIES


# dest of each `run` grid flag -> (the (section, field) pairs it sets, None: top
# level; its help). _flag(dest) spells the flag; _file_value reads its text.
GRID_FLAGS = {
    "cifar10_dir": (((None, "cifar_dir"),), "run on CIFAR-10 from this directory"),
    "cifar10_subset": (((None, "cifar_subset"),), "CLASSESxPER_CLASS, e.g. 2x1000"),
    "ratios": (((None, "ratios"),), "compression ratios, e.g. 1,4,8,16"),
    "family": (((None, "family"),), f"classifier family, one of {', '.join(FAMILIES)}"),
    "devices": (((None, "n_devices"),), "edge devices per cell"),
    "seeds": (((None, "seeds"),), "seeds, e.g. 0,1,2"),
    "ae_epochs": ((("ae", "epochs"),), "autoencoder epochs"),
    "clf_epochs": ((("clf", "epochs"),), "classifier epochs"),
    "batch_size": ((("ae", "batch_size"), ("clf", "batch_size")), "batch size"),
    "jobs": (((None, "jobs"),), "cells run at once"),
}


def _file_value(text, hint):
    """The value a config file would hold for a flag's text, by the type hint
    of the field it sets: its comma-separated items for a tuple, a number for
    a number when the text is one, else the text; merge_config checks it."""
    if typing.get_origin(hint) is tuple:
        return [_file_value(item, typing.get_args(hint)[0]) for item in text.split(",")]
    if hint in (int, float):
        with contextlib.suppress(ValueError):
            return hint(text)
    return text


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _experiment_config(args):
    given = [dest for dest in GRID_FLAGS if getattr(args, dest) is not None]
    if args.config:
        if given:
            raise ValueError(f"{_flag(given[0])} cannot go with --config")
        return load_config(args.config)
    body, hints = {}, typing.get_type_hints(ExperimentConfig)
    for dest in given:
        for section, name in GRID_FLAGS[dest][0]:
            hint = (typing.get_type_hints(hints[section]) if section else hints)[name]
            (body.setdefault(section, {}) if section else body)[name] = _file_value(
                getattr(args, dest), hint)
    return merge_config(body)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latentwire",
        description="Edge autoencoder compression with latent-wire classification.")
    parser.add_argument("--verbose", action="store_true", help="log cell details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the experiment grid and emit a report")
    p.add_argument("--config", help="JSON config; takes no grid flag beside it")
    for dest, (_, text) in GRID_FLAGS.items():
        p.add_argument(_flag(dest), help=text)
    p.add_argument("--out", default="report.csv",
                   help="report path; JSON when it ends in .json, else CSV")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # basicConfig does nothing once the root logger has a handler, so the
    # level goes on the package's logger, on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("latentwire").setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        report = run_experiment(_experiment_config(args))
        for row in report.rows:
            if row.failed:
                print(f"cr={row.cr:g} seed={row.seed}: FAILED ({row.error})")
            else:
                print(f"cr={row.cr:g} seed={row.seed}: acc={row.accuracy:.4f} "
                      f"params={row.params} train={row.train_s:.3f}s test={row.test_s:.3f}s")
        emit_report(report, args.out)
        print(f"report written to {args.out}")
        return 1 if any(row.failed for row in report.rows) else 0
    except (LatentWireError, ValueError, OSError) as exc:
        print(f"latentwire: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
