"""Command-line front end.

`run` builds its grid from the flags over the ExperimentConfig defaults, or,
with --config, from the file alone: keys the file leaves out take the
defaults, and --out applies only when the file sets no out. Relative dataset
paths resolve against $LATENTWIRE_DATA_DIR when the file is not found where
given. A program error ends the command with one ``latentwire: error:``
line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .data import SyntheticSpec, gen_synthetic, load_dataset, save_dataset
from .device import DeviceNode
from .errors import LatentWireError
from .experiment import (
    DATASETS,
    ExperimentConfig,
    emit_report,
    load_config,
    parse_report,
    run_experiment,
)
from .hub import Hub, HubServer
from .optim import ALGORITHMS
from .train import TrainConfig, evaluate, train_classifier
from .zoo import FAMILIES, build_vanilla_classifier

DATA_DIR_ENV = "LATENTWIRE_DATA_DIR"


def resolve_data_path(path):
    if path is None:
        return None
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root and not p.is_absolute():
        candidate = Path(root) / p
        if candidate.exists():
            return candidate
    return p


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _train_config(args, prefix):
    kwargs = {}
    for name in ("epochs", "batch_size", "optimizer", "lr", "seed"):
        value = getattr(args, f"{prefix}_{name}", None)
        if value is not None:
            kwargs[name] = value
    cfg = TrainConfig(**kwargs)
    if getattr(args, f"{prefix}_augment", False):
        cfg = replace(cfg, augment=True)
    return cfg


def cmd_gen_data(args):
    spec = SyntheticSpec(
        image_size=(args.image_size, args.image_size, 3),
        num_classes=args.classes,
        samples_per_class=args.samples_per_class,
        noise=args.noise,
    )
    train, test = gen_synthetic(spec, seed=args.seed)
    save_dataset(train, test, args.out)
    print(f"wrote {len(train)} train / {len(test)} test samples to {args.out}")
    return 0


def cmd_train_ae(args):
    train, _ = load_dataset(resolve_data_path(args.data))
    device = DeviceNode(args.device_id, train)
    cfg = _train_config(args, "ae")
    history = device.fit_autoencoder(args.cr, cfg)
    encoder, decoder = device.encoder_network(), device.decoder_network()
    encoder.save(Path(args.out) / "encoder")
    decoder.save(Path(args.out) / "decoder")
    final = history.losses[-1] if history.losses else 0.0
    print(f"autoencoder cr={args.cr} final reconstruction mse={final:.6f}; "
          f"models under {args.out}")
    return 0


def cmd_train_classifier(args):
    train, test = load_dataset(resolve_data_path(args.data))
    spec = build_vanilla_classifier(train.sample_shape, args.family, train.num_classes)
    cfg = _train_config(args, "clf")
    net, history = train_classifier(spec, train, cfg)
    acc, _ = evaluate(net, test)
    net.save(Path(args.out) / "classifier")
    print(f"family-{args.family} classifier test accuracy {acc:.4f}; "
          f"model under {args.out}")
    return 0


def _experiment_config(args):
    if args.config:
        cfg = load_config(args.config)
        return cfg if cfg.out is not None else replace(cfg, out=args.out)
    cfg = ExperimentConfig()
    if args.dataset is not None:
        cfg = replace(cfg, dataset=args.dataset)
    if args.cifar10_dir is not None:
        cfg = replace(cfg, dataset="cifar10",
                      cifar_dir=str(resolve_data_path(args.cifar10_dir)))
    if args.cifar10_subset is not None:
        cfg = replace(cfg, cifar_subset=args.cifar10_subset)
    if args.ratios is not None:
        cfg = replace(cfg, ratios=args.ratios)
    if args.family is not None:
        cfg = replace(cfg, family=args.family)
    if args.devices is not None:
        cfg = replace(cfg, n_devices=args.devices)
    if args.seeds is not None:
        cfg = replace(cfg, seeds=args.seeds)
    if args.jobs is not None:
        cfg = replace(cfg, jobs=args.jobs)
    ae, clf = cfg.ae, cfg.clf
    if args.ae_epochs is not None:
        ae = replace(ae, epochs=args.ae_epochs)
    if args.clf_epochs is not None:
        clf = replace(clf, epochs=args.clf_epochs)
    if args.batch_size is not None:
        ae = replace(ae, batch_size=args.batch_size)
        clf = replace(clf, batch_size=args.batch_size)
    if args.augment:
        clf = replace(clf, augment=True)
    return replace(cfg, ae=ae, clf=clf, out=args.out)


def cmd_run(args):
    cfg = _experiment_config(args)
    report = run_experiment(cfg)
    out = cfg.out or "report.csv"
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


def cmd_serve(args):
    hub = Hub()
    server = HubServer(hub, split=args.split, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(f"ingesting {args.split} latents on {host}:{port} (ctrl-c to stop)")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(f"stored {len(hub.store)} records")
    return 0


def cmd_report(args):
    report = parse_report(args.input, fmt=args.input_format)
    emit_report(report, args.out, fmt=args.format)
    print(f"rewrote {len(report.rows)} rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latentwire",
        description="Edge autoencoder compression with latent-wire classification.")
    parser.add_argument("--verbose", action="store_true", help="log cell details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic shape dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--samples-per-class", type=int, default=150)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-ae", help="train a device autoencoder")
    p.add_argument("--data", required=True, help="dataset npz (see gen-data)")
    p.add_argument("--cr", type=float, default=4)
    p.add_argument("--device-id", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ae-epochs", dest="ae_epochs", type=int)
    p.add_argument("--ae-batch-size", dest="ae_batch_size", type=int)
    p.add_argument("--ae-optimizer", dest="ae_optimizer", choices=ALGORITHMS)
    p.add_argument("--ae-lr", dest="ae_lr", type=float)
    p.add_argument("--ae-seed", dest="ae_seed", type=int)
    p.set_defaults(func=cmd_train_ae)

    p = sub.add_parser("train-classifier", help="train a vanilla classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--family", choices=FAMILIES, default="A")
    p.add_argument("--out", required=True)
    p.add_argument("--clf-epochs", dest="clf_epochs", type=int)
    p.add_argument("--clf-batch-size", dest="clf_batch_size", type=int)
    p.add_argument("--clf-optimizer", dest="clf_optimizer", choices=ALGORITHMS)
    p.add_argument("--clf-lr", dest="clf_lr", type=float)
    p.add_argument("--clf-seed", dest="clf_seed", type=int)
    p.add_argument("--clf-augment", dest="clf_augment", action="store_true")
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("run", help="run the benchmark grid and emit a report")
    p.add_argument("--config", help="JSON config; replaces the grid flags, "
                   "--out applies when the file sets no out")
    p.add_argument("--dataset", choices=DATASETS)
    p.add_argument("--cifar10-dir")
    p.add_argument("--cifar10-subset", help="CLASSESxPER_CLASS, e.g. 2x1000")
    p.add_argument("--ratios", type=_float_list)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--devices", type=int)
    p.add_argument("--seeds", type=_int_list)
    p.add_argument("--ae-epochs", type=int)
    p.add_argument("--clf-epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve", help="run the latent ingestion server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report", help="convert or re-emit a report")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", choices=("csv", "json"), default="json")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (LatentWireError, ValueError, OSError) as exc:
        print(f"latentwire: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
