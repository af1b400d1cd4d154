"""Command-line entry point: solve | datagen | train | eval | validate | bench.

Each subcommand takes --config <path> (JSON), --seed <u64>, and --out <dir>;
outputs are CSV tables plus a run_metadata.json echoing the configuration.
On failure a machine-readable error record is printed to stderr and the exit
code is nonzero.  A table command (solve, eval, validate, bench) whose
densities fail one by one still exits 0 and prints one warning record per
failed density.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiment_harness as eh
from . import icl_transformer as tf


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", default="runs", help="output directory (default: runs)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="icl-csma",
        description="In-context contention-window optimizer: data collection, "
                    "training, and evaluation against the saturation model "
                    "and slotted MAC simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("solve", "optimal tau / ladder table per density"),
        ("datagen", "emit the training dataset CSV"),
        ("train", "train the attention model, emit model + loss trace"),
        ("eval", "compare ICL ladders with the optimum and the benchmark"),
        ("validate", "simulator vs analytic model agreement table"),
        ("bench", "density-mismatch throughput loss sweep"),
    ]:
        cmd = sub.add_parser(name, help=descr)
        _add_common(cmd)
        if name == "eval":
            cmd.add_argument("--model", help="trained model JSON "
                                             "(default: <out>/model.json)")
            cmd.add_argument("--no-sim", action="store_true",
                             help="skip simulator validation columns")
        if name == "bench":
            cmd.add_argument("--sim", action="store_true",
                             help="add simulator validation columns")
    return parser


def _run(args):
    config = eh.load_config(args.config, seed=args.seed)
    out = args.out
    if args.command == "datagen":
        eh.cmd_datagen(config, out_dir=out)
        return []
    if args.command == "train":
        model, trace, report = eh.cmd_train(config)
        report.write(out)
        tf.save_model(model, os.path.join(out, "model.json"))
        return []
    if args.command == "eval":
        model = tf.load_model(args.model or os.path.join(out, "model.json"))
        report, errors = eh.cmd_eval(config, model, with_sim=not args.no_sim)
    elif args.command == "bench":
        report, errors = eh.cmd_bench(config, with_sim=args.sim)
    elif args.command == "validate":
        report, errors = eh.cmd_validate(config)
    else:
        report, errors = eh.cmd_solve(config)
    report.write(out)
    return errors


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        errors = _run(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "command": args.command}), file=sys.stderr)
        return 1
    for record in errors:
        print(json.dumps({"warning": "cell_failed", **record}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
