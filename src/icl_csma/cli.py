"""Command-line entry point: ``icl-csma <command> [flags]``; ``icl-csma --help`` lists them.

Every command (solve, datagen, train, eval, validate, bench) takes --config <path> (JSON),
--seed <u64> and --out <dir>; --model and --no-sim are eval's own flags, --sim is bench's.
Outputs are CSV tables plus a run_metadata.json echoing the configuration.  Every failure
prints one JSON record to stderr: a refused command line ``{"error": "UsageError",
"message", "command"}`` (``command`` null if no argument names one) with exit code 2, a
failed command its error record with exit code 1.  A table command (solve, eval, validate,
bench) whose densities fail one by one exits 0 and prints one warning per failed density.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiment_harness as eh
from . import icl_transformer as tf

COMMANDS = {
    "solve": "optimal tau / ladder table per density",
    "datagen": "emit the training dataset CSV",
    "train": "train the attention model, emit model + loss trace",
    "eval": "compare ICL ladders with the optimum and the benchmark",
    "validate": "simulator vs analytic model agreement table",
    "bench": "density-mismatch throughput loss sweep",
}
# each command's own flags; any other command refuses them
OWN_FLAGS = {"--model": "eval", "--no-sim": "eval", "--sim": "bench"}


class UsageError(Exception):
    """A refused command line: its message and the command, None where argparse stopped."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, None)


def _parse_args(argv):
    parser = _Parser(prog="icl-csma", formatter_class=argparse.RawDescriptionHelpFormatter,
                     description="In-context contention-window optimizer for CSMA.",
                     epilog="commands:\n" + "\n".join(f"  {name:<9} {descr}"
                                                       for name, descr in COMMANDS.items()))
    parser.add_argument("command", choices=COMMANDS, metavar="command", help="see below")
    parser.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", default="runs", help="output directory (default: runs)")
    parser.add_argument("--model", help="eval: trained model JSON (default: <out>/model.json)")
    parser.add_argument("--no-sim", action="store_true", default=None,
                        help="eval: skip simulator validation columns")
    parser.add_argument("--sim", action="store_true", default=None,
                        help="bench: add simulator validation columns")
    args = parser.parse_args(argv)
    for flag, owner in OWN_FLAGS.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.command != owner:
            raise UsageError(f"argument {flag}: only {owner} takes it, not {args.command}",
                             args.command)
    return args


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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except UsageError as exc:
        message, command = exc.args
        # else the first argument that names a command
        command = command or next((arg for arg in argv if arg in COMMANDS), None)
        print(json.dumps({"error": "UsageError", "message": message, "command": command}),
              file=sys.stderr)
        return 2
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
