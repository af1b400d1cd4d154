"""Benchmark of the icl-csma command line, end to end and layer by layer.

Usage (from the repository root):
    python3 benchmarks/run.py --workload {generalize,simulate}
        [--seed N] [--seconds S] [--trace 0|1]

Each workload drives one real ``icl-csma`` command in this process through
``icl_csma.cli.main(argv)``.  The benchmark writes the command's config file
and passes ``--seed``; the program receives nothing else.  A run repeats the
command ("passes") while the next pass fits in ``--seconds`` and checks every
pass's output from the CSV files it wrote.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the samples and the machine.

``--trace 0`` reports the end-to-end metrics:

- ``run_s``: median time of one pass.
- ``setup_s``: median over fresh interpreters of the time from start to exit
  of importing the package, writing the config and loading and verifying
  the model.
- ``peak_rss_mb``: peak resident memory of this process.
- ``u_ratio``: mean u_icl / u_star over the eval cells (generalize), or mean
  1 - rel_deviation over the simulator runs (simulate).

``--trace 1`` alternates untraced and traced passes.  A traced pass rebinds
the entry points of each module to span-recording wrappers; the spans give
the per-layer metrics and are written to ``.bench_work/spans-<workload>.csv``
after the run.  Command outputs go to ``.bench_work/`` under the repository
root and are removed when the run ends.

Self-tests of the benchmark's own arithmetic: ``python3 benchmarks/selftest.py``.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported, in this process and in
# the set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy  # noqa: E402

from benchlib import (Tracer, count_failed, reference_seconds,  # noqa: E402
                      self_times, tail_percentile)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Trained once with `icl-csma train --seed 7` at default config, so that
# `generalize` measures deployment and not training.
MODEL = BENCH_DIR / "model-seed7.json"
MODEL_SHA256 = "4d0412f5b213ea37f450940afa112ceddd32e9b39fc8222bd19662d54a8e0041"

SETUP_PROBES = 9
MIN_PASSES = 3          # untraced passes per run
MIN_TRACED_PASSES = 4   # 4 x 256 generalize cells: a p99 needs 1,000 samples

# Every time is reported at a fixed host speed.  On a shared host the speed
# of a core drifts by up to 2x over seconds to minutes, so each measured
# interval is scaled by REFERENCE_S over the mean time of a fixed piece of
# reference work run just before and just after it.  0.02 s is that work on
# an idle core of the 2-vCPU Xeon host the baseline was taken on, so times
# read as seconds on that core at its fastest.
REFERENCE_S = 0.02

# Passes are short, so a run takes the median of several and the reference
# work around each pass follows the host's speed closely.
# generalize: every 8th density of 2..500 plus 500, 64 densities x 4 error
# levels = 256 cells, about 1 s.
# simulate: one 400,000-slot run at each of N = 2, 20 and 500, about 1 s.
# Training has no workload: on some seeds (33 and 41 among them) it fails
# criterion 5 at the default config however long it runs, and every
# operation of a workload must pass on every seed.
GENERALIZE_DENSITIES = sorted(set(range(2, 501, 8)) | {500})
SIMULATE = {"validate_densities": [2, 20, 500], "sim_seeds": 1, "sim_horizon_slots": 400_000}

# unit and direction of every metric; BENCHMARK.json lists the same names
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "u_ratio": ("ratio", "higher"),
}

PER_LAYER = {
    "analytic_model.self_s": ("s", "lower"),
    "analytic_model.solve_tau.calls": ("count", "lower"),
    "analytic_model.solve_tau.self_s": ("s", "lower"),
    "analytic_model.solve_ladder.calls": ("count", "lower"),
    "analytic_model.solve_ladder.self_s": ("s", "lower"),
    "analytic_model.solve_ladder.solve_tau_per_call": ("count", "lower"),
    "analytic_model.optimize_tau.calls": ("count", "lower"),
    "analytic_model.optimize_tau.self_s": ("s", "lower"),
    "analytic_model.ladder_throughput.calls": ("count", "lower"),
    "prompt_pipeline.self_s": ("s", "lower"),
    "prompt_pipeline.build_prompt.calls": ("count", "lower"),
    "prompt_pipeline.build_prompt.self_s": ("s", "lower"),
    "prompt_pipeline.embed.calls": ("count", "lower"),
    "prompt_pipeline.embed.self_s": ("s", "lower"),
    "prompt_pipeline.generate_dataset.calls": ("count", "lower"),
    "prompt_pipeline.generate_dataset.self_s": ("s", "lower"),
    "prompt_pipeline.corrupt_thresholds.calls": ("count", "lower"),
    "icl_transformer.self_s": ("s", "lower"),
    "icl_transformer.predict.calls": ("count", "lower"),
    "icl_transformer.predict.self_s": ("s", "lower"),
    "icl_transformer.attention.calls": ("count", "lower"),
    "icl_transformer.attention.self_s": ("s", "lower"),
    "mac_simulator.self_s": ("s", "lower"),
    "mac_simulator.run.calls": ("count", "lower"),
    "mac_simulator.run.self_s": ("s", "lower"),
    "mac_simulator.run.events": ("count", "lower"),
    "mac_simulator.us_per_event.n2": ("us", "lower"),
    "mac_simulator.us_per_event.n20": ("us", "lower"),
    "mac_simulator.us_per_event.n500": ("us", "lower"),
    "mac_simulator.slots_per_s": ("1/s", "higher"),
    "mac_simulator.success_ratio": ("ratio", "higher"),
    "experiment_harness.self_s": ("s", "lower"),
    "experiment_harness.predict_thresholds.calls": ("count", "lower"),
    "experiment_harness.predict_thresholds.p50_ms": ("ms", "lower"),
    "experiment_harness.predict_thresholds.p99_ms": ("ms", "lower"),
    "experiment_harness.cmd_eval.self_s": ("s", "lower"),
    "experiment_harness.cmd_validate.self_s": ("s", "lower"),
    "experiment_harness.report_write_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Entry points wrapped in a traced pass.  Leaf arithmetic (throughput,
# collision_prob, round_threshold, apply_scaler) runs 10^5-10^6 times a pass;
# a span per call would swamp what it measures, so its time counts as self
# time of the caller.  load_config and load_model stay unwrapped: their time
# is cli.main's own.
TRACED = {
    "analytic_model": ("optimize_tau", "solve_ladder", "solve_tau", "ladder_throughput"),
    "mac_simulator": ("run",),
    "prompt_pipeline": ("generate_dataset", "corrupt_thresholds", "build_prompt", "embed"),
    "icl_transformer": ("attention", "predict"),
    "experiment_harness": ("cmd_eval", "cmd_validate", "predict_thresholds",
                           "repair_ladder"),
    "cli": ("main",),
}
KEPT = {"mac_simulator.run"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Context:
    workload: str
    seed: int
    work: Path
    config_path: Path
    modules: dict
    config: object

    @property
    def cli(self):
        return self.modules["cli"]


def import_program():
    """The icl_csma modules of this checkout, never an installed copy."""
    if not (SRC / "icl_csma").is_dir():
        raise BenchmarkError(f"no icl_csma package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        from icl_csma import (analytic_model, cli, experiment_harness,
                              icl_transformer, mac_simulator, prompt_pipeline)
    except ImportError as exc:
        raise BenchmarkError(f"cannot import icl_csma from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent != (SRC / "icl_csma").resolve():
        raise BenchmarkError(f"icl_csma was imported from {cli.__file__}, not {SRC}")
    return {"analytic_model": analytic_model, "mac_simulator": mac_simulator,
            "prompt_pipeline": prompt_pipeline, "icl_transformer": icl_transformer,
            "experiment_harness": experiment_harness, "cli": cli}


def setup(workload, seed, work):
    """Import the program, write the config and verify the model file."""
    modules = import_program()
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(WORKLOADS[workload].config), encoding="utf-8")
    config = modules["experiment_harness"].load_config(str(config_path), seed=seed)
    if workload == "generalize":
        digest = hashlib.sha256(MODEL.read_bytes()).hexdigest()
        if digest != MODEL_SHA256:
            raise BenchmarkError(f"{MODEL.name} has sha256 {digest}, expected {MODEL_SHA256}")
        try:
            modules["icl_transformer"].load_model(str(MODEL))
        except (ValueError, KeyError) as exc:
            # the passes will fail on it too, and every cell counts as failed
            print(f"model rejected: {exc}", file=sys.stderr)
    return Context(workload, seed, work, config_path, modules, config)


def timed(fn):
    """(fn's result, its wall time, the reference scale around it)."""
    before = reference_seconds()
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    return out, wall, REFERENCE_S / (0.5 * (before + reference_seconds()))


def probe_setup(workload, seed, work):
    """Wall time and scale of ``setup`` in a fresh interpreter, start to exit."""
    argv = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
            "--seed", str(seed), "--work", str(work)]
    # no timeout: with one, the wait polls in steps of up to 50 ms and the
    # measured time snaps to that grid
    _, wall, scale = timed(lambda: subprocess.run(argv, check=True, cwd=ROOT))
    return wall, scale


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _ratio(values):
    return statistics.fmean(values) if values else 0.0


def _eval_cells(path):
    return {(int(r["density"]), float(r["b_pct"])): r for r in read_csv(path)}


def check_generalize(ctx, out, code):
    """Every cell present and error-free; b=0 cells meet criterion 7.

    At N = n_est the model-based design is the optimal one, so there only the
    5% bar applies.  u_icl may exceed u_star slightly (a repaired ladder need
    not be BEB), so no upper bound is asserted.  u_ratio: mean u_icl / u_star
    over the cells.
    """
    cfg = ctx.config
    cells = [(n, float(b)) for n in cfg.test_densities for b in cfg.b_pct_sweep]
    if code != 0:
        return cells, [(c, f"eval exited with {code}") for c in cells], 0.0
    rows = _eval_cells(out / "eval.csv")
    failures, ratios = [], []
    for cell in cells:
        n, b = cell
        row = rows.get(cell)
        if row is None or row["u_icl"] == "":
            failures.append((cell, "cell error"))
            continue
        u_star, u_icl, u_mb = (float(row[k]) for k in ("u_star", "u_icl", "u_model_based"))
        ratios.append(u_icl / u_star)
        if b == 0.0:
            if abs(u_star - u_icl) / u_star > 0.05:
                failures.append((cell, "b=0 more than 5% from u_star"))
            if n != cfg.n_est and u_icl <= u_mb:
                failures.append((cell, "b=0 does not beat the model-based design"))
    return cells, failures, _ratio(ratios)


def check_simulate(ctx, out, code):
    """Every simulator run within 2% of the model (criterion 3).

    u_ratio: mean of 1 - rel_deviation over the runs.
    """
    cfg = ctx.config
    runs = [(n, rep) for n in cfg.validate_densities for rep in range(cfg.sim_seeds)]
    if code != 0:
        return runs, [(r, f"validate exited with {code}") for r in runs], 0.0
    rows = read_csv(out / "validate.csv")
    failures = [(r, "missing row") for r in runs[len(rows):]]
    deviations = []
    for run, row in zip(runs, rows):
        rel = float(row["rel_deviation"])
        deviations.append(rel)
        if not rel <= 0.02:
            failures.append((run, f"rel_deviation {rel:.4f} > 0.02"))
    return runs, failures, _ratio([1.0 - d for d in deviations])


@dataclass(frozen=True)
class Workload:
    config: dict        # the config file the command reads
    command: list       # argv before --config, --seed and --out
    check: Callable


WORKLOADS = {
    "generalize": Workload({"test_densities": GENERALIZE_DENSITIES},
                           ["eval", "--no-sim", "--model", str(MODEL)], check_generalize),
    "simulate": Workload(SIMULATE, ["validate"], check_simulate),
}


def trace_targets(modules):
    """(owner, attribute, span name, keep) for every rebinding of a traced pass."""
    targets = []
    for layer, names in TRACED.items():
        for name in names:
            span = f"{layer}.{name}"
            targets.append((modules[layer], name, span, span in KEPT))
    # prompt_pipeline imports these two by name; without rebinding them there
    # the dataset designs go uncounted
    for name in ("optimize_tau", "solve_ladder"):
        targets.append((modules["prompt_pipeline"], name, f"analytic_model.{name}", False))
    report = modules["experiment_harness"].Report
    targets.append((report, "write", "experiment_harness.Report.write", False))
    return targets


def dir_digest(path):
    digest = hashlib.sha256()
    for item in sorted(path.rglob("*")):
        if item.is_file():
            digest.update(str(item.relative_to(path)).encode())
            digest.update(item.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Pass:
    traced: bool
    wall_s: float
    scale: float      # REFERENCE_S / reference time around the pass


@dataclass
class Passes:
    passes: list      # indexed by pass id
    attempted: int
    failures: list
    u_ratio: float

    def scaled(self, traced):
        return [p.wall_s * p.scale for p in self.passes if p.traced == traced]


def run_passes(ctx, seconds, tracer=None):
    """Repeat the command until the next pass would overrun ``seconds``.

    With a tracer each round is an untraced pass followed by a traced one.
    Every pass is checked, and its output files must equal the first pass's.
    """
    workload = WORKLOADS[ctx.workload]
    argv = workload.command + ["--config", str(ctx.config_path), "--seed", str(ctx.seed)]
    targets = trace_targets(ctx.modules) if tracer else None
    modes = (False, True) if tracer else (False,)
    min_rounds = MIN_TRACED_PASSES if tracer else MIN_PASSES
    result = Passes([], 0, [], 0.0)
    first_digest = None
    start = time.perf_counter()
    while True:
        for traced in modes:
            pass_id = len(result.passes)
            out = ctx.work / "out"
            shutil.rmtree(out, ignore_errors=True)
            pass_argv = argv + ["--out", str(out)]
            if traced:
                root = len(tracer.spans)
                with tracer.installed(targets, pass_id):
                    code, _, scale = timed(lambda: ctx.cli.main(pass_argv))
                _, begin, end, _, _ = tracer.spans[root]
                result.passes.append(Pass(True, end - begin, scale))
            else:
                code, wall, scale = timed(lambda: ctx.cli.main(pass_argv))
                result.passes.append(Pass(False, wall, scale))
            ops, failures, result.u_ratio = workload.check(ctx, out, code)
            digest = dir_digest(out)
            first_digest = first_digest or digest
            if digest != first_digest:
                failures += [(op, "output differs from the first pass") for op in ops]
            result.attempted += len(ops)
            result.failures += [((pass_id, op), why) for op, why in failures]
        rounds = len(result.passes) // len(modes)
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return result


def sim_failures(tracer):
    """Accounting identity of every simulator run captured in traced passes."""
    failures = []
    for index, (args, res) in tracer.results.items():
        config = args[0]
        slots = res.successes + res.collisions + res.idle_time_us / config.params.slot_time_us
        if abs(slots - config.horizon_slots) > 1e-6 * config.horizon_slots:
            failures.append(((tracer.spans[index][4], config.n_nodes, config.seed),
                             f"accounting identity off: {slots} != {config.horizon_slots}"))
    return failures


def layer_metrics(tracer, passes):
    """Per-layer metrics: means over the traced passes of a run.

    Every time is scaled by its pass's reference scale, like run_s.
    """
    spans = tracer.spans
    names = tracer.names
    scale = [p.scale for p in passes.passes]
    selfs = [own_s * scale[s[4]] for s, own_s in zip(spans, self_times(spans))]
    n_traced = len(passes.scaled(True))
    calls, own, layer = {}, {}, {}
    for (name_id, _, _, _, _), own_s in zip(spans, selfs):
        name = names[name_id]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + own_s
        key = name.split(".", 1)[0]
        layer[key] = layer.get(key, 0.0) + own_s

    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name] / n_traced
        metrics[f"{name}.self_s"] = own[name] / n_traced
    for key, total in layer.items():
        metrics[f"{key}.self_s"] = total / n_traced
    metrics["experiment_harness.report_write_s"] = own.get(
        "experiment_harness.Report.write", 0.0) / n_traced

    ladder, tau = tracer.name_id("analytic_model.solve_ladder"), tracer.name_id(
        "analytic_model.solve_tau")
    nested = sum(1 for s in spans if s[0] == tau and s[3] >= 0 and spans[s[3]][0] == ladder)
    if calls.get("analytic_model.solve_ladder"):
        metrics["analytic_model.solve_ladder.solve_tau_per_call"] = (
            nested / calls["analytic_model.solve_ladder"])

    cell_name = tracer.name_id("experiment_harness.predict_thresholds")
    cells_ms = [1e3 * (s[2] - s[1]) * scale[s[4]] for s in spans if s[0] == cell_name]
    if cells_ms:
        metrics["experiment_harness.predict_thresholds.p50_ms"] = statistics.median(cells_ms)
        p99 = tail_percentile(cells_ms, 99)
        if p99 is None:
            raise BenchmarkError(f"{len(cells_ms)} cells are too few for a p99")
        metrics["experiment_harness.predict_thresholds.p99_ms"] = p99

    events = slots = successes = 0
    sim_s = 0.0
    per_n = {}
    for index, (args, res) in tracer.results.items():
        _, start, end, _, pass_id = spans[index]
        span_s = (end - start) * scale[pass_id]
        config = args[0]
        busy = res.successes + res.collisions
        events += busy
        successes += res.successes
        slots += config.horizon_slots
        sim_s += span_s
        n_s, n_events = per_n.get(config.n_nodes, (0.0, 0))
        per_n[config.n_nodes] = (n_s + span_s, n_events + busy)
    if events:
        metrics["mac_simulator.run.events"] = events / n_traced
        metrics["mac_simulator.slots_per_s"] = slots / sim_s
        metrics["mac_simulator.success_ratio"] = successes / events
        for n, (n_s, n_events) in per_n.items():
            metrics[f"mac_simulator.us_per_event.n{n}"] = 1e6 * n_s / n_events

    metrics["trace.run_s"] = statistics.fmean(passes.scaled(True))
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.fmean(passes.scaled(False))
    attributed = sum(layer.values()) / n_traced
    if abs(attributed - metrics["trace.run_s"]) > 1e-9 * metrics["trace.run_s"]:
        raise BenchmarkError(f"layer self times sum to {attributed}, "
                             f"traced passes take {metrics['trace.run_s']}")
    return metrics


def write_spans(tracer, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("name", "start", "end", "parent", "pass"))
        for name_id, start, end, parent, pass_id in tracer.spans:
            writer.writerow((tracer.names[name_id], repr(start), repr(end), parent, pass_id))


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _commit(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def _metric(name, value, table):
    return {"value": float(value), "unit": table[name][0]}


def _tail(samples):
    for q in (99.9, 99, 90):
        value = tail_percentile(samples, q)
        if value is not None:
            return {"q": q, "value": value}
    return None


def benchmark(args):
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ctx = setup(args.workload, args.seed, work)
        probes = [] if args.trace else [probe_setup(args.workload, args.seed, work)
                                        for _ in range(SETUP_PROBES)]
        tracer = Tracer() if args.trace else None
        passes = run_passes(ctx, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = list(passes.failures)
    run_values = passes.scaled(False)
    setup_values = [wall * scale for wall, scale in probes]
    if tracer:
        failures += sim_failures(tracer)
        computed = layer_metrics(tracer, passes)
        metrics = {name: _metric(name, computed.get(name, 0.0), PER_LAYER)
                   for name in PER_LAYER}
        write_spans(tracer, WORK / f"spans-{args.workload}.csv")
    else:
        values = {
            "run_s": statistics.median(run_values),
            "setup_s": statistics.median(setup_values),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "u_ratio": passes.u_ratio,
        }
        metrics = {name: _metric(name, values[name], END_TO_END) for name in END_TO_END}
    failed = count_failed(failures)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_s": {"samples": len(run_values), "values": run_values,
                  "tail": _tail(run_values)},
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "scale": p.scale}
                   for p in passes.passes],
        "setup_s": {"samples": len(probes), "values": setup_values,
                    "wall_s": [wall for wall, _ in probes]},
        "failures": [f"{op}: {why}" for op, why in failures[:20]],
        "environment": environment(),
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": passes.attempted,
                      "failed": failed, "metrics": metrics}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, args.work)
        else:
            benchmark(args)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
