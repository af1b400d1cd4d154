"""Seeded experiment orchestration and CSV report emission.

Every command is a pure function of its ExperimentConfig: all randomness is
derived from the master seed, report rows carry the seed and a hash of the
resolved configuration, and no timestamps enter any output, so re-running a
command with the same config produces byte-identical files.  Training keys
its streams on the master seed; every other stream is keyed by
``_seed_sequence``: one generator per eval density draws its test jitter and
then every error level's signs (``_eval_inputs``), and each simulator run
gets a u64 seed from ``_seed``.  The table commands share one per-density
loop and error policy, ``_table``; a command's simulator runs are built
density by density and run in one ``sim.run_all`` call (``_simulate_all``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import islice

import numpy as np

from . import analytic_model as am
from . import icl_transformer as tf
from . import mac_simulator as sim
from . import prompt_pipeline as pp

__all__ = [
    "ExperimentConfig",
    "Report",
    "load_config",
    "config_hash",
    "cmd_solve",
    "cmd_datagen",
    "cmd_train",
    "cmd_eval",
    "cmd_validate",
    "cmd_bench",
    "repair_ladder",
    "repair_ladders",
    "predict_thresholds",
    "predict_stack",
]

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    params: am.NetworkParams = field(default_factory=am.NetworkParams)
    train_densities: tuple[int, ...] = (2, 3, 4, 5, 6)
    test_densities: tuple[int, ...] = (100, 200, 300, 400, 500)
    k_max: int = 8
    cap: int = 32768
    step_size: float = 0.05
    max_rounds: int = 10_000
    jitter_pct: float = 0.05
    reps_per_query: int = 4
    b_pct_sweep: tuple[float, ...] = (0.0, 20.0, 40.0, 60.0)
    n_est: int = 50
    sim_horizon_slots: int = 1_000_000
    sim_seeds: int = 3
    validate_densities: tuple[int, ...] = (1, 2, 5, 10, 20)
    master_seed: int = 7

    def __post_init__(self):
        # annotations are strings under ``from __future__ import annotations``;
        # lists become tuples and numbers in float fields become floats, so a
        # config hashes the same whether a file writes 0 or 0.0
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise TypeError(f"{f.name} must be an integer, got {value!r}")
            if f.type.startswith("tuple"):
                if not isinstance(value, (tuple, list)):
                    raise TypeError(f"{f.name} must be a list, got {value!r}")
                if not value:
                    raise ValueError(f"{f.name} must be non-empty")
                object.__setattr__(self, f.name, tuple(value))
            if f.type == "float":
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError(f"{f.name} must be a number, got {value!r}")
                # exact int/float comparison: also refuses ints too large for a float
                if not abs(value) <= sys.float_info.max:
                    raise ValueError(f"{f.name} must be finite and fit in a float, got {value!r}")
                object.__setattr__(self, f.name, float(value))
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not self.jitter_pct >= 0:
            raise ValueError(f"jitter_pct must be >= 0, got {self.jitter_pct}")
        # a ladder needs >= 2 nodes; validate runs N = 1 on a fixed BEB ladder
        for name, values, low in [("train_densities", self.train_densities, 2),
                                  ("test_densities", self.test_densities, 2),
                                  ("n_est", (self.n_est,), 2),
                                  ("validate_densities", self.validate_densities, 1),
                                  ("k_max", (self.k_max,), 0),
                                  ("max_rounds", (self.max_rounds,), 1),
                                  ("sim_horizon_slots", (self.sim_horizon_slots,), 1),
                                  ("sim_seeds", (self.sim_seeds,), 1),
                                  ("reps_per_query", (self.reps_per_query,), 1)]:
            if any(isinstance(n, bool) or not isinstance(n, int) or n < low for n in values):
                raise ValueError(f"{name}: expected integers >= {low}, got {getattr(self, name)}")
        # a training density is one example set and a table density one
        # stream key, so a repeat would train it twice or rerun its stream
        for name in ("train_densities", "test_densities", "validate_densities"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name}: expected distinct densities, got {values}")
        # exact int/float comparison: the design takes the cap as a float
        if self.cap > sys.float_info.max:
            raise ValueError(f"cap must fit in a float, got a {self.cap.bit_length()}-bit integer")
        # W_0 >= 2, so a cap of 1 leaves no ladder for any density
        if self.cap < max(2, 2 ** self.k_max):
            raise ValueError(f"cap must be >= max(2, 2**k_max) = {max(2, 2 ** self.k_max)}, "
                             f"got {self.cap}")
        # above MAX_CAP the all-cap ladder's fixed point lies out of the
        # solver's reach; designs certify that end without solving it, but a
        # ladder near the all-cap shape still fails; K = 0 solves in closed form
        if self.k_max >= 1 and self.cap > am.MAX_CAP:
            raise ValueError(f"cap must be <= {am.MAX_CAP} when k_max >= 1, got {self.cap}")
        if any(isinstance(b, bool) or not isinstance(b, (int, float)) or not 0 <= b < 100
               for b in self.b_pct_sweep):
            raise ValueError(f"b_pct_sweep entries must lie in [0, 100), got {self.b_pct_sweep}")
        object.__setattr__(self, "b_pct_sweep", tuple(float(b) for b in self.b_pct_sweep))
        # each level draws its own signs, so a repeat would write a second,
        # different row for one (density, b%) cell
        if len(set(self.b_pct_sweep)) != len(self.b_pct_sweep):
            raise ValueError(f"b_pct_sweep: expected distinct levels, got {self.b_pct_sweep}")

    @property
    def n_stages(self):
        return self.k_max + 1


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)} - {"params"}


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; a repeated key is a ValueError naming it."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated config key: {key!r}")
        out[key] = value
    return out


def load_config(path=None, seed=None):
    """Build an ExperimentConfig from a JSON file plus a seed override.

    The file holds a JSON object that may carry a ``network`` object
    (t_sigma_us, ... keys) and any of the config fields; everything omitted
    takes the defaults above.  A key repeated in either object is refused,
    where JSON alone would keep its last value.
    """
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(raw, dict):
        raise TypeError(f"config must be a JSON object, got {raw!r}")
    unknown = set(raw) - _CONFIG_FIELDS - {"network"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {key: value for key, value in raw.items() if key in _CONFIG_FIELDS}
    if "network" in raw:
        kwargs["params"] = am.NetworkParams.from_mapping(raw["network"])
    config = ExperimentConfig(**kwargs)
    if seed is not None:
        config = replace(config, master_seed=int(seed))
    return config


def config_hash(config):
    """Short stable digest of the resolved configuration."""
    record = asdict(config)
    record["params"] = config.params.to_mapping()
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class Report:
    """Named tables plus the provenance needed to reproduce them."""

    tables: dict[str, tuple[tuple[str, ...], list[list]]]
    config: ExperimentConfig

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        for name, (columns, rows) in self.tables.items():
            with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="",
                      encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                # csv writes a float as its repr, so every float reads back exactly
                writer.writerows(rows)
        meta = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config_hash": config_hash(self.config),
            "master_seed": self.config.master_seed,
            "config": {**asdict(self.config), "params": self.config.params.to_mapping()},
        }
        with open(os.path.join(out_dir, "run_metadata.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)


# One constant per random stream.  ``_seed_sequence`` keys each stream
# SeedSequence([master_seed, stream, density, index]) with all four words, so
# no two of these keys share an entropy pool.  SeedSequence pads the training
# dataset's [master_seed, n] to [master_seed, n, 0, 0], a density-0 key.
EVAL_INPUTS = 1     # a density's eval inputs: test jitter, then each b > 0 level's signs
EVAL_SIM = 3        # eval simulator runs, per b index
VALIDATE_SIM = 4    # validate simulator runs, per repetition
BENCH_SIM = 5       # bench simulator runs: index 0 matched, 1 mismatched
TRAIN_PROMPTS = 6   # a training density's prompt compositions
CELL_ERRORS = (ValueError, am.FixedPointError, am.LadderSearchError)


def _seed_sequence(config, stream, density, index=0):
    return np.random.SeedSequence([config.master_seed, stream, density, index])


def _seed(config, stream, density, index=0):
    """u64 seed drawn from SeedSequence([master_seed, stream, density, index])."""
    return int(_seed_sequence(config, stream, density, index).generate_state(1, np.uint64)[0])


def repair_ladders(values, cap):
    """Round predicted thresholds into deployable ladders, one per row of the last axis.

    Half-up rounding, W_0 floored at 2, then monotone repair: each entry
    exceeds its predecessor by at least 1 until the cap is reached, after
    which entries stay parked at the cap.  Clamped into [2, cap], entry k
    becomes min(cap, k + max_{j<=k}(r_j - j)), a running maximum over the
    row.  Returns an array of the integer thresholds: float64 while every
    integer formed (at most cap + K) is exact in it, Python ints beyond.
    """
    rounded = np.floor(np.asarray(values, dtype=float) + 0.5)
    stage = np.arange(rounded.shape[-1])
    if cap + len(stage) > 2 ** 53:
        rounded = np.frompyfunc(int, 1, 1)(rounded)
    rounded = np.minimum(np.maximum(rounded, 2), cap)
    return np.minimum(np.maximum.accumulate(rounded - stage, axis=-1) + stage, cap)


def repair_ladder(values, cap):
    """The deployable ladder of one row of predicted thresholds (``repair_ladders``)."""
    return am.BackoffLadder(tuple(repair_ladders([values], cap)[0].tolist()), cap)


def predict_stack(model, example_sets, label_rows, k_max):
    """Predict every stage's CWT of D densities under each density's rows of labels.

    ``example_sets`` gives each density's features and clean labels, and
    ``label_rows[i]`` holds density i's R rows of in-context labels, one
    label per example (the clean labels or a label error of them), since
    label errors leave the features alone.  Every set is embedded as the
    prompt querying stage 0, in one stack (``pp.embed_stack``), and one
    attention pass (``tf.predict_stages``) queries every stage of every
    prompt.  Returns the (D, R, K+1) predictions, each equal, bit for bit,
    to ``tf.predict`` on ``embed(build_prompt(...))`` of its set with its
    row's labels for its stage, and the (D, K+1) query-stage attention
    masses, which a density's rows share.
    """
    stack = pp.embed_stack(example_sets, 0, model.scaler, model.n_stages, model.stage_gain)
    return tf.predict_stages(model.params, stack, range(k_max + 1), label_rows)


def predict_thresholds(model, examples, label_rows, k_max):
    """``predict_stack`` of one density: a prediction list per label row, and the masses."""
    preds, masses = predict_stack(model, [examples], [label_rows], k_max)
    return preds[0].tolist(), masses[0].tolist()


def _table(config, name, columns, densities, density_rows, *stages):
    """One report table built density by density, plus the per-density errors.

    ``density_rows(n)`` returns density n's rows.  A density for which it
    raises one of CELL_ERRORS adds no rows and one ``{"density", "error"}``
    record.  Every row gets the config hash as its last column.

    With ``stages``, ``density_rows(n)`` returns density n's inputs
    instead, and each stage in turn maps the values of every density still
    in the table to one function per density, whose call returns the
    density's next value (after the last stage, its rows) or raises as
    above.  Rows and errors keep the order of ``densities``.
    """
    digest = config_hash(config)
    errors = {}

    def each(steps):
        done = {}
        for n, step in steps.items():
            try:
                done[n] = step()
            except CELL_ERRORS as exc:
                errors[n] = {"density": n, "error": str(exc)}
        return done

    done = each({n: partial(density_rows, n) for n in densities})
    for stage in stages:
        if done:
            done = each(dict(zip(done, stage(list(done.values())))))
    rows = [row + [digest] for n in densities if n in done for row in done[n]]
    return (Report({name: (columns + ("config_hash",), rows)}, config),
            [errors[n] for n in densities if n in errors])


def _sim_config(config, n, ladder, seed):
    return sim.SimConfig(n, ladder, config.params, config.sim_horizon_slots, seed)


def _simulate_all(inputs):
    """A ``_table`` stage that runs every density's simulator runs in one ``sim.run_all`` call.

    ``inputs`` holds each density's ``(sim_configs, rows)``, and density
    i's function returns ``rows(results)`` on the results of its own
    configs.
    """
    results = iter(sim.run_all([c for sim_configs, _ in inputs for c in sim_configs]))
    return [partial(rows, list(islice(results, len(sim_configs))))
            for sim_configs, rows in inputs]


def cmd_solve(config):
    """Optimal tau and synthesized ladder for every configured density."""
    columns = ("density", "tau_star", "u_star", "w0", "w_top", "tau_achieved",
               "tau_residual", "u_achieved", "seed")

    densities = sorted(set(config.train_densities) | set(config.test_densities))
    optima = [am.optimize_tau(n, config.params) for n in densities]
    designs = dict(zip(densities, zip(optima, am.solve_ladders(
        [tau_star for tau_star, _ in optima], densities, config.k_max, config.cap))))

    def density_rows(n):
        (tau_star, u_star), design = designs[n]
        ladder, fp = am._outcome(design)
        return [[n, tau_star, u_star, ladder.thresholds[0], ladder.thresholds[-1], fp.tau,
                 abs(fp.tau - tau_star), am.throughput(fp.tau, n, config.params),
                 config.master_seed]]

    return _table(config, "solve", columns, densities, density_rows)


def _training_dataset(config):
    return pp.generate_dataset(config.train_densities, config.k_max, config.cap,
                               config.params, config.jitter_pct, config.master_seed)


def cmd_datagen(config, out_dir=None):
    """Emit the training dataset CSV (plus metadata) and return its example sets."""
    example_sets = _training_dataset(config)
    if out_dir is not None:
        Report({"dataset": (pp.DATASET_CSV_COLUMNS, pp.dataset_rows(example_sets))},
               config).write(out_dir)
    return example_sets


def _training_batch(config):
    """The fitted scaler and the training batch as ``tf.train``'s (columns, rows).

    Columns: each density's K+1 embedded examples in turn; rows: the prompts sampled on them.
    """
    example_sets = _training_dataset(config)
    scaler = pp.fit_scaler(example_sets)
    stack = pp.embed_stack(example_sets, 0, scaler, config.n_stages)
    rows = [pp.sample_training_prompts(examples, config.reps_per_query, np.random.default_rng(
                _seed_sequence(config, TRAIN_PROMPTS, examples.density))) + i * config.n_stages
            for i, examples in enumerate(example_sets)]
    return scaler, (np.concatenate(stack.matrix[:, :, :-1], axis=1), np.concatenate(rows))


def cmd_train(config):
    """Run the training pipeline; returns (model, trace, report)."""
    scaler, batch = _training_batch(config)
    params, trace = tf.train(batch, config.step_size, config.max_rounds)
    model = tf.TrainedModel(params, scaler, trace.label_scale, config.n_stages, pp.STAGE_GAIN)
    digest = config_hash(config)
    columns = ("step", "loss", "step_norm", "seed", "config_hash")
    rows = [[t, loss, trace.step_norms[t] if t < len(trace.step_norms) else "",
             config.master_seed, digest] for t, loss in enumerate(trace.losses)]
    report = Report({"loss_trace": (columns, rows)}, config)
    return model, trace, report


def _designs(config, densities):
    """The optimize_tau -> solve_ladder design of each distinct density, as {density: outcome}.

    One ``am.solve_ladders`` call designs them all; an outcome is the
    ``(ladder, fixed_point)`` pair or the error of that density's design.
    """
    densities = list(dict.fromkeys(densities))
    tau_stars = [am.optimize_tau(n, config.params)[0] for n in densities]
    return dict(zip(densities, am.solve_ladders(tau_stars, densities, config.k_max, config.cap)))


def _eval_inputs(config, density, design):
    """One density's clean test examples and one row of label-error signs per error level b.

    ``design`` is the density's ``(ladder, fixed_point)`` (``_designs``).
    Everything random comes from the density's one ``EVAL_INPUTS``
    generator, in a fixed order: the test jitter (apart from the training
    jitter), then the signs of each b > 0 level in ``b_pct_sweep`` order,
    so a level appended to the sweep leaves the earlier rows alone.  A
    b = 0 level draws nothing and its row is 0s.  ``_label_rows`` turns the
    signs into labels.
    """
    rng = np.random.default_rng(_seed_sequence(config, EVAL_INPUTS, density))
    clean = pp.density_examples(density, design, config.params, config.jitter_pct, rng)
    size = len(clean.labels)
    return clean, np.array([rng.integers(0, 2, size=size) if b > 0 else np.zeros(size, int)
                            for b in config.b_pct_sweep])


def _label_rows(config, inputs):
    """The (D, R, K+1) label rows of D densities' ``_eval_inputs``, one expression for all.

    Row r of a density is its clean labels under the error level
    ``b_pct_sweep[r]`` (``pp.label_error_rows``); at b = 0 it equals the
    clean labels.
    """
    labels = np.stack([clean.labels for clean, _ in inputs])
    signs = np.stack([ups for _, ups in inputs])
    return pp.label_error_rows(labels, signs, config.b_pct_sweep, config.cap)


def _n_est_ladder(config, designs):
    """The model-based ladder, ``n_est``'s of ``designs``; a failed design names ``n_est``."""
    try:
        return am._outcome(designs[config.n_est])[0]
    except CELL_ERRORS as exc:
        raise type(exc)(f"n_est = {config.n_est}: {exc}") from exc


def cmd_eval(config, model, with_sim=True):
    """Compare ICL-predicted ladders against the optimum and the benchmark.

    For each test density and error level b: build a prompt from the (possibly
    corrupted) analytic ladder labels, predict all stage thresholds, deploy the
    repaired ladder, and evaluate it analytically (and in the simulator when
    ``with_sim``).  The sweep runs in five steps: the designs of every
    density and of ``n_est`` in one ``am.solve_ladders`` call
    (``_designs``); each density's inputs on its design (``_eval_inputs``:
    its examples and sign draws), in density order; the label rows of
    every cell in one expression (``_label_rows``), one
    attention pass over the stacked prompts of every density that got them
    (``predict_stack``: label errors leave the features alone, so one prompt
    per density serves every stage and every b), one repair of all their
    ladders (``repair_ladders``) and one ``am.rows_throughput`` call that
    checks every repaired row against the ladder rule and solves it and the
    ``n_est`` ladder at each density (one window estimate for all rows,
    then each row's replay), with no ladder built; then each density's
    cells, in the order the errors were always met: the ``n_est`` solve,
    then per b the row's rule, its solve and its simulator config (the
    only place a ``BackoffLadder`` is built); then every density's
    simulator runs in one ``sim.run_all`` call (``_simulate_all``).  A
    density whose design fails, or that fails in the fourth step, is one
    error of ``_table``.
    Reference columns: the density's own optimal ladder (U*) and the
    model-based design for the estimated density ``n_est``.  Raises before
    any density when the model has fewer stages than ``k_max + 1``, a
    scaler of other than 4 components, or an ``n_est`` design that fails.
    """
    if config.n_stages > model.n_stages:
        raise ValueError(f"k_max {config.k_max} needs {config.n_stages} stages; "
                         f"the model has {model.n_stages}")
    # one scaling of the whole stack: a scaler that does not fit the
    # (k, T_P, T_s, T_c) features would fail every density at once
    if len(model.scaler.shift) != 4:
        raise ValueError(f"the model's scaler has {len(model.scaler.shift)} components; "
                         f"the features have 4")
    columns = ("density", "b_pct", "u_star", "u_icl", "u_icl_sim",
               "u_model_based", "w0_icl", "w_top_icl", "min_query_mass", "seed")
    designs = _designs(config, config.test_densities + (config.n_est,))
    ladder_est = _n_est_ladder(config, designs)

    def stacked(inputs):
        example_sets = [clean for clean, _ in inputs]
        preds, masses = predict_stack(model, example_sets, _label_rows(config, inputs),
                                      config.k_max)
        flat = repair_ladders(preds, config.cap).reshape(-1, config.n_stages)
        levels, densities = len(config.b_pct_sweep), [clean.density for clean in example_sets]
        # every cell's row, density by density, then the n_est ladder at each density
        est = np.array([ladder_est.thresholds] * len(densities), flat.dtype)
        u = am.rows_throughput(np.concatenate([flat, est]), config.cap,
                               [n for n in densities for _ in range(levels)] + densities,
                               config.params)
        rows, cells = flat.tolist(), len(flat)
        return [partial(deployed_rows, clean, rows[i * levels:(i + 1) * levels],
                        u[i * levels:(i + 1) * levels], u[cells + i], min_mass)
                for i, (clean, min_mass) in enumerate(zip(example_sets,
                                                          masses.min(axis=1).tolist()))]

    def deployed_rows(clean, ladders, u_icl, u_mb, min_mass):
        n = clean.density
        # the clean labels are the optimize_tau -> solve_ladders design, and
        # U* is the throughput of its fixed point
        u_star = am.throughput(clean.fixed_point.tau, n, config.params)
        u_mb = am._outcome(u_mb)
        cells, runs = [], []
        for i, (b, thresholds, u) in enumerate(zip(config.b_pct_sweep, ladders, u_icl)):
            cells.append([n, float(b), u_star, am._outcome(u)])
            if with_sim:
                runs.append(_sim_config(config, n, am.BackoffLadder(thresholds, config.cap),
                                        _seed(config, EVAL_SIM, n, i)))

        def rows(results):
            u_icl_sim = [result.throughput for result in results] or [""] * len(cells)
            return [cell + [u_sim, u_mb, int(thresholds[0]), int(thresholds[-1]), min_mass,
                            config.master_seed]
                    for cell, u_sim, thresholds in zip(cells, u_icl_sim, ladders)]
        # without the simulator the rows are done here: a sweep of many cheap
        # densities would pay for a stage that runs nothing
        return (runs, rows) if with_sim else rows([])

    stages = (stacked, _simulate_all) if with_sim else (stacked,)
    return _table(config, "eval", columns, config.test_densities,
                  lambda n: _eval_inputs(config, n, am._outcome(designs[n])), *stages)


def cmd_validate(config):
    """Simulator-vs-model agreement across densities, several seeds each."""
    columns = ("density", "seed", "w0", "u_model", "u_sim", "rel_deviation",
               "tau_model", "tau_sim")
    designs = _designs(config, [n for n in config.validate_densities if n != 1])

    def density_rows(n):
        if n == 1:
            ladder = am.BackoffLadder.beb(32, config.k_max, config.cap)
            fp = am.solve_tau(ladder, n)
        else:
            ladder, fp = am._outcome(designs[n])
        u_model = am.throughput(fp.tau, n, config.params)
        # (1 - tau)^N can underflow at a large density, and a deviation from 0 is undefined
        if u_model == 0.0:
            raise ValueError(f"density {n}: model throughput is 0 at tau = {fp.tau!r}, "
                             "so rel_deviation is undefined")
        runs = [_sim_config(config, n, ladder, _seed(config, VALIDATE_SIM, n, rep))
                for rep in range(config.sim_seeds)]

        def rows(results):
            return [[n, sim_config.seed, ladder.thresholds[0], u_model, result.throughput,
                     abs(result.throughput - u_model) / u_model, fp.tau,
                     result.tx_attempt_rate] for sim_config, result in zip(runs, results)]
        return runs, rows

    return _table(config, "validate", columns, config.validate_densities, density_rows,
                  _simulate_all)


def cmd_bench(config, with_sim=False):
    """Throughput cost of designing for n_est and deploying at each test density."""
    columns = ("n_true", "n_est", "mismatch_loss", "u_matched", "u_mismatched",
               "u_matched_sim", "u_mismatched_sim", "seed")
    designs = _designs(config, config.test_densities + (config.n_est,))
    ladder_est = _n_est_ladder(config, designs)

    def density_rows(n):
        ladder_opt, fp = am._outcome(designs[n])
        u_matched = am.throughput(fp.tau, n, config.params)
        u_mismatched = am.ladder_throughput(ladder_est, n, config.params)
        runs = [_sim_config(config, n, ladder, _seed(config, BENCH_SIM, n, i))
                for i, ladder in enumerate((ladder_opt, ladder_est))] if with_sim else []

        def rows(results):
            sim_columns = [result.throughput for result in results] or ["", ""]
            return [[n, config.n_est, u_matched - u_mismatched, u_matched, u_mismatched,
                     *sim_columns, config.master_seed]]
        return runs, rows

    return _table(config, "bench", columns, config.test_densities, density_rows,
                  _simulate_all)
