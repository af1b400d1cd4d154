"""Seeded experiment orchestration and CSV report emission.

Every command is a pure function of its ExperimentConfig: all randomness is
derived from the master seed, report rows carry the seed and a hash of the
resolved configuration, and no timestamps enter any output, so re-running a
command with the same config produces byte-identical files.  Training keys
its streams on the master seed; every other stream is keyed by
``_seed_sequence``: one generator per eval density draws its test jitter and
then the signs of every error level in one draw (``_eval_inputs``), and each
simulator run gets a u64 seed from ``_seed``.

The table commands (solve, eval, validate, bench) share one shape.  A
command first does its analytic work on whole arrays, for every density at
once.  Then ``_table`` calls the command's step once per density, inside
the one catch of the per-density error policy; a step raises that
density's error or returns its simulator configs and a ``finish`` that
turns their results into rows.  Every density's configs run in one
``sim.run_all`` call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
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
        # the design carries densities as floats, exact only up to 2**53
        for name, values in [("train_densities", self.train_densities), ("n_est", (self.n_est,)),
                             ("test_densities", self.test_densities),
                             ("validate_densities", self.validate_densities)]:
            if max(values) > 2 ** 53:
                raise ValueError(f"{name}: expected densities <= 2**53, which floats hold exactly")
        # a training density is one example set and a table density one
        # stream key, so a repeat would train it twice or rerun its stream
        for name in ("train_densities", "test_densities", "validate_densities"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name}: expected distinct densities, got {values}")
        # exact int/float comparison: the design takes the cap as a float
        if self.cap > sys.float_info.max:
            raise ValueError(f"cap must fit in a float, got a {self.cap.bit_length()}-bit integer")
        # W_0 >= 2; a cap >= 1 is below 2**k_max (never formed) when it has <= k_max bits
        if self.cap < 2 or self.cap.bit_length() <= self.k_max:
            raise ValueError(f"cap {self.cap} is below max(2, 2**k_max) at k_max = {self.k_max}")
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


def _config_int(path, digits):
    """A config integer literal as an int; one too long for Python is a ValueError naming it."""
    count = len(digits.lstrip("-"))
    # Python before 3.10.7 has no such limit; 0 means none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and count > limit:
        raise ValueError(f"config {path}: an integer of {count} digits is longer than "
                         f"the {limit} digits Python reads")
    return int(digits)


def load_config(path=None, seed=None):
    """Build an ExperimentConfig from a JSON file plus a seed override.

    The file holds a JSON object that may carry a ``network`` object
    (t_sigma_us, ... keys) and any of the config fields; everything omitted
    takes the defaults above.  A key repeated in either object is refused,
    where JSON alone would keep its last value, and so is an integer too
    long for Python to read, by its digit count.
    """
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys,
                            parse_int=partial(_config_int, path))
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


def _config_record(config):
    """The resolved configuration as a dict of numbers and tuples, the network by file key."""
    record = {f.name: getattr(config, f.name) for f in fields(config)}
    record["params"] = config.params.to_mapping()
    return record


def config_hash(config):
    """Short stable digest of the resolved configuration."""
    blob = json.dumps(_config_record(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class Report:
    """Named tables plus the provenance needed to reproduce them."""

    tables: dict[str, tuple[tuple[str, ...], list[list]]]
    config: ExperimentConfig
    digest: str | None = None  # config_hash(config), from a caller that has it

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
            "config_hash": self.digest or config_hash(self.config),
            "master_seed": self.config.master_seed,
            "config": _config_record(self.config),
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
CELL_ERRORS = (ValueError, am.LadderSearchError)


def _words(value):
    """A non-negative int's little-endian uint32 words, at least one."""
    return [value & 0xFFFFFFFF, *_words(value >> 32)] if value >> 32 else [value]


def _seed_sequence(config, stream, density, index=0):
    """SeedSequence([master_seed, stream, density, index]), handed its entropy words.

    SeedSequence pools the concatenated uint32 words of a list's ints;
    handing it those words as one uint32 array gives the same state and
    skips its conversion of each int.
    """
    words = [w for value in (config.master_seed, stream, density, index) for w in _words(value)]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


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


def predict_thresholds(model, examples, label_rows, k_max):
    """Predict every stage's CWT of one density under each of its rows of labels.

    One prompt (``pp.prompt_stack``) and one attention pass (``tf.predict_stages``),
    as in ``cmd_eval``: a prediction list per row, each ``tf.predict``'s on
    ``embed(build_prompt(...))`` bit for bit, and the K+1 query-stage masses.
    """
    stack = pp.prompt_stack(examples.raw[None], examples.labels[None], 0, model.scaler,
                            model.n_stages, model.stage_gain)
    preds, masses = tf.predict_stages(model.params, stack, range(k_max + 1), [label_rows])
    return preds[0].tolist(), masses[0].tolist()


def _table(config, name, columns, densities, step):
    """One report table built density by density, plus the per-density errors.

    ``step(n)`` returns density n's simulator configs and ``finish``, which
    maps the results of those runs to the density's rows.  A density whose
    step raises one of CELL_ERRORS adds no rows and one ``{"density",
    "error"}`` record.  The configs of every density then run in one
    ``sim.run_all`` call (a command without the simulator hands it none,
    and nothing is forked), and each ``finish`` gets the results of its own
    configs.  Rows and errors keep the order of ``densities``; every row
    gets the config hash as its last column.
    """
    digest = config_hash(config)
    steps, errors = [], []
    for n in densities:
        try:
            steps.append(step(n))
        except CELL_ERRORS as exc:
            errors.append({"density": n, "error": str(exc)})
    results = iter(sim.run_all([c for sim_configs, _ in steps for c in sim_configs]))
    rows = [row + [digest] for sim_configs, finish in steps
            for row in finish(list(islice(results, len(sim_configs))))]
    return Report({name: (columns + ("config_hash",), rows)}, config, digest), errors


def _sim_config(config, n, ladder, seed):
    return sim.SimConfig(n, ladder, config.params, config.sim_horizon_slots, seed)


def _design_throughputs(config, designs, taus=(), densities=()):
    """U at the fixed point of every design that succeeded, then at each given (tau, density).

    Returns the designs' U as {density: U} and the given points' as a
    list, all formed in one ``am._throughputs`` call.
    """
    fixed = {n: design[1].tau for n, design in designs.items()
             if not isinstance(design, Exception)}
    u = am._throughputs(np.array([*fixed.values(), *taus], float),
                        np.array([*fixed, *densities], float), config.params).tolist()
    return dict(zip(fixed, u)), u[len(fixed):]


def cmd_solve(config):
    """Optimal tau and synthesized ladder for every configured density."""
    columns = ("density", "tau_star", "u_star", "w0", "w_top", "tau_achieved",
               "tau_residual", "u_achieved", "seed")

    densities = sorted(set(config.train_densities) | set(config.test_densities))
    tau_stars = am.optimize_taus(densities, config.params)
    designs = dict(zip(densities, am.solve_ladders(tau_stars, densities, config.k_max,
                                                   config.cap)))
    u_achieved, u_stars = _design_throughputs(config, designs, tau_stars, densities)
    optima = dict(zip(densities, zip(tau_stars, u_stars)))

    def step(n):
        ladder, fp = am._outcome(designs[n])
        tau_star, u_star = optima[n]
        rows = [[n, tau_star, u_star, ladder.thresholds[0], ladder.thresholds[-1], fp.tau,
                 abs(fp.tau - tau_star), u_achieved[n], config.master_seed]]
        return [], lambda results: rows

    return _table(config, "solve", columns, densities, step)


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
    stack = pp.prompt_stack(np.stack([e.raw for e in example_sets]),
                            np.stack([e.labels for e in example_sets]), 0, scaler, config.n_stages)
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
    report = Report({"loss_trace": (columns, rows)}, config, digest)
    return model, trace, report


def _designs(config, densities):
    """The optimize_taus -> solve_ladders design of each distinct density, as {density: outcome}.

    One ``am.solve_ladders`` call designs them all; an outcome is the
    ``(ladder, fixed_point)`` pair or the error of that density's design.
    """
    densities = list(dict.fromkeys(densities))
    tau_stars = am.optimize_taus(densities, config.params)
    return dict(zip(densities, am.solve_ladders(tau_stars, densities, config.k_max, config.cap)))


def _eval_inputs(config, density):
    """One density's draws for eval: its test jitter and its label-error signs.

    Everything random comes from the density's one ``EVAL_INPUTS``
    generator, in a fixed order: the (K+1, 3) test jitter (apart from the
    training jitter), then the signs of the b > 0 levels as one
    (levels, K+1) draw, a row per level in ``b_pct_sweep`` order.  One draw
    of that shape takes from the stream what a draw per level in turn
    takes, so a level appended to the sweep leaves the earlier rows alone.
    ``_eval_stack`` turns the draws into examples and label rows.
    """
    rng = np.random.default_rng(_seed_sequence(config, EVAL_INPUTS, density))
    jitter = rng.uniform(-config.jitter_pct, config.jitter_pct, size=(config.n_stages, 3))
    levels = sum(b > 0 for b in config.b_pct_sweep)
    return jitter, rng.integers(0, 2, size=(levels, config.n_stages))


def _eval_stack(config, ladders, draws):
    """The features, clean labels and label rows of D densities, formed once for all.

    ``ladders[i]`` is density i's designed ladder and ``draws[i]`` its
    ``_eval_inputs``.  Returns the (D, K+1, 4) features
    (``pp.example_features``), the (D, K+1) clean labels (the ladders'
    thresholds) and the (D, R, K+1) label rows: row r of a density is its
    clean labels under the error level ``b_pct_sweep[r]``
    (``pp.label_error_rows``); a b = 0 level draws no signs and its row is
    the clean labels.
    """
    jitter, signs = (np.stack(part) for part in zip(*draws))
    labels = np.array([ladder.thresholds for ladder in ladders])
    ups = np.zeros((len(labels), len(config.b_pct_sweep), config.n_stages), int)
    ups[:, [b > 0 for b in config.b_pct_sweep]] = signs
    return (pp.example_features(jitter, config.params), labels,
            pp.label_error_rows(labels, ups, config.b_pct_sweep, config.cap))


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
    ``with_sim``).  The analytic work runs once for every density: the
    designs of every density and of ``n_est`` in one ``am.solve_ladders``
    call (``_designs``); then, over the densities whose design succeeded,
    their draws (``_eval_inputs``: test jitter and one draw of signs, in
    density order), their features, clean labels and label rows
    (``_eval_stack``), the stack of their prompts (``pp.prompt_stack``),
    one attention pass over it (``tf.predict_stages``: label errors leave
    the features alone, so one prompt per density serves every stage and
    every b), one repair of all their ladders (``repair_ladders``), one
    ``am.rows_throughput`` call that checks every repaired row against the
    ladder rule and solves it and the ``n_est`` ladder at each density in
    one lockstep solve, with no ladder built, and every U* in one array
    call; every cell's row is formed from these arrays.  Then each
    density's step in ``_table`` raises its first error, in the order the
    errors were always met (its design, the ``n_est`` solve, then per b the
    row's rule and solve), and with the simulator builds its runs (the only
    place a ``BackoffLadder`` is built).
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
    # the stacked pass, over every density whose design succeeded
    outcomes = {n: designs[n] for n in config.test_densities
                if not isinstance(designs[n], Exception)}
    cells = {}
    if outcomes:
        densities, levels = list(outcomes), len(config.b_pct_sweep)
        raw, labels, label_rows = _eval_stack(config, [ladder for ladder, _ in outcomes.values()],
                                              [_eval_inputs(config, n) for n in densities])
        stack = pp.prompt_stack(raw, labels, 0, model.scaler, model.n_stages, model.stage_gain)
        preds, masses = tf.predict_stages(model.params, stack, range(config.n_stages), label_rows)
        flat = repair_ladders(preds, config.cap).reshape(-1, config.n_stages)
        # every cell's row, density by density, then the n_est ladder at each density
        est = np.array([ladder_est.thresholds] * len(densities), flat.dtype)
        ns = [n for n in densities for _ in range(levels)]
        u = am.rows_throughput(np.concatenate([flat, est]), config.cap, ns + densities,
                               config.params)
        ladders = flat.tolist()
        # the clean labels are the optimize_taus -> solve_ladders design, and
        # U* is the throughput of its fixed point
        u_star, _ = _design_throughputs(config, outcomes)
        # each cell's row with u_icl_sim blank, a failed solve in place of its U
        rows = [[n, float(b), u_star[n], u_i, "", u_mb, int(ws[0]), int(ws[-1]), min_mass,
                 config.master_seed]
                for n, b, u_i, u_mb, ws, min_mass in zip(
                    ns, config.b_pct_sweep * len(densities), u,
                    [v for v in u[len(flat):] for _ in range(levels)], ladders,
                    np.repeat(masses.min(axis=1), levels).tolist())]
        blocks = [slice(i * levels, (i + 1) * levels) for i in range(len(densities))]
        cells = {n: (rows[block], ladders[block], u[len(flat) + i])
                 for i, (n, block) in enumerate(zip(densities, blocks))}

    def step(n):
        # a density's first error in the order they were always met: its
        # design, the n_est solve, then per b the row's rule and solve
        am._outcome(designs[n])
        rows, ladders, u_mb = cells[n]
        for value in (u_mb, *(row[3] for row in rows)):
            am._outcome(value)
        # the only place a BackoffLadder is built
        runs = [_sim_config(config, n, am.BackoffLadder(thresholds, config.cap),
                            _seed(config, EVAL_SIM, n, i))
                for i, thresholds in enumerate(ladders)] if with_sim else []

        def finish(results):
            for row, result in zip(rows, results):
                row[4] = result.throughput
            return rows
        return runs, finish

    return _table(config, "eval", columns, config.test_densities, step)


def cmd_validate(config):
    """Simulator-vs-model agreement across densities, several seeds each."""
    columns = ("density", "seed", "w0", "u_model", "u_sim", "rel_deviation",
               "tau_model", "tau_sim")
    designs = _designs(config, [n for n in config.validate_densities if n != 1])
    if 1 in config.validate_densities:
        # one node never collides, so there is nothing to design: a fixed BEB ladder
        ladder = am.BackoffLadder.beb(32, config.k_max, config.cap)
        designs[1] = (ladder, am.solve_tau(ladder, 1))
    u_models, _ = _design_throughputs(config, designs)

    def step(n):
        ladder, fp = am._outcome(designs[n])
        u_model = u_models[n]
        # (1 - tau)^N can underflow at a large density, and a deviation from 0 is undefined
        if u_model == 0.0:
            raise ValueError(f"density {n}: model throughput is 0 at tau = {fp.tau!r}, "
                             "so rel_deviation is undefined")
        runs = [_sim_config(config, n, ladder, _seed(config, VALIDATE_SIM, n, rep))
                for rep in range(config.sim_seeds)]

        def finish(results):
            return [[n, sim_config.seed, ladder.thresholds[0], u_model, result.throughput,
                     abs(result.throughput - u_model) / u_model, fp.tau,
                     result.tx_attempt_rate] for sim_config, result in zip(runs, results)]
        return runs, finish

    return _table(config, "validate", columns, config.validate_densities, step)


def cmd_bench(config, with_sim=False):
    """Throughput cost of designing for n_est and deploying at each test density."""
    columns = ("n_true", "n_est", "mismatch_loss", "u_matched", "u_mismatched",
               "u_matched_sim", "u_mismatched_sim", "seed")
    densities = config.test_densities
    designs = _designs(config, densities + (config.n_est,))
    ladder_est = _n_est_ladder(config, designs)
    # the n_est ladder at every density in one solve; past 2^53 a float row
    # would round the thresholds, so the rows stay Python ints
    dtype = object if config.cap + config.n_stages > 2 ** 53 else float
    u_est = dict(zip(densities, am.rows_throughput(
        np.array([ladder_est.thresholds] * len(densities), dtype), config.cap, densities,
        config.params)))
    u_matched, _ = _design_throughputs(config, {n: designs[n] for n in densities})

    def step(n):
        ladder_opt, _ = am._outcome(designs[n])
        u_mismatched = am._outcome(u_est[n])
        runs = [_sim_config(config, n, ladder, _seed(config, BENCH_SIM, n, i))
                for i, ladder in enumerate((ladder_opt, ladder_est))] if with_sim else []

        def finish(results):
            sim_columns = [result.throughput for result in results] or ["", ""]
            return [[n, config.n_est, u_matched[n] - u_mismatched, u_matched[n], u_mismatched,
                     *sim_columns, config.master_seed]]
        return runs, finish

    return _table(config, "bench", columns, densities, step)
