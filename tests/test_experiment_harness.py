import csv
import json
import math
import os
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icl_csma import analytic_model as am
from icl_csma import cli
from icl_csma import experiment_harness as eh
from icl_csma import icl_transformer as tf
from icl_csma import mac_simulator as sim
from icl_csma import prompt_pipeline as pp
from icl_csma.analytic_model import BackoffLadder
from oracles import mpmath_throughput, reference_eval_inputs, reference_repair

# bound at import: the ``keys`` fixture patches np.random.default_rng
SeedSequence = np.random.SeedSequence

MODEL_SEED7 = Path(__file__).resolve().parent.parent / "benchmarks" / "model-seed7.json"
# the benchmark's generalize workload: every 8th density of 2..500, plus 500
GENERALIZE = eh.ExperimentConfig(test_densities=tuple(sorted(set(range(2, 501, 8)) | {500})))
# eval's per-density error for a model whose attention overflows
OVERFLOW = "the model's attention overflowed: its predicted thresholds are not finite"


def eval_stack(config, densities):
    """Each density's clean examples and the (D, R, K+1) label rows, as ``cmd_eval`` forms them.

    Every density's ``eh._eval_inputs``, on its design from ``eh._designs``,
    stacked by one ``eh._eval_stack`` call.
    """
    designs = eh._designs(config, densities)
    ladders = [am._outcome(designs[n])[0] for n in densities]
    raw, labels, label_rows = eh._eval_stack(config, ladders,
                                             [eh._eval_inputs(config, n) for n in densities])
    return [pp.DensityExamples(n, x, w) for n, x, w in zip(densities, raw, labels)], label_rows


def predict_all(model, example_sets, label_rows, k_max):
    """Every stage's prediction of D densities under their label rows, as ``cmd_eval`` forms them.

    The sets' prompts in one ``pp.prompt_stack`` and one ``tf.predict_stages``
    pass: the (D, R, K+1) predictions and the (D, K+1) query-stage masses.
    """
    stack = pp.prompt_stack(np.stack([ex.raw for ex in example_sets]),
                            np.stack([ex.labels for ex in example_sets]), 0, model.scaler,
                            model.n_stages, model.stage_gain)
    return tf.predict_stages(model.params, stack, range(k_max + 1), label_rows)


def eval_rows(config, n):
    """One density's clean examples and (R, K+1) label rows (``eval_stack``)."""
    example_sets, label_rows = eval_stack(config, [n])
    return example_sets[0], label_rows[0]


def untrained_model(config):
    """Q = 0 (uniform attention): enough to drive eval end to end."""
    d = config.n_stages + 3
    scaler = pp.fit_scaler([eval_rows(config, config.test_densities[0])[0]])
    return tf.TrainedModel(tf.TransformerParams(np.zeros((d, d))), scaler, 1.0,
                           config.n_stages, pp.STAGE_GAIN)


def overflowing_model(model, fault):
    """``model`` with one fault that load_model accepts but whose attention overflows."""
    dim = model.params.dim
    eye = tf.TransformerParams(np.eye(dim))
    return {
        "stage_gain": replace(model, params=eye, stage_gain=1e200),
        "scale": replace(model, params=eye,
                         scaler=pp.FeatureScaler(model.scaler.shift, (1e-300,) * 4)),
        "q_matrix": replace(model, params=tf.TransformerParams(
            np.where(np.indices((dim, dim)).sum(axis=0) % 2, 1e308, -1e308))),
    }[fault]


@pytest.fixture
def keys(monkeypatch):
    """Records the key of every stream a command seeds, in call order.

    Harness streams are keyed by ``eh._seed_sequence`` (whose state is
    SeedSequence's of the key; ``TestSeedWords``), the training dataset by
    a list handed to ``default_rng``; a generator seeded from an int (a
    simulator run's derived seed) or from a ``SeedSequence`` object adds no
    key.
    """
    seen = []
    real_sequence, real_rng = eh._seed_sequence, np.random.default_rng

    def sequence(config, stream, density, index=0):
        seen.append((config.master_seed, stream, density, index))
        return real_sequence(config, stream, density, index)

    def default_rng(seed=None):
        if isinstance(seed, (list, tuple)):
            seen.append(tuple(seed))
        return real_rng(seed)
    monkeypatch.setattr(eh, "_seed_sequence", sequence)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return seen


def pools(keys):
    """Each distinct key's first four words of SeedSequence output."""
    return {tuple(SeedSequence(list(key)).generate_state(4).tolist()) for key in set(keys)}


class TestConfig:
    def test_defaults_valid(self, default_config):
        assert default_config.n_stages == 9

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "network": {"t_sigma_us": 9.0},
            "train_densities": [2, 3], "k_max": 2,
        }))
        config = eh.load_config(path, seed=99)
        assert config.params.slot_time_us == 9.0
        assert config.master_seed == 99
        assert config == eh.ExperimentConfig(
            params=am.NetworkParams(slot_time_us=9.0), train_densities=(2, 3), k_max=2,
            master_seed=99)

    @pytest.mark.parametrize("key, value", [
        ("k_max", "8"), ("cap", 32768.0), ("sim_seeds", True), ("master_seed", None)])
    def test_integer_fields_type_checked(self, tmp_path, key, value):
        with pytest.raises(TypeError, match=key):
            eh.ExperimentConfig(**{key: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(TypeError, match=key):
            eh.load_config(path)

    @pytest.mark.parametrize("seed", [-5, 2 ** 64])
    def test_seed_outside_u64_rejected(self, tmp_path, capsys, seed):
        with pytest.raises(ValueError, match="master_seed"):
            eh.load_config(seed=seed)
        out = tmp_path / "out"
        assert cli.main(["solve", "--seed", str(seed), "--out", str(out)]) == 1
        assert "master_seed" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("raw, key", [
        ({"cap": 128}, "cap"),  # below 2**k_max = 256
        ({"b_pct_sweep": [0, -5]}, "b_pct_sweep"),
        ({"b_pct_sweep": [100]}, "b_pct_sweep"),
        ({"test_densities": [1, 20]}, "test_densities"),
        ({"train_densities": [2, 1]}, "train_densities"),
        ({"n_est": 1}, "n_est"),
        ({"validate_densities": [0, 2]}, "validate_densities"),
        ({"test_densities": [20.0]}, "test_densities"),
        ({"validate_densities": [True]}, "validate_densities"),
        ({"k_max": -1}, "k_max"),
        ({"sim_horizon_slots": 0}, "sim_horizon_slots"),
        ({"network": {"t_sigma_us": math.nan}}, "slot_time_us"),
        ({"step_size": math.inf}, "step_size"),
        ({"jitter_pct": math.nan}, "jitter_pct"),
        ({"stop_eps": 1e-9}, "unknown"),  # training has no early stop
        ({"stage_gain": 24.0}, "unknown"),  # training embeds at pp.STAGE_GAIN
        ({"b_pct_sweep": []}, "b_pct_sweep"),
        ({"validate_densities": []}, "validate_densities"),
        ({"step_size": 10 ** 400}, "step_size"),  # an int too large for a float
        ({"network": {"t_sigma_us": 10 ** 400}}, "slot_time_us"),
        ({"k_max": 0, "cap": 1}, "cap"),  # 2**k_max = 1, but W_0 >= 2
        ({"out_dir": "runs"}, "unknown"),  # --out names the output directory
        ({"jitter_pct": -0.1}, "jitter_pct"),
        ({"train_densities": [2, 2, 3]}, "train_densities"),  # one example set each
        ({"cap": 10 ** 400}, "cap"),  # past float range: no design, at any k_max
        ({"k_max": 1, "cap": 10 ** 400}, "cap"),
        ({"test_densities": [100, 200, 100]}, "test_densities"),  # one stream each
        ({"validate_densities": [2, 2]}, "validate_densities"),
        ({"b_pct_sweep": [0, 20, 20.0], "test_densities": [100, 300]}, "b_pct_sweep"),
        ({"train_densities": []}, "train_densities"),
        # keys of older versions: derived sizes, and DCF timing components
        # that no formula reads (T_s and T_c are given, not summed)
        ({"m_examples": 9}, "unknown"),
        ({"s_prompts": 5}, "unknown"),
        ({"network": {"t_difs_us": 128}}, "unknown"),
        ({"network": {"t_sifs_us": 28}}, "unknown"),
        ({"network": {"t_delta_us": 1}}, "unknown"),
        ({"network": {"t_ack_us": 240}}, "unknown"),
        ({"network": {"t_header_us": 400}}, "unknown"),
        ({"k_max": 0, "cap": 10 ** 400}, "cap"),  # past float range: no design
        # 2**k_max is never formed: it once reached the message, past the
        # digits Python converts to a string, and 2**(10**12) takes 125 GB
        ({"k_max": 20000}, "cap"),
        ({"k_max": 10 ** 12}, "cap"),
        # past the 4,300 digits Python reads; json.dumps would refuse to write it
        ('{"n_est": 1' + "0" * 5000 + "}", "config"),
    ])
    def test_rejected_at_load(self, tmp_path, capsys, raw, key):
        path = tmp_path / "cfg.json"
        # json writes NaN and Infinity literals
        path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        with pytest.raises(ValueError, match=f"^{key}"):
            eh.load_config(path)
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith(key)
        assert not out.exists()
        if key == "unknown":  # the refusal names each key it does not know
            names = [name for name in raw if name != "network"] + list(raw.get("network", ()))
            assert all(repr(name) in message for name in names)

    def test_integers_load_without_a_digit_limit(self, tmp_path, monkeypatch):
        # Python before 3.10.7 has no sys.get_int_max_str_digits and no limit
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_max": 8, "cap": 10 ** 14, "test_densities": [2, 50]}))
        config = eh.load_config(path)
        assert (config.k_max, config.cap, config.test_densities) == (8, 10 ** 14, (2, 50))

    @pytest.mark.parametrize("key", ["train_densities", "test_densities", "validate_densities",
                                     "n_est"])
    @pytest.mark.parametrize("density", [10 ** 400, 2 ** 53 + 1])
    def test_density_past_float_refused(self, tmp_path, capsys, key, density):
        # the design carries densities as floats: 10**400 once raised a bare
        # OverflowError and 2**53 + 1 solved as 2**53
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: density if key == "n_est" else [density]}))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert record["message"] == f"{key}: expected densities <= 2**53, which floats hold exactly"
        assert not out.exists()
        assert eh.ExperimentConfig(**{key: 2 ** 53 if key == "n_est" else (2 ** 53,)})

    @pytest.mark.parametrize("k_max", [1, 8])
    def test_largest_cap_solves(self, tmp_path, k_max):
        # every cap a float holds designs, the largest included; the all-cap
        # ladder's root there, about 1.1e-308, is solved too
        cap = int(sys.float_info.max)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_max": k_max, "cap": cap,
                                    "train_densities": [2], "test_densities": [100]}))
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "solve.csv", newline="") as fh:
            assert [int(r["density"]) for r in csv.DictReader(fh)] == [2, 100]
        assert am.solve_tau(BackoffLadder.beb(cap, k_max, cap), 100).tau == 2.0 / (cap + 1.0)

    @pytest.mark.parametrize("command", [["solve"],
                                         ["eval", "--no-sim", "--model", str(MODEL_SEED7)]])
    def test_cap_of_ten_to_the_fourteen_runs(self, tmp_path, capsys, command):
        # caps above 2,000,000,000,098 with k_max >= 1 were once refused at load
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_max": 8, "cap": 10 ** 14}))
        assert cli.main(command + ["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_k0_accepts_any_cap(self):
        config = eh.ExperimentConfig(k_max=0, cap=10 ** 30)
        assert am.design_ladder(100, config.params, 0, config.cap)[0].k_max == 0

    @pytest.mark.parametrize("key", ["test_densities", "b_pct_sweep"])
    def test_list_key_holding_scalar_rejected(self, tmp_path, capsys, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 5}))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "TypeError"
        assert record["message"] == f"{key} must be a list, got 5"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"network": 5}', "network must be a JSON object, got 5"),
        ('{"network": null}', "network must be a JSON object, got None"),
        ('{"network": ["t_p_us"]}', "network must be a JSON object, got ['t_p_us']"),
        ("5", "config must be a JSON object, got 5"),
        ('"abc"', "config must be a JSON object, got 'abc'"),
        ("[1]", "config must be a JSON object, got [1]"),
    ])
    def test_not_an_object_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(TypeError) as exc:
            eh.load_config(path)
        assert str(exc.value) == message
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 1
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [{"error": "TypeError", "message": message, "command": "solve"}]
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"k_max": 2, "k_max": 8}', "k_max"),
        ('{"k_max": 8, "network": {"t_c_us": 10, "t_c_us": 8783}}', "t_c_us"),
        # a repeat is refused even when both values agree
        ('{"network": {}, "cap": 64, "network": {}}', "network"),
    ], ids=["top-level", "network", "same-value"])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, key):
        # JSON alone keeps the last value, so an appended key would win silently
        path = tmp_path / "cfg.json"
        path.write_text(text)
        message = f"repeated config key: {key!r}"
        with pytest.raises(ValueError) as exc:
            eh.load_config(path)
        assert str(exc.value) == message
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 1
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [{"error": "ValueError", "message": message, "command": "solve"}]
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"bogus": 1}')
        with pytest.raises(ValueError):
            eh.load_config(path)

    def test_hash_tracks_content(self, default_config):
        assert (eh.config_hash(default_config)
                != eh.config_hash(eh.ExperimentConfig(master_seed=8)))
        assert eh.config_hash(default_config) == eh.config_hash(eh.ExperimentConfig())

    def test_readme_config_hashes_like_defaults(self, tmp_path):
        # the README's config block writes ints in float fields (b_pct_sweep,
        # the network timings); they must hash as the default floats do
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config file", 1)[1].split("```json", 1)[1]
        path = tmp_path / "cfg.json"
        path.write_text(block.split("```", 1)[0])
        config = eh.load_config(path)
        assert config == eh.ExperimentConfig()
        assert eh.config_hash(config) == eh.config_hash(eh.ExperimentConfig()) == "79a9956a61e7"
        # the block names every key a config file may set, and no other
        raw = json.loads(block.split("```", 1)[0])
        assert set(raw) == eh._CONFIG_FIELDS | {"network"}
        assert set(raw["network"]) == set(am.NetworkParams._CONFIG_KEYS)


def densities(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=3, unique=True)


# config files of the schema's keys and types at tiny sizes: a short horizon,
# a few training rounds, densities up to 10^6 where no simulator runs and up
# to 10^4 where one does (test_densities run in eval and bench --sim); a
# value the schema types allow but its ranges refuse is refused at load
TINY_CONFIGS = st.fixed_dictionaries({
    "train_densities": densities(2, 10 ** 6), "test_densities": densities(2, 10 ** 4),
    "validate_densities": densities(1, 10 ** 4), "n_est": st.integers(2, 10 ** 6),
    "k_max": st.integers(0, 12),
    "cap": st.one_of(st.integers(2, 2 ** 17), st.integers(2, 10 ** 30)),
    "step_size": st.floats(1e-3, 1e3), "max_rounds": st.integers(1, 5),
    "jitter_pct": st.floats(0.0, 1.0), "reps_per_query": st.integers(1, 3),
    "b_pct_sweep": st.lists(st.floats(0.0, 99.9), min_size=1, max_size=3, unique=True),
    "sim_horizon_slots": st.integers(1, 100), "sim_seeds": st.integers(1, 2),
    "master_seed": st.integers(0, 2 ** 64 - 1),
}, optional={"network": st.fixed_dictionaries({}, optional={
    key: st.floats(1.0, 20_000.0) for key in am.NetworkParams._CONFIG_KEYS})})
TINY = {"train_densities": [2, 3], "test_densities": [20], "validate_densities": [2],
        "k_max": 2, "max_rounds": 2, "sim_horizon_slots": 50, "sim_seeds": 1}


class TestSchemaConfigs:
    @settings(max_examples=40, deadline=None)
    @given(raw=TINY_CONFIGS)
    @example(raw={**TINY, "k_max": 14_285})
    @example(raw={**TINY, "test_densities": [2 ** 53 + 1]})
    def test_runs_or_is_refused(self, tmp_path_factory, raw):
        # every command returns with per-density errors only, or the config
        # is refused at load, or the command fails whole in one of the ways
        # that fail every density: the n_est design, a training density's
        # design, or training diverging at a step size far above the default
        path = tmp_path_factory.mktemp("schema") / "cfg.json"
        path.write_text(json.dumps(raw))
        try:
            config = eh.load_config(path)
        except (ValueError, TypeError):
            return
        commands = [eh.cmd_solve, eh.cmd_validate, lambda c: eh.cmd_bench(c, with_sim=True),
                    lambda c: eh.cmd_eval(c, eh.cmd_train(c)[0])]
        for command in commands:
            try:
                _, errors = command(config)
            except eh.CELL_ERRORS as exc:
                frames = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
                assert str(exc).startswith("n_est = ") or (
                    str(exc).startswith("density = ") and "generate_dataset" in frames), exc
            except tf.TrainingDivergenceError:
                assert config.step_size > 20 * eh.ExperimentConfig().step_size
            else:
                assert all(set(error) == {"density", "error"} for error in errors)


class TestRepairLadder:
    def test_monotone_repair(self):
        lad = eh.repair_ladder([10.2, 9.0, 50.7, 50.1], 64)
        assert lad.thresholds == (10, 11, 51, 52)

    def test_floor_and_cap(self):
        lad = eh.repair_ladder([0.1, 3.0, 900.0, 1200.0], 1024)
        assert lad.thresholds == (2, 3, 900, 1024)

    def test_cap_parking(self):
        lad = eh.repair_ladder([1020.0, 1023.9, 1100.0], 1024)
        assert lad.thresholds == (1020, 1024, 1024)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=12),
           extra=st.integers(0, 2 ** 70))
    def test_any_finite_prediction_repairs_to_a_valid_ladder(self, values, extra):
        cap = max(2, 2 ** (len(values) - 1)) + extra
        ws = eh.repair_ladder(values, cap).thresholds
        assert len(ws) == len(values)
        assert ws[0] >= 2
        assert all(1 <= w <= cap for w in ws)
        for prev, cur in zip(ws, ws[1:]):
            assert cur == cap if prev == cap else cur > prev


def repair_case(data):
    """K, a cap in [max(2, 2**K), 10**30] and rows of K + 1 predictions around it."""
    k = data.draw(st.integers(0, 12), label="K")
    low = max(2, 2 ** k)
    cap = data.draw(st.one_of(st.integers(low, 10 ** 30), st.integers(low, 2 ** 53 + 16),
                              st.integers(max(low, 2 ** 53 - 16), 2 ** 53 + 16)), label="cap")
    value = st.one_of(
        st.floats(-1e6, 1.0, exclude_max=True),                    # below 1
        st.integers(-10, 2 ** 52 - 1).map(lambda i: i + 0.5),      # exact .5 ties
        st.sampled_from([float(cap), float(cap) - 0.5, float(cap) + 0.5]),  # at the cap
        st.floats(float(cap), 1e35),                               # above it
        st.floats(-1e300, 1e300))
    rows = data.draw(st.lists(st.lists(value, min_size=k + 1, max_size=k + 1),
                              min_size=1, max_size=4), label="rows")
    return cap, rows


class TestArrayRepair:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_reference_loop(self, data):
        # element for element, on both sides of 2**53 where float64 stops
        # holding every integer
        cap, rows = repair_case(data)
        got = eh.repair_ladders(rows, cap).tolist()
        want = [reference_repair(row, cap) for row in rows]
        assert got == want
        assert all(w == int(w) for row in got for w in row)
        assert [eh.repair_ladder(row, cap).thresholds for row in rows] == [
            tuple(row) for row in want]

    def test_huge_cap_at_one_stage(self):
        # k_max 0 allows any cap; a cap past int64 keeps its exact value
        cap = 10 ** 30
        assert eh.repair_ladders([[1e31], [1e29 + 0.3], [0.2]], cap).tolist() == [
            [cap], [int(1e29)], [2]]


class TestPredictThresholds:
    @pytest.fixture(scope="class")
    def setup(self):
        config = eh.ExperimentConfig()
        clean, _ = eval_rows(config, 100)
        rng = np.random.default_rng(5)
        d = config.n_stages + 3
        model = tf.TrainedModel(tf.TransformerParams(0.05 * rng.normal(size=(d, d))),
                                pp.fit_scaler([clean]), 1.0, config.n_stages,
                                pp.STAGE_GAIN)
        return config, clean, model

    @staticmethod
    def per_stage(model, examples, k_max):
        """predict and query-stage mass on each stage's own embed(build_prompt(...))."""
        prompts = [pp.embed(pp.build_prompt(examples, stage, model.scaler),
                            n_stages=model.n_stages, stage_gain=model.stage_gain)
                   for stage in range(k_max + 1)]
        return ([tf.predict(model.params, p) for p in prompts],
                [tf.attention(model.params, p).query_stage_mass for p in prompts])

    @pytest.mark.parametrize("case", ["clean", "corrupted", "duplicated", "wider model"])
    def test_equals_per_stage_prompts(self, setup, case):
        config, examples, model = setup
        if case == "corrupted":
            labels = pp.corrupt_thresholds(examples.labels, 40.0, np.random.default_rng(3),
                                           cap=config.cap)
            examples = replace(examples, labels=labels)
        elif case == "duplicated":
            # a second stage-2 example placed first, with another label: the
            # first example at a stage is its query, as in build_prompt
            examples = pp.DensityExamples(examples.density,
                                          np.vstack([examples.raw[2], examples.raw]),
                                          np.append(examples.labels[2] + 17, examples.labels))
        elif case == "wider model":
            # more indicator rows than stages present, and another gain
            d = model.n_stages + 5
            q = 0.05 * np.random.default_rng(6).normal(size=(d, d))
            model = tf.TrainedModel(tf.TransformerParams(q), model.scaler, 1.0,
                                    model.n_stages + 2, 7.0)
        want_preds, want_masses = self.per_stage(model, examples, config.k_max)
        preds, masses = eh.predict_thresholds(model, examples, [examples.labels], config.k_max)
        assert (preds, masses) == ([want_preds], want_masses)
        assert len(set(want_masses)) > 1  # masses are not all saturated

    def test_missing_stage_raises(self, setup):
        config, examples, model = setup
        missing = replace(examples, raw=np.delete(examples.raw, 4, axis=0),
                          labels=np.delete(examples.labels, 4))
        with pytest.raises(ValueError, match="no example with stage 4"):
            eh.predict_thresholds(model, missing, [missing.labels], config.k_max)

    def test_one_pass_equals_per_error_level_passes(self, setup):
        # every density and b of the default eval: the shared attention pass
        # gives each b what a pass over that b's own prompts gives, bit for bit
        config, _, model = setup
        for n in config.test_densities:
            clean, label_rows = eval_rows(config, n)
            assert len(label_rows) == len(config.b_pct_sweep)
            assert label_rows[0].tolist() == clean.labels.tolist()
            pred_rows, masses = eh.predict_thresholds(model, clean, label_rows, config.k_max)
            assert len(pred_rows) == len(label_rows)
            for labels, preds in zip(label_rows, pred_rows):
                examples = replace(clean, labels=labels)
                want_preds, want_masses = self.per_stage(model, examples, config.k_max)
                assert [v.hex() for v in preds] == [v.hex() for v in want_preds]
                assert [v.hex() for v in masses] == [v.hex() for v in want_masses]
            assert len({tuple(preds) for preds in pred_rows}) == len(label_rows)

    @pytest.mark.parametrize("wider", [False, True])
    def test_stack_equals_per_stage_prompts(self, setup, wider):
        # several densities in one pass: each density, error level and stage
        # gets predict and attention on that stage's own prompt, bit for bit
        config, _, model = setup
        if wider:
            # more indicator rows than queried stages
            d = model.n_stages + 5
            q = 0.05 * np.random.default_rng(7).normal(size=(d, d))
            model = tf.TrainedModel(tf.TransformerParams(q), model.scaler, 1.0,
                                    model.n_stages + 2, 7.0)
        inputs = [eval_rows(config, n) for n in (30, 100, 250, 480)]
        preds, masses = predict_all(model, [clean for clean, _ in inputs],
                                    [rows for _, rows in inputs], config.k_max)
        assert preds.shape == (len(inputs), len(config.b_pct_sweep), config.n_stages)
        assert masses.shape == (len(inputs), config.n_stages)
        for (clean, label_rows), pred_rows, mass_row in zip(inputs, preds, masses):
            for labels, row in zip(label_rows, pred_rows, strict=True):
                want_preds, want_masses = self.per_stage(model, replace(clean, labels=labels),
                                                         config.k_max)
                assert [v.hex() for v in row.tolist()] == [v.hex() for v in want_preds]
                assert [v.hex() for v in mass_row.tolist()] == [v.hex() for v in want_masses]

    def test_needs_a_set(self, setup):
        # an empty row list is refused by predict_stages' shape check
        config, examples, model = setup
        with pytest.raises(ValueError, match="label_rows must hold"):
            eh.predict_thresholds(model, examples, [], config.k_max)


class TestCommands:
    def test_solve_rows(self, tiny_config):
        report, errors = eh.cmd_solve(tiny_config)
        columns, rows = report.tables["solve"]
        assert not errors
        densities = sorted(set(tiny_config.train_densities)
                           | set(tiny_config.test_densities))
        assert [r[0] for r in rows] == densities
        for row in rows:
            assert float(row[1]) < 1.0 / row[0]  # tau* < 1/N

    def test_solve_above_one_over_n_when_collisions_are_cheap(self, tmp_path):
        # T_c < sigma puts tau* above 1/N, outside the old search bracket
        network = {"t_sigma_us": 50, "t_p_us": 100, "t_s_us": 200, "t_c_us": 40}
        path = tmp_path / "cheap.json"
        path.write_text(json.dumps({"network": network, "train_densities": [10],
                                    "test_densities": [20], "k_max": 3}))
        config = eh.load_config(path)
        report, errors = eh.cmd_solve(config)
        assert not errors
        report.write(tmp_path / "out")
        with open(tmp_path / "out" / "solve.csv", newline="", encoding="utf-8") as fh:
            row = next(r for r in csv.DictReader(fh) if r["density"] == "10")
        assert float(row["tau_star"]) > 0.1
        assert float(row["u_star"]) >= am.throughput(0.1, 10, config.params)

    def test_solve_u_star_is_the_throughput_at_tau_star(self, tmp_path):
        # at N = 10^15, 1 - tau* rounds away most of tau*: u_star was once
        # 0.7657 where U(tau*) is 0.8237
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train_densities": [10 ** 15], "test_densities": [50]}))
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "solve.csv", newline="", encoding="utf-8") as fh:
            row = next(r for r in csv.DictReader(fh) if r["density"] == str(10 ** 15))
        want = mpmath_throughput(float(row["tau_star"]), 10 ** 15, am.NetworkParams())
        assert abs(float(row["u_star"]) - want) <= 1e-14 * want
        assert 0.82 < want < 0.83

    def test_solve_k0_closed_form_inversion(self):
        config = eh.ExperimentConfig(train_densities=(9,), test_densities=(9,), k_max=0)
        report, _ = eh.cmd_solve(config)
        columns, rows = report.tables["solve"]
        record = dict(zip(columns, rows[0]))
        w0, tau_star = record["w0"], float(record["tau_star"])
        # with K = 0 tau = 2/(W_0+1); the chosen integer must beat both neighbors
        best = abs(2.0 / (w0 + 1) - tau_star)
        assert best <= abs(2.0 / (w0 + 2) - tau_star)
        assert best <= abs(2.0 / w0 - tau_star)

    def test_solve_density_500_under_a_second(self):
        import time
        config = eh.ExperimentConfig(test_densities=(500,))
        start = time.perf_counter()
        eh.cmd_solve(config)
        assert time.perf_counter() - start < 1.0

    def test_bench_analytic_runtime(self, default_config):
        import time
        start = time.perf_counter()
        eh.cmd_bench(default_config)
        assert time.perf_counter() - start < 10.0

    def test_datagen_writes_dataset(self, tiny_config, tmp_path):
        out = tmp_path / "data"
        example_sets = eh.cmd_datagen(tiny_config, out_dir=out)
        assert (out / "dataset.csv").exists()
        assert (out / "run_metadata.json").exists()
        assert (sum(len(s.labels) for s in example_sets)
                == len(tiny_config.train_densities) * tiny_config.n_stages)

    def test_train_emits_trace(self, tiny_config):
        model, trace, report = eh.cmd_train(tiny_config)
        columns, rows = report.tables["loss_trace"]
        assert rows[0][0] == 0
        assert len(rows) == len(trace.losses)
        assert model.n_stages == tiny_config.n_stages

    def test_eval_table(self, tiny_config):
        model, _, _ = eh.cmd_train(tiny_config)
        report, errors = eh.cmd_eval(tiny_config, model, with_sim=False)
        columns, rows = report.tables["eval"]
        assert len(rows) == len(tiny_config.test_densities) * len(tiny_config.b_pct_sweep)
        for row in rows:
            record = dict(zip(columns, row))
            assert record["u_icl_sim"] == ""  # sim skipped
            assert float(record["u_star"]) > 0

    def test_validate_agreement(self, tiny_config):
        report, errors = eh.cmd_validate(tiny_config)
        columns, rows = report.tables["validate"]
        assert not errors
        assert len(rows) == len(tiny_config.validate_densities) * tiny_config.sim_seeds
        worst = max(float(row[columns.index("rel_deviation")]) for row in rows)
        assert worst < 0.05  # loose: short horizons are noisy

    def test_bench_monotone(self, tiny_config):
        report, errors = eh.cmd_bench(tiny_config)
        _, rows = report.tables["bench"]
        assert not errors
        losses = [float(r[2]) for r in rows]
        assert losses == sorted(losses)

    @pytest.mark.parametrize("k_max, cap", [(8, 32768), (0, 10 ** 30)])
    def test_bench_mismatched_equals_the_ladder_path(self, k_max, cap):
        # the n_est ladder solved at every density in one rows_throughput
        # call (integer tuples, exact past 2^53) gives ladder_throughput's value
        config = eh.ExperimentConfig(k_max=k_max, cap=cap, test_densities=(2, 50, 333, 500))
        report, errors = eh.cmd_bench(config)
        assert not errors
        ladder_est = am._outcome(eh._designs(config, [config.n_est])[config.n_est])[0]
        rows = report.tables["bench"][1]
        assert [row[0] for row in rows] == list(config.test_densities)
        for row in rows:
            assert repr(row[4]) == repr(am.ladder_throughput(ladder_est, row[0], config.params))

    def test_throughputs_in_one_array_call(self, tiny_config, monkeypatch):
        # every U of solve, validate and bench comes from one _throughputs
        # call, none from the one-point throughput; bench's first call is
        # rows_throughput's, for the n_est ladder at each density, and its
        # second forms U at each density's own design
        points, real = [], am._throughputs

        def throughputs(taus, ns, params):
            points.append(len(taus))
            return real(taus, ns, params)

        def throughput(*args):
            raise AssertionError("a one-point throughput call")
        monkeypatch.setattr(am, "_throughputs", throughputs)
        monkeypatch.setattr(am, "throughput", throughput)
        solve_densities = set(tiny_config.train_densities) | set(tiny_config.test_densities)
        tests = len(tiny_config.test_densities)
        for command, want in [(eh.cmd_solve, [2 * len(solve_densities)]),
                              (eh.cmd_validate, [len(tiny_config.validate_densities)]),
                              (eh.cmd_bench, [tests, tests])]:
            points.clear()
            _, errors = command(tiny_config)
            assert not errors and points == want

    def test_max_u64_seed_wraps_simulator_seeds(self, tiny_config):
        config = replace(tiny_config, master_seed=2 ** 64 - 1)
        report, _ = eh.cmd_validate(config)
        _, rows = report.tables["validate"]
        assert [row[1] for row in rows] == [eh._seed(config, eh.VALIDATE_SIM, n, 0)
                                            for n in config.validate_densities]
        report, _ = eh.cmd_bench(config, with_sim=True)
        _, rows = report.tables["bench"]
        assert all(row[5] != "" and row[6] != "" for row in rows)

    def test_eval_never_reuses_training_jitter(self, tiny_config):
        # test prompts draw fresh measurement noise even at a training density
        density = tiny_config.train_densities[0]
        train_examples = next(s for s in eh.cmd_datagen(tiny_config) if s.density == density)
        test_examples, _ = eval_rows(tiny_config, density)
        assert test_examples.labels.tolist() == train_examples.labels.tolist()
        assert all(t != e for t, e in zip(test_examples.raw.tolist(),
                                          train_examples.raw.tolist()))


class TestEvalInputs:
    """A density's eval inputs against the draw-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("master_seed", [0, 7, 2 ** 64 - 1])
    @pytest.mark.parametrize("k_max, sweep", [
        (8, (0.0, 20.0, 40.0, 60.0)), (8, (40.0,)), (8, (0.0,)),
        (3, (60.0, 0.0, 20.4, 20.0, 99.5)), (0, (0.0, 40.0))])
    def test_matches_reference(self, master_seed, k_max, sweep):
        config = eh.ExperimentConfig(k_max=k_max, b_pct_sweep=sweep, master_seed=master_seed)
        for n in (2, 100, 333, 500):
            clean, label_rows = eval_rows(config, n)
            want_examples, want_rows = reference_eval_inputs(config, n)
            got_examples = [(clean.density, tuple(x), w) for x, w
                            in zip(clean.raw.tolist(), clean.labels.tolist())]
            assert got_examples == want_examples
            assert [row.tolist() for row in label_rows] == want_rows

    def test_appended_level_leaves_earlier_rows(self):
        config = eh.ExperimentConfig(b_pct_sweep=(0.0, 20.0, 40.0))
        longer = replace(config, b_pct_sweep=(0.0, 20.0, 40.0, 60.0))
        for n in config.test_densities:
            clean, label_rows = eval_rows(config, n)
            clean_longer, label_rows_longer = eval_rows(longer, n)
            assert clean.raw.tolist() == clean_longer.raw.tolist()
            assert ([row.tolist() for row in label_rows]
                    == [row.tolist() for row in label_rows_longer[:3]])


class TestLabelRows:
    @pytest.mark.parametrize("config", [eh.ExperimentConfig(), GENERALIZE],
                             ids=["defaults", "generalize"])
    def test_stacked_rows_match_reference(self, config):
        # every density's rows in one expression: each b > 0 row is the
        # per-label loop's on the density's stream, each b = 0 row the labels;
        # the stacked features are the reference's rows too
        inputs, stacked = eval_stack(config, config.test_densities)
        assert stacked.shape == (len(inputs), len(config.b_pct_sweep), config.n_stages)
        for n, clean, got in zip(config.test_densities, inputs, stacked.tolist()):
            want_examples, want = reference_eval_inputs(config, n)
            assert got == want
            assert [(n, tuple(x), w) for x, w in zip(clean.raw.tolist(),
                                                     clean.labels.tolist())] == want_examples
            for b, row in zip(config.b_pct_sweep, got):
                if b == 0:
                    assert row == clean.labels.tolist()


class TestDeployedCells:
    def test_cells_equal_the_ladder_path(self):
        # each cell's repaired row, solved without a BackoffLadder, gives the
        # throughput and ends of ladder_throughput on that row's ladder
        config, model = GENERALIZE, tf.load_model(MODEL_SEED7)
        report, errors = eh.cmd_eval(config, model, with_sim=False)
        assert not errors
        example_sets, label_rows = eval_stack(config, config.test_densities)
        preds, _ = predict_all(model, example_sets, label_rows, config.k_max)
        ladders = [BackoffLadder(tuple(row), config.cap)
                   for rows in eh.repair_ladders(preds, config.cap).tolist() for row in rows]
        cells = report.tables["eval"][1]
        assert len(cells) == len(ladders) == 256
        for cell, ladder in zip(cells, ladders):
            n = cell[0]
            assert repr(cell[3]) == repr(am.ladder_throughput(ladder, n, config.params))
            assert cell[6:8] == [ladder.thresholds[0], ladder.thresholds[-1]]

    def test_eval_forms_nothing_twice(self, monkeypatch):
        # one eval pass on the generalize config forms p* once per design in
        # the crossing search (64 points, not one per design and step), makes
        # no scalar throughput call (every deployed U in one array call, then
        # every U*) and checks the ladder rule once for the whole design
        # call, not once per designed ladder
        config, model = GENERALIZE, tf.load_model(MODEL_SEED7)
        real = {name: getattr(am, name) for name in
                ("_crossings", "solve_ladders", "_p", "_throughputs", "_ladder_ints")}
        scope, p_points, throughput_points, rule_checks = [], [0], [], [0]

        def within(name):
            def call(*args):
                scope.append(name)
                try:
                    return real[name](*args)
                finally:
                    scope.pop()
            return call

        def p(t, exponent):
            p_points[0] += len(t) if "_crossings" in scope else 0
            return real["_p"](t, exponent)

        def throughputs(taus, ns, params):
            throughput_points.append(len(taus))
            return real["_throughputs"](taus, ns, params)

        def ladder_ints(thresholds, cap):
            rule_checks[0] += "solve_ladders" in scope
            return real["_ladder_ints"](thresholds, cap)
        monkeypatch.setattr(am, "_crossings", within("_crossings"))
        monkeypatch.setattr(am, "solve_ladders", within("solve_ladders"))
        monkeypatch.setattr(am, "_p", p)
        monkeypatch.setattr(am, "_throughputs", throughputs)
        monkeypatch.setattr(am, "_ladder_ints", ladder_ints)
        _, errors = eh.cmd_eval(config, model, with_sim=False)
        assert not errors
        densities, levels = len(config.test_densities), len(config.b_pct_sweep)
        assert p_points[0] == densities == 64
        assert throughput_points == [densities * (levels + 1), densities]
        assert rule_checks[0] == 1

    def test_no_scalar_solve_outside_designs(self, monkeypatch):
        # no fixed point is solved one ladder at a time: one _solve_taus call
        # (the search under every solve) solves the floor and ceiling of
        # every design (n_est = 50 is one of the densities and is designed
        # once), and one every deployed fixed point, the n_est ladder's
        # included.  The bracket ends need no rows
        config, model = GENERALIZE, tf.load_model(MODEL_SEED7)
        callers, batches = [], []
        real_solve_tau, real_solve_taus = am.solve_tau, am._solve_taus

        def solve_tau(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_solve_tau(*args, **kwargs)

        def solve_taus(rows, ns, *args, **kwargs):
            batches.append(len(rows))
            return real_solve_taus(rows, ns, *args, **kwargs)
        monkeypatch.setattr(am, "solve_tau", solve_tau)
        monkeypatch.setattr(am, "_solve_taus", solve_taus)
        _, errors = eh.cmd_eval(config, model, with_sim=False)
        assert not errors
        assert config.n_est in config.test_densities
        assert callers == []
        assert batches == [2 * len(config.test_densities),
                           len(config.test_densities) * (len(config.b_pct_sweep) + 1)]
        # bench: the designs, then the n_est ladder at every density
        callers.clear()
        batches.clear()
        _, errors = eh.cmd_bench(config)
        assert not errors
        assert callers == []
        assert batches == [2 * len(config.test_densities), len(config.test_densities)]


class TestSeedWords:
    @settings(max_examples=200, deadline=None)
    @given(master_seed=st.integers(0, 2 ** 64 - 1),
           stream=st.sampled_from([eh.EVAL_INPUTS, eh.EVAL_SIM, eh.VALIDATE_SIM,
                                   eh.BENCH_SIM, eh.TRAIN_PROMPTS]),
           density=st.integers(0, 2 ** 40), index=st.integers(0, 2 ** 40))
    @example(master_seed=0, stream=eh.EVAL_INPUTS, density=100, index=0)
    @example(master_seed=2 ** 32 - 1, stream=eh.EVAL_SIM, density=2 ** 32 - 1, index=1)
    @example(master_seed=2 ** 32, stream=eh.VALIDATE_SIM, density=2 ** 32, index=2 ** 40)
    @example(master_seed=2 ** 64 - 1, stream=eh.BENCH_SIM, density=2 ** 40, index=0)
    def test_state_equals_the_key_list(self, master_seed, stream, density, index):
        # the entropy words hand SeedSequence the state of the key as a list
        config = eh.ExperimentConfig(master_seed=master_seed)
        want = SeedSequence([master_seed, stream, density, index]).generate_state(4, np.uint64)
        got = eh._seed_sequence(config, stream, density, index).generate_state(4, np.uint64)
        assert got.tolist() == want.tolist()
        assert eh._seed(config, stream, density, index) == int(want[0])


class TestSeeds:
    def test_eval_sim_seeds_differ_across_cells(self, keys):
        # master_seed + 7 n + int(b) gave (100, b=7) and (101, b=0) one seed
        config = eh.ExperimentConfig(test_densities=(100, 101), b_pct_sweep=(0.0, 7.0),
                                     sim_horizon_slots=1000)
        model = untrained_model(config)
        keys.clear()
        _, errors = eh.cmd_eval(config, model)
        assert not errors
        m = config.master_seed
        # one eval-input stream per density, one simulator key per cell; every
        # density's inputs come before the stacked pass, the simulator runs after
        assert keys == [(m, eh.EVAL_INPUTS, 100, 0), (m, eh.EVAL_INPUTS, 101, 0),
                        (m, eh.EVAL_SIM, 100, 0), (m, eh.EVAL_SIM, 100, 1),
                        (m, eh.EVAL_SIM, 101, 0), (m, eh.EVAL_SIM, 101, 1)]
        assert len(pools(keys)) == len(keys)

    def test_nearby_b_levels_get_their_own_signs(self, keys):
        # int(b_pct) mapped b = 20 and b = 20.4 onto one corruption stream;
        # now both levels draw their signs in turn from the density's stream
        config = eh.ExperimentConfig(test_densities=(100,), b_pct_sweep=(20.0, 20.4))
        clean, (row_20, row_20_4) = eval_rows(config, 100)
        assert keys == [(config.master_seed, eh.EVAL_INPUTS, 100, 0)]
        labels = clean.labels.tolist()
        # the direction each label moved (0 where the cap or rounding held it)
        moves = [[(w > label) - (w < label) for w, label in zip(row.tolist(), labels)]
                 for row in (row_20, row_20_4)]
        assert moves[0] != moves[1]

    def test_max_u64_master_seed_derives_u64_seeds(self, tiny_config, keys):
        config = replace(tiny_config, master_seed=2 ** 64 - 1)
        model = untrained_model(config)
        keys.clear()
        # SimConfig refuses a seed outside [0, 2**64), so every run got a u64
        for _, errors in (eh.cmd_eval(config, model), eh.cmd_validate(config),
                          eh.cmd_bench(config, with_sim=True)):
            assert not errors
        assert {key[0] for key in keys} == {2 ** 64 - 1}
        assert {key[1] for key in keys} == {eh.EVAL_INPUTS, eh.EVAL_SIM,
                                            eh.VALIDATE_SIM, eh.BENCH_SIM}

    @pytest.mark.parametrize("master_seed", [7, 2 ** 64 - 1])
    def test_every_stream_has_its_own_pool(self, tiny_config, keys, master_seed):
        config = replace(tiny_config, master_seed=master_seed)
        model, _, _ = eh.cmd_train(config)
        for _, errors in (eh.cmd_eval(config, model), eh.cmd_validate(config),
                          eh.cmd_bench(config, with_sim=True)):
            assert not errors
        n_test, n_levels = len(config.test_densities), len(config.b_pct_sweep)
        expected = {
            "dataset": len(config.train_densities),
            eh.TRAIN_PROMPTS: len(config.train_densities),
            eh.EVAL_INPUTS: n_test,
            eh.EVAL_SIM: n_test * n_levels,
            eh.VALIDATE_SIM: len(config.validate_densities) * config.sim_seeds,
            eh.BENCH_SIM: 2 * n_test,
        }
        counts = {}
        for key in keys:
            kind = key[1] if len(key) == 4 else "dataset"
            counts[kind] = counts.get(kind, 0) + 1
        assert counts == expected
        assert len(set(keys)) == len(keys)
        assert len(pools(keys)) == len(keys)

    def test_density_555_keys_have_their_own_pools(self, tiny_config, keys):
        # SeedSequence pads a key with zeros: training density 3 once keyed
        # its prompts [7, 3, 555], the pool of eval's first simulator run at
        # density 555, [7, EVAL_SIM = 3, 555, 0]
        config = replace(tiny_config, train_densities=(2, 3), test_densities=(555,))
        model, _, _ = eh.cmd_train(config)
        eh.cmd_eval(config, model)
        assert len(pools(keys)) == len(set(keys))


class TestErrorPolicy:
    # (command, the densities kept, the density whose design fails)
    @pytest.mark.parametrize("command, kept, failed", [
        pytest.param("validate", [2], 5, id="validate-2-5"),
        pytest.param("bench", [20], 40, id="bench-20-40"),
        pytest.param("solve", [2, 3, 40], 20, id="solve-2,3,40-20"),
    ])
    def test_failing_density_is_one_warning(self, tmp_path, capsys, monkeypatch,
                                            command, kept, failed):
        real = am.solve_ladders

        def solve_ladders(tau_stars, densities, *args):
            return [am.LadderSearchError(f"no ladder for N = {n}") if n == failed else design
                    for n, design in zip(densities, real(tau_stars, densities, *args))]
        monkeypatch.setattr(am, "solve_ladders", solve_ladders)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train_densities": [2, 3], "test_densities": [20, 40], "k_max": 2,
            "validate_densities": [2, 5], "sim_seeds": 1, "sim_horizon_slots": 5000,
            "n_est": 10,
        }))
        record = {"density": failed, "error": f"no ladder for N = {failed}"}
        report, errors = getattr(eh, f"cmd_{command}")(eh.load_config(cfg))
        assert [row[0] for row in report.tables[command][1]] == kept
        assert errors == [record]
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert warnings == [{"warning": "cell_failed", **record}]
        with open(out / f"{command}.csv", newline="", encoding="utf-8") as fh:
            assert [int(row[0]) for row in list(csv.reader(fh))[1:]] == kept


    # (densities whose design fails, densities whose deployed solve fails, a
    # fault of the model file); a fault is accepted by load_model, but the
    # attention of its model overflows and every prediction is NaN
    @pytest.mark.parametrize("with_sim", [False, True], ids=["no-sim", "sim"])
    @pytest.mark.parametrize("design_fails, solve_fails, fault", [
        ((40,), (), None),          # before the stacked pass
        ((), (20,), None),          # after it
        ((20, 40, 60), (), None),   # every density: the stack is empty
        ((40,), (20,), None),       # one of each, warned in density order
        *(pytest.param((), (), fault, marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
          for fault in ("stage_gain", "scale", "q_matrix")),
    ])
    def test_eval_failing_density_is_one_warning(self, tmp_path, capsys, monkeypatch,
                                                 design_fails, solve_fails, fault, with_sim):
        densities = (20, 40, 60)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_densities": [2, 3], "test_densities": densities,
                                   "k_max": 2, "n_est": 10, "sim_horizon_slots": 2000}))
        config = eh.load_config(cfg)
        model = untrained_model(config)
        model = overflowing_model(model, fault) if fault else model
        model_path = tmp_path / "model.json"
        tf.save_model(model, model_path)
        model = tf.load_model(model_path)
        whole, _ = eh.cmd_eval(config, model, with_sim=with_sim)
        real_solve_ladders, real_rows_throughput = am.solve_ladders, am.rows_throughput

        def solve_ladders(tau_stars, ns, *args):
            return [am.LadderSearchError(f"no ladder for N = {n}") if n in design_fails
                    else design for n, design in zip(ns, real_solve_ladders(tau_stars, ns, *args))]

        def rows_throughput(rows, cap, ns, params):
            # every deployed solve of the density fails, its n_est solve first
            return [ValueError(f"no fixed point at N = {n}") if n in solve_fails else u
                    for n, u in zip(ns, real_rows_throughput(rows, cap, ns, params))]
        monkeypatch.setattr(am, "solve_ladders", solve_ladders)
        monkeypatch.setattr(am, "rows_throughput", rows_throughput)
        failed = densities if fault else design_fails + solve_fails
        records = [{"density": n, "error": f"no ladder for N = {n}" if n in design_fails
                    else f"no fixed point at N = {n}" if n in solve_fails
                    else OVERFLOW}
                   for n in densities if n in failed]
        kept = [row for row in whole.tables["eval"][1] if row[0] not in failed]
        report, errors = eh.cmd_eval(config, model, with_sim=with_sim)
        # the other densities keep their rows, bit for bit
        assert report.tables["eval"][1] == kept
        assert errors == records
        out = tmp_path / "out"
        argv = ["eval", "--config", str(cfg), "--model", str(model_path), "--out", str(out)]
        assert cli.main(argv + ([] if with_sim else ["--no-sim"])) == 0
        warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert warnings == [{"warning": "cell_failed", **record} for record in records]
        with open(out / "eval.csv", newline="", encoding="utf-8") as fh:
            assert [int(row[0]) for row in list(csv.reader(fh))[1:]] == [row[0] for row in kept]

    @pytest.mark.parametrize("fault", ["stage_gain", "scale", "q_matrix"])
    def test_eval_overflowing_model_keeps_stderr_json(self, tmp_path, fault):
        # a real process: numpy's RuntimeWarnings would reach its stderr
        densities = (20, 40)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_densities": [2, 3], "test_densities": densities,
                                   "k_max": 2, "n_est": 10}))
        model_path = tmp_path / "model.json"
        tf.save_model(overflowing_model(untrained_model(eh.load_config(cfg)), fault), model_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "icl_csma.cli", "eval", "--no-sim",
             "--config", str(cfg), "--model", str(model_path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [
            {"warning": "cell_failed", "density": n, "error": OVERFLOW} for n in densities]

    def test_validate_zero_model_throughput_is_one_warning(self, tmp_path, capsys):
        # tau = 0.4 at N = 3000: (1 - tau)^2999 underflows and U is 0, so the
        # relative deviation is undefined; once a command-level ZeroDivisionError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 0, "cap": 4, "validate_densities": [3000],
                                   "sim_horizon_slots": 50, "sim_seeds": 1}))
        report, errors = eh.cmd_validate(eh.load_config(cfg))
        assert report.tables["validate"][1] == []
        assert errors == [{"density": 3000, "error": "model throughput is 0 at tau = 0.4, "
                                                     "so rel_deviation is undefined"}]
        assert cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert warnings == [{"warning": "cell_failed", **errors[0]}]

    def test_density_above_the_simulator_ceiling_is_one_error(self):
        # refused when its SimConfig is built, before any node is allocated
        n = sim.MAX_NODES + 1
        config = eh.ExperimentConfig(validate_densities=(2, n), test_densities=(100, n),
                                     sim_horizon_slots=50, sim_seeds=1)
        error = [{"density": n, "error": f"n_nodes must lie in [1, MAX_NODES = {sim.MAX_NODES}] "
                                         f"(the simulator keeps about 52 bytes per node), got {n}"}]
        report, errors = eh.cmd_validate(config)
        assert [row[0] for row in report.tables["validate"][1]] == [2] and errors == error
        report, errors = eh.cmd_bench(config, with_sim=True)
        assert [row[0] for row in report.tables["bench"][1]] == [100] and errors == error

    @pytest.mark.parametrize("command", ["bench", "eval"])
    def test_failing_n_est_design_names_n_est(self, tmp_path, capsys, command):
        # with T_c far below the slot time the optimal tau at N = 2 lies
        # above what W_0 = 2 reaches; the design runs before any density
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_est": 2, "network": {"t_c_us": 1},
                                   "train_densities": [2, 3], "test_densities": [20],
                                   "k_max": 2}))
        config = eh.load_config(cfg)
        args = (untrained_model(config),) if command == "eval" else ()
        with pytest.raises(am.LadderSearchError, match=r"^n_est = 2: no W_0 >= 2 reaches "):
            getattr(eh, f"cmd_{command}")(config, *args)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "eval":
            model_path = tmp_path / "model.json"
            tf.save_model(args[0], model_path)
            argv += ["--no-sim", "--model", str(model_path)]
        assert cli.main(argv) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "LadderSearchError"
        assert record["message"].startswith("n_est = 2: ")

    @pytest.mark.parametrize("command", ["datagen", "train"])
    def test_failing_training_design_names_its_density(self, tmp_path, capsys, command):
        # with these timings tau* at N = 2 lies above what W_0 = 2 reaches:
        # the whole command fails, and its message names the density
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_densities": [2, 10], "k_max": 1, "max_rounds": 5,
                                   "network": {"t_sigma_us": 50, "t_p_us": 100,
                                               "t_s_us": 200, "t_c_us": 1}}))
        config = eh.load_config(cfg)
        with pytest.raises(am.LadderSearchError, match=r"^density = 2: no W_0 >= 2 reaches "):
            getattr(eh, f"cmd_{command}")(config)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "LadderSearchError"
        assert record["message"].startswith("density = 2: no W_0 >= 2 reaches ")
        # solve reports the same design as one density's warning and keeps the other
        report, errors = eh.cmd_solve(replace(config, test_densities=config.train_densities))
        assert [row[0] for row in report.tables["solve"][1]] == [10]
        assert [error["density"] for error in errors] == [2]
        assert errors[0]["error"].startswith("no W_0 >= 2 reaches ")

    def test_eval_refuses_a_misfit_scaler(self, tiny_config):
        # the stacked pass scales every density at once, so a scaler that
        # cannot scale the (k, T_P, T_s, T_c) features is refused up front
        model = untrained_model(tiny_config)
        timing = tiny_config.n_stages + 1
        misfit = tf.TrainedModel(tf.TransformerParams(np.zeros((timing, timing))),
                                 pp.FeatureScaler((0.0, 0.0), (1.0, 1.0)), 1.0,
                                 model.n_stages, model.stage_gain)
        with pytest.raises(ValueError, match="scaler has 2 components"):
            eh.cmd_eval(tiny_config, misfit, with_sim=False)


class TestReportDeterminism:
    def read_all(self, directory):
        return {name: open(os.path.join(directory, name), "rb").read()
                for name in sorted(os.listdir(directory))}

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            report, _ = eh.cmd_solve(tiny_config)
            report.write(out)
            report, _ = eh.cmd_validate(tiny_config)
            report.write(out)
        assert self.read_all(a) == self.read_all(b)


class TestSimulatorRuns:
    """Each table command hands all of its runs to one ``sim.run_all`` call.

    A command without the simulator hands it none.
    """

    COMMANDS = {
        "validate": eh.cmd_validate,
        "eval": lambda config: eh.cmd_eval(config, untrained_model(config)),
        "bench": lambda config: eh.cmd_bench(config, with_sim=True),
        "solve": eh.cmd_solve,
        "eval --no-sim": lambda config: eh.cmd_eval(config, untrained_model(config),
                                                    with_sim=False),
        "bench without --sim": eh.cmd_bench,
    }

    @staticmethod
    def fake_cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    @pytest.mark.parametrize("command, runs", [("validate", 2), ("eval", 4), ("bench", 4),
                                               ("solve", 0), ("eval --no-sim", 0),
                                               ("bench without --sim", 0)])
    def test_one_run_all_and_the_same_rows_on_one_cpu(self, tiny_config, monkeypatch,
                                                      command, runs):
        calls = []
        real = sim.run_all

        def run_all(configs):
            calls.append(len(configs))
            return real(configs)
        monkeypatch.setattr(sim, "run_all", run_all)
        self.fake_cpus(monkeypatch, 4)
        split, split_errors = self.COMMANDS[command](tiny_config)
        self.fake_cpus(monkeypatch, 1)
        plain, plain_errors = self.COMMANDS[command](tiny_config)
        assert calls == [runs, runs]
        assert split.tables == plain.tables and split_errors == plain_errors == []

    @pytest.mark.parametrize("command", ["validate", "eval", "bench"])
    def test_a_failing_run_leaves_no_child(self, tiny_config, monkeypatch, command):
        parent = os.getpid()

        def run(config):
            if os.getpid() != parent:
                raise MemoryError("no room in the worker")
            return real(config)
        real = sim.run
        monkeypatch.setattr(sim, "run", run)
        self.fake_cpus(monkeypatch, 4)
        with pytest.raises(MemoryError, match="^no room in the worker$"):
            self.COMMANDS[command](tiny_config)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCli:
    def test_solve_success(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_densities": [2, 3], "test_densities": [10],
                                   "k_max": 2}))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "solve.csv").exists()
        assert (out / "run_metadata.json").exists()

    def test_error_record_on_failure(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": true}')
        code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["error"] == "ValueError"
        assert record["command"] == "solve"

    # (argv, the command its record names, a fragment of argparse's or the
    # flag check's message)
    @pytest.mark.parametrize("argv, command, message", [
        (["eval", "--seed", "abc"], "eval", "argument --seed: invalid int value: 'abc'"),
        (["bogus", "--seed", "1"], None, "argument command: invalid choice: 'bogus'"),
        ([], None, "the following arguments are required: command"),
        (["eval", "--bogus"], "eval", "unrecognized arguments: --bogus"),
        (["solve", "--sim"], "solve", "argument --sim: only bench takes it, not solve"),
        (["validate", "--model", "m"], "validate",
         "argument --model: only eval takes it, not validate"),
        (["bench", "--no-sim"], "bench", "argument --no-sim: only eval takes it, not bench"),
        (["--out", "eval", "solve", "--sim"], "solve",
         "argument --sim: only bench takes it, not solve"),
    ])
    def test_usage_error_is_one_json_record(self, tmp_path, capsys, monkeypatch,
                                            argv, command, message):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.err.splitlines()]
        assert len(records) == 1
        assert message in records[0].pop("message")
        assert records[0] == {"error": "UsageError", "command": command}
        assert captured.out == "" and not any(tmp_path.iterdir())

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: icl-csma")
        for word in (*cli.COMMANDS, *cli.OWN_FLAGS):
            assert word in text

    def test_commands_take_their_own_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"test_densities": [10], "n_est": 5,
                                   "b_pct_sweep": [0.0], "sim_horizon_slots": 2000}))
        out = tmp_path / "out"
        assert cli.main(["eval", "--model", str(MODEL_SEED7), "--no-sim",
                         "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["bench", "--sim", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "eval.csv", newline="", encoding="utf-8") as fh:
            assert all(row["u_icl_sim"] == "" for row in csv.DictReader(fh))
        with open(out / "bench.csv", newline="", encoding="utf-8") as fh:
            assert all(float(row["u_matched_sim"]) > 0 for row in csv.DictReader(fh))

    def test_train_then_eval(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train_densities": [2, 3], "test_densities": [10],
            "k_max": 2, "max_rounds": 40, "reps_per_query": 2,
            "b_pct_sweep": [0.0], "n_est": 5, "sim_horizon_slots": 5000,
        }))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        model_path = out / "model.json"
        assert model_path.exists()
        assert tf.load_model(model_path).n_stages == 3
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out),
                         "--no-sim"]) == 0
        assert (out / "eval.csv").exists()

    def test_eval_rejects_k_max_beyond_model(self, tmp_path, capsys):
        # the shipped model has 9 stages; k_max 10 asks for 11 before any density
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 10}))
        out = tmp_path / "out"
        model = Path(__file__).resolve().parents[1] / "benchmarks" / "model-seed7.json"
        code = cli.main(["eval", "--no-sim", "--config", str(cfg), "--out", str(out),
                         "--model", str(model)])
        assert code == 1
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [{"error": "ValueError", "command": "eval",
                            "message": "k_max 10 needs 11 stages; the model has 9"}]
        assert not out.exists()

    def test_output_directory_leaves_no_trace(self, tmp_path):
        # the output directory is not part of the config: the same run
        # written to two directories gives the same bytes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_densities": [2, 3], "test_densities": [10],
                                   "k_max": 2}))
        outs = [tmp_path / "one", tmp_path / "elsewhere" / "two"]
        for out in outs:
            assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        files = [{path.name: path.read_bytes() for path in out.iterdir()} for out in outs]
        assert sorted(files[0]) == ["run_metadata.json", "solve.csv"]
        assert files[0] == files[1]

    def test_validate_and_bench(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train_densities": [2, 3], "test_densities": [10, 20],
            "k_max": 2, "sim_horizon_slots": 5000,
            "validate_densities": [1, 2], "sim_seeds": 1, "n_est": 5,
        }))
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "validate.csv").exists() and (out / "bench.csv").exists()

    def test_datagen(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["datagen", "--out", str(out), "--seed", "5"]) == 0
        assert (out / "dataset.csv").exists()

    def test_headers_match_readme_schemas(self, tmp_path):
        # every CSV the commands write carries the header its README entry lists
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### File schemas\n", 1)[1].split("\n#", 1)[0]
        # a bullet's wrapped lines joined: "- `name.csv`: `a, b, ...`"
        bullets = " ".join(line.strip() for line in section.splitlines()).split("- ")
        schemas = {}
        for bullet in bullets:
            name, _, rest = bullet.partition(": ")
            if name.endswith(".csv`"):
                schemas[name.strip("`")] = rest.split("`")[1].split(", ")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train_densities": [2, 3], "test_densities": [10],
            "k_max": 2, "max_rounds": 40, "reps_per_query": 2,
            "b_pct_sweep": [0.0, 40.0], "n_est": 5, "sim_horizon_slots": 5000,
            "validate_densities": [1, 2], "sim_seeds": 1,
        }))
        out = tmp_path / "out"
        for command in (["datagen"], ["train"], ["solve"], ["eval", "--no-sim"],
                        ["validate"], ["bench"]):
            assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 0
        written = sorted(path.name for path in out.glob("*.csv"))
        assert written == sorted(schemas)
        for name, columns in schemas.items():
            with open(out / name, newline="", encoding="utf-8") as fh:
                assert next(csv.reader(fh)) == columns, name
