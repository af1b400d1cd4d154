"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import time

import numpy as np
import pytest

from icl_csma import experiment_harness as eh
from icl_csma import icl_transformer as tf
from icl_csma import mac_simulator as ms
from icl_csma import prompt_pipeline as pp
from icl_csma.analytic_model import (
    BackoffLadder,
    design_ladder,
    ladder_throughput,
    mismatch_loss,
    optimize_tau,
    solve_tau,
)
from oracles import grid_tau, random_ladder


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_fixed_point_oracle_equivalence(table1):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked_k0 = 0
    for _ in range(200):
        thresholds = random_ladder(rng)
        n = int(rng.integers(1, 501))
        ladder = BackoffLadder(thresholds, thresholds[-1])
        result = solve_tau(ladder, n)
        if len(thresholds) == 1 or n == 1:
            assert result.tau == 2.0 / (thresholds[0] + 1.0)
            checked_k0 += 1
        else:
            oracle = grid_tau(thresholds, n)
            assert abs(result.tau - oracle) <= 1e-7
    assert checked_k0 >= 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "fixed-point oracle equivalence")


def test_criterion_2_tau_star_bound(table1):
    start = time.perf_counter()
    for n in range(2, 501):
        tau_star, _ = optimize_tau(n, table1)
        assert tau_star < 1.0 / n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, "tau* < 1/N for N in 2..500")


def test_criterion_3_simulator_model_agreement(table1):
    start = time.perf_counter()
    for n in (2, 5, 10, 20):
        ladder, _ = design_ladder(n, table1, 8, 32768)
        analytic = ladder_throughput(ladder, n, table1)
        for seed in (1, 2, 3):
            run = ms.run(ms.SimConfig(n, ladder, table1, 1_000_000, seed=seed))
            deviation = abs(run.throughput - analytic) / analytic
            assert deviation <= 0.02, f"N={n} seed={seed}: {deviation:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    _report(3, "simulator within 2% of the saturation model")


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    h = 1e-5
    draws = 0
    while draws < 100:
        d = int(rng.integers(1, 6))
        m = int(rng.integers(2, 10))
        matrix = np.zeros((d + 1, m + 1))
        matrix[:d, :m] = rng.normal(size=(d, m))
        matrix[d, :m] = rng.integers(1, 200, size=m)
        matrix[:d, m] = rng.normal(size=d)
        prompt = pp.EmbeddedPrompt(matrix, tuple(range(m)), 0,
                                   float(rng.integers(1, 200)), 0)
        q = rng.normal(size=(d, d))
        analytic = tf.gradient(tf.TransformerParams(q), [prompt])
        fd = np.zeros_like(q)
        for i in range(d):
            for j in range(d):
                qp, qm = q.copy(), q.copy()
                qp[i, j] += h
                qm[i, j] -= h
                fd[i, j] = (tf.loss(tf.TransformerParams(qp), [prompt])
                            - tf.loss(tf.TransformerParams(qm), [prompt])) / (2 * h)
        rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel <= 1e-5, f"draw {draws}: relative error {rel:.2e}"
        draws += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, "gradient matches central finite differences")


def test_criterion_5_training_convergence(default_config):
    start = time.perf_counter()
    model, trace, _ = eh.cmd_train(default_config)
    assert len(trace.step_norms) <= 10_000
    baseline = trace.losses[0]
    final = trace.losses[-1]
    assert final <= 0.01 * baseline, f"loss ratio {final / baseline:.3e}"
    data = pp.generate_dataset(default_config.train_densities, default_config.k_max,
                               default_config.cap, default_config.params,
                               default_config.jitter_pct, default_config.master_seed)
    for n, per in zip(default_config.train_densities, data):
        _, masses = eh.predict_thresholds(model, per, [per.labels], default_config.k_max)
        for stage, mass in enumerate(masses):
            assert mass >= 0.9, f"density {n} stage {stage}: mass {mass:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"
    _report(5, "training reaches 1% loss with 0.9 query-stage attention")


def test_criterion_6_training_stage_fidelity(trained, table1):
    config, model, _ = trained
    data = pp.generate_dataset(config.train_densities, config.k_max, config.cap,
                               config.params, config.jitter_pct, config.master_seed)
    for n, per in zip(config.train_densities, data):
        ladder_star, _ = design_ladder(n, table1, config.k_max, config.cap)
        u_star = ladder_throughput(ladder_star, n, table1)
        (preds,), _ = eh.predict_thresholds(model, per, [per.labels], config.k_max)
        for k, pred in enumerate(preds):
            rounded = tf.round_threshold(pred, config.cap)
            rel = abs(rounded - ladder_star.thresholds[k]) / ladder_star.thresholds[k]
            assert rel <= 0.10, f"density {n} stage {k}: {rel:.3f}"
        u_hat = ladder_throughput(eh.repair_ladder(preds, config.cap), n, table1)
        assert (u_star - u_hat) / u_star <= 0.02, f"density {n}: U loss too large"
    _report(6, "ICL thresholds within 10% and throughput within 2% (training stage)")


def test_criterion_7_generalization_with_erroneous_prompts(trained):
    config, model, _ = trained
    report, errors = eh.cmd_eval(config, model, with_sim=False)
    assert not errors
    columns, rows = report.tables["eval"]
    table = {}
    for row in rows:
        record = dict(zip(columns, row))
        table[(record["density"], float(record["b_pct"]))] = record
    for n in config.test_densities:
        exact = table[(n, 0.0)]
        u_star, u_icl = float(exact["u_star"]), float(exact["u_icl"])
        u_mb = float(exact["u_model_based"])
        assert abs(u_star - u_icl) / u_star <= 0.05, f"N={n}: b=0 off by >5%"
        assert u_icl > u_mb, f"N={n}: b=0 does not beat the benchmark"
        for b in (40.0, 60.0):
            if n >= 300:
                noisy = table[(n, b)]
                assert float(noisy["u_icl"]) > float(noisy["u_model_based"]), \
                    f"N={n} b={b}: corrupted ICL loses to the benchmark"
    _report(7, "generalization beats the benchmark under prompt errors")


def test_criterion_8_mismatch_trend(table1):
    densities = (100, 200, 300, 400, 500)
    losses = [mismatch_loss(n, 50, 8, 32768, table1) for n in densities]

    def quantization_slack(n):
        ladder, _ = design_ladder(n, table1, 8, 32768)
        bumped = BackoffLadder.beb(ladder.thresholds[0] + 1, 8, 32768)
        return abs(ladder_throughput(ladder, n, table1)
                   - ladder_throughput(bumped, n, table1))

    slacks = [quantization_slack(n) for n in densities]
    for i in range(len(densities) - 1):
        assert losses[i + 1] >= losses[i] - (slacks[i] + slacks[i + 1]), \
            f"trend broken at N={densities[i + 1]}"
    for n, value in zip(densities, losses):
        if n >= 200:
            assert value > 0.0, f"N={n}: mismatch loss not positive"
    _report(8, "mismatch loss grows with the density gap")


def test_criterion_9_lipschitz_sanity(table1):
    rng = np.random.default_rng(77)
    slope = table1.payload_us * 500 / (8.0 * table1.slot_time_us)
    checked = 0
    while checked < 1000:
        thresholds = list(random_ladder(rng, k_high=8, w0_high=512))
        n = int(rng.integers(2, 501))
        k = int(rng.integers(0, len(thresholds)))
        lo = 2 if k == 0 else thresholds[k - 1] + 1
        hi = thresholds[k + 1] - 1 if k + 1 < len(thresholds) else thresholds[k] * 3
        if hi <= lo:
            continue
        new = int(rng.integers(lo, hi + 1))
        if new == thresholds[k]:
            continue
        cap = max(thresholds[-1], hi) * 2
        u_base = ladder_throughput(BackoffLadder(tuple(thresholds), cap), n, table1)
        bumped = list(thresholds)
        bumped[k] = new
        u_bumped = ladder_throughput(BackoffLadder(tuple(bumped), cap), n, table1)
        assert abs(u_bumped - u_base) <= slope * abs(new - thresholds[k])
        checked += 1
    _report(9, "single-threshold Lipschitz bound holds on 1000 perturbations")


def test_criterion_10_determinism(tmp_path):
    small = eh.ExperimentConfig(sim_horizon_slots=50_000, sim_seeds=2)
    tiny = eh.ExperimentConfig(
        train_densities=(2, 3), test_densities=(10,), k_max=2,
        max_rounds=40, reps_per_query=2, n_est=5)

    def read_all(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    for label, runner in [
        ("solve", lambda out: eh.cmd_solve(small)[0].write(out)),
        ("datagen", lambda out: eh.cmd_datagen(small, out_dir=out)),
        ("validate", lambda out: eh.cmd_validate(small)[0].write(out)),
        ("train", lambda out: (lambda m, t, r: (r.write(out), tf.save_model(
            m, out / "model.json")))(*eh.cmd_train(tiny))),
    ]:
        a, b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        a.mkdir()
        b.mkdir()
        runner(a)
        runner(b)
        assert read_all(a) == read_all(b), f"{label} outputs differ between runs"
    _report(10, "re-runs produce byte-identical outputs")
