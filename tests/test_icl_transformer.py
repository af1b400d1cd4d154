import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from icl_csma import experiment_harness as eh
from icl_csma import icl_transformer as tf
from icl_csma import prompt_pipeline as pp
from icl_csma.analytic_model import BackoffLadder, design_ladder, ladder_throughput
from icl_csma.icl_transformer import (
    TrainedModel,
    TrainingDivergenceError,
    TransformerParams,
    attention,
    gradient,
    load_model,
    loss,
    predict,
    predict_stages,
    resolve_label_scale,
    round_threshold,
    save_model,
    train,
)
from icl_csma.prompt_pipeline import EmbeddedPrompt, FeatureScaler, PromptStack
from oracles import reference_gradient, reference_loss

SHIPPED_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "model-seed7.json"


def make_prompt(features, labels, query, query_label, stages=None, query_stage=None):
    """Craft an EmbeddedPrompt from raw columns (features: d x M)."""
    features = np.asarray(features, dtype=float)
    d, m = features.shape
    matrix = np.zeros((d + 1, m + 1))
    matrix[:d, :m] = features
    matrix[d, :m] = labels
    matrix[:d, m] = query
    stages = tuple(stages) if stages is not None else tuple(range(m))
    if query_stage is None:
        query_stage = stages[0]
    return EmbeddedPrompt(matrix, stages, query_stage, float(query_label), 0)


def one(embedded):
    """The stack of one prompt."""
    return PromptStack(embedded.matrix[None], embedded.stage_tags)


class TestAttention:
    def test_zero_params_uniform(self):
        prompt = make_prompt(np.arange(4)[None, :], [1, 2, 3, 4], [0.5], 1)
        report = attention(TransformerParams.zeros(1), prompt)
        assert np.allclose(report.scores, 0.25, atol=1e-12)

    def test_stage_aggregation(self):
        # three copies of stage 3, one of stage 5, uniform attention
        prompt = make_prompt(np.ones((1, 4)), [8, 8, 8, 2], [1.0],
                             8, stages=(3, 3, 3, 5), query_stage=3)
        report = attention(TransformerParams.zeros(1), prompt)
        assert report.stage_scores[3] == pytest.approx(0.75, abs=1e-12)
        assert report.query_stage_mass == pytest.approx(0.75, abs=1e-12)

    def test_concentration_at_large_scale(self):
        prompt = make_prompt([[1.0, -1.0]], [5, 9], [1.0], 5,
                             stages=(0, 1), query_stage=0)
        report = attention(TransformerParams(np.array([[50.0]])), prompt)
        assert report.scores[0] > 1 - 1e-12
        assert report.query_stage_mass > 1 - 1e-12

    def test_dimension_mismatch(self):
        prompt = make_prompt(np.ones((2, 3)), [1, 2, 3], [1.0, 1.0], 1)
        with pytest.raises(ValueError):
            attention(TransformerParams.zeros(3), prompt)

    def test_normalization_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d, m = int(rng.integers(1, 6)), int(rng.integers(2, 10))
            prompt = make_prompt(rng.normal(size=(d, m)), rng.integers(1, 100, m),
                                 rng.normal(size=d), 5)
            report = attention(TransformerParams(rng.normal(size=(d, d))), prompt)
            assert abs(report.scores.sum() - 1.0) <= 1e-12


class TestPredict:
    def test_constant_labels_exact(self):
        prompt = make_prompt(np.random.default_rng(0).normal(size=(3, 5)),
                             [64] * 5, np.ones(3), 64)
        rng = np.random.default_rng(1)
        assert predict(TransformerParams(rng.normal(size=(3, 3))), prompt) == 64.0

    def test_uniform_mean(self):
        prompt = make_prompt([[1.0, 2.0, 3.0]], [8, 32, 128], [2.0], 32)
        assert predict(TransformerParams.zeros(1), prompt) == pytest.approx(56.0, abs=1e-12)

    def test_convex_hull(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            labels = rng.integers(1, 10_000, 6)
            prompt = make_prompt(rng.normal(size=(4, 6)), labels,
                                 rng.normal(size=4), int(labels[0]))
            value = predict(TransformerParams(3 * rng.normal(size=(4, 4))), prompt)
            assert labels.min() - 1e-9 <= value <= labels.max() + 1e-9


def random_stage_case(rng, n_rows):
    """Random Q, d x M features, repeated stages, re-queried stages and label rows."""
    d, m = int(rng.integers(1, 6)), int(rng.integers(2, 10))
    params = TransformerParams(3 * rng.normal(size=(d, d)))
    feats = rng.normal(size=(d, m))
    stages = tuple(int(k) for k in rng.integers(0, 4, m))
    queried = [int(k) for k in rng.choice(stages, int(rng.integers(1, 8)))]
    rows = rng.integers(1, 5000, (n_rows, m))
    return params, feats, stages, queried, rows


class TestPredictStages:
    def test_matches_single_prompt_calls(self):
        # predict_stages queries a batch of stages (repeated, in any order, more
        # than once) in one pass; each equals, bit for bit, predict and attention
        # on the prompt whose query is the stage's first in-context column
        rng = np.random.default_rng(21)
        for _ in range(30):
            params, feats, stages, queried, rows = random_stage_case(rng, 1)
            embedded = make_prompt(feats, rows[0], rng.normal(size=feats.shape[0]), 7,
                                   stages=stages)
            preds, masses = predict_stages(params, one(embedded), queried, [rows])
            prompts = [make_prompt(feats, rows[0], feats[:, stages.index(s)], 7,
                                   stages=stages, query_stage=s) for s in queried]
            assert preds.tolist() == [[[predict(params, p) for p in prompts]]]
            assert masses.tolist() == [[attention(params, p).query_stage_mass
                                        for p in prompts]]

    def test_matches_relabeled_batches(self):
        # each label row gives, bit for bit, predict_stages on a prompt carrying it
        rng = np.random.default_rng(22)
        for _ in range(30):
            params, feats, stages, queried, rows = random_stage_case(
                rng, int(rng.integers(1, 5)))
            query = rng.normal(size=feats.shape[0])
            preds, masses = predict_stages(
                params, one(make_prompt(feats, rows[0], query, 7, stages=stages)), queried,
                [rows])
            assert preds.shape == (1, len(rows), len(queried))
            for row, got in zip(rows, preds[0], strict=True):
                relabeled = make_prompt(feats, row, query, 7, stages=stages)
                want, want_masses = predict_stages(params, one(relabeled), queried, [[row]])
                assert (got.tolist(), masses.tolist()) == (want[0, 0].tolist(),
                                                           want_masses.tolist())

    def test_stack_matches_each_prompt(self):
        # D prompts with one column layout but their own features, queries and
        # labels: prompt i of the stack gets, bit for bit, what it gets alone
        rng = np.random.default_rng(23)
        for _ in range(30):
            params, _, stages, queried, _ = random_stage_case(rng, 1)
            d, m = params.dim, len(stages)
            n_prompts, n_rows = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            prompts = [make_prompt(rng.normal(size=(d, m)), rng.integers(1, 5000, m),
                                   rng.normal(size=d), 7, stages=stages)
                       for _ in range(n_prompts)]
            rows = rng.integers(1, 5000, (n_prompts, n_rows, m))
            stack = PromptStack(np.stack([p.matrix for p in prompts]), stages)
            preds, masses = predict_stages(params, stack, queried, rows)
            for i, prompt in enumerate(prompts):
                want, want_masses = predict_stages(params, one(prompt), queried, rows[i:i + 1])
                assert preds[i].tolist() == want[0].tolist()
                assert masses[i].tolist() == want_masses[0].tolist()

    def test_masses_sum_in_column_order(self):
        # 8+ columns of two stages: a pairwise sum would group a stage's
        # scores otherwise and move the masses' last bits
        rng = np.random.default_rng(24)
        for _ in range(30):
            d, m = int(rng.integers(1, 4)), int(rng.integers(8, 17))
            params = TransformerParams(3 * rng.normal(size=(d, d)))
            stages = (0, 1) + tuple(int(k) for k in rng.integers(0, 2, m - 2))
            feats = rng.normal(size=(d, m))
            prompt = make_prompt(feats, np.ones(m), feats[:, 0], 7, stages=stages)
            scores = attention(params, prompt).scores.tolist()
            want = []
            for stage in (0, 1):
                mass = 0.0
                for tag, score in zip(stages, scores):
                    if tag == stage:
                        mass += score
                want.append(mass)
            assert [attention(params, prompt).stage_scores[k] for k in (0, 1)] == want
            _, masses = predict_stages(params, one(prompt), [0], [[np.ones(m)]])
            assert masses.tolist() == [want[:1]]

    def test_missing_stage_raises(self):
        prompt = make_prompt(np.ones((2, 3)), [1, 2, 3], [1.0, 1.0], 1, stages=(0, 1, 2))
        with pytest.raises(ValueError, match="no example with stage 5 to query"):
            predict_stages(TransformerParams.zeros(2), one(prompt), [0, 5], [[[1, 2, 3]]])

    def test_dimension_mismatch(self):
        prompt = make_prompt(np.ones((2, 3)), [1, 2, 3], [1.0, 1.0], 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_stages(TransformerParams.zeros(3), one(prompt), [0, 1], [[[1, 2, 3]]])

    def test_row_length_checked(self):
        prompt = make_prompt(np.ones((2, 3)), [1, 2, 3], [1.0, 1.0], 1)
        params = TransformerParams.zeros(2)
        # short and long rows, no prompt axis, and rows for two prompts of one
        for rows in ([[[1, 2]]], [[[1, 2, 3, 4]]], [[1, 2, 3]], [[[1, 2, 3]], [[1, 2, 3]]]):
            with pytest.raises(ValueError, match="labels per row"):
                predict_stages(params, one(prompt), [0], rows)


class TestLoss:
    def test_exact_prediction_zero(self):
        prompt = make_prompt([[0.0, 0.0]], [10, 10], [0.0], 10)
        assert loss(TransformerParams.zeros(1), [prompt]) == 0.0

    def test_squared_gap(self):
        # constant labels make the prediction exactly L; query label L - 2
        prompt = make_prompt([[1.0, 2.0]], [10, 10], [1.5], 8)
        assert loss(TransformerParams.zeros(1), [prompt]) == pytest.approx(4.0, abs=1e-12)

    def test_uniform_baseline_matches_mean_label_oracle(self, trained):
        config, model, _ = trained
        data = pp.generate_dataset(config.train_densities, config.k_max, config.cap,
                                   config.params, config.jitter_pct, config.master_seed)
        scaler = pp.fit_scaler(data)
        prompts = []
        for per in data:
            for stage in range(config.k_max + 1):
                prompts.append(pp.embed(pp.build_prompt(per, stage, scaler)))
        scale = resolve_label_scale(prompts)
        baseline = loss(TransformerParams.zeros(prompts[0].dim), prompts, scale)
        oracle = np.mean([
            ((np.mean(p.matrix[-1, :-1]) - p.query_label) / scale) ** 2 for p in prompts])
        assert baseline == pytest.approx(float(oracle), rel=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            loss(TransformerParams.zeros(1), [])


class TestGradient:
    def test_constant_labels_zero_gradient(self):
        prompt = make_prompt(np.random.default_rng(0).normal(size=(2, 4)),
                             [7, 7, 7, 7], [1.0, -1.0], 3)
        grad = gradient(TransformerParams.zeros(2), [prompt])
        assert np.all(grad == 0.0)

    def test_hand_computed_two_stage_case(self):
        # d=1, x = (1, 2), labels (4, 8), query x_q = 1 with label 4, Q = 0:
        # attn = (1/2, 1/2), pred = 6
        # d pred/dQ = 0.5(4-6)(1)(1) + 0.5(8-6)(2)(1) = 1
        # grad = 2 (pred - 4) * 1 = 4
        prompt = make_prompt([[1.0, 2.0]], [4, 8], [1.0], 4)
        grad = gradient(TransformerParams.zeros(1), [prompt])
        assert grad.shape == (1, 1)
        assert grad[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(10):
            d, m = int(rng.integers(1, 5)), int(rng.integers(2, 8))
            prompt = make_prompt(rng.normal(size=(d, m)),
                                 rng.integers(1, 50, m), rng.normal(size=d), 7)
            q = rng.normal(size=(d, d))
            analytic = gradient(TransformerParams(q), [prompt])
            fd = np.zeros_like(q)
            for i in range(d):
                for j in range(d):
                    qp, qm = q.copy(), q.copy()
                    qp[i, j] += h
                    qm[i, j] -= h
                    fd[i, j] = (loss(TransformerParams(qp), [prompt])
                                - loss(TransformerParams(qm), [prompt])) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(analytic - fd).max() / denom <= 1e-5


def training_prompts(config):
    """``cmd_train``'s batch as embedded prompts, one ``embed`` per sampled prompt."""
    data = pp.generate_dataset(config.train_densities, config.k_max, config.cap,
                               config.params, config.jitter_pct, config.master_seed)
    scaler = pp.fit_scaler(data)
    return [pp.embed((per, scaler.transform(per.raw), columns), n_stages=config.n_stages,
                     stage_gain=pp.STAGE_GAIN)
            for per in data
            for columns in pp.sample_training_prompts(
                per, config.reps_per_query,
                np.random.default_rng(eh._seed_sequence(config, eh.TRAIN_PROMPTS, per.density)))]


def assert_matches_reference(params, prompts, label_scale=1.0):
    """``loss`` and ``gradient`` within 1e-12 relative of the per-prompt passes.

    The gradient's error is taken relative to the magnitude of its summands
    (equal to the gradient where they do not cancel): a gradient whose
    terms cancel to about 0 has no relative error to speak of.
    """
    want_loss = reference_loss(params, prompts, label_scale)
    want_grad = reference_gradient(params, prompts, label_scale)
    size = reference_gradient(params, prompts, label_scale, magnitude=True).max()
    assert loss(params, prompts, label_scale) == pytest.approx(want_loss, rel=1e-12)
    assert np.abs(gradient(params, prompts, label_scale) - want_grad).max() <= 1e-12 * size


class TestKernelReference:
    # the kernel gathers each prompt's logits from the Gram matrix of its own
    # block and sums the gradient over the prompts through BLAS products; the
    # oracle contracts every prompt's columns with einsum

    def test_default_training_batch(self, trained):
        # cmd_train's 180 prompts, each its own block of 10 columns
        config, model, _ = trained
        prompts = training_prompts(config)
        assert len(prompts) == 180 and prompts[0].matrix.shape == (13, 10)
        scale = resolve_label_scale(prompts)
        assert scale == model.label_scale
        rng = np.random.default_rng(31)
        for q in (np.zeros((12, 12)), model.params.q_matrix,
                  0.02 * rng.normal(size=(12, 12))):
            assert_matches_reference(TransformerParams(q), prompts, scale)

    def test_query_outside_the_context(self):
        # a query column that is none of its prompt's in-context columns
        rng = np.random.default_rng(32)
        for _ in range(30):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 10))
            prompts = [make_prompt(rng.normal(size=(d, m)), rng.integers(1, 500, m),
                                   rng.normal(size=d), int(rng.integers(1, 500)))
                       for _ in range(int(rng.integers(1, 6)))]
            params = TransformerParams(rng.normal(size=(d, d)))
            assert_matches_reference(params, prompts, float(rng.uniform(1, 500)))

    def test_duplicated_columns(self):
        # columns repeated within a prompt (with their own labels), shared
        # across prompts, and queries that repeat an in-context column
        rng = np.random.default_rng(33)
        for _ in range(30):
            d, m = int(rng.integers(1, 6)), int(rng.integers(2, 10))
            pool = rng.normal(size=(d, 4))
            prompts = []
            for _ in range(int(rng.integers(1, 8))):
                # at least two distinct columns: with one, the exact gradient is 0
                feats = pool[:, rng.permutation(np.r_[0, 1, rng.integers(0, 4, m - 2)])]
                query = pool[:, int(rng.integers(0, 4))]
                prompts.append(make_prompt(feats, rng.integers(1, 500, m), query,
                                           int(rng.integers(1, 500))))
            params = TransformerParams(3 * rng.normal(size=(d, d)))
            assert_matches_reference(params, prompts)


class TestTrain:
    def test_any_layout_trains_alike(self, default_config):
        # prompts whose matrices are transposed views, not C-ordered, are
        # stacked in C order like their copies: BLAS sums a product's terms in
        # an order that follows the layout, so the bits would differ otherwise
        config = default_config
        views = [replace(p, matrix=p.matrix.T.copy().T) for p in training_prompts(config)]
        assert not any(p.matrix.flags.c_contiguous for p in views)
        copies = [replace(p, matrix=np.ascontiguousarray(p.matrix)) for p in views]
        params = TransformerParams(0.02 * np.random.default_rng(34).normal(size=(12, 12)))
        assert loss(params, views, 7.0) == loss(params, copies, 7.0)
        assert np.array_equal(gradient(params, views, 7.0), gradient(params, copies, 7.0))
        from_views = train(views, config.step_size, 30)
        from_copies = train(copies, config.step_size, 30)
        assert np.array_equal(from_views[0].q_matrix, from_copies[0].q_matrix)
        assert from_views[1].losses == from_copies[1].losses
        assert from_views[1].query_masses == from_copies[1].query_masses

    def test_constant_labels_converge_immediately(self):
        # the gradient is exactly 0 at Q = 0, so training stops before any update
        prompt = make_prompt([[1.0, 2.0, 3.0]], [64, 64, 64], [2.0], 64,
                             stages=(0, 1, 2), query_stage=1)
        params, trace = train([prompt], 0.05, 5)
        assert trace.stop_reason == "gradient vanished"
        assert trace.step_norms == []
        assert np.all(params.q_matrix == 0.0)
        assert trace.losses == [0.0]
        assert trace.query_masses == [pytest.approx(1 / 3, rel=1e-15)]

    def test_single_round_budget(self):
        # the query is none of the in-context columns, so no mass can stop it
        rng = np.random.default_rng(0)
        prompt = make_prompt(rng.normal(size=(2, 4)), [1, 5, 9, 13],
                             rng.normal(size=2), 5)
        params, trace = train([prompt], 0.05, 1)
        assert trace.stop_reason == "budget"
        assert len(trace.step_norms) == 1
        assert len(trace.losses) == len(trace.query_masses) == 2  # initial + final

    def test_equals_manual_gradient_steps(self):
        # train and gradient share one kernel: T updates of train are T
        # manual normalized steps Q <- Q - eta * G / ||G||, bit for bit, with
        # ||G|| summed outside BLAS
        rng = np.random.default_rng(5)
        prompts = [make_prompt(rng.normal(size=(3, 6)), rng.integers(1, 500, 6),
                               rng.normal(size=3), int(rng.integers(1, 500)))
                   for _ in range(5)]
        params, trace = train(prompts, 0.05, 25)
        scale = resolve_label_scale(prompts)
        q, norms = np.zeros((3, 3)), []
        for t in range(25):
            grad = gradient(TransformerParams(q), prompts, scale)
            norms.append(math.sqrt(np.sum(grad * grad)))
            q = q - 0.05 / norms[-1] * grad
        assert trace.stop_reason == "budget"
        assert trace.step_norms == norms
        assert np.array_equal(params.q_matrix, q)
        assert trace.losses[-1] == loss(params, prompts, scale)

    @pytest.mark.parametrize("budget, reason", [(10_000, "mass"), (2, "budget")])
    def test_default_batch_stop_reason(self, default_config, budget, reason):
        # the default batch retrieves its query stages within a handful of
        # updates; a budget of 2 stops it before
        _, trace = train(training_prompts(default_config), default_config.step_size, budget)
        assert trace.stop_reason == reason
        assert len(trace.step_norms) == min(budget, len(trace.losses) - 1) <= 10
        assert (trace.query_masses[-1] >= tf._MASS_TARGET) == (reason == "mass")
        assert max(trace.query_masses[:-1]) < tf._MASS_TARGET

    def test_gradient_vanishes_at_a_perfect_fit(self):
        # equal labels on every stage give each prompt a zero gradient at any
        # Q, so training stops at once whatever the budget
        rng = np.random.default_rng(6)
        prompts = [make_prompt(rng.normal(size=(2, 4)), [9, 9, 9, 9], rng.normal(size=2), 9)
                   for _ in range(3)]
        params, trace = train(prompts, 0.05, 10_000)
        assert (trace.stop_reason, trace.step_norms, trace.losses) == (
            "gradient vanished", [], [0.0])
        assert not params.q_matrix.any()

    def test_labels_at_their_targets_stop_at_once(self, default_config):
        # every label of this config parks at the cap, so each prediction is
        # exact at any Q; the gradient's rounding noise (||G|| about 3e-30)
        # must not drive 10,000 unit-norm updates
        config = replace(default_config, train_densities=(335155,), k_max=5, cap=122099,
                         jitter_pct=0.0, reps_per_query=1, master_seed=1374638303775844133)
        model, trace, _ = eh.cmd_train(config)
        assert (trace.stop_reason, trace.step_norms) == ("gradient vanished", [])
        assert not model.params.q_matrix.any()
        assert len(trace.losses) == 1 and trace.losses[0] < 1e-30

    def test_stops_at_the_first_parameter_meeting_the_mass_target(self, trained):
        # replay the default training and measure each visited parameter's
        # batch mass prompt by prompt: the last one is the first to reach the
        # target, and train recorded each mass
        config, model, trace = trained
        prompts = training_prompts(config)
        q, masses = np.zeros((12, 12)), []
        for t in range(len(trace.step_norms) + 1):
            params = TransformerParams(q)
            masses.append(min(attention(params, p).query_stage_mass for p in prompts))
            if t < len(trace.step_norms):
                grad = gradient(params, prompts, trace.label_scale)
                q = q - config.step_size / math.sqrt(np.sum(grad * grad)) * grad
        assert np.array_equal(q, model.params.q_matrix)
        assert masses[-1] >= tf._MASS_TARGET > masses[-2]
        assert max(masses[:-1]) < tf._MASS_TARGET
        assert trace.query_masses == pytest.approx(masses, rel=1e-12)

    def test_pathological_step_size_detected(self, trained):
        # the first full-size update saturates every softmax before the loss moves far
        config, _, _ = trained
        with pytest.raises(TrainingDivergenceError,
                           match="softmax frozen by an oversized update") as err:
            train(training_prompts(replace(config, reps_per_query=2)), 1e3, 50)
        assert err.value.step == 1

    def test_loss_blowup_detected(self):
        # uniform attention predicts 0.5 against a target of 0.55; one large
        # step swings the weight onto one label and the loss past 10x its start
        prompt = make_prompt([[1.0, -1.0]], [0, 1], [1.0], 0.55)
        with pytest.raises(TrainingDivergenceError, match=r"loss blew up") as err:
            train([prompt], 1e3, 50)
        assert err.value.step == 1
        assert 10 * 0.05 ** 2 < err.value.value < math.inf

    def test_non_finite_loss_detected(self, default_config):
        # a finite step size the config accepts, large enough that the next
        # logits overflow: the loss is NaN at step 1
        config = replace(default_config, reps_per_query=2, step_size=1e307)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingDivergenceError, match=r"loss blew up \(loss nan\)$") as err:
            train(training_prompts(config), config.step_size, 50)
        assert err.value.step == 1

    def test_scale_robustness(self):
        # training divides labels by the batch's largest one, so multiplying
        # every label by c leaves Q unchanged and scales each prediction by c
        rng = np.random.default_rng(8)
        cases = [(rng.normal(size=(2, 5)), rng.integers(1, 50, 5), rng.normal(size=2),
                  int(rng.integers(1, 50))) for _ in range(6)]
        c = 1000.0
        prompts = [make_prompt(f, w, q, wq) for f, w, q, wq in cases]
        scaled = [make_prompt(f, w * c, q, wq * c) for f, w, q, wq in cases]
        params, _ = train(prompts, 0.05, 400)
        params_c, _ = train(scaled, 0.05, 400)
        assert np.allclose(params_c.q_matrix, params.q_matrix, rtol=0, atol=1e-9)
        for prompt, prompt_c in zip(prompts, scaled):
            assert (round_threshold(predict(params_c, prompt_c), 10 ** 6)
                    == round_threshold(c * predict(params, prompt), 10 ** 6))

    def test_config_validation(self):
        # the experiment config owns the training budget's range checks
        with pytest.raises(ValueError, match="^step_size"):
            eh.ExperimentConfig(step_size=0.0)
        with pytest.raises(ValueError, match="^max_rounds"):
            eh.ExperimentConfig(max_rounds=0)


class TestTrainedBehavior:
    # criterion 5's checks on every master seed of 0..59, each stopping on
    # the mass target within 10 updates
    @pytest.mark.parametrize("seed", range(60))
    def test_converges_on_every_seed(self, default_config, seed):
        config = replace(default_config, master_seed=seed)
        model, trace, _ = eh.cmd_train(config)
        assert trace.stop_reason == "mass" and len(trace.step_norms) <= 10
        assert trace.losses[-1] <= 0.01 * trace.losses[0]
        data = pp.generate_dataset(config.train_densities, config.k_max, config.cap,
                                   config.params, config.jitter_pct, seed)
        for n, per in zip(config.train_densities, data):
            _, masses = eh.predict_thresholds(model, per, [per.labels], config.k_max)
            assert min(masses) >= 0.9, f"density {n}: masses {masses}"

    def test_loss_decreases_after_burn_in(self, trained):
        # the default training lowers the loss at every update
        _, _, trace = trained
        losses = trace.losses
        assert len(losses) >= 2
        assert all(after < before for before, after in zip(losses, losses[1:]))

    def test_throughput_loss_bounded_by_prediction_error(self, trained, table1):
        # U is (T_P N / (8 T_sigma))-Lipschitz per threshold, so the mean
        # throughput gap is bounded by that slope times the RMS prediction
        # error (Jensen); check the chain on the trained model
        config, model, _ = trained
        data = pp.generate_dataset(config.train_densities, config.k_max, config.cap,
                                   config.params, config.jitter_pct, config.master_seed)
        gaps, sq_errors = [], []
        for n, per in zip(config.train_densities, data):
            ladder, _ = design_ladder(n, table1, config.k_max, config.cap)
            u_star = ladder_throughput(ladder, n, table1)
            (preds,), _ = eh.predict_thresholds(model, per, [per.labels], config.k_max)
            for k, pred in enumerate(preds):
                swapped = list(ladder.thresholds)
                swapped[k] = round_threshold(pred, config.cap)
                try:
                    lad = BackoffLadder(tuple(swapped), config.cap)
                except ValueError:
                    continue  # rounding broke monotonicity; skip the slot
                gaps.append(u_star - ladder_throughput(lad, n, table1))
                sq_errors.append((preds[k] - ladder.thresholds[k]) ** 2)
        slope = table1.payload_us * 500 / (8 * table1.slot_time_us)
        assert np.mean(gaps) <= slope * np.sqrt(np.mean(sq_errors)) + 1e-12


class TestSmallOps:
    def test_round_threshold(self):
        assert round_threshold(56.5, 8192) == 57
        assert round_threshold(0.2, 8192) == 1
        assert round_threshold(9000.0, 8192) == 8192
        with pytest.raises(ValueError):
            round_threshold(5.0, 0)

    def test_prediction_loss_identity(self):
        # with exact per-stage labels f(k), the prompt loss factors through
        # the stage attention: loss = (sum_k Attn_k (f(k) - f(k_q)))^2
        rng = np.random.default_rng(13)
        labels = [3, 9, 27, 81]
        prompt = make_prompt(rng.normal(size=(3, 4)), labels, rng.normal(size=3),
                             labels[2], stages=(0, 1, 2, 3), query_stage=2)
        params = TransformerParams(rng.normal(size=(3, 3)))
        report = attention(params, prompt)
        mix = sum(report.stage_scores.get(k, 0.0) * (labels[k] - labels[2])
                  for k in range(4))
        assert loss(params, [prompt]) == pytest.approx(mix ** 2, rel=1e-12)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        # 9 stage rows + 1 timing row (a 2-dimensional scaler) = dim 10
        model = TrainedModel(TransformerParams(np.arange(100.0).reshape(10, 10)),
                             FeatureScaler((1.0, 2.0), (3.0, 4.0)), 1024.0, 9, 24.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.params.q_matrix, model.params.q_matrix)
        assert loaded.scaler == model.scaler
        assert loaded.label_scale == 1024.0
        assert loaded.n_stages == 9 and loaded.stage_gain == 24.0

    def test_version_guard(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "icl-csma-model", "version": 99}')
        with pytest.raises(ValueError):
            load_model(path)
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_shipped_model_loads(self):
        model = load_model(SHIPPED_MODEL)
        assert model.params.dim == model.n_stages + len(model.scaler.shift) - 1 == 12

    @pytest.mark.parametrize("edit, match", [
        (lambda r: [r], "not a icl-csma-model file"),
        (lambda r: {k: v for k, v in r.items() if k != "scaler"}, "'scaler': missing"),
        (lambda r: {k: v for k, v in r.items() if k != "q_matrix"}, "'q_matrix': missing"),
        (lambda r: {**r, "q_matrix": r["q_matrix"][:-1]},
         "q_matrix must hold dim\\^2 = 144 numbers"),
        (lambda r: {**r, "scaler": {"shift": [0.0] * 5, "scale": [1.0] * 5}},
         "dim 12 does not fit n_stages 9"),
        (lambda r: {**r, "scaler": {**r["scaler"], "scale": [float("nan")] * 4}},
         "'scaler': shift and scale components must be finite"),
        (lambda r: {**r, "n_stages": 8}, "dim 12 does not fit n_stages 8"),
        (lambda r: {**r, "n_stages": 0}, "dim 12 does not fit n_stages 0"),
        (lambda r: {**r, "stage_gain": float("nan")}, "stage_gain must be finite and > 0"),
        (lambda r: {**r, "stage_gain": 0.0}, "stage_gain must be finite and > 0"),
        (lambda r: {**r, "label_scale": float("inf")}, "label_scale must be finite and > 0"),
        (lambda r: {**r, "label_scale": -1.0}, "label_scale must be finite and > 0"),
        (lambda r: {**r, "n_stages": 9.7}, "'n_stages': expected an integer, got 9.7"),
        (lambda r: {**r, "dim": 12.9}, "'dim': expected an integer, got 12.9"),
        (lambda r: {**r, "n_stages": "9"}, "'n_stages': expected an integer, got '9'"),
        (lambda r: {**r, "dim": "12"}, "'dim': expected an integer, got '12'"),
        (lambda r: {**r, "dim": True}, "'dim': expected an integer, got True"),
        (lambda r: {**r, "n_stages": False}, "'n_stages': expected an integer, got False"),
        (lambda r: {**r, "label_scale": "2.0"}, "'label_scale': expected a number, got '2.0'"),
        (lambda r: {**r, "label_scale": True}, "'label_scale': expected a number, got True"),
        (lambda r: {**r, "stage_gain": True}, "'stage_gain': expected a number, got True"),
        (lambda r: {**r, "stage_gain": None}, "'stage_gain': expected a number, got None"),
        (lambda r: {**r, "version": True}, "'version': expected an integer, got True"),
        (lambda r: {**r, "version": 1.0}, "'version': expected an integer, got 1.0"),
        (lambda r: {k: v for k, v in r.items() if k != "version"}, "'version': missing"),
    ], ids=["list", "no scaler", "no q_matrix", "short q_matrix", "scaler length",
            "nan scaler", "n_stages", "zero n_stages", "nan stage_gain", "zero stage_gain",
            "inf label_scale", "negative label_scale", "float n_stages", "float dim",
            "str n_stages", "str dim", "bool dim", "bool n_stages", "str label_scale",
            "bool label_scale", "bool stage_gain", "null stage_gain", "bool version",
            "float version", "no version"])
    def test_inconsistent_model_rejected(self, tmp_path, edit, match):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(edit(json.loads(SHIPPED_MODEL.read_text()))))
        with pytest.raises(ValueError, match=match):
            load_model(path)
