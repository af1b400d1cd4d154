import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icl_csma.prompt_pipeline import (
    DATASET_CSV_COLUMNS,
    STAGE_GAIN,
    DensityExamples,
    FeatureScaler,
    build_prompt,
    corrupt_thresholds,
    dataset_rows,
    embed,
    fit_scaler,
    generate_dataset,
    label_error_rows,
    prompt_stack,
    sample_training_prompts,
)

from oracles import reference_corrupt, reference_dataset


def rng(seed):
    return np.random.default_rng(seed)


class Signs:
    """A generator stand-in whose scalar ``integers(0, 2)`` draws replay fixed signs."""

    def __init__(self, ups):
        self._ups = iter(ups)

    def integers(self, low, high):
        return next(self._ups)

DENSITIES = [2, 3, 4, 5, 6]


def rows(example_sets):
    """Every example as (density, raw features, label)."""
    return [(s.density, tuple(x), w) for s in example_sets
            for x, w in zip(s.raw.tolist(), s.labels.tolist())]


def of_density(dataset, n):
    return next(s for s in dataset if s.density == n)


@pytest.fixture(scope="module")
def dataset(table1):
    return generate_dataset(DENSITIES, 8, 32768, table1, 0.05, seed=7)


class TestGenerateDataset:
    def test_shape_and_monotone_labels(self, dataset):
        assert len(rows(dataset)) == 45
        assert [s.density for s in dataset] == DENSITIES
        for n in DENSITIES:
            labels = of_density(dataset, n).labels.tolist()
            assert len(labels) == 9
            assert all(a < b for a, b in zip(labels, labels[1:]))

    def test_single_stage(self, table1):
        out = generate_dataset([4], 0, 1024, table1, 0.0, seed=1)
        assert len(rows(out)) == 1 and out[0].stages.tolist() == [0]

    def test_determinism_and_per_density_streams(self, table1, dataset):
        again = generate_dataset(DENSITIES, 8, 32768, table1, 0.05, seed=7)
        assert rows(again) == rows(dataset)
        # the stream is keyed by (seed, density): dropping other densities
        # does not disturb a density's examples
        only4 = generate_dataset([4], 8, 32768, table1, 0.05, seed=7)
        assert rows(only4) == rows([of_density(dataset, 4)])

    def test_jitter_bounds(self, table1, dataset):
        for _, (_, tp, ts, tc), _ in rows(dataset):
            assert abs(tp / table1.payload_us - 1) <= 0.05
            assert abs(ts / table1.success_us - 1) <= 0.05
            assert abs(tc / table1.collision_us - 1) <= 0.05

    def test_validation(self, table1):
        with pytest.raises(ValueError):
            generate_dataset([], 8, 32768, table1, 0.05, seed=1)
        with pytest.raises(ValueError):
            generate_dataset([1], 8, 32768, table1, 0.05, seed=1)
        with pytest.raises(ValueError):
            generate_dataset([4], 8, 32768, table1, -0.1, seed=1)


class TestCorruptThresholds:
    def test_percentage_scaling(self):
        seen = set()
        for seed in range(30):
            out = corrupt_thresholds(np.array([100]), 40.0, rng(seed))
            assert out.dtype == np.int64
            seen.add(int(out[0]))
        assert seen == {60, 140}

    def test_floor_clamp(self):
        outs = {int(corrupt_thresholds(np.array([1]), 60.0, rng(s))[0]) for s in range(30)}
        assert outs == {1, 2}  # round(0.4) clamps to 1, round(1.6) = 2

    def test_cap_clamp(self):
        outs = {int(corrupt_thresholds(np.array([100]), 60.0, rng(s), cap=120)[0])
                for s in range(30)}
        assert outs == {40, 120}

    def test_vanishing_error_keeps_labels(self, dataset):
        for s in dataset:
            assert corrupt_thresholds(s.labels, 1e-9, rng(3)).tolist() == s.labels.tolist()

    def test_symmetric_in_expectation(self):
        draws = rng(0)
        mean = np.mean([corrupt_thresholds(np.array([1000]), 40.0, draws)[0]
                        for _ in range(4000)])
        assert mean == pytest.approx(1000, rel=2e-2)

    def test_domain(self, dataset):
        with pytest.raises(ValueError):
            corrupt_thresholds(dataset[0].labels, 0.0, rng(1))
        with pytest.raises(ValueError):
            corrupt_thresholds(dataset[0].labels, 100.0, rng(1))

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_rejected(self, dataset, cap):
        # round_threshold's boundary: a cap under 1 leaves no valid label
        with pytest.raises(ValueError, match=f"^cap must be >= 1, got {cap}$"):
            corrupt_thresholds(dataset[0].labels, 20.0, rng(1), cap=cap)


class TestScaler:
    def test_zero_mean_unit_variance(self, dataset):
        scaler = fit_scaler(dataset)
        normalized = np.concatenate([scaler.transform(s.raw) for s in dataset])
        assert np.abs(normalized.mean(axis=0)).max() < 1e-9
        assert np.abs(normalized.var(axis=0) - 1.0).max() < 1e-9

    def test_constant_dimension_maps_to_zero(self, table1):
        data = generate_dataset([3, 4], 4, 1024, table1, 0.0, seed=2)
        scaler = fit_scaler(data)
        for s in data:
            for norm in scaler.transform(s.raw):
                assert norm[1] == norm[2] == norm[3] == 0.0
        assert scaler.scale[1] == 1.0

    def test_empty_fit(self):
        with pytest.raises(ValueError):
            fit_scaler([])

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            FeatureScaler((0.0,), (0.0,))

    @pytest.mark.parametrize("shift, scale", [((float("nan"),), (1.0,)),
                                              ((0.0,), (float("nan"),)),
                                              ((0.0,), (float("inf"),))])
    def test_finite(self, shift, scale):
        with pytest.raises(ValueError, match="must be finite"):
            FeatureScaler(shift, scale)


class TestPromptsAndEmbedding:
    def test_build_prompt_holds_out_query_label(self, dataset):
        scaler = fit_scaler(dataset)
        examples = of_density(dataset, 4)
        prompt_examples, normalized, columns = build_prompt(examples, 3, scaler)
        assert prompt_examples is examples
        assert examples.labels[columns[-1]] == examples.labels[3]
        assert examples.stages[columns[-1]] == 3
        assert len(columns) - 1 == 9
        assert np.array_equal(normalized, scaler.transform(examples.raw))

    def test_embedding_layout(self, dataset):
        scaler = fit_scaler(dataset)
        full = of_density(dataset, 2)
        examples = DensityExamples(2, full.raw[:3], full.labels[:3])
        prompt = build_prompt(examples, 1, scaler)
        emb = embed(prompt, n_stages=3)
        # rows: 3 stage-indicator + 3 timing + 1 label; columns: M + 1
        assert emb.matrix.shape == (7, 4)
        assert emb.matrix[6, 3] == 0.0  # query label slot
        assert emb.matrix[6, :3].tolist() == examples.labels.tolist()
        assert emb.query_stage == 1 and emb.query_label == examples.labels[1]

    def test_embedding_round_trip(self, dataset):
        scaler = fit_scaler(dataset)
        examples = of_density(dataset, 5)
        _, normalized, columns = build_prompt(examples, 6, scaler)
        emb = embed((examples, normalized, columns))
        n_stages = 9
        for j, row in enumerate(columns[:-1]):
            col = emb.matrix[:-1, j]
            assert col[examples.stages[row]] == STAGE_GAIN
            assert np.allclose(col[n_stages:], normalized[row, 1:])
            assert emb.matrix[-1, j] == examples.labels[row]
        # query duplicated into the last column, label slot zeroed
        query = columns[-1]
        qcol = emb.matrix[:-1, -1]
        assert qcol[examples.stages[query]] == STAGE_GAIN
        assert np.allclose(qcol[n_stages:], normalized[query, 1:])

    @pytest.mark.parametrize("stages, n_stages, bad", [((-1, 0, 1), None, -1),
                                                       ((-1, 0, 1), 3, -1),
                                                       ((0, 1, 3), 3, 3)],
                             ids=["negative", "negative of 3", "too high"])
    def test_stage_out_of_range(self, dataset, stages, n_stages, bad):
        # a stage -1 one-hot would land in the label row and be overwritten,
        # leaving its column with no stage
        scaler = fit_scaler(dataset)
        full = of_density(dataset, 2)
        raw = full.raw[:3].copy()
        raw[:, 0] = stages
        examples = DensityExamples(2, raw, full.labels[:3])
        with pytest.raises(ValueError, match=f"stage {bad} out of range"):
            embed(build_prompt(examples, 0, scaler), n_stages)

    def test_query_duplicate_still_only_in_last_column(self, dataset):
        scaler = fit_scaler(dataset)
        examples = of_density(dataset, 3)
        emb = embed(build_prompt(examples, 2, scaler))
        # the stage-2 example remains an in-context column; the query column
        # replicates its features but carries a zero label
        assert emb.matrix[-1, 2] == examples.labels[2]
        assert np.allclose(emb.matrix[:-1, 2], emb.matrix[:-1, -1])

    @pytest.mark.parametrize("n_stages", [None, 9, 11])
    def test_stage_queries_equal_per_stage_embeddings(self, dataset, n_stages):
        # what icl_transformer.predict_stages relies on: the prompt querying
        # stage s is one shared embedding whose query column is that of the
        # first in-context example at s
        scaler = fit_scaler(dataset)
        examples = of_density(dataset, 3)
        # a duplicated stage 4 placed first, with another label: first match wins
        examples = DensityExamples(3, np.vstack([examples.raw[4], examples.raw]),
                                   np.append(12345, examples.labels))
        base = embed(build_prompt(examples, 0, scaler), n_stages, 7.0)
        d = base.dim
        for stage in range(9):
            emb = embed(build_prompt(examples, stage, scaler), n_stages, 7.0)
            j = base.stage_tags.index(stage)
            want = base.matrix.copy()
            want[:d, -1] = base.matrix[:d, j]
            assert np.array_equal(emb.matrix, want)
            assert ((emb.stage_tags, emb.query_stage, emb.query_label, emb.density_tag)
                    == (base.stage_tags, stage, base.matrix[d, j], base.density_tag))
        assert base.stage_tags.index(4) == 0 and base.matrix[d, 0] == 12345.0

    @pytest.mark.parametrize("n_stages", [9, 11])
    @pytest.mark.parametrize("query_stage", [0, 4])
    def test_stack_equals_each_embedding(self, dataset, n_stages, query_stage):
        # one layout of the stack gives every set embed's matrix, bit for bit,
        # with a duplicated stage 4 placed first as in the per-set test above
        scaler = fit_scaler(dataset)
        sets = [DensityExamples(ex.density, np.vstack([ex.raw[4], ex.raw]),
                                np.append(ex.labels[4] + 17, ex.labels)) for ex in dataset]
        stack = prompt_stack(np.stack([ex.raw for ex in sets]),
                             np.stack([ex.labels for ex in sets]), query_stage, scaler,
                             n_stages, 7.0)
        embedded = [embed(build_prompt(ex, query_stage, scaler), n_stages, 7.0) for ex in sets]
        assert stack.matrix.shape == (len(sets),) + embedded[0].matrix.shape
        for got, want in zip(stack.matrix, embedded):
            assert got.tobytes() == want.matrix.tobytes()
        assert stack.stage_tags == embedded[0].stage_tags

    def test_stack_needs_one_stage_column(self, dataset):
        scaler = fit_scaler(dataset)
        first, second = dataset[:2]
        swapped = DensityExamples(second.density, second.raw[::-1], second.labels[::-1])
        with pytest.raises(ValueError, match="share their stage column"):
            prompt_stack(np.stack([first.raw, swapped.raw]),
                         np.stack([first.labels, swapped.labels]), 0, scaler, 9)

    def test_sample_training_prompts(self, dataset):
        examples = of_density(dataset, 4)
        prompts = sample_training_prompts(examples, 3, np.random.default_rng(7))
        assert prompts.shape == (9 * 3, 9 + 1)
        again = sample_training_prompts(examples, 3, np.random.default_rng(7))
        assert prompts.tolist() == again.tolist()
        for i, columns in enumerate(prompts):
            stages = examples.stages[columns]
            # three prompts per stage in stage order, the query's example first
            assert stages[0] == stages[-1] == i // 3
            assert (examples.labels[columns[-1]]
                    == examples.labels[examples.stages.tolist().index(stages[-1])])

    def test_sample_training_prompts_reps_boundary(self, dataset):
        # the config refuses reps_per_query = 0 before it gets here
        examples = of_density(dataset, 4)
        with pytest.raises(ValueError, match="^reps_per_query must be >= 1$"):
            sample_training_prompts(examples, 0, np.random.default_rng(7))
        prompts = sample_training_prompts(examples, 1, np.random.default_rng(7))
        assert examples.stages[prompts[:, 0]].tolist() == list(range(9))


class TestSerialization:
    def test_dataset_csv_round_trip(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)  # as Report.write writes a table
            writer.writerow(DATASET_CSV_COLUMNS)
            writer.writerows(dataset_rows(dataset))
        header = path.read_text().splitlines()[0]
        assert header == "density,stage,tp_us,ts_us,tc_us,label"
        with open(path, newline="", encoding="utf-8") as fh:
            written = list(csv.reader(fh))[1:]
        examples = rows(dataset)
        assert len(written) == len(examples)
        for row, (density_tag, raw, w) in zip(written, examples):
            density, stage, tp, ts, tc, label = row
            assert (int(density), int(stage), int(label)) == (density_tag, int(raw[0]), w)
            assert (float(stage), float(tp), float(ts), float(tc)) == raw


class TestReferenceLoops:
    """The array forms against the per-example loops they replaced, value for value."""

    @settings(max_examples=40, deadline=None)
    @given(densities=st.lists(st.integers(2, 1000), min_size=1, max_size=3, unique=True),
           k_max=st.integers(0, 8), extra=st.integers(0, 1 << 16),
           jitter=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 64 - 1))
    def test_generate_dataset(self, table1, densities, k_max, extra, jitter, seed):
        cap = max(2, 2 ** k_max) + extra
        got = generate_dataset(densities, k_max, cap, table1, jitter, seed)
        assert [s.density for s in got] == densities
        assert rows(got) == reference_dataset(densities, k_max, cap, table1, jitter, seed)

    @settings(max_examples=300, deadline=None)
    @given(labels=st.lists(st.integers(1, 1 << 20), min_size=1, max_size=12),
           b_pct=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2 ** 64 - 1),
           cap=st.one_of(st.none(), st.integers(2, 1 << 20)))
    @example(labels=[1, 1, 2, 1, 3], b_pct=60.0, seed=0, cap=None)
    @example(labels=[1, 100, 1000], b_pct=99.5, seed=1, cap=150)
    # beyond the strategy's 2^20: int -> float stays exact up to a cap of
    # 2,000,000,000,098 and past it
    @example(labels=[2 ** 32 + 1, 2 ** 33 - 1, 2_000_000_000_097, 2_000_000_000_098,
                     666_666_666_699], b_pct=37.5, seed=5, cap=None)
    @example(labels=[2 ** 32 + 1, 2 ** 33 - 1, 2_000_000_000_097, 2_000_000_000_098,
                     666_666_666_699], b_pct=37.5, seed=5, cap=2_000_000_000_098)
    @example(labels=[2_000_000_000_098, 2_000_000_000_096, 2 ** 40 + 3, 2 ** 32 + 7],
             b_pct=1e-9, seed=2 ** 64 - 1, cap=2_000_000_000_098)
    def test_corrupt_thresholds(self, labels, b_pct, seed, cap):
        got = corrupt_thresholds(np.array(labels), b_pct, rng(seed), cap=cap)
        assert got.dtype == np.int64
        assert got.tolist() == reference_corrupt(labels, b_pct, rng(seed), cap=cap)

    def test_corrupt_thresholds_clamps_to_one(self):
        # round(1 * 0.4) = 0 clamps to 1 in both forms
        labels = [1] * 8
        got = corrupt_thresholds(np.array(labels), 60.0, rng(4))
        want = reference_corrupt(labels, 60.0, rng(4))
        assert got.tolist() == want and set(want) == {1, 2}


class TestLabelErrorRows:
    """The stacked label-row expression against the per-label loop, row by row."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    # caps at and past 2^53 and int64, labels past them
    @example(data=[[[2 ** 53 + 1, 2 ** 53 + 3]], [20.0, 0.0], [[[1, 0], [1, 1]]], 2 ** 53 + 1])
    @example(data=[[[2 ** 62 + 7, 2 ** 63 - 1]], [60.0], [[[0, 1]]], 2 ** 63 - 1])
    @example(data=[[[2 ** 62 + 7, 2 ** 63 - 1]], [60.0], [[[0, 1]]], 2 ** 63])
    @example(data=[[[2 ** 63 - 1000] * 2, [3, 5]], [50.0], [[[1, 1]], [[0, 0]]], None])
    # 2^63 - 1 converts to the float 2^63, the first value past int64: it
    # raises without a cap below 2^63 and clamps under one, and a cap of
    # 2^63 or more holds back no label that fits
    @example(data=[[[2 ** 63 - 1, 4]], [0.0], [[[1, 1]]], None])
    @example(data=[[[2 ** 63 - 1, 4]], [0.0], [[[1, 1]]], 2 ** 63])
    @example(data=[[[2 ** 63 - 1, 4]], [0.0], [[[1, 1]]], 2 ** 63 - 1])
    @example(data=[[[2 ** 63 - 1, 4]], [0.0], [[[1, 1]]], 5])
    @example(data=[[[4]], [0.0], [[[1]]], 2 ** 63])
    @example(data=[[[4]], [0.0], [[[1]]], 2 ** 64 - 1])
    def test_exact_or_refused(self, data):
        if isinstance(data, list):  # an @example's (labels, levels, ups, cap)
            labels, levels, ups, cap = data
        else:
            n_sets, width = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
            levels = data.draw(st.lists(st.floats(0.0, 100.0, exclude_max=True),
                                        min_size=1, max_size=4))
            label = st.one_of(st.integers(1, 1 << 20), st.integers(1, 2 ** 63 - 1))
            labels = data.draw(st.lists(st.lists(label, min_size=width, max_size=width),
                                        min_size=n_sets, max_size=n_sets))
            ups = data.draw(st.lists(
                st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                         min_size=len(levels), max_size=len(levels)),
                min_size=n_sets, max_size=n_sets))
            cap = data.draw(st.one_of(st.none(), st.integers(1, 2 ** 54),
                                      st.integers(2 ** 52, 2 ** 64)))
        want = [[reference_corrupt(row, b, Signs(up), cap=cap) for b, up in zip(levels, set_ups)]
                for row, set_ups in zip(labels, ups)]
        if any(w >= 2 ** 63 for set_rows in want for row in set_rows for w in row):
            with pytest.raises(OverflowError):
                label_error_rows(np.array(labels), np.array(ups), levels, cap)
        else:
            got = label_error_rows(np.array(labels), np.array(ups), levels, cap)
            assert got.dtype == np.int64
            assert got.tolist() == want

    def test_overflow_raises(self):
        # a row past int64 raises; astype(np.int64) would wrap it to -2^63
        labels = np.array([2 ** 63 - 1000] * 2)
        with pytest.raises(OverflowError):
            label_error_rows(labels, np.array([[1, 0]]), [50.0])
        seed = next(s for s in range(10) if rng(s).integers(0, 2, size=2).any())
        with pytest.raises(OverflowError):
            corrupt_thresholds(labels, 50.0, rng(seed))
        # a cap below int64 holds it
        got = label_error_rows(labels, np.array([[1, 0]]), [50.0], cap=2 ** 63 - 1).tolist()
        assert got == [reference_corrupt(labels.tolist(), 50.0, Signs([1, 0]), cap=2 ** 63 - 1)]
        assert got[0][0] == 2 ** 63 - 1

    @pytest.mark.parametrize("levels, cap, match", [
        ([-1.0], None, "levels must lie in"), ([100.0], None, "levels must lie in"),
        ([float("nan")], None, "levels must lie in"), ([20.0], 0, "cap must be >= 1")])
    def test_domain(self, levels, cap, match):
        with pytest.raises(ValueError, match=match):
            label_error_rows(np.array([4, 8]), np.array([[1, 0]]), levels, cap)


class TestVectorDraws:
    """numpy behaviour the array forms rely on, with no API guarantee behind it.

    One vector draw gives the values of the scalar draws it replaces and
    leaves the generator in the same state, so the streams (and every
    report) are the per-example loop's.
    """

    def test_integer_vector_equals_scalar_draws(self):
        for seed in range(300):
            n = 1 + seed % 17
            vector = np.random.default_rng(seed)
            scalar = np.random.default_rng(seed)
            assert (vector.integers(0, 2, size=n).tolist()
                    == [int(scalar.integers(0, 2)) for _ in range(n)])
            assert vector.bit_generator.state == scalar.bit_generator.state

    def test_uniform_block_equals_row_draws(self):
        for seed in range(300):
            n_rows, jitter = 1 + seed % 11, 0.05 * (1 + seed % 3)
            block = np.random.default_rng([seed, 5])
            by_row = np.random.default_rng([seed, 5])
            assert np.array_equal(block.uniform(-jitter, jitter, size=(n_rows, 3)),
                                  [by_row.uniform(-jitter, jitter, size=3)
                                   for _ in range(n_rows)])
            assert block.bit_generator.state == by_row.bit_generator.state
