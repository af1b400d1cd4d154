import csv

import numpy as np
import pytest

from icl_csma.prompt_pipeline import (
    STAGE_GAIN,
    FeatureScaler,
    FeatureVector,
    LabeledExample,
    apply_scaler,
    build_prompt,
    corrupt_thresholds,
    dataset_to_csv,
    embed,
    fit_scaler,
    generate_dataset,
    sample_training_prompts,
)

DENSITIES = [2, 3, 4, 5, 6]


@pytest.fixture(scope="module")
def dataset(table1):
    return generate_dataset(DENSITIES, 8, 32768, table1, 0.05, seed=7)


class TestGenerateDataset:
    def test_shape_and_monotone_labels(self, dataset):
        assert len(dataset) == 45
        for n in DENSITIES:
            labels = [e.w for e in dataset if e.density_tag == n]
            assert len(labels) == 9
            assert all(a < b for a, b in zip(labels, labels[1:]))

    def test_single_stage(self, table1):
        out = generate_dataset([4], 0, 1024, table1, 0.0, seed=1)
        assert len(out) == 1 and out[0].x.stage == 0

    def test_determinism_and_per_density_streams(self, table1, dataset):
        again = generate_dataset(DENSITIES, 8, 32768, table1, 0.05, seed=7)
        assert again == dataset
        # the stream is keyed by (seed, density): dropping other densities
        # does not disturb a density's examples
        only4 = generate_dataset([4], 8, 32768, table1, 0.05, seed=7)
        assert only4 == [e for e in dataset if e.density_tag == 4]

    def test_jitter_bounds(self, table1, dataset):
        for e in dataset:
            _, tp, ts, tc = e.x.raw
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
    def test_percentage_scaling(self, dataset):
        ex = next(e for e in dataset if e.w > 50)
        base = LabeledExample(ex.x, 100, ex.density_tag)
        seen = set()
        for seed in range(30):
            out = corrupt_thresholds([base], 40.0, seed)[0]
            assert out.corrupted
            seen.add(out.w)
        assert seen == {60, 140}

    def test_floor_clamp(self, dataset):
        base = LabeledExample(dataset[0].x, 1, dataset[0].density_tag)
        outs = {corrupt_thresholds([base], 60.0, s)[0].w for s in range(30)}
        assert outs == {1, 2}  # round(0.4) clamps to 1, round(1.6) = 2

    def test_cap_clamp(self, dataset):
        base = LabeledExample(dataset[0].x, 100, dataset[0].density_tag)
        outs = {corrupt_thresholds([base], 60.0, s, cap=120)[0].w for s in range(30)}
        assert outs == {40, 120}

    def test_vanishing_error_keeps_labels(self, dataset):
        out = corrupt_thresholds(dataset, 1e-9, seed=3)
        assert [e.w for e in out] == [e.w for e in dataset]

    def test_symmetric_in_expectation(self, dataset):
        base = LabeledExample(dataset[0].x, 1000, dataset[0].density_tag)
        mean = np.mean([corrupt_thresholds([base], 40.0, s)[0].w for s in range(4000)])
        assert mean == pytest.approx(1000, rel=2e-2)

    def test_domain(self, dataset):
        with pytest.raises(ValueError):
            corrupt_thresholds(dataset, 0.0, seed=1)
        with pytest.raises(ValueError):
            corrupt_thresholds(dataset, 100.0, seed=1)


class TestScaler:
    def test_zero_mean_unit_variance(self, dataset):
        scaler = fit_scaler(dataset)
        normalized = np.array([apply_scaler(scaler, e.x).normalized for e in dataset])
        assert np.abs(normalized.mean(axis=0)).max() < 1e-9
        assert np.abs(normalized.var(axis=0) - 1.0).max() < 1e-9

    def test_constant_dimension_maps_to_zero(self, table1):
        data = generate_dataset([3, 4], 4, 1024, table1, 0.0, seed=2)
        scaler = fit_scaler(data)
        for e in data:
            norm = apply_scaler(scaler, e.x).normalized
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
        examples = [e for e in dataset if e.density_tag == 4]
        prompt = build_prompt(examples, 3, scaler)
        assert prompt.query_label == examples[3].w
        assert prompt.query.stage == 3
        assert len(prompt.examples) == 9
        assert all(e.x.normalized is not None for e in prompt.examples)

    def test_mixed_density_rejected(self, dataset):
        scaler = fit_scaler(dataset)
        with pytest.raises(ValueError):
            build_prompt(dataset[:12], 1, scaler)

    def test_embedding_layout(self, dataset):
        scaler = fit_scaler(dataset)
        examples = [e for e in dataset if e.density_tag == 2][:3]
        prompt = build_prompt(examples, 1, scaler)
        emb = embed(prompt, n_stages=3)
        # rows: 3 stage-indicator + 3 timing + 1 label; columns: M + 1
        assert emb.matrix.shape == (7, 4)
        assert emb.matrix[6, 3] == 0.0  # query label slot
        assert emb.matrix[6, :3].tolist() == [e.w for e in examples]
        assert emb.query_stage == 1 and emb.query_label == examples[1].w

    def test_embedding_round_trip(self, dataset):
        scaler = fit_scaler(dataset)
        examples = [e for e in dataset if e.density_tag == 5]
        prompt = build_prompt(examples, 6, scaler)
        emb = embed(prompt)
        n_stages = 9
        for j, e in enumerate(prompt.examples):
            col = emb.matrix[:-1, j]
            assert col[e.x.stage] == STAGE_GAIN
            assert np.allclose(col[n_stages:], e.x.normalized[1:])
            assert emb.matrix[-1, j] == e.w
        # query duplicated into the last column, label slot zeroed
        qcol = emb.matrix[:-1, -1]
        assert qcol[prompt.query.stage] == STAGE_GAIN
        assert np.allclose(qcol[n_stages:], prompt.query.normalized[1:])

    def test_query_duplicate_still_only_in_last_column(self, dataset):
        scaler = fit_scaler(dataset)
        examples = [e for e in dataset if e.density_tag == 3]
        emb = embed(build_prompt(examples, 2, scaler))
        # the stage-2 example remains an in-context column; the query column
        # replicates its features but carries a zero label
        assert emb.matrix[-1, 2] == examples[2].w
        assert np.allclose(emb.matrix[:-1, 2], emb.matrix[:-1, -1])

    @pytest.mark.parametrize("n_stages", [None, 9, 11])
    def test_stage_queries_equal_per_stage_embeddings(self, dataset, n_stages):
        # what icl_transformer.predict_stages relies on: the prompt querying
        # stage s is one shared embedding whose query column is that of the
        # first in-context example at s
        scaler = fit_scaler(dataset)
        examples = [e for e in dataset if e.density_tag == 3]
        # a duplicated stage 4 placed first, with another label: first match wins
        examples = [LabeledExample(examples[4].x, 12345, 3)] + examples
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

    def test_sample_training_prompts(self, dataset):
        scaler = fit_scaler(dataset)
        examples = [e for e in dataset if e.density_tag == 4]
        prompts = sample_training_prompts(examples, 3, seed=7, scaler=scaler)
        assert len(prompts) == 9 * 3
        again = sample_training_prompts(examples, 3, seed=7, scaler=scaler)
        assert prompts == again
        for p in prompts:
            assert len(p.examples) == 9
            assert any(e.x.stage == p.query.stage for e in p.examples)
            assert p.query_label == next(e.w for e in examples
                                         if e.x.stage == p.query.stage)


class TestSerialization:
    def test_dataset_csv_round_trip(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        dataset_to_csv(dataset, path)
        header = path.read_text().splitlines()[0]
        assert header == "density,stage,tp_us,ts_us,tc_us,label,corrupted"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(dataset)
        for row, ex in zip(rows, dataset):
            density, stage, tp, ts, tc, label, corrupted = row
            assert (int(density), int(stage), int(label), bool(int(corrupted))) == (
                ex.density_tag, ex.x.stage, ex.w, ex.corrupted)
            assert (float(stage), float(tp), float(ts), float(tc)) == ex.x.raw
