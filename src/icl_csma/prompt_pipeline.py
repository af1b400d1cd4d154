"""Dataset generation, corruption, normalization, and prompt embedding.

A labeled example pairs a collision feature vector x = (k, T_P, T_s, T_c)
with the contention window threshold the analytic design assigns to stage k
at one node density.  The timing components carry multiplicative jitter
(measurements fluctuate in practice); the stage component is exact by
construction.

Embedding layout: examples from one density plus a query column are packed
into a matrix whose last row holds labels (0 in the query's slot) and whose
feature rows encode each example as a stage archetype -- a one-hot stage
indicator scaled by ``stage_gain``, concatenated with the z-scored timing
components.  The indicator block realizes the finite collision set as
uniformly separated archetypes, which is what lets a single bilinear
attention matrix retrieve the matching stage for every query; the collinear
raw stage value cannot be separated that way (softmax logits would be
monotone in the stage), and the separation scale directly sets the training
convergence speed.  The query never enters the key/value side: attention
reads only the M in-context columns.

Training prompts are sampled with random stage multiplicities (the query's
stage plus M-1 draws uniform over stages).  With one fixed prompt per
density, gradient descent settles on mixtures of neighboring labels instead
of stage retrieval; varying the composition leaves retrieval as the only
prediction rule that fits every sampled prompt.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic_model import optimize_tau, solve_ladder

# archetype separation of the stage-indicator block; larger gaps speed up
# attention training (margins grow ~gain^2 per unit of bilinear weight) but
# too large destabilizes eta = 0.05 full-batch descent (gain 32 diverges)
STAGE_GAIN = 24.0

__all__ = [
    "STAGE_GAIN",
    "FeatureVector",
    "LabeledExample",
    "Prompt",
    "EmbeddedPrompt",
    "FeatureScaler",
    "generate_dataset",
    "corrupt_thresholds",
    "fit_scaler",
    "apply_scaler",
    "build_prompt",
    "sample_training_prompts",
    "embed",
    "DATASET_CSV_COLUMNS",
    "dataset_to_csv",
]


@dataclass(frozen=True)
class FeatureVector:
    """Raw collision features (k, T_P, T_s, T_c) plus their normalized image."""

    raw: tuple[float, ...]
    normalized: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "raw", tuple(float(v) for v in self.raw))
        if self.normalized is not None:
            object.__setattr__(self, "normalized", tuple(float(v) for v in self.normalized))
            if len(self.normalized) != len(self.raw):
                raise ValueError("normalized and raw dimensions differ")
        stage = self.raw[0]
        if stage < 0 or stage != int(stage):
            raise ValueError(f"stage component must be a non-negative integer, got {stage}")

    @property
    def stage(self):
        return int(self.raw[0])

    @property
    def dim(self):
        return len(self.raw)


@dataclass(frozen=True)
class LabeledExample:
    x: FeatureVector
    w: int
    density_tag: int
    corrupted: bool = False

    def __post_init__(self):
        if self.w < 1:
            raise ValueError(f"label must be a positive integer, got {self.w}")


@dataclass(frozen=True)
class Prompt:
    """M in-context examples plus a query; the query label is held out."""

    examples: tuple[LabeledExample, ...]
    query: FeatureVector
    query_label: int
    density_tag: int

    def __post_init__(self):
        if not self.examples:
            raise ValueError("a prompt needs at least one in-context example")
        if any(e.density_tag != self.density_tag for e in self.examples):
            raise ValueError("all prompt examples must share one density")


@dataclass(frozen=True)
class EmbeddedPrompt:
    """(d+1) x (M+1) embedding; metadata rides along for diagnostics and loss."""

    matrix: np.ndarray
    stage_tags: tuple[int, ...]
    query_stage: int
    query_label: float
    density_tag: int

    def __post_init__(self):
        d1, m1 = self.matrix.shape
        if m1 != len(self.stage_tags) + 1:
            raise ValueError("column count must be M + 1")
        if self.matrix[d1 - 1, m1 - 1] != 0.0:
            raise ValueError("query label slot must be 0")

    @property
    def n_examples(self):
        return self.matrix.shape[1] - 1

    @property
    def dim(self):
        return self.matrix.shape[0] - 1


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension affine map to zero mean, unit variance."""

    shift: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self):
        if len(self.shift) != len(self.scale):
            raise ValueError("shift and scale dimensions differ")
        if not all(math.isfinite(v) for v in (*self.shift, *self.scale)):
            raise ValueError("shift and scale components must be finite")
        if any(s <= 0 for s in self.scale):
            raise ValueError("scale components must be > 0")

    def transform(self, raw):
        return tuple((v - m) / s for v, m, s in zip(raw, self.shift, self.scale))


def generate_dataset(densities, k_max, cap, params, jitter_pct, seed):
    """One labeled example per (density, stage): x = jittered timings, w = W_k.

    For each density the optimal ladder is synthesized via optimize_tau ->
    solve_ladder, then stage k contributes x = (k, T_P(1+u), T_s(1+u'),
    T_c(1+u'')) with u, u', u'' independent uniform on [-jitter_pct,
    +jitter_pct] and label W_k.  Each density owns the RNG stream derived
    from (seed, density), so datasets are reproducible per density.
    """
    if not densities:
        raise ValueError("densities must be non-empty")
    if any(n < 2 for n in densities):
        raise ValueError("every density must be >= 2")
    if jitter_pct < 0:
        raise ValueError("jitter_pct must be >= 0")
    out = []
    for n in densities:
        rng = np.random.default_rng([int(seed), int(n)])
        tau_star, _ = optimize_tau(n, params)
        ladder = solve_ladder(tau_star, n, k_max, cap)
        for k in range(k_max + 1):
            u = rng.uniform(-jitter_pct, jitter_pct, size=3)
            raw = (float(k),
                   params.payload_us * (1.0 + u[0]),
                   params.success_us * (1.0 + u[1]),
                   params.collision_us * (1.0 + u[2]))
            out.append(LabeledExample(FeatureVector(raw), ladder.thresholds[k], int(n)))
    return out


def _round_half_up(value):
    return int(math.floor(value + 0.5))


def corrupt_thresholds(examples, b_pct, seed, cap=None):
    """Scale each label by (1 +/- b_pct/100) with a symmetric random sign.

    Labels are rounded and clamped to [1, cap] (no ceiling when cap is None);
    the corrupted flag is set on every example.
    """
    if not 0.0 < b_pct < 100.0:
        raise ValueError(f"b_pct must lie in (0, 100), got {b_pct}")
    rng = np.random.default_rng([int(seed), 104729])
    out = []
    for ex in examples:
        sign = 1.0 if rng.integers(0, 2) else -1.0
        w = _round_half_up(ex.w * (1.0 + sign * b_pct / 100.0))
        w = max(1, w)
        if cap is not None:
            w = min(w, int(cap))
        out.append(LabeledExample(ex.x, w, ex.density_tag, True))
    return out


def fit_scaler(examples):
    """Fit the per-dimension z-scoring scaler; constant dimensions map to 0."""
    if not examples:
        raise ValueError("cannot fit a scaler on an empty dataset")
    raw = np.array([ex.x.raw for ex in examples], dtype=float)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    return FeatureScaler(tuple(mean), tuple(scale))


def apply_scaler(scaler, x):
    """Return a copy of ``x`` with the normalized view filled in."""
    return FeatureVector(x.raw, scaler.transform(x.raw))


def build_prompt(examples, query_stage, scaler):
    """Assemble a prompt from one density's examples, querying ``query_stage``.

    The query duplicates the feature vector of the (first) example at that
    stage; its label is held out of the embedding and kept for the loss.
    All features are normalized through ``scaler``.
    """
    if not examples:
        raise ValueError("examples must be non-empty")
    density = examples[0].density_tag
    if any(e.density_tag != density for e in examples):
        raise ValueError("build_prompt requires examples from a single density")
    normalized = tuple(replace(e, x=apply_scaler(scaler, e.x)) for e in examples)
    match = next((e for e in normalized if e.x.stage == query_stage), None)
    if match is None:
        raise ValueError(f"no example with stage {query_stage} to query")
    return Prompt(normalized, match.x, match.w, density)


def sample_training_prompts(examples, reps_per_query, seed, scaler):
    """Sample prompts with random stage multiplicities for training.

    For every stage of the (single-density) example set, emits
    ``reps_per_query`` prompts querying that stage; each prompt's M slots are
    the query's example plus M-1 stage draws uniform over all stages (with
    repetition).  Composition diversity is what forces attention onto the
    query's own stage; see the module docstring.
    """
    if reps_per_query < 1:
        raise ValueError("reps_per_query must be >= 1")
    density = examples[0].density_tag
    if any(e.density_tag != density for e in examples):
        raise ValueError("sample_training_prompts requires a single density")
    by_stage = {}
    for ex in examples:
        by_stage.setdefault(ex.x.stage, replace(ex, x=apply_scaler(scaler, ex.x)))
    stages = sorted(by_stage)
    rng = np.random.default_rng([int(seed), int(density), 555])
    prompts = []
    for query_stage in stages:
        for _ in range(reps_per_query):
            drawn = rng.choice(stages, size=len(examples) - 1)
            picked = tuple(by_stage[s] for s in [query_stage, *drawn])
            query = by_stage[query_stage]
            prompts.append(Prompt(picked, query.x, query.w, density))
    return prompts


def _archetype(feature, n_stages, stage_gain):
    """Stage-indicator block scaled by ``stage_gain`` + z-scored timing dims."""
    if feature.normalized is None:
        raise ValueError("features must carry normalized components; apply the scaler")
    if feature.stage >= n_stages:
        raise ValueError(f"stage {feature.stage} out of range for {n_stages} stages")
    column = np.zeros(n_stages + feature.dim - 1)
    column[feature.stage] = stage_gain
    column[n_stages:] = feature.normalized[1:]
    return column


def embed(prompt, n_stages=None, stage_gain=STAGE_GAIN):
    """Lay the prompt out as the embedding matrix with a zero label slot.

    Rows: ``n_stages`` indicator rows, the z-scored timing rows, then the
    label row; columns: the M in-context examples followed by the query with
    a 0 label slot.  ``n_stages`` defaults to one past the largest stage
    present in the prompt.
    """
    if n_stages is None:
        n_stages = max(max(e.x.stage for e in prompt.examples), prompt.query.stage) + 1
    m = len(prompt.examples)
    d = n_stages + prompt.query.dim - 1
    matrix = np.zeros((d + 1, m + 1))
    for j, ex in enumerate(prompt.examples):
        matrix[:d, j] = _archetype(ex.x, n_stages, stage_gain)
        matrix[d, j] = float(ex.w)
    matrix[:d, m] = _archetype(prompt.query, n_stages, stage_gain)
    return EmbeddedPrompt(
        matrix=matrix,
        stage_tags=tuple(ex.x.stage for ex in prompt.examples),
        query_stage=prompt.query.stage,
        query_label=float(prompt.query_label),
        density_tag=prompt.density_tag,
    )


DATASET_CSV_COLUMNS = ("density", "stage", "tp_us", "ts_us", "tc_us", "label", "corrupted")


def dataset_to_csv(examples, path):
    """Write examples as CSV with the fixed DATASET_CSV_COLUMNS order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_CSV_COLUMNS)
        for ex in examples:
            k, tp, ts, tc = ex.x.raw
            writer.writerow([ex.density_tag, int(k), repr(tp), repr(ts), repr(tc),
                             ex.w, int(ex.corrupted)])
