"""Dataset generation, corruption, normalization, and prompt embedding.

A density's labeled examples are held as arrays (``DensityExamples``): row
k pairs the collision feature vector x = (k, T_P, T_s, T_c) with the
contention window threshold the analytic design assigns to stage k at that
node density.  The timing components carry multiplicative jitter
(measurements fluctuate in practice); the stage component is exact by
construction.  A prompt is a list of row indices into the density's
normalized feature block.

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
reads only the M in-context columns.  One layout (``_layout``) serves a
single prompt (``embed``) and a ``PromptStack`` of sets that share their
stage column (``prompt_stack``); eval's sweep calls ``prompt_stack`` on its
stacked arrays, and training calls ``embed`` once per sampled prompt.

Training prompts are sampled with random stage multiplicities (the query's
stage plus M-1 draws uniform over stages).  With one fixed prompt per
density, gradient descent settles on mixtures of neighboring labels instead
of stage retrieval; varying the composition leaves retrieval as the only
prediction rule that fits every sampled prompt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the benchmark's traced passes rebind optimize_tau and solve_ladder here; the
# dataset's optimize_taus and solve_ladders calls count as generate_dataset's
from .analytic_model import (optimize_tau, optimize_taus, solve_ladder,  # noqa: F401
                             solve_ladders)
from .analytic_model import _outcome

# archetype separation of the stage-indicator block; larger gaps speed up
# attention training (margins grow ~gain^2 per unit of bilinear weight).
# Gain 32 also trains at eta = 0.05: all master seeds 0..59 stopped after
# 3-5 updates and met criterion 5, worst min query-stage mass 0.994 (seed
# 34); 24 is kept because changing it moves training output
STAGE_GAIN = 24.0

__all__ = [
    "STAGE_GAIN",
    "DensityExamples",
    "EmbeddedPrompt",
    "PromptStack",
    "FeatureScaler",
    "example_features",
    "generate_dataset",
    "corrupt_thresholds",
    "label_error_rows",
    "fit_scaler",
    "build_prompt",
    "sample_training_prompts",
    "embed",
    "prompt_stack",
    "DATASET_CSV_COLUMNS",
    "dataset_rows",
]


@dataclass(frozen=True)
class DensityExamples:
    """One density's labeled examples, one row per example.

    Row j of ``raw`` is the collision feature vector (k, T_P, T_s, T_c) of
    example j and ``labels[j]`` its integer threshold.  A label error is a
    row of labels, not a set (``corrupt_thresholds``).
    """

    density: int
    raw: np.ndarray
    labels: np.ndarray

    @property
    def stages(self):
        return self.raw[:, 0].astype(int)


@dataclass(frozen=True)
class EmbeddedPrompt:
    """(d+1) x (M+1) embedding; metadata rides along for diagnostics and loss.

    Training reads the stage tags and the query's stage and label.
    ``density_tag`` is read by no kernel; it labels the prompt, and callers
    (the acceptance tests among them) construct prompts with it.
    """

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
class PromptStack:
    """D embedded prompts that share one column layout.

    ``matrix[i]`` is prompt i's (d+1) x (M+1) embedding, laid out as
    ``embed`` lays out one prompt, and ``stage_tags`` the stages of the M
    in-context columns, which every prompt of the stack has.
    """

    matrix: np.ndarray
    stage_tags: tuple[int, ...]


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
        """z-score the rows of a (rows, dims) feature block."""
        return (raw - np.array(self.shift)) / np.array(self.scale)


def example_features(jitter, params):
    """The (..., K+1, 4) feature rows of sets of K+1 examples from their (..., K+1, 3) jitter draws.

    Row k of a set is x = (k, T_P(1+u), T_s(1+u'), T_c(1+u'')), where
    (u, u', u'') is row k of the set's jitter.  One set or a stack of
    them: ``generate_dataset`` and eval's sweep form every density's at once.
    """
    timings = np.array([params.payload_us, params.success_us, params.collision_us])
    raw = np.empty(jitter.shape[:-1] + (4,))
    raw[..., 0] = np.arange(jitter.shape[-2])
    raw[..., 1:] = timings * (1.0 + jitter)
    return raw


def generate_dataset(densities, k_max, cap, params, jitter_pct, seed):
    """One ``DensityExamples`` set per density: a row per stage, jittered timings, label W_k.

    Every density is designed in one ``optimize_taus`` and one ``solve_ladders``
    call; the first design that fails raises its error as its own type, the
    message prefixed with ``density = N: ``.  Density n's jitter,
    uniform on [-jitter_pct, +jitter_pct], is one (K+1) x 3 draw from
    ``default_rng([seed, 2, n, 0])``, stream 2 of ``experiment_harness``'s
    keys; one ``example_features`` call forms every row.
    """
    if not densities:
        raise ValueError("densities must be non-empty")
    if any(n < 2 for n in densities):
        raise ValueError("every density must be >= 2")
    if jitter_pct < 0:
        raise ValueError("jitter_pct must be >= 0")
    designs = [_outcome(design, f"density = {n}") for n, design in zip(
        densities, solve_ladders(optimize_taus(densities, params), densities, k_max, cap))]
    jitter = np.stack([np.random.default_rng([int(seed), 2, int(n), 0]).uniform(
        -jitter_pct, jitter_pct, size=(k_max + 1, 3)) for n in densities])
    return [DensityExamples(int(n), raw, np.array(ladder.thresholds))
            for n, raw, (ladder, _) in zip(densities, example_features(jitter, params), designs)]


def corrupt_thresholds(labels, b_pct, rng, cap=None):
    """Scale each label by (1 +/- b_pct/100) with a symmetric random sign.

    ``labels`` is an integer label array (a density's ``labels``); the
    features stay exact, so a label error is the returned int64 row alone.
    The signs come from one vector draw of ``rng`` (a numpy ``Generator``),
    and the row is ``label_error_rows``' one-row case.
    """
    if not 0.0 < b_pct < 100.0:
        raise ValueError(f"b_pct must lie in (0, 100), got {b_pct}")
    ups = rng.integers(0, 2, size=len(labels))
    return label_error_rows(labels, ups[None], [b_pct], cap)[0]


def label_error_rows(labels, ups, b_pcts, cap=None):
    """Rows of labels under label errors of ``b_pcts[r]`` percent, as one expression.

    ``labels`` (..., K+1) holds integer labels, ``ups`` (..., R, K+1) the
    sign draws (1 scales a label up, 0 down) and ``b_pcts`` the R levels
    in [0, 100).  Label k of row r becomes labels[k] * (1 +/- b_r/100),
    rounded half up and clamped to [1, cap] (no ceiling when cap is None),
    with the float operations of a per-label loop in Python: a label
    converts to float64 as Python converts an int, and 1 - b/100 is
    exactly 1 + (-1.0 * b) / 100.  b = 0 has factor 1.0 and gives back
    every label below 2^53.  Returns (..., R, K+1) int64; a result past
    int64 raises OverflowError, as converting it would.
    """
    levels = np.asarray(b_pcts, dtype=float)
    if not ((levels >= 0.0) & (levels < 100.0)).all():
        raise ValueError(f"b_pct levels must lie in [0, 100), got {b_pcts}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    steps = levels[:, None] / 100.0
    factors = 1.0 + np.where(np.asarray(ups) == 1, steps, -steps)
    values = np.floor(np.asarray(labels, dtype=float)[..., None, :] * factors + 0.5)
    # a value at or past 2^63 (an exact comparison) does not fit int64;
    # only a cap below it can hold it
    over = values >= 2.0 ** 63
    if over.any() and (cap is None or cap >= 2 ** 63):
        raise OverflowError(f"a label error past int64: {values[over][0]:.17g}")
    rows = np.maximum(np.where(over, 1.0, values), 1.0).astype(np.int64)
    if cap is not None and cap < 2 ** 63:
        rows = np.minimum(rows, int(cap))
        rows[over] = int(cap)
    return rows


def fit_scaler(example_sets):
    """Fit the per-dimension z-scoring scaler; constant dimensions map to 0."""
    if not example_sets:
        raise ValueError("cannot fit a scaler on an empty dataset")
    # one C-ordered (rows, 4) block: the axis-0 sums run row by row, and
    # another layout can change the scaler's last bits, and so model.json
    raw = np.concatenate([examples.raw for examples in example_sets])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    return FeatureScaler(tuple(mean), tuple(scale))


def _prompt_columns(stages, query_stage):
    """Prompt order of a set's rows: every example, then the first one at ``query_stage``."""
    matches = np.flatnonzero(stages == query_stage)
    if not matches.size:
        raise ValueError(f"no example with stage {query_stage} to query")
    return np.append(np.arange(len(stages)), matches[0])


def build_prompt(examples, query_stage, scaler):
    """Assemble a prompt from one density's examples, querying ``query_stage``.

    Returns ``(examples, normalized, columns)``: ``normalized`` is the
    feature block z-scored through ``scaler`` and ``columns`` lists its rows
    in prompt order, every example followed by the query.  The query
    duplicates the (first) example at that stage; its label is held out of
    the embedding and kept for the loss.
    """
    columns = _prompt_columns(examples.stages, query_stage)
    return examples, scaler.transform(examples.raw), columns


def sample_training_prompts(examples, reps_per_query, rng):
    """Sample training prompts with random stage multiplicities, one row of example indices each.

    For every stage of the example set, ``reps_per_query`` rows querying
    that stage, each in ``build_prompt``'s column order: the query's
    example, M-1 stage draws from ``rng`` (a numpy ``Generator``) uniform
    over all stages (with repetition), then the query.  ``cmd_train``
    embeds each row as its own prompt.  Composition diversity is what forces
    attention onto the query's own stage; see the module docstring.
    """
    if reps_per_query < 1:
        raise ValueError("reps_per_query must be >= 1")
    # each stage's first row, in stage order: a draw of a row is a draw of a stage
    _, rows = np.unique(examples.stages, return_index=True)
    return np.array([[row, *rng.choice(rows, size=len(examples.labels) - 1), row]
                     for row in rows for _ in range(reps_per_query)])


def _layout(stages, timings, labels, n_stages, stage_gain):
    """Embedding matrices (..., d+1, M+1) of prompts that share their column stages.

    ``stages`` (M+1,) gives each column's stage, ``timings`` (..., M+1, T)
    each column's z-scored timings and ``labels`` (..., M) the in-context
    labels; the query's label slot stays 0.
    """
    low, high = int(stages.min()), int(stages.max())
    # a negative stage would index the one-hot into the label row
    if low < 0 or high >= n_stages:
        stage = low if low < 0 else high
        raise ValueError(f"stage {stage} out of range for {n_stages} stages")
    m = len(stages) - 1
    d = n_stages + timings.shape[-1]
    matrix = np.zeros(timings.shape[:-2] + (d + 1, m + 1))
    matrix[..., stages, np.arange(m + 1)] = stage_gain
    matrix[..., n_stages:d, :] = np.swapaxes(timings, -1, -2)
    matrix[..., d, :m] = labels
    return matrix


def embed(prompt, n_stages=None, stage_gain=STAGE_GAIN):
    """Lay the prompt out as the embedding matrix with a zero label slot.

    Rows: ``n_stages`` stage-indicator rows (one-hot, scaled by
    ``stage_gain``), the z-scored timing rows, then the label row; columns:
    the M in-context examples followed by the query with a 0 label slot.
    ``n_stages`` defaults to one past the largest stage present in the prompt.
    """
    examples, normalized, columns = prompt
    stages = examples.stages[columns]
    if n_stages is None:
        n_stages = int(stages.max()) + 1
    matrix = _layout(stages, normalized[columns, 1:], examples.labels[columns[:-1]],
                     n_stages, stage_gain)
    return EmbeddedPrompt(
        matrix=matrix,
        stage_tags=tuple(stages[:-1].tolist()),
        query_stage=int(stages[-1]),
        query_label=float(examples.labels[columns[-1]]),
        density_tag=examples.density,
    )


def prompt_stack(raw, labels, query_stage, scaler, n_stages, stage_gain=STAGE_GAIN):
    """The ``PromptStack`` of D sets given as arrays, each queried at ``query_stage``.

    ``raw`` (D, M, 4) holds each set's feature rows and ``labels`` (D, M)
    its labels.  The sets must share their stage column (row j of each has
    the same stage), so their prompts share one column layout.  One
    z-scoring and one layout serve the whole stack; prompt i is ``embed``'s
    matrix for set i, bit for bit.
    """
    if (raw[:, :, 0] != raw[:1, :, 0]).any():
        raise ValueError("stacked example sets must share their stage column")
    stages = raw[0, :, 0].astype(int)
    columns = _prompt_columns(stages, query_stage)
    matrix = _layout(stages[columns], scaler.transform(raw)[:, columns, 1:],
                     labels[:, columns[:-1]], n_stages, stage_gain)
    return PromptStack(matrix, tuple(stages[columns[:-1]].tolist()))


DATASET_CSV_COLUMNS = ("density", "stage", "tp_us", "ts_us", "tc_us", "label")


def dataset_rows(example_sets):
    """The example sets as table rows in DATASET_CSV_COLUMNS order, floats as Python floats."""
    return [[examples.density, int(k), tp, ts, tc, w]
            for examples in example_sets
            for (k, tp, ts, tc), w in zip(examples.raw.tolist(), examples.labels.tolist())]
