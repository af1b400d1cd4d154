"""One-layer masked softmax attention for in-context threshold prediction.

The model is a single bilinear attention matrix Q (the value path is fixed at
identity on the label row).  Given an embedded prompt, the query column
attends over the masked in-context columns with logits x_m^T Q x_q, and the
prediction is the attention-weighted mean of the in-context labels -- always
a convex combination, never an extrapolation.  Training is full-batch
gradient descent from Q = 0 with the exact softmax chain-rule gradient, for a
fixed budget of updates whose step size ramps up linearly over the first
``_WARMUP_ROUNDS``; labels are scaled to O(1) internally so a fixed step size
behaves across ladders whose thresholds span several orders of magnitude.

The forward pass lives in ``_forward`` and the backward pass in
``_backward``; ``loss``, ``gradient`` and ``train`` run through these two
functions.  Inference attends columns of a stack of embedded prompts as
queries (``_attend``), a single prompt being a stack of one: ``predict`` and
``attention`` query a prompt's own query column, and ``predict_stages``
queries every stage of each prompt of a stack (one per density) under
several rows of labels per prompt, in one pass for the whole stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .prompt_pipeline import FeatureScaler

__all__ = [
    "TransformerParams",
    "TrainTrace",
    "AttentionReport",
    "TrainedModel",
    "TrainingDivergenceError",
    "attention",
    "predict",
    "predict_stages",
    "loss",
    "gradient",
    "train",
    "round_threshold",
    "resolve_label_scale",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "icl-csma-model"
MODEL_VERSION = 1

# training aborts when the loss exceeds this multiple of its starting value
_DIVERGENCE_FACTOR = 10.0

# logit spread beyond which exp() underflows and the softmax freezes; a
# healthy eta = 0.05 run grows logit gaps logarithmically and stays in the
# tens, so only a wildly oversized step can cross this
_LOGIT_FREEZE_SPAN = 745.0

# the step size ramps up linearly over this many updates; a full first step
# from Q = 0 can push one stage's logit so far below a neighbour's that its
# gradient dies (seeds 33 and 41 at the default config)
_WARMUP_ROUNDS = 20


class TrainingDivergenceError(RuntimeError):
    """Gradient descent left the recoverable regime (step size too large)."""

    def __init__(self, step, value, reason="loss blew up"):
        super().__init__(f"training diverged at step {step}: {reason} (loss {value})")
        self.step = step
        self.value = value


@dataclass(frozen=True)
class TransformerParams:
    """The d x d bilinear attention matrix; the value-path scalar is fixed at 1."""

    q_matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"q_matrix must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("q_matrix entries must be finite")
        object.__setattr__(self, "q_matrix", q)

    @classmethod
    def zeros(cls, dim):
        return cls(np.zeros((dim, dim)))

    @property
    def dim(self):
        return self.q_matrix.shape[0]


@dataclass
class TrainTrace:
    """Loss at every visited parameter plus per-update step norms."""

    losses: list[float]
    step_norms: list[float]
    label_scale: float


@dataclass(frozen=True)
class AttentionReport:
    scores: np.ndarray
    stage_scores: dict[int, float]
    query_stage_mass: float


def _stack(prompts, label_scale=1.0):
    """Stack same-shape embedded prompts into (P,d,M), (P,M), (P,d), (P,) arrays.

    Labels and query labels come back divided by ``label_scale``.
    """
    if not prompts:
        raise ValueError("prompt batch must be non-empty")
    d = prompts[0].dim
    m = prompts[0].n_examples
    if any(p.dim != d or p.n_examples != m for p in prompts):
        raise ValueError("all prompts in a batch must share (d, M)")
    feats = np.stack([p.matrix[:d, :m] for p in prompts])
    labels = np.stack([p.matrix[d, :m] for p in prompts])
    queries = np.stack([p.matrix[:d, m] for p in prompts])
    query_labels = np.array([p.query_label for p in prompts])
    return feats, labels / label_scale, queries, query_labels / label_scale


def _forward(q_matrix, feats, labels, queries):
    """Softmax over masked columns of logits x_m^T Q x_q, per prompt.

    ``feats`` is (..., d, M) and ``queries`` (..., d) for any leading batch
    shape; ``labels`` broadcasts against (..., M).  Returns the attention
    weights (..., M), the attention-weighted mean of ``labels`` (...), and
    the logits less each prompt's max (..., M), from which ``train`` reads
    the logit spread max - min as ``-shifted.min(axis=-1)``.  The weights
    read only the features: prompts that differ only in their labels share
    them.
    """
    logits = np.einsum("...dm,...d->...m", feats,
                       np.einsum("de,...e->...d", q_matrix, queries))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    attn = weights / weights.sum(axis=-1, keepdims=True)
    return attn, (attn * labels).sum(axis=-1), shifted


def _backward(attn, pred, labels, targets, feats, queries):
    """Exact gradient w.r.t. Q of the mean squared error of ``_forward``.

    d pred / dQ = sum_m attn_m (W_m - pred) x_m x_q^T for each prompt;
    accumulated as 2 (pred - W_q) * d pred / dQ and averaged over the batch.
    """
    resid = 2.0 * (pred - targets)
    coef = attn * (labels - pred[:, None])  # (P, M)
    return np.einsum("pdm,pm->pd", feats, resid[:, None] * coef).T @ queries / len(pred)


def _stage_masses(stage_tags, attn, stages):
    """Attention of query s on the columns tagged ``stages[s]``, summed in column order.

    ``attn`` is (..., S, M), or (M,) for every stage; the result drops its
    last axis.  The running sum adds the other columns as exact zeros, so
    each mass has the bits of a loop over its own columns.
    """
    mask = np.asarray(stage_tags) == np.asarray(stages)[:, None]
    return np.where(mask, attn, 0.0).cumsum(axis=-1)[..., -1]


def _attend(params, matrix, columns):
    """Attention weights and raw-unit predictions with columns of each prompt as queries.

    ``matrix`` is a (D, d+1, M+1) stack of embedded prompts; query s of
    prompt i is column ``columns[s]`` of ``matrix[i]`` (the query column is
    column M), and every query attends over its prompt's M in-context
    columns.  ``_forward`` gets the prompt's features broadcast to each
    query without a copy, so a stack of D prompts gives each prompt the bits
    it gets alone.  Returns (D, S, M) weights and (D, S) predictions.
    """
    d, m = matrix.shape[1] - 1, matrix.shape[2] - 1
    if params.dim != d:
        raise ValueError(f"dimension mismatch: Q is {params.dim}, prompt is {d}")
    feats = np.broadcast_to(matrix[:, None, :d, :m], (len(matrix), len(columns), d, m))
    queries = matrix.transpose(0, 2, 1)[:, columns, :d]
    attn, pred, _ = _forward(params.q_matrix, feats, matrix[:, None, d, :m], queries)
    return attn, pred


def predict_stages(params, stack, stages, label_rows):
    """Each stage's prediction in each prompt of a stack under rows of labels, one attention pass.

    ``stack`` holds D prompts with one column layout (a ``PromptStack``) and
    ``label_rows`` is (D, R, M): R rows of in-context labels per prompt.
    Stage s is queried with the column of its first in-context example, the
    query ``build_prompt`` picks for s.  Prediction [i, r, s] equals, bit for
    bit, ``predict`` on prompt i with the labels of row r that queries s: the
    weights read only the features, and every row is weighted in one
    broadcast product summed over the columns, the ``(attn * labels).sum``
    of ``_forward``.  Returns the (D, R, S) predictions and the (D, S)
    attention masses of the queried stages, which a prompt's rows share.
    """
    first = {}
    for j, tag in enumerate(stack.stage_tags):
        first.setdefault(tag, j)
    for stage in stages:
        if stage not in first:
            raise ValueError(f"no example with stage {stage} to query")
    attn, _ = _attend(params, stack.matrix, [first[s] for s in stages])
    rows = np.asarray(label_rows, dtype=float)
    if rows.ndim != 3 or (rows.shape[0], rows.shape[2]) != (attn.shape[0], attn.shape[2]):
        raise ValueError(f"label_rows must hold {attn.shape[2]} labels per row for each "
                         f"of {attn.shape[0]} prompts, got shape {rows.shape}")
    preds = (attn[:, None] * rows[:, :, None, :]).sum(axis=-1)
    return preds, _stage_masses(stack.stage_tags, attn, stages)


def attention(params, embedded):
    """Attention scores over the in-context columns, aggregated per stage."""
    scores = _attend(params, embedded.matrix[None], [embedded.n_examples])[0][0, 0]
    tags = list(dict.fromkeys(embedded.stage_tags))
    masses = _stage_masses(embedded.stage_tags, scores, tags + [embedded.query_stage]).tolist()
    return AttentionReport(scores, dict(zip(tags, masses)), masses[-1])


def predict(params, embedded):
    """Attention-weighted mean of the in-context labels (raw label units)."""
    return float(_attend(params, embedded.matrix[None], [embedded.n_examples])[1][0, 0])


def loss(params, prompts, label_scale=1.0):
    """Mean squared prediction error over the batch, on the scaled-label axis."""
    feats, labels, queries, targets = _stack(prompts, label_scale)
    _, pred, _ = _forward(params.q_matrix, feats, labels, queries)
    return float(np.mean((pred - targets) ** 2))


def gradient(params, prompts, label_scale=1.0):
    """Exact gradient of ``loss`` w.r.t. Q via the softmax chain rule."""
    feats, labels, queries, targets = _stack(prompts, label_scale)
    attn, pred, _ = _forward(params.q_matrix, feats, labels, queries)
    return _backward(attn, pred, labels, targets, feats, queries)


def resolve_label_scale(prompts):
    """The largest label seen in the batch (1 when every label is 0)."""
    _, labels, _, query_labels = _stack(prompts)
    top = max(float(np.abs(labels).max()), float(np.abs(query_labels).max()))
    return top if top > 0 else 1.0


def train(prompts, step_size, max_rounds):
    """Full-batch gradient descent from Q = 0 for exactly ``max_rounds`` updates.

    Update t (from 0) steps by step_size * min(1, (t + 1) / _WARMUP_ROUNDS).
    There is no early stop: on this separable task ||Q|| keeps growing, so
    the update norm never reaches zero.  Raises TrainingDivergenceError when
    the loss goes non-finite, exceeds 10x its starting value, or an update
    saturates the softmax into an exact one-hot (off-peak weights underflow
    to zero, so the gradient dies with the loss stuck) -- the signature of a
    step size far too large for the label scale.
    """
    scale = resolve_label_scale(prompts)
    feats, labels, queries, targets = _stack(prompts, scale)
    q = np.zeros((feats.shape[1], feats.shape[1]))

    losses = []
    step_norms = []
    for step in range(max_rounds):
        attn, pred, shifted = _forward(q, feats, labels, queries)
        cur = float(np.mean((pred - targets) ** 2))
        losses.append(cur)
        if not math.isfinite(cur) or (losses[0] > 0 and cur > _DIVERGENCE_FACTOR * losses[0]):
            raise TrainingDivergenceError(step, cur)
        spread = -shifted.min(axis=-1)  # each prompt's logit max - min
        if labels.shape[1] > 1 and spread.min() > _LOGIT_FREEZE_SPAN:
            raise TrainingDivergenceError(step, cur,
                                          reason="softmax frozen by an oversized update")
        eta = step_size * min(1.0, (step + 1) / _WARMUP_ROUNDS)
        update = eta * _backward(attn, pred, labels, targets, feats, queries)
        q = q - update
        step_norms.append(float(np.linalg.norm(update)))

    _, pred, _ = _forward(q, feats, labels, queries)
    losses.append(float(np.mean((pred - targets) ** 2)))
    return TransformerParams(q), TrainTrace(losses, step_norms, scale)


def round_threshold(prediction, cap):
    """Round half-up and clamp into [1, cap] for deployment."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    return max(1, min(int(cap), int(math.floor(prediction + 0.5))))


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed to predict on new prompts.

    ``n_stages`` and ``stage_gain`` pin the embedding layout the attention
    matrix was trained against; the feature scaler and label scale travel
    with the weights so inference on fresh prompts reproduces training-time
    preprocessing exactly.
    """

    params: TransformerParams
    scaler: FeatureScaler
    label_scale: float
    n_stages: int
    stage_gain: float

    def __post_init__(self):
        timing_dims = len(self.scaler.shift) - 1
        if self.n_stages < 1 or self.params.dim != self.n_stages + timing_dims:
            raise ValueError(f"dim {self.params.dim} does not fit n_stages {self.n_stages} "
                             f"plus the scaler's {timing_dims} timing dimensions")
        for name in ("label_scale", "stage_gain"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def save_model(model, path):
    """Persist a trained model as versioned JSON."""
    record = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dim": model.params.dim,
        "q_matrix": [float(v) for v in model.params.q_matrix.ravel()],
        "scaler": {"shift": list(model.scaler.shift), "scale": list(model.scaler.scale)},
        "label_scale": model.label_scale,
        "n_stages": model.n_stages,
        "stage_gain": model.stage_gain,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)


def _q_matrix(values, dim):
    q = np.array(values, dtype=float)
    if q.shape != (dim * dim,):
        raise ValueError(f"q_matrix must hold dim^2 = {dim * dim} numbers, got shape {q.shape}")
    return TransformerParams(q.reshape(dim, dim))


def load_model(path):
    """Read a ``save_model`` file; a ValueError names any missing, bad or misfit key."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or record.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if record.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {record.get('version')} "
                         f"(expected {MODEL_VERSION})")

    def read(key, convert):
        try:
            return convert(record[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"model key {key!r}: "
                             f"{exc if key in record else 'missing'}") from exc

    dim = read("dim", int)
    return TrainedModel(
        read("q_matrix", lambda v: _q_matrix(v, dim)),
        read("scaler", lambda v: FeatureScaler(tuple(v["shift"]), tuple(v["scale"]))),
        read("label_scale", float), read("n_stages", int), read("stage_gain", float))
