"""One-layer masked softmax attention for in-context threshold prediction.

The model is a single bilinear attention matrix Q (the value path is fixed at
identity on the label row).  Given an embedded prompt, the query column
attends over the masked in-context columns with logits x_m^T Q x_q, and the
prediction is the attention-weighted mean of the in-context labels -- always
a convex combination, never an extrapolation.  Training is full-batch
normalized gradient descent from Q = 0 with the exact softmax chain-rule
gradient until every prompt attends to its query's stage; labels are scaled
to O(1) internally, so the loss has one scale for any ladder.

One kernel serves every caller: ``_forward`` gathers the logits at (key,
query) index pairs from the Gram matrix G = X^T Q X of each prompt's block
of columns X.  Training queries every prompt at its last column, and
``_backward`` returns sum_p (X_keys,p t_p) x_q,p^T / P, t_p the prompt's
per-key coefficients; inference (``_attend``) queries any columns of a stack.
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
# default run stops with spreads of at most 18 (master seeds 0..59), so
# only a wildly oversized step can cross this
_LOGIT_FREEZE_SPAN = 745.0

# training stops once every prompt puts this much attention on its query's stage:
# on master seeds 0..59 after 4-6 updates, criterion 5's worst min mass 0.993
_MASS_TARGET = 0.99


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
    """Loss and query-stage mass per visited parameter, ||G|| per update, and the stop reason."""

    losses: list[float]
    step_norms: list[float]
    label_scale: float
    query_masses: list[float]
    stop_reason: str


@dataclass(frozen=True)
class AttentionReport:
    scores: np.ndarray
    stage_scores: dict[int, float]
    query_stage_mass: float


def _forward(q_matrix, cols, pairs, labels):
    """Softmax over each query's keys of logits x_k^T Q x_q, gathered from one Gram matrix.

    ``cols`` is a (..., d, N) block of columns, row s of ``pairs`` the flat
    (key, query) pairs k * N + q of query s, and ``labels`` broadcasts
    against (..., S, M).  Returns the weights (..., S, M), their mean of
    ``labels`` (..., S) and the logits less each query's max (..., S, M).
    """
    gram = np.swapaxes(cols, -1, -2) @ (q_matrix @ cols)
    # take, not [..., pairs]: its C-ordered result sums each row alike for any stack
    logits = np.take(gram.reshape(gram.shape[:-2] + (-1,)), pairs, axis=-1)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    attn = weights / weights.sum(axis=-1, keepdims=True)
    return attn, (attn * labels).sum(axis=-1), shifted


def _backward(attn, pred, labels, targets, feats):
    """Exact gradient w.r.t. Q of the mean squared error of ``_forward`` on a (P, d, M+1) stack.

    Prompt p is queried at its last column x_q,p: d pred_p / dQ =
    sum_m attn_pm (W_pm - pred_p) x_m x_q,p^T, weighted by 2 (pred_p - target_p)
    and averaged: sum_p (X_keys,p t_p) x_q,p^T / P.
    """
    terms = (2.0 * (pred - targets))[:, None] * (attn * (labels - pred[:, None]))  # (P, M)
    keys = (feats[:, :, :-1] @ terms[:, :, None])[:, :, 0]  # (P, d)
    return keys.T @ feats[:, :, -1] / len(pred)


def _stack(prompts, label_scale):
    """Same-shape prompts as (P, d, M+1) features, (P, M) in-context labels and (P,) targets.

    Labels are divided by ``label_scale``.
    """
    # np.stack refuses no prompts or two shapes, and it keeps its inputs'
    # layout: C order, since the products' bits depend on it
    blocks = np.ascontiguousarray(np.stack([p.matrix for p in prompts]))
    blocks[:, -1, -1] = [p.query_label for p in prompts]
    labels = blocks[:, -1] / label_scale
    return blocks[:, :-1], labels[:, :-1], labels[:, -1]


def _query_last(q_matrix, feats, labels):
    """``_forward`` with each prompt of a stack queried at its last column, (P, ...) outputs."""
    m = labels.shape[1]
    pairs = np.arange(m)[None] * (m + 1) + m
    attn, pred, shifted = _forward(q_matrix, feats, pairs, labels[:, None])
    return attn[:, 0], pred[:, 0], shifted[:, 0]


def _stage_masses(stage_tags, attn, stages):
    """Attention of query s on the columns tagged ``stages[s]``, summed in column order.

    ``stage_tags`` holds the M columns' stages, or (S, M) a row per query;
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
    columns.  Each prompt's M+1 columns are one block, so a prompt gets the
    same bits in any stack.  Returns (D, S, M) weights and (D, S) predictions.
    """
    d, m = matrix.shape[1] - 1, matrix.shape[2] - 1
    if params.dim != d:
        raise ValueError(f"dimension mismatch: Q is {params.dim}, prompt is {d}")
    pairs = np.arange(m) * (m + 1) + np.asarray(columns)[:, None]
    attn, pred, _ = _forward(params.q_matrix, matrix[:, :d], pairs, matrix[:, None, d, :m])
    return attn, pred


def predict_stages(params, stack, stages, label_rows):
    """Each stage's prediction in each prompt of a stack under rows of labels, one attention pass.

    ``stack`` holds D prompts with one column layout (a ``PromptStack``) and
    ``label_rows`` is (D, R, M): R rows of in-context labels per prompt.
    Stage s is queried with the column of its first in-context example, the
    query ``build_prompt`` picks for s.  Prediction [i, r, s] equals, bit for
    bit, ``predict`` on prompt i with the labels of row r that queries s: the
    weights read only the features, and every row is weighted in one
    broadcast product, the ``(attn * labels).sum`` of ``_forward``.  Returns
    the (D, R, S) predictions and the (D, S) masses of the queried stages,
    which a prompt's rows share.  Logits that overflow give NaN predictions,
    without numpy's warnings; a caller checks the predictions for finiteness.
    """
    tags = list(stack.stage_tags)
    for stage in stages:
        if stage not in tags:
            raise ValueError(f"no example with stage {stage} to query")
    with np.errstate(over="ignore", invalid="ignore"):
        attn, _ = _attend(params, stack.matrix, [tags.index(s) for s in stages])
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
    """Mean squared prediction error over the prompts, on the scaled-label axis."""
    feats, labels, targets = _stack(prompts, label_scale)
    _, pred, _ = _query_last(params.q_matrix, feats, labels)
    return float(np.mean((pred - targets) ** 2))


def gradient(params, prompts, label_scale=1.0):
    """Exact gradient of ``loss`` w.r.t. Q via the softmax chain rule."""
    feats, labels, targets = _stack(prompts, label_scale)
    attn, pred, _ = _query_last(params.q_matrix, feats, labels)
    return _backward(attn, pred, labels, targets, feats)


def resolve_label_scale(prompts):
    """The largest label seen in the prompts (1 when every label is 0)."""
    top = max(float(np.abs(part).max()) for part in _stack(prompts, 1.0)[1:])
    return top if top > 0 else 1.0


def train(prompts, step_size, max_rounds):
    """Normalized gradient descent from Q = 0 until each prompt retrieves its query's stage.

    ``prompts`` is a list of same-shape embedded prompts, each queried at
    its last column; its held-out label is the target.  Update
    Q <- Q - step_size * G / ||G|| until every prompt puts ``_MASS_TARGET``
    of its attention on its query's stage (``mass``), G is 0 or every
    in-context label equals its prompt's target, an exact fit at any Q
    (``gradient vanished``), or ``max_rounds`` updates have run
    (``budget``).  Raises TrainingDivergenceError when the loss goes
    non-finite, exceeds 10x its starting value, or an update saturates the
    softmax into an exact one-hot short of the target (off-peak weights
    underflow to zero, so the gradient dies with the loss stuck) -- the
    signature of a step size far too large.
    """
    scale = resolve_label_scale(prompts)
    feats, labels, targets = _stack(prompts, scale)
    tags = np.array([p.stage_tags for p in prompts])
    stages = np.array([p.query_stage for p in prompts])
    # the exact gradient is 0 there, but its rounding noise is not
    fitted = bool((labels == targets[:, None]).all())
    q = np.zeros((feats.shape[1], feats.shape[1]))

    losses, masses, step_norms = [], [], []
    for step in range(max_rounds + 1):
        attn, pred, shifted = _query_last(q, feats, labels)
        cur = float(np.mean((pred - targets) ** 2))
        losses.append(cur)
        masses.append(float(_stage_masses(tags, attn, stages).min()))
        if not math.isfinite(cur) or (losses[0] > 0 and cur > _DIVERGENCE_FACTOR * losses[0]):
            raise TrainingDivergenceError(step, cur)
        if masses[-1] >= _MASS_TARGET or step == max_rounds:
            reason = "mass" if masses[-1] >= _MASS_TARGET else "budget"
            break
        spread = -shifted.min(axis=-1)  # each prompt's logit max - min
        if labels.shape[1] > 1 and spread.min() > _LOGIT_FREEZE_SPAN:
            raise TrainingDivergenceError(step, cur,
                                          reason="softmax frozen by an oversized update")
        grad = _backward(attn, pred, labels, targets, feats)
        norm = math.sqrt(np.sum(grad * grad))
        if fitted or norm == 0.0:
            reason = "gradient vanished"
            break
        q = q - step_size / norm * grad
        step_norms.append(norm)
    return TransformerParams(q), TrainTrace(losses, step_norms, scale, masses, reason)


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


def _integer(value):
    """A JSON integer as itself; anything else, a bool included, is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value):
    """A JSON number as a float; anything else, a bool included, is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def load_model(path):
    """Read a ``save_model`` file; a ValueError names any missing, bad or misfit key."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or record.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")

    def read(key, convert):
        try:
            return convert(record[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"model key {key!r}: "
                             f"{exc if key in record else 'missing'}") from exc

    if read("version", _integer) != MODEL_VERSION:
        raise ValueError(f"unsupported model version {record['version']} "
                         f"(expected {MODEL_VERSION})")
    dim = read("dim", _integer)
    return TrainedModel(
        read("q_matrix", lambda v: _q_matrix(v, dim)),
        read("scaler", lambda v: FeatureScaler(tuple(v["shift"]), tuple(v["scale"]))),
        read("label_scale", _number), read("n_stages", _integer),
        read("stage_gain", _number))
