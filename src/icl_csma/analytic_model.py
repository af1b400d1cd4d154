"""Closed-form saturation model for slotted non-persistent CSMA/DCF.

Implements the classic Bianchi-style decoupling analysis: under saturation,
every node transmits in a generic virtual slot with a stationary probability
``tau`` that solves a fixed point driven by the backoff ladder, and channel
throughput follows from per-slot renewal accounting.  On top of the forward
model this module provides the inverse design path used for data collection:
search the transmission probability ``tau*`` that maximizes throughput for a
given node density, then synthesize the integer BEB ladder whose fixed point
lands closest to ``tau*``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkParams",
    "BackoffLadder",
    "FixedPointResult",
    "FixedPointError",
    "LadderSearchError",
    "collision_prob",
    "solve_tau",
    "throughput",
    "optimize_tau",
    "solve_ladder",
    "solve_ladders",
    "design_ladder",
    "ladder_throughput",
    "rows_throughput",
    "mismatch_loss",
]


class FixedPointError(RuntimeError):
    """Fixed-point solver failed to reach the requested residual."""


class LadderSearchError(RuntimeError):
    """No integer ladder reaches the requested transmission probability."""


@dataclass(frozen=True)
class NetworkParams:
    """Channel timing constants, all in microseconds.

    The idle slot sigma, the payload time T_P and the busy times T_s and
    T_c of a success and a collision, taken as given rather than summed from
    DCF components.  Defaults are the standard 1 Mbps DCF setting used
    throughout the saturation-throughput literature.
    """

    slot_time_us: float = 50.0
    payload_us: float = 8184.0
    success_us: float = 8982.0
    # the tabulated value, kept verbatim: header 400 + payload + DIFS 128 +
    # propagation delay 1 sums to 8713
    collision_us: float = 8783.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
            # exact int/float comparison: also refuses ints too large for a float
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and fit in a float, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
            object.__setattr__(self, name, float(value))
        if self.payload_us >= self.success_us:
            raise ValueError("payload_us must be smaller than success_us")
        if self.collision_us > self.success_us:
            raise ValueError("collision_us must not exceed success_us")

    # config-file keys, in tabulated order
    _CONFIG_KEYS = {
        "t_sigma_us": "slot_time_us",
        "t_p_us": "payload_us",
        "t_s_us": "success_us",
        "t_c_us": "collision_us",
    }

    @classmethod
    def from_mapping(cls, mapping):
        """Build params from a dict with t_sigma_us/... keys; missing keys default."""
        if not isinstance(mapping, dict):
            raise TypeError(f"network must be a JSON object, got {mapping!r}")
        unknown = set(mapping) - set(cls._CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown network parameter keys: {sorted(unknown)}")
        kwargs = {attr: mapping[key] for key, attr in cls._CONFIG_KEYS.items() if key in mapping}
        return cls(**kwargs)

    def to_mapping(self):
        return {key: getattr(self, attr) for key, attr in self._CONFIG_KEYS.items()}


def _integers(values):
    """``values`` as a list of ints, or None if any of them is not an integral number."""
    try:
        ws = list(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return ws if ws == list(values) else None


def _cap_int(cap):
    """``cap`` as an int under the ladder rule (a positive integral number), else its ValueError."""
    caps = _integers((cap,))
    if caps is None or caps[0] < 1:
        raise ValueError(f"cap must be a positive integer, got {cap!r}")
    return caps[0]


def _threshold_ints(thresholds):
    """``thresholds`` as a list of ints under the ladder rule, else its ValueError."""
    ws = _integers(thresholds)
    if ws is None:
        raise ValueError(f"thresholds must be integers: {tuple(thresholds)}")
    return ws


def _k_max_int(k_max):
    """``k_max`` as an int >= 0, else a ValueError naming it (an integral float is refused)."""
    try:
        k = operator.index(k_max)
    except TypeError:
        k = -1
    if k < 0:
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    return k


def _ladder_ints(thresholds, cap, degenerate=False):
    """``(thresholds, cap)`` as (list of ints, int) under the ladder rule, else its ValueError.

    The ladder rule, applied by ``BackoffLadder`` and ``rows_throughput``
    alike: cap and thresholds are integral numbers (integral floats and numpy
    integers are converted, any other value is refused), cap >= 1, at least
    one threshold, W_0 >= 2, none above the cap, and each above its
    predecessor except in a tail parked at the cap.  ``degenerate`` asks
    instead for thresholds in [1, cap] that never decrease.
    """
    cap = _cap_int(cap)
    ws = _threshold_ints(thresholds)
    if not ws:
        raise ValueError("ladder needs at least one threshold")
    if degenerate:
        if any(w < 1 or w > cap for w in ws):
            raise ValueError(f"thresholds must lie in [1, cap={cap}]: {tuple(ws)}")
        if any(b > a for a, b in zip(ws[1:], ws)):
            raise ValueError(f"thresholds must be non-decreasing: {tuple(ws)}")
        return ws, cap
    if ws[0] < 2:
        raise ValueError("W_0 must be >= 2 (W_0 = 1 has no interior fixed point)")
    prev = 1
    for w in ws:
        if w <= prev and not w == prev == cap:
            raise ValueError(f"thresholds must increase strictly below the cap: {tuple(ws)}")
        prev = w
    if prev > cap:  # the last threshold is the largest
        raise ValueError(f"thresholds must lie in [1, cap={cap}]: {tuple(ws)}")
    return ws, cap


def _beb(w0, k_max, cap):
    """The BEB thresholds W_k = min(2^k * w0, cap), k = 0..k_max, as a list."""
    return [min((1 << k) * w0, cap) for k in range(k_max + 1)]


@dataclass(frozen=True)
class BackoffLadder:
    """Contention window thresholds W_0..W_K, capped at ``cap``.

    Thresholds and cap must be integers (integral floats are converted, any
    other value is refused), with W_0 >= 2 and the thresholds strictly
    increasing up to ``cap``, except that a tail of entries equal to
    ``cap`` is allowed (a capped BEB ladder saturates there).
    ``degenerate=True`` bypasses the W_0 >= 2 and strictness checks for
    simulator stress inputs; the fixed-point solver rejects such ladders.
    """

    thresholds: tuple[int, ...]
    cap: int
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        ws, cap = _ladder_ints(self.thresholds, self.cap, self.degenerate)
        object.__setattr__(self, "thresholds", tuple(ws))
        object.__setattr__(self, "cap", cap)

    @classmethod
    def beb(cls, w0, k_max, cap):
        """Binary-exponential ladder W_k = min(2^k * w0, cap), k = 0..k_max.

        ``cap`` and ``w0`` pass the ladder rule's integer checks, and
        ``k_max`` is an integer >= 0, before any arithmetic.
        """
        cap = _cap_int(cap)
        (w0,) = _threshold_ints((w0,))
        return cls(tuple(_beb(w0, _k_max_int(k_max), cap)), cap)

    @property
    def k_max(self):
        return len(self.thresholds) - 1


@dataclass(frozen=True)
class FixedPointResult:
    """Solution of the transmission-probability fixed point."""

    tau: float
    p: float
    iterations: int
    residual: float


def collision_prob(tau, n_nodes):
    """Conditional collision probability p = 1 - (1 - tau)^(N-1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    return 1.0 - (1.0 - tau) ** (n_nodes - 1)


# Lower end of the fixed-point bisection bracket [TAU_FLOOR, 1].
TAU_FLOOR = 1e-12
# Largest cap whose all-cap ladder the fixed-point solver reaches at its
# default tol: that ladder's root 2 / (cap + 1) lies below TAU_FLOOR once
# cap > 2 / TAU_FLOOR, and the midpoints above the floor still satisfy
# |g| <= 1e-10 only while TAU_FLOOR * (cap + 1) - 2 <= 1e-10, which the
# float evaluation of g meets up to this cap and not beyond it.
MAX_CAP = 2_000_000_000_098

_UNIT_ROUNDOFF = sys.float_info.epsilon / 2.0
# log-Newton steps the root estimate may take before it gives up
_NEWTON_BUDGET = 12


def _g(t, exponent, lower, w_top, slope=False):
    """(g(t), p(t), g'(t) or None) for g(t) = t * D(p(t)) - 2, p(t) = 1 - (1 - t)^exponent.

    D(p) = (1-p) * sum_{k<K} p^k W_k + p^K W_K + 1, the only place D, g
    and g' are formed, for one ladder or for many.  ``lower`` holds
    W_0..W_{K-1} and ``w_top`` W_K, all floats; p takes the float
    operations of ``collision_prob``, bit for bit.  With ``slope`` the
    derivative g' = D + t * D'(p) * p'(t) is carried alongside, for the
    root estimate; it does not touch g(t) or p.

    ``t`` may be a 1-D array of M points, one per ladder: ``exponent`` and
    ``w_top`` are then shaped like t and ``lower`` is the K columns of the
    (M, K) thresholds.  Every operation is then elementwise and equal, bit
    for bit, to the float one, except (1 - t)^e: numpy's array ``**``
    rounds some of those differently, so it stays Python's float ``pow``
    per point.
    """
    if isinstance(t, np.ndarray):
        q = np.fromiter(map(pow, (1.0 - t).tolist(), exponent.tolist()), float, len(t))
    else:
        q = (1.0 - t) ** exponent
    p = 1.0 - q
    acc = 0.0
    p_pow = 1.0
    d_acc = 0.0
    d_pow = 0.0  # d/dp of p_pow
    for w in lower:
        acc += p_pow * w
        if slope:
            d_acc += d_pow * w
            d_pow = d_pow * p + p_pow
        p_pow *= p
    d = (1.0 - p) * acc + p_pow * w_top + 1.0
    if not slope:
        return t * d - 2.0, p, None
    d_slope = (1.0 - p) * d_acc - acc + d_pow * w_top
    return t * d - 2.0, p, d + t * d_slope * exponent * q / (1.0 - t)


def _error_slope(exponent, lower, w_top):
    """e1 of the bound |fl(g(t)) - g(t)| <= e1 t + 2u derived in ``solve_tau``."""
    k_top = len(lower)
    return 2.0 * _UNIT_ROUNDOFF * (k_top * (w_top - lower[0]) * (exponent + 5)
                                   + (k_top + 7) * (w_top + 1.0))


def _certifies(exponent, w0, e1):
    """Whether the certificates of ``solve_tau`` hold, per ladder for arrays.

    They need (e + 5) u <= 1/2 for the bound and e1 < W_0 + 1 for g - E to
    increase.
    """
    return ((exponent + 5) * _UNIT_ROUNDOFF <= 0.5) & (e1 < w0 + 1.0)


def _certified_slope(exponent, lower, w_top):
    """``_error_slope`` where ``_certifies`` holds, else None."""
    e1 = _error_slope(exponent, lower, w_top)
    return e1 if _certifies(exponent, lower[0], e1) else None


def _side(ws, n_nodes, t, tol=1e-10):
    """Which side of t ``_solve(ws, n, tol)`` returns, per target, from one evaluation of g at t.

    ``n_nodes`` and ``t`` are arrays of targets (a number is one target) on
    the one ladder ``ws``; returns an int array.  -1 when
    fl(g(t)) < -(tol + 2 E(t)): every float s <= t then has fl(g(s)) < -tol,
    so the solved tau, a midpoint with |fl(g)| <= tol, lies above t.  +1
    when fl(g(t)) > tol + 2 E(t): every s >= t has fl(g(s)) > tol and the
    solved tau lies below t.  0 when neither is proven, always for K = 0 or
    one node (closed form, no g) and where ``_certifies`` refuses.  Both
    proofs are the window certificates of ``solve_tau``; every target is
    evaluated in one ``_g`` call on arrays.
    """
    exponent = np.atleast_1d(np.asarray(n_nodes, float)) - 1.0
    t = np.atleast_1d(np.asarray(t, float))
    side = np.zeros(len(t), int)
    if len(ws) == 1:
        return side
    lower = [float(w) for w in ws[:-1]]
    w_top = float(ws[-1])
    e1 = _error_slope(exponent, lower, w_top)
    i = np.flatnonzero(_certifies(exponent, lower[0], e1) & (exponent > 0.0))
    margin = tol + 2.0 * (e1[i] * t[i] + 2.0 * _UNIT_ROUNDOFF)
    val = _g(t[i], exponent[i], lower, w_top)[0]
    side[i] = np.where(val < -margin, -1, np.where(val > margin, 1, 0))
    return side


def _window(exponent, lower, w_top, tol, start):
    """Certified (a, b): every float t <= a has fl(g(t)) < -tol, every t >= b has fl(g(t)) > tol.

    Estimates the root r by Newton on ln(t D / 2) as a function of ln t,
    safeguarded by the bracket [2/(W_K+1), 2/(W_0+1)] and started at
    ``start`` when it lies inside, then evaluates g at r -/+ delta, where
    |g| should be about 1.1 (m + E): enough to clear the margin
    m(t) = tol + 2 E(t) whatever the float noise.  Every evaluation that
    clears the margin certifies its side (see ``solve_tau`` for E).  (0, 1)
    certifies nothing; it is what is left when the bound is unusable or the
    estimate does not converge.
    """
    e1 = _certified_slope(exponent, lower, w_top)
    e0 = 2.0 * _UNIT_ROUNDOFF
    a, b = 0.0, 1.0
    if e1 is None:
        return a, b
    lo, hi = 2.0 / (w_top + 1.0), 2.0 / (lower[0] + 1.0)
    t = start if start is not None and lo < start < hi else hi
    last = 0.0  # size of the last Newton step in ln t; 0 after a bisection
    for _ in range(_NEWTON_BUDGET):
        val, _, slope = _g(t, exponent, lower, w_top, slope=True)
        noise = e0 + e1 * t
        margin = tol + 2.0 * noise
        # iterates stay inside [lo, hi], so a and b only move inward
        if val < 0.0:
            lo = t
            if val < -margin:
                a = t
        else:
            hi = t
            if val > margin:
                b = t
        # Newton on ln(t D / 2) = ln(1 + val / 2) over ln t
        step = -math.log1p(0.5 * val) * (val + 2.0) / (t * slope)
        size = abs(step)
        # quadratic convergence: the error left is about step^2 times the
        # contraction size / last^2 seen so far, taken >= 1
        err = size * max(size, size * size / (last * last)) if last else size
        # relative distance from the root at which |g| = m + E
        width = (margin + noise) / (t * slope)
        t_next = t * math.exp(step)
        if err < 0.25 * width:
            t = t_next
            break
        # a Newton step must stay in the bracket and halve the one before
        if lo <= t_next <= hi and (not last or size <= 0.5 * last):
            t, last = t_next, size
        else:
            t, last = math.sqrt(lo * hi), 0.0
    else:
        return a, b
    delta = t * (1.1 * width + err)
    for y in (t - delta, t + delta):
        if 0.0 < y < 1.0:
            val = _g(y, exponent, lower, w_top)[0]
            margin = tol + 2.0 * (e0 + e1 * y)
            if val < -margin:
                a = max(a, y)
            elif val > margin:
                b = min(b, y)
    return a, b


def _solve(ws, n_nodes, tol=1e-10, max_iter=200, start=None):
    """``solve_tau`` on a threshold sequence, without its checks.

    ``start``, a guess of the root, only saves evaluations of g.
    """
    exponent = n_nodes - 1
    lower = [float(w) for w in ws[:-1]]
    w_top = float(ws[-1])
    if n_nodes == 1 or len(ws) == 1:
        tau = 2.0 / (ws[0] + 1.0)
        val, p, _ = _g(tau, exponent, lower, w_top)
        return FixedPointResult(tau, p, 0, abs(val))
    a, b = _window(exponent, lower, w_top, tol, start)
    return _replay(exponent, lower, w_top, a, b, tol, max_iter)


def _replay(exponent, lower, w_top, a, b, tol, max_iter):
    """Plain bisection of g from [TAU_FLOOR, 1], evaluating g only inside the window (a, b).

    A midpoint at or left of ``a`` moves lo and one at or right of ``b``
    moves hi, as the sign of fl(g) there would; the first midpoint with
    |fl(g)| <= tol is returned.
    """
    lo, hi = TAU_FLOOR, 1.0  # g(lo) ~ -2 and g(1^-) -> W_K - 1 > 0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
            val, p, _ = _g(mid, exponent, lower, w_top)
            if abs(val) <= tol:
                return FixedPointResult(mid, p, it, abs(val))
            if val < 0.0:
                lo = mid
            else:
                hi = mid
    residual = _g(0.5 * (lo + hi), exponent, lower, w_top)[0]
    raise FixedPointError(
        f"no convergence after {max_iter} bisections (residual {residual:.3e}); "
        "ladder is likely malformed")


def _window_rows(exponents, lower, w_top, tol, starts=None):
    """``_window`` of every row: arrays (a, b) of certified points.

    ``exponents`` and ``w_top`` are (M,) float arrays and ``lower`` the
    (K, M) array of W_0..W_{K-1}, K >= 1, as ``_g`` takes them; ``starts``,
    an (M,) array or None, gives each row's ``start``.  The same
    safeguarded Newton estimate and the same two certificate points, run on
    all rows at once through ``_g`` on arrays; each row leaves the loop at
    its own step.  The estimate's bits may differ from ``_window``'s, which
    moves only the window, not the path of the replay: every side certified
    is still one bit-exact evaluation of g that clears the margin.
    """
    m = len(w_top)
    w0 = lower[0]
    e0 = 2.0 * _UNIT_ROUNDOFF
    e1 = _error_slope(exponents, lower, w_top)
    i = np.flatnonzero(_certifies(exponents, w0, e1))
    a, b = np.zeros(m), np.ones(m)
    done, t_end, err_end, width_end = np.zeros(m, bool), np.zeros(m), np.zeros(m), np.zeros(m)
    lo, hi = 2.0 / (w_top[i] + 1.0), 2.0 / (w0[i] + 1.0)
    t, last = hi.copy(), np.zeros(len(i))
    if starts is not None:
        start = starts[i]
        t = np.where((lo < start) & (start < hi), start, hi)
    for _ in range(_NEWTON_BUDGET):
        if not i.size:
            break
        val, _, slope = _g(t, exponents[i], lower[:, i], w_top[i], slope=True)
        noise = e0 + e1[i] * t
        margin = tol + 2.0 * noise
        below = val < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        a[i] = np.where(val < -margin, t, a[i])
        b[i] = np.where(val > margin, t, b[i])
        step = -np.log1p(0.5 * val) * (val + 2.0) / (t * slope)
        size = np.abs(step)
        moved = last > 0.0
        err = np.where(moved, size * np.maximum(
            size, size * size / np.where(moved, last * last, 1.0)), size)
        width = (margin + noise) / (t * slope)
        t_next = t * np.exp(step)
        stop = err < 0.25 * width
        j = i[stop]
        done[j], t_end[j], err_end[j], width_end[j] = True, t_next[stop], err[stop], width[stop]
        newton = (lo <= t_next) & (t_next <= hi) & (~moved | (size <= 0.5 * last))
        t = np.where(newton, t_next, np.sqrt(lo * hi))
        last = np.where(newton, size, 0.0)
        i, t, last, lo, hi = i[~stop], t[~stop], last[~stop], lo[~stop], hi[~stop]
    # rows still in i ran out of budget and keep the window they have
    i = np.flatnonzero(done)
    delta = t_end[i] * (1.1 * width_end[i] + err_end[i])
    ys, j = np.concatenate([t_end[i] - delta, t_end[i] + delta]), np.concatenate([i, i])
    inside = (0.0 < ys) & (ys < 1.0)
    ys, j = ys[inside], j[inside]
    val = _g(ys, exponents[j], lower[:, j], w_top[j])[0]
    margin = tol + 2.0 * (e0 + e1[j] * ys)
    np.maximum.at(a, j[val < -margin], ys[val < -margin])
    np.minimum.at(b, j[val > margin], ys[val > margin])
    return a, b


def _solve_rows(rows, n_nodes, tol=1e-10, max_iter=200, starts=None):
    """``_solve`` of many threshold rows that share K, each at its own density.

    Returns one outcome per row: the FixedPointResult ``_solve(row, n)``
    returns, field for field, or the FixedPointError it raises, with the
    same message; ``starts``, one root guess per row, only saves
    evaluations of g.  Rows with one node or K = 0 keep their closed form.
    The others get their windows from one ``_window_rows`` call, all rows
    at once through ``_g`` on arrays, and then each runs ``_replay`` on its
    own window through ``_g`` on floats.  Each row's exponent is kept as a
    float: below 2^53 Python's ``x ** float(e)`` has the bits of ``x ** e``.
    For many rows, such as a sweep's deployed ladders or the floors and
    ceilings of its designs: one row costs more than one ``_solve``.
    """
    out = [None] * len(rows)
    index = []
    for i, (ws, n) in enumerate(zip(rows, n_nodes)):
        if n == 1 or len(ws) == 1:
            out[i] = _solve(ws, n, tol, max_iter)
        else:
            index.append(i)
    if not index:
        return out
    ws = np.array([rows[i] for i in index], float)
    exponents = np.array([n_nodes[i] - 1 for i in index], float)
    a, b = _window_rows(exponents, ws[:, :-1].T, ws[:, -1], tol,
                        None if starts is None else np.array([starts[i] for i in index], float))
    windows = zip(index, ws.tolist(), exponents.tolist(), a.tolist(), b.tolist())
    for i, row, exponent, a_i, b_i in windows:
        try:
            out[i] = _replay(exponent, row[:-1], row[-1], a_i, b_i, tol, max_iter)
        except FixedPointError as exc:
            out[i] = exc
    return out


def solve_tau(ladder, n_nodes, tol=1e-10, max_iter=200):
    """Solve tau = 2 / D(N, tau): the bisection on g(tau) = tau * D - 2, replayed.

    g is strictly increasing on (0, 1) for any valid ladder, so the root is
    unique.  With K = 0 or a single node the collision probability drops
    out and tau = 2 / (W_0 + 1) exactly.  Otherwise the result, field for
    field and error for error, is that of plain bisection from
    [TAU_FLOOR, 1]: return the first midpoint with |fl(g)| <= tol, else
    move toward the root by the sign of fl(g).  That path is followed with
    six to eight evaluations of g instead of one per step (about 43):

    1. Estimate the root r by safeguarded Newton in log tau.  The root lies
       in [2/(W_K+1), 2/(W_0+1)] because D - 1 is a convex combination of
       the W_k.
    2. Certify a window: evaluate g at r -/+ delta and accept a side when
       fl(g) < -m there (left) or fl(g) > m (right), m = tol + 2 E.
    3. Replay the bisection in one loop: a midpoint at or left of a
       certified left point takes lo = mid, one at or right of a certified
       right point takes hi = mid, both without evaluating g; only
       midpoints inside the window evaluate it.  With no certificate the
       window is (0, 1) and the loop is plain bisection.

    Error bound.  Take g with the thresholds as floats, u = 2^-53,
    e = N - 1 and c_n = 2 n u, which bounds (1 + u)^n - 1 while n u <= 1/2.
    Assume the libm ``pow`` behind ``x ** e`` is within 2 ulps (relative
    4u).  Then fl(1 - t)^e carries a relative error of at most c_{e+4}, so
    the computed p is within c_{e+4} + u <= c_{e+5} of p(t) and stays in
    [0, 1].  D = 1 + W_0 + sum_k p^k (W_k - W_{k-1}), so on [0, 1]
    0 <= D'(p) <= K (W_K - W_0) and D <= W_K + 1.  The loop that forms D
    from the computed p sums nonnegative terms with at most K + 5 roundings
    on any path, t * D adds one, and the final "- 2" a relative u of
    |t D - 2| <= 2 t (W_K + 1) + 2.  So for every float t in (0, 1)

        |fl(g(t)) - g(t)| <= E(t) = e1 t + e0,
        e1 = 2u (K (W_K - W_0)(e + 5) + (K + 7)(W_K + 1)),  e0 = 2u,

    computed per call.  c_n is twice the first-order term, which also
    absorbs the few roundings in computing e1 itself.  E is largest for
    wide ladders at large N: W_K / W_0 = 1400 at N = 1000 gives about
    1e-9 at the root, ten times the default tol; the window widens with it.

    A left point a with fl(g(a)) < -(tol + 2 E(a)) has g(a) + E(a) < -tol;
    g + E increases, so fl(g(t)) <= g(t) + E(t) < -tol for every t <= a.  A
    right point b with fl(g(b)) > tol + 2 E(b) has g(b) - E(b) > tol, and
    g - E increases too, since g' >= D >= W_0 + 1 > e1, so fl(g(t)) > tol
    for every t >= b.  No certificate is tried when e1 >= W_0 + 1 or
    (e + 5) u > 1/2.

    ``_solve_rows`` runs step 1 and 2 for many ladders that share K, all
    rows at once, and step 3 (``_replay``) row by row, with each row's
    result or error equal to this one's; ``rows_throughput`` deploys eval's
    ladders through it, and ``solve_ladders`` the floors and ceilings of
    its designs.  Both paths evaluate g only through ``_g``, on a float here
    and on an array of points there.  Single ladders, and the few design
    bracket ends that ``_side`` cannot certify, keep this scalar path,
    which is far cheaper for one ladder.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    ws = ladder.thresholds
    if ws[0] < 2:
        raise ValueError("ladder with W_0 < 2 pins tau at the boundary; rejected")
    return _solve(ws, n_nodes, tol, max_iter)


def throughput(tau, n_nodes, params):
    """Saturation throughput U(tau) for N nodes transmitting w.p. tau per slot.

    U = N tau (1-tau)^(N-1) T_P / [ (1-tau)^N T_sigma
        + N tau (1-tau)^(N-1) (T_s - T_c) + (1 - (1-tau)^N) T_c ].
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    return _throughput(tau, n_nodes, params)


def _throughput(tau, n_nodes, params):
    """``throughput`` without its range checks, for callers that made them."""
    q = (1.0 - tau) ** (n_nodes - 1)
    q_all = q * (1.0 - tau)  # (1 - tau)^N
    p_succ = n_nodes * tau * q
    num = p_succ * params.payload_us
    den = (q_all * params.slot_time_us
           + p_succ * (params.success_us - params.collision_us)
           + (1.0 - q_all) * params.collision_us)
    return num / den


def optimize_tau(n_nodes, params, tol=1e-8):
    """Maximize U(tau) over (0, 1/N) by golden-section search.

    The success probability N tau (1-tau)^(N-1) peaks at 1/N.  While
    T_c > sigma, a collision costs more than the idle slot it replaces, so
    the maximizer lies strictly below 1/N and the bracket (1e-6, 1/N)
    holds it, as at the default timings.  At T_c = sigma, U grows with the
    success probability alone and tau* = 1/N, the bracket's top end; below
    sigma tau* lies above 1/N, out of the bracket, and the search returns a
    point next to 1/N.  Returns (tau_star, u_star).  Every tau searched lies
    in the bracket, so U is evaluated without ``throughput``'s range checks.
    """
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-6, 1.0 / n_nodes

    def u(t):
        return _throughput(t, n_nodes, params)

    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    uc, ud = u(c), u(d)
    while hi - lo > tol:
        if uc >= ud:
            hi, d, ud = d, c, uc
            c = hi - invphi * (hi - lo)
            uc = u(c)
        else:
            lo, c, uc = c, d, ud
            d = lo + invphi * (hi - lo)
            ud = u(d)
    tau_star = 0.5 * (lo + hi)
    return tau_star, u(tau_star)


def _crossing_guess(tau_star, p_star, k_max, cap):
    """W_0 where tau_star * D_{beb(W_0)}(p*) = 2 for real D, or cap where D stays short.

    D - 1 = sum_k c_k min(2^k W_0, cap), with c_k = (1 - p*) p*^k below K
    and p*^K at K, is linear in W_0 between the points cap / 2^k where stage
    k reaches the cap (K + 1 pieces up to the cap, flat past it), walked
    upward until one reaches 2 / tau_star - 1.  ``tau_star`` and ``p_star``
    may be arrays, one guess per row; a guess only saves evaluations, so
    numpy's operations serve here.
    """
    p_star = np.asarray(p_star, float)
    weights = [(1.0 - p_star) * p_star ** k for k in range(k_max)] + [p_star ** k_max]
    guess, searching = np.full(p_star.shape, float(cap)), np.ones(p_star.shape, bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        target = 2.0 / np.asarray(tau_star, float) - 1.0
        slope = sum(c * 2.0 ** k for k, c in enumerate(weights))
        offset = 0.0
        for k in range(k_max, -1, -1):
            end = cap / 2.0 ** k  # stage k reaches the cap here
            reached = searching & (slope * end + offset >= target)
            guess = np.where(reached, np.where(slope > 0.0, (target - offset) / slope, end), guess)
            searching &= ~reached
            slope = slope - weights[k] * 2.0 ** k
            offset = offset + weights[k] * cap
    return guess


def _crossing(tau_star, n_nodes, k_max, cap):
    """Largest W_0 in (2, cap) with fl(tau_star * D_{beb(W_0)}(p*)) <= 2, else 2.

    p* = p(tau_star) and D is the one ``_g`` forms on min(2^k W_0, cap).  The
    float predicate is monotone in W_0: the powers p^k do not depend on
    W_0, each term is a fixed nonnegative float times the float of a
    nondecreasing integer, the sums add nonnegative terms, and rounding is
    monotone, so fl(tau_star * D) never falls as W_0 grows.  Integer
    bisection on the predicate over (2, cap) therefore returns exactly this
    W_0, and so does any search that brackets the switch from true to false.

    Here the search starts from the floor c of ``_crossing_guess`` and
    checks the predicate at c and c + 1.  Where rounding moved the switch
    it steps on, doubling its steps, then bisects the bracket found, so the
    answer is the predicate's whatever the guess.  ``solve_ladders`` makes
    the first two checks for all its rows at once and calls this only for
    a row whose switch is not between c and c + 1.
    """
    if cap <= 3:
        return 2
    p_star = collision_prob(tau_star, n_nodes)

    def holds(w0):
        if w0 <= 2:
            return True
        if w0 >= cap:
            return False
        ws = list(map(float, _beb(w0, k_max, cap)))
        # fl(tau_star * D) - 2 <= 0 exactly when fl(tau_star * D) <= 2
        return _g(tau_star, n_nodes - 1, ws[:-1], ws[-1])[0] <= 0.0

    guess = float(_crossing_guess(tau_star, p_star, k_max, cap))
    lo = int(min(max(guess, 2.0), cap - 1))
    step = 1
    if holds(lo):
        hi = min(lo + step, cap)
        while holds(hi):
            lo, step = hi, 2 * step
            hi = min(lo + step, cap)
    else:
        hi, lo = lo, max(lo - step, 2)
        while not holds(lo):
            hi, step = lo, 2 * step
            lo = max(hi - step, 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _outcome(value):
    """A stored result, or raise the stored error."""
    if isinstance(value, Exception):
        raise value
    return value


def solve_ladders(tau_stars, densities, k_max, cap):
    """For every row (tau_star, N), the BEB ladder whose fixed point is closest to tau_star.

    Returns one outcome per row: the ``(ladder, fixed_point)`` pair, the
    second equal field for field to ``solve_tau(ladder, N)``, or the
    ValueError, LadderSearchError or FixedPointError of that row, so that
    callers need not solve the ladder again and one row's failure leaves
    the others alone.  ``solve_ladder`` is the one-row case.

    Restricting the inverse problem to the BEB shape W_k = min(2^k W_0, cap)
    makes it well-posed: tau decreases in W_0, so the crossing of tau_star
    is bracketed by two adjacent W_0, and the floor or ceiling with the
    smaller residual |tau(W_0) - tau_star| is chosen, the floor on a tie.
    Where many W_0 solve to one tau (large N, small cap) one of them is
    chosen, not always the smallest.  A row gets a LadderSearchError when
    even W_0 = 2 cannot reach its tau_star, and the all-cap ladder when
    even W_0 = cap does not fall below it.

    A row costs two fixed-point solves, the floor and the ceiling, both
    started at tau_star (a start only saves evaluations), plus four
    evaluations of g at tau_star.  Each step runs for all rows at once:

    1. Bracket ends.  g at tau_star, under the certificate margin of
       ``solve_tau`` (``_side``, one ``_g`` call per end), proves for most
       rows that W_0 = 2 solves above tau_star (no error) and W_0 = cap
       below it (no all-cap return).  An end is solved, row by row, only
       where that is not proven: the W_0 = 2 end of a LadderSearchError
       (its message names that tau), the W_0 = cap end of an all-cap
       return, and ends too close to tau_star to certify.
    2. Crossing.  At the target the collision probability p* = p(tau_star)
       is fixed, and g(tau) = tau * D(p(tau)) - 2 increases strictly in
       tau, so tau(W_0) >= tau_star exactly when tau_star * D_{W_0}(p*) <= 2.
       ``_crossing_guess`` puts the last W_0 where the float form of that
       holds at c from the piecewise-linear D, and one ``_g`` call checks
       it at c and c + 1 for every row; a row whose switch lies elsewhere
       finds it through ``_crossing``'s search.
    3. Floor and ceiling.  One ``_solve_rows`` call solves both ladders of
       every row; each row keeps the closer one.
    """
    tau_stars, densities = list(tau_stars), list(densities)
    out = [None] * len(tau_stars)
    refused = None
    try:
        k_max, cap = _k_max_int(k_max), _cap_int(cap)
        if cap < (1 << k_max):
            raise ValueError(f"cap must be >= 2^k_max = {1 << k_max}, got {cap}")
        # W_0 = 2 under the cap: refuses cap = 1
        top, _ = _ladder_ints(_beb(2, k_max, cap), cap)
    except ValueError as exc:
        refused = str(exc)
    for i, (tau_star, n) in enumerate(zip(tau_stars, densities)):
        if not 0.0 < tau_star < 1.0:
            out[i] = ValueError(f"tau_star must lie in (0, 1), got {tau_star}")
        elif refused is not None:
            out[i] = ValueError(refused)
        elif n < 1:
            out[i] = ValueError(f"n_nodes must be >= 1, got {n}")

    def rows():
        """The rows still open, as (indices, densities, tau_stars)."""
        live = [i for i, done in enumerate(out) if done is None]
        return live, [densities[i] for i in live], [tau_stars[i] for i in live]

    live, ns, taus = rows()
    if not live:
        return out
    for i, n, tau_star, side in zip(live, ns, taus, _side(top, ns, taus).tolist()):
        if side >= 0:
            try:
                tau_top = _solve(top, n).tau
            except FixedPointError as exc:
                out[i] = exc
                continue
            if tau_star > tau_top:
                out[i] = LadderSearchError(
                    f"no W_0 >= 2 reaches tau = {tau_star:.6g}; "
                    f"closest is W_0 = 2 with tau = {tau_top:.6g} "
                    f"(residual {tau_star - tau_top:.3g})")
    live, ns, taus = rows()
    all_cap = _beb(cap, k_max, cap)
    for i, n, tau_star, side in zip(live, ns, taus, _side(all_cap, ns, taus).tolist()):
        if side <= 0:
            try:
                bottom = _solve(all_cap, n)
            except FixedPointError as exc:
                out[i] = exc
                continue
            if tau_star <= bottom.tau:
                out[i] = BackoffLadder(tuple(all_cap), cap), bottom
    live, ns, taus = rows()
    if not live:
        return out
    # tau(floor) >= tau_star > tau(floor + 1)
    t, exponents = np.array(taus, float), np.array(ns, float) - 1.0
    guess = _crossing_guess(t, 1.0 - (1.0 - t) ** exponents, k_max, cap)
    floors = [max(int(min(c, cap - 1)), 2) for c in guess.tolist()]
    below = [_beb(w0, k_max, cap) for w0 in floors]
    above = [_beb(w0 + 1, k_max, cap) for w0 in floors]
    ws = np.array(below + above, float)
    # fl(tau_star * D) - 2 <= 0 exactly when fl(tau_star * D) <= 2
    holds = (_g(np.tile(t, 2), np.tile(exponents, 2), ws[:, :-1].T, ws[:, -1])[0]
             <= 0.0).tolist()
    m = len(live)
    for j, c in enumerate(floors):
        # the predicate holds at W_0 <= 2 and fails from the cap on
        if not ((c == 2 or holds[j]) and (c + 1 >= cap or not holds[m + j])):
            c = _crossing(taus[j], ns[j], k_max, cap)
            below[j], above[j] = _beb(c, k_max, cap), _beb(c + 1, k_max, cap)
    fps = _solve_rows(below + above, ns + ns, starts=taus + taus)
    for i, tau_star, ws_low, ws_high, low, high in zip(live, taus, below, above, fps, fps[m:]):
        if isinstance(low, FixedPointError):
            out[i] = low
        elif isinstance(high, FixedPointError):
            out[i] = high
        elif abs(low.tau - tau_star) <= abs(high.tau - tau_star):
            out[i] = BackoffLadder(tuple(ws_low), cap), low
        else:
            out[i] = BackoffLadder(tuple(ws_high), cap), high
    return out


def solve_ladder(tau_star, n_nodes, k_max, cap):
    """Synthesize the BEB ladder whose fixed point is closest to ``tau_star``.

    Returns ``(ladder, fixed_point)``, the second equal field for field to
    ``solve_tau(ladder, n_nodes)``; ``solve_ladders`` of one row, whose
    error it raises.
    """
    return _outcome(solve_ladders([tau_star], [n_nodes], k_max, cap)[0])


def design_ladder(n_nodes, params, k_max, cap):
    """Optimize tau for ``n_nodes`` and synthesize its ladder: ``(ladder, fixed_point)``."""
    tau_star, _ = optimize_tau(n_nodes, params)
    return solve_ladder(tau_star, n_nodes, k_max, cap)


def ladder_throughput(ladder, n_nodes, params):
    """Throughput of a ladder deployed at density ``n_nodes`` (fixed point + U)."""
    return throughput(solve_tau(ladder, n_nodes).tau, n_nodes, params)


def _rule_holds(rows, cap):
    """Which rows of an (M, K+1) array surely pass the ladder rule under ``cap``, in one expression.

    Judges float rows under an integral cap in [1, 2^53], where every
    comparison is exact: integral, W_0 >= 2, each above its predecessor
    unless both sit at the cap, the last at most the cap (NaN fails the
    first test, inf one of the others).  Any other array passes no row.
    """
    rows = np.asarray(rows)
    caps = _integers((cap,))
    if rows.dtype.kind != "f" or not rows.shape[-1] or caps is None or not 1 <= caps[0] <= 2 ** 53:
        return np.zeros(len(rows), bool)
    cap = caps[0]
    rise = (rows[:, 1:] > rows[:, :-1]) | ((rows[:, 1:] == cap) & (rows[:, :-1] == cap))
    return ((np.floor(rows) == rows).all(axis=1) & rise.all(axis=1)
            & (rows[:, 0] >= 2) & (rows[:, -1] <= cap))


def rows_throughput(rows, cap, n_nodes, params):
    """``ladder_throughput(BackoffLadder(row, cap), n, params)`` of each row, no ladder built.

    ``rows`` is an (M, K+1) array of thresholds and ``n_nodes`` gives each
    row's density.  Returns one outcome per row: its throughput, or the
    ValueError or FixedPointError the ladder path raises, with the same
    message.  ``_rule_holds`` passes most rows in one array expression; the
    rest go through the ladder's own rule (``_ladder_ints``), so a row is
    refused exactly when the ladder is.  Every row that passes is solved in
    one ``_solve_rows`` call.  For many deployed ladders, such as eval's
    cells and its ``n_est`` ladder at each density.
    """
    holds = _rule_holds(rows, cap).tolist()
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    out = [None] * len(rows)
    solve, ws_rows, ns = [], [], []
    for i, (ws, ok, n) in enumerate(zip(rows, holds, n_nodes)):
        try:
            if not ok:
                ws, _ = _ladder_ints(ws, cap)
            if n < 1:
                raise ValueError(f"n_nodes must be >= 1, got {n}")
        except ValueError as exc:
            out[i] = exc
            continue
        solve.append(i)
        ws_rows.append(ws)
        ns.append(n)
    for i, n, fp in zip(solve, ns, _solve_rows(ws_rows, ns)):
        out[i] = fp if isinstance(fp, FixedPointError) else _throughput(fp.tau, n, params)
    return out


def mismatch_loss(n_true, n_est, k_max, cap, params):
    """Throughput lost by designing for an estimated density ``n_est``.

    Both ladders are synthesized through the same optimize/synthesize path
    and evaluated at the true density; the gap is >= 0 up to the one-step
    quantization noise of integer ladders.
    """
    if n_true < 2 or n_est < 2:
        raise ValueError("both densities must be >= 2")
    _, matched = design_ladder(n_true, params, k_max, cap)
    ladder_est, _ = design_ladder(n_est, params, k_max, cap)
    return throughput(matched.tau, n_true, params) - ladder_throughput(ladder_est, n_true, params)
