"""Closed-form saturation model for slotted non-persistent CSMA/DCF.

Implements the classic Bianchi-style decoupling analysis: under saturation,
every node transmits in a generic virtual slot with a stationary probability
``tau`` that solves a fixed point driven by the backoff ladder, and channel
throughput follows from per-slot renewal accounting.  On top of the forward
model this module provides the inverse design path used for data collection:
solve for the transmission probability ``tau*`` that maximizes throughput at
a given node density, then synthesize the integer BEB ladder whose fixed point
lands closest to ``tau*``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkParams",
    "BackoffLadder",
    "FixedPointResult",
    "LadderSearchError",
    "solve_tau",
    "throughput",
    "optimize_tau",
    "optimize_taus",
    "solve_ladder",
    "solve_ladders",
    "design_ladder",
    "ladder_throughput",
    "rows_throughput",
    "mismatch_loss",
]


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


def _ladder_ints(thresholds, cap):
    """``(thresholds, cap)`` as (list of ints, int) under the ladder rule, else its ValueError.

    The ladder rule, applied by ``BackoffLadder`` and ``rows_throughput``
    alike: cap and thresholds are integral numbers (integral floats and numpy
    integers are converted, any other value is refused), cap >= 1, at least
    one threshold, W_0 >= 2, none above the cap, and each above its
    predecessor except in a tail parked at the cap.
    """
    cap = _cap_int(cap)
    ws = _threshold_ints(thresholds)
    if not ws:
        raise ValueError("ladder needs at least one threshold")
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
    """

    thresholds: tuple[int, ...]
    cap: int

    def __post_init__(self):
        ws, cap = _ladder_ints(self.thresholds, self.cap)
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

    @classmethod
    def _unchecked(cls, thresholds, cap):
        """The ladder of an int tuple and int cap that pass the rule, not checked again."""
        ladder = object.__new__(cls)
        ladder.__dict__.update(thresholds=thresholds, cap=cap)
        return ladder

    @property
    def k_max(self):
        return len(self.thresholds) - 1


@dataclass(frozen=True)
class FixedPointResult:
    """Solution of the transmission-probability fixed point: tau, p(tau), the
    evaluations of g it took and the residual |g(tau)|."""

    tau: float
    p: float
    iterations: int
    residual: float


_UNIT_ROUNDOFF = sys.float_info.epsilon / 2.0


def _each(fn, *arrays):
    """``fn`` of each point of the 1-D ``arrays``, one at a time in Python's ``math``, as an array.

    So the bits do not follow numpy's SIMD paths or the points beside them:
    every ``log1p``, ``expm1`` and ``exp`` whose bits reach a tau, p,
    residual, W_0 or U runs here.  Only the fixed-point search, which
    steers and fixes nothing, takes numpy's ufuncs (``_p_steer``).
    """
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def _log_q(t, exponent):
    """ln (1 - t)^exponent = exponent * log1p(-t) of an array of points, as an array.

    Formed this way the power keeps its relative accuracy, about
    (|exponent * t| + 2) u; ``pow`` would first round 1 - t, which costs
    about exponent * u relative.
    """
    return exponent * _each(math.log1p, -t)


def _p(t, exponent):
    """The one p(t) = 1 - (1 - t)^exponent: -expm1 of ``_log_q``, accurate far below roundoff.

    Exact per point in Python's ``math``: the only p whose bits reach a
    result (the grid finish, p and the residual at tau, p* of the crossing
    search).
    """
    return -_each(math.expm1, _log_q(t, exponent))


def _p_steer(t, exponent):
    """``_p`` in numpy's array ufuncs, for the fixed-point search alone, which it only steers.

    The same formula in about a tenth of the time on a few hundred points
    (6 against 77 us on 320, 2-core Xeon with AVX-512); numpy's SIMD paths
    round a few percent of points an ulp or so away from ``_p``, which
    moves where the search ends but not the tau the grid finish reads off.
    """
    return -np.expm1(exponent * np.log1p(-t))


def _td(t, p, lower, w_top, exponent=None):
    """(t D(p), g'(t) or None) at points t of collision probability p; the fixed point has t D = 2.

    D(p) = (1-p) * sum_{k<K} p^k W_k + p^K W_K + 1, the only place D, t D
    and the slope g' of g(t) = t D(p(t)) - 2 are formed.  ``t`` and ``p``
    are 1-D arrays of M points, one per ladder, p = ``_p(t, exponent)``:
    ``w_top`` (W_K) is shaped like t and ``lower`` is the K columns
    W_0..W_{K-1} of the (M, K) thresholds, all floats.  Every operation is
    elementwise, so each point's results are those of its one-point call,
    bit for bit.  Given the ``exponent`` that formed p, the derivative
    g' = D + t * D'(p) * p'(t) is carried alongside; it does not touch t D.
    """
    acc = 0.0
    p_pow = 1.0
    d_acc = 0.0
    d_pow = 0.0  # d/dp of p_pow
    for w in lower:
        acc += p_pow * w
        if exponent is not None:
            d_acc += d_pow * w
            d_pow = d_pow * p + p_pow
        p_pow *= p
    d = (1.0 - p) * acc + p_pow * w_top + 1.0
    if exponent is None:
        return t * d, None
    d_slope = (1.0 - p) * d_acc - acc + d_pow * w_top
    return t * d, d + t * d_slope * exponent * (1.0 - p) / (1.0 - t)


# a Newton step in ln t this small, or this small an estimate of the error
# it leaves, ends a row's search: its root then lies in the grid cell of
# the step's end or in one beside it
_STEP_FLOOR = 2.0 ** -40
# the grid that fixes each root: the floats whose bit pattern ends in this
# many zero bits, 2^-33 to 2^-32 of t apart
_GRID_BITS = 20


def _solve_taus(rows, n_nodes):
    """The fixed point tau of many threshold rows that share K, each at its own density.

    ``rows`` is an (M, K+1) array-like of thresholds.  Returns tau and the
    evaluations of g it took as two arrays, without the evaluation at tau
    that ``_solve_rows`` adds for p and the residual.  All rows run in
    lockstep through ``_td`` on arrays, and every operation is elementwise,
    so a row's tau does not depend on the rows solved beside it.

    Arithmetic.  The search only steers: its p comes from ``_p_steer`` and
    its step's power from ``np.power``, numpy's array ufuncs, whose SIMD
    paths round a few percent of points differently from Python's ``math``.
    The finish is exact per point: its p comes from ``_p``, and tau is read
    off the grid from the sign of that g alone, so it has the same bits
    wherever the search ended (see Finish), on any host.  Only the count of
    evaluations can follow the host: the search may stop a step earlier or
    later, or end in the cell beside the root's, where the finish walks one
    cell more.

    Search.  Newton on ln(t D / 2) = ln(1 + g / 2) as a function of ln t,
    safeguarded by each row's bracket [2/(W_K+1), 2/(W_0+1)], which holds
    the root because D - 1 is a convex combination of the W_k.  A row
    starts at the top of its bracket, and each evaluation of g moves the
    bracket end on its side of the root.  The row takes the Newton step
    when the step stays in the bracket and at most halves the step before
    it, and otherwise a geometric bisection sqrt(lo * hi), which halves the
    bracket in ln t.  The search ends at a step, or an estimate of the
    error it leaves (after a step s that followed a step s', about
    s^2 max(1, s / s'^2)), below ``_STEP_FLOOR``, where g is exactly 0, or
    where the bracket has collapsed.  Its bracket is at most
    ln(cap) <= 710 wide in ln t, so about 62 bisections collapse it, and
    between two bisections the Newton steps halve until they fall below
    the floor, so every row ends.  An evaluation whose t D or g' overflowed
    takes no Newton step; a NaN t D counts as above the root, where D
    overflows.

    Finish.  The root is then read off a fixed grid of t, the floats whose
    bit pattern ends in ``_GRID_BITS`` zero bits: g is evaluated at the
    grid points c below and c' above the search's end, the pair moving one
    cell while g does not change sign between them, and tau is the secant
    c + (c' - c) / (1 + g(c') / -g(c)), clipped to the bracket.  The cell
    is 2^-33 to 2^-32 of t wide, so the secant is off by about 1e-20
    times the curvature of g in ln t.  The float error of g, at most
    2u (6K + 10)(t D + 2), moves the root by at most 4 (6K + 10) units of
    roundoff, under 2^-38 of t for K < 1024 and so at least 32 times less
    than a cell: only one grid point can take the wrong sign, and the cell
    is the one where g changes sign on the grid, whatever the search did.
    So tau depends on the ladder only through g at grid points, and it
    keeps the order of the exact roots: a ladder whose thresholds are all
    at least another's has a float g at least the other's at every t
    (``_td`` adds and multiplies nonnegative terms), so its cell lies no
    higher, its secant no further up a shared cell, and its bracket ends no
    higher.

    Rows with one node or W_0 = W_K have the closed form tau = 2 / (W_0 + 1)
    and no evaluation.  Any other row typically takes three to five
    evaluations of g in the search and two in the finish.
    """
    ws = np.asarray(rows, float).T
    exponents = np.array(n_nodes, float) - 1.0
    bottom, top = 2.0 / (ws[-1] + 1.0), 2.0 / (ws[0] + 1.0)
    tau, evaluations = top.copy(), np.zeros(ws.shape[1], int)
    # the state of the rows that search, compressed as rows end
    live = np.flatnonzero((exponents != 0.0) & (bottom != top))
    e, lower, w_top, lo, hi = exponents[live], ws[:-1, live], ws[-1, live], bottom[live], top[live]
    # last: the row's last Newton step, inf after a bisection
    x, last = hi, np.full(live.size, np.inf)
    # the rows that end their search, and where
    ended, ends = [np.zeros(0, int)], [np.zeros(0)]
    # an overflowed t D or g' takes a bisection; numpy need not report it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            td, slope = _td(x, _p_steer(x, e), lower, w_top, e)
            val = td - 2.0
            evaluations[live] += 1
            below = val < 0.0
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            # ln t moves by -ln(t D / 2) D / g', as one power per point; the
            # factor -D/g' lies in [-1, 0], as g' >= D, so no power overflows
            power = np.clip(-td / (x * slope), -1.0, 0.0)
            y = x * np.power(0.5 * td, power)
            size, finite = np.abs(y - x) / x, slope < np.inf
            converged = finite & ((size <= _STEP_FLOOR) | (
                size * np.maximum(size, size * size / (last * last)) <= _STEP_FLOOR))
            newton = (lo <= y) & (y <= hi) & finite & (converged | (size <= 0.5 * last))
            mid = np.sqrt(lo) * np.sqrt(hi)
            # a Newton step short of the floor, or a bisection strictly inside the bracket
            go = (val != 0.0) & np.where(newton, ~converged & (y != x), (lo < mid) & (mid < hi))
            ended.append(live[~go])
            ends.append(np.where(newton, y, x)[~go])
            state = (live, np.where(newton, y, mid), e, w_top, lo, hi,
                     np.where(newton, size, np.inf))
            live, x, e, w_top, lo, hi, last = (a[go] for a in state)
            lower = lower[:, go]

        live = np.concatenate(ended)
        cell = np.int64(1) << _GRID_BITS
        grid = np.concatenate(ends).view(np.int64) >> _GRID_BITS << _GRID_BITS
        while live.size:
            k = live.size
            c = np.concatenate([grid, grid + cell]).view(float)
            both = np.concatenate([live, live])
            td = _td(c, _p(c, exponents[both]), ws[:-1, both], ws[-1, both])[0]
            evaluations[live] += 2
            # g(c) <= 0 < g(c'), a NaN t D counting as above the root
            at_or_below, above = td[:k] <= 2.0, ~(td[k:] <= 2.0)
            done = at_or_below & above
            rise = np.where(np.isnan(td[k:]), np.inf, td[k:] - 2.0) / (2.0 - td[:k])
            found = live[done]
            tau[found] = np.clip((c[:k] + (c[k:] - c[:k]) / (1.0 + rise))[done],
                                 bottom[found], top[found])
            grid = np.where(above, grid - cell, grid + cell)[~done]
            live = live[~done]
    return tau, evaluations


def _solve_rows(rows, n_nodes):
    """``solve_tau`` of many threshold rows that share K, each at its own density.

    ``rows`` is an (M, K+1) array-like of thresholds.  Returns the fields of
    each row's FixedPointResult as four lists, tau, p, iterations and
    residual: ``_solve_taus``' tau and one more evaluation of g there, with
    the exact ``_p`` in Python's ``math``, so p and the residual, like tau,
    do not follow numpy's SIMD paths.  A row's result does not depend on
    the rows beside it: ``solve_tau`` is the one-row call.
    """
    tau, evaluations = _solve_taus(rows, n_nodes)
    ws, exponents = np.asarray(rows, float).T, np.array(n_nodes, float) - 1.0
    p = _p(tau, exponents)
    with np.errstate(over="ignore", invalid="ignore"):
        td = _td(tau, p, ws[:-1], ws[-1])[0]
    return tau.tolist(), p.tolist(), (evaluations + 1).tolist(), np.abs(td - 2.0).tolist()


def solve_tau(ladder, n_nodes):
    """Solve tau = 2 / D(N, tau): the root of g(tau) = tau * D(p(tau)) - 2.

    g is strictly increasing on (0, 1) for any valid ladder, so the root is
    unique, and it lies in [2/(W_K+1), 2/(W_0+1)] because D - 1 is a convex
    combination of the W_k.  With K = 0, a single node or W_0 = W_K the
    collision probability drops out and tau = 2 / (W_0 + 1) exactly.
    Otherwise a safeguarded Newton in log tau narrows the root to a cell of
    a fixed grid of t where float g changes sign, and a secant across that
    cell gives tau within a few units of roundoff; so tau never rises when
    a threshold grows.  ``_solve_rows`` of one row, whose ``_solve_taus``
    has the method.  ``iterations`` counts evaluations of g, whose search
    share may differ by host SIMD path where tau does not, and
    ``residual`` is |g| at tau.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    return FixedPointResult(*(column[0] for column in _solve_rows([ladder.thresholds], [n_nodes])))


def throughput(tau, n_nodes, params):
    """Saturation throughput U(tau) for N nodes transmitting w.p. tau per slot.

    U = N tau (1-tau)^(N-1) T_P / [ (1-tau)^N T_sigma
        + N tau (1-tau)^(N-1) (T_s - T_c) + (1 - (1-tau)^N) T_c ].
    ``_throughputs`` of one point.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    return float(_throughputs(np.array([tau]), np.array([n_nodes], float), params)[0])


def _throughputs(taus, ns, params):
    """``throughput`` of each point (tau, N) of two 1-D float arrays, without its range checks.

    (1 - tau)^(N-1) is exp((N - 1) log1p(-tau)) and 1 - (1 - tau)^N is
    -expm1(N log1p(-tau)), accurate at any density a float holds (see
    ``optimize_tau``); at tau = 1, where log1p(-1) raises, the powers are
    exactly 0, or 1 for one node.  ``log1p``, ``exp`` and ``expm1`` run
    one point at a time and all else is elementwise, so each point has the
    bits of its one-point call.
    """
    full = taus == 1.0
    log_q = _log_q(np.where(full, 0.0, taus), 1.0)
    q = np.where(full, ns == 1.0, _each(math.exp, (ns - 1.0) * log_q))
    q_all = np.where(full, 0.0, _each(math.exp, ns * log_q))
    busy = np.where(full, 1.0, -_each(math.expm1, ns * log_q))  # 1 - (1 - tau)^N
    p_succ = ns * taus * q
    num = p_succ * params.payload_us
    den = (q_all * params.slot_time_us
           + p_succ * (params.success_us - params.collision_us)
           + busy * params.collision_us)
    return num / den


def optimize_taus(densities, params):
    """``optimize_tau``'s tau* of every density, as a list: one Newton solve on arrays."""
    if any(n > 2 ** 53 for n in densities):
        raise ValueError("n_nodes must be <= 2**53, the largest density a float holds exactly")
    ns = np.array(densities, float)
    if np.any(ns < 2):
        raise ValueError(f"n_nodes must be >= 2, got {min(densities)}")
    c = params.collision_us / params.slot_time_us
    t = 1.0 / ns
    live = np.arange(len(ns))
    while live.size:
        n, x = ns[live], t[live]
        # (1 - tau)^(N-1), one point at a time
        q = _each(math.exp, _log_q(x, n - 1.0))
        x_next = x + ((1.0 - c) * q * (1.0 - x) - c * (n * x - 1.0)) / (n * ((1.0 - c) * q + c))
        # a step toward the root moves down for c > 1 and up for c < 1
        moves = (x_next - x) * (1.0 - c) > 0.0
        live = live[moves]
        t[live] = x_next[moves]
    return t.tolist()


def optimize_tau(n_nodes, params):
    """The tau that maximizes U at N >= 2 nodes, and U there: ``(tau_star, u_star)``.

    Maximizing U is minimizing [(1 - P_tr) sigma + P_tr T_c] / P_s.  With
    c = T_c / sigma its derivative vanishes at the root of Bianchi's
    maximum-throughput condition (IEEE JSAC 2000),

        f(tau) = (1 - c)(1 - tau)^N - c (N tau - 1),

    unique in (0, 1): f(0) = 1, f(1) = -c (N - 1) and
    f' = -N [(1 - c)(1 - tau)^(N-1) + c] < 0 for every c > 0.  tau* lies
    below 1/N exactly when T_c > sigma.  Newton from 1/N moves monotonically
    to it: f(1/N) and f'' = N (N - 1)(1 - c)(1 - tau)^(N-2) have the sign of
    1 - c, so f is concave where the start lies right of the root (c > 1)
    and convex where it lies left (c < 1), and each tangent's zero lies
    between its point and the root.  For c = 1 the root is 1/N.  A row
    stops at its first float step that does not move toward the root.

    (1 - tau)^e is exp(e * log1p(-tau)), whose exponent, about -N tau,
    carries a few units of roundoff u; ``pow`` would first round 1 - tau,
    about N u relative in the power: 3e-6 off at N = 10^9 and no root at
    10^15, where this form stays within 2e-14.  Python's ``math`` takes it
    one point at a time, so the bytes do not follow numpy's SIMD path, and
    every other operation is elementwise, so a row's tau* does not depend
    on the rows solved beside it.  ``optimize_taus`` solves many densities.
    """
    (tau_star,) = optimize_taus([n_nodes], params)
    return tau_star, throughput(tau_star, n_nodes, params)


def _beb_rows(w0, k_max, cap):
    """The BEB thresholds of every W_0 in ``w0`` as floats, fl(min(2^k W_0, cap)): (K+1, M).

    ldexp(fl(W_0), k) is fl(2^k W_0) exactly, or inf past float range,
    which the cap clamps; rounding is monotone, so the minimum with
    fl(cap) is fl(min(2^k W_0, cap)), the float of ``_beb``'s threshold.
    """
    with np.errstate(over="ignore"):
        return np.minimum(np.ldexp(np.asarray(w0, float), np.arange(k_max + 1)[:, None]),
                          float(cap))


def _crossings(tau_stars, densities, k_max, cap):
    """Per row, the largest W_0 in (2, cap) with fl(tau_star * D_{beb(W_0)}(p*)) <= 2, else 2.

    p* = p(tau_star), formed once by ``_p``, and D is the one ``_td`` forms
    on min(2^k W_0, cap).  The float predicate is monotone in W_0: the
    powers p^k do not depend on W_0, each term is a fixed nonnegative float
    times the float of a nondecreasing integer, the sums add nonnegative
    terms, and rounding is monotone, so fl(tau_star * D) never falls as W_0
    grows.  A binary search therefore returns exactly this W_0: from 2, W_0
    takes each step 2^j, largest first, that stays below the cap and keeps
    the predicate; all rows at once, one ``_td`` call per step.  W_0 stays
    an exact int (int64 while W_0 + step fits), and the stages are
    ``_beb_rows``' floats for a cap that fits in a float.
    """
    t = np.array(tau_stars, float)
    p_star = _p(t, np.array(densities, float) - 1.0)
    w0 = np.full(len(t), 2, np.int64 if cap < 1 << 62 else object)
    # near float range D may overflow: inf keeps the predicate false, as does a NaN D
    with np.errstate(over="ignore", invalid="ignore"):
        for j in reversed(range((cap - 3).bit_length())):  # every step 2^j <= cap - 3
            mid = w0 + (1 << j)
            ws = _beb_rows(mid, k_max, cap)
            holds = (_td(t, p_star, ws[:-1], ws[-1])[0] <= 2.0) & (mid < cap)
            w0 = np.where(holds, mid, w0)
    return w0.tolist()


def _outcome(value):
    """A stored result, or raise the stored error."""
    if isinstance(value, Exception):
        raise value
    return value


def solve_ladders(tau_stars, densities, k_max, cap):
    """For every row (tau_star, N), the BEB ladder whose fixed point is closest to tau_star.

    Returns one outcome per row: the ``(ladder, fixed_point)`` pair, the
    second equal field for field to ``solve_tau(ladder, N)``, or the
    ValueError or LadderSearchError of that row, so that callers need not
    solve the ladder again and one row's failure leaves the others alone.
    ``solve_ladder`` is the one-row case.

    Restricting the inverse problem to the BEB shape W_k = min(2^k W_0, cap)
    makes it well-posed: tau decreases in W_0, so the crossing of tau_star
    is bracketed by two adjacent W_0, and the floor or ceiling with the
    smaller residual |tau(W_0) - tau_star| is chosen, the floor on a tie.
    Where many W_0 solve to one tau (large N, small cap) one of them is
    chosen, not always the smallest.  A row gets a LadderSearchError when
    even W_0 = 2 cannot reach its tau_star, and the all-cap ladder when
    even W_0 = cap does not fall below it.

    A row costs two fixed-point rows, the floor and the ceiling, plus at
    most 2 + ceil(log2(cap - 2)) evaluations of g at tau_star.  Each step
    runs for all rows at once:

    1. Crossing.  g(tau) = tau * D(p(tau)) - 2 increases strictly in tau, so
       tau(W_0) >= tau_star exactly when tau_star * D_{W_0}(p*) <= 2, with
       p* = p(tau_star); ``_crossings`` binary-searches the last such W_0.
    2. Fixed points.  One ``_solve_rows`` call solves the floor and the
       ceiling of every row.
    3. Choice.  The bracket ends need no rows of their own.  Only a row
       whose crossing is W_0 = 2 can lie above the W_0 = 2 ladder, and that
       ladder is its floor: it gets the LadderSearchError, whose message
       names that tau, when tau_star lies above it.  Only a row whose
       crossing is cap - 1 can lie at or below the all-cap ladder, and that
       ladder is its ceiling: it gets the all-cap ladder when tau_star lies
       at or below it.  Every other row keeps the closer of its floor and
       ceiling.  (If the crossing is past W_0 = 2, the float predicate holds
       at W_0 = 3 and so, D growing in W_0, at W_0 = 2: tau_star lies below
       the W_0 = 2 root up to its rounding.  The all-cap end is alike.)
    """
    tau_stars, densities = list(tau_stars), list(densities)
    out = [None] * len(tau_stars)
    refused = None
    try:
        k_max, cap = _k_max_int(k_max), _cap_int(cap)
        # exact int/float comparison: the design takes the cap as a float
        if cap > sys.float_info.max:
            raise ValueError(f"cap must fit in a float, got a {cap.bit_length()}-bit integer")
        # cap < 2^k_max for cap >= 1, without forming 2^k_max
        if cap.bit_length() <= k_max:
            raise ValueError(f"cap must be >= 2^k_max with k_max = {k_max}, got {cap}")
        # W_0 = 2 under the cap: refuses cap = 1.  Every BEB ladder of a
        # W_0 in [2, cap] then passes the rule, so none is checked again
        _ladder_ints(_beb(2, k_max, cap), cap)
    except ValueError as exc:
        refused = str(exc)
    for i, (tau_star, n) in enumerate(zip(tau_stars, densities)):
        if not 0.0 < tau_star < 1.0:
            out[i] = ValueError(f"tau_star must lie in (0, 1), got {tau_star}")
        elif refused is not None:
            out[i] = ValueError(refused)
        elif n < 1:
            out[i] = ValueError(f"n_nodes must be >= 1, got {n}")

    live = [i for i, done in enumerate(out) if done is None]
    if not live:
        return out
    ns, taus = [densities[i] for i in live], [tau_stars[i] for i in live]
    # tau(floor) >= tau_star > tau(floor + 1)
    floors = _crossings(taus, ns, k_max, cap)
    fields = _solve_rows(_beb_rows(floors + [w0 + 1 for w0 in floors], k_max, cap).T, ns + ns)
    m = len(live)
    for j, (i, tau_star, w0) in enumerate(zip(live, taus, floors)):
        low, high = fields[0][j], fields[0][m + j]
        if w0 == 2 and tau_star > low:
            out[i] = LadderSearchError(
                f"no W_0 >= 2 reaches tau = {tau_star:.6g}; "
                f"closest is W_0 = 2 with tau = {low:.6g} "
                f"(residual {tau_star - low:.3g})")
            continue
        # the all-cap ceiling, else the closer of floor and ceiling, the floor on a tie
        if (w0 + 1 >= cap and tau_star <= high) or abs(low - tau_star) > abs(high - tau_star):
            w0, j = w0 + 1, m + j
        out[i] = (BackoffLadder._unchecked(tuple(_beb(w0, k_max, cap)), cap),
                  FixedPointResult(*(column[j] for column in fields)))
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
    ValueError the ladder path raises, with the same message.
    ``_rule_holds`` passes most rows in one array expression; the rest go
    through the ladder's own rule (``_ladder_ints``), so a row is refused
    exactly when the ladder is.  Only a row that ``_rule_holds`` fails, or
    whose density is below 1, is looked at on its own.  Every row that passes is
    solved in one ``_solve_taus`` call and its U in one ``_throughputs``
    call.  For many deployed ladders, such as eval's cells and its
    ``n_est`` ladder at each density.
    """
    holds = _rule_holds(rows, cap)
    ok = holds & (np.asarray(n_nodes) >= 1)
    out = [None] * len(rows)
    for i in np.flatnonzero(~ok).tolist():
        try:
            if not holds[i]:
                _ladder_ints(rows[i].tolist() if isinstance(rows, np.ndarray) else rows[i], cap)
            if n_nodes[i] < 1:
                raise ValueError(f"n_nodes must be >= 1, got {n_nodes[i]}")
        except ValueError as exc:
            out[i] = exc
            continue
        ok[i] = True
    solve = np.flatnonzero(ok).tolist()
    if solve:
        # a row that passes holds integral thresholds, whose floats are the ladder's
        ns = [n_nodes[i] for i in solve]
        ws = rows[solve] if isinstance(rows, np.ndarray) else [rows[i] for i in solve]
        us = _throughputs(_solve_taus(ws, ns)[0], np.array(ns, float), params)
        for i, u in zip(solve, us.tolist()):
            out[i] = u
    return out


def mismatch_loss(n_true, n_est, k_max, cap, params):
    """Throughput lost by designing for an estimated density ``n_est``.

    Both ladders are synthesized through the same optimize/synthesize path
    and evaluated at the true density; the gap is >= 0 up to the one-step
    quantization noise of integer ladders.
    """
    if n_true < 2 or n_est < 2:
        raise ValueError("both densities must be >= 2")
    densities = [n_true, n_est]
    designs = solve_ladders(optimize_taus(densities, params), densities, k_max, cap)
    (_, matched), (ladder_est, _) = map(_outcome, designs)
    return throughput(matched.tau, n_true, params) - ladder_throughput(ladder_est, n_true, params)
