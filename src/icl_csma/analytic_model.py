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
import sys
from dataclasses import dataclass, field

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
    "design_ladder",
    "ladder_throughput",
    "mismatch_loss",
]


class FixedPointError(RuntimeError):
    """Fixed-point solver failed to reach the requested residual."""


class LadderSearchError(RuntimeError):
    """No integer ladder reaches the requested transmission probability."""


@dataclass(frozen=True)
class NetworkParams:
    """Channel timing constants, all in microseconds.

    Defaults are the standard 1 Mbps DCF setting used throughout the
    saturation-throughput literature.  Note that the tabulated collision time
    (8783) is kept verbatim even though the component sum
    header + payload + DIFS + delta gives 8713; pass ``collision_us``
    explicitly to use the component sum instead.
    """

    slot_time_us: float = 50.0
    difs_us: float = 128.0
    sifs_us: float = 28.0
    prop_delay_us: float = 1.0
    ack_us: float = 240.0
    header_us: float = 400.0
    payload_us: float = 8184.0
    success_us: float = 8982.0
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
        "t_difs_us": "difs_us",
        "t_sifs_us": "sifs_us",
        "t_delta_us": "prop_delay_us",
        "t_ack_us": "ack_us",
        "t_header_us": "header_us",
        "t_p_us": "payload_us",
        "t_s_us": "success_us",
        "t_c_us": "collision_us",
    }

    @classmethod
    def from_mapping(cls, mapping):
        """Build params from a dict with t_sigma_us/... keys; missing keys default."""
        unknown = set(mapping) - set(cls._CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown network parameter keys: {sorted(unknown)}")
        kwargs = {attr: mapping[key] for key, attr in cls._CONFIG_KEYS.items() if key in mapping}
        return cls(**kwargs)

    def to_mapping(self):
        return {key: getattr(self, attr) for key, attr in self._CONFIG_KEYS.items()}


@dataclass(frozen=True)
class BackoffLadder:
    """Contention window thresholds W_0..W_K, capped at ``cap``.

    Thresholds must be integers >= 2 and strictly increasing, except that a
    tail of entries equal to ``cap`` is allowed (a capped BEB ladder saturates
    there).  ``degenerate=True`` bypasses the W_0 >= 2 and strictness checks
    for simulator stress inputs; the fixed-point solver rejects such ladders.
    """

    thresholds: tuple[int, ...]
    cap: int
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(int(w) for w in self.thresholds))
        if not self.thresholds:
            raise ValueError("ladder needs at least one threshold")
        if self.cap < 1:
            raise ValueError("cap must be a positive integer")
        ws = self.thresholds
        if any(w < 1 or w > self.cap for w in ws):
            raise ValueError(f"thresholds must lie in [1, cap={self.cap}]: {ws}")
        if self.degenerate:
            if any(b > a for a, b in zip(ws[1:], ws)):
                raise ValueError(f"thresholds must be non-decreasing: {ws}")
            return
        if ws[0] < 2:
            raise ValueError("W_0 must be >= 2 (W_0 = 1 has no interior fixed point)")
        for prev, cur in zip(ws, ws[1:]):
            if cur <= prev and not (cur == self.cap and prev == self.cap):
                raise ValueError(f"thresholds must increase strictly below the cap: {ws}")

    @classmethod
    def beb(cls, w0, k_max, cap):
        """Binary-exponential ladder W_k = min(2^k * w0, cap)."""
        return cls(tuple(min((1 << k) * int(w0), int(cap)) for k in range(k_max + 1)), int(cap))

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


def _denominator(ws, p):
    """D(N, tau) = (1-p) * sum_{k<K} p^k W_k + p^K W_K + 1 for thresholds ``ws``, p = p(tau)."""
    k_top = len(ws) - 1
    acc = 0.0
    p_pow = 1.0
    for k in range(k_top):
        acc += p_pow * ws[k]
        p_pow *= p
    return (1.0 - p) * acc + p_pow * ws[k_top] + 1.0


def solve_tau(ladder, n_nodes, tol=1e-10, max_iter=200):
    """Solve tau = 2 / D(N, tau) by bisection on g(tau) = tau * D - 2.

    g is strictly increasing on (0, 1) for any valid ladder, so the root is
    unique and bisection cannot fail to bracket it.  With K = 0 or a single
    node the collision probability drops out and tau = 2 / (W_0 + 1) exactly.
    Each step evaluates g inline -- p = 1 - (1 - t)^(N-1), then D by the loop
    of ``_denominator`` -- with the same float operations in the same order
    as ``collision_prob`` and ``_denominator``, so the result is bit for bit
    what composing them gives.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    ws = ladder.thresholds
    if ws[0] < 2:
        raise ValueError("ladder with W_0 < 2 pins tau at the boundary; rejected")
    if n_nodes == 1 or len(ws) == 1:
        tau = 2.0 / (ws[0] + 1.0)
        p = collision_prob(tau, n_nodes)
        return FixedPointResult(tau, p, 0, abs(tau * _denominator(ws, p) - 2.0))

    exponent = n_nodes - 1
    lower = [float(w) for w in ws[:-1]]
    w_top = float(ws[-1])
    lo, hi = 1e-12, 1.0  # g(lo) ~ -2 and g(1^-) -> W_K - 1 > 0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        p = 1.0 - (1.0 - mid) ** exponent
        acc = 0.0
        p_pow = 1.0
        for w in lower:
            acc += p_pow * w
            p_pow *= p
        val = mid * ((1.0 - p) * acc + p_pow * w_top + 1.0) - 2.0
        if abs(val) <= tol:
            return FixedPointResult(mid, p, it, abs(val))
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    residual = mid * _denominator(ws, collision_prob(mid, n_nodes)) - 2.0
    raise FixedPointError(
        f"no convergence after {max_iter} bisections (residual {residual:.3e}); "
        "ladder is likely malformed")


def throughput(tau, n_nodes, params):
    """Saturation throughput U(tau) for N nodes transmitting w.p. tau per slot.

    U = N tau (1-tau)^(N-1) T_P / [ (1-tau)^N T_sigma
        + N tau (1-tau)^(N-1) (T_s - T_c) + (1 - (1-tau)^N) T_c ].
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
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

    The maximizer always lies strictly below 1/N (the success probability
    N tau (1-tau)^(N-1) already peaks there and the busy-time penalty only
    pushes it lower), so the bracket (1e-6, 1/N) is safe.  Returns
    (tau_star, u_star).
    """
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-6, 1.0 / n_nodes

    def u(t):
        return throughput(t, n_nodes, params)

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


def _beb_tau(w0, n_nodes, k_max, cap):
    return solve_tau(BackoffLadder.beb(w0, k_max, cap), n_nodes).tau


def solve_ladder(tau_star, n_nodes, k_max, cap):
    """Synthesize the BEB ladder whose fixed point is closest to ``tau_star``.

    Restricting the inverse problem to the BEB shape W_k = min(2^k W_0, cap)
    makes it well-posed: tau decreases in W_0, so bisection brackets the
    crossing and returns the floor or ceiling W_0 with the smaller residual
    |tau(W_0) - tau_star|, the floor on a tie.  Where many W_0 solve to one
    tau (large N, small cap) it returns one of them, not always the smallest.
    Raises LadderSearchError when even W_0 = 2 cannot reach ``tau_star``.

    The bracketing needs no fixed-point solve: at the target the collision
    probability p* = p(tau_star) is fixed, and g(tau) = tau * D(p(tau)) - 2
    increases strictly in tau, so tau(W_0) >= tau_star exactly when
    tau_star * D_{W_0}(p*) <= 2.  Each step evaluates D on the thresholds
    min(2^k W_0, cap) directly, without building a ladder.  Real
    ``solve_tau`` calls remain only at the bracket ends (W_0 = 2 for the
    error, W_0 = cap for the early return) and for the floor/ceiling
    tie-break: four per call.
    """
    if not 0.0 < tau_star < 1.0:
        raise ValueError(f"tau_star must lie in (0, 1), got {tau_star}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if cap < (1 << k_max):
        raise ValueError(f"cap must be >= 2^k_max = {1 << k_max}, got {cap}")
    tau_top = _beb_tau(2, n_nodes, k_max, cap)
    if tau_star > tau_top:
        raise LadderSearchError(
            f"no W_0 >= 2 reaches tau = {tau_star:.6g}; "
            f"closest is W_0 = 2 with tau = {tau_top:.6g} "
            f"(residual {tau_star - tau_top:.3g})")
    tau_bottom = _beb_tau(cap, n_nodes, k_max, cap)
    if tau_star <= tau_bottom:
        return BackoffLadder.beb(cap, k_max, cap)
    p_star = collision_prob(tau_star, n_nodes)
    # invariant: tau(lo_w) >= tau_star > tau(hi_w)
    lo_w, hi_w = 2, cap
    while hi_w - lo_w > 1:
        mid = (lo_w + hi_w) // 2
        beb_mid = [min((1 << k) * mid, cap) for k in range(k_max + 1)]
        if tau_star * _denominator(beb_mid, p_star) <= 2.0:
            lo_w = mid
        else:
            hi_w = mid
    res_lo = abs(_beb_tau(lo_w, n_nodes, k_max, cap) - tau_star)
    res_hi = abs(_beb_tau(hi_w, n_nodes, k_max, cap) - tau_star)
    best = lo_w if res_lo <= res_hi else hi_w
    return BackoffLadder.beb(best, k_max, cap)


def design_ladder(n_nodes, params, k_max, cap):
    """Convenience: optimize tau for ``n_nodes`` and synthesize its ladder."""
    tau_star, _ = optimize_tau(n_nodes, params)
    return solve_ladder(tau_star, n_nodes, k_max, cap)


def ladder_throughput(ladder, n_nodes, params):
    """Throughput of a ladder deployed at density ``n_nodes`` (fixed point + U)."""
    return throughput(solve_tau(ladder, n_nodes).tau, n_nodes, params)


def mismatch_loss(n_true, n_est, k_max, cap, params):
    """Throughput lost by designing for an estimated density ``n_est``.

    Both ladders are synthesized through the same optimize/synthesize path
    and evaluated at the true density; the gap is >= 0 up to the one-step
    quantization noise of integer ladders.
    """
    if n_true < 2 or n_est < 2:
        raise ValueError("both densities must be >= 2")
    u_matched = ladder_throughput(design_ladder(n_true, params, k_max, cap), n_true, params)
    u_mismatched = ladder_throughput(design_ladder(n_est, params, k_max, cap), n_true, params)
    return u_matched - u_mismatched
