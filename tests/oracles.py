"""Independent reference implementations used to check the library.

These deliberately avoid the library's solver routes: the fixed point is
located by dense grid sign-change scanning, optima by exhaustive grids,
gradients by central finite differences in the tests that use them, and the
event-skipping simulator by a chain that ticks every slot.  The
throughput-optimal tau* is checked against a plain bisection of its
optimality condition.  The ladder inverse is checked against the nested
bisection it replaced, which runs a full fixed-point solve at every
bracketing step, and its crossing search against the integer bisection on
the target's predicate.  Every fixed point is checked against its root in
40-digit mpmath arithmetic, certified by the sign of g on both sides, and
the throughput against the same formula in mpmath.  The array forms of dataset generation and label
corruption are checked against the per-example loops they replaced, which
draw one random vector or scalar per example, and an eval density's inputs
against the same loops drawing from one generator in the documented order.
The array repair of predicted ladders is checked against the per-entry loop
it replaced, which runs in Python ints, and the attention kernel, which
gathers each prompt's logits from the Gram matrix of its block through BLAS
products, against forward and backward passes that contract every prompt's
columns with einsum.
"""

import math
import sys

import mpmath
import numpy as np

from icl_csma import analytic_model as am
from icl_csma.analytic_model import (BackoffLadder, LadderSearchError, optimize_tau,
                                     solve_ladder, solve_tau)
from icl_csma.icl_transformer import round_threshold
from icl_csma.mac_simulator import SimResult


def grid_g(tau, thresholds, n_nodes):
    """g(tau) = tau * D(N, tau) - 2, vectorized over a tau grid."""
    tau = np.asarray(tau, dtype=float)
    p = 1.0 - (1.0 - tau) ** (n_nodes - 1)
    acc = np.zeros_like(tau)
    p_pow = np.ones_like(tau)
    for w in thresholds[:-1]:
        acc += p_pow * w
        p_pow = p_pow * p
    d = (1.0 - p) * acc + p_pow * thresholds[-1] + 1.0
    return tau * d - 2.0


def grid_tau(thresholds, n_nodes, fine_step=1e-8):
    """Fixed point by two-stage dense sign-change scan (the solver oracle)."""
    coarse = np.linspace(1e-9, 1.0 - 1e-9, 20001)
    values = grid_g(coarse, thresholds, n_nodes)
    signs = np.nonzero(np.diff(np.sign(values)) > 0)[0]
    lo, hi = coarse[signs[0]], coarse[signs[0] + 1]
    count = int(np.ceil((hi - lo) / fine_step)) + 2
    fine = np.linspace(lo, hi, count)
    values = grid_g(fine, thresholds, n_nodes)
    j = np.nonzero(np.diff(np.sign(values)) > 0)[0][0]
    return 0.5 * (fine[j] + fine[j + 1])


def _ladder_denominator(ladder, p):
    """D(N, tau) = (1-p) * sum_{k<K} p^k W_k + p^K W_K + 1, with p = p(tau)."""
    ws = ladder.thresholds
    k_top = len(ws) - 1
    acc = 0.0
    p_pow = 1.0
    for k in range(k_top):
        acc += p_pow * ws[k]
        p_pow *= p
    return (1.0 - p) * acc + p_pow * ws[k_top] + 1.0


def mpmath_tau(thresholds, n_nodes):
    """The root of g(t) = t * D(p(t)) - 2 in 40-digit mpmath arithmetic, as an mpf.

    The thresholds are taken exactly and p = -expm1((N - 1) log1p(-t)).  One
    node or W_0 = W_K gives 2 / (W_0 + 1).  Otherwise bisection in log t on
    Python floats narrows [2/(W_K+1), 2/(W_0+1)] to a relative width of
    1e-9, secant steps in ln t at 40 digits reach the root, and the sign of
    g at 1e-30 relative on either side of it proves it there, as g
    increases strictly.
    """
    e = n_nodes - 1
    if e == 0 or thresholds[0] == thresholds[-1]:
        return mpmath.mpf(2) / (thresholds[0] + 1)

    def g(t, log1p, expm1):
        p = -expm1(e * log1p(-t))
        acc, p_pow = 0, 1
        for w in thresholds[:-1]:
            acc += p_pow * w
            p_pow *= p
        return t * ((1 - p) * acc + p_pow * thresholds[-1] + 1) - 2

    lo, hi = 2.0 / (thresholds[-1] + 1.0), 2.0 / (thresholds[0] + 1.0)
    while hi > lo * (1.0 + 1e-9):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if g(mid, math.log1p, math.expm1) < 0.0:
            lo = mid
        else:
            hi = mid
    with mpmath.workdps(40):
        def exact(t):
            return g(t, mpmath.log1p, mpmath.expm1)
        root = mpmath.exp(mpmath.findroot(lambda s: exact(mpmath.exp(s)),
                                          (mpmath.log(lo), mpmath.log(hi)),
                                          solver="secant", verify=False))
        eps = mpmath.mpf(10) ** -30
        assert exact(root * (1 - eps)) < 0 < exact(root * (1 + eps)), "root not certified"
        return +root


def mpmath_throughput(tau, n_nodes, params):
    """``throughput``'s U(tau) in 40-digit mpmath arithmetic, as an mpf."""
    with mpmath.workdps(40):
        tau, n = mpmath.mpf(tau), mpmath.mpf(n_nodes)
        q = (1 - tau) ** (n - 1)
        p_succ = n * tau * q
        q_all = q * (1 - tau)
        t_s, t_c = mpmath.mpf(params.success_us), mpmath.mpf(params.collision_us)
        return +(p_succ * params.payload_us / (q_all * params.slot_time_us
                                               + p_succ * (t_s - t_c) + (1 - q_all) * t_c))


def reference_throughput(tau, n_nodes, params):
    """``throughput``'s U(tau) in Python floats: the scalar form ``_throughputs`` replaced.

    (1 - tau)^e is exp(e log1p(-tau)) and 1 - (1 - tau)^N is
    -expm1(N log1p(-tau)); at tau = 1 the powers are exactly 0, or 1 for
    one node.
    """
    if tau == 1.0:
        q, q_all, busy = float(n_nodes == 1), 0.0, 1.0
    else:
        log_q = math.log1p(-tau)
        q, q_all = math.exp((n_nodes - 1) * log_q), math.exp(n_nodes * log_q)
        busy = -math.expm1(n_nodes * log_q)
    p_succ = n_nodes * tau * q
    return p_succ * params.payload_us / (q_all * params.slot_time_us
                                         + p_succ * (params.success_us - params.collision_us)
                                         + busy * params.collision_us)


def reference_optimize_tau(n_nodes, params):
    """tau*, the root of Bianchi's condition f, by scalar bisection of (0, 1) to adjacent floats.

    f(tau) = (1 - c)(1 - tau)^N - c (N tau - 1), c = T_c / sigma, with
    (1 - tau)^N as exp(N log1p(-tau)); f(0) = 1 > 0 > f(1).  Returns the
    low end once the two ends are adjacent floats, or a midpoint where
    fl(f) is exactly 0.
    """
    c = params.collision_us / params.slot_time_us
    n = float(n_nodes)

    def f(t):
        return (1.0 - c) * math.exp(n * math.log1p(-t)) - c * (n * t - 1.0)

    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        value = f(mid)
        if value == 0.0:
            return mid
        if value > 0.0:
            lo = mid
        else:
            hi = mid


def random_ladder(rng, k_high=8, w0_high=1024):
    """Random strictly increasing ladder with W_0 in [2, w0_high], K <= k_high."""
    k = int(rng.integers(0, k_high + 1))
    ws = [int(rng.integers(2, w0_high + 1))]
    for _ in range(k):
        ws.append(ws[-1] + int(rng.integers(1, 2 * ws[-1] + 1)))
    return tuple(ws)


def _beb_tau(w0, n_nodes, k_max, cap):
    return solve_tau(BackoffLadder.beb(w0, k_max, cap), n_nodes).tau


def bisect_ladder(tau_star, n_nodes, k_max, cap):
    """BEB ladder closest to ``tau_star`` by bisection on solved taus.

    Same contract, checks and messages as ``solve_ladder``, but every step
    of the integer bisection on W_0 runs ``solve_tau`` (about 19 solves per
    call at the default cap).
    """
    if not 0.0 < tau_star < 1.0:
        raise ValueError(f"tau_star must lie in (0, 1), got {tau_star}")
    if k_max < 0:
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    if cap.bit_length() <= k_max:
        raise ValueError(f"cap must be >= 2^k_max with k_max = {k_max}, got {cap}")
    tau_top = _beb_tau(2, n_nodes, k_max, cap)
    if tau_star > tau_top:
        raise LadderSearchError(
            f"no W_0 >= 2 reaches tau = {tau_star:.6g}; "
            f"closest is W_0 = 2 with tau = {tau_top:.6g} "
            f"(residual {tau_star - tau_top:.3g})")
    tau_bottom = _beb_tau(cap, n_nodes, k_max, cap)
    if tau_star <= tau_bottom:
        return BackoffLadder.beb(cap, k_max, cap)
    lo_w, hi_w = 2, cap
    while hi_w - lo_w > 1:
        mid = (lo_w + hi_w) // 2
        if _beb_tau(mid, n_nodes, k_max, cap) >= tau_star:
            lo_w = mid
        else:
            hi_w = mid
    res_lo = abs(_beb_tau(lo_w, n_nodes, k_max, cap) - tau_star)
    res_hi = abs(_beb_tau(hi_w, n_nodes, k_max, cap) - tau_star)
    best = lo_w if res_lo <= res_hi else hi_w
    return BackoffLadder.beb(best, k_max, cap)


def bisect_crossing(tau_star, n_nodes, k_max, cap):
    """Largest W_0 in (2, cap) with fl(tau_star * D_{beb(W_0)}(p*)) <= 2, else 2.

    Integer bisection, one row at a time with the cap as an int: one
    evaluation of D per step, about 15 at the default cap.  ``_crossings``
    searches the same predicate for many rows at once.
    """
    p_star = float(am._p(np.array([tau_star]), n_nodes - 1.0)[0])
    lo_w, hi_w = 2, cap
    while hi_w - lo_w > 1:
        mid = (lo_w + hi_w) // 2
        if tau_star * _ladder_denominator(BackoffLadder.beb(mid, k_max, cap), p_star) <= 2.0:
            lo_w = mid
        else:
            hi_w = mid
    return lo_w


def reference_solve_ladder(tau_star, n_nodes, k_max, cap):
    """``solve_ladder`` one design at a time, the bracket ends solved on their own.

    The scalar design ``solve_ladders`` replaced: the W_0 = 2 end, the
    all-cap end, then the crossing by ``bisect_crossing`` and the floor and
    ceiling, each a ``solve_tau`` of its own.  Same contract, checks,
    results and messages.
    """
    if not 0.0 < tau_star < 1.0:
        raise ValueError(f"tau_star must lie in (0, 1), got {tau_star}")
    k_max, cap = am._k_max_int(k_max), am._cap_int(cap)
    if cap > sys.float_info.max:
        raise ValueError(f"cap must fit in a float, got a {cap.bit_length()}-bit integer")
    if cap.bit_length() <= k_max:
        raise ValueError(f"cap must be >= 2^k_max with k_max = {k_max}, got {cap}")
    # W_0 = 2 under the cap: refuses cap = 1
    top, _ = am._ladder_ints(am._beb(2, k_max, cap), cap)
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    tau_top = solve_tau(BackoffLadder(tuple(top), cap), n_nodes).tau
    if tau_star > tau_top:
        raise LadderSearchError(
            f"no W_0 >= 2 reaches tau = {tau_star:.6g}; "
            f"closest is W_0 = 2 with tau = {tau_top:.6g} "
            f"(residual {tau_star - tau_top:.3g})")
    bottom = solve_tau(BackoffLadder.beb(cap, k_max, cap), n_nodes)
    if tau_star <= bottom.tau:
        return BackoffLadder.beb(cap, k_max, cap), bottom
    # tau(floor) >= tau_star > tau(floor + 1)
    floor = bisect_crossing(tau_star, n_nodes, k_max, cap)
    below, above = BackoffLadder.beb(floor, k_max, cap), BackoffLadder.beb(floor + 1, k_max, cap)
    low, high = solve_tau(below, n_nodes), solve_tau(above, n_nodes)
    if abs(low.tau - tau_star) <= abs(high.tau - tau_star):
        return below, low
    return above, high


def slot_by_slot_sim(config):
    """Naive DCF chain: tick every virtual slot and decrement every counter.

    Draws one uniform at a time, in the documented order: the N initial
    counters in node order, then each transmitter of a busy slot, in ascending
    node order, after its stage update.  Counter at stage k = int(u * W_k).
    """
    rng = np.random.default_rng(config.seed)
    thresholds = config.ladder.thresholds
    k_top = len(thresholds) - 1
    n = config.n_nodes
    counter = [int(rng.random() * thresholds[0]) for _ in range(n)]
    stage = [0] * n
    stage_attempts = [0] * (k_top + 1)
    stage_collisions = [0] * (k_top + 1)
    idle_slots = successes = collisions = 0
    for _ in range(config.horizon_slots):
        tx = [i for i in range(n) if counter[i] == 0]
        if not tx:
            idle_slots += 1
            counter = [c - 1 for c in counter]
            continue
        collided = len(tx) > 1
        successes += not collided
        collisions += collided
        for i in tx:
            stage_attempts[stage[i]] += 1
            stage_collisions[stage[i]] += collided
            stage[i] = min(stage[i] + 1, k_top) if collided else 0
            counter[i] = int(rng.random() * thresholds[stage[i]])
    attempts = sum(stage_attempts)
    params = config.params
    busy = successes * params.success_us + collisions * params.collision_us
    idle = idle_slots * params.slot_time_us
    chain_steps = n * idle_slots + attempts
    return SimResult(
        throughput=successes * params.payload_us / (busy + idle),
        tx_attempt_rate=attempts / chain_steps if chain_steps else 0.0,
        collision_rate=sum(stage_collisions) / attempts if attempts else 0.0,
        successes=successes,
        collisions=collisions,
        busy_time_us=busy,
        idle_time_us=idle,
        total_time_us=busy + idle,
        stage_attempts=tuple(stage_attempts),
        stage_collisions=tuple(stage_collisions),
    )


def _reference_examples(n, k_max, cap, params, jitter_pct, rng):
    """One density's (density, raw, label) rows, one ``size=3`` jitter draw per stage."""
    tau_star, _ = optimize_tau(n, params)
    ladder, _ = solve_ladder(tau_star, n, k_max, cap)
    out = []
    for k in range(k_max + 1):
        u = rng.uniform(-jitter_pct, jitter_pct, size=3)
        raw = (float(k),
               params.payload_us * (1.0 + u[0]),
               params.success_us * (1.0 + u[1]),
               params.collision_us * (1.0 + u[2]))
        out.append((int(n), raw, ladder.thresholds[k]))
    return out


def reference_dataset(densities, k_max, cap, params, jitter_pct, seed):
    """``generate_dataset`` one example at a time, as (density, raw, label) rows.

    Same streams and designs as ``generate_dataset``, density n keyed
    SeedSequence([seed, 2, n, 0]), but each stage draws its own ``size=3``
    uniform vector and scales the timings in Python floats, as the
    per-example loop it replaced did.
    """
    out = []
    for n in densities:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2, int(n), 0]))
        out.extend(_reference_examples(n, k_max, cap, params, jitter_pct, rng))
    return out


def reference_corrupt(labels, b_pct, rng, cap=None):
    """``corrupt_thresholds`` one label at a time: a scalar sign draw per label.

    Rounds half up in Python ints and clamps to [1, cap] (no ceiling when
    cap is None).
    """
    out = []
    for w in labels:
        sign = 1.0 if rng.integers(0, 2) else -1.0
        w = max(1, int(math.floor(w * (1.0 + sign * b_pct / 100.0) + 0.5)))
        if cap is not None:
            w = min(w, int(cap))
        out.append(w)
    return out


def reference_eval_inputs(config, density):
    """One eval density's (density, raw, label) rows and label rows, a draw at a time.

    One generator, keyed SeedSequence([master_seed, 1, density, 0]), draws
    each stage's jitter row in stage order, then, for each b > 0 of
    ``b_pct_sweep`` in order, one scalar sign per label; b = 0 keeps the
    clean labels.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, 1, density, 0]))
    rows = _reference_examples(density, config.k_max, config.cap, config.params,
                               config.jitter_pct, rng)
    labels = [w for _, _, w in rows]
    return rows, [reference_corrupt(labels, b, rng, cap=config.cap) if b > 0 else labels
                  for b in config.b_pct_sweep]


def reference_repair(values, cap):
    """``repair_ladders`` of one row, entry by entry in Python ints: the thresholds.

    Half-up rounding clamped into [1, cap], W_0 floored at 2, then each
    entry at least its predecessor + 1 until the cap, and parked there after.
    """
    out = []
    for value in values:
        w = round_threshold(value, cap)
        if not out:
            w = max(w, 2)
        elif out[-1] >= cap:
            w = cap
        else:
            w = min(max(w, out[-1] + 1), cap)
        out.append(w)
    return out


def _stack_prompts(prompts, label_scale):
    """Same-shape embedded prompts as (P,d,M), (P,M), (P,d), (P,) arrays, labels scaled."""
    d, m = prompts[0].dim, prompts[0].n_examples
    feats = np.stack([p.matrix[:d, :m] for p in prompts])
    labels = np.stack([p.matrix[d, :m] for p in prompts])
    queries = np.stack([p.matrix[:d, m] for p in prompts])
    query_labels = np.array([p.query_label for p in prompts])
    return feats, labels / label_scale, queries, query_labels / label_scale


def _reference_forward(q_matrix, feats, labels, queries):
    """Per-prompt softmax over the M columns of logits x_m^T Q x_q."""
    logits = np.einsum("pdm,pd->pm", feats, np.einsum("de,pe->pd", q_matrix, queries))
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = weights / weights.sum(axis=-1, keepdims=True)
    return attn, (attn * labels).sum(axis=-1)


def reference_loss(params, prompts, label_scale=1.0):
    """``loss`` computed prompt by prompt."""
    feats, labels, queries, targets = _stack_prompts(prompts, label_scale)
    _, pred = _reference_forward(params.q_matrix, feats, labels, queries)
    return float(np.mean((pred - targets) ** 2))


def reference_gradient(params, prompts, label_scale=1.0, magnitude=False):
    """``gradient`` as sum_p 2 (pred_p - W_p) sum_m attn_pm (W_pm - pred_p) x_m x_q^T / P.

    With ``magnitude``, the same sum over the terms' absolute values: the
    scale of the rounding error of any order of summation, which can exceed
    the gradient itself where the terms cancel.
    """
    feats, labels, queries, targets = _stack_prompts(prompts, label_scale)
    attn, pred = _reference_forward(params.q_matrix, feats, labels, queries)
    terms = 2.0 * (pred - targets)[:, None] * attn * (labels - pred[:, None])
    if magnitude:
        feats, terms, queries = np.abs(feats), np.abs(terms), np.abs(queries)
    return np.einsum("pdm,pm->pd", feats, terms).T @ queries / len(pred)
