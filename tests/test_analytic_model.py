import functools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icl_csma import analytic_model as am
from icl_csma.analytic_model import (
    BackoffLadder,
    LadderSearchError,
    NetworkParams,
    design_ladder,
    ladder_throughput,
    mismatch_loss,
    optimize_tau,
    solve_ladder,
    solve_tau,
    throughput,
)
from oracles import (bisect_crossing, bisect_ladder, grid_tau, mpmath_tau, mpmath_throughput,
                     random_ladder, reference_optimize_tau, reference_solve_ladder,
                     reference_throughput)


MODEL_SEED7 = Path(__file__).resolve().parents[1] / "benchmarks" / "model-seed7.json"

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x, whose dispatch groups have other names
    CPU_FEATURES = {}


def _outcome(design, *args):
    """A design's thresholds, or the type and message of what it raised."""
    try:
        return design(*args).thresholds
    except (ValueError, LadderSearchError) as exc:
        return type(exc).__name__, str(exc)


def _ladder(*args):
    """``solve_ladder``'s ladder alone, the form ``bisect_ladder`` returns."""
    return solve_ladder(*args)[0]


def _solved_rows(rows, ns):
    """``_solve_rows``' columns as one FixedPointResult per row."""
    return [am.FixedPointResult(*fields) for fields in zip(*am._solve_rows(rows, ns))]


def _assert_root(thresholds, n, fixed_point):
    """``fixed_point`` is the ladder's root to 1e-13 relative, p is p(tau), and g was evaluated."""
    want = mpmath_tau(thresholds, n)
    assert abs(fixed_point.tau - want) <= 1e-13 * want
    exact_p = -mpmath.expm1((n - 1) * mpmath.log1p(-mpmath.mpf(fixed_point.tau)))
    assert abs(fixed_point.p - exact_p) <= 1e-13 * exact_p
    assert fixed_point.iterations >= 1


def _exact_denominator(thresholds, p):
    """D = (1-p) * sum_{k<K} p^k W_k + p^K W_K + 1 in exact rational arithmetic."""
    body = sum(p ** k * w for k, w in enumerate(thresholds[:-1]))
    return (1 - p) * body + p ** (len(thresholds) - 1) * thresholds[-1] + 1


class TestNetworkParams:
    def test_table_defaults(self, table1):
        assert table1.slot_time_us == 50.0
        assert table1.success_us == 8982.0
        assert table1.collision_us == 8783.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            NetworkParams(slot_time_us=0.0)
        with pytest.raises(ValueError):
            NetworkParams(payload_us=9000.0)  # payload >= success
        with pytest.raises(ValueError):
            NetworkParams(collision_us=9999.0)  # collision > success

    def test_ints_stored_as_floats(self, table1):
        # config_hash serializes these values; 50 and 50.0 must hash alike
        p = NetworkParams(slot_time_us=50, collision_us=8783)
        assert repr(p.to_mapping()) == repr(table1.to_mapping())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="slot_time_us must be finite"):
            NetworkParams(slot_time_us=value)
        with pytest.raises(ValueError, match="collision_us must be finite"):
            NetworkParams.from_mapping({"t_c_us": value})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            NetworkParams.from_mapping({"t_bogus_us": 1.0})

    @pytest.mark.parametrize("key", list(NetworkParams._CONFIG_KEYS))
    def test_every_timing_moves_throughput(self, table1, key):
        # a timing that no formula reads would change only the config hash
        attr = NetworkParams._CONFIG_KEYS[key]
        moved = NetworkParams.from_mapping({key: 1.01 * getattr(table1, attr)})
        assert throughput(0.01, 20, moved) != throughput(0.01, 20, table1)


class TestBackoffLadder:
    def test_beb_shape(self):
        lad = BackoffLadder.beb(32, 5, 8192)
        assert lad.thresholds == (32, 64, 128, 256, 512, 1024)
        assert lad.k_max == 5

    def test_cap_parking_allowed(self):
        lad = BackoffLadder.beb(100, 8, 1024)
        assert lad.thresholds[-3:] == (1024, 1024, 1024)

    def test_strictly_increasing_required_below_cap(self):
        with pytest.raises(ValueError):
            BackoffLadder((32, 32, 64), 1024)

    def test_w0_floor(self):
        with pytest.raises(ValueError):
            BackoffLadder((1, 2), 1024)

    def test_cap_bound(self):
        with pytest.raises(ValueError):
            BackoffLadder((32, 2048), 1024)

    @pytest.mark.parametrize("ws", [(2.9, 5.5), (2, 5.5), ("7",), ("2", 5), (None,),
                                    (float("nan"),), (float("inf"),), (np.float64(2.5),)])
    def test_non_integers_refused(self, ws):
        with pytest.raises(ValueError, match=r"^thresholds must be integers: "):
            BackoffLadder(ws, 9)

    def test_integral_floats_accepted(self):
        # repair_ladders gives float64 rows, and eval --sim builds ladders from them
        for ws in [(2.0, 5.0, 9.0), [2.0, 5, 9.0], tuple(np.array([2.0, 5.0, 9.0]))]:
            for cap in [9, 9.0, np.int64(9), np.float64(9.0)]:
                lad = BackoffLadder(ws, cap)
                assert (lad.thresholds, lad.cap) == ((2, 5, 9), 9)
                assert all(type(w) is int for w in (*lad.thresholds, lad.cap))
        lad = BackoffLadder.beb(np.int64(2), 2, 64.0)
        assert (lad.thresholds, lad.cap) == ((2, 4, 8), 64)
        assert lad == BackoffLadder.beb(2.0, 2, np.int64(64))

    @pytest.mark.parametrize("cap", [9.5, "9", None, float("nan"), float("inf"), 0, -9.0])
    def test_non_integral_cap_refused(self, cap):
        with pytest.raises(ValueError, match=r"^cap must be a positive integer, got "):
            BackoffLadder((2, 9), cap)

    @pytest.mark.parametrize("w0, cap", [(2.9, 64.7), (2.9, 64), (2, 64.7), (2.5, 8)])
    def test_beb_refuses_non_integers(self, w0, cap):
        # 2.9 and 64.7 were once truncated to a (2, 4, 8) ladder under cap 64
        with pytest.raises(ValueError, match=r"^(cap|thresholds) must be "):
            BackoffLadder.beb(w0, 2, cap)


    @pytest.mark.parametrize("build, message", [
        (lambda: BackoffLadder.beb("7", 2, 64), "thresholds must be integers: ('7',)"),
        (lambda: BackoffLadder.beb(2, 2, "64"), "cap must be a positive integer, got '64'"),
        (lambda: BackoffLadder.beb(2, 2.0, 64), "k_max must be an integer >= 0, got 2.0"),
        (lambda: solve_ladder(0.01, 10, 3, "64"), "cap must be a positive integer, got '64'"),
        (lambda: solve_ladder(0.01, 10, 3.0, 64), "k_max must be an integer >= 0, got 3.0"),
        (lambda: solve_ladder(0.01, 10, -1, 64), "k_max must be an integer >= 0, got -1"),
    ], ids=["beb-str-w0", "beb-str-cap", "beb-float-k_max", "solve_ladder-str-cap",
            "solve_ladder-float-k_max", "solve_ladder-negative-k_max"])
    def test_rule_before_arithmetic(self, build, message):
        # a str w0 or cap and a float k_max once met the BEB arithmetic
        # first and raised a bare TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


class TestCollisionProb:
    """p = 1 - (1 - tau)^(N-1), the analytic layer's one definition ``am._p``."""

    def test_single_node(self):
        assert am._p(np.array([0.5]), 0.0).tolist() == [0.0]

    def test_two_nodes(self):
        assert am._p(np.array([0.5]), 1.0).tolist() == [0.5]

    def test_direct_evaluation(self):
        # 1 - 0.9^4 = 0.3439
        assert am._p(np.array([0.1]), 4.0)[0] == pytest.approx(0.3439, abs=1e-12)


# W_0 = 2 under the largest cap a float holds, at K = 1023, where g'
# overflows at the bracket top; a ladder whose one step spans 300
# decades, whose root has p = 4.5e-149; a one-step ladder at N = 2^53;
# and near-all-cap BEB ladders at caps past 2 * 10^12
EXTREME_LADDERS = [
    (am._beb(2, 1023, int(sys.float_info.max)), 2),
    (am._beb(2, 1023, int(sys.float_info.max)), 500),
    ((2, 10 ** 300), 1000),
    ((2, 3), 2 ** 53),
    *[(am._beb(cap // 4, 8, cap), n) for cap in (10 ** 13, 10 ** 15) for n in (2, 50, 500)],
]


class TestSolveTau:
    def test_k0_closed_form(self):
        res = solve_tau(BackoffLadder((32,), 1024), 7)
        assert res.tau == 2.0 / 33.0
        assert res.residual <= 1e-10

    def test_single_node_closed_form(self):
        res = solve_tau(BackoffLadder.beb(32, 5, 2048), 1)
        assert res.tau == 2.0 / 33.0
        assert res.p == 0.0

    def test_beb_against_grid_oracle(self):
        lad = BackoffLadder.beb(32, 5, 32768)
        res = solve_tau(lad, 10)
        oracle = grid_tau(lad.thresholds, 10)
        assert abs(res.tau - oracle) <= 1e-7
        assert res.residual <= 1e-10

    def test_residual_definition(self):
        # the residual is |g(tau)|, here at the rounding noise of g
        lad = BackoffLadder.beb(16, 3, 1024)
        res = solve_tau(lad, 5)
        tau = Fraction(res.tau)
        p = 1 - (1 - tau) ** 4
        d = (1 - p) * (16 + p * 32 + p * p * 64) + p ** 3 * 128 + 1
        assert abs(res.residual - abs(tau * d - 2)) <= 1e-14
        assert res.residual <= 1e-14

    def test_tau_decreases_when_any_threshold_grows(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ws = list(random_ladder(rng, k_high=6, w0_high=256))
            n = int(rng.integers(2, 60))
            base = solve_tau(BackoffLadder(tuple(ws), ws[-1] * 4), n).tau
            k = int(rng.integers(0, len(ws)))
            bumped = list(ws)
            bumped[k] += 1
            if k + 1 < len(ws) and bumped[k] >= ws[k + 1]:
                continue  # keep the ladder valid
            grown = solve_tau(BackoffLadder(tuple(bumped), ws[-1] * 4), n).tau
            assert grown < base

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k_high=st.integers(0, 8), n=st.integers(1, 5000))
    @example(seed=1, k_high=0, n=40)  # K = 0 closed form
    @example(seed=2, k_high=8, n=1)   # single node
    # W_K / W_0 = 1391 and 1119 at N = 1000: a bisection that stopped at
    # |g| <= 1e-10 left these roots about 1e-11 off
    @example(seed=739, k_high=8, n=1000)
    @example(seed=575, k_high=8, n=1000)
    def test_matches_reference_solver(self, seed, k_high, n):
        # the reference is the root in 40-digit arithmetic
        ws = random_ladder(np.random.default_rng(seed), k_high=k_high)
        _assert_root(ws, n, solve_tau(BackoffLadder(ws, ws[-1]), n))

    @pytest.mark.parametrize("ws, n", EXTREME_LADDERS)
    def test_extreme_ladders(self, ws, n):
        _assert_root(ws, n, solve_tau(BackoffLadder(ws, ws[-1]), n))

    def test_examples_take_their_paths(self, monkeypatch):
        # the examples above reach the paths their comments name: closed
        # forms evaluate g once, the huge top-ladder row bisects after an
        # overflow of g', and the near-all-cap rows end their search at
        # once, then take the finish's two grid points and the final point
        calls = []
        g = am._td

        def recording_g(t, *args, **kwargs):
            out = g(t, *args, **kwargs)
            calls.append((t.tolist(), None if out[1] is None else out[1].tolist()))
            return out

        monkeypatch.setattr(am, "_td", recording_g)
        for ws, n in [((32,), 40), ((32, 64, 128), 1), ((64, 64, 64), 300)]:
            calls.clear()
            assert solve_tau(BackoffLadder(ws, ws[-1]), n).iterations == len(calls) == 1
        calls.clear()
        ws = am._beb(2, 1023, int(sys.float_info.max))
        solve_tau(BackoffLadder(ws, ws[-1]), 500)
        (t0,), (slope0,) = calls[0]
        assert t0 == 2.0 / 3.0 and not math.isfinite(slope0)
        # the next point is the bracket's geometric midpoint
        assert calls[1][0][0] == math.sqrt(2.0 / (ws[-1] + 1.0)) * math.sqrt(t0)
        for cap in (10 ** 13, 10 ** 15):
            ws = am._beb(cap // 4, 8, cap)
            assert solve_tau(BackoffLadder(ws, cap), 500).iterations == 4

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 1000), k_max=st.integers(0, 10), extra=st.integers(2, 1 << 16),
           offset=st.integers(0, 1 << 16), p=st.floats(0.0, 1.0, exclude_max=True))
    @example(n=964, k_max=5, extra=47, offset=25, p=0.98)  # W_0 = 27..73 nearly alike
    # (9, 11, 11, 11) and (10, 11, 11, 11) at N = 192, and (9, 16, 16) and
    # (10, 16, 16) at N = 874, p near 1: the exact roots differ by less than
    # an ulp, and roots that end at Newton's last step cross by one
    @example(n=192, k_max=3, extra=3, offset=286, p=0.0)
    @example(n=874, k_max=2, extra=12, offset=7, p=0.0)
    def test_beb_tau_strictly_decreasing_in_w0(self, n, k_max, extra, offset, p):
        # bisect_ladder's bisection on W_0 rests on this.  Exactly: raising W_0
        # raises every W_k weakly and W_0 strictly, so at every p < 1 the
        # denominator D, and with it g(tau) = tau * D(p(tau)) - 2 at every
        # tau, grows strictly, and the root tau falls strictly.  The float
        # roots can only tie where the gap is below their rounding, never
        # invert: each is read off the grid where float g changes sign.
        cap = (1 << k_max) + extra
        w0 = 2 + offset % (cap - 2)
        lower = BackoffLadder.beb(w0, k_max, cap)
        higher = BackoffLadder.beb(w0 + 1, k_max, cap)
        exact_p = Fraction(p)
        assert (_exact_denominator(higher.thresholds, exact_p)
                > _exact_denominator(lower.thresholds, exact_p))
        assert solve_tau(higher, n).tau <= solve_tau(lower, n).tau

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 1000), k_max=st.integers(1, 5), extra=st.integers(2, 40))
    @example(n=874, k_max=2, extra=12)
    def test_beb_taus_never_rise_with_w0(self, n, k_max, extra):
        # every W_0 under a small cap at one density, solved in one call: the
        # top W_k sit at the cap and many exact roots lie within an ulp of
        # their neighbours', where a root that ended at a Newton step would
        # rise with W_0 for about one pair in 40
        cap = (1 << k_max) + extra
        rows = [am._beb(w0, k_max, cap) for w0 in range(2, cap)]
        taus = am._solve_rows(rows, [n] * len(rows))[0]
        assert all(a >= b for a, b in zip(taus, taus[1:]))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k_high=st.integers(1, 8),
       w0_high=st.sampled_from([16, 1024, 100_000]), n=st.integers(2, 1000),
       t=st.floats(1e-9, 0.7))
def test_float_error_of_g_within_bound(seed, k_high, w0_high, n, t):
    # g in floats against g in exact rational arithmetic.  p keeps its
    # relative accuracy (-expm1 of e log1p(-t), about 4u), p D'(p) <= K D,
    # and forming D, t D and the last "- 2" adds about (2K + 8) u of t D + 2:
    # the error stays within 2u (6K + 10)(t D + 2), independent of N
    ws = random_ladder(np.random.default_rng(seed), k_high=k_high, w0_high=w0_high)
    assume(len(ws) > 1)
    ws_f = np.array([ws], float)
    t_f = np.array([t])
    val = am._td(t_f, am._p(t_f, np.array([n - 1.0])), ws_f[:, :-1].T, ws_f[:, -1])[0][0] - 2.0
    exact_t = Fraction(t)
    exact_d = _exact_denominator(ws, 1 - (1 - exact_t) ** (n - 1))
    bound = 2 * am._UNIT_ROUNDOFF * (6 * (len(ws) - 1) + 10) * (exact_t * exact_d + 2)
    assert abs(Fraction(val) - (exact_t * exact_d - 2)) <= bound


def test_evaluations_per_solve(table1, monkeypatch):
    # the fixed points of an eval pass over the benchmark's densities (every
    # 8th of 2..500 plus 500): each design, whose throughput reads the fixed
    # point it hands back, and the model-based ladder designed for N = 50
    # deployed there.  A design solves its floor and ceiling as two rows of
    # one _solve_rows call, so g is counted in points: a call on an array of
    # M points is M evaluations, and each row's iterations count its own
    counts = []  # (evaluations of g, iterations of each row) per solver call
    evaluations = [0]
    g, solve_rows = am._td, am._solve_rows

    def counting_g(t, *args, **kwargs):
        evaluations[0] += np.size(t)
        return g(t, *args, **kwargs)

    def counting_solve_rows(*args, **kwargs):
        before = evaluations[0]
        results = solve_rows(*args, **kwargs)
        counts.append((evaluations[0] - before, results[2]))
        return results

    monkeypatch.setattr(am, "_td", counting_g)
    monkeypatch.setattr(am, "_solve_rows", counting_solve_rows)
    model_based, _ = design_ladder(50, table1, 8, 32768)
    for n in sorted(set(range(2, 501, 8)) | {500}):
        throughput(design_ladder(n, table1, 8, 32768)[1].tau, n, table1)
        ladder_throughput(model_based, n, table1)
    iterations = [i for _, rows in counts for i in rows]
    assert len(iterations) == 65 * 2 + 64
    assert all(e == sum(rows) for e, rows in counts)
    # a bisection to |g| <= 1e-10 took 43 on average here; the Newton
    # search takes three to five, the grid finish two and tau itself one
    assert sum(iterations) / len(iterations) <= 7
    assert max(iterations) <= 8


class TestThroughput:
    def test_full_channel_single_node(self, table1):
        assert throughput(1.0, 1, table1) == 8184.0 / 8982.0

    def test_certain_collision(self, table1):
        assert throughput(1.0, 2, table1) == 0.0

    def test_vanishing_tau(self, table1):
        assert throughput(1e-12, 5, table1) < 1e-6

    def test_bounds(self, table1):
        rng = np.random.default_rng(2)
        cap = table1.payload_us / table1.success_us
        for _ in range(200):
            u = throughput(float(rng.uniform(1e-6, 1)), int(rng.integers(1, 100)), table1)
            assert 0.0 <= u <= cap

    def test_domain_errors(self, table1):
        with pytest.raises(ValueError):
            throughput(0.0, 2, table1)
        with pytest.raises(ValueError):
            throughput(0.5, 0, table1)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2 ** 53), x=st.floats(math.log(1e-6), math.log(100.0)).map(math.exp))
    @example(n=10 ** 15, x=0.107)  # about N tau* at the default timings
    @example(n=2 ** 53, x=1.0)
    @example(n=2, x=1.5)
    def test_matches_mpmath(self, table1, n, x):
        # tau = x / N puts (1 - tau)^(N-1) at about e^-x for any N; its
        # exponent carries a few units of roundoff, x u relative in U
        tau = min(1.0, x / n)
        want = mpmath_throughput(tau, n, table1)
        assert abs(throughput(tau, n, table1) - want) <= (x + 8) * 1e-15 * want


@st.composite
def throughput_points(draw):
    """(taus, ns): M points tau = min(1, x / N), x in [1e-6, 100], N in [1, 2^53], some at N = 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # numpy's elementwise loops take their vector paths on longer arrays
    m = draw(st.one_of(st.integers(1, 20), st.integers(200, 300)))
    ns = np.minimum(np.exp(rng.uniform(0.0, 53 * math.log(2.0), m)), 2.0 ** 53).astype(np.int64)
    ns = np.where(rng.random(m) < 0.2, 1, ns).tolist()
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(100.0), m)).tolist()
    return [min(1.0, x / n) for x, n in zip(xs, ns)], ns


@settings(max_examples=60, deadline=None)
@given(case=throughput_points())
# tau = 1 at one node and at 2^53 nodes, and tau* at 10^15 nodes
@example(case=([1.0, 1.0, 0.5, 0.107 / 10 ** 15, 1.0 / 2 ** 53],
               [1, 2 ** 53, 1, 10 ** 15, 2 ** 53]))
def test_throughput_on_arrays_equals_scalar_calls(table1, case):
    # each point of an array call has the bits of its one-point call and of
    # the scalar form it replaced, and test_matches_mpmath's accuracy
    taus, ns = case
    got = am._throughputs(np.array(taus), np.array(ns, float), table1).tolist()
    assert got == [throughput(tau, n, table1) for tau, n in zip(taus, ns)]
    assert got == [reference_throughput(tau, n, table1) for tau, n in zip(taus, ns)]
    for u, tau, n in zip(got, taus, ns):
        want = mpmath_throughput(tau, n, table1)
        assert abs(u - want) <= (n * tau + 8) * 1e-15 * want


def _deployed(rows, cap, ns, params):
    """``rows_throughput``'s outcomes, each a throughput's hex or an error's type and message."""
    return [(type(u).__name__, str(u)) if isinstance(u, Exception) else u.hex()
            for u in am.rows_throughput(rows, cap, ns, params)]


def _ladder_path(row, cap, n, params):
    """``ladder_throughput`` of the ladder a row spells, in ``_deployed``'s form."""
    try:
        return ladder_throughput(BackoffLadder(tuple(row), cap), n, params).hex()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestThresholdsThroughput:
    """``rows_throughput`` gives each row ``ladder_throughput`` of the ladder it spells."""

    @settings(max_examples=400, deadline=None)
    @given(ws=st.one_of(
               st.lists(st.one_of(st.integers(-2, 40), st.floats(-2.0, 40.0)), max_size=6),
               st.lists(st.integers(2, 40), min_size=1, max_size=6, unique=True).map(sorted)),
           cap=st.one_of(st.integers(-1, 40), st.floats(-1.0, 40.0),
                         st.sampled_from(["9", 9.5, None, math.nan, math.inf])),
           n=st.integers(0, 60))
    @example(ws=[2, 5, 9, 9], cap=9, n=5)       # parked at the cap
    @example(ws=[2, 5, 9], cap=9.0, n=5)        # an integral float cap
    @example(ws=[2, 5, 9], cap=9.5, n=5)        # refused, as the ladder refuses
    @example(ws=[2, 5, 9], cap="9", n=5)
    @example(ws=[2.0, 5.0, 9.0], cap=9, n=5)    # floats, as repair_ladders gives rows
    @example(ws=[2.9, 5.5, 5.0], cap=9, n=5)    # refused, as the ladder refuses
    @example(ws=[2, 5, 5, 9], cap=9, n=5)       # a repeat below the cap
    @example(ws=[2, 9, 5], cap=9, n=5)          # a drop after reaching the cap
    @example(ws=[1, 5], cap=9, n=5)
    @example(ws=[2, 10], cap=9, n=5)
    @example(ws=[], cap=9, n=5)
    @example(ws=[2, 4], cap=0, n=5)
    @example(ws=[2, 4], cap=9, n=0)
    def test_equals_the_ladder_path(self, table1, ws, cap, n):
        # the row as given (the ladder rule's own check) and as a float64
        # array (the array check first), each against the ladder it spells
        floats = [float(w) for w in ws]
        assert _deployed([ws], cap, [n], table1) == [_ladder_path(ws, cap, n, table1)]
        assert (_deployed(np.array([floats]), cap, [n], table1)
                == [_ladder_path(floats, cap, n, table1)])

    @pytest.mark.parametrize("ws", [["7", 9], [2, None], [2.0, float("inf")],
                                    [float("nan"), 9], np.array([2.0, 5.5])])
    def test_non_numbers_refused_alike(self, table1, ws):
        with pytest.raises(ValueError) as exc:
            BackoffLadder(ws, 9)
        assert _deployed([ws], 9, [5], table1) == [("ValueError", str(exc.value))]

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(0, 6), cap=st.integers(2, 300),
           cells=st.lists(st.tuples(st.lists(st.floats(-1.0, 310.0), min_size=7, max_size=7),
                                    st.integers(1, 3000)), min_size=1, max_size=8))
    def test_rows_equal_the_ladder_path(self, table1, k, cap, cells):
        # many float rows at once, as eval deploys them: rounded and sorted,
        # so most pass the rule, with some rows refused
        rows = np.array([sorted(np.floor(ws[:k + 1])) for ws, _ in cells])
        ns = [n for _, n in cells]
        assert _deployed(rows, cap, ns, table1) == [
            _ladder_path(row, cap, n, table1) for row, n in zip(rows.tolist(), ns)]


@st.composite
def g_points(draw):
    """(t, n, rows): M points, each a density and a BEB ladder, parked at its cap or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # numpy's array ** takes its vector path on longer arrays
    m = draw(st.one_of(st.integers(1, 20), st.integers(400, 1000)))
    k = draw(st.integers(0, 10))
    w0 = rng.integers(2, 1025, m)
    top = w0 << k
    # a cap below 2^K W_0 parks the ladder's tail
    caps = np.where(rng.random(m) < 0.5, top, rng.integers(w0, top + 1))
    rows = [am._beb(int(w), k, int(c)) for w, c in zip(w0, caps)]
    t = np.exp(rng.uniform(math.log(1e-9), math.log(0.99), m))
    return t.tolist(), rng.integers(1, 10 ** 4 + 1, m).tolist(), rows


@settings(max_examples=60, deadline=None)
@given(case=g_points())
# numpy's array ** once rounded (1 - t)^5340 here one ulp away from Python's pow
@example(case=([0.03419023877442884], [5341], [am._beb(16, 8, 1024)]))
def test_g_on_arrays_equals_scalar_calls(case):
    # each point of an array call has the bits of its one-point call, p and g' included
    def g(t, exponent, lower, w_top):
        p = am._p(t, exponent)
        return (*am._td(t, p, lower, w_top, exponent), p)

    t, ns, rows = case
    ws = np.array(rows, float)
    got = g(np.array(t), np.array(ns, float) - 1, ws[:, :-1].T, ws[:, -1])
    want = [g(np.array([ti]), np.array([n - 1.0]), np.array([row[:-1]]).T, np.array([row[-1]]))
            for ti, n, row in zip(t, ns, ws.tolist())]
    for j in range(3):
        assert got[j].tolist() == [w[j][0] for w in want]


@st.composite
def ladder_rows(draw):
    """Valid ladders that share K, some parked at their cap, each with a density (1 included)."""
    k = draw(st.integers(0, 8))
    rows, ns = [], []
    for _ in range(draw(st.integers(1, 6))):
        ws = [draw(st.integers(2, 300))]
        for _ in range(k):
            ws.append(ws[-1] + draw(st.integers(1, 2 * ws[-1])))
        top = draw(st.integers(0, k))  # entries past index top sit at W_top
        rows.append(ws[:top + 1] + [ws[top]] * (k - top))
        ns.append(draw(st.one_of(st.just(1), st.integers(2, 5000))))
    return rows, ns


class TestSolveRows:
    """``_solve_rows`` gives each row what ``solve_tau`` gives it alone, field for field."""

    @settings(max_examples=200, deadline=None)
    @given(case=ladder_rows())
    @example(case=([[2, 40, 900], [5, 6, 7], [2, 900, 900]], [1, 300, 40]))
    @example(case=([[16], [2], [7]], [1, 40, 5000]))  # K = 0
    # W_0 = 2 and W_K = 2,000,000,000,098 at N = 5000, beside a default ladder
    @example(case=([[2] + [2 ** (5 * k) for k in range(1, 7)] + [2_000_000_000_098],
                    am._beb(32, 7, 32768)],
                   [5000, 5000]))
    def test_equals_solve(self, case):
        rows, ns = case
        got = _solved_rows(rows, ns)
        want = [solve_tau(BackoffLadder(ws, ws[-1]), n) for ws, n in zip(rows, ns)]
        # the same bits, not only equal values: no row depends on the rows beside it
        assert [repr(fp) for fp in got] == [repr(fp) for fp in want]
        for ws, n, fp in zip(rows, ns, got):
            _assert_root(ws, n, fp)

    def test_many_rows_equal_solve(self):
        # numpy takes its vector paths only on longer arrays; a sweep's worth
        # of rows in one call exercises them
        rng = np.random.default_rng(11)
        rows = [[int(rng.integers(2, 300))]
                + sorted(rng.choice(np.arange(300, 40000), 8, replace=False).tolist())
                for _ in range(400)]
        ns = rng.integers(2, 1000, len(rows)).tolist()
        assert _solved_rows(rows, ns) == [solve_tau(BackoffLadder(ws, ws[-1]), n)
                                          for ws, n in zip(rows, ns)]

    def test_examples_take_their_paths(self):
        # the examples above reach the paths their comments name: closed forms
        # (one node, K = 0, W_0 = W_K) evaluate g once, the others iterate
        iterations = am._solve_rows([[2, 40, 900], [5, 6, 7], [2, 900, 900]], [1, 300, 40])[2]
        assert iterations[0] == 1 and min(iterations[1:]) > 1
        assert am._solve_rows([[16], [2], [7]], [1, 40, 5000])[2] == [1] * 3


def _fixed_points(cases):
    """(tau, p, residual as float.hex, iterations) of each (thresholds, N), one call per K."""
    out = [None] * len(cases)
    by_k = {}
    for i, (ws, _) in enumerate(cases):
        by_k.setdefault(len(ws), []).append(i)
    for rows in by_k.values():
        fields = am._solve_rows([cases[i][0] for i in rows], [cases[i][1] for i in rows])
        for i, tau, p, iterations, residual in zip(rows, *fields):
            out[i] = (tau.hex(), p.hex(), residual.hex(), iterations)
    return out


@functools.cache
def generalize_rows():
    """The (thresholds, N) of eval's two ``_solve_taus`` calls on the benchmark's sweep.

    Every 8th density of 2..500 plus 500 with the shipped seed-7 model: the
    128 design floors and ceilings, then the 320 deployed rows.
    """
    from icl_csma import experiment_harness as eh
    from icl_csma import icl_transformer as tf

    cases, solve_taus = [], am._solve_taus

    def recording(rows, ns):
        cases.extend(zip(np.array(rows, float).astype(int).tolist(), map(int, ns)))
        return solve_taus(rows, ns)

    config = eh.ExperimentConfig(test_densities=tuple(sorted(set(range(2, 501, 8)) | {500})))
    with mock.patch.object(am, "_solve_taus", recording):
        eh.cmd_eval(config, tf.load_model(MODEL_SEED7), with_sim=False)
    assert len(cases) == 128 + 320
    return cases


def random_rows(count, seed):
    """``count`` random (ladder, N): K from 1 to 8, N from 1 to 5000."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        ws = random_ladder(rng, k_high=8)
        if len(ws) > 1:
            cases.append((list(ws), int(rng.integers(1, 5001))))
    return cases


# the rows test_examples_take_their_paths walks: closed forms, an overflowed g'
# and near-all-cap rows that end their search at once
PATH_ROWS = [((32,), 40), ((32, 64, 128), 1), ((64, 64, 64), 300), *EXTREME_LADDERS]


class TestSearchOnlySteers:
    """tau, p and the residual are fixed by the grid finish alone, not by the search's p."""

    def test_tau_does_not_depend_on_the_search(self, monkeypatch):
        # the steering p as is, as the exact _p, and one ulp above and below
        # it: each search ends elsewhere, and every result keeps its bytes
        cases = generalize_rows() + random_rows(2000, 34) + PATH_ROWS
        want = [fields[:3] for fields in _fixed_points(cases)]
        steer = am._p_steer
        for p in (am._p, lambda t, e: np.nextafter(steer(t, e), np.inf),
                  lambda t, e: np.nextafter(steer(t, e), -np.inf)):
            monkeypatch.setattr(am, "_p_steer", p)
            assert [fields[:3] for fields in _fixed_points(cases)] == want

    @pytest.mark.skipif(not CPU_FEATURES.get("X86_V4"),
                        reason="numpy dispatches no AVX-512 path on this CPU")
    def test_tau_does_not_follow_the_simd_path(self):
        # the search's numpy ufuncs round a few percent of points differently
        # with AVX-512 on (this process) and off (the subprocess, where they
        # agree with Python's math).  tau, p and the residual keep their
        # bytes on every row, and eval's rows their evaluation counts.  The
        # search may end elsewhere and take a different count on other rows
        # (about one random ladder in 200, and the K = 1023 row at N = 500),
        # which no result reads
        counted = generalize_rows()
        cases = counted + PATH_ROWS + random_rows(2000, 35)
        script = ("import json, sys\n"
                  "from numpy._core._multiarray_umath import __cpu_features__\n"
                  "from test_analytic_model import _fixed_points\n"
                  "print(json.dumps([__cpu_features__['X86_V4'],"
                  " _fixed_points(json.load(sys.stdin))]))\n")
        paths = [str(Path(am.__file__).parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
               "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases), env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        avx512, got = json.loads(run.stdout)
        want = _fixed_points(cases)
        assert not avx512
        assert [tuple(fields[:3]) for fields in got] == [fields[:3] for fields in want]
        assert [fields[3] for fields in got[:len(counted)]] == [
            fields[3] for fields in want[:len(counted)]]


# (sigma, T_c) in microseconds, T_P and T_s at their defaults: T_c > sigma,
# T_c = sigma and T_c < sigma, for c = T_c / sigma in [1.1e-4, 1757].  The
# root's float noise grows about as c u, to 1e-12 relative near c = 10^4
TIMINGS = st.one_of(
    st.sampled_from([(50.0, 8783.0), (50.0, 50.0), (8783.0, 8783.0), (50.0, 40.0)]),
    st.tuples(st.floats(5.0, 8783.0), st.floats(1.0, 8783.0)))


def _timed(sigma, t_c):
    """The default timings with slot time ``sigma`` and collision time ``t_c``."""
    return NetworkParams(slot_time_us=sigma, collision_us=t_c)


class TestOptimizeTau:
    def test_below_one_over_n_and_grid_optimal(self, table1):
        tau_star, u_star = optimize_tau(2, table1)
        assert tau_star < 0.5
        grid = np.linspace(1e-6, 0.5, 500_001)
        q = 1.0 - grid
        num = 2 * grid * q * table1.payload_us
        den = (q * q * table1.slot_time_us
               + 2 * grid * q * (table1.success_us - table1.collision_us)
               + (1 - q * q) * table1.collision_us)
        u_grid = num / den
        assert u_star >= u_grid.max() - 1e-9

    def test_large_density_bound(self, table1):
        tau_star, _ = optimize_tau(100, table1)
        assert tau_star < 0.01

    def test_monotone_in_density(self, table1):
        assert optimize_tau(2, table1)[0] > optimize_tau(500, table1)[0]

    def test_rejects_single_node(self, table1):
        with pytest.raises(ValueError):
            optimize_tau(1, table1)
        with pytest.raises(ValueError, match="n_nodes must be >= 2, got 1"):
            am.optimize_taus([5, 1, 3], table1)

    @pytest.mark.parametrize("n", [10 ** 400, 2 ** 53 + 1, math.inf])
    def test_rejects_density_a_float_cannot_hold(self, table1, n):
        # 10**400 once raised a bare OverflowError and 2**53 + 1 solved as 2**53
        with pytest.raises(ValueError, match=r"^n_nodes must be <= 2\*\*53"):
            am.optimize_taus([5, n], table1)
        assert 0.0 < am.optimize_taus([5, 2 ** 53], table1)[1] < 2.0 ** -53

    @settings(max_examples=200, deadline=None)
    @given(log_n=st.floats(math.log10(2), 15), timing=TIMINGS)
    # T_c < sigma, where tau* lies above 1/N (0.108 at N = 10)
    @example(log_n=1.0, timing=(50.0, 40.0))
    # default timings, where tau* lies far below 1e-6
    @example(log_n=6.0, timing=(50.0, 8783.0))
    def test_root_equals_bisection(self, log_n, timing):
        n = max(2, round(10.0 ** log_n))
        params = _timed(*timing)
        tau_star = optimize_tau(n, params)[0]
        want = reference_optimize_tau(n, params)
        assert abs(tau_star - want) <= 1e-12 * want
        # above 1/N when T_c < sigma, below it when T_c > sigma, or at fl(1/N)
        side = (tau_star > 1.0 / n) - (tau_star < 1.0 / n)
        assert side in (0, (timing[1] < timing[0]) - (timing[1] > timing[0]))

    @pytest.mark.parametrize("timing", [(50.0, 8783.0), (50.0, 40.0), (50.0, 50.0),
                                        (50.0, 10.0), (9.0, 8783.0)])
    def test_maximizes_throughput(self, timing):
        # U on a fine log-grid around 1/N, with (1 - tau)^e as
        # exp(e log1p(-tau)): throughput()'s pow is noisy at about N u
        params = _timed(*timing)

        def u(tau, n):
            q = np.exp((n - 1) * np.log1p(-tau))
            p_succ = n * tau * q
            q_all = q * (1.0 - tau)
            return p_succ * params.payload_us / (
                q_all * params.slot_time_us + (1.0 - q_all) * params.collision_us
                + p_succ * (params.success_us - params.collision_us))
        for n in np.logspace(math.log10(2), 9, 25).round():
            tau_star = optimize_tau(int(n), params)[0]
            grid = np.logspace(-3, min(1.5, math.log10(n) - 1e-9), 200_001) / n
            assert u(tau_star, n) >= u(grid, n).max() * (1.0 - 1e-9)

    def test_rows_stand_alone(self, table1):
        # each row of the array solve is optimize_tau's, bit for bit, whatever
        # rows share the call
        densities = [2, 10**9, 434, 3, 10**15, 500, 434]
        for params in (table1, _timed(50.0, 40.0), _timed(50.0, 50.0)):
            rows = am.optimize_taus(densities, params)
            assert [r.hex() for r in rows] == [optimize_tau(n, params)[0].hex()
                                              for n in densities]


class TestSolveLadder:
    def test_k0_inversion(self):
        lad, _ = solve_ladder(2.0 / 33.0, 9, 0, 1024)
        assert lad.thresholds == (32,)

    def test_exhaustive_oracle(self, table1):
        tau_star, _ = optimize_tau(5, table1)
        lad, _ = solve_ladder(tau_star, 5, 8, 8192)
        best = abs(solve_tau(lad, 5).tau - tau_star)
        sampled = set(np.linspace(2, 8192, 400).astype(int)) | {
            lad.thresholds[0] - 1, lad.thresholds[0], lad.thresholds[0] + 1}
        for w0 in sorted(sampled):
            if w0 < 2:
                continue
            other = abs(solve_tau(BackoffLadder.beb(int(w0), 8, 8192), 5).tau - tau_star)
            assert best <= other + 1e-15

    def test_unreachable_target_fails(self):
        # tau = 2/D <= 2/3 whenever W_0 >= 2, so 0.9 is out of reach
        with pytest.raises(LadderSearchError):
            solve_ladder(0.9, 4, 8, 8192)

    def test_cap_precondition(self):
        with pytest.raises(ValueError):
            solve_ladder(0.01, 10, 8, 100)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 1000), k_max=st.integers(0, 10),
           extra=st.integers(0, 1 << 16), tau_star=st.floats(1e-6, 0.6))
    @example(n=500, k_max=8, extra=32768 - 256, tau_star=0.5)   # LadderSearchError
    @example(n=50, k_max=8, extra=32768 - 256, tau_star=0.005)  # interior ladder
    @example(n=5, k_max=0, extra=0, tau_star=0.1)  # cap = 1: the ladder's own W_0 message
    def test_matches_nested_bisection(self, n, k_max, extra, tau_star):
        cap = (1 << k_max) + extra
        got = _outcome(_ladder, tau_star, n, k_max, cap)
        want = _outcome(bisect_ladder, tau_star, n, k_max, cap)
        # Ties are kept out of the draw: a target within solver tolerance of
        # an achievable tau can take either branch of a bracketing step.  This
        # happens in near-flat cases (e.g. N >= 200, k_max = 1, cap = 8),
        # where tau(W_0) varies by less than the fixed-point tolerance.
        near = {ws[0] + d for ws in (got, want) if isinstance(ws[0], int)
                for d in (-1, 0, 1)}
        assume(not any(
            abs(solve_tau(BackoffLadder.beb(w, k_max, cap), n).tau - tau_star)
            <= 1e-9 * tau_star for w in near if 2 <= w <= cap))
        assert got == want

    @settings(max_examples=500, deadline=None)
    @given(k_max=st.integers(0, 40), extra=st.integers(0, 2_000_000_000_098),
           n=st.integers(1, 5000),
           tau_star=st.floats(math.log(1e-13), math.log(0.99)).map(math.exp))
    # the crossing sits where a stage reaches the cap: 2^8 * 100 = cap
    @example(k_max=8, extra=25600 - 256, n=50, tau_star=math.exp(-4.706768))
    # no crossing below the cap: W_0 = cap - 1
    @example(k_max=4, extra=1000 - 16, n=5, tau_star=math.exp(-20.0))
    # no crossing above 2: W_0 = 2
    @example(k_max=4, extra=1000 - 16, n=5, tau_star=math.exp(-0.5))
    # the caps of test_crossing_answers: past 2^53, past int64's search
    # range (2^62), at 2,000,000,000,098 and at 3
    @example(k_max=1, extra=10 ** 30 - 2, n=3, tau_star=1e-17)
    @example(k_max=0, extra=10 ** 30 - 1, n=3, tau_star=1e-20)
    @example(k_max=8, extra=(1 << 60) + 3 - 256, n=5, tau_star=1e-16)
    @example(k_max=8, extra=(1 << 62) + 3 - 256, n=5, tau_star=1e-18)
    # no crossing below a cap of int64's largest value: every step is taken
    @example(k_max=0, extra=(1 << 63) - 2, n=3, tau_star=1e-19)
    @example(k_max=40, extra=2_000_000_000_098 - (1 << 40), n=100, tau_star=1e-12)
    @example(k_max=1, extra=1, n=10, tau_star=0.05)
    def test_crossing_matches_bisection(self, k_max, extra, n, tau_star):
        # the predicate is monotone in W_0, so any exact search agrees (no ties
        # to keep out), also for a row searched beside rows that switch elsewhere
        cap = max(2, (1 << k_max) + extra)
        got = am._crossings([tau_star, 0.5, 1e-13], [n, 2, 5000], k_max, cap)
        assert got[0] == bisect_crossing(tau_star, n, k_max, cap)

    # the W_0 of the examples above, exact past float precision
    @pytest.mark.parametrize("k_max, cap, n, tau_star, want", [
        (8, 25600, 50, math.exp(-4.706768), 100), (4, 1000, 5, math.exp(-20.0), 999),
        (4, 1000, 5, math.exp(-0.5), 2),
        (1, 10 ** 30, 3, 1e-17, 200000000000000016),
        (0, 10 ** 30, 3, 1e-20, 200000000000000049151),
        (8, (1 << 60) + 3, 5, 1e-16, 19999999999999994),
        (8, (1 << 62) + 3, 5, 1e-18, 2000000000000000128),
        (40, 2_000_000_000_098, 100, 1e-12, 1999999999999), (1, 3, 10, 0.05, 2)])
    def test_crossing_answers(self, k_max, cap, n, tau_star, want):
        assert bisect_crossing(tau_star, n, k_max, cap) == want
        assert am._crossings([tau_star], [n], k_max, cap) == [want]

    # (1000, 1, 16) is flat: W_0 = 8..16 share one solved tau, so only the
    # real solve at the cap end returns the cap ladder there
    @pytest.mark.parametrize("n, k_max, cap",
                             [(10, 1, 2), (5, 8, 8192), (300, 3, 64), (1000, 1, 16)])
    def test_bracket_ends_are_reachable(self, n, k_max, cap):
        tau_top = solve_tau(BackoffLadder.beb(2, k_max, cap), n).tau
        assert _ladder(tau_top, n, k_max, cap).thresholds[0] == 2
        tau_bottom = solve_tau(BackoffLadder.beb(cap, k_max, cap), n).tau
        assert _ladder(tau_bottom, n, k_max, cap) == BackoffLadder.beb(cap, k_max, cap)
        above = math.nextafter(tau_top, 1.0)
        with pytest.raises(LadderSearchError) as info:
            solve_ladder(above, n, k_max, cap)
        assert str(info.value) == (
            f"no W_0 >= 2 reaches tau = {above:.6g}; "
            f"closest is W_0 = 2 with tau = {tau_top:.6g} "
            f"(residual {above - tau_top:.3g})")

    @pytest.mark.parametrize("n", [2, 50, 500])
    def test_two_fixed_point_solves(self, table1, monkeypatch, n):
        # the floor and the ceiling are solved, as two rows of one
        # _solve_rows call, and nothing else: the bracket ends need no rows
        # of their own.  The crossing is binary-searched over (2, cap): at
        # most 2 + ceil(log2(cap - 2)) = 17 evaluations of D (points of _td)
        # outside the solve, a cost of the search and not a bound on its
        # result, all at one p*, formed once
        calls = []
        outside = {am._td: 0, am._p: 0}
        solving = [False]
        inner_solve_rows = am._solve_rows

        def solve_rows(rows, n_nodes):
            calls.append(np.asarray(rows).tolist())
            solving[0] = True
            try:
                return inner_solve_rows(rows, n_nodes)
            finally:
                solving[0] = False

        def counting(inner):
            def count(t, *args):
                outside[inner] += 0 if solving[0] else np.size(t)
                return inner(t, *args)
            return count

        tau_star, _ = optimize_tau(n, table1)
        want = bisect_ladder(tau_star, n, 8, 32768)
        monkeypatch.setattr(am, "_solve_rows", solve_rows)
        for name in ("_td", "_p"):
            monkeypatch.setattr(am, name, counting(getattr(am, name)))
        assert _ladder(tau_star, n, 8, 32768) == want
        w0 = want.thresholds[0]
        assert calls == [[am._beb(w, 8, 32768) for w in (w0 - 1, w0)]] or calls == [
            [am._beb(w, 8, 32768) for w in (w0, w0 + 1)]]
        d_points, p_points = outside.values()
        assert 0 < d_points <= 2 + math.ceil(math.log2(32768 - 2))
        assert p_points == 1

    def test_fixed_point_is_the_ladders(self, table1):
        # the design hands back solve_tau's result on its ladder, field for
        # field: every generalize density, an all-cap return and K = 0
        cases = [(optimize_tau(n, table1)[0], n, 8, 32768)
                 for n in sorted(set(range(2, 501, 8)) | {500})]
        tau_bottom = solve_tau(BackoffLadder.beb(64, 3, 64), 300).tau
        cases += [(0.5 * tau_bottom, 300, 3, 64), (0.05, 40, 0, 1024)]
        for tau_star, n, k_max, cap in cases:
            ladder, fixed_point = solve_ladder(tau_star, n, k_max, cap)
            assert fixed_point == solve_tau(ladder, n)
            assert ladder == bisect_ladder(tau_star, n, k_max, cap)
        assert ladder.k_max == 0
        assert _ladder(0.5 * tau_bottom, 300, 3, 64) == BackoffLadder.beb(64, 3, 64)
        # no ladder: the error and its message are the nested bisection's
        want = _outcome(bisect_ladder, 0.9, 4, 8, 8192)
        assert want[0] == "LadderSearchError"
        assert _outcome(_ladder, 0.9, 4, 8, 8192) == want

    def test_tie_prefers_smaller_w0(self, table1):
        # any target strictly between two adjacent achievable taus picks the
        # closer one; equality cannot strictly occur, so check adjacency
        tau_mid = 0.5 * (solve_tau(BackoffLadder.beb(40, 4, 4096), 8).tau
                         + solve_tau(BackoffLadder.beb(41, 4, 4096), 8).tau)
        lad, _ = solve_ladder(tau_mid, 8, 4, 4096)
        assert lad.thresholds[0] in (40, 41)


def _design_outcome(design):
    """A design outcome, comparable bit for bit: the ladder and its fixed point's repr, or the
    type and message of the error."""
    if isinstance(design, Exception):
        return type(design).__name__, str(design)
    ladder, fixed_point = design
    return ladder, repr(fixed_point)


def _reference_design(*args):
    try:
        return _design_outcome(reference_solve_ladder(*args))
    except (ValueError, LadderSearchError) as exc:
        return _design_outcome(exc)


# a design row (N, tau_star), and rows refused before any design
DESIGN_ROW = st.tuples(st.integers(1, 5000),
                       st.floats(math.log(1e-13), math.log(0.99)).map(math.exp))
REFUSED_ROW = (st.tuples(st.integers(-3, 0), st.floats(1e-6, 0.5))
               | st.tuples(st.integers(1, 50), st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan])))
# the crossing of the first example sits where a stage reaches the cap (2^8 * 100 = cap)
CROSSING = (50, math.exp(-4.706768))
# the midpoint of the roots of W_0 = 802 and 803 at N = 50, k_max = 8, cap = 32768
TIE = 0.00220514309048174


class TestSolveLadders:
    """``solve_ladders`` row for row against the scalar design it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(k_max=st.integers(0, 12),
           extra=st.integers(0, 1 << 16) | st.integers(0, 2_000_000_000_098),
           rows=st.lists(DESIGN_ROW | REFUSED_ROW, min_size=1, max_size=8))
    @example(k_max=8, extra=32768 - 256, rows=[(500, 0.5), (50, 0.005)])  # no W_0
    @example(k_max=3, extra=0, rows=[(300, 0.01), (300, 1e-3)])  # all-cap return
    # a wide W_0 = 2 ladder at N = 5000, beside N = 100
    @example(k_max=40, extra=2_000_000_000_098 - (1 << 40), rows=[(5000, 1e-6), (100, 1e-6)])
    @example(k_max=1, extra=1, rows=[(10, 0.05), (10, 0.3)])  # cap = 3
    @example(k_max=0, extra=1023, rows=[(9, 2.0 / 33.0), (40, 0.05)])  # K = 0
    @example(k_max=8, extra=32768 - 256, rows=[(1, 0.01), (1, 0.9)])  # N = 1
    # tau_star is the exact midpoint of the W_0 = 802 and 803 roots: the tie goes to the floor
    @example(k_max=8, extra=32768 - 256, rows=[(50, TIE)])
    # an all-cap ladder whose root lies below 1e-12, beside a refused row
    @example(k_max=1, extra=4 * 2_000_000_000_098, rows=[(100, 1e-13), (0, 0.1)])
    def test_rows_equal_reference(self, k_max, extra, rows):
        # "equal" is the same ladder and the same fixed point, bits and all,
        # or the same error type and message; the reference runs each row
        # alone, so one row's failure cannot move another's result
        cap = (1 << k_max) + extra
        ns, tau_stars = [n for n, _ in rows], [t for _, t in rows]
        got = [_design_outcome(d) for d in am.solve_ladders(tau_stars, ns, k_max, cap)]
        want = [_reference_design(t, n, k_max, cap) for t, n in zip(tau_stars, ns)]
        designed = [j for j, w in enumerate(want) if isinstance(w[0], BackoffLadder)]
        alone = am.solve_ladders([tau_stars[j] for j in designed], [ns[j] for j in designed],
                                 k_max, cap)
        assert got == want
        # and the rows that design, called without the failing ones, keep their results
        assert [_design_outcome(d) for d in alone] == [want[j] for j in designed]

    def test_examples_take_their_paths(self):
        # the examples above reach the branches their comments name
        designs = am.solve_ladders([0.5, 0.005, 0.01, 1e-3], [500, 50, 300, 300], 8, 32768)
        assert isinstance(designs[0], LadderSearchError) and designs[1][0].thresholds[0] > 2
        assert [d[0] for d in am.solve_ladders([0.01, 1e-3], [300, 300], 3, 8)] == [
            BackoffLadder.beb(8, 3, 8)] * 2
        floor, ceiling = (solve_tau(BackoffLadder.beb(w, 8, 32768), 50).tau for w in (802, 803))
        assert floor - TIE == TIE - ceiling > 0
        assert am.solve_ladders([TIE], [50], 8, 32768)[0][0].thresholds[0] == 802
        cap = 4 * 2_000_000_000_098 + 2
        (all_cap,) = am.solve_ladders([1e-13], [100], 1, cap)
        assert all_cap[0] == BackoffLadder.beb(cap, 1, cap) and all_cap[1].tau < 1e-12
        (crossing,) = am.solve_ladders([CROSSING[1]], [CROSSING[0]], 8, 25600)
        assert crossing[0].thresholds[0] in (100, 101)
        assert bisect_crossing(CROSSING[1], CROSSING[0], 8, 25600) == 100

    @pytest.mark.parametrize("k_max", [0, 1])
    def test_cap_past_float_refused_per_row(self, k_max):
        # the crossing takes the cap as a float: a cap past float range is
        # refused row by row, naming it
        huge = 10 ** 400
        designs = am.solve_ladders([0.01, 0.5, 0.01], [5, 5, 0], k_max, huge)
        assert [_design_outcome(d) for d in designs] == [
            ("ValueError", f"cap must fit in a float, got a {huge.bit_length()}-bit integer")] * 3
        with pytest.raises(ValueError, match="^cap"):
            solve_ladder(0.01, 5, k_max, huge)

    def test_k_max_past_the_cap_refused_per_row(self):
        # cap < 2^k_max is read from the cap's bit length: the message once
        # printed 2^20000, past the digits Python converts to a string
        designs = am.solve_ladders([0.01, 0.5], [50, 5], 20000, 32768)
        assert [_design_outcome(d) for d in designs] == [
            ("ValueError", "cap must be >= 2^k_max with k_max = 20000, got 32768")] * 2


class TestMismatchLoss:
    def test_matched_is_zero(self, table1):
        assert mismatch_loss(50, 50, 8, 32768, table1) == 0.0

    def test_gap_widens(self, table1):
        assert (mismatch_loss(500, 50, 8, 32768, table1)
                > mismatch_loss(100, 50, 8, 32768, table1))

    def test_against_grid_composition(self, table1):
        # same composition evaluated with the grid-scan tau solver
        loss = mismatch_loss(300, 50, 8, 32768, table1)

        def deployed(n_design):
            lad, _ = design_ladder(n_design, table1, 8, 32768)
            return throughput(grid_tau(lad.thresholds, 300), 300, table1)

        oracle = deployed(300) - deployed(50)
        assert loss == pytest.approx(oracle, abs=1e-6)

    def test_rejects_tiny_density(self, table1):
        with pytest.raises(ValueError):
            mismatch_loss(1, 50, 8, 32768, table1)


def test_lipschitz_spot_check(table1):
    # |U(W) - U(W')| <= T_P * N_bar / (8 T_sigma) * |W_k - W_k'|; the slope
    # bound is enormous compared to U <= 1, so check the exact inequality on
    # a handful of single-coordinate bumps (the acceptance suite sweeps 1000)
    bound = table1.payload_us * 500 / (8 * table1.slot_time_us)
    lad = BackoffLadder.beb(32, 5, 4096)
    u0 = ladder_throughput(lad, 10, table1)
    for k, delta in [(0, 5), (2, 40), (5, 1000)]:
        ws = list(lad.thresholds)
        ws[k] += delta
        ws = tuple(sorted(set(ws)))
        u1 = ladder_throughput(BackoffLadder(ws, 32768), 10, table1)
        assert abs(u1 - u0) <= bound * delta
