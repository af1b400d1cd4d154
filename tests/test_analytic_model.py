import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icl_csma import analytic_model as am
from icl_csma.analytic_model import (
    BackoffLadder,
    FixedPointError,
    LadderSearchError,
    NetworkParams,
    collision_prob,
    design_ladder,
    ladder_throughput,
    mismatch_loss,
    optimize_tau,
    solve_ladder,
    solve_tau,
    throughput,
)
from oracles import (bisect_crossing, bisect_ladder, grid_tau, random_ladder,
                     reference_side, reference_solve_ladder, reference_solve_tau)


def _outcome(design, *args):
    """A design's thresholds, or the type and message of what it raised."""
    try:
        return design(*args).thresholds
    except (ValueError, LadderSearchError) as exc:
        return type(exc).__name__, str(exc)


def _ladder(*args):
    """``solve_ladder``'s ladder alone, the form ``bisect_ladder`` returns."""
    return solve_ladder(*args)[0]


def _solve_outcome(solver, *args, **kwargs):
    """A solver's FixedPointResult, or the type and message of what it raised."""
    try:
        return solver(*args, **kwargs)
    except (ValueError, FixedPointError) as exc:
        return type(exc).__name__, str(exc)


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

    def test_degenerate_bypass(self):
        lad = BackoffLadder((1, 2, 4), 16, degenerate=True)
        assert lad.thresholds[0] == 1

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
    def test_single_node(self):
        assert collision_prob(0.5, 1) == 0.0

    def test_two_nodes(self):
        assert collision_prob(0.5, 2) == 0.5

    def test_direct_evaluation(self):
        # 1 - 0.9^4 = 0.3439
        assert collision_prob(0.1, 5) == pytest.approx(0.3439, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            collision_prob(0.0, 2)
        with pytest.raises(ValueError):
            collision_prob(1.0, 2)
        with pytest.raises(ValueError):
            collision_prob(0.5, 0)


class TestSolveTau:
    def test_k0_closed_form(self):
        res = solve_tau(BackoffLadder((32,), 1024), 7)
        assert res.tau == 2.0 / 33.0
        assert res.residual <= 1e-10

    def test_single_node_closed_form(self):
        res = solve_tau(BackoffLadder.beb(32, 5, 2048), 1)
        assert res.tau == 2.0 / 33.0
        assert res.p == 0.0

    def test_boundary_ladder_rejected(self):
        # W_0 = 1 would pin tau at 1; the degenerate bypass only serves the
        # simulator, the solver refuses it
        lad = BackoffLadder((1,), 4, degenerate=True)
        with pytest.raises(ValueError):
            solve_tau(lad, 3)

    def test_beb_against_grid_oracle(self):
        lad = BackoffLadder.beb(32, 5, 32768)
        res = solve_tau(lad, 10)
        oracle = grid_tau(lad.thresholds, 10)
        assert abs(res.tau - oracle) <= 1e-7
        assert res.residual <= 1e-10

    def test_residual_definition(self):
        lad = BackoffLadder.beb(16, 3, 1024)
        res = solve_tau(lad, 5)
        p = collision_prob(res.tau, 5)
        d = (1 - p) * (16 + p * 32 + p * p * 64) + p ** 3 * 128 + 1
        assert abs(res.tau * d - 2.0) == pytest.approx(res.residual, rel=1e-9)

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
    @given(seed=st.integers(0, 2 ** 32 - 1), k_high=st.integers(0, 8),
           n=st.integers(1, 1000), max_iter=st.integers(1, 200),
           tol=st.sampled_from([1e-10, 1e-6, 1e-14]))
    @example(seed=1, k_high=0, n=40, max_iter=200, tol=1e-10)  # K = 0 closed form
    @example(seed=2, k_high=8, n=1, max_iter=200, tol=1e-10)   # single node
    @example(seed=3, k_high=8, n=300, max_iter=5, tol=1e-10)   # FixedPointError
    # tol = 1: the window is as wide as the root and its left certificate
    # is refused, so the replay evaluates every midpoint left of the root
    @example(seed=2, k_high=8, n=100, max_iter=200, tol=1.0)
    # max_iter ends inside the skipped prefix (43 steps): the residual of
    # the error message is g at a midpoint nothing evaluated
    @example(seed=0, k_high=8, n=1000, max_iter=30, tol=1e-14)
    # W_K / W_0 = 1391 and 1119 at N = 1000: float noise in g, about 1e-12,
    # exceeds tol, the bound E widens the window and bisection runs out
    @example(seed=739, k_high=8, n=1000, max_iter=200, tol=1e-14)
    @example(seed=575, k_high=8, n=1000, max_iter=200, tol=1e-14)
    def test_matches_reference_solver(self, seed, k_high, n, max_iter, tol):
        ws = random_ladder(np.random.default_rng(seed), k_high=k_high)
        ladder = BackoffLadder(ws, ws[-1])
        got = _solve_outcome(solve_tau, ladder, n, tol=tol, max_iter=max_iter)
        want = _solve_outcome(reference_solve_tau, ladder, n, tol=tol, max_iter=max_iter)
        assert got == want

    def test_error_example_does_not_converge(self):
        # the FixedPointError example above really takes the error path
        ws = random_ladder(np.random.default_rng(3))
        with pytest.raises(FixedPointError, match="no convergence after 5 bisections"):
            solve_tau(BackoffLadder(ws, ws[-1]), 300, max_iter=5)

    def test_examples_take_their_paths(self, monkeypatch):
        # the examples above reach the paths their comments name
        def ladder(seed):
            ws = random_ladder(np.random.default_rng(seed))
            return ws, [float(w) for w in ws[:-1]], float(ws[-1])

        ws, lower, w_top = ladder(2)
        a, b = am._window(99, lower, w_top, 1.0, None)
        assert a == 0.0 and b < 1.0  # left certificate refused
        calls = []
        g = am._g

        def counting_g(*args, **kwargs):
            calls.append(args[0])
            return g(*args, **kwargs)

        monkeypatch.setattr(am, "_g", counting_g)
        ws, lower, w_top = ladder(0)
        am._window(999, lower, w_top, 1e-14, None)
        estimate = len(calls)
        with pytest.raises(FixedPointError, match="no convergence after 30 bisections"):
            solve_tau(BackoffLadder(ws, ws[-1]), 1000, tol=1e-14, max_iter=30)
        assert len(calls) == 2 * estimate + 1  # no midpoint evaluated, then the residual
        for seed in (739, 575):
            ws, lower, w_top = ladder(seed)
            assert ws[-1] >= 1000 * ws[0]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 1000), k_max=st.integers(0, 10), extra=st.integers(2, 1 << 16),
           offset=st.integers(0, 1 << 16), p=st.floats(0.0, 1.0, exclude_max=True))
    @example(n=964, k_max=5, extra=47, offset=25, p=0.98)  # W_0 = 27..73 solve alike
    def test_beb_tau_strictly_decreasing_in_w0(self, n, k_max, extra, offset, p):
        # solve_ladder's bisection on W_0 rests on this.  Exactly: raising W_0
        # raises every W_k weakly and W_0 strictly, so at every p < 1 the
        # denominator D, and with it g(tau) = tau * D(p(tau)) - 2 at every
        # tau, grows strictly, and the root tau falls strictly.  The float
        # bisection can only tie where the gap is below its tolerance, never
        # invert.
        cap = (1 << k_max) + extra
        w0 = 2 + offset % (cap - 2)
        lower = BackoffLadder.beb(w0, k_max, cap)
        higher = BackoffLadder.beb(w0 + 1, k_max, cap)
        exact_p = Fraction(p)
        assert (_exact_denominator(higher.thresholds, exact_p)
                > _exact_denominator(lower.thresholds, exact_p))
        assert solve_tau(higher, n).tau <= solve_tau(lower, n).tau


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k_high=st.integers(1, 8),
       w0_high=st.sampled_from([16, 1024, 100_000]), n=st.integers(2, 1000),
       t=st.floats(1e-9, 0.7))
def test_float_error_of_g_within_bound(seed, k_high, w0_high, n, t):
    # the bound E(t) = e1 t + 2u that certifies skipped midpoints, against g
    # in exact rational arithmetic
    ws = random_ladder(np.random.default_rng(seed), k_high=k_high, w0_high=w0_high)
    assume(len(ws) > 1)
    lower, w_top = [float(w) for w in ws[:-1]], float(ws[-1])
    val = am._g(t, n - 1, lower, w_top)[0]
    exact_t = Fraction(t)
    exact = exact_t * _exact_denominator(ws, 1 - (1 - exact_t) ** (n - 1)) - 2
    bound = am._error_slope(n - 1, lower, w_top) * t + 2 * am._UNIT_ROUNDOFF
    assert abs(Fraction(val) - exact) <= bound


def test_evaluations_per_solve(table1, monkeypatch):
    # the fixed points of an eval pass over the benchmark's densities (every
    # 8th of 2..500 plus 500): each design, whose throughput reads the fixed
    # point it hands back, and the model-based ladder designed for N = 50
    # deployed there.  A design solves its floor and ceiling as two rows of
    # one _solve_rows call, so g is counted in points: a call on an array
    # of M points is M evaluations
    counts = []  # (evaluations of g, bisection steps, rows) per solver call
    evaluations = [0]
    g, solve, solve_rows = am._g, am._solve, am._solve_rows

    def counting_g(t, *args, **kwargs):
        evaluations[0] += np.size(t)
        return g(t, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        before = evaluations[0]
        result = solve(*args, **kwargs)
        counts.append((evaluations[0] - before, result.iterations, 1))
        return result

    def counting_solve_rows(*args, **kwargs):
        before = evaluations[0]
        results = solve_rows(*args, **kwargs)
        counts.append((evaluations[0] - before, sum(fp.iterations for fp in results),
                       len(results)))
        return results

    monkeypatch.setattr(am, "_g", counting_g)
    monkeypatch.setattr(am, "_solve", counting_solve)
    monkeypatch.setattr(am, "_solve_rows", counting_solve_rows)
    model_based, _ = design_ladder(50, table1, 8, 32768)
    for n in sorted(set(range(2, 501, 8)) | {500}):
        throughput(design_ladder(n, table1, 8, 32768)[1].tau, n, table1)
        ladder_throughput(model_based, n, table1)
    solves = sum(rows for *_, rows in counts)
    assert solves == 65 * 2 + 64
    # plain bisection evaluates g once per step: 43 on average here
    assert sum(e for e, *_ in counts) / solves <= 10
    # the estimate and its two certificate points are the only extra cost
    assert all(e <= steps + rows * (am._NEWTON_BUDGET + 2) for e, steps, rows in counts)


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


def _deployed(rows, cap, ns, params):
    """``rows_throughput``'s outcomes, each a throughput's hex or an error's type and message."""
    return [(type(u).__name__, str(u)) if isinstance(u, Exception) else u.hex()
            for u in am.rows_throughput(rows, cap, ns, params)]


def _ladder_path(row, cap, n, params):
    """``ladder_throughput`` of the ladder a row spells, in ``_deployed``'s form."""
    try:
        return ladder_throughput(BackoffLadder(tuple(row), cap), n, params).hex()
    except (ValueError, FixedPointError) as exc:
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
# numpy's array ** rounds (1 - t)^5340 here one ulp away from Python's pow
@example(case=([0.03419023877442884], [5341], [am._beb(16, 8, 1024)]))
def test_g_on_arrays_equals_scalar_calls(case):
    t, ns, rows = case
    ws = np.array(rows, float)
    val, p, slope = am._g(np.array(t), np.array(ns, float) - 1, ws[:, :-1].T, ws[:, -1],
                          slope=True)
    want = [am._g(ti, n - 1, row[:-1], row[-1], slope=True) for ti, n, row in
            zip(t, ns, ws.tolist())]
    assert val.tolist() == [w[0] for w in want]
    assert p.tolist() == [w[1] for w in want]
    want_slope = np.array([w[2] for w in want])
    assert np.all(np.abs(slope - want_slope) <= 4 * np.spacing(np.abs(want_slope)))


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
    """``_solve_rows`` gives each row what ``_solve`` gives it, field for field."""

    @settings(max_examples=200, deadline=None)
    @given(case=ladder_rows(), max_iter=st.one_of(st.just(200), st.integers(1, 60)),
           tol=st.sampled_from([1e-10, 1e-6, 1e-14, 1.0]))
    @example(case=([[2, 40, 900], [5, 6, 7], [2, 900, 900]], [1, 300, 40]),
             max_iter=5, tol=1e-10)                              # FixedPointError rows
    @example(case=([[16], [2], [7]], [1, 40, 5000]), max_iter=200, tol=1e-10)  # K = 0
    # W_0 = 2 and W_K = MAX_CAP at N = 5000: the error bound refuses every
    # certificate and the row replays plain bisection beside a certified one
    @example(case=([[2] + [2 ** (5 * k) for k in range(1, 7)] + [am.MAX_CAP],
                    am._beb(32, 7, 32768)],
                   [5000, 5000]),
             max_iter=200, tol=1e-10)
    def test_equals_solve(self, case, max_iter, tol):
        rows, ns = case
        got = [(type(fp).__name__, str(fp)) if isinstance(fp, FixedPointError) else fp
               for fp in am._solve_rows(rows, ns, tol, max_iter)]
        want = [_solve_outcome(am._solve, ws, n, tol, max_iter) for ws, n in zip(rows, ns)]
        assert got == want
        # the same bits and types, not only equal values
        assert [repr(fp) for fp in got] == [repr(fp) for fp in want]

    def test_many_rows_equal_solve(self):
        # numpy's array ** takes a vector path only on longer arrays, where
        # its bits differ from Python's on a few percent of inputs; a
        # sweep's worth of rows in one call exercises it
        rng = np.random.default_rng(11)
        rows = [[int(rng.integers(2, 300))]
                + sorted(rng.choice(np.arange(300, 40000), 8, replace=False).tolist())
                for _ in range(400)]
        ns = rng.integers(2, 1000, len(rows)).tolist()
        assert am._solve_rows(rows, ns) == [am._solve(ws, n) for ws, n in zip(rows, ns)]

    def test_examples_take_their_paths(self):
        # the examples above reach the paths their comments name
        fps = am._solve_rows([[2, 40, 900], [5, 6, 7], [2, 900, 900]], [1, 300, 40], max_iter=5)
        assert [type(fp) for fp in fps] == [am.FixedPointResult] * 2 + [FixedPointError]
        ws = [2] + [2 ** (5 * k) for k in range(1, 7)] + [am.MAX_CAP]
        assert am._certified_slope(4999, list(map(float, ws[:-1])), float(ws[-1])) is None


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
    @given(k_max=st.integers(0, 40), extra=st.integers(0, am.MAX_CAP), n=st.integers(1, 5000),
           tau_star=st.floats(math.log(1e-13), math.log(0.99)).map(math.exp),
           guess=st.none() | st.floats(-10.0, 1.01 * am.MAX_CAP))
    # the crossing sits where a stage reaches the cap: 2^8 * 100 = cap
    @example(k_max=8, extra=25600 - 256, n=50, tau_star=math.exp(-4.706768), guess=None)
    # no crossing below the cap: W_0 = cap - 1
    @example(k_max=4, extra=1000 - 16, n=5, tau_star=math.exp(-20.0), guess=None)
    # no crossing above 2: W_0 = 2
    @example(k_max=4, extra=1000 - 16, n=5, tau_star=math.exp(-0.5), guess=None)
    def test_crossing_matches_bisection(self, k_max, extra, n, tau_star, guess):
        # the predicate is monotone in W_0, so any exact search agrees (no ties
        # to keep out), and the guess only saves evaluations: from any other
        # guess the search steps on to the same W_0
        cap = max(2, min((1 << k_max) + extra, am.MAX_CAP))
        with pytest.MonkeyPatch.context() as patch:
            if guess is not None:
                patch.setattr(am, "_crossing_guess", lambda *args: guess)
            got = am._crossing(tau_star, n, k_max, cap)
        assert got == bisect_crossing(tau_star, n, k_max, cap)

    # the examples above, with the W_0 their comments name
    @pytest.mark.parametrize("tau_star, n, k_max, cap, want", [
        (math.exp(-4.706768), 50, 8, 25600, 100), (math.exp(-20.0), 5, 4, 1000, 999),
        (math.exp(-0.5), 5, 4, 1000, 2)])
    def test_crossing_from_every_nearby_guess(self, monkeypatch, tau_star, n, k_max, cap, want):
        # each distance of the guess from the answer, up to 100 either way,
        # ends the doubling steps at a different point of the search
        assert bisect_crossing(tau_star, n, k_max, cap) == want
        for guess in range(want - 100, want + 101):
            monkeypatch.setattr(am, "_crossing_guess", lambda *args: guess + 0.5)
            assert am._crossing(tau_star, n, k_max, cap) == want

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
        # _solve_rows call; both bracket ends are certified by g at tau_star
        # and the crossing is confirmed by g at its floor and ceiling: 2 + 2
        # evaluations (points of g) outside the solves
        calls = []
        outside = [0]
        solving = [False]
        inner_solve, inner_solve_rows, inner_g = am._solve, am._solve_rows, am._g

        def counting(inner, rows_of):
            def solve(ws, n_nodes, *args, **kwargs):
                calls.extend(rows_of(ws))
                solving[0] = True
                try:
                    return inner(ws, n_nodes, *args, **kwargs)
                finally:
                    solving[0] = False
            return solve

        def counting_g(t, *args, **kwargs):
            outside[0] += 0 if solving[0] else np.size(t)
            return inner_g(t, *args, **kwargs)

        tau_star, _ = optimize_tau(n, table1)
        want = bisect_ladder(tau_star, n, 8, 32768)
        monkeypatch.setattr(am, "_solve", counting(inner_solve, lambda ws: [ws]))
        monkeypatch.setattr(am, "_solve_rows", counting(inner_solve_rows, list))
        monkeypatch.setattr(am, "_g", counting_g)
        assert _ladder(tau_star, n, 8, 32768) == want
        assert len(calls) == 2
        assert outside[0] <= 6

    def test_fixed_point_is_the_ladders(self, table1):
        # the design hands back solve_tau's result on its ladder, field for
        # field: every generalize density, a certified all-cap return and K = 0
        cases = [(optimize_tau(n, table1)[0], n, 8, 32768)
                 for n in sorted(set(range(2, 501, 8)) | {500})]
        tau_bottom = solve_tau(BackoffLadder.beb(64, 3, 64), 300).tau
        assert am._side([64] * 4, 300, 0.5 * tau_bottom) == -1
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
    except (ValueError, LadderSearchError, FixedPointError) as exc:
        return _design_outcome(exc)


# a design row (N, tau_star), and rows refused before any design
DESIGN_ROW = st.tuples(st.integers(1, 5000),
                       st.floats(math.log(1e-13), math.log(0.99)).map(math.exp))
REFUSED_ROW = (st.tuples(st.integers(-3, 0), st.floats(1e-6, 0.5))
               | st.tuples(st.integers(1, 50), st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan])))
# the crossing of the first example sits where a stage reaches the cap (2^8 * 100 = cap)
CROSSING = (50, math.exp(-4.706768))


class TestSolveLadders:
    """``solve_ladders`` row for row against the scalar design it replaced."""

    @staticmethod
    def _forced_guess(guess):
        """A ``_crossing_guess`` that puts every row's guess at ``guess``."""
        return lambda tau_star, *args: np.full(np.shape(tau_star), guess)

    @settings(max_examples=300, deadline=None)
    @given(k_max=st.integers(0, 12), extra=st.integers(0, 1 << 16) | st.integers(0, am.MAX_CAP),
           rows=st.lists(DESIGN_ROW | REFUSED_ROW, min_size=1, max_size=8),
           guess=st.none() | st.floats(-10.0, 1e6))
    @example(k_max=8, extra=32768 - 256, rows=[(500, 0.5), (50, 0.005)], guess=None)  # no W_0
    @example(k_max=3, extra=0, rows=[(300, 0.01), (300, 1e-3)], guess=None)  # all-cap return
    # W_0 = 2 is too wide at N = 5000 to certify, and is solved
    @example(k_max=40, extra=am.MAX_CAP - (1 << 40), rows=[(5000, 1e-6), (100, 1e-6)],
             guess=None)
    # a guess far from the crossing: the stepping search finds W_0 = 100
    @example(k_max=8, extra=25600 - 256, rows=[CROSSING, (5, 0.01)], guess=50.5)
    @example(k_max=1, extra=1, rows=[(10, 0.05), (10, 0.3)], guess=None)  # cap = 3
    @example(k_max=0, extra=1023, rows=[(9, 2.0 / 33.0), (40, 0.05)], guess=None)  # K = 0
    @example(k_max=8, extra=32768 - 256, rows=[(1, 0.01), (1, 0.9)], guess=None)  # N = 1
    # W_0 and W_0 + 1 solve to one tau: the tie goes to the floor
    @example(k_max=1, extra=7001704220782 - 2, rows=[(2099, 1.7170931984426818e-12)], guess=None)
    # the all-cap ladder past MAX_CAP: a FixedPointError beside a refused row
    @example(k_max=1, extra=4 * am.MAX_CAP, rows=[(100, 1e-13), (0, 0.1)], guess=None)
    def test_rows_equal_reference(self, k_max, extra, rows, guess):
        # "equal" is the same ladder and the same fixed point, bits and all,
        # or the same error type and message; the reference runs each row
        # alone, so one row's failure cannot move another's result
        cap = (1 << k_max) + extra
        ns, tau_stars = [n for n, _ in rows], [t for _, t in rows]
        with pytest.MonkeyPatch.context() as patch:
            if guess is not None:
                patch.setattr(am, "_crossing_guess", self._forced_guess(guess))
            got = [_design_outcome(d) for d in am.solve_ladders(tau_stars, ns, k_max, cap)]
            want = [_reference_design(t, n, k_max, cap) for t, n in zip(tau_stars, ns)]
            designed = [j for j, w in enumerate(want) if isinstance(w[0], BackoffLadder)]
            alone = am.solve_ladders([tau_stars[j] for j in designed], [ns[j] for j in designed],
                                     k_max, cap)
        assert got == want
        # and the rows that design, called without the failing ones, keep their results
        assert [_design_outcome(d) for d in alone] == [want[j] for j in designed]

    def test_examples_take_their_paths(self, monkeypatch):
        # the examples above reach the branches their comments name
        top = am._beb(2, 40, am.MAX_CAP)
        assert reference_side(top, 5000, 1e-6) == 0 and reference_side(top, 100, 1e-6) == -1
        assert am._side(top, [5000, 100], [1e-6, 1e-6]).tolist() == [0, -1]
        designs = am.solve_ladders([0.5, 0.005, 0.01, 1e-3], [500, 50, 300, 300], 8, 32768)
        assert isinstance(designs[0], LadderSearchError) and designs[1][0].thresholds[0] > 2
        assert [d[0] for d in am.solve_ladders([0.01, 1e-3], [300, 300], 3, 8)] == [
            BackoffLadder.beb(8, 3, 8)] * 2
        (tie,) = am.solve_ladders([1.7170931984426818e-12], [2099], 1, 7001704220782)
        w0 = tie[0].thresholds[0]
        assert tie[1].tau == solve_tau(BackoffLadder.beb(w0 + 1, 1, 7001704220782), 2099).tau
        (fixed_point_error,) = am.solve_ladders([1e-13], [100], 1, 4 * am.MAX_CAP + 2)
        assert isinstance(fixed_point_error, FixedPointError)
        steps = []
        crossing = am._crossing

        def counting_crossing(*args):
            steps.append(args)
            return crossing(*args)
        monkeypatch.setattr(am, "_crossing", counting_crossing)
        (natural,) = am.solve_ladders([CROSSING[1]], [CROSSING[0]], 8, 25600)
        assert natural[0].thresholds[0] in (100, 101) and not steps
        monkeypatch.setattr(am, "_crossing_guess", self._forced_guess(50.5))
        assert am.solve_ladders([CROSSING[1]], [CROSSING[0]], 8, 25600) == [natural]
        assert len(steps) == 1
        assert bisect_crossing(CROSSING[1], CROSSING[0], 8, 25600) == 100


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
