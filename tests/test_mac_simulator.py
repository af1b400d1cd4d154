import dataclasses
import os
import re
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl_csma import mac_simulator
from icl_csma.analytic_model import BackoffLadder, design_ladder, ladder_throughput, solve_tau
from icl_csma.mac_simulator import (
    BLOCK,
    MAX_NODES,
    SimConfig,
    SimResult,
    run,
    run_all,
)
from oracles import slot_by_slot_sim


@dataclasses.dataclass(frozen=True)
class StressLadder:
    """Thresholds outside the ladder rule (W_0 = 1, repeated steps), for the simulator alone.

    ``SimConfig`` and ``run`` read nothing of a ladder but its thresholds;
    ``BackoffLadder`` refuses these, and W_0 = 1 has no interior fixed point.
    """

    thresholds: tuple[int, ...]


def test_single_node_renewal(table1):
    # no contention: cycle = E[backoff] idle slots + one success, so
    # U -> T_P / (T_s + (W_0 - 1)/2 * T_sigma)
    config = SimConfig(1, BackoffLadder((32,), 1024), table1, 500_000, seed=11)
    result = run(config)
    closed = table1.payload_us / (table1.success_us + 15.5 * table1.slot_time_us)
    assert result.throughput == pytest.approx(closed, rel=5e-3)
    assert result.collisions == 0
    assert result.tx_attempt_rate == pytest.approx(2.0 / 33.0, rel=2e-2)


def test_determinism(table1):
    lad, _ = design_ladder(5, table1, 4, 4096)
    config = SimConfig(5, lad, table1, 50_000, seed=42)
    assert run(config) == run(config)
    assert run(config) != run(dataclasses.replace(config, seed=43))


def test_accounting_identity(table1):
    config = SimConfig(4, BackoffLadder.beb(16, 3, 1024), table1, 37_123, seed=9)
    r = run(config)
    idle_slots = config.horizon_slots - r.successes - r.collisions
    assert (r.successes * table1.success_us + r.collisions * table1.collision_us
            + idle_slots * table1.slot_time_us) == r.total_time_us
    assert r.total_time_us == r.busy_time_us + r.idle_time_us


def test_throughput_never_exceeds_payload_fraction(table1):
    cap = table1.payload_us / table1.success_us
    for n, w0, seed in [(1, 2, 0), (2, 2, 1), (3, 8, 2), (12, 64, 3)]:
        r = run(SimConfig(n, BackoffLadder.beb(w0, 2, 512), table1, 30_000, seed=seed))
        assert 0.0 <= r.throughput <= cap


def test_degenerate_w0_one(table1):
    # W_0 = 1 forces both nodes to collide immediately; only the higher
    # stages ever separate them
    lad = StressLadder((1, 2, 4, 8))
    r = run(SimConfig(2, lad, table1, 50_000, seed=3))
    assert r.collisions > 0
    assert r.successes > 0  # stage escalation eventually resolves contention
    first = run(SimConfig(2, lad, table1, 1, seed=3))
    assert first.collisions == 1 and first.successes == 0
    # attempts are counted independently of outcomes
    assert first.tx_attempt_rate == 1.0


def test_agreement_with_model(table1):
    lad, _ = design_ladder(10, table1, 8, 32768)
    analytic = ladder_throughput(lad, 10, table1)
    r = run(SimConfig(10, lad, table1, 1_000_000, seed=1))
    assert r.throughput == pytest.approx(analytic, rel=2e-2)
    fp = solve_tau(lad, 10)
    assert r.tx_attempt_rate == pytest.approx(fp.tau, rel=5e-2)
    assert r.collision_rate == pytest.approx(fp.p, rel=1e-1)


def test_config_validation(table1):
    lad = BackoffLadder((32,), 1024)
    with pytest.raises(ValueError):
        SimConfig(0, lad, table1, 100, seed=1)
    with pytest.raises(ValueError):
        SimConfig(2, lad, table1, 0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(2, lad, table1, 100, seed=-1)
    # the u64 seed range's two ends
    assert SimConfig(2, lad, table1, 100, seed=0).seed == 0
    assert SimConfig(2, lad, table1, 100, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer$"):
        SimConfig(2, lad, table1, 100, seed=2 ** 64)


@pytest.mark.parametrize("field, value", [
    ("n_nodes", 2.0), ("n_nodes", True), ("n_nodes", "2"),
    ("horizon_slots", 100.0), ("horizon_slots", True), ("horizon_slots", None),
    ("seed", 1.5), ("seed", True), ("seed", 1.0),
])
def test_config_types(table1, field, value):
    # before these checks seed=1.5 and horizon_slots=100.0 reached run, and
    # n_nodes=True and seed=True ran
    fields = {"n_nodes": 2, "ladder": BackoffLadder((32,), 1024), "params": table1,
              "horizon_slots": 100, "seed": 1, field: value}
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        SimConfig(**fields)


def test_density_ceiling(table1):
    # construction only: a run at the ceiling takes about 0.5 GB
    lad = BackoffLadder((32,), 1024)
    assert SimConfig(MAX_NODES, lad, table1, 100, seed=1).n_nodes == MAX_NODES
    with pytest.raises(ValueError, match=f"MAX_NODES = {MAX_NODES}.*got {MAX_NODES + 1}$"):
        SimConfig(MAX_NODES + 1, lad, table1, 100, seed=1)


def test_result_is_frozen(table1):
    r = run(SimConfig(2, BackoffLadder((8, 16), 64), table1, 1_000, seed=5))
    assert isinstance(r, SimResult)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.throughput = 0.0


@pytest.mark.parametrize("n, ladder, horizon, seed", [
    (1, BackoffLadder((32,), 1024), 3_000, 0),
    (2, BackoffLadder.beb(2, 3, 64), 3_000, 1),
    (3, BackoffLadder.beb(8, 2, 512), 3_000, 2),
    (12, BackoffLadder.beb(16, 4, 1024), 4_000, 3),
    (50, BackoffLadder.beb(4, 6, 1024), 6_000, 4),
    (2, StressLadder((1, 2, 4, 8)), 2_000, 5),
    (3, StressLadder((1, 2, 3)), 2_000, 6),
    (5, BackoffLadder((40, 90, 200, 200), 200), 5_000, 7),
])
def test_matches_slot_by_slot_oracle(table1, n, ladder, horizon, seed):
    config = SimConfig(n, ladder, table1, horizon, seed=seed)
    assert run(config) == slot_by_slot_sim(config)


def test_oracle_match_spans_uniform_blocks(table1):
    config = SimConfig(50, BackoffLadder.beb(4, 6, 1024), table1, 20_000, seed=8)
    result = run(config)
    assert config.n_nodes + sum(result.stage_attempts) > 2 * BLOCK
    assert result == slot_by_slot_sim(config)


def test_oracle_match_at_every_horizon(table1):
    # every cut point, including cuts in the middle of an idle run
    base = SimConfig(2, BackoffLadder.beb(8, 2, 64), table1, 1, seed=9)
    idle = []
    for horizon in range(1, 120):
        config = dataclasses.replace(base, horizon_slots=horizon)
        result = run(config)
        assert result == slot_by_slot_sim(config)
        idle.append(horizon - result.successes - result.collisions)
    mid_run = [h for h in range(1, len(idle) - 1)
               if idle[h - 1] + 1 == idle[h] and idle[h] + 1 == idle[h + 1]]
    assert mid_run


def test_stage_counters_add_up(table1):
    config = SimConfig(6, BackoffLadder.beb(8, 3, 1024), table1, 40_000, seed=10)
    r = run(config)
    assert len(r.stage_attempts) == len(r.stage_collisions) == 4
    attempts, colliding = sum(r.stage_attempts), sum(r.stage_collisions)
    idle_slots = config.horizon_slots - r.successes - r.collisions
    assert attempts - colliding == r.successes
    assert colliding >= 2 * r.collisions
    assert r.collision_rate == colliding / attempts
    assert r.tx_attempt_rate == attempts / (config.n_nodes * idle_slots + attempts)
    assert all(c <= a for a, c in zip(r.stage_attempts, r.stage_collisions))


def test_stage_shares_match_bianchi(table1):
    # Bianchi's chain: the share of attempts made from stage k is
    # p^k (1 - p) below the top stage and p^K at the top stage K.
    # Tolerance: 0.005 absolute on every stage, plus 5% relative on stages
    # holding at least 5% of the attempts.
    lad, _ = design_ladder(10, table1, 8, 32768)
    r = run(SimConfig(10, lad, table1, 1_000_000, seed=1))
    p = solve_tau(lad, 10).p
    k_top = lad.k_max
    expected = [p ** k * (1 - p) for k in range(k_top)] + [p ** k_top]
    attempts = sum(r.stage_attempts)
    for k, share in enumerate(r.stage_attempts):
        assert share / attempts == pytest.approx(expected[k], abs=5e-3), k
        if expected[k] >= 0.05:
            assert share / attempts == pytest.approx(expected[k], rel=5e-2), k


@st.composite
def sim_ladders(draw):
    """BEB ladders, BEB ladders parked at a cap, and W_0 = 1 stress ladders."""
    k_max = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["beb", "parked", "stress"]))
    if kind == "stress":
        steps = draw(st.lists(st.integers(0, 4), min_size=k_max, max_size=k_max))
        ws = tuple(accumulate(steps, initial=1))
        return StressLadder(ws)
    w0 = draw(st.integers(2, 64))
    cap = w0 << k_max if kind == "beb" else draw(st.integers(w0, w0 << k_max))
    return BackoffLadder.beb(w0, k_max, cap)


def assert_accounting(config, r):
    params = config.params
    idle_slots = config.horizon_slots - r.successes - r.collisions
    assert idle_slots >= 0
    assert sum(r.stage_attempts) == r.successes + sum(r.stage_collisions)
    assert r.idle_time_us == idle_slots * params.slot_time_us
    assert r.busy_time_us == r.successes * params.success_us + r.collisions * params.collision_us
    assert r.busy_time_us + r.idle_time_us == r.total_time_us


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 70), ladder=sim_ladders(), horizon=st.integers(1, 3_000),
       seed=st.integers(0, 2 ** 64 - 1))
def test_matches_oracle_on_random_configs(table1, n, ladder, horizon, seed):
    config = SimConfig(n, ladder, table1, horizon, seed=seed)
    result = run(config)
    assert result == slot_by_slot_sim(config)
    assert_accounting(config, result)


# heap keys are (due << N.bit_length()) | node: N = 2^k - 1 and N = 2^k sit
# on either side of a step in the key width
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])
def test_oracle_match_at_key_width_edges(table1, n):
    for seed, ladder in enumerate([BackoffLadder.beb(2, 4, 16),
                                   StressLadder((1, 2, 2, 5))]):
        config = SimConfig(n, ladder, table1, 2_000, seed=seed)
        result = run(config)
        assert result == slot_by_slot_sim(config)
        assert_accounting(config, result)


@pytest.mark.parametrize("n", [2, 3, 4, 500])
def test_w0_key_bound_edge(table1, n):
    # the stage-0 keys W_0 << N.bit_length() are formed in int64
    w0 = 2 ** (63 - n.bit_length()) - 1
    config = SimConfig(n, BackoffLadder((w0,), w0), table1, 40, seed=n)
    assert run(config) == slot_by_slot_sim(config)
    message = (f"W_0 << N.bit_length() must be below 2**63 (stage-0 keys are int64): "
               f"W_0 = {w0 + 1}, N = {n}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimConfig(n, BackoffLadder((w0 + 1,), w0 + 1), table1, 40, seed=n)


# The per-stage attempts are derived at exit from the entries into each stage
# less the nodes still waiting there; these cases reach each term.
def test_oracle_match_single_stage(table1):
    config = SimConfig(5, BackoffLadder((8,), 8), table1, 5_000, seed=12)
    result = run(config)
    assert result.stage_collisions[0] > 0
    assert result == slot_by_slot_sim(config)


def test_oracle_match_parked_at_cap(table1):
    # (2, 4, 8, 8, 8): a collision at the top stage enters it again
    config = SimConfig(6, BackoffLadder.beb(2, 4, 8), table1, 5_000, seed=13)
    result = run(config)
    assert result.stage_collisions[-1] > 0
    assert result == slot_by_slot_sim(config)


def test_oracle_match_cut_after_collision(table1):
    # a horizon whose last slot is a collision leaves its transmitters
    # waiting at raised stages, not yet attempted from
    base = SimConfig(3, BackoffLadder.beb(2, 3, 16), table1, 1, seed=14)
    cuts = 0
    previous = None
    for horizon in range(1, 150):
        config = dataclasses.replace(base, horizon_slots=horizon)
        result = run(config)
        assert result == slot_by_slot_sim(config)
        if previous is not None and result.collisions == previous.collisions + 1:
            raised = sum(result.stage_collisions) - sum(result.stage_attempts[1:])
            assert raised >= 2
            cuts += 1
        previous = result
    assert cuts


def test_w0_beyond_int64_rejected(table1):
    with pytest.raises(ValueError, match="W_0"):
        SimConfig(2, BackoffLadder((2 ** 63,), 2 ** 63), table1, 100, seed=1)


RUN_ALL_CONFIGS = [
    (1, BackoffLadder((32,), 1024), 2_000, 0),
    (2, BackoffLadder.beb(2, 3, 64), 3_000, 1),
    (3, BackoffLadder.beb(8, 2, 512), 1_000, 2),
    (12, BackoffLadder.beb(16, 4, 1024), 4_000, 3),
    (50, BackoffLadder.beb(4, 6, 1024), 2_000, 4),
]


@pytest.fixture(params=[1, 2, 3, 64], ids=lambda cpus: f"{cpus}cpu")
def cpus(request, monkeypatch):
    """Pretend the affinity mask holds this many CPUs; after the test no child is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_run_all_equals_the_loop(table1, cpus, monkeypatch, count):
    configs = [SimConfig(n, ladder, table1, horizon, seed)
               for n, ladder, horizon, seed in RUN_ALL_CONFIGS[:count]]
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    assert run_all(iter(configs)) == [run(config) for config in configs]
    # the parent is one of the workers
    assert len(forks) == max(0, min(count, cpus) - 1)


def test_run_all_without_affinity_is_the_loop(table1, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", None)
    configs = [SimConfig(n, ladder, table1, horizon, seed)
               for n, ladder, horizon, seed in RUN_ALL_CONFIGS]
    assert run_all(configs) == [run(config) for config in configs]


@pytest.mark.parametrize("failing", [0, 2, 4])
def test_run_all_raises_a_runs_exception(table1, cpus, monkeypatch, failing):
    # the failing run lies in the parent's share or in a child's
    configs = [SimConfig(n, ladder, table1, horizon, seed)
               for n, ladder, horizon, seed in RUN_ALL_CONFIGS]

    def fail(config):
        if config.seed in (failing, 4):
            raise ValueError(f"run {config.seed} failed")
        return run(config)
    monkeypatch.setattr(mac_simulator, "run", fail)
    # the first failing run in input order is the one raised
    with pytest.raises(ValueError, match=f"^run {failing} failed$"):
        run_all(configs)


@pytest.mark.parametrize("cpus", [2, 3, 64], indirect=True, ids=lambda cpus: f"{cpus}cpu")
def test_run_all_names_a_dead_childs_exit_status(table1, cpus, monkeypatch):
    configs = [SimConfig(n, ladder, table1, horizon, seed)
               for n, ladder, horizon, seed in RUN_ALL_CONFIGS]
    parent = os.getpid()

    def die(config):
        if os.getpid() != parent:
            os._exit(3)
        return run(config)
    monkeypatch.setattr(mac_simulator, "run", die)
    with pytest.raises(RuntimeError, match=r"sent no result \(exit status 3\)$"):
        run_all(configs)


@pytest.mark.parametrize("cpus", [3], indirect=True, ids=lambda cpus: f"{cpus}cpu")
def test_run_all_failed_fork_leaves_no_child_or_pipe(table1, cpus, monkeypatch):
    configs = [SimConfig(n, ladder, table1, horizon, seed)
               for n, ladder, horizon, seed in RUN_ALL_CONFIGS]
    forks = []
    real_fork = os.fork

    def fork():
        # the first child starts; the second fork fails
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("no process left")
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    open_fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(BlockingIOError, match="^no process left$"):
        run_all(configs)
    if open_fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
