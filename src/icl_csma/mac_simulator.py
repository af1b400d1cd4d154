"""Slotted discrete-event simulator for saturated non-persistent CSMA/DCF.

Virtual-slot semantics: every saturated node holds a backoff counter drawn
uniformly from {0, ..., W_k - 1} at its current stage k.  Counters count down
once per idle slot (cost T_sigma) and freeze while the channel is busy.  All
nodes whose counter hit zero transmit in the next slot: a lone transmitter
scores a success (cost T_s) and resets to stage 0; two or more collide
(cost T_c) and each advances one stage, parking at the top stage until it
eventually succeeds.  DIFS/SIFS are already folded into T_s and T_c.

The event loop jumps over idle runs instead of ticking slot by slot: node i
is due at idle-clock value ``due[i]``, so the next busy slot follows after
``due.min() - idle_clock`` idle slots.  This is exactly the per-slot chain,
just without touching N counters on every idle slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_model import BackoffLadder, NetworkParams

__all__ = [
    "SimConfig",
    "SimResult",
    "run",
    "RESULT_CSV_COLUMNS",
    "result_csv_row",
    "result_record",
]


@dataclass(frozen=True)
class SimConfig:
    n_nodes: int
    ladder: BackoffLadder
    params: NetworkParams
    horizon_slots: int
    seed: int

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.horizon_slots < 1:
            raise ValueError(f"horizon_slots must be >= 1, got {self.horizon_slots}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SimResult:
    throughput: float
    tx_attempt_rate: float
    collision_rate: float
    successes: int
    collisions: int
    busy_time_us: float
    idle_time_us: float
    total_time_us: float


def run(config):
    """Simulate ``horizon_slots`` virtual slots; deterministic given the seed."""
    n = config.n_nodes
    params = config.params
    thresholds = np.asarray(config.ladder.thresholds, dtype=np.int64)
    k_top = len(thresholds) - 1
    rng = np.random.default_rng(config.seed)

    stage = np.zeros(n, dtype=np.int64)
    # node i transmits in the busy slot right after the idle clock reaches due[i]
    due = rng.integers(0, thresholds[0], size=n, dtype=np.int64)
    idle_clock = np.int64(0)

    remaining = config.horizon_slots
    idle_slots = 0
    successes = 0
    collisions = 0
    attempts = 0
    colliding_attempts = 0

    while remaining > 0:
        next_due = due.min()
        gap = int(next_due - idle_clock)
        if gap > 0:
            take = gap if gap < remaining else remaining
            idle_slots += take
            remaining -= take
            if remaining == 0:
                break
            idle_clock = next_due
        tx = np.nonzero(due == idle_clock)[0]
        remaining -= 1
        attempts += tx.size
        if tx.size == 1:
            successes += 1
            stage[tx] = 0
            due[tx] = idle_clock + rng.integers(0, thresholds[0], dtype=np.int64)
        else:
            collisions += 1
            colliding_attempts += tx.size
            stage[tx] = np.minimum(stage[tx] + 1, k_top)
            due[tx] = idle_clock + rng.integers(0, thresholds[stage[tx]], dtype=np.int64)

    busy_time = successes * params.success_us + collisions * params.collision_us
    idle_time = idle_slots * params.slot_time_us
    total_time = busy_time + idle_time
    # Chain-time attempt rate: every idle slot is one countdown step for all N
    # nodes (frozen during busy slots), and each attempt is one step for the
    # attempting node.  This is the estimator comparable to the fixed-point
    # tau; per-virtual-slot rates sit below it by roughly the busy fraction.
    chain_steps = n * idle_slots + attempts
    return SimResult(
        throughput=successes * params.payload_us / total_time,
        tx_attempt_rate=attempts / chain_steps if chain_steps else 0.0,
        collision_rate=colliding_attempts / attempts if attempts else 0.0,
        successes=successes,
        collisions=collisions,
        busy_time_us=busy_time,
        idle_time_us=idle_time,
        total_time_us=total_time,
    )


RESULT_CSV_COLUMNS = (
    "seed", "n_nodes", "K", "W_0", "throughput", "tau_emp", "p_emp",
    "successes", "collisions",
)


def result_csv_row(config, result):
    """Flatten a run into the fixed CSV column order of RESULT_CSV_COLUMNS."""
    return [config.seed, config.n_nodes, config.ladder.k_max,
            config.ladder.thresholds[0], result.throughput,
            result.tx_attempt_rate, result.collision_rate,
            result.successes, result.collisions]


def result_record(config, result):
    """Structured-text (JSON-ready) record of a run and its provenance."""
    return {
        "seed": config.seed,
        "n_nodes": config.n_nodes,
        "ladder": list(config.ladder.thresholds),
        "cap": config.ladder.cap,
        "horizon_slots": config.horizon_slots,
        "throughput": result.throughput,
        "tau_emp": result.tx_attempt_rate,
        "p_emp": result.collision_rate,
        "successes": result.successes,
        "collisions": result.collisions,
        "busy_time_us": result.busy_time_us,
        "idle_time_us": result.idle_time_us,
        "total_time_us": result.total_time_us,
    }
