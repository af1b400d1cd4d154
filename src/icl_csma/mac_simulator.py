"""Slotted discrete-event simulator for saturated non-persistent CSMA/DCF.

Virtual-slot semantics: every saturated node holds a backoff counter drawn
uniformly from {0, ..., W_k - 1} at its current stage k.  Counters count down
once per idle slot (cost T_sigma) and freeze while the channel is busy.  All
nodes whose counter hit zero transmit in the next slot: a lone transmitter
scores a success (cost T_s) and resets to stage 0; two or more collide
(cost T_c) and each advances one stage, parking at the top stage until it
eventually succeeds.  DIFS/SIFS are already folded into T_s and T_c.

The event loop jumps over idle runs instead of ticking slot by slot.  Node i
is due at idle-clock value ``due_i`` (the idle clock counts idle slots only),
and ``(due_i, i)`` pairs sit in a binary min-heap, so the next busy slot
follows after ``min(due) - idle_clock`` idle slots.  That busy slot pops
every pair whose due equals the idle clock; ties break on the node index, so
transmitters come out in ascending node order.  This is exactly the per-slot
chain, just without touching N counters on every idle slot.

Random draws: uniforms u in [0, 1) come from ``numpy.random.default_rng(seed)``
in blocks of BLOCK (``rng.random(BLOCK).tolist()``), and a backoff counter at
stage k is ``int(u * W_k)``.  The draw order is fixed: the first N uniforms
give the initial counters of nodes 0..N-1, then each transmitter of each busy
slot takes the next uniform, in ascending node order, after its stage update.
``tests/oracles.py`` holds a slot-by-slot reference that draws in this order
and must agree with ``run`` field for field.

Per-stage counters: ``SimResult.stage_attempts[k]`` counts the attempts made
from stage k and ``stage_collisions[k]`` those of them that collided, for a
direct comparison with the analytic stationary stage distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .analytic_model import BackoffLadder, NetworkParams

__all__ = [
    "SimConfig",
    "SimResult",
    "run",
]

# Uniforms are drawn from the generator this many at a time.  PCG64 doubles
# form one stream, so results do not depend on the block size; a small block
# keeps the Python floats of ``.tolist()`` from showing in peak memory.
BLOCK = 4096


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
    # per backoff stage k = 0..K: attempts made from stage k, and how many of
    # them collided
    stage_attempts: tuple[int, ...]
    stage_collisions: tuple[int, ...]


def _uniforms(rng):
    """Endless stream of uniforms in [0, 1), drawn BLOCK at a time."""
    while True:
        yield from rng.random(BLOCK).tolist()


def run(config):
    """Simulate ``horizon_slots`` virtual slots; deterministic given the seed."""
    n = config.n_nodes
    params = config.params
    thresholds = config.ladder.thresholds
    k_top = len(thresholds) - 1
    w0 = thresholds[0]
    draw = _uniforms(np.random.default_rng(config.seed)).__next__

    stage = [0] * n
    # node i transmits in the busy slot right after the idle clock reaches its due
    heap = [(int(draw() * w0), i) for i in range(n)]
    heapify(heap)
    idle_clock = 0

    remaining = config.horizon_slots
    idle_slots = 0
    successes = 0
    collisions = 0
    stage_attempts = [0] * (k_top + 1)
    stage_collisions = [0] * (k_top + 1)

    while remaining > 0:
        next_due = heap[0][0]
        gap = next_due - idle_clock
        if gap > 0:
            if gap >= remaining:
                idle_slots += remaining
                break
            idle_slots += gap
            remaining -= gap
            idle_clock = next_due
        remaining -= 1
        node = heappop(heap)[1]
        if not heap or heap[0][0] != idle_clock:
            successes += 1
            stage_attempts[stage[node]] += 1
            stage[node] = 0
            heappush(heap, (idle_clock + int(draw() * w0), node))
            continue
        # pop every colliding node before any redraw: a redrawn counter of 0
        # is due at this same idle clock, i.e. in the next busy slot
        tx = [node]
        while heap and heap[0][0] == idle_clock:
            tx.append(heappop(heap)[1])
        collisions += 1
        for node in tx:
            k = stage[node]
            stage_attempts[k] += 1
            stage_collisions[k] += 1
            if k < k_top:
                k += 1
                stage[node] = k
            heappush(heap, (idle_clock + int(draw() * thresholds[k]), node))

    attempts = sum(stage_attempts)
    colliding_attempts = sum(stage_collisions)
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
        stage_attempts=tuple(stage_attempts),
        stage_collisions=tuple(stage_collisions),
    )
