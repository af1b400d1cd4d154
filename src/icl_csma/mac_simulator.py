"""Slotted discrete-event simulator for saturated non-persistent CSMA/DCF.

Virtual-slot semantics: every saturated node holds a backoff counter drawn
uniformly from {0, ..., W_k - 1} at its current stage k.  Counters count down
once per idle slot (cost T_sigma) and freeze while the channel is busy.  All
nodes whose counter hit zero transmit in the next slot: a lone transmitter
scores a success (cost T_s) and resets to stage 0; two or more collide
(cost T_c) and each advances one stage, parking at the top stage until it
eventually succeeds.  DIFS/SIFS are already folded into T_s and T_c.

The event loop jumps over idle runs instead of ticking slot by slot.  Node i
is due at idle-clock value ``due_i`` (the idle clock counts idle slots only)
and sits in a binary min-heap as the single int ``(due_i << shift) | i``,
with ``shift = N.bit_length()``; ints order exactly as the ``(due_i, i)``
pairs would.  The heap top gives the idle clock of the next busy slot, and
the loop stops once that clock reaches ``end``, the horizon less the busy
slots so far.  Two never-due entries (due = horizon + W_K + 1) keep
``heap[1]`` and ``heap[2]`` defined, so a busy slot is a success exactly when
neither of them is due now: the success then costs one ``heapreplace``.  A
collision pops every entry due now; ties break on the node index, so
transmitters come out in ascending node order.  This is exactly the per-slot
chain, just without touching N counters on every idle slot.  At exit the
idle slots are ``end``, the successes are the busy slots less the
collisions, and the per-stage attempts follow from the stages the nodes
are left in (below), so a success counts nothing.

Random draws: uniforms u in [0, 1) come from ``numpy.random.default_rng(seed)``
in blocks of BLOCK, and a backoff counter at stage k is ``int(u * W_k)``.
Each block is kept twice: as Python floats (``block.tolist()``) for the
redraws after a collision, and as the stage-0 counters already shifted into
key position, ``((block * W_0).astype(np.int64) << shift).tolist()``, for
the initial keys (``stage0 | node``) and the redraws after a success (``top
+ stage0``).  Both take the same IEEE product and truncate it toward zero,
so the second list equals ``int(u * W_0) << shift`` bit for bit as long as
``W_0 << shift < 2**63``, which ``SimConfig`` requires.  The draw order is
fixed: the first N uniforms give the initial counters of nodes 0..N-1, then
each transmitter of each busy slot takes the next uniform, in ascending
node order, after its stage update.  ``tests/oracles.py`` holds a slot-by-slot
reference that draws in this order and must agree with ``run`` field for
field.

Per-stage counters: ``SimResult.stage_attempts[k]`` counts the attempts made
from stage k and ``stage_collisions[k]`` those of them that collided, for a
direct comparison with the analytic stationary stage distribution.  Only
the collisions are counted in the loop.  Each attempt from stage k follows
exactly one entry into stage k, and a node still in the heap at exit has
entered its stage but not yet attempted from it.  With ``waiting[k]`` the
nodes whose final stage is k and c_k = ``stage_collisions[k]``:

    attempts[0] = N + successes - waiting[0]
    attempts[k] = c_{k-1} - waiting[k]            for 0 < k < K
    attempts[K] = c_{K-1} + c_K - waiting[K]      (the top stage parks)

and for K = 0, attempts[0] = N + successes + c_0 - waiting[0].

Many runs at once: ``run_all(configs)`` returns ``[run(c) for c in
configs]``, field for field and in input order, with the runs split into
contiguous shares over one worker per CPU in this process's affinity mask
(``os.sched_getaffinity``, so ``taskset`` limits it), and never more
workers than runs.  The parent runs the first share itself; each other
share runs in a forked child, which sends its pickled results, or the
exception a run raised, back through a pipe.  Where the affinity mask
cannot be read (off Linux) there is one worker and ``run_all`` is the plain
loop.  A worker holds one run at a time, so ``MAX_NODES`` bounds the memory
of each worker, not of the call.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .analytic_model import BackoffLadder, NetworkParams

__all__ = [
    "SimConfig",
    "SimResult",
    "run",
    "run_all",
]

# Uniforms are drawn from the generator this many at a time.  PCG64 doubles
# form one stream, so results do not depend on the block size; a small block
# keeps the two lists made of each block (the floats and their stage-0
# counters) from showing in peak memory.
BLOCK = 4096
# Most nodes a run may simulate.  The heap keys and the stage list take
# about 52 bytes per node (tracemalloc peak at N = 3e5), so a run stays near
# 0.5 GB at this ceiling.  That is per run: ``run_all`` holds one run at a
# time in each of its workers, so a call may take 0.5 GB per worker.
MAX_NODES = 10 ** 7


@dataclass(frozen=True)
class SimConfig:
    n_nodes: int
    ladder: BackoffLadder
    params: NetworkParams
    horizon_slots: int
    seed: int

    def __post_init__(self):
        for name in ("n_nodes", "horizon_slots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n_nodes <= MAX_NODES:
            raise ValueError(f"n_nodes must lie in [1, MAX_NODES = {MAX_NODES}] (the simulator "
                             f"keeps about 52 bytes per node), got {self.n_nodes}")
        if self.horizon_slots < 1:
            raise ValueError(f"horizon_slots must be >= 1, got {self.horizon_slots}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        w0 = self.ladder.thresholds[0]
        if w0 << self.n_nodes.bit_length() >= 2 ** 63:
            raise ValueError(f"W_0 << N.bit_length() must be below 2**63 (stage-0 keys "
                             f"are int64): W_0 = {w0}, N = {self.n_nodes}")


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


def _block(rng, w0, shift):
    """The next BLOCK uniforms: their stage-0 counters as keys (``<< shift``) and the floats."""
    block = rng.random(BLOCK)
    return ((block * w0).astype(np.int64) << shift).tolist(), block.tolist()


def run(config):
    """Simulate ``horizon_slots`` virtual slots; deterministic given the seed."""
    n = config.n_nodes
    params = config.params
    thresholds = config.ladder.thresholds
    k_top = len(thresholds) - 1
    w0 = thresholds[0]
    rng = np.random.default_rng(config.seed)
    pos = BLOCK

    shift = n.bit_length()
    unit = 1 << shift
    mask = unit - 1
    stage = [0] * n
    # key (due << shift) | node: the node transmits in the busy slot right
    # after the idle clock reaches due
    heap = []
    for node in range(n):
        if pos == BLOCK:
            stage0, floats = _block(rng, w0, shift)
            pos = 0
        heap.append(stage0[pos] | node)
        pos += 1
    never = (config.horizon_slots + thresholds[-1] + 1) << shift
    heap += [never, never]
    heapify(heap)

    # the horizon less the busy slots so far, as a key: the loop stops once
    # the idle clock reaches it
    end = config.horizon_slots << shift
    collisions = 0
    stage_collisions = [0] * (k_top + 1)

    while True:
        top = heap[0]
        if top >= end:
            break
        end -= unit
        # keys due at this idle clock are at most top | mask
        now = top | mask
        if heap[1] > now and heap[2] > now:
            stage[top & mask] = 0
            if pos == BLOCK:
                stage0, floats = _block(rng, w0, shift)
                pos = 0
            heapreplace(heap, top + stage0[pos])
            pos += 1
            continue
        # pop every colliding node before any redraw: a redrawn counter of 0
        # is due at this same idle clock, i.e. in the next busy slot
        tx = [heappop(heap)]
        while heap[0] <= now:
            tx.append(heappop(heap))
        collisions += 1
        for key in tx:
            node = key & mask
            k = stage[node]
            stage_collisions[k] += 1
            if k < k_top:
                k += 1
                stage[node] = k
            if pos == BLOCK:
                stage0, floats = _block(rng, w0, shift)
                pos = 0
            heappush(heap, key + (int(floats[pos] * thresholds[k]) << shift))
            pos += 1

    idle_slots = end >> shift
    successes = config.horizon_slots - idle_slots - collisions
    # attempts from stage k: the entries into stage k less the nodes still
    # waiting there (see the module docstring)
    stage_attempts = [n + successes] + stage_collisions[:-1]
    stage_attempts[-1] += stage_collisions[-1]
    for k in range(k_top + 1):
        stage_attempts[k] -= stage.count(k)
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


def run_all(configs):
    """``[run(c) for c in configs]``, split over the CPUs this process may run on.

    See the module docstring.  Results keep the input order, and the first
    exception in input order that a run raises is raised here.  No child
    outlives the call: an error kills and reaps the children not yet reaped.
    """
    configs = list(configs)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = 1
    workers = min(len(configs), cpus)
    if workers <= 1:
        return [run(config) for config in configs]
    # fork, not a process pool: a forked child starts and is reaped in 3.5-9
    # ms with the parent's imports and configs, where a ProcessPoolExecutor
    # takes 16-49 ms, about one 400,000-slot run.  A child calls no BLAS
    # routine, so it needs none of the parent's BLAS threads.  The shares are
    # contiguous; the first, the parent's, is the largest, since it pays no
    # fork.
    cuts = [-(-len(configs) * w // workers) for w in range(workers + 1)]
    children, reaped = [], set()
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(configs[lo:hi], write)
            os.close(write)
            children.append((pid, read))
        results = [run(config) for config in configs[:cuts[1]]]
        for pid, read in children:
            chunks = []
            while chunk := os.read(read, 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if not chunks:
                raise RuntimeError(f"simulator worker {pid} sent no result (exit status "
                                   f"{os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(b"".join(chunks))
            if not ok:
                raise value
            results += value
        return results
    finally:
        for pid, read in children:
            os.close(read)
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(configs, write):
    """A forked worker of ``run_all``: run ``configs``, send the pickled outcome and exit."""
    status = 1
    try:
        try:
            outcome = True, [run(config) for config in configs]
        except Exception as exc:
            outcome = False, exc
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)
