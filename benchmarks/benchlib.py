"""Span recording and the arithmetic the benchmark does on its own numbers.

A ``Tracer`` rebinds chosen attributes of the icl_csma modules to wrappers
that record one span per call.  A span is the tuple
``(name_id, start, end, parent, pass_id)``: ``parent`` is the index of the
enclosing span, or -1 at the top.  Spans stay in memory until the run ends.
The process runs one thread, so spans nest strictly and a span's children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

import numpy as np

__all__ = ["Tracer", "self_times", "tail_percentile", "count_failed", "reference_seconds"]


class Tracer:
    """Records spans for the attributes it has rebound."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.results = {}   # span index -> (args, return value), for kept names
        self.pass_id = -1
        self._stack = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, keep=False):
        """A wrapper around ``fn`` that records one span named ``name`` per call.

        With ``keep`` the call's positional arguments and return value are kept
        too, so checks can read what the layer produced.
        """
        name_id = self.name_id(name)
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.pass_id)
            if keep:
                results[index] = (args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, targets, pass_id):
        """Rebind ``(owner, attribute, span name, keep)`` targets for one pass.

        The same function reached under two names records spans under one
        span name.  Every original is put back on exit.
        """
        saved = []
        wrapped = {}
        self.pass_id = pass_id
        try:
            for owner, attr, name, keep in targets:
                original = getattr(owner, attr)
                if (name, original) not in wrapped:
                    wrapped[(name, original)] = self.wrap(name, original, keep)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[(name, original)])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.pass_id = -1


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def tail_percentile(samples, q):
    """Nearest-rank ``q``-th percentile, or None with fewer than ten samples above it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def count_failed(failures):
    """Number of distinct operations among ``(operation, reason)`` failures."""
    return len({op for op, _ in failures})


def reference_seconds():
    """Wall time of a fixed piece of work: a gauge of the host's current speed.

    The work mixes what the icl_csma layers spend their time on: an
    interpreter loop, an attention-sized einsum and small-array numpy calls.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    feats, q, queries = np.ones((180, 12, 9)), np.eye(12), np.ones((180, 12))
    for _ in range(20):
        np.einsum("pdm,de,pe->pm", feats, q, queries)
    x = np.zeros(16)
    for _ in range(3000):
        x = np.exp(x * 0.0)
    return time.perf_counter() - start
