"""Timing arithmetic shared by every workload: the reference probe, probe
normalisation and nearest-rank percentiles.

The probe is a fixed piece of work owned by the benchmark. It runs right
before and right after each timed step; the step's wall time is scaled by
``P_REF_MS / mean(adjacent probe times)``, so a timing reads as
"milliseconds at reference speed" whatever speed the CPU ran at while it
was taken. The probe mixes the three kinds of work the program does:
object-heavy interpreter-bound Python, many small numpy calls, and gathers
plus grouped reductions shaped like one min-sum iteration. No part of it
imports or calls the program under test, so a change to the program cannot
move it.
"""
from __future__ import annotations

import heapq
import time
from math import ceil

import numpy as np

# Probe time in ms on the reference machine (2 vCPU VM, fast speed state).
# Only a scale factor: changing it rescales every normalised timing alike.
P_REF_MS = 15.0

# A step whose before and after probes differ by more than this share of
# the smaller one is flagged (the CPU speed changed during the step).
PROBE_DISAGREEMENT_BOUND = 0.25

# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

_OBJECTS = 3000
_ROLLS = 1000
_ROLL_LEN = 384
_GATHERS = 3
_EDGES, _Z, _ROWS, _VARS = 324, 384, 46, 68 * 384


class _Item:
    def __init__(self, when: float, tag: int):
        self.when = when
        self.tag = tag
        self.done = None


class Probe:
    """The fixed reference workload; ``run()`` returns its time in ms."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._vec = rng.integers(0, 2, _ROLL_LEN).astype(np.uint8)
        self._shifts = rng.integers(0, _ROLL_LEN, _ROLLS).tolist()
        self._totals = rng.normal(0.0, 4.0, _VARS).astype(np.float32)
        self._index = rng.integers(0, _VARS, (_EDGES, _Z))
        cuts = np.sort(rng.choice(np.arange(1, _EDGES), _ROWS - 1,
                                  replace=False))
        self._starts = np.concatenate([[0], cuts])

    def _interpreter(self) -> int:
        """Object-heavy Python: small instances through a heap and a dict,
        as the emulator's event loop and the harness do."""
        heap, sums = [], {}
        for i in range(_OBJECTS):
            item = _Item(i * 0.37 % 101.0, i & 15)
            heapq.heappush(heap, (item.when, i, item))
        while heap:
            when, _, item = heapq.heappop(heap)
            item.done = when + item.tag
            sums[item.tag] = sums.get(item.tag, 0.0) + item.done
        return len(sums)

    def _rolls(self) -> int:
        acc = self._vec
        for s in self._shifts:
            acc = np.roll(acc, -s) ^ self._vec
        return int(acc[0])

    def _gathers(self) -> float:
        out = 0.0
        for _ in range(_GATHERS):
            v = self._totals[self._index]
            mag = np.abs(v)
            m1 = np.minimum.reduceat(mag, self._starts, axis=0)
            neg = (v < 0).astype(np.uint8)
            par = np.bitwise_xor.reduceat(neg, self._starts, axis=0)
            out += float(m1[0, 0]) + float(par[0, 0])
        return out

    def run(self) -> float:
        t0 = time.perf_counter()
        self._interpreter()
        self._rolls()
        self._gathers()
        return (time.perf_counter() - t0) * 1e3


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Scale that turns a time measured between two probes into reference
    time: ``P_REF_MS / mean(before, after)``."""
    if before_ms <= 0 or after_ms <= 0:
        raise ValueError("probe times must be positive")
    return P_REF_MS / ((before_ms + after_ms) / 2.0)


def probes_disagree(before_ms: float, after_ms: float) -> bool:
    return abs(before_ms - after_ms) > \
        PROBE_DISAGREEMENT_BOUND * min(before_ms, after_ms)


def nearest_rank(values, q: float) -> float:
    """Value at 1-based rank ceil(q * N) of the sorted samples."""
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    return float(s[max(1, ceil(q * len(s))) - 1])


def tail_percentile(values, q: float) -> float | None:
    """Nearest-rank percentile, or None when fewer than MIN_SAMPLES_BEYOND
    samples lie beyond its rank."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, ceil(q * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    return nearest_rank(values, q)
