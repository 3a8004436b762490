"""Slot-level High-PHY pipelines: cell timing constants, TDD slot typing,
vectorized precoding and resource mapping, and the slot-timing rule.

The slot-timing rule is stated once, by ``slot_timing``: a slot's total is
its direction's synthetic cost of the non-coding stages plus its coding
time, and it meets its deadline when that total stays within the
direction's budget. The deployment harness and ``run_dl_slot`` /
``run_ul_slot`` all apply it. ``run_dl_slot`` times precoding on the
host's wall clock and reports it beside the total, never in it: the other
terms are virtual or synthetic, and a sum of two clocks describes neither.
On an emulated device the coding time is virtual, so a slot's total and
verdict do not depend on the host. On the ``software`` backend the coding
time is wall-clock, so there the verdict describes this host.

Precoding accumulates over layers in a fixed order, one whole-grid
multiply-add per (port, layer). It equals a per-element loop in the same
order up to the rounding of NumPy's vectorized complex multiply, and bit
for bit when the products are exact, as with the default identity weights.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfigError
from .slot_coding import (HarqPool, SlotCodingRequest, SlotCodingResult,
                          decode_slot, encode_slot)

SYMBOLS_PER_SLOT = 14
SUBCARRIERS_PER_PRB = 12
TTI_US = 500.0               # numerology 1
TDD_PATTERN = "DDDSU"

# (other_us, budget_us) of a DL and of a UL slot. other_us is the
# synthetic per-slot cost of the non-coding stages (channel estimation,
# transforms, equalization, precoding); it puts single-instance slot
# totals into the observed single-instance interquartile ranges. budget_us
# is the pipeline-depth deadline budget (not measured).
DL_SLOT_US = (407.0, 1000.0)
UL_SLOT_US = (1400.0, 2000.0)


def slot_timing(slot_us: tuple[float, float], coding_us: float
                ) -> tuple[float, bool]:
    """(total_us, deadline_met) of a slot of ``DL_SLOT_US`` or
    ``UL_SLOT_US`` whose coding took ``coding_us``."""
    other_us, budget_us = slot_us
    total_us = other_us + coding_us
    return total_us, total_us <= budget_us


@dataclass(frozen=True)
class CellConfig:
    prbs: int = 273
    tx_antennas: int = 4
    tdd_pattern: str = TDD_PATTERN
    symbols: int = 12            # data symbols available to a TB
    overhead: int = 0

    def __post_init__(self):
        check_tdd_pattern(self.tdd_pattern)

    @property
    def subcarriers(self) -> int:
        return SUBCARRIERS_PER_PRB * self.prbs


def check_tdd_pattern(pattern: str) -> None:
    """Reject an empty pattern or a slot kind other than D, S and U."""
    if not pattern:
        raise InvalidConfigError("empty TDD pattern")
    for ch in pattern:
        if ch not in "DSU":
            raise InvalidConfigError(f"invalid TDD pattern character {ch!r}")


def tdd_slot_kind(slot_index: int, pattern: str) -> str:
    """Slot kind (D, S or U) from the repeating TDD pattern."""
    check_tdd_pattern(pattern)
    return pattern[slot_index % len(pattern)]


@dataclass
class ResourceGrid:
    """Complex symbols indexed (stream, symbol, subcarrier)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise InvalidConfigError("grid must be (streams, symbols, scs)")
        if not np.isfinite(self.data).all():
            raise InvalidConfigError("grid holds non-finite values")

    @property
    def streams(self) -> int:
        return self.data.shape[0]


def layer_grid(cfg: CellConfig, layers: int, seed: int = 0) -> ResourceGrid:
    """Deterministic pseudo-modulated layer grid (unit-power QPSK-like)."""
    rng = np.random.default_rng(seed)
    re_im = rng.integers(0, 2, size=(2, layers, SYMBOLS_PER_SLOT,
                                     cfg.subcarriers))
    data = ((2.0 * re_im[0] - 1.0) + 1j * (2.0 * re_im[1] - 1.0)) / np.sqrt(2)
    return ResourceGrid(data)


class PrecodeMode(Enum):
    VECTOR = "vector"


def precode_and_map(layers: ResourceGrid, weights: np.ndarray,
                    mode: PrecodeMode = PrecodeMode.VECTOR) -> ResourceGrid:
    """Per-port combination out[p] = sum_l w[p, l] * in[l], mapped onto the
    port grid."""
    if mode is not PrecodeMode.VECTOR:
        raise InvalidConfigError(f"unknown mode {mode!r}")
    w = np.asarray(weights, dtype=np.complex128)
    x = layers.data
    if w.ndim != 2 or w.shape[1] != x.shape[0]:
        raise InvalidConfigError(
            f"weights {w.shape} do not match {x.shape[0]} layers")
    ports, nl = w.shape
    out = np.zeros((ports, x.shape[1], x.shape[2]), dtype=np.complex128)
    for p in range(ports):
        for l in range(nl):
            out[p] += w[p, l] * x[l]
    return ResourceGrid(out)


@dataclass
class SlotTimingRecord:
    """One slot's total and verdict under ``slot_timing``, with the
    wall-clock precoding time of a DL slot reported beside them."""
    slot_id: int
    kind: str
    total_us: float
    deadline_met: bool
    precode_wall_us: float | None = None
    crc_ok: bool | None = None


def run_dl_slot(cfg: CellConfig, jobs, executor,
                mode: PrecodeMode = PrecodeMode.VECTOR,
                weights: np.ndarray | None = None,
                slot_id: int = 0) -> tuple[SlotTimingRecord,
                                           SlotCodingResult]:
    """Encode, synthetic-modulate and precode one downlink slot."""
    kind = tdd_slot_kind(slot_id, cfg.tdd_pattern)
    if kind not in ("D", "S"):
        raise InvalidConfigError(f"slot {slot_id} is {kind}, not a DL slot")
    request = SlotCodingRequest(jobs=list(jobs), symbols=cfg.symbols,
                                overhead=cfg.overhead)
    coding = encode_slot(request, executor)
    n_layers = max(j.layers for j in request.jobs)
    grid = layer_grid(cfg, n_layers, seed=slot_id)
    if weights is None:
        weights = np.eye(cfg.tx_antennas, n_layers, dtype=np.complex128)
    t0 = time.perf_counter()
    precode_and_map(grid, weights, mode=mode)
    precode_us = (time.perf_counter() - t0) * 1e6
    rec = SlotTimingRecord(slot_id, kind,
                           *slot_timing(DL_SLOT_US, coding.total_elapsed_us),
                           precode_wall_us=precode_us)
    return rec, coding


def run_ul_slot(cfg: CellConfig, jobs, executor,
                harq: HarqPool | None = None,
                slot_id: int = 4) -> tuple[SlotTimingRecord,
                                           SlotCodingResult]:
    """Front stages, rate recovery and decoding of one uplink slot."""
    kind = tdd_slot_kind(slot_id, cfg.tdd_pattern)
    if kind != "U":
        raise InvalidConfigError(f"slot {slot_id} is {kind}, not a UL slot")
    request = SlotCodingRequest(jobs=list(jobs), symbols=cfg.symbols,
                                overhead=cfg.overhead)
    coding = decode_slot(request, executor, harq)
    decoded = all(j.tb_crc_ok is not None for j in coding.job_results)
    rec = SlotTimingRecord(slot_id, kind,
                           *slot_timing(UL_SLOT_US, coding.total_elapsed_us),
                           crc_ok=coding.all_crc_ok if decoded else None)
    return rec, coding
