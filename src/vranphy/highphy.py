"""Slot-level High-PHY pipelines: cell timing constants, TDD slot typing,
vectorized precoding and resource mapping, and per-stage timing records
with deadline accounting.

Precoding accumulates over layers in a fixed order, one whole-grid
multiply-add per (port, layer). It equals a per-element loop in the same
order up to the rounding of NumPy's vectorized complex multiply, and bit
for bit when the products are exact, as with the default identity weights.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfigError
from .slot_coding import (Direction, HarqPool, SlotCodingRequest,
                          SlotCodingResult, decode_slot, encode_slot)

SYMBOLS_PER_SLOT = 14
SUBCARRIERS_PER_PRB = 12
TTI_US = 500.0               # numerology 1
TDD_PATTERN = "DDDSU"

# pipeline-depth deadline budgets (not measured)
DL_BUDGET_US = 1000.0
UL_BUDGET_US = 2000.0

# synthetic per-slot cost of the non-coding stages (channel estimation,
# transforms, equalization); these put single-instance slot totals into
# the observed single-instance interquartile ranges
DL_OTHER_STAGES_US = 47.0
UL_OTHER_STAGES_US = 1400.0
# The deployment harness times no precode_map stage, where run_dl_slot
# adds a wall-clock one to DL_OTHER_STAGES_US, so the harness charges this
# larger DL cost instead. The size of the gap (360 us) is not derived from
# any measurement.
DL_OTHER_STAGES_NO_PRECODE_US = 407.0


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
    slot_id: int
    kind: str
    direction: str
    stages_us: dict[str, float]
    total_us: float
    deadline_met: bool
    crc_ok: bool | None = None

    def to_json_line(self) -> str:
        return json.dumps({
            "slot_id": self.slot_id, "kind": self.kind,
            "direction": self.direction,
            "stages_us": {k: round(v, 3) for k, v in self.stages_us.items()},
            "total_us": round(self.total_us, 3),
            "deadline_met": self.deadline_met,
            "crc_ok": self.crc_ok,
        }, sort_keys=True)


def _record(slot_id, kind, direction, stages, budget, crc_ok=None
            ) -> SlotTimingRecord:
    total = float(sum(stages.values()))
    return SlotTimingRecord(slot_id=slot_id, kind=kind, direction=direction,
                            stages_us=stages, total_us=total,
                            deadline_met=total <= budget, crc_ok=crc_ok)


def run_dl_slot(cfg: CellConfig, jobs, executor,
                mode: PrecodeMode = PrecodeMode.VECTOR,
                weights: np.ndarray | None = None,
                slot_id: int = 0) -> tuple[SlotTimingRecord,
                                           SlotCodingResult]:
    """Encode, synthetic-modulate and precode one downlink slot."""
    kind = tdd_slot_kind(slot_id, cfg.tdd_pattern)
    if kind not in ("D", "S"):
        raise InvalidConfigError(f"slot {slot_id} is {kind}, not a DL slot")
    request = SlotCodingRequest(slot_id=slot_id, direction=Direction.DL,
                                jobs=list(jobs), symbols=cfg.symbols,
                                overhead=cfg.overhead)
    coding = encode_slot(request, executor)
    n_layers = max(j.layers for j in request.jobs)
    grid = layer_grid(cfg, n_layers, seed=slot_id)
    if weights is None:
        weights = np.eye(cfg.tx_antennas, n_layers, dtype=np.complex128)
    t0 = time.perf_counter()
    precode_and_map(grid, weights, mode=mode)
    precode_us = (time.perf_counter() - t0) * 1e6
    stages = {"coding": coding.total_elapsed_us,
              "precode_map": precode_us,
              "other": DL_OTHER_STAGES_US}
    return _record(slot_id, kind, "dl", stages, DL_BUDGET_US), coding


def run_ul_slot(cfg: CellConfig, jobs, executor,
                harq: HarqPool | None = None,
                slot_id: int = 4) -> tuple[SlotTimingRecord,
                                           SlotCodingResult]:
    """Front stages, rate recovery and decoding of one uplink slot."""
    kind = tdd_slot_kind(slot_id, cfg.tdd_pattern)
    if kind != "U":
        raise InvalidConfigError(f"slot {slot_id} is {kind}, not a UL slot")
    request = SlotCodingRequest(slot_id=slot_id, direction=Direction.UL,
                                jobs=list(jobs), symbols=cfg.symbols,
                                overhead=cfg.overhead)
    coding = decode_slot(request, executor, harq)
    stages = {"other": UL_OTHER_STAGES_US,
              "coding": coding.total_elapsed_us}
    decoded = all(j.tb_crc_ok is not None for j in coding.job_results)
    rec = _record(slot_id, kind, "ul", stages, UL_BUDGET_US,
                  crc_ok=coding.all_crc_ok if decoded else None)
    return rec, coding
