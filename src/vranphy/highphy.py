"""Slot-level High-PHY pipelines: cell timing constants, TDD slot typing,
the DL bit-to-grid chain, vectorized precoding, and the slot-timing rule.

The TDD pattern is stated here once, as ``TDD_PATTERN``, and
``tdd_slot_kind`` is the one slot-kind rule: the slot runners, the
deployment harness and its expected slot counts all read it. The grid
constants and the bounds rule of an allocation live in ``nr.mcs``. A
slot's jobs are admitted against the cell by one rule for both directions:
their PRB shares must fit ``cfg.prbs``.

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

``run_dl_slot`` maps what it encoded onto the slot's layer grid
(``nr.modulation``). Each job's rate-matched streams, concatenated in code
block order, are scrambled with c_init = ue_id * 2^15 (RNTI ``ue_id``,
codeword 0, N_ID 0), modulated at the job's Qm and layer-mapped onto its
own layers. Jobs take PRBs in request order: job j holds PRBs
[sum of earlier ``prb_share``, + ``prb_share``) over the last
``cfg.symbols`` OFDM symbols of the slot. Inside that region REs are
numbered frequency-first (subcarrier, then symbol); the first
``overhead * prb_share`` are reserved, the job's symbols fill those after
them, and every RE no symbol reaches stays 0, as do the layers beyond the
job's own. Each slot runs in one complex128 grid of ``tx_antennas`` rows,
built by the first slot of its shape in a thread and reused by the later
ones: a job's bits pass through its memory on their way to the symbol
values, the layer grid is its first rows, and precoding writes the port
grid over it.

Precoding accumulates over layers in a fixed order, one multiply-add per
OFDM symbol and (port, layer) whose weight is not zero. A zero weight
would add +-0 to a sum that starts at +0 and so is never -0, which changes
no bit. ``run_dl_slot`` precodes with fixed identity weights, layer l onto
port l, so each port takes one term. The result equals a per-element loop
over every layer in the same order up to the rounding of NumPy's
vectorized complex multiply, and bit for bit when the products are exact,
as with identity weights.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfigError
from .nr.mcs import (MAX_PRBS, SUBCARRIERS_PER_PRB, SYMBOLS_PER_SLOT,
                     check_allocation, mcs_params)
from .nr.modulation import (layer_map, modulate, scramble, scrambling_init,
                            symbol_indices)
from .slot_coding import (HarqPool, SlotCodingRequest, SlotCodingResult,
                          decode_slot, encode_slot)

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
    prbs: int = MAX_PRBS
    tx_antennas: int = 4
    symbols: int = 12            # data symbols available to a TB
    overhead: int = 0

    def __post_init__(self):
        check_allocation(self.prbs, self.symbols, self.overhead)
        if self.tx_antennas < 1:
            raise InvalidConfigError("tx_antennas must be >= 1")

    @property
    def subcarriers(self) -> int:
        return SUBCARRIERS_PER_PRB * self.prbs


def tdd_slot_kind(slot_index: int) -> str:
    """Slot kind (D, S or U) of a slot under the repeating ``TDD_PATTERN``."""
    return TDD_PATTERN[slot_index % len(TDD_PATTERN)]


def _admit(cfg: CellConfig, jobs: list, slot_id: int, link: str,
           kinds: str) -> tuple[str, SlotCodingRequest]:
    """The kind of slot ``slot_id`` and the coding request of its jobs. The
    slot must be one of ``kinds`` to carry ``link``, and the jobs' PRB
    shares must fit the cell."""
    kind = tdd_slot_kind(slot_id)
    if kind not in kinds:
        raise InvalidConfigError(
            f"slot {slot_id} is {kind}, not a {link} slot")
    if sum(j.prb_share for j in jobs) > cfg.prbs:
        raise InvalidConfigError(
            f"PRB shares exceed the cell's {cfg.prbs} PRBs")
    return kind, SlotCodingRequest(jobs=jobs, symbols=cfg.symbols,
                                   overhead=cfg.overhead)


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

    @classmethod
    def _written(cls, data: np.ndarray) -> ResourceGrid:
        """A grid around a complex128 (streams, symbols, subcarriers)
        array the program has just written from checked inputs: no scan."""
        grid = object.__new__(cls)
        grid.data = data
        return grid


class PrecodeMode(Enum):
    VECTOR = "vector"


def precode_and_map(layers: ResourceGrid, weights: np.ndarray,
                    mode: PrecodeMode = PrecodeMode.VECTOR,
                    out: np.ndarray | None = None) -> ResourceGrid:
    """Per-port combination out[p] = sum_l w[p, l] * in[l], mapped onto the
    port grid; written into ``out`` (a complex128 array of the port grid's
    shape) when given. ``out`` may hold ``layers`` itself: each OFDM
    symbol is precoded from a copy of that symbol's layers. Non-finite
    weights are rejected before anything is written, and the port grid
    built from them and the finite layer grid is not scanned again."""
    if mode is not PrecodeMode.VECTOR:
        raise InvalidConfigError(f"unknown mode {mode!r}")
    w = np.asarray(weights, dtype=np.complex128)
    x = layers.data
    if w.ndim != 2 or w.shape[1] != x.shape[0]:
        raise InvalidConfigError(
            f"weights {w.shape} do not match {x.shape[0]} layers")
    if not np.isfinite(w).all():
        raise InvalidConfigError("weights hold non-finite values")
    shape = (w.shape[0], *x.shape[1:])
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128:
        raise InvalidConfigError(
            f"out {out.dtype}{out.shape} is not a complex128 {shape} grid")
    terms = [(p, np.flatnonzero(row)) for p, row in enumerate(w)]
    symbol = np.empty((x.shape[0], x.shape[2]), dtype=np.complex128)
    term = np.empty(x.shape[2], dtype=np.complex128)
    for s in range(x.shape[1]):
        np.copyto(symbol, x[:, s])
        for p, nonzero in terms:
            acc = out[p, s]
            acc.fill(0)
            for l in nonzero:
                np.multiply(w[p, l], symbol[l], out=term)
                acc += term
    return ResourceGrid._written(out)


class _DlSlotBuffers:
    """The grid of one DL slot shape (ports, symbols, subcarriers) and room
    for the Qm-bit group values of as many symbols as its layers can hold.
    A job's bits (a byte each, at most 8 per symbol) fit in the grid's
    memory before any symbol is mapped into it."""

    def __init__(self, ports: int, subcarriers: int):
        self.shape = (ports, subcarriers)
        self.grid = np.zeros((ports, SYMBOLS_PER_SLOT, subcarriers),
                             dtype=np.complex128)
        self.indices = np.empty(self.grid.size, dtype=np.uint8)

    def map_jobs(self, cfg: CellConfig, jobs: list,
                 coding: SlotCodingResult) -> None:
        """Scramble, modulate, layer-map and RE-map each job's encoded
        streams onto the grid (the rule is in the module docstring)."""
        scratch = self.grid.reshape(-1).view(np.uint8)
        free = self.indices
        values = []
        for job, result in zip(jobs, coding.job_results):
            qm, _ = mcs_params(job.mcs_index, job.mcs_table)
            bits = scratch[:sum(s.size for s in result.streams)]
            np.concatenate(result.streams, out=bits)
            packed = scramble(bits, scrambling_init(job.ue_id))
            count = bits.size // qm
            values.append((qm, symbol_indices(packed, qm, count, out=free)))
            free = free[count:]
        self.grid.fill(0)
        first_symbol = SYMBOLS_PER_SLOT - cfg.symbols
        prb = 0
        for job, (qm, idx) in zip(jobs, values):
            sc = SUBCARRIERS_PER_PRB * prb
            prb += job.prb_share
            _map_region(self.grid[:job.layers, first_symbol:,
                                  sc:SUBCARRIERS_PER_PRB * prb],
                        layer_map(idx, job.layers), qm,
                        cfg.overhead * job.prb_share)


def _map_region(region: np.ndarray, x: np.ndarray, qm: int,
                start: int) -> None:
    """Modulate the layer-mapped Qm-bit group values ``x`` (layers, M)
    onto REs start .. start + M of ``region`` (layers, symbols,
    subcarriers), numbered frequency-first."""
    width = region.shape[2]
    end = start + x.shape[1]
    for row in range(start // width, -(-end // width)):
        lo, hi = max(start, row * width), min(end, (row + 1) * width)
        for v in range(x.shape[0]):
            modulate(x[v, lo - start:hi - start], qm,
                     out=region[v, row, lo - row * width:hi - row * width])


_BUFFERS = threading.local()


def _dl_slot_buffers(ports: int, subcarriers: int) -> _DlSlotBuffers:
    """This thread's buffers, built again when the slot shape changes."""
    buffers = getattr(_BUFFERS, "dl", None)
    if buffers is None or buffers.shape != (ports, subcarriers):
        buffers = _BUFFERS.dl = _DlSlotBuffers(ports, subcarriers)
    return buffers


@dataclass
class SlotTimingRecord:
    """One slot's total and verdict under ``slot_timing``, with the
    wall-clock precoding time of a DL slot reported beside them."""
    slot_id: int
    kind: str
    total_us: float
    deadline_met: bool
    precode_wall_us: float | None = None


def run_dl_slot(cfg: CellConfig, jobs, device,
                mode: PrecodeMode = PrecodeMode.VECTOR,
                slot_id: int = 0) -> tuple[SlotTimingRecord,
                                           SlotCodingResult]:
    """Encode one downlink slot, map what it encoded onto the layer grid
    (the rule is in the module docstring) and precode that grid onto the
    cell's ``tx_antennas`` ports with the identity weights."""
    jobs = list(jobs)
    kind, request = _admit(cfg, jobs, slot_id, "DL", "DS")
    for job in jobs:
        if job.layers > cfg.tx_antennas:
            raise InvalidConfigError(
                f"job ue={job.ue_id}: {job.layers} layers exceed "
                f"{cfg.tx_antennas} antennas")
        scrambling_init(job.ue_id)      # an RNTI has 16 bits
    coding = encode_slot(request, device)
    n_layers = max(j.layers for j in jobs)
    weights = np.eye(cfg.tx_antennas, n_layers, dtype=np.complex128)
    buffers = _dl_slot_buffers(cfg.tx_antennas, cfg.subcarriers)
    buffers.map_jobs(cfg, jobs, coding)
    layers = ResourceGrid._written(buffers.grid[:n_layers])
    t0 = time.perf_counter()
    precode_and_map(layers, weights, mode=mode, out=buffers.grid)
    precode_us = (time.perf_counter() - t0) * 1e6
    rec = SlotTimingRecord(slot_id, kind,
                           *slot_timing(DL_SLOT_US, coding.total_elapsed_us),
                           precode_wall_us=precode_us)
    return rec, coding


def run_ul_slot(cfg: CellConfig, jobs, device,
                harq: HarqPool | None = None,
                slot_id: int = 4) -> tuple[SlotTimingRecord,
                                           SlotCodingResult]:
    """Front stages, rate recovery and decoding of one uplink slot."""
    kind, request = _admit(cfg, list(jobs), slot_id, "UL", "U")
    coding = decode_slot(request, device, harq)
    rec = SlotTimingRecord(slot_id, kind,
                           *slot_timing(UL_SLOT_US, coding.total_elapsed_us))
    return rec, coding
