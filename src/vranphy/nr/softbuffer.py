"""Soft-combining buffers for retransmission aggregation.

A buffer holds one code block's circular-buffer worth of LLRs. New
transmissions are de-interleaved, mapped back onto their buffer positions
and saturating-added. Filler positions stay pinned at maximal confidence
for bit value 0; untransmitted positions keep their prior value.

Sign convention: positive LLR means bit 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import InvalidConfigError
from .ratematch import RateMatchParams, deinterleave, filler_range, \
    selection_positions
from .segmentation import SegmentationPlan

FLOAT_CLAMP = float(1 << 20)
INT8_CLAMP = 127.0


class BufferLocation(Enum):
    HOST = "host"
    DEVICE = "device"


@dataclass
class SoftBuffer:
    llrs: np.ndarray
    location: BufferLocation = BufferLocation.HOST
    harq_pid: int = 0
    quantized: bool = False

    @property
    def clamp(self) -> float:
        return INT8_CLAMP if self.quantized else FLOAT_CLAMP


def new_soft_buffer(plan: SegmentationPlan, ncb: int | None = None,
                    location: BufferLocation = BufferLocation.HOST,
                    harq_pid: int = 0, quantized: bool = False) -> SoftBuffer:
    """Zeroed buffer with filler positions pinned to +clamp."""
    from .basegraph import buffer_length
    if ncb is None:
        ncb = buffer_length(plan.base_graph, plan.lifting_size)
    llrs = np.zeros(ncb, dtype=np.float32)
    clamp = INT8_CLAMP if quantized else FLOAT_CLAMP
    lo, hi = filler_range(plan)
    llrs[lo:hi] = clamp
    return SoftBuffer(llrs=llrs, location=location, harq_pid=harq_pid,
                      quantized=quantized)


def rate_recover_and_combine(llrs: np.ndarray, plan: SegmentationPlan,
                             params: RateMatchParams,
                             buffer: SoftBuffer) -> SoftBuffer:
    """De-interleave, map to buffer positions and saturating-add."""
    rx = np.asarray(llrs, dtype=np.float32)
    if rx.size != params.e:
        raise InvalidConfigError(f"LLR length {rx.size} != E={params.e}")
    if buffer.llrs.size != params.ncb:
        raise InvalidConfigError("buffer length does not match Ncb")
    if not np.isfinite(rx).all():
        raise InvalidConfigError("LLRs must be finite")
    seq = deinterleave(rx, params.qm)
    positions = selection_positions(plan, params)
    np.add.at(buffer.llrs, positions, seq)
    clamp = buffer.clamp
    np.clip(buffer.llrs, -clamp, clamp, out=buffer.llrs)
    if buffer.quantized:
        np.rint(buffer.llrs, out=buffer.llrs)
    lo, hi = filler_range(plan)
    buffer.llrs[lo:hi] = clamp
    return buffer


def noiseless_llrs(bits: np.ndarray,
                   magnitude: float = FLOAT_CLAMP) -> np.ndarray:
    """Exact-sign LLRs for a bit sequence (bit 0 -> +magnitude).

    The default magnitude is the buffer clamp, i.e. full confidence; the
    decoder treats such values as exact and can resolve the punctured head
    by erasure peeling instead of iterating.
    """
    b = np.asarray(bits, dtype=np.float32)
    return (1.0 - 2.0 * b) * magnitude


def awgn_llrs(bits: np.ndarray, sigma: float,
              rng: np.random.Generator) -> np.ndarray:
    """BPSK-over-AWGN LLRs: y = (1-2b) + n, llr = 2y / sigma^2."""
    b = np.asarray(bits, dtype=np.float32)
    y = (1.0 - 2.0 * b) + rng.normal(0.0, sigma, size=b.size)
    return (2.0 / (sigma * sigma)) * y.astype(np.float32)
