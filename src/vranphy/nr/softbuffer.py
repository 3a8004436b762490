"""Soft-combining buffers for retransmission aggregation.

A buffer holds one code block's circular-buffer worth of LLRs. New
transmissions are de-interleaved, mapped back onto their buffer positions
and saturating-added. Filler positions stay pinned at maximal confidence
for bit value 0; untransmitted positions keep their prior value.

Sign convention: positive LLR means bit 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError
from .basegraph import buffer_length
from .ratematch import RateMatchParams, deinterleave, filler_range, \
    selection_positions
from .segmentation import SegmentationPlan

FLOAT_CLAMP = float(1 << 20)


@dataclass
class SoftBuffer:
    llrs: np.ndarray


def new_soft_buffer(plan: SegmentationPlan) -> SoftBuffer:
    """Zeroed full circular buffer with filler positions pinned to
    +FLOAT_CLAMP."""
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    buffer = SoftBuffer(llrs=np.zeros(ncb, dtype=np.float32))
    lo, hi = filler_range(plan)
    buffer.llrs[lo:hi] = FLOAT_CLAMP
    return buffer


def received_llrs(llrs, params: RateMatchParams) -> np.ndarray:
    """One code block's received LLRs as float32, checked to be E finite
    values."""
    rx = np.asarray(llrs, dtype=np.float32)
    if rx.size != params.e:
        raise InvalidConfigError(f"LLR length {rx.size} != E={params.e}")
    if not np.isfinite(rx).all():
        raise InvalidConfigError("LLRs must be finite")
    return rx


def rate_recover_and_combine(llrs: np.ndarray, plan: SegmentationPlan,
                             params: RateMatchParams,
                             buffer: SoftBuffer) -> SoftBuffer:
    """De-interleave, map to buffer positions and saturating-add."""
    rx = received_llrs(llrs, params)
    if buffer.llrs.size != params.ncb:
        raise InvalidConfigError("buffer length does not match Ncb")
    seq = deinterleave(rx, params.qm)
    positions = selection_positions(plan, params)
    np.add.at(buffer.llrs, positions, seq)
    np.clip(buffer.llrs, -FLOAT_CLAMP, FLOAT_CLAMP, out=buffer.llrs)
    lo, hi = filler_range(plan)
    buffer.llrs[lo:hi] = FLOAT_CLAMP
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
