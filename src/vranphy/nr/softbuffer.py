"""The UL soft path's one LLR format, and the soft-combining buffers that
hold it.

The format: an LLR is an int16 with ``LLR_FRACTION_BITS`` = 2 fractional
bits, saturated symmetrically at +-``LLR_SAT`` = 2^13 - 1, as a coding
accelerator declares its LLR width and decimals. A received stream enters
the format once, in ``received_llrs``: scaled by 2^2, rounded half away
from zero, then saturated. From there on, the soft buffer and the decoder
hold nothing else; a magnitude of ``LLR_SAT`` means certain. The bound
leaves the decoder's arithmetic room below the int16 range (``nr.decoder``
shows that no sum it forms can wrap).

A buffer holds one code block's circular-buffer worth of LLRs. A new
transmission is added back onto the buffer positions it was read from,
one strided slice per piece of ``nr.ratematch.selection_runs``, which
undoes the interleaver on the way; the sums are taken in int32 and
saturated once, so where a transmission repeats positions (E > Ncb) its
values for one position are summed first and no sum wraps.
Filler positions stay pinned at +``LLR_SAT``, bit value 0 for certain;
untransmitted positions keep their prior value.

Sign convention: positive LLR means bit 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError
from .basegraph import buffer_length
from .ratematch import RateMatchParams, filler_range, selection_runs
from .segmentation import SegmentationPlan

LLR_DTYPE = np.int16
LLR_FRACTION_BITS = 2
LLR_SAT = (1 << 13) - 1
# the largest real-valued LLR magnitude the format holds
LLR_MAX = LLR_SAT / (1 << LLR_FRACTION_BITS)


@dataclass
class SoftBuffer:
    llrs: np.ndarray     # Ncb LLRs in the format


def new_soft_buffer(plan: SegmentationPlan) -> SoftBuffer:
    """Zeroed full circular buffer with filler positions pinned to
    +LLR_SAT."""
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    buffer = SoftBuffer(llrs=np.zeros(ncb, dtype=LLR_DTYPE))
    lo, hi = filler_range(plan)
    buffer.llrs[lo:hi] = LLR_SAT
    return buffer


def quantized(llrs) -> np.ndarray:
    """Real-valued LLRs in the format: scaled by 2^LLR_FRACTION_BITS,
    rounded half away from zero and saturated at +-LLR_SAT. The scaling
    and the rounding are exact in the input's float type."""
    q = np.multiply(llrs, 1 << LLR_FRACTION_BITS,
                    dtype=np.result_type(llrs, np.float32))
    np.clip(q, -LLR_SAT, LLR_SAT, out=q)
    rounded = np.rint(q)                    # halves go to the even side
    half = np.abs(q - rounded) == 0.5
    rounded[half] = q[half] + np.copysign(0.5, q[half])
    return rounded.astype(LLR_DTYPE)


def received_llrs(llrs, params: RateMatchParams) -> np.ndarray:
    """One code block's E received LLRs in the format, checked to be real
    and finite before they are quantised. A stream already of
    ``LLR_DTYPE`` is taken to be in the format and passes as it is."""
    rx = np.asarray(llrs)
    if rx.size != params.e:
        raise InvalidConfigError(f"LLR length {rx.size} != E={params.e}")
    if rx.dtype == LLR_DTYPE:
        return rx
    if rx.dtype.kind not in "iuf":
        raise InvalidConfigError(f"LLRs must be real numbers, not {rx.dtype}")
    if not np.isfinite(rx).all():
        raise InvalidConfigError("LLRs must be finite")
    return quantized(rx)


def rate_recover_and_combine(llrs: np.ndarray, plan: SegmentationPlan,
                             params: RateMatchParams,
                             buffer: SoftBuffer) -> SoftBuffer:
    """Add each received LLR onto the buffer position it was read from,
    with saturation."""
    rx = received_llrs(llrs, params).reshape(-1)
    if buffer.llrs.size != params.ncb:
        raise InvalidConfigError("buffer length does not match Ncb")
    qm = params.qm
    total = buffer.llrs.astype(np.int32)
    for start, pos, length in selection_runs(plan, params):
        total[pos:pos + length] += rx[start:start + length * qm:qm]
    np.clip(total, -LLR_SAT, LLR_SAT, out=total)
    buffer.llrs[:] = total
    lo, hi = filler_range(plan)
    buffer.llrs[lo:hi] = LLR_SAT
    return buffer


def _binary(bits) -> np.ndarray:
    """``bits`` as float32, checked to be 0 or 1."""
    b = np.asarray(bits)
    if not ((b == 0) | (b == 1)).all():
        raise InvalidConfigError("bits must be 0 or 1")
    return b.astype(np.float32)


def noiseless_llrs(bits: np.ndarray,
                   magnitude: float = LLR_MAX) -> np.ndarray:
    """Exact-sign LLRs for a bit sequence (bit 0 -> +magnitude).

    The default magnitude is the format's largest, which quantises to
    +-LLR_SAT: full confidence. The decoder treats such values as exact
    and can resolve the punctured head by erasure peeling instead of
    iterating.
    """
    return (1.0 - 2.0 * _binary(bits)) * magnitude


def awgn_llrs(bits: np.ndarray, sigma: float,
              rng: np.random.Generator) -> np.ndarray:
    """BPSK-over-AWGN LLRs: y = (1-2b) + n, llr = 2y / sigma^2."""
    b = _binary(bits)
    if not (np.isfinite(sigma) and sigma > 0):
        raise InvalidConfigError(f"noise level sigma={sigma} must be a "
                                 "positive finite number")
    y = (1.0 - 2.0 * b) + rng.normal(0.0, sigma, size=b.size)
    return (2.0 / (sigma * sigma)) * y.astype(np.float32)
