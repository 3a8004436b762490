"""Flooding normalized min-sum LDPC decoding on the rows a transmission
reached.

Each extension row r >= 4 of BG1/BG2 owns one degree-1 parity column,
kb + r. When every channel LLR of that column is zero (rate matching never
reached it, or a short circular buffer cut it off), its extrinsic value is
exactly 0, so the row's min-sum messages to every other neighbour are +-0
and add nothing to any column total; the row also constrains no other bit
in the syndrome. The decoder therefore reads the reached rows off the soft
buffer itself (the four core rows always run) and runs message passing,
erasure peeling and the syndrome check on the lifted graph restricted to
them. Combined HARQ buffers, shortened circular buffers and untransmitted
blocks need no bookkeeping: the buffer's non-zero columns say it all.

Message passing runs vectorized over the kept lifted edges at once:
check-local views are gathered with precomputed indices, per-check sign
parities and two-smallest magnitudes come from grouped reductions, and
variable totals are rebuilt by a flat gather and a grouped sum over the
columns the kept rows touch.

An information position whose total is exactly 0 is undecided: an erased
block (or a UE that sent nothing) never exits early and never passes CRC.
``DecodeResult.parity_ok`` means every information position is decided
and every check the transmission reached is satisfied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError
from . import crc
from .basegraph import CORE_PARITY_BLOCKS, PUNCTURED_BLOCKS, \
    codeword_length, lifted
from .segmentation import CB_CRC, SegmentationPlan
from .softbuffer import SoftBuffer

NORMALIZATION = 0.75
DEFAULT_MAX_ITERS = 8
_MSG_CLAMP = float(1 << 24)
# values at or above this magnitude are treated as exactly known, which
# enables erasure peeling of punctured/untransmitted positions
_CERTAIN_LLR = float(1 << 19)
_MAX_PEEL_PASSES = 16


@dataclass(frozen=True)
class DecodeResult:
    info_bits: np.ndarray     # K' bits: segment data incl. its CRC field
    crc_ok: bool
    iterations_used: int
    parity_ok: bool


def ldpc_decode(buffer: SoftBuffer, plan: SegmentationPlan,
                max_iters: int = DEFAULT_MAX_ITERS) -> DecodeResult:
    """Decode one code block from its soft buffer."""
    z = plan.lifting_size
    channel = _channel(buffer, plan)
    # parity column kb + r is reached iff extension row r takes part
    reached = channel.reshape(-1, z)[plan.k // z:].any(axis=1)
    reached[:CORE_PARITY_BLOCKS] = True
    st = lifted(plan.base_graph, z, tuple(np.flatnonzero(reached).tolist()))

    totals, iters, solved = _min_sum(st, channel, max_iters)
    info = (totals[: plan.k_prime] < 0).astype(np.uint8)
    decided = bool(totals[: st.k].all())
    return DecodeResult(info_bits=info,
                        crc_ok=decided and _crc_verdict(info, plan),
                        iterations_used=iters, parity_ok=solved)


def _channel(buffer: SoftBuffer, plan: SegmentationPlan) -> np.ndarray:
    """Full-codeword channel LLRs: zero over the punctured head and past
    the end of the buffer."""
    head = PUNCTURED_BLOCKS * plan.lifting_size
    channel = np.zeros(codeword_length(plan.base_graph, plan.lifting_size),
                       dtype=np.float32)
    if buffer.llrs.size > channel.size - head:
        raise InvalidConfigError("buffer longer than the circular buffer")
    channel[head:head + buffer.llrs.size] = buffer.llrs
    return channel


def _crc_verdict(info: np.ndarray, plan: SegmentationPlan) -> bool:
    if plan.cb_crc_present:
        return crc.crc_check(info, CB_CRC)
    # single-segment block: the TB-level CRC sits at the segment tail
    return crc.crc_check(info[: plan.tb_size_bits], plan.tb_crc_kind)


def _solved(st, totals: np.ndarray) -> bool:
    """No information position undecided and every kept check satisfied."""
    return bool(totals[: st.k].all()) and st.syndrome_ok(totals < 0)


def _peel_erasures(st, totals: np.ndarray) -> None:
    """Resolve zero-LLR positions whose checks are otherwise fully certain.

    A parity check with exactly one unknown neighbour and every other
    neighbour at certainty magnitude determines the unknown bit exactly.
    Runs to a fixpoint; noiseless inputs resolve the punctured head here
    without any min-sum iteration. No-op for noisy (sub-certainty) inputs.
    """
    clamp = np.float32(_CERTAIN_LLR * 2)
    for _ in range(_MAX_PEEL_PASSES):
        unknown = totals == 0
        certain = np.abs(totals) >= _CERTAIN_LLR
        if not unknown.any() or not certain.any():
            return
        lu = unknown.take(st.var_index)
        lc = certain.take(st.var_index)
        n_unknown = np.add.reduceat(lu.astype(np.int16), st.row_starts,
                                    axis=0)
        n_soft = np.add.reduceat((~lu & ~lc).astype(np.int16),
                                 st.row_starts, axis=0)
        solvable = (n_unknown == 1) & (n_soft == 0)
        if not solvable.any():
            return
        neg_known = ((totals.take(st.var_index) < 0) & ~lu).astype(np.uint8)
        parity = np.bitwise_xor.reduceat(neg_known, st.row_starts, axis=0)
        sel = lu & np.repeat(solvable, st.row_degree, axis=0)
        flat_idx = st.var_index[sel]
        bit = np.repeat(parity, st.row_degree, axis=0)[sel]
        totals[flat_idx] = np.where(bit, -clamp, clamp)


def _min_sum(st, channel: np.ndarray, max_iters: int
             ) -> tuple[np.ndarray, int, bool]:
    """Final totals, iterations run, and whether the word is solved."""
    totals = channel.copy()
    _peel_erasures(st, totals)
    if _solved(st, totals):
        return totals, 0, True
    z = st.z
    deg = st.row_degree
    c2v = np.zeros((st.n_edges, z), dtype=np.float32)
    for it in range(1, max_iters + 1):
        v = totals.take(st.var_index) - c2v
        mag = np.abs(v)
        neg = (v < 0).astype(np.uint8)
        parity = np.bitwise_xor.reduceat(neg, st.row_starts, axis=0)
        m1 = np.minimum.reduceat(mag, st.row_starts, axis=0)
        m1_edge = np.repeat(m1, deg, axis=0)
        at_min = mag == m1_edge
        n_min = np.add.reduceat(at_min.astype(np.int32), st.row_starts,
                                axis=0)
        masked = np.where(at_min, np.float32(np.inf), mag)
        m2 = np.minimum.reduceat(masked, st.row_starts, axis=0)
        unique_min = at_min & np.repeat(n_min == 1, deg, axis=0)
        out_mag = np.where(unique_min, np.repeat(m2, deg, axis=0), m1_edge)
        sign = 1.0 - 2.0 * (np.repeat(parity, deg, axis=0)
                            ^ neg).astype(np.float32)
        c2v = NORMALIZATION * sign * out_mag
        np.clip(c2v, -_MSG_CLAMP, _MSG_CLAMP, out=c2v)
        # back to variable coordinates and per-column sums
        col_sums = np.add.reduceat(c2v.take(st.to_var_flat).reshape(-1, z),
                                   st.col_starts, axis=0)
        totals = channel.copy()
        totals.reshape(-1, z)[st.active_cols] += col_sums
        if _solved(st, totals):
            return totals, it, True
    return totals, max_iters, False
