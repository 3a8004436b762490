"""Layered normalized min-sum LDPC decoding of one code block on the rows
a transmission reached.

Each kept base-graph row is one layer, and the layers run in row order. A
row reads its edges' variable totals through its ``(degree, Z)`` block of
the lifted variable index and takes away the messages it sent on the last
pass. Each edge then gets the smallest magnitude among the row's other
edges (the second smallest at the one edge holding a unique smallest),
scaled by the normalisation, clamped, and signed by the XOR of the other
edges' float32 sign bits. (That bit reads -0.0 as negative where ``v < 0``
does not, which moves no value: a zero is its row's smallest magnitude, so
every other edge's message is +-0, and its own message leaves its bit
out.) The row writes ``v + message`` back before the next row reads it, so
a layer already sees the updates of the rows before it, and the schedule
converges in fewer iterations than flooding (Hocevar, "A reduced
complexity decoder architecture via layered decoding of LDPC codes", SiPS
2004, reports about half). One pass over the kept rows is one iteration,
and the decoder exits after any pass that leaves the word solved: every
information position decided and the kept rows' syndrome zero, tested row
by row up to the first failing row.

Each extension row r >= 4 of BG1/BG2 owns one degree-1 parity column,
kb + r. When every channel LLR of that column is zero (rate matching never
reached it, or a short circular buffer cut it off), the value the row
reads from it is exactly 0 on every pass, so the row sends +-0 to every
other neighbour and changes no other column's total. The row also
constrains no other bit in the syndrome. The decoder therefore reads the
reached rows off the soft buffer itself (the four core rows always run),
and runs message passing, erasure peeling and the syndrome check on the
lifted graph restricted to them. Combined HARQ buffers, shortened circular
buffers and untransmitted blocks need no bookkeeping: the buffer's
non-zero columns say it all.

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
# masks the smallest magnitudes out of a row's second-minimum search
_ABOVE_ANY = np.finfo(np.float32).max
_SIGN = np.uint32(1 << 31)


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

    totals, iters, solved = _layered_min_sum(st, channel, max_iters)
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


def _layered_min_sum(st, channel: np.ndarray, max_iters: int
                     ) -> tuple[np.ndarray, int, bool]:
    """Final totals, iterations run, and whether the word is solved."""
    totals = channel.copy()
    _peel_erasures(st, totals)
    if _solved(st, totals):
        return totals, 0, True
    sent = [np.zeros(index.shape, dtype=np.float32)
            for index in st.row_blocks]
    for it in range(1, max_iters + 1):
        for index, messages in zip(st.row_blocks, sent):
            v = totals.take(index)
            v -= messages
            _row_messages(v, messages)
            v += messages
            totals[index] = v
        if _solved(st, totals):
            return totals, it, True
    return totals, max_iters, False


def _row_messages(v: np.ndarray, out: np.ndarray) -> None:
    """One row's new check-to-variable messages, written into ``out``,
    from its ``(degree, Z)`` variable-to-check values ``v``."""
    mag = np.abs(v, out=out)
    m = np.empty((2, v.shape[1]), dtype=np.float32)
    np.minimum.reduce(mag, axis=0, out=m[0])
    at_m1 = mag == m[0]
    # smallest magnitude above m1; it is sent only where m1 is unique, so
    # on a tie every edge gets m1
    np.minimum.reduce(np.maximum(mag, at_m1 * _ABOVE_ANY), axis=0, out=m[1])
    at_m1 &= np.add.reduce(at_m1, axis=0, dtype=np.uint8) == 1
    np.minimum(m * NORMALIZATION, _MSG_CLAMP, out=m)
    np.maximum(m[0], np.multiply(at_m1, m[1], out=out), out=out)
    # edge sign = parity of the other edges' sign bits
    bits, out_bits = v.view(np.uint32), out.view(np.uint32)
    out_bits |= (bits ^ np.bitwise_xor.reduce(bits, axis=0)) & _SIGN
