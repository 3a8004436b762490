"""Layered normalized min-sum LDPC decoding of code blocks on the rows
a transmission reached, many blocks per call.

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

The blocks of one call that share a plan decode as a batch
(``ldpc_decode_batch``; ``ldpc_decode`` is a batch of one). Each block is
first peeled and checked on its own, and a block solved there takes 0
iterations and joins no chunk. The others are grouped by the rows they
reached and decoded group by group in chunks. A chunk is variable-major:
an ``(n, c)`` float32 array with one column per block, so a row gathers a
``(degree, Z, c)`` block with the blocks innermost, and each ufunc call
of a row serves all c blocks. Its n rows are the codeword head up to the
parity column of the last reached row; an extension row touches only
information and core-parity columns besides its own, so nothing past it
is read. After each pass the solved blocks leave with their results, and
the totals and each row's messages shrink to the other blocks' columns,
one array at a time and C-contiguous again. Every block thus gets the
iterations, totals and result it would get alone, bit for bit. A chunk
holds as many blocks as ``_CHUNK_BYTES`` of messages fit: 10 at BG1 Z 384
on the 12 rows an rv0 reaches, 4 when all 46 rows are reached.

An information position whose total is exactly 0 is undecided: an erased
block (or a UE that sent nothing) never exits early and never passes CRC.
``DecodeResult.parity_ok`` means every information position is decided
and every check the transmission reached is satisfied.
"""
from __future__ import annotations

from collections.abc import Sequence
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
# a chunk's message budget, which bounds the batch's memory; measured on
# the UL benchmark, 1.5, 2 and 2.5 MiB took 82, 71-75 and 66 ms per TB
# at a peak RSS of +0.3, +1.8 and +3.0 MB over one block at a time
_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class DecodeResult:
    info_bits: np.ndarray     # K' bits: segment data incl. its CRC field
    crc_ok: bool
    iterations_used: int
    parity_ok: bool


def ldpc_decode(buffer: SoftBuffer, plan: SegmentationPlan,
                max_iters: int = DEFAULT_MAX_ITERS) -> DecodeResult:
    """Decode one code block from its soft buffer: a batch of one."""
    return ldpc_decode_batch([buffer], plan, max_iters)[0]


def ldpc_decode_batch(buffers: Sequence[SoftBuffer], plan: SegmentationPlan,
                      max_iters: int = DEFAULT_MAX_ITERS
                      ) -> list[DecodeResult]:
    """Decode code blocks that share ``plan`` from their soft buffers; one
    result per buffer, in order."""
    results: list[DecodeResult | None] = [None] * len(buffers)
    filling = {}    # kept-row structure -> (chunk totals, positions)
    for pos, buffer in enumerate(buffers):
        channel = _channel(buffer, plan)
        st = _reached_structure(channel, plan)
        _peel_erasures(st, channel)
        if _solved(st, channel[:, None])[0]:
            results[pos] = _result(channel, st, plan, 0, True)
            continue
        if st not in filling:
            width = min(_chunk_width(st), len(buffers) - pos)
            filling[st] = (np.empty((st.n_used, width), np.float32), [])
        totals, members = filling[st]
        totals[:, len(members)] = channel[: st.n_used]
        members.append(pos)
        if len(members) == totals.shape[1]:
            del filling[st]
            _decode_chunk(st, totals, members, plan, max_iters, results)
    for st, (totals, members) in filling.items():
        _decode_chunk(st, np.ascontiguousarray(totals[:, :len(members)]),
                      members, plan, max_iters, results)
    return results


def _chunk_width(st) -> int:
    """How many code blocks on ``st`` one chunk decodes together."""
    return max(1, _CHUNK_BYTES // (st.var_index.size * 4))


def _reached_structure(channel: np.ndarray, plan: SegmentationPlan):
    """The lifted graph restricted to the rows the transmission reached:
    the core rows, and each extension row whose parity column holds a
    non-zero LLR."""
    z = plan.lifting_size
    reached = channel.reshape(-1, z)[plan.k // z:].any(axis=1)
    reached[:CORE_PARITY_BLOCKS] = True
    return lifted(plan.base_graph, z, tuple(np.flatnonzero(reached).tolist()))


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


def _result(totals: np.ndarray, st, plan: SegmentationPlan, iterations: int,
            solved: bool) -> DecodeResult:
    """One code block's result from its final totals."""
    info = (totals[: plan.k_prime] < 0).astype(np.uint8)
    decided = bool(totals[: st.k].all())
    return DecodeResult(info_bits=info,
                        crc_ok=decided and _crc_verdict(info, plan),
                        iterations_used=iterations, parity_ok=solved)


def _crc_verdict(info: np.ndarray, plan: SegmentationPlan) -> bool:
    if plan.cb_crc_present:
        return crc.crc_check(info, CB_CRC)
    # single-segment block: the TB-level CRC sits at the segment tail
    return crc.crc_check(info[: plan.tb_size_bits], plan.tb_crc_kind)


def _solved(st, totals: np.ndarray) -> np.ndarray:
    """Per column of ``totals``: no information position undecided and
    every kept check satisfied."""
    solved = totals[: st.k].all(axis=0)
    decided = np.flatnonzero(solved)
    if decided.size:
        solved[decided] = st.syndrome_passes(totals[:, decided] < 0)
    return solved


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


def _decode_chunk(st, totals: np.ndarray, positions: list[int],
                  plan: SegmentationPlan, max_iters: int,
                  results: list) -> None:
    """Layered min-sum on the C-contiguous chunk ``totals``, one column per
    unsolved code block. A block's result goes to its position in
    ``results`` when it leaves the chunk: after the first pass that leaves
    it solved, or after the last pass."""
    positions = np.asarray(positions)
    sent = [np.zeros(index.shape + positions.shape, dtype=np.float32)
            for index in st.row_blocks]
    for it in range(1, max_iters + 1):
        rows = totals.view(np.dtype((np.void, totals.strides[0])))[:, 0]
        for index, messages in zip(st.row_blocks, sent):
            v = totals.take(index, axis=0)
            v -= messages
            _row_messages(v, messages)
            v += messages
            np.put(rows, index, v.view(rows.dtype))
        solved = _solved(st, totals)
        leaving = solved if it < max_iters else np.ones_like(solved)
        for j in np.flatnonzero(leaving):
            results[positions[j]] = _result(totals[:, j], st, plan, it,
                                            bool(solved[j]))
        if leaving.all():
            return
        if leaving.any():
            # one array at a time, each C-contiguous again
            keep = np.flatnonzero(~leaving)
            positions = positions[keep]
            totals = totals.take(keep, axis=1)
            for r, messages in enumerate(sent):
                sent[r] = messages.take(keep, axis=-1)


def _row_messages(v: np.ndarray, out: np.ndarray) -> None:
    """One row's new check-to-variable messages, written into ``out``,
    from its ``(degree, ...)`` variable-to-check values ``v``."""
    mag = np.abs(v, out=out)
    m = np.empty((2,) + v.shape[1:], dtype=np.float32)
    np.minimum.reduce(mag, axis=0, out=m[0])
    at_m1 = mag == m[0]
    # smallest magnitude above m1; it is sent only where m1 is unique, so
    # on a tie every edge gets m1
    above = at_m1 * _ABOVE_ANY
    np.minimum.reduce(np.maximum(mag, above, out=above), axis=0, out=m[1])
    at_m1 &= np.add.reduce(at_m1, axis=0, dtype=np.uint8) == 1
    np.minimum(m * NORMALIZATION, _MSG_CLAMP, out=m)
    np.maximum(m[0], np.multiply(at_m1, m[1], out=out), out=out)
    # edge sign = parity of the other edges' sign bits
    bits, out_bits = v.view(np.uint32), out.view(np.uint32)
    out_bits |= (bits ^ np.bitwise_xor.reduce(bits, axis=0)) & _SIGN
