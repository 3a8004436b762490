"""Layered normalized min-sum LDPC decoding of code blocks on the rows
a transmission reached, many blocks per call.

Each kept base-graph row is one layer, and the layers run in row order. A
row reads its edges' variable totals through its ``(degree, Z)`` block of
the lifted variable index and takes away the messages it sent on the last
pass. Each edge then gets the smallest magnitude among the row's other
edges (the second smallest at the one edge holding a unique smallest),
normalised by 0.75, and the sign of the product of the other edges'
signs. The row writes ``v + message`` back before the next row reads it,
so a layer already sees the updates of the rows before it, and the
schedule converges in fewer iterations than flooding (Hocevar, "A reduced
complexity decoder architecture via layered decoding of LDPC codes", SiPS
2004, reports about half). One pass over the kept rows is one iteration.

A block leaves after the first pass that leaves every information
position decided and its segment CRC passing on the hard decisions, or
after ``max_iters`` passes. The segment CRC is the CB CRC24B, or for a
single-segment block, whose K' bits are the TB and its CRC, the TB CRC
(TS 38.212 5.2.2 puts a CRC24B on every CB of a multi-CB TB, so each CB
is judged on its own). The same test after erasure peeling lets a block
leave at 0 iterations. OpenAirInterface's LDPC decoder stops the same
way, on a segment-CRC callback. A block makes at most ``max_iters + 1``
CRC trials, so one that never decodes passes falsely with probability at
most 9 * 2^-24 = 5.4e-7 under CRC24B or CRC24A, and 9 * 2^-16 = 1.4e-4 for
a single-segment TB with CRC16 (TBS <= 3824). The decoder tests no
syndrome: one or two core checks can keep flipping after the CRC passes,
and under an exit on the kept rows' syndrome many CBs of combined rv0 +
rv2 buffers ran all 8 passes for nothing. The receiver needs the CRC
verdict anyway.

The arithmetic is integer, in ``nr.softbuffer``'s LLR format: int16
totals and messages, with a magnitude of ``LLR_SAT`` read as certain. A
row clips ``v = total - message`` to +-LLR_SAT, its one saturation pass.
The normalisation is ``(3 * m) >> 2``, 0.75 rounded down, so a message
is at most 6143 in magnitude. Rounding up (``m - (m >> 2)``) moves the
waterfall: on three seeded transmissions of the 36-CB UL phy-test TB at
sigma 0.625, the float32 decoder passed 92 of 108 CBs, rounding down 90
and rounding up 75. An edge's sign is the top bit of ``v ^
xor.reduce(v)``, which an arithmetic shift by 15 spreads to 0 or -1, and
``out ^ s - s`` negates where it is -1; a zero counts as positive. A
written total is thus within LLR_SAT + 6143, and ``total - message``
within LLR_SAT + 2 * 6143 = 20477: no sum the decoder forms can wrap.

Each extension row r >= 4 of BG1/BG2 owns one degree-1 parity column,
kb + r. When every channel LLR of that column is zero (rate matching never
reached it, or a short circular buffer cut it off), the value the row
reads from it is exactly 0 on every pass, so the row sends 0 to every
other neighbour and changes no other column's total. The decoder
therefore reads the reached rows off the soft buffer itself (the four core
rows always run), and runs message passing and erasure peeling on the
lifted graph restricted to them. Combined HARQ buffers, shortened circular
buffers and untransmitted blocks need no bookkeeping: the buffer's
non-zero columns say it all.

The blocks of one call that share a plan decode as a batch
(``ldpc_decode_batch``; ``ldpc_decode`` is a batch of one). Each block is
first peeled and tested on its own, and a block that passes there takes 0
iterations and joins no chunk. The others are grouped by the rows they
reached and decoded group by group in chunks. A chunk is variable-major:
an ``(n, c)`` int16 array with one column per block, so a row gathers a
``(degree, Z, c)`` block with the blocks innermost, and each ufunc call
of a row serves all c blocks. Its n rows are the codeword head up to the
parity column of the last reached row; an extension row touches only
information and core-parity columns besides its own, so nothing past it
is read. After each pass the exit test's decided test reduces over kb
rows of Z*c values, not over K rows of c, and one ``crc.crc_compute`` call
checks the ``(c, K')`` hard-decision rows of every decided block. The
blocks that pass leave with their results, and the totals and each row's
messages shrink to the other blocks' columns, one array at a time and
C-contiguous again. Every block thus gets the iterations, totals and
result it would get alone, bit for bit. A chunk holds as many blocks as
``_CHUNK_BYTES`` of messages fit: 20 at BG1 Z 384 on the 12 rows an rv0
reaches, 8 when all 46 rows are reached.

An information position whose total is exactly 0 is undecided: an erased
block (or a UE that sent nothing) never exits early and never passes CRC,
though the zero-state CRC accepts its all-zero hard decisions.
``DecodeResult.crc_ok`` is the exit test's verdict on the block's last
pass.
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
from .softbuffer import LLR_DTYPE, LLR_SAT, SoftBuffer

DEFAULT_MAX_ITERS = 8
_MAX_PEEL_PASSES = 16
# a chunk's message budget, which bounds the batch's memory. On the UL
# benchmark (six alternating 10 s runs), 2 MiB, 20 blocks of 40-byte rows
# on rv0's rows, took 41.7 ms per TB against 44.9 at 1.6 MiB, 16 blocks
# of the 32-byte rows ``take`` gathers fastest, at +0.8 MB peak RSS
_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class DecodeResult:
    info_bits: np.ndarray     # K' bits: segment data incl. its CRC field
    crc_ok: bool
    iterations_used: int


def ldpc_decode(buffer: SoftBuffer, plan: SegmentationPlan,
                max_iters: int = DEFAULT_MAX_ITERS) -> DecodeResult:
    """Decode one code block from its soft buffer: a batch of one."""
    return ldpc_decode_batch([buffer], plan, max_iters)[0]


def ldpc_decode_batch(buffers: Sequence[SoftBuffer], plan: SegmentationPlan,
                      max_iters: int = DEFAULT_MAX_ITERS
                      ) -> list[DecodeResult]:
    """Decode code blocks that share ``plan`` from their soft buffers; one
    result per buffer, in order."""
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise InvalidConfigError(
            f"max_iters must be an integer >= 1, not {max_iters!r}")
    results: list[DecodeResult | None] = [None] * len(buffers)
    filling = {}    # kept-row structure -> (chunk totals, positions)
    for pos, buffer in enumerate(buffers):
        channel = _channel(buffer, plan)
        st = _reached_structure(channel, plan)
        _peel_erasures(st, channel)
        if _passes(st, plan, channel[:, None])[0]:
            results[pos] = _result(channel, plan, 0, True)
            continue
        if st not in filling:
            width = min(_chunk_width(st), len(buffers) - pos)
            filling[st] = (np.empty((st.n_used, width), LLR_DTYPE), [])
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
    block_bytes = st.var_index.size * np.dtype(LLR_DTYPE).itemsize
    return max(1, _CHUNK_BYTES // block_bytes)


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
                       dtype=LLR_DTYPE)
    if buffer.llrs.size > channel.size - head:
        raise InvalidConfigError("buffer longer than the circular buffer")
    channel[head:head + buffer.llrs.size] = buffer.llrs
    return channel


def _result(totals: np.ndarray, plan: SegmentationPlan, iterations: int,
            crc_ok: bool) -> DecodeResult:
    """One code block's result from its final totals."""
    info = (totals[: plan.k_prime] < 0).astype(np.uint8)
    return DecodeResult(info_bits=info, crc_ok=crc_ok,
                        iterations_used=iterations)


def _passes(st, plan: SegmentationPlan, totals: np.ndarray) -> np.ndarray:
    """Per column of ``totals``: every information position decided and the
    segment CRC passing on the hard decisions. The segment is the K' bits
    of a block; its CRC is the CB CRC24B, or for a single segment, whose
    K' bits are the TB and its CRC, the TB CRC."""
    # reduce over kb rows of Z*c values, then fold the Z positions
    passes = totals[: st.k].reshape(st.kb, -1).all(axis=0)
    passes = passes.reshape(-1, totals.shape[1]).all(axis=0)
    decided = np.flatnonzero(passes)
    if decided.size:
        kind = CB_CRC if plan.cb_crc_present else plan.tb_crc_kind
        hard = totals[: plan.k_prime] < 0       # bool: binary by type
        if decided.size < passes.size:
            hard = hard.take(decided, axis=1)
        hard = np.ascontiguousarray(hard.T)     # (c, K') rows
        data = plan.k_prime - crc.crc_length(kind)
        passes[decided] = (crc.crc_compute(hard[:, :data], kind)
                           == hard[:, data:]).all(axis=1)
    return passes


def _peel_erasures(st, totals: np.ndarray) -> None:
    """Resolve zero-LLR positions whose checks are otherwise fully certain.

    A parity check with exactly one unknown neighbour and every other
    neighbour at magnitude LLR_SAT determines the unknown bit exactly.
    Runs to a fixpoint; noiseless inputs resolve the punctured head here
    without any min-sum iteration. No-op for noisy (sub-certainty) inputs.
    """
    for _ in range(_MAX_PEEL_PASSES):
        unknown = totals == 0
        certain = np.abs(totals) >= LLR_SAT
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
        totals[flat_idx] = np.where(bit, -LLR_SAT, LLR_SAT)


def _decode_chunk(st, totals: np.ndarray, positions: list[int],
                  plan: SegmentationPlan, max_iters: int,
                  results: list) -> None:
    """Layered min-sum on the C-contiguous chunk ``totals``, one column per
    unsolved code block. A block's result goes to its position in
    ``results`` when it leaves the chunk: after the first pass that it
    passes (``_passes``), or after the last pass."""
    positions = np.asarray(positions)
    sent = [np.zeros(index.shape + positions.shape, dtype=LLR_DTYPE)
            for index in st.row_blocks]
    for it in range(1, max_iters + 1):
        rows = totals.view(np.dtype((np.void, totals.strides[0])))[:, 0]
        for index, messages in zip(st.row_blocks, sent):
            v = totals.take(index, axis=0)
            v -= messages
            np.clip(v, -LLR_SAT, LLR_SAT, out=v)
            _row_messages(v, messages)
            v += messages
            np.put(rows, index, v.view(rows.dtype))
        passes = _passes(st, plan, totals)
        leaving = passes if it < max_iters else np.ones_like(passes)
        for j in np.flatnonzero(leaving):
            results[positions[j]] = _result(totals[:, j], plan, it,
                                            bool(passes[j]))
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
    from its ``(degree, ...)`` variable-to-check values ``v``, each within
    +-LLR_SAT."""
    mag = np.abs(v, out=out)
    m = np.empty((2,) + v.shape[1:], dtype=v.dtype)
    np.minimum.reduce(mag, axis=0, out=m[0])
    at_m1 = mag == m[0]
    # smallest magnitude above m1; it is sent only where m1 is unique, so
    # on a tie every edge gets m1
    above = np.multiply(at_m1, LLR_SAT, dtype=v.dtype)
    np.minimum.reduce(np.maximum(mag, above, out=above), axis=0, out=m[1])
    at_m1 &= np.add.reduce(at_m1, axis=0, dtype=np.uint8) == 1
    m *= 3                      # x 0.75 rounded down; 3 * LLR_SAT < 2^15
    m >>= 2
    np.maximum(m[0], np.multiply(at_m1, m[1], out=out), out=out)
    # edge sign = parity of the other edges' signs: all ones where odd
    sign = v ^ np.bitwise_xor.reduce(v, axis=0)
    sign >>= 15
    out ^= sign
    out -= sign
