"""Per-code-block coding chain and the transport-block pipeline on it.

``encode_cb`` (LDPC encode, then rate match) and ``decode_cb`` (rate
recovery into the soft buffer, then LDPC decode) are the one statement of
the per-block chain: the TB functions here, the software backend and slot
coding all map them over code blocks, so every way of grouping blocks into
calls codes the same bits.

The per-code-block output share follows the scheduled-bit split: each of
the C blocks gets floor or ceil of G / (layers * Qm * C) modulation units,
remainders going to the highest-indexed blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError
from .basegraph import buffer_length
from .encoder import ldpc_encode
from .ratematch import RateMatchParams, rate_match
from .decoder import DecodeResult, ldpc_decode
from .segmentation import SegmentationPlan, assemble_payload, split_payload
from .softbuffer import SoftBuffer, new_soft_buffer, noiseless_llrs, \
    rate_recover_and_combine


def e_splits(num_cbs: int, total_bits: int, qm: int, layers: int
             ) -> list[int]:
    """Per-CB rate-matched lengths summing to ``total_bits``."""
    unit = qm * layers
    if total_bits % unit:
        raise InvalidConfigError("G must be a multiple of Qm * layers")
    g_units = total_bits // unit
    base, rem = divmod(g_units, num_cbs)
    return [unit * (base + (1 if j >= num_cbs - rem else 0))
            for j in range(num_cbs)]


def cb_params(plan: SegmentationPlan, total_bits: int, qm: int, layers: int,
              rv: int = 0) -> list[RateMatchParams]:
    """Rate-match parameters of each code block of one transport block:
    its share of the ``total_bits`` (G) split, the full circular buffer and
    the redundancy version."""
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    return [RateMatchParams(e=e, rv=rv, qm=qm, ncb=ncb)
            for e in e_splits(plan.num_cbs, total_bits, qm, layers)]


def encode_cb(bits: np.ndarray, plan: SegmentationPlan,
              param: RateMatchParams) -> np.ndarray:
    """E transmitted bits of one K-bit code block."""
    codeword = ldpc_encode(bits, plan.base_graph, plan.lifting_size)
    return rate_match(codeword, plan, param)


def decode_cb(llrs: np.ndarray, plan: SegmentationPlan,
              param: RateMatchParams, buffer: SoftBuffer) -> DecodeResult:
    """Combine one code block's E received LLRs into its soft buffer and
    decode the buffer."""
    rate_recover_and_combine(llrs, plan, param, buffer)
    return ldpc_decode(buffer, plan)


@dataclass
class EncodedTb:
    params: list[RateMatchParams]
    streams: list[np.ndarray]     # rate-matched bit streams, one per CB


def encode_tb(payload, plan: SegmentationPlan, total_bits: int, qm: int,
              layers: int, rv: int = 0) -> EncodedTb:
    """Segment, LDPC-encode and rate-match one transport block."""
    params = cb_params(plan, total_bits, qm, layers, rv)
    streams = [encode_cb(bits, plan, p)
               for bits, p in zip(split_payload(payload, plan), params)]
    return EncodedTb(params=params, streams=streams)


@dataclass
class TbDecodeOutcome:
    payload: np.ndarray
    tb_crc_ok: bool
    cb_crc_ok: list[bool]
    iterations: list[int]

    @property
    def all_ok(self) -> bool:
        return self.tb_crc_ok and all(self.cb_crc_ok)


def decode_tb(llr_streams: list[np.ndarray], plan: SegmentationPlan,
              params: list[RateMatchParams],
              buffers: list[SoftBuffer] | None = None) -> TbDecodeOutcome:
    """Rate-recover each stream into its buffer and decode the block."""
    if len(llr_streams) != plan.num_cbs or len(params) != plan.num_cbs:
        raise InvalidConfigError("stream/params count != num_cbs")
    if buffers is None:
        buffers = [new_soft_buffer(plan) for _ in range(plan.num_cbs)]
    results = [decode_cb(llrs, plan, p, buf)
               for llrs, p, buf in zip(llr_streams, params, buffers)]
    payload, tb_ok, cb_ok = assemble_decoded(results, plan)
    return TbDecodeOutcome(payload=payload, tb_crc_ok=tb_ok, cb_crc_ok=cb_ok,
                           iterations=[r.iterations_used for r in results])


def assemble_decoded(results: list[DecodeResult], plan: SegmentationPlan
                     ) -> tuple[np.ndarray, bool, list[bool]]:
    """TB payload and verdicts from its blocks' decoder results.

    A block passes on its decoder verdict, which includes its segment CRC.
    The TB passes only when its TB CRC passes and every block does: an
    erased block decodes to zeros, which the zero-state TB CRC accepts.
    """
    payload, tb_ok = assemble_payload([r.info_bits for r in results], plan)
    blocks = [bool(r.crc_ok) for r in results]
    return payload, bool(tb_ok) and all(blocks), blocks


def loopback_tb(payload, plan: SegmentationPlan, total_bits: int, qm: int,
                layers: int, rv: int = 0) -> TbDecodeOutcome:
    """Noiseless encode -> exact-LLR mapping -> decode round trip."""
    enc = encode_tb(payload, plan, total_bits, qm, layers, rv)
    llrs = [noiseless_llrs(s) for s in enc.streams]
    return decode_tb(llrs, plan, enc.params)
