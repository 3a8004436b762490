"""Transport-block level coding: segment, encode, rate-match, and back.

The per-code-block output share follows the scheduled-bit split: each of
the C blocks gets floor or ceil of G / (layers * Qm * C) modulation units,
remainders going to the highest-indexed blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError
from .basegraph import buffer_length
from .encoder import CodeBlock, ldpc_encode
from .ratematch import RateMatchParams, rate_match
from .decoder import DecodeResult, ldpc_decode
from .segmentation import SegmentationPlan, assemble_payload, segment_tb, \
    split_payload
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


@dataclass
class EncodedTb:
    plan: SegmentationPlan
    params: list[RateMatchParams]
    streams: list[np.ndarray]     # rate-matched bit streams, one per CB

    @property
    def total_bits(self) -> int:
        return int(sum(p.e for p in self.params))


def encode_tb(payload, plan: SegmentationPlan, total_bits: int, qm: int,
              layers: int, rv: int = 0) -> EncodedTb:
    """Segment, LDPC-encode and rate-match one transport block."""
    splits = e_splits(plan.num_cbs, total_bits, qm, layers)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    cbs = split_payload(payload, plan)
    params, streams = [], []
    for idx, (bits, e) in enumerate(zip(cbs, splits)):
        cb = CodeBlock(bits=bits, index=idx, lifting_size=plan.lifting_size,
                       base_graph=plan.base_graph,
                       filler_count=plan.filler_per_cb)
        cw = ldpc_encode(cb)
        p = RateMatchParams(e=e, rv=rv, qm=qm, ncb=ncb)
        streams.append(rate_match(cw, plan, p))
        params.append(p)
    return EncodedTb(plan=plan, params=params, streams=streams)


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
              buffers: list[SoftBuffer] | None = None,
              max_iters: int | None = None) -> TbDecodeOutcome:
    """Rate-recover each stream into its buffer and decode the block."""
    if len(llr_streams) != plan.num_cbs or len(params) != plan.num_cbs:
        raise InvalidConfigError("stream/params count != num_cbs")
    if buffers is None:
        buffers = [new_soft_buffer(plan) for _ in range(plan.num_cbs)]
    kwargs = {} if max_iters is None else {"max_iters": max_iters}
    infos, cb_ok, iters = [], [], []
    for llrs, p, buf in zip(llr_streams, params, buffers):
        rate_recover_and_combine(llrs, plan, p, buf)
        res = ldpc_decode(buf, plan, **kwargs)
        infos.append(res.info_bits)
        cb_ok.append(res.crc_ok)
        iters.append(res.iterations_used)
    payload, tb_ok, cb_ok = assemble_decoded(infos, cb_ok, plan)
    return TbDecodeOutcome(payload=payload, tb_crc_ok=tb_ok,
                           cb_crc_ok=cb_ok, iterations=iters)


def assemble_decoded(infos: list[np.ndarray], cb_ok: list[bool],
                     plan: SegmentationPlan
                     ) -> tuple[np.ndarray, bool, list[bool]]:
    """TB payload and verdicts from its blocks' decoder outputs.

    A block passes when its decoder verdict and its segment CRC pass. The
    TB passes only when its TB CRC passes and every block does: an erased
    block decodes to zeros, which the zero-state TB CRC accepts.
    """
    payload, tb_ok, seg_ok = assemble_payload(infos, plan)
    blocks = [bool(a and b) for a, b in zip(cb_ok, seg_ok)]
    return payload, bool(tb_ok) and all(blocks), blocks


def loopback_tb(payload, plan: SegmentationPlan, total_bits: int, qm: int,
                layers: int, rv: int = 0,
                max_iters: int | None = None) -> TbDecodeOutcome:
    """Noiseless encode -> exact-LLR mapping -> decode round trip."""
    enc = encode_tb(payload, plan, total_bits, qm, layers, rv)
    llrs = [noiseless_llrs(s) for s in enc.streams]
    return decode_tb(llrs, plan, enc.params, max_iters=max_iters)
