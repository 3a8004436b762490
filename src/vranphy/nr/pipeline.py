"""Code-block coding chain and the transport-block pipeline on it.

``encode_cb`` (LDPC encode, then rate match) and ``decode_cb`` (rate
recovery into the soft buffers, then LDPC decode) are the one statement of
the chain: ``encode_tb``, the software backend and slot coding all run
code blocks through them, so every way of grouping blocks into calls
codes the same bits. Both take a batch of blocks that share a
segmentation plan, a single block being a batch of one. ``encode_cb``
encodes only the codeword columns the batch's rate matching reads;
``decode_cb`` decodes the batch in ``ldpc_decode_batch``'s chunks.

The per-code-block output share follows the scheduled-bit split: each of
the C blocks gets floor or ceil of G / (layers * Qm * C) modulation units,
remainders going to the highest-indexed blocks.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from ..errors import InvalidConfigError
from .basegraph import PUNCTURED_BLOCKS, buffer_length
from .crc import crc_check
from .encoder import ldpc_encode
from .ratematch import RateMatchParams, rate_match, selection_positions
from .decoder import DecodeResult, ldpc_decode_batch
from .mcs import compute_tbs, mcs_params, resource_elements
from .segmentation import (SegmentationPlan, assemble_payload, segment_tb,
                           split_payload)
from .softbuffer import SoftBuffer, rate_recover_and_combine


def tb_geometry(prbs: int, symbols: int, layers: int, mcs_index: int,
                mcs_table: str = "T1", overhead: int = 0
                ) -> tuple[SegmentationPlan, int, int]:
    """(plan, G, Qm) of one transport block: its segmentation plan, whose
    ``payload_bits`` is the TBS, its scheduled bits and modulation order."""
    qm, rate = mcs_params(mcs_index, mcs_table)
    tbs = compute_tbs(prbs, symbols, layers, mcs_index, mcs_table, overhead)
    g = resource_elements(prbs, symbols, overhead) * qm * layers
    return segment_tb(tbs, rate), g, qm


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
    the redundancy version. The blocks take at most two distinct E
    values, so each distinct parameter set is built once and shared."""
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    splits = e_splits(plan.num_cbs, total_bits, qm, layers)
    shared = {e: RateMatchParams(e=e, rv=rv, qm=qm, ncb=ncb)
              for e in set(splits)}
    return [shared[e] for e in splits]


@lru_cache(maxsize=32)
def _read_columns(plan: SegmentationPlan,
                  params: tuple[RateMatchParams, ...]) -> tuple[int, ...]:
    """The codeword column blocks rate matching reads under any of
    ``params``, as a tuple: immutable, and a small Python object, so it
    pins none of the heap memory a slot's arrays use."""
    read = np.unique(np.concatenate([
        selection_positions(plan, p) // plan.lifting_size for p in params]))
    return tuple((read + PUNCTURED_BLOCKS).tolist())


def encode_cb(bits, plan: SegmentationPlan,
              params: Sequence[RateMatchParams]) -> list[np.ndarray]:
    """E transmitted bits of each of n K-bit code blocks that share
    ``plan``: ``bits`` is (n, K) (or n rows) and ``params`` holds each
    block's rate-match parameters."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[0] != len(params):
        raise InvalidConfigError(
            f"code blocks {bits.shape} do not match {len(params)} params")
    # runs of equal parameters, at most two per TB (``cb_params``): the
    # read set is keyed by their values, not by every block's parameters
    runs = [(param, len(list(run))) for param, run in groupby(params)]
    codewords = ldpc_encode(bits, plan.base_graph, plan.lifting_size,
                            _read_columns(plan, tuple(p for p, _ in runs)))
    streams: list[np.ndarray] = []
    for param, count in runs:
        first = len(streams)
        streams.extend(rate_match(codewords[first:first + count], plan, param))
    return streams


def decode_cb(llrs, plan: SegmentationPlan,
              params: Sequence[RateMatchParams],
              buffers: Sequence[SoftBuffer]) -> list[DecodeResult]:
    """Combine each of n code blocks' E received LLRs into its soft buffer,
    then decode the n buffers, which share ``plan``, as one batch."""
    if not len(llrs) == len(params) == len(buffers):
        raise InvalidConfigError(
            f"{len(llrs)} streams, {len(params)} params and "
            f"{len(buffers)} buffers do not match")
    for rx, param, buffer in zip(llrs, params, buffers):
        rate_recover_and_combine(rx, plan, param, buffer)
    return ldpc_decode_batch(buffers, plan)


@dataclass
class EncodedTb:
    params: list[RateMatchParams]
    streams: list[np.ndarray]     # rate-matched bit streams, one per CB


def encode_tb(payload, plan: SegmentationPlan, total_bits: int, qm: int,
              layers: int, rv: int = 0) -> EncodedTb:
    """Segment, LDPC-encode and rate-match one transport block."""
    params = cb_params(plan, total_bits, qm, layers, rv)
    streams = encode_cb(split_payload(payload, plan), plan, params)
    return EncodedTb(params=params, streams=streams)


def assemble_decoded(results: list[DecodeResult], plan: SegmentationPlan
                     ) -> tuple[np.ndarray, bool, list[bool]]:
    """TB payload and verdicts from its blocks' decoder results.

    A block passes on its decoder verdict, which includes its segment CRC.
    The TB passes only when its TB CRC passes and every block does: an
    erased block decodes to zeros, which the zero-state TB CRC accepts.
    A single block's segment CRC is the TB CRC, so it is checked once.
    """
    tb = assemble_payload([r.info_bits for r in results], plan)
    blocks = [bool(r.crc_ok) for r in results]
    tb_ok = all(blocks) and (not plan.cb_crc_present
                             or crc_check(tb, plan.tb_crc_kind))
    return tb[: plan.payload_bits], tb_ok, blocks

