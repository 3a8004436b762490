"""Transport-block segmentation into LDPC code blocks.

A transport block of ``A`` payload bits gets a TB-level CRC (24A above 3824
bits, 16 otherwise), is split into ``C`` segments bounded by the selected
base graph's maximum, receives a per-segment CRC24B when ``C > 1``, and is
padded with filler bits up to the lifted information length ``K``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from ..errors import InvalidConfigError
from . import crc
from .basegraph import KB_BG1, KB_BG2, MAX_Z, lifting_sizes

MAX_CB_BG1 = 8448
MAX_CB_BG2 = 3840
CB_CRC = "CRC24B"
FILLER = 0


@dataclass(frozen=True)
class SegmentationPlan:
    """How one transport block maps onto LDPC code blocks."""

    tb_size_bits: int        # B: payload plus TB CRC
    num_cbs: int
    base_graph: int          # 1 or 2
    lifting_size: int
    k_prime: int             # info bits per CB before filler (with CB CRC)
    filler_per_cb: int
    cb_crc_present: bool

    @property
    def tb_crc_kind(self) -> str:
        # B <= 3840 can only come from A <= 3824 (CRC16); larger B from 24A
        return "CRC16" if self.tb_size_bits <= MAX_CB_BG2 else "CRC24A"

    @property
    def payload_bits(self) -> int:
        return self.tb_size_bits - crc.crc_length(self.tb_crc_kind)

    @property
    def segment_data_bits(self) -> int:
        """TB bits each code block carries: K' minus its CB CRC field."""
        return self.k_prime - (crc.crc_length(CB_CRC)
                               if self.cb_crc_present else 0)

    @property
    def k(self) -> int:
        """Info length K of one code block including filler."""
        kb_sys = KB_BG1 if self.base_graph == 1 else KB_BG2
        return kb_sys * self.lifting_size


def select_base_graph(tb_size_bits: int, code_rate: Fraction | float) -> int:
    """Base-graph choice from payload size A and target rate."""
    a = tb_size_bits
    r = Fraction(code_rate).limit_denominator(1 << 20) \
        if not isinstance(code_rate, Fraction) else code_rate
    if a <= 292 or (a <= 3824 and r <= Fraction(67, 100)) or r <= Fraction(1, 4):
        return 2
    return 1


def _kb_for(base_graph: int, b: int) -> int:
    if base_graph == 1:
        return KB_BG1
    if b <= 192:
        return 6
    if b <= 560:
        return 8
    if b <= 640:
        return 9
    return KB_BG2


def segment_tb(tb_size_bits: int, target_code_rate) -> SegmentationPlan:
    """Segmentation plan for an ``A``-bit payload at the given code rate."""
    if tb_size_bits < 1:
        raise InvalidConfigError("tb_size_bits must be >= 1")
    a = int(tb_size_bits)
    bg = select_base_graph(a, target_code_rate)
    tb_crc = "CRC24A" if a > 3824 else "CRC16"
    b = a + crc.crc_length(tb_crc)
    max_cb = MAX_CB_BG1 if bg == 1 else MAX_CB_BG2
    if b <= max_cb:
        c = 1
        b_prime = b
        cb_crc_present = False
    else:
        c = ceil(b / (max_cb - 24))
        b_prime = b + c * 24
        cb_crc_present = True
    k_prime = ceil(b_prime / c)
    kb = _kb_for(bg, b)
    z = _min_lifting(kb, k_prime)
    kb_sys = KB_BG1 if bg == 1 else KB_BG2
    k = kb_sys * z
    return SegmentationPlan(
        tb_size_bits=b,
        num_cbs=c,
        base_graph=bg,
        lifting_size=z,
        k_prime=k_prime,
        filler_per_cb=k - k_prime,
        cb_crc_present=cb_crc_present,
    )


def _min_lifting(kb: int, k_prime: int) -> int:
    for z in lifting_sizes():
        if kb * z >= k_prime:
            return z
    raise InvalidConfigError(
        f"no lifting size covers k'={k_prime} (kb={kb}, max Z={MAX_Z})")


def split_payload(payload, plan: SegmentationPlan) -> np.ndarray:
    """The (C, K) code blocks of a TB payload of A bits, one per row.

    The payload and then its TB CRC fill the segments, the first K' - 24
    bits of each row (K' for a single block), in order, and zeros pad the
    last segment when the CRC'd block is not divisible (which never
    happens for TBS-aligned sizes). Per-CB CRCs (one CRC call over all
    segments) and filler follow. The payload is written once, straight
    into its rows. Every payload value must be 0 or 1: the TB CRC call
    checks it, and the segments go to the CB CRC call as a bool view,
    binary by its type, so no bit is checked twice.
    """
    raw = np.asarray(payload).reshape(-1)
    if raw.size != plan.payload_bits:
        raise InvalidConfigError(
            f"payload length {raw.size} != plan payload {plan.payload_bits}")
    c = plan.num_cbs
    seg_data = plan.segment_data_bits
    if seg_data * c < plan.tb_size_bits:
        raise InvalidConfigError("plan too small for payload")
    tb_crc = crc.crc_compute(raw, plan.tb_crc_kind)
    out = np.empty((c, plan.k), dtype=np.uint8)
    # rows of payload only, then the last one or two, which hold its end,
    # the TB CRC and any padding
    full = raw.size // seg_data
    head = full * seg_data
    out[:full, :seg_data] = raw[:head].reshape(full, seg_data)
    tail = np.zeros((c - full) * seg_data, dtype=np.uint8)
    tail[: raw.size - head] = raw[head:]
    tail[raw.size - head:plan.tb_size_bits - head] = tb_crc
    out[full:, :seg_data] = tail.reshape(c - full, seg_data)
    out[:, plan.k_prime:] = FILLER
    if plan.cb_crc_present:
        out[:, seg_data:plan.k_prime] = crc.crc_compute(
            out[:, :seg_data].view(np.bool_), CB_CRC)
    return out


def assemble_payload(cb_infos: list[np.ndarray], plan: SegmentationPlan
                     ) -> np.ndarray:
    """Reassemble the TB's B bits (payload, then its TB CRC) from per-CB
    info bits (K' bits each, CRC kept).

    Nothing is checked here: each block's CRC field is stripped (the
    decoder's verdict covers it), and ``nr.pipeline.assemble_decoded``
    takes the TB CRC verdict.
    """
    if len(cb_infos) != plan.num_cbs:
        raise InvalidConfigError("wrong number of code blocks")
    chunks = []
    for seg in cb_infos:
        seg = np.asarray(seg, dtype=np.uint8)
        if seg.size != plan.k_prime:
            raise InvalidConfigError("code block has wrong info length")
        chunks.append(seg[:plan.segment_data_bits])
    return np.concatenate(chunks)[: plan.tb_size_bits]
