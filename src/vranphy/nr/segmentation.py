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


def split_payload(payload, plan: SegmentationPlan) -> list[np.ndarray]:
    """Code-block bit arrays (length K each) for a TB payload of A bits.

    Appends the TB CRC, splits into ``num_cbs`` segments (zero-padding the
    tail when the CRC'd block is not divisible, which never happens for
    TBS-aligned sizes), attaches per-CB CRCs and filler. Every payload
    value must be 0 or 1.
    """
    raw = np.asarray(payload)
    if raw.size != plan.payload_bits:
        raise InvalidConfigError(
            f"payload length {raw.size} != plan payload {plan.payload_bits}")
    bits = raw.astype(np.uint8, copy=False)
    # a converted payload must convert exactly (-1 would wrap to 255 and
    # 0.5 truncate to 0); a uint8 payload is used as is
    if bits.max() > 1 or (bits is not raw and not np.array_equal(bits, raw)):
        raise InvalidConfigError("payload bits must be 0 or 1")
    stream = crc.crc_append(bits, plan.tb_crc_kind)
    c = plan.num_cbs
    seg_data = plan.segment_data_bits
    total = seg_data * c
    if total < stream.size:
        raise InvalidConfigError("plan too small for payload")
    if total > stream.size:
        stream = np.concatenate(
            [stream, np.zeros(total - stream.size, dtype=np.uint8)])
    out = []
    for r in range(c):
        seg = stream[r * seg_data:(r + 1) * seg_data]
        if plan.cb_crc_present:
            seg = crc.crc_append(seg, CB_CRC)
        if plan.filler_per_cb:
            seg = np.concatenate(
                [seg, np.full(plan.filler_per_cb, FILLER, dtype=np.uint8)])
        out.append(seg)
    return out


def assemble_payload(cb_infos: list[np.ndarray], plan: SegmentationPlan
                     ) -> tuple[np.ndarray, bool]:
    """Reassemble TB payload from per-CB info bits (K' bits each, CRC kept).

    Each block's CRC field is stripped unchecked (the decoder's verdict
    covers it). Returns (payload bits, tb_crc_ok).
    """
    if len(cb_infos) != plan.num_cbs:
        raise InvalidConfigError("wrong number of code blocks")
    chunks = []
    for seg in cb_infos:
        seg = np.asarray(seg, dtype=np.uint8)
        if seg.size != plan.k_prime:
            raise InvalidConfigError("code block has wrong info length")
        chunks.append(seg[:plan.segment_data_bits])
    stream = np.concatenate(chunks)[: plan.tb_size_bits]
    tb_ok = crc.crc_check(stream, plan.tb_crc_kind)
    return stream[: plan.payload_bits], tb_ok
