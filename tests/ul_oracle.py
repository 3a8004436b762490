"""The UL golden oracle: one transport block decoded through the code-block
chain (``pipeline.decode_cb``) with no HARQ process or slot around it.
``test_golden``'s UL digests were recorded through it, and the slot and
decoder tests compare ``decode_slot`` with it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vranphy.errors import InvalidConfigError
from vranphy.nr.pipeline import assemble_decoded, decode_cb
from vranphy.nr.ratematch import RateMatchParams
from vranphy.nr.segmentation import SegmentationPlan
from vranphy.nr.softbuffer import SoftBuffer, new_soft_buffer


@dataclass
class TbDecodeOutcome:
    payload: np.ndarray
    tb_crc_ok: bool
    cb_crc_ok: list[bool]
    iterations: list[int]


def decode_tb(llr_streams: list[np.ndarray], plan: SegmentationPlan,
              params: list[RateMatchParams],
              buffers: list[SoftBuffer] | None = None) -> TbDecodeOutcome:
    """Rate-recover each stream into its buffer and decode the block."""
    if len(llr_streams) != plan.num_cbs or len(params) != plan.num_cbs:
        raise InvalidConfigError("stream/params count != num_cbs")
    if buffers is None:
        buffers = [new_soft_buffer(plan) for _ in range(plan.num_cbs)]
    results = decode_cb(llr_streams, plan, params, buffers)
    payload, tb_ok, cb_ok = assemble_decoded(results, plan)
    return TbDecodeOutcome(payload=payload, tb_crc_ok=tb_ok, cb_crc_ok=cb_ok,
                           iterations=[r.iterations_used for r in results])
