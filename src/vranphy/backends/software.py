"""Pure-software coding backend running the channel-coding primitives.

Descriptors run one after another in the calling thread, through the same
code-block chain for every interface generation, so outputs are
bit-exact. A completion's service time is the wall-clock time of its
descriptor.
"""
from __future__ import annotations

import time
from itertools import groupby

from ..errors import InvalidConfigError
from ..lpu import (Completion, CodingOpDescriptor, OpKind, QueueAllocator,
                   discover, validate_ops)
from ..nr.pipeline import decode_cb, encode_cb


def execute_descriptor(op: CodingOpDescriptor) -> list:
    """Run one coding descriptor: one result per payload item, in order.

    The payload is a list of per-code-block items:
      encode: (bits, plan, param) -> rate-matched stream
      decode: (llrs, plan, param, buffer) -> DecodeResult
    Each run of items that share a plan is coded as one batch.
    """
    code = decode_cb if op.kind is OpKind.DECODE else encode_cb
    outputs = []
    for plan, run in groupby(op.payload, key=lambda item: item[1]):
        data, _, *rest = zip(*run)
        outputs.extend(code(data, plan, *rest))
    return outputs


class SoftwareBackend:
    """Software LPU with one worker: the calling thread."""

    device_id = "software"

    def __init__(self, worker_count: int = 1):
        if worker_count != 1:
            raise InvalidConfigError("the software backend has one worker")
        self.capabilities = discover("software")
        self.allocator = QueueAllocator(self.device_id, 64)

    def close(self):
        """Nothing to release: the backend holds no worker or handle."""

    def process(self, ops: list[CodingOpDescriptor]) -> list[Completion]:
        """Execute a batch; one completion per op, submission order."""
        validate_ops(self.capabilities, ops)
        done = []
        for op in ops:
            t0 = time.perf_counter()
            outputs = execute_descriptor(op)
            done.append(Completion(
                outputs=outputs,
                service_time_us=(time.perf_counter() - t0) * 1e6))
        return done
