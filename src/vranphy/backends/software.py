"""Pure-software coding backend running the channel-coding primitives.

Descriptors run one after another in the calling thread, through the same
per-segment code paths for every interface generation, so outputs are
bit-exact. A completion's service time is the wall-clock time of its
descriptor.
"""
from __future__ import annotations

import time

from ..errors import InvalidConfigError
from ..lpu import (Completion, CodingOpDescriptor, QueueAllocator, discover,
                   validate_ops)
from ..nr.encoder import CodeBlock, ldpc_encode
from ..nr.ratematch import rate_match
from ..nr.decoder import ldpc_decode
from ..nr.softbuffer import new_soft_buffer, rate_recover_and_combine


def execute_descriptor(op: CodingOpDescriptor):
    """Run one coding descriptor; returns its outputs dict.

    Payloads carry per-segment work items so the same primitives run for
    every interface generation:
      encode_cbs: items of {plan, bits, param} -> {streams}
      decode_cbs: items of {plan, llrs, param, buffer} ->
                  {info_bits, crc_ok, iterations, buffers}
    """
    p = op.payload
    kind = p.get("op")
    if kind == "encode_cbs":
        streams = []
        for item in p["items"]:
            plan = item["plan"]
            cb = CodeBlock(bits=item["bits"], index=0,
                           lifting_size=plan.lifting_size,
                           base_graph=plan.base_graph,
                           filler_count=plan.filler_per_cb)
            streams.append(rate_match(ldpc_encode(cb), plan, item["param"]))
        return {"streams": streams}
    if kind == "decode_cbs":
        infos, oks, iters, buffers = [], [], [], []
        for item in p["items"]:
            plan = item["plan"]
            buf = item.get("buffer")
            if buf is None:
                buf = new_soft_buffer(plan)
            rate_recover_and_combine(item["llrs"], plan, item["param"], buf)
            res = ldpc_decode(buf, plan, **(
                {"max_iters": item["max_iters"]}
                if "max_iters" in item else {}))
            infos.append(res.info_bits)
            oks.append(res.crc_ok)
            iters.append(res.iterations_used)
            buffers.append(buf)
        return {"info_bits": infos, "crc_ok": oks, "iterations": iters,
                "buffers": buffers}
    raise InvalidConfigError(f"unknown descriptor op {kind!r}")


class SoftwareBackend:
    """Software LPU with one worker: the calling thread."""

    def __init__(self, worker_count: int = 1, device_id: str = "software"):
        if worker_count != 1:
            raise InvalidConfigError("the software backend has one worker")
        self.device_id = device_id
        self.capabilities = discover("software")
        self.allocator = QueueAllocator(device_id,
                                        self.capabilities.num_queues)

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
                op_id=op.op_id, status="ok", outputs=outputs,
                service_time_us=(time.perf_counter() - t0) * 1e6))
        return done
