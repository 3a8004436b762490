"""Slot-batched coding calls across the three interface generations.

Every generation produces bit-identical coded output because all of them
run the same per-segment primitives; they differ only in how the slot's
segments are grouped into coding-library calls (one call per segment or
8-segment batch, one per transport block, or one for the whole slot) and
therefore in call count and timing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (BackendUnavailableError, HarqBufferMissingError,
                     InvalidConfigError)
from .lpu import (CallShape, CodingOpDescriptor, Granularity, OpKind,
                  QueueHandle, route_interface)
from .nr.basegraph import buffer_length
from .nr.mcs import compute_tbs, mcs_params, resource_elements
from .nr.pipeline import assemble_decoded, e_splits, encode_tb
from .nr.ratematch import RateMatchParams
from .nr.segmentation import segment_tb, split_payload
from .nr.softbuffer import (BufferLocation, SoftBuffer, new_soft_buffer,
                            noiseless_llrs)

MAX_PRBS = 273


class Direction(Enum):
    UL = "ul"
    DL = "dl"


class InterfaceGeneration(Enum):
    PER_CB = "per_cb"
    PER_TB = "per_tb"
    PER_SLOT = "per_slot"


@dataclass
class TransportBlockJob:
    """One UE's transport block within a slot."""

    ue_id: int
    payload: np.ndarray | None
    mcs_index: int
    mcs_table: str
    layers: int
    rv: int = 0
    harq_pid: int = 0
    prb_share: int = 1
    new_data: bool = True
    llr_streams: list[np.ndarray] | None = None   # UL soft input per CB

    def __post_init__(self):
        if self.prb_share < 1:
            raise InvalidConfigError("prb_share must be >= 1")
        if self.payload is not None:
            self.payload = np.asarray(self.payload, dtype=np.uint8)


@dataclass
class SlotCodingRequest:
    slot_id: int
    direction: Direction
    jobs: list[TransportBlockJob]
    interface_generation: InterfaceGeneration = InterfaceGeneration.PER_SLOT
    symbols: int = 12
    overhead: int = 0

    def validate(self) -> None:
        if not self.jobs:
            raise InvalidConfigError("a processed slot needs at least one job")
        if sum(j.prb_share for j in self.jobs) > MAX_PRBS:
            raise InvalidConfigError(
                f"PRB shares exceed the {MAX_PRBS}-PRB grid")
        for job in self.jobs:
            expected = compute_tbs(job.prb_share, self.symbols, job.layers,
                                   job.mcs_index, job.mcs_table,
                                   self.overhead)
            if job.payload is not None and job.payload.size != expected:
                raise InvalidConfigError(
                    f"job ue={job.ue_id}: payload {job.payload.size} != "
                    f"TBS {expected}")


@dataclass
class JobResult:
    ue_id: int
    streams: list[np.ndarray] | None = None      # DL rate-matched bits per CB
    payload: np.ndarray | None = None            # UL decoded payload
    tb_crc_ok: bool | None = None                # None: nothing decoded
    cb_crc_ok: list[bool] = field(default_factory=list)
    num_cbs: int = 0


@dataclass
class SlotCodingResult:
    slot_id: int
    direction: Direction
    generation: InterfaceGeneration
    job_results: list[JobResult]
    per_call_us: list[float]
    total_elapsed_us: float
    calls_made: int

    @property
    def all_crc_ok(self) -> bool:
        """Every TB was decoded and passed; an unknown result is no pass."""
        return all(j.tb_crc_ok is True and all(j.cb_crc_ok)
                   for j in self.job_results)


class HarqPool:
    """Soft buffers keyed by (ue, HARQ process, segment index)."""

    def __init__(self, location: BufferLocation = BufferLocation.HOST):
        self.location = location
        self._buffers: dict[tuple[int, int, int], SoftBuffer] = {}

    def fresh(self, key, plan) -> SoftBuffer:
        buf = new_soft_buffer(plan, location=self.location,
                              harq_pid=key[1])
        self._buffers[key] = buf
        return buf

    def existing(self, key) -> SoftBuffer:
        try:
            return self._buffers[key]
        except KeyError:
            raise HarqBufferMissingError(
                f"no soft buffer for ue={key[0]} pid={key[1]} cb={key[2]}")

    def release(self, ue_id: int, harq_pid: int) -> None:
        for key in [k for k in self._buffers
                    if k[0] == ue_id and k[1] == harq_pid]:
            del self._buffers[key]


@dataclass
class _TbWork:
    """Per-TB precomputed coding state shared by every generation."""
    job: TransportBlockJob
    plan: object
    tbs: int
    items: list[dict]            # per-CB work units
    granularity: Granularity


def _prepare_tb(job: TransportBlockJob, request: SlotCodingRequest,
                caps, direction: Direction,
                harq: HarqPool | None) -> _TbWork:
    qm, rate = mcs_params(job.mcs_index, job.mcs_table)
    tbs = compute_tbs(job.prb_share, request.symbols, job.layers,
                      job.mcs_index, job.mcs_table, request.overhead)
    plan = segment_tb(tbs, rate)
    g_total = resource_elements(job.prb_share, request.symbols,
                                request.overhead) * qm * job.layers
    splits = e_splits(plan.num_cbs, g_total, qm, job.layers)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    params = [RateMatchParams(e=e, rv=job.rv, qm=qm, ncb=ncb)
              for e in splits]
    granularity = route_interface(caps, plan.num_cbs)
    items = []
    if direction is Direction.DL:
        cbs = split_payload(job.payload, plan)
        for bits, rm in zip(cbs, params):
            items.append({"plan": plan, "bits": bits, "param": rm})
    else:
        streams = job.llr_streams
        if streams is None:
            if job.payload is None:
                raise InvalidConfigError(
                    "UL job needs llr_streams or a loopback payload")
            enc = encode_tb(job.payload, plan, g_total, qm, job.layers,
                            job.rv)
            streams = [noiseless_llrs(s) for s in enc.streams]
        if len(streams) != plan.num_cbs:
            raise InvalidConfigError("llr stream count != segment count")
        for idx, (llrs, rm) in enumerate(zip(streams, params)):
            key = (job.ue_id, job.harq_pid, idx)
            if not job.new_data:
                if harq is None:
                    raise HarqBufferMissingError(
                        f"ue={job.ue_id}: combining needs a HARQ pool")
                buf = harq.existing(key)
            elif harq is not None:
                buf = harq.fresh(key, plan)
            else:
                buf = new_soft_buffer(plan)
            items.append({"plan": plan, "llrs": llrs, "param": rm,
                          "buffer": buf})
    return _TbWork(job=job, plan=plan, tbs=tbs, items=items,
                   granularity=granularity)


def _group_calls(works: list[_TbWork], generation: InterfaceGeneration,
                 direction: Direction
                 ) -> list[tuple[list[tuple[int, dict]], CallShape]]:
    """Each call's (tb_index, item) batch and timing shape."""
    # imported on first use: loading the backends (and scipy) while
    # highphy loads made a cold import of the program 40-60 ms slower on a
    # 2-vCPU VM
    from .backends.model import call_shapes
    items = [iter(w.items) for w in works]
    calls = call_shapes(generation.value, direction_name(direction),
                        [(w.tbs, w.plan.num_cbs) for w in works])
    return [([(t, next(items[t])) for t in tbs], shape)
            for tbs, shape in calls]


def _run_calls(device, direction: Direction, works: list[_TbWork],
               calls: list[tuple[list[tuple[int, dict]], CallShape]]
               ) -> tuple[list[list[dict | None]], list[float]]:
    """Execute call batches; returns per-TB outputs and per-call times."""
    kind = OpKind.ENCODE if direction is Direction.DL else OpKind.DECODE
    op_name = "encode_cbs" if direction is Direction.DL else "decode_cbs"
    ops = []
    for op_id, (batch, shape) in enumerate(calls):
        gran = Granularity.TB if all(
            works[t].granularity is Granularity.TB for t, _ in batch) \
            else Granularity.CB
        ops.append(CodingOpDescriptor(
            kind=kind, granularity=gran, op_id=op_id, shape=shape,
            payload={"op": op_name, "items": [item for _, item in batch]}))
    completions = device.process(ops)
    outputs_per_tb: list[list] = [[] for _ in works]
    for (batch, _), done in zip(calls, completions):
        for pos, (t, _) in enumerate(batch):
            outputs_per_tb[t].append(
                None if done.outputs is None
                else _slice_output(done.outputs, pos))
    return outputs_per_tb, [c.service_time_us for c in completions]


def _slice_output(outs: dict, pos: int) -> dict:
    return {k: v[pos] for k, v in outs.items()}


def direction_name(direction: Direction) -> str:
    return "encode" if direction is Direction.DL else "decode"


def encode_slot(request: SlotCodingRequest, executor: QueueHandle
                ) -> SlotCodingResult:
    """Encode all transport blocks of one downlink slot."""
    if request.direction is not Direction.DL:
        raise InvalidConfigError("encode_slot processes DL slots")
    return _process_slot(request, executor, None)


def decode_slot(request: SlotCodingRequest, executor: QueueHandle,
                harq: HarqPool | None = None) -> SlotCodingResult:
    """Decode all transport blocks of one uplink slot."""
    if request.direction is not Direction.UL:
        raise InvalidConfigError("decode_slot processes UL slots")
    return _process_slot(request, executor, harq)


def _process_slot(request: SlotCodingRequest, executor: QueueHandle,
                  harq: HarqPool | None) -> SlotCodingResult:
    """Code one slot. Results of a device that runs no payload carry no
    streams, payloads or CRC flags."""
    request.validate()
    device = executor.device
    if device is None:
        raise BackendUnavailableError("executor handle has no device")
    works = [_prepare_tb(job, request, device.capabilities,
                         request.direction, harq)
             for job in request.jobs]
    calls = _group_calls(works, request.interface_generation,
                         request.direction)
    outputs_per_tb, per_call_us = _run_calls(device, request.direction,
                                             works, calls)
    results = []
    for w, outs in zip(works, outputs_per_tb):
        jr = JobResult(ue_id=w.job.ue_id, num_cbs=w.plan.num_cbs)
        if outs[0] is not None:
            if request.direction is Direction.DL:
                jr.streams = [o["streams"] for o in outs]
            else:
                jr.payload, jr.tb_crc_ok, jr.cb_crc_ok = assemble_decoded(
                    [o["info_bits"] for o in outs],
                    [o["crc_ok"] for o in outs], w.plan)
        results.append(jr)
    return SlotCodingResult(
        slot_id=request.slot_id, direction=request.direction,
        generation=request.interface_generation, job_results=results,
        per_call_us=per_call_us, total_elapsed_us=float(sum(per_call_us)),
        calls_made=len(calls))


def run_interface_bench(executor: QueueHandle,
                        directions=("decode", "encode"),
                        generations=tuple(InterfaceGeneration),
                        tb_counts=range(1, 9),
                        bench_config=None) -> list[dict]:
    """Slot coding time per (direction, generation, TB count).

    The benchmark slot is a full grid equally shared between the TBs. Its
    calls run one after another through the emulated device's timing
    model, so each row is one deterministic virtual-time sample.
    """
    from .backends.emulated import EmulatedDevice
    from .backends.model import BenchConfig, call_shapes

    device = executor.device
    if not isinstance(device, EmulatedDevice):
        raise InvalidConfigError(
            "the interface bench runs on an emulated device")
    cfg = bench_config or BenchConfig()
    gens = [InterfaceGeneration(g) for g in generations]
    rows = []
    for direction in directions:
        for gen in gens:
            for n_tb in tb_counts:
                calls = call_shapes(gen.value, direction, cfg.tb_shapes(n_tb))
                done = device.process([
                    CodingOpDescriptor(kind=OpKind(direction),
                                       granularity=Granularity.CB,
                                       op_id=op_id, shape=shape)
                    for op_id, (_, shape) in enumerate(calls)])
                rows.append({
                    "direction": direction,
                    "generation": gen.value,
                    "n_tb": int(n_tb),
                    "mean_us": sum(c.service_time_us for c in done),
                    "calls_made": len(done),
                })
    return rows
