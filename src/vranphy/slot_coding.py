"""Slot-batched coding calls across the three interface generations.

Every generation produces bit-identical coded output because all of them
run the same per-segment primitives; they differ only in how the slot's
segments are grouped into coding-library calls (one call per segment or
8-segment batch, one per transport block, or one for the whole slot) and
therefore in call count and timing. A decode call codes only the code
blocks that have not yet passed in their HARQ process (see ``HarqPool``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .backends.emulated import EmulatedDevice
from .backends.model import BenchConfig, call_shapes
from .errors import (BackendUnavailableError, HarqBufferMissingError,
                     InvalidConfigError)
from .lpu import (BufferLocation, CallShape, CodingOpDescriptor, Granularity,
                  OpKind, QueueHandle, route_interface,
                  validate_harq_placement)
from .nr.decoder import DecodeResult
from .nr.mcs import MAX_PRBS
from .nr.pipeline import assemble_decoded, cb_params, encode_cb, tb_geometry
from .nr.segmentation import SegmentationPlan, split_payload
from .nr.softbuffer import (SoftBuffer, new_soft_buffer, noiseless_llrs,
                            received_llrs)


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
            self.payload = np.asarray(self.payload)


@dataclass
class SlotCodingRequest:
    jobs: list[TransportBlockJob]
    interface_generation: InterfaceGeneration = InterfaceGeneration.PER_SLOT
    symbols: int = 12
    overhead: int = 0

    def validate(self) -> None:
        """Checks on the slot as a whole; each job's own checks run as its
        coding state is prepared (``_prepare_tb``)."""
        if not self.jobs:
            raise InvalidConfigError("a processed slot needs at least one job")
        if sum(j.prb_share for j in self.jobs) > MAX_PRBS:
            raise InvalidConfigError(
                f"PRB shares exceed the {MAX_PRBS}-PRB grid")


@dataclass
class JobResult:
    ue_id: int
    streams: list[np.ndarray] | None = None      # DL rate-matched bits per CB
    payload: np.ndarray | None = None            # UL decoded payload
    tb_crc_ok: bool | None = None                # None on DL: no decode
    cb_crc_ok: list[bool] = field(default_factory=list)
    num_cbs: int = 0


@dataclass
class SlotCodingResult:
    generation: InterfaceGeneration
    job_results: list[JobResult]
    total_elapsed_us: float
    calls_made: int

    @property
    def all_crc_ok(self) -> bool:
        """Every TB was decoded and passed; an encode decodes nothing, so
        it is no pass."""
        return all(j.tb_crc_ok is True and all(j.cb_crc_ok)
                   for j in self.job_results)


@dataclass
class HarqProcess:
    """One HARQ process: the soft buffer of each CB of its TB, and the
    decoder result of each CB kept as passed (see ``HarqPool``)."""
    plan: SegmentationPlan
    buffers: list[SoftBuffer]
    passed: dict[int, DecodeResult] = field(default_factory=dict)

    @classmethod
    def fresh(cls, plan: SegmentationPlan) -> HarqProcess:
        return cls(plan, [new_soft_buffer(plan)
                          for _ in range(plan.num_cbs)])

    def assemble(self, decoded: list[DecodeResult]
                 ) -> tuple[np.ndarray, bool, list[bool]]:
        """TB payload and verdicts from the kept results and the results
        of the CBs just decoded, in CB order; then keep the new passes."""
        new = iter(decoded)
        results = [self.passed[i] if i in self.passed else next(new)
                   for i in range(self.plan.num_cbs)]
        payload, tb_ok, cb_ok = assemble_decoded(results, self.plan)
        undetected = all(cb_ok) and not tb_ok
        self.passed = {} if undetected else {
            i: r for i, (r, ok) in enumerate(zip(results, cb_ok)) if ok}
        return payload, tb_ok, cb_ok


class HarqPool:
    """The HARQ processes of a receiver, one per (ue, HARQ process).

    A code block (CB) that passed its CRC is kept and never decoded again:
    a retransmission combines and decodes only the CBs of its process with
    no kept result, leaves a kept CB's buffer as it was, and assembles the
    TB from the kept results and the new ones in CB order. When every CB
    passed but the TB CRC failed (an undetected CB error), the process
    drops its kept results, so the next retransmission decodes every CB
    from its buffer again. New data replaces the process, so nothing kept
    reaches another TB, and ``release`` deletes it.
    """

    def __init__(self, location: BufferLocation = BufferLocation.HOST):
        self.location = location
        self._processes: dict[tuple[int, int], HarqProcess] = {}

    def start(self, ue_id: int, harq_pid: int,
              plan: SegmentationPlan) -> HarqProcess:
        """A fresh process for new data."""
        process = HarqProcess.fresh(plan)
        self._processes[ue_id, harq_pid] = process
        return process

    def resume(self, ue_id: int, harq_pid: int,
               plan: SegmentationPlan) -> HarqProcess:
        """The process a retransmission of ``plan``'s TB combines into."""
        try:
            process = self._processes[ue_id, harq_pid]
        except KeyError:
            raise HarqBufferMissingError(
                f"no HARQ process for ue={ue_id} pid={harq_pid}") from None
        if process.plan != plan:
            raise InvalidConfigError(
                f"ue={ue_id} pid={harq_pid}: a retransmission must keep "
                "its TB's segmentation")
        return process

    def release(self, ue_id: int, harq_pid: int) -> None:
        self._processes.pop((ue_id, harq_pid), None)


@dataclass
class _TbWork:
    """Per-TB precomputed coding state shared by every generation."""
    job: TransportBlockJob
    plan: SegmentationPlan
    items: list[tuple]           # execute_descriptor items of the CBs to code
    granularity: Granularity
    process: HarqProcess | None = None    # decode only


def _prepare_tb(job: TransportBlockJob, request: SlotCodingRequest,
                caps, kind: OpKind, harq: HarqPool | None) -> _TbWork:
    """A job's coding state with every input checked: its payload, and on
    a decode its stream count, its LLRs and the HARQ process a
    retransmission resumes. No HARQ state changes here: a decode's items
    are (llrs, plan, params) until ``_start_decode`` gives them buffers."""
    plan, g_total, qm = tb_geometry(job.prb_share, request.symbols,
                                    job.layers, job.mcs_index, job.mcs_table,
                                    request.overhead)
    if job.payload is not None and job.payload.size != plan.payload_bits:
        raise InvalidConfigError(
            f"job ue={job.ue_id}: payload {job.payload.size} != "
            f"TBS {plan.payload_bits}")
    params = cb_params(plan, g_total, qm, job.layers, job.rv)
    granularity = route_interface(caps, plan.num_cbs)
    if kind is OpKind.ENCODE:
        items = [(bits, plan, rm)
                 for bits, rm in zip(split_payload(job.payload, plan), params)]
        return _TbWork(job=job, plan=plan, items=items,
                       granularity=granularity)
    streams = job.llr_streams
    if streams is None:
        if job.payload is None:
            raise InvalidConfigError(
                "UL job needs llr_streams or a loopback payload")
        streams = [noiseless_llrs(s) for s in encode_cb(
            split_payload(job.payload, plan), plan, params)]
    if len(streams) != plan.num_cbs:
        raise InvalidConfigError("llr stream count != segment count")
    items = [(received_llrs(llrs, rm), plan, rm)
             for llrs, rm in zip(streams, params)]
    process = None
    if not job.new_data:
        if harq is None:
            raise HarqBufferMissingError(
                f"ue={job.ue_id}: combining needs a HARQ pool")
        process = harq.resume(job.ue_id, job.harq_pid, plan)
    return _TbWork(job=job, plan=plan, items=items, granularity=granularity,
                   process=process)


def _start_decode(work: _TbWork, harq: HarqPool | None) -> None:
    """Start new data's HARQ process, then keep the items of the CBs the
    process has no passed result for, each with its soft buffer."""
    job = work.job
    if job.new_data:
        work.process = HarqProcess.fresh(work.plan) if harq is None \
            else harq.start(job.ue_id, job.harq_pid, work.plan)
    passed, buffers = work.process.passed, work.process.buffers
    work.items = [(*item, buffers[idx]) for idx, item in enumerate(work.items)
                  if idx not in passed]


def _group_calls(works: list[_TbWork], generation: InterfaceGeneration,
                 kind: OpKind
                 ) -> list[tuple[list[tuple[int, tuple]], CallShape]]:
    """Each call's (tb_index, item) batch and timing shape."""
    items = [iter(w.items) for w in works]
    calls = call_shapes(generation.value, kind.value, [
        (w.plan.payload_bits * len(w.items) / w.plan.num_cbs, len(w.items))
        for w in works])
    return [([(t, next(items[t])) for t in tbs], shape)
            for tbs, shape in calls]


def _run_calls(device, kind: OpKind, works: list[_TbWork],
               calls: list[tuple[list[tuple[int, tuple]], CallShape]],
               location: BufferLocation | None) -> tuple[list[list], float]:
    """Execute call batches; returns per-TB outputs (one per CB) and the
    calls' summed time."""
    ops = []
    for batch, shape in calls:
        gran = Granularity.TB if all(
            works[t].granularity is Granularity.TB for t, _ in batch) \
            else Granularity.CB
        ops.append(CodingOpDescriptor(
            kind=kind, granularity=gran, shape=shape,
            payload=[item for _, item in batch], harq_location=location))
    completions = device.process(ops)
    outputs_per_tb: list[list] = [[] for _ in works]
    for (batch, _), done in zip(calls, completions):
        for pos, (t, _) in enumerate(batch):
            outputs_per_tb[t].append(done.outputs[pos])
    return outputs_per_tb, float(sum(c.service_time_us
                                     for c in completions))


def encode_slot(request: SlotCodingRequest, executor: QueueHandle
                ) -> SlotCodingResult:
    """Encode all transport blocks of one downlink slot."""
    return _process_slot(request, executor, OpKind.ENCODE, None)


def decode_slot(request: SlotCodingRequest, executor: QueueHandle,
                harq: HarqPool | None = None) -> SlotCodingResult:
    """Decode all transport blocks of one uplink slot."""
    return _process_slot(request, executor, OpKind.DECODE, harq)


def _process_slot(request: SlotCodingRequest, executor: QueueHandle,
                  kind: OpKind, harq: HarqPool | None) -> SlotCodingResult:
    """Code one slot."""
    request.validate()
    device = executor.device
    if device is None:
        raise BackendUnavailableError("executor handle has no device")
    location = None if harq is None else harq.location
    validate_harq_placement(device.capabilities, location)
    works = [_prepare_tb(job, request, device.capabilities, kind, harq)
             for job in request.jobs]
    if kind is OpKind.DECODE:
        for w in works:
            _start_decode(w, harq)
    calls = _group_calls(works, request.interface_generation, kind)
    outputs_per_tb, elapsed_us = _run_calls(device, kind, works, calls,
                                            location)
    results = []
    for w, outs in zip(works, outputs_per_tb):
        jr = JobResult(ue_id=w.job.ue_id, num_cbs=w.plan.num_cbs)
        if kind is OpKind.ENCODE:
            jr.streams = outs
        else:
            jr.payload, jr.tb_crc_ok, jr.cb_crc_ok = w.process.assemble(outs)
        results.append(jr)
    return SlotCodingResult(
        generation=request.interface_generation, job_results=results,
        total_elapsed_us=elapsed_us, calls_made=len(calls))


def run_interface_bench(device, directions=("decode", "encode"),
                        tb_counts=range(1, 9)) -> list[dict]:
    """Slot coding time per (direction, generation, TB count).

    The benchmark slot is a full grid equally shared between the TBs. Its
    calls run one after another, so none waits for a server or meets the
    contention tail: each row is the sum of the emulated device's base
    service times, one deterministic virtual-time sample.
    """
    if not isinstance(device, EmulatedDevice):
        raise InvalidConfigError(
            "the interface bench runs on an emulated device")
    if not tb_counts or min(tb_counts) < 1:
        raise InvalidConfigError("the interface bench needs TB counts >= 1")
    cfg = BenchConfig()
    rows = []
    for direction in directions:
        for gen in InterfaceGeneration:
            for n_tb in tb_counts:
                calls = call_shapes(gen.value, direction, cfg.tb_shapes(n_tb))
                rows.append({
                    "direction": direction,
                    "generation": gen.value,
                    "n_tb": int(n_tb),
                    "mean_us": sum(device.base_service_us(direction, s)
                                   for _, s in calls),
                    "calls_made": len(calls),
                })
    return rows
