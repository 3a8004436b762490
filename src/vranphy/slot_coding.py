"""Slot-batched coding calls across the three interface generations.

Every generation produces bit-identical coded output because all of them
run the same per-segment primitives; they differ only in how the slot's
segments are grouped into coding-library calls (one call per segment or
8-segment batch, one per transport block, or one for the whole slot) and
therefore in call count and timing. A slot takes one path from its jobs
to its device calls and back, under three rules:

- an encode job's input is its payload, a decode job's its LLR streams,
  one per code block (CB), and every job is checked before any HARQ
  process starts;
- every decode runs in a HARQ pool, the caller's or a fresh one dropped
  after the slot, and codes only the CBs not yet passed in their process
  (see ``HarqPool``);
- each call takes the next CBs in TB order (``model.call_groups``), and
  each TB gets its outputs back in CB order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .backends.model import call_shapes
from .errors import HarqBufferMissingError, InvalidConfigError
from .lpu import (BufferLocation, CodingOpDescriptor, Granularity,
                  InterfaceGeneration, OpKind, route_interface,
                  validate_harq_placement)
from .nr.decoder import DecodeResult
from .nr.mcs import MAX_PRBS
from .nr.pipeline import assemble_decoded, cb_params, tb_geometry
from .nr.segmentation import SegmentationPlan, split_payload
from .nr.softbuffer import SoftBuffer, new_soft_buffer, received_llrs


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
    # UL: decoder iterations per CB, None for a CB kept from an earlier
    # transmission and so not decoded in this call
    iterations: list[int | None] = field(default_factory=list)


@dataclass
class SlotCodingResult:
    generation: InterfaceGeneration
    job_results: list[JobResult]
    total_elapsed_us: float
    calls_made: int


@dataclass
class HarqProcess:
    """One HARQ process: the soft buffer of each CB of its TB, and the
    decoder result of each CB kept as passed (see ``HarqPool``)."""
    plan: SegmentationPlan
    buffers: list[SoftBuffer]
    passed: dict[int, DecodeResult] = field(default_factory=dict)

    def assemble(self, decoded: list[DecodeResult]
                 ) -> tuple[np.ndarray, bool, list[bool], list[int | None]]:
        """TB payload, verdicts and each CB's decoder iterations (None for
        a kept CB) from the kept results and the results of the CBs just
        decoded, in CB order; then keep the new passes."""
        new = iter(decoded)
        results = [self.passed[i] if i in self.passed else next(new)
                   for i in range(self.plan.num_cbs)]
        iterations = [None if i in self.passed else r.iterations_used
                      for i, r in enumerate(results)]
        payload, tb_ok, cb_ok = assemble_decoded(results, self.plan)
        undetected = all(cb_ok) and not tb_ok
        self.passed = {} if undetected else {
            i: r for i, (r, ok) in enumerate(zip(results, cb_ok)) if ok}
        return payload, tb_ok, cb_ok, iterations


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
        process = HarqProcess(plan, [new_soft_buffer(plan)
                                     for _ in range(plan.num_cbs)])
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
    process: HarqProcess | None = None    # decode only


def _prepare_tb(job: TransportBlockJob, request: SlotCodingRequest,
                kind: OpKind, harq: HarqPool | None) -> _TbWork:
    """A job's coding state with every input checked: an encode's payload
    (``split_payload``), and a decode's LLR streams and the HARQ process a
    retransmission resumes. No HARQ state changes here: a decode's items
    are (llrs, plan, params), the LLRs quantised once to the soft buffer's
    format, until ``_start_decode`` gives them buffers."""
    plan, g_total, qm = tb_geometry(job.prb_share, request.symbols,
                                    job.layers, job.mcs_index, job.mcs_table,
                                    request.overhead)
    params = cb_params(plan, g_total, qm, job.layers, job.rv)
    if kind is OpKind.ENCODE:
        items = [(bits, plan, rm)
                 for bits, rm in zip(split_payload(job.payload, plan), params)]
        return _TbWork(job=job, plan=plan, items=items)
    if job.llr_streams is None:
        raise InvalidConfigError(f"UL job ue={job.ue_id} needs llr_streams")
    if len(job.llr_streams) != plan.num_cbs:
        raise InvalidConfigError("llr stream count != segment count")
    items = [(received_llrs(llrs, rm), plan, rm)
             for llrs, rm in zip(job.llr_streams, params)]
    process = None if job.new_data else harq.resume(job.ue_id, job.harq_pid,
                                                    plan)
    return _TbWork(job=job, plan=plan, items=items, process=process)


def _start_decode(work: _TbWork, harq: HarqPool) -> None:
    """Start new data's HARQ process, then keep the items of the CBs the
    process has no passed result for, each with its soft buffer."""
    job = work.job
    if job.new_data:
        work.process = harq.start(job.ue_id, job.harq_pid, work.plan)
    passed, buffers = work.process.passed, work.process.buffers
    work.items = [(*item, buffers[idx]) for idx, item in enumerate(work.items)
                  if idx not in passed]


def _run_calls(device, kind: OpKind, generation: InterfaceGeneration,
               works: list[_TbWork], location: BufferLocation | None
               ) -> tuple[list[list], float, int]:
    """Code the slot's items in ``generation``'s calls, in TB order; a call
    is a TB descriptor when every TB it holds routes to the TB interface.
    Returns each TB's outputs, the calls' summed time and the call count."""
    calls = call_shapes(generation.value, kind.value, [
        (w.plan.payload_bits * len(w.items) / w.plan.num_cbs, len(w.items))
        for w in works])
    items = (item for w in works for item in w.items)
    ops = []
    for tbs, shape in calls:
        gran = Granularity.TB if all(
            route_interface(device.capabilities, works[t].plan.num_cbs)
            is Granularity.TB for t in set(tbs)) else Granularity.CB
        ops.append(CodingOpDescriptor(
            kind=kind, granularity=gran, shape=shape,
            payload=list(islice(items, len(tbs))), harq_location=location))
    completions = device.process(ops)
    outputs = (out for done in completions for out in done.outputs)
    return ([list(islice(outputs, len(w.items))) for w in works],
            float(sum(c.service_time_us for c in completions)), len(ops))


def encode_slot(request: SlotCodingRequest, device) -> SlotCodingResult:
    """Encode all transport blocks of one downlink slot on ``device``."""
    return _process_slot(request, device, OpKind.ENCODE, None)


def decode_slot(request: SlotCodingRequest, device,
                harq: HarqPool | None = None) -> SlotCodingResult:
    """Decode all transport blocks of one uplink slot on ``device`` in
    ``harq``, or in a fresh pool dropped after the slot."""
    return _process_slot(request, device, OpKind.DECODE,
                         HarqPool() if harq is None else harq)


def _process_slot(request: SlotCodingRequest, device, kind: OpKind,
                  harq: HarqPool | None) -> SlotCodingResult:
    """Code one slot on ``device``, any backend with ``capabilities`` and
    ``process``; ``harq`` is None on an encode."""
    request.validate()
    location = harq.location if kind is OpKind.DECODE else None
    validate_harq_placement(device.capabilities, location)
    works = [_prepare_tb(job, request, kind, harq) for job in request.jobs]
    if kind is OpKind.DECODE:
        for w in works:
            _start_decode(w, harq)
    outputs_per_tb, elapsed_us, calls_made = _run_calls(
        device, kind, request.interface_generation, works, location)
    results = []
    for w, outs in zip(works, outputs_per_tb):
        jr = JobResult(ue_id=w.job.ue_id, num_cbs=w.plan.num_cbs)
        if kind is OpKind.ENCODE:
            jr.streams = outs
        else:
            jr.payload, jr.tb_crc_ok, jr.cb_crc_ok, jr.iterations = \
                w.process.assemble(outs)
        results.append(jr)
    return SlotCodingResult(
        generation=request.interface_generation, job_results=results,
        total_elapsed_us=elapsed_us, calls_made=calls_made)
