import dataclasses

import numpy as np
import pytest

from vranphy import lpu
from vranphy.backends import (DEVICE_PROFILES, SoftwareBackend,
                              execute_descriptor)
from vranphy.backends.emulated import EmulatedDevice, make_emulated
from vranphy.backends.model import (JitterSpec, ServiceTimeModel,
                                    call_groups, call_shapes)
from vranphy.errors import (CapabilityMismatchError, HarqBufferMissingError,
                            InvalidConfigError)
from vranphy.lpu import BufferLocation
from vranphy.nr import (awgn_llrs, compute_tbs, crc_compute, e_splits,
                        encode_tb, mcs_params, new_soft_buffer,
                        noiseless_llrs, pipeline, resource_elements,
                        segment_tb, split_payload)
from vranphy.nr.pipeline import assemble_decoded
from vranphy.nr.segmentation import CB_CRC
from vranphy.slot_coding import (HarqPool, InterfaceGeneration,
                                 SlotCodingRequest, TransportBlockJob,
                                 decode_slot, encode_slot)
from ul_oracle import decode_tb


def _all_crc_ok(result):
    """Every TB of a decoded slot passed, and each of its CBs."""
    return all(j.tb_crc_ok is True and all(j.cb_crc_ok)
               for j in result.job_results)


def _dl_job(rng, prbs=20, mcs=9, table="T1", layers=1, ue=1):
    tbs = compute_tbs(prbs, 12, layers, mcs, table)
    payload = rng.integers(0, 2, tbs).astype(np.uint8)
    return TransportBlockJob(ue_id=ue, payload=payload, mcs_index=mcs,
                             mcs_table=table, layers=layers, prb_share=prbs)


def test_empty_jobs_rejected(t2_quiet):
    req = SlotCodingRequest(jobs=[])
    with pytest.raises(InvalidConfigError):
        encode_slot(req, t2_quiet)


def test_payload_size_validated(t2_quiet, rng):
    job = _dl_job(rng)
    job.payload = job.payload[:-8]
    req = SlotCodingRequest(jobs=[job])
    with pytest.raises(InvalidConfigError):
        encode_slot(req, t2_quiet)


def test_prb_budget_validated(rng):
    jobs = [_dl_job(rng, prbs=100, ue=i) for i in range(3)]
    req = SlotCodingRequest(jobs=jobs)
    with pytest.raises(InvalidConfigError):
        req.validate()


def test_generations_produce_identical_bits_software(rng):
    backend = SoftwareBackend()
    jobs = [_dl_job(rng, prbs=30, ue=1), _dl_job(rng, prbs=25, mcs=16, ue=2)]
    outs = {}
    for gen in InterfaceGeneration:
        req = SlotCodingRequest(jobs=jobs, interface_generation=gen)
        outs[gen] = encode_slot(req, backend)
    ref = outs[InterfaceGeneration.PER_SLOT]
    for gen, res in outs.items():
        for jr, jref in zip(res.job_results, ref.job_results):
            assert len(jr.streams) == len(jref.streams)
            for a, b in zip(jr.streams, jref.streams):
                np.testing.assert_array_equal(a, b)


def test_calls_made_contract(t2_quiet, rng):
    # the 26-segment reference block
    tbs = compute_tbs(273, 12, 1, 28, "T1", overhead=0)
    payload = rng.integers(0, 2, tbs).astype(np.uint8)
    job = TransportBlockJob(ue_id=1, payload=payload, mcs_index=28,
                            mcs_table="T1", layers=1, prb_share=273)
    req = SlotCodingRequest(jobs=[_ul_job(job)],
                            interface_generation=InterfaceGeneration.PER_CB)
    res = decode_slot(req, t2_quiet)
    assert res.calls_made == 26
    assert len(res.job_results[0].cb_crc_ok) == 26
    assert _all_crc_ok(res)

    req_tb = SlotCodingRequest(
        jobs=[_ul_job(job)], interface_generation=InterfaceGeneration.PER_TB)
    assert decode_slot(req_tb, t2_quiet).calls_made == 1

    req_slot = SlotCodingRequest(
        jobs=[_ul_job(job)],
        interface_generation=InterfaceGeneration.PER_SLOT)
    assert decode_slot(req_slot, t2_quiet).calls_made == 1

    # encode batches 8 segments per legacy call: ceil(26 / 8) == 4
    dl = SlotCodingRequest(jobs=[job],
                           interface_generation=InterfaceGeneration.PER_CB)
    assert encode_slot(dl, t2_quiet).calls_made == 4


def test_eight_jobs_share_the_grid(rng, t2_quiet):
    shares = [35] + [34] * 7
    jobs = [_dl_job(rng, prbs=s, mcs=28, table="T1", ue=i)
            for i, s in enumerate(shares)]
    req = SlotCodingRequest(jobs=jobs,
                            interface_generation=InterfaceGeneration.PER_TB)
    res = encode_slot(req, t2_quiet)
    assert res.calls_made == 8
    for jr, share in zip(res.job_results, shares):
        qm, _ = mcs_params(28, "T1")
        total_e = sum(s.size for s in jr.streams)
        assert total_e == 144 * share * qm    # G = RE * Qm * layers


def test_per_call_overhead_inequality(rng):
    """elapsed(PER_CB) - elapsed(PER_SLOT) >= (calls-1)*c for fixed c>0."""
    c = 25.0
    model = ServiceTimeModel(fixed_per_call_us=c, per_tb_us=3.0,
                             per_cb_us=2.0, per_kbit_us=0.1)
    models = {(d, g): model for d in ("encode", "decode")
              for g in ("per_cb", "per_tb", "per_slot")}
    device = EmulatedDevice(device_id="synthetic", models=models,
                            capabilities=lpu.discover("software"),
                            spike=JitterSpec())
    tbs = compute_tbs(80, 12, 1, 28, "T1")
    payload = rng.integers(0, 2, tbs).astype(np.uint8)
    job = TransportBlockJob(ue_id=1, payload=payload, mcs_index=28,
                            mcs_table="T1", layers=1, prb_share=80)
    elapsed = {}
    calls = {}
    for gen in (InterfaceGeneration.PER_CB, InterfaceGeneration.PER_SLOT):
        req = SlotCodingRequest(jobs=[_ul_job(job)], interface_generation=gen)
        res = decode_slot(req, device)
        elapsed[gen] = res.total_elapsed_us
        calls[gen] = res.calls_made
    gap = elapsed[InterfaceGeneration.PER_CB] - \
        elapsed[InterfaceGeneration.PER_SLOT]
    assert gap >= (calls[InterfaceGeneration.PER_CB] - 1) * c - 1e-6


def test_harq_combining_needs_a_pool(rng, t2_quiet):
    job = _ul_job(_dl_job(rng))
    job.new_data = False
    req = SlotCodingRequest(jobs=[job])
    with pytest.raises(HarqBufferMissingError):
        decode_slot(req, t2_quiet, None)
    with pytest.raises(HarqBufferMissingError):
        decode_slot(req, t2_quiet, HarqPool())


def test_noiseless_decode_any_generation(rng, t2_quiet):
    for gen in InterfaceGeneration:
        job = _dl_job(rng, prbs=15, mcs=5)
        req = SlotCodingRequest(jobs=[_ul_job(job)], interface_generation=gen)
        res = decode_slot(req, t2_quiet, HarqPool())
        assert _all_crc_ok(res)
        np.testing.assert_array_equal(res.job_results[0].payload,
                                      job.payload)


def test_dtx_slot_fails_crc(rng, t2_quiet):
    """A UE that sent nothing: all-zero LLRs must not pass any CRC."""
    job = _dl_job(rng, prbs=60, mcs=20)
    probe = decode_slot(SlotCodingRequest(jobs=[_ul_job(job)]), t2_quiet)
    assert _all_crc_ok(probe) and probe.job_results[0].num_cbs > 1
    qm, rate = mcs_params(20, "T1")
    g = resource_elements(60, 12, 0) * qm
    plan = segment_tb(job.payload.size, rate)
    job.payload = None
    job.llr_streams = [np.zeros(e, np.float32)
                       for e in e_splits(plan.num_cbs, g, qm, 1)]
    res = decode_slot(SlotCodingRequest(jobs=[job]), t2_quiet)
    jr = res.job_results[0]
    assert jr.tb_crc_ok is False
    assert not any(jr.cb_crc_ok)


@pytest.mark.parametrize("backend,accepted", [
    ("software", False), ("vran-boost-emulated", False),
    ("t2-emulated", True)])
def test_device_side_harq_needs_internal_memory(backend, accepted, rng):
    """A pool placed on the device reaches each decode descriptor, so a
    device without internal HARQ memory refuses it."""
    device = SoftwareBackend() if backend == "software" else make_emulated(
        backend, spike=JitterSpec())
    req = SlotCodingRequest(jobs=[_ul_job(_dl_job(rng, prbs=15, mcs=5))])
    harq = HarqPool(location=BufferLocation.DEVICE)
    if accepted:
        assert _all_crc_ok(decode_slot(req, device, harq))
    else:
        with pytest.raises(CapabilityMismatchError):
            decode_slot(req, device, harq)


def _run_grouped(generation, kind, per_tb_items):
    """Run each call of ``generation`` as one descriptor over its items;
    returns each TB's per-CB outputs."""
    pending = [iter(items) for items in per_tb_items]
    outputs = [[] for _ in per_tb_items]
    for group in call_groups(generation.value, kind.value,
                             [len(items) for items in per_tb_items]):
        op = lpu.CodingOpDescriptor(
            kind=kind, granularity=lpu.Granularity.CB,
            payload=[next(pending[t]) for t in group])
        for t, out in zip(group, execute_descriptor(op)):
            outputs[t].append(out)
    return outputs


@pytest.mark.parametrize("generation", list(InterfaceGeneration))
def test_descriptors_match_the_tb_pipeline(generation, rng):
    """Any generation's grouping of a slot's blocks into descriptors codes
    what encode_tb and decode_tb code, block for block."""
    qm, rate = mcs_params(20, "T1")
    tbs = []
    for prbs in (60, 25):
        size = compute_tbs(prbs, 12, 1, 20, "T1")
        plan = segment_tb(size, rate)
        payload = rng.integers(0, 2, size).astype(np.uint8)
        enc = encode_tb(payload, plan, resource_elements(prbs, 12, 0) * qm,
                        qm, 1)
        llrs = [awgn_llrs(s, 0.6, rng) for s in enc.streams]
        tbs.append((plan, payload, enc, llrs))
    assert tbs[0][0].num_cbs > 1

    streams = _run_grouped(generation, lpu.OpKind.ENCODE, [
        [(bits, plan, p) for bits, p in
         zip(split_payload(payload, plan), enc.params)]
        for plan, payload, enc, _ in tbs])
    decoded = _run_grouped(generation, lpu.OpKind.DECODE, [
        [(x, plan, p, new_soft_buffer(plan)) for x, p in
         zip(llrs, enc.params)]
        for plan, _, enc, llrs in tbs])
    for (plan, _, enc, llrs), got, results in zip(tbs, streams, decoded):
        for a, b in zip(got, enc.streams, strict=True):
            np.testing.assert_array_equal(a, b)
        ref = decode_tb(llrs, plan, enc.params)
        payload, tb_ok, cb_ok = assemble_decoded(results, plan)
        np.testing.assert_array_equal(payload, ref.payload)
        assert (tb_ok, cb_ok) == (ref.tb_crc_ok, ref.cb_crc_ok)
        assert [r.iterations_used for r in results] == ref.iterations


@pytest.mark.parametrize("backend", sorted(DEVICE_PROFILES))
def test_slot_time_is_the_sum_of_its_calls_base_times(backend, rng):
    """The calls of one slot run one after another, so none waits for a
    server or meets the contention tail, even with the default spikes on:
    a slot costs the base service times of its call shapes."""
    device = make_emulated(backend)
    jobs = [_dl_job(rng, prbs=60, mcs=20, ue=1), _dl_job(rng, prbs=25, ue=2)]
    shapes = [(job.payload.size, segment_tb(
        job.payload.size, mcs_params(job.mcs_index, "T1")[1]).num_cbs)
        for job in jobs]
    for kind, code, coded in (
            (lpu.OpKind.ENCODE, encode_slot, jobs),
            (lpu.OpKind.DECODE, decode_slot, [_ul_job(j) for j in jobs])):
        for gen in InterfaceGeneration:
            res = code(SlotCodingRequest(jobs=coded, interface_generation=gen),
                       device)
            calls = call_shapes(gen.value, kind.value, shapes)
            assert res.calls_made == len(calls)
            assert res.total_elapsed_us == sum(
                device.base_service_us(kind.value, s) for _, s in calls)


@pytest.mark.parametrize("value", [0.5, 256])
def test_payload_of_non_bits_is_rejected(value, t2_quiet):
    """A payload is checked before any conversion, so 0.5 cannot truncate
    to 0 nor 256 wrap to 0."""
    tbs = compute_tbs(4, 12, 1, 5, "T1")
    job = TransportBlockJob(ue_id=1, payload=np.full(tbs, value),
                            mcs_index=5, mcs_table="T1", layers=1,
                            prb_share=4)
    with pytest.raises(InvalidConfigError):
        encode_slot(SlotCodingRequest(jobs=[job]), t2_quiet)


@pytest.fixture
def decodes(monkeypatch):
    """The soft buffer of every CB ``ldpc_decode_batch`` decodes, in call
    order."""
    seen = []
    real = pipeline.ldpc_decode_batch

    def counted(buffers, plan, *args):
        seen.extend(buffers)
        return real(buffers, plan, *args)

    monkeypatch.setattr(pipeline, "ldpc_decode_batch", counted)
    return seen


def _ul_job(payload_job, new_data=True, harq_pid=0, silent=()):
    """A UL job carrying ``payload_job``'s TB as noiseless LLRs, with the
    CBs in ``silent`` sent as all-zero LLRs (nothing received)."""
    job = payload_job
    qm, rate = mcs_params(job.mcs_index, job.mcs_table)
    plan = segment_tb(job.payload.size, rate)
    g = resource_elements(job.prb_share, 12, 0) * qm * job.layers
    streams = [noiseless_llrs(s) for s in
               encode_tb(job.payload, plan, g, qm, job.layers).streams]
    for i in silent:
        streams[i] = np.zeros_like(streams[i])
    return dataclasses.replace(job, payload=None, llr_streams=streams,
                               new_data=new_data, harq_pid=harq_pid)


def _decode(device, harq, *jobs, generation=InterfaceGeneration.PER_SLOT):
    return decode_slot(SlotCodingRequest(jobs=list(jobs),
                                         interface_generation=generation),
                       device, harq)


@pytest.mark.parametrize("generation", list(InterfaceGeneration))
def test_retransmission_decodes_only_the_cbs_that_failed(
        generation, rng, t2_quiet, decodes):
    """Each call shape counts only the CBs decoded, at an unchanged share
    of bits per CB, and a TB with every CB kept makes no call."""
    harq = HarqPool()
    full = _dl_job(rng, prbs=60, mcs=20, ue=1)
    other = _dl_job(rng, prbs=15, mcs=5, ue=2)
    num_cbs = segment_tb(full.payload.size, mcs_params(20, "T1")[1]).num_cbs
    assert num_cbs == 4
    first = _decode(t2_quiet, harq, _ul_job(full, silent=(0, 2)),
                    _ul_job(other), generation=generation)
    assert first.job_results[0].cb_crc_ok == [False, True, False, True]
    assert first.job_results[1].tb_crc_ok
    assert len(decodes) == num_cbs + 1

    again = _decode(t2_quiet, harq, _ul_job(full, new_data=False),
                    _ul_job(other, new_data=False), generation=generation)
    assert len(decodes) == num_cbs + 1 + 2
    assert _all_crc_ok(again)
    np.testing.assert_array_equal(again.job_results[0].payload, full.payload)
    np.testing.assert_array_equal(again.job_results[1].payload,
                                  other.payload)
    calls = call_shapes(generation.value, "decode",
                        [(full.payload.size * 2 / num_cbs, 2)])
    assert again.calls_made == len(calls)
    assert again.total_elapsed_us == pytest.approx(sum(
        t2_quiet.base_service_us("decode", s) for _, s in calls))

    last = _decode(t2_quiet, harq, _ul_job(full, new_data=False),
                   generation=generation)
    assert len(decodes) == num_cbs + 3
    assert (last.calls_made, last.total_elapsed_us) == (0, 0.0)
    assert _all_crc_ok(last)
    np.testing.assert_array_equal(last.job_results[0].payload, full.payload)


def test_undetected_cb_error_decodes_every_cb_again(rng, t2_quiet, decodes,
                                                    monkeypatch):
    """Every CB passes its CRC but the TB CRC fails: the next transmission
    must decode every CB, or the TB could never be delivered."""
    harq = HarqPool()
    job = _dl_job(rng, prbs=60, mcs=20)
    plan = segment_tb(job.payload.size, mcs_params(20, "T1")[1])
    counted = pipeline.ldpc_decode_batch

    def corrupt_first(buffers, plan, *args):
        results = counted(buffers, plan, *args)
        if len(decodes) > len(buffers):
            return results
        bits = results[0].info_bits.copy()
        data = plan.segment_data_bits
        bits[0] ^= 1
        bits[data:plan.k_prime] = crc_compute(bits[:data], CB_CRC)
        results[0] = dataclasses.replace(results[0], info_bits=bits)
        return results

    monkeypatch.setattr(pipeline, "ldpc_decode_batch", corrupt_first)
    first = _decode(t2_quiet, harq, _ul_job(job))
    jr = first.job_results[0]
    assert all(jr.cb_crc_ok) and jr.tb_crc_ok is False
    assert len(decodes) == plan.num_cbs

    again = _decode(t2_quiet, harq, _ul_job(job, new_data=False))
    assert len(decodes) == 2 * plan.num_cbs
    assert _all_crc_ok(again)
    np.testing.assert_array_equal(again.job_results[0].payload, job.payload)


def test_new_data_starts_a_fresh_process(rng, t2_quiet, decodes):
    """Results kept for the process's previous TB never reach a new one."""
    harq = HarqPool()
    old = _dl_job(rng, prbs=60, mcs=20)
    new = _dl_job(rng, prbs=60, mcs=20)
    assert not np.array_equal(old.payload, new.payload)
    _decode(t2_quiet, harq, _ul_job(old, harq_pid=5, silent=(0,)))
    res = _decode(t2_quiet, harq, _ul_job(new, harq_pid=5))
    assert len(decodes) == 8
    assert _all_crc_ok(res)
    np.testing.assert_array_equal(res.job_results[0].payload, new.payload)


@pytest.mark.parametrize("bad", ["nan", "short"])
def test_stream_of_a_kept_cb_is_still_validated(bad, rng, t2_quiet):
    harq = HarqPool()
    job = _dl_job(rng, prbs=60, mcs=20)
    first = _decode(t2_quiet, harq, _ul_job(job, silent=(0,)))
    assert first.job_results[0].cb_crc_ok[1]
    retx = _ul_job(job, new_data=False)
    retx.llr_streams[1] = (np.full_like(retx.llr_streams[1], np.nan)
                           if bad == "nan" else retx.llr_streams[1][:-2])
    with pytest.raises(InvalidConfigError):
        _decode(t2_quiet, harq, retx)


def test_retransmission_needs_its_process_and_its_segmentation(rng,
                                                               t2_quiet):
    harq = HarqPool()
    job = _dl_job(rng, prbs=60, mcs=20)
    _decode(t2_quiet, harq, _ul_job(job, harq_pid=2, silent=(0,)))
    smaller = _dl_job(rng, prbs=50, mcs=20)
    with pytest.raises(InvalidConfigError):
        _decode(t2_quiet, harq, _ul_job(smaller, new_data=False, harq_pid=2))
    harq.release(job.ue_id, 2)
    with pytest.raises(HarqBufferMissingError):
        _decode(t2_quiet, harq, _ul_job(job, new_data=False, harq_pid=2))


def test_rejected_retransmission_leaves_every_buffer_as_it_was(rng,
                                                               t2_quiet):
    """NaN LLRs in CB 2 reject the retransmission before CB 0, which
    precedes it, is combined."""
    harq = HarqPool()
    job = _dl_job(rng, prbs=60, mcs=20)
    first = _decode(t2_quiet, harq, _ul_job(job, silent=(0, 2)))
    assert first.job_results[0].cb_crc_ok == [False, True, False, True]
    plan = segment_tb(job.payload.size, mcs_params(20, "T1")[1])
    process = harq.resume(job.ue_id, job.harq_pid, plan)
    before = [b.llrs.copy() for b in process.buffers]
    retx = _ul_job(job, new_data=False)
    retx.llr_streams[2] = np.full_like(retx.llr_streams[2], np.nan)
    with pytest.raises(InvalidConfigError):
        _decode(t2_quiet, harq, retx)
    for buffer, kept in zip(process.buffers, before, strict=True):
        np.testing.assert_array_equal(buffer.llrs, kept)


def test_rejected_slot_keeps_the_processes_it_would_start(rng, t2_quiet):
    """Job 2's stream count rejects the slot before new data for job 1
    replaces job 1's earlier process."""
    harq = HarqPool()
    one = _dl_job(rng, prbs=60, mcs=20, ue=1)
    two = _dl_job(rng, prbs=15, mcs=5, ue=2)
    _decode(t2_quiet, harq, _ul_job(one, silent=(0,)))
    plan = segment_tb(one.payload.size, mcs_params(20, "T1")[1])
    earlier = harq.resume(one.ue_id, one.harq_pid, plan)
    doubled = _ul_job(two)
    doubled.llr_streams = doubled.llr_streams * 2
    with pytest.raises(InvalidConfigError):
        _decode(t2_quiet, harq, _ul_job(one), doubled)
    assert harq.resume(one.ue_id, one.harq_pid, plan) is earlier


def test_rejected_harq_placement_starts_no_process(rng):
    """A device-side HARQ pool on the host-memory software backend rejects
    new data before the pool starts the job's process."""
    job = _dl_job(rng, prbs=15, mcs=5)
    harq = HarqPool(location=BufferLocation.DEVICE)
    with pytest.raises(CapabilityMismatchError):
        _decode(SoftwareBackend(), harq, _ul_job(job))
    plan = segment_tb(job.payload.size, mcs_params(5, "T1")[1])
    with pytest.raises(HarqBufferMissingError):
        harq.resume(job.ue_id, job.harq_pid, plan)


def test_job_result_reports_iterations_of_the_cbs_decoded(rng):
    """A first transmission faded on CBs 1 and 3 reports every CB's
    decoder iterations; its rv 2 retransmission decodes only CBs 1 and 3
    and reports None for the CBs kept from the first."""
    job = _dl_job(rng, prbs=60, mcs=20)
    qm, rate = mcs_params(20, "T1")
    plan = segment_tb(job.payload.size, rate)
    g = resource_elements(60, 12, 0) * qm
    backend, harq = SoftwareBackend(), HarqPool()
    buffers = [new_soft_buffer(plan) for _ in range(plan.num_cbs)]
    reports, reference = [], []
    for tx, (rv, sigmas) in enumerate([(0, (0.5, 1.5, 0.5, 1.5)),
                                       (2, (0.5,) * 4)]):
        enc = encode_tb(job.payload, plan, g, qm, 1, rv)
        streams = [awgn_llrs(s, sigma, rng)
                   for s, sigma in zip(enc.streams, sigmas)]
        reports.append(_decode(backend, harq, dataclasses.replace(
            job, payload=None, rv=rv, new_data=tx == 0,
            llr_streams=streams)).job_results[0])
        reference.append(decode_tb(streams, plan, enc.params, buffers))
    first, again = reports
    assert first.cb_crc_ok == [True, False, True, False]
    assert first.iterations == reference[0].iterations
    assert again.tb_crc_ok
    assert again.iterations == [None, reference[1].iterations[1],
                                None, reference[1].iterations[3]]


def test_payload_only_ul_job_is_rejected(rng, t2_quiet):
    """A decode job's input is its LLR streams: a job with a payload and
    no streams is rejected before its HARQ process starts."""
    harq = HarqPool()
    job = _dl_job(rng, prbs=15, mcs=5)
    with pytest.raises(InvalidConfigError):
        _decode(t2_quiet, harq, job)
    plan = segment_tb(job.payload.size, mcs_params(5, "T1")[1])
    with pytest.raises(HarqBufferMissingError):
        harq.resume(job.ue_id, job.harq_pid, plan)


@pytest.mark.parametrize("kind", ["encode", "decode"])
def test_descriptor_granularity_follows_the_device(kind, rng, monkeypatch):
    """vRAN Boost takes a single-CB TB alone in a call as a TB descriptor,
    and a call holding any CB of a multi-CB TB as a CB descriptor; the T2
    takes CB descriptors only."""
    single = _dl_job(rng, prbs=15, mcs=5, ue=1)
    multi = _dl_job(rng, prbs=60, mcs=20, ue=2)
    code = encode_slot if kind == "encode" else decode_slot
    wrap = (lambda job: job) if kind == "encode" else _ul_job
    cb, tb = lpu.Granularity.CB, lpu.Granularity.TB

    def granularities(backend, jobs, generation):
        device = make_emulated(backend, spike=JitterSpec())
        seen = []
        process = device.process

        def recorded(ops):
            seen.extend(op.granularity for op in ops)
            return process(ops)

        monkeypatch.setattr(device, "process", recorded)
        code(SlotCodingRequest(jobs=[wrap(j) for j in jobs],
                               interface_generation=generation),
             device)
        return seen

    per_cb_mixed = [cb] if kind == "encode" else [tb, cb, cb, cb, cb]
    for gen, mixed in ((InterfaceGeneration.PER_CB, per_cb_mixed),
                       (InterfaceGeneration.PER_TB, [tb, cb]),
                       (InterfaceGeneration.PER_SLOT, [cb])):
        assert granularities("vran-boost-emulated", [single], gen) == [tb]
        assert granularities("vran-boost-emulated", [single, multi],
                             gen) == mixed
        assert set(granularities("t2-emulated", [single, multi],
                                 gen)) == {cb}
