import numpy as np
import pytest

from vranphy import lpu
from vranphy.backends import SoftwareBackend
from vranphy.backends.emulated import EmulatedDevice
from vranphy.backends.model import JitterSpec, ServiceTimeModel
from vranphy.errors import HarqBufferMissingError, InvalidConfigError
from vranphy.nr import (compute_tbs, e_splits, mcs_params,
                        resource_elements, segment_tb)
from vranphy.slot_coding import (Direction, HarqPool, InterfaceGeneration,
                                 SlotCodingRequest, TransportBlockJob,
                                 decode_slot, encode_slot)


def _handle(device):
    return device.allocator.open_queue(0, device=device)


def _dl_job(rng, prbs=20, mcs=9, table="T1", layers=1, ue=1):
    tbs = compute_tbs(prbs, 12, layers, mcs, table)
    payload = rng.integers(0, 2, tbs).astype(np.uint8)
    return TransportBlockJob(ue_id=ue, payload=payload, mcs_index=mcs,
                             mcs_table=table, layers=layers, prb_share=prbs)


def test_empty_jobs_rejected(t2_quiet):
    req = SlotCodingRequest(slot_id=0, direction=Direction.DL, jobs=[])
    with pytest.raises(InvalidConfigError):
        encode_slot(req, _handle(t2_quiet))


def test_wrong_direction_rejected(t2_quiet, rng):
    req = SlotCodingRequest(slot_id=0, direction=Direction.UL,
                            jobs=[_dl_job(rng)])
    with pytest.raises(InvalidConfigError):
        encode_slot(req, _handle(t2_quiet))
    req2 = SlotCodingRequest(slot_id=0, direction=Direction.DL,
                             jobs=[_dl_job(rng)])
    with pytest.raises(InvalidConfigError):
        decode_slot(req2, _handle(t2_quiet))


def test_payload_size_validated(t2_quiet, rng):
    job = _dl_job(rng)
    job.payload = job.payload[:-8]
    req = SlotCodingRequest(slot_id=0, direction=Direction.DL, jobs=[job])
    with pytest.raises(InvalidConfigError):
        encode_slot(req, _handle(t2_quiet))


def test_prb_budget_validated(rng):
    jobs = [_dl_job(rng, prbs=100, ue=i) for i in range(3)]
    req = SlotCodingRequest(slot_id=0, direction=Direction.DL, jobs=jobs)
    with pytest.raises(InvalidConfigError):
        req.validate()


def test_generations_produce_identical_bits_software(rng):
    backend = SoftwareBackend()
    handle = backend.allocator.open_queue(0, device=backend)
    jobs = [_dl_job(rng, prbs=30, ue=1), _dl_job(rng, prbs=25, mcs=16, ue=2)]
    outs = {}
    for gen in InterfaceGeneration:
        req = SlotCodingRequest(slot_id=0, direction=Direction.DL,
                                jobs=jobs, interface_generation=gen)
        outs[gen] = encode_slot(req, handle)
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
    handle = _handle(t2_quiet)
    req = SlotCodingRequest(slot_id=4, direction=Direction.UL, jobs=[job],
                            interface_generation=InterfaceGeneration.PER_CB)
    res = decode_slot(req, handle)
    assert res.calls_made == 26
    assert len(res.job_results[0].cb_crc_ok) == 26
    assert res.all_crc_ok

    req_tb = SlotCodingRequest(
        slot_id=4, direction=Direction.UL, jobs=[job],
        interface_generation=InterfaceGeneration.PER_TB)
    assert decode_slot(req_tb, handle).calls_made == 1

    req_slot = SlotCodingRequest(
        slot_id=4, direction=Direction.UL, jobs=[job],
        interface_generation=InterfaceGeneration.PER_SLOT)
    assert decode_slot(req_slot, handle).calls_made == 1

    # encode batches 8 segments per legacy call: ceil(26 / 8) == 4
    dl = SlotCodingRequest(slot_id=0, direction=Direction.DL, jobs=[job],
                           interface_generation=InterfaceGeneration.PER_CB)
    assert encode_slot(dl, _handle(t2_quiet)).calls_made == 4


def test_eight_jobs_share_the_grid(rng, t2_quiet):
    shares = [35] + [34] * 7
    jobs = [_dl_job(rng, prbs=s, mcs=28, table="T1", ue=i)
            for i, s in enumerate(shares)]
    req = SlotCodingRequest(slot_id=0, direction=Direction.DL, jobs=jobs,
                            interface_generation=InterfaceGeneration.PER_TB)
    res = encode_slot(req, _handle(t2_quiet))
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
                            spike=JitterSpec(), compute_payloads=True)
    handle = device.allocator.open_queue(0, device=device)
    tbs = compute_tbs(80, 12, 1, 28, "T1")
    payload = rng.integers(0, 2, tbs).astype(np.uint8)
    job = TransportBlockJob(ue_id=1, payload=payload, mcs_index=28,
                            mcs_table="T1", layers=1, prb_share=80)
    elapsed = {}
    calls = {}
    for gen in (InterfaceGeneration.PER_CB, InterfaceGeneration.PER_SLOT):
        req = SlotCodingRequest(slot_id=4, direction=Direction.UL,
                                jobs=[job], interface_generation=gen)
        res = decode_slot(req, handle)
        elapsed[gen] = res.total_elapsed_us
        calls[gen] = res.calls_made
    gap = elapsed[InterfaceGeneration.PER_CB] - \
        elapsed[InterfaceGeneration.PER_SLOT]
    assert gap >= (calls[InterfaceGeneration.PER_CB] - 1) * c - 1e-6


def test_harq_combining_needs_a_pool(rng, t2_quiet):
    job = _dl_job(rng)
    job.new_data = False
    req = SlotCodingRequest(slot_id=4, direction=Direction.UL, jobs=[job])
    with pytest.raises(HarqBufferMissingError):
        decode_slot(req, _handle(t2_quiet), None)
    with pytest.raises(HarqBufferMissingError):
        decode_slot(req, _handle(t2_quiet), HarqPool())


def test_noiseless_decode_any_generation(rng, t2_quiet):
    handle = _handle(t2_quiet)
    for gen in InterfaceGeneration:
        job = _dl_job(rng, prbs=15, mcs=5)
        req = SlotCodingRequest(slot_id=4, direction=Direction.UL,
                                jobs=[job], interface_generation=gen)
        res = decode_slot(req, handle, HarqPool())
        assert res.all_crc_ok
        np.testing.assert_array_equal(res.job_results[0].payload,
                                      job.payload)


def test_timing_only_slots_report_unknown_crc(rng, t2_shapes):
    """A device that runs no payload decodes nothing, so no CRC can pass."""
    from vranphy.highphy import CellConfig, run_dl_slot, run_ul_slot
    handle = _handle(t2_shapes)
    job = _dl_job(rng)
    ul = decode_slot(SlotCodingRequest(slot_id=4, direction=Direction.UL,
                                       jobs=[job]), handle)
    dl = encode_slot(SlotCodingRequest(slot_id=0, direction=Direction.DL,
                                       jobs=[job]), handle)
    for res in (ul, dl):
        assert res.job_results[0].tb_crc_ok is None
        assert not res.all_crc_ok
    cell = CellConfig()
    dl_rec, _ = run_dl_slot(cell, [job], handle, slot_id=0)
    ul_rec, _ = run_ul_slot(cell, [job], handle, slot_id=4)
    assert dl_rec.crc_ok is None and ul_rec.crc_ok is None


def test_dtx_slot_fails_crc(rng, t2_quiet):
    """A UE that sent nothing: all-zero LLRs must not pass any CRC."""
    job = _dl_job(rng, prbs=60, mcs=20)
    probe = decode_slot(SlotCodingRequest(
        slot_id=4, direction=Direction.UL, jobs=[job]), _handle(t2_quiet))
    assert probe.all_crc_ok and probe.job_results[0].num_cbs > 1
    qm, rate = mcs_params(20, "T1")
    g = resource_elements(60, 12, 0) * qm
    plan = segment_tb(job.payload.size, rate)
    job.payload = None
    job.llr_streams = [np.zeros(e, np.float32)
                       for e in e_splits(plan.num_cbs, g, qm, 1)]
    res = decode_slot(SlotCodingRequest(
        slot_id=4, direction=Direction.UL, jobs=[job]), _handle(t2_quiet))
    jr = res.job_results[0]
    assert jr.tb_crc_ok is False
    assert not any(jr.cb_crc_ok)
