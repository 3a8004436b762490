"""Byte-for-byte regression of the emulator's virtual-time outputs, of
the DL coding chain's bits and of the UL decoder's decisions.

Each emulator case runs one command through ``cli_main`` and compares the
sha256 of what it prints. A change to any grant, contention spike or
completion order changes a digest. Each DL case hashes the rate-matched
streams of a seeded transport block; the coding chain must keep those
bit-identical. The DL port-grid case hashes the grid a seeded phy-test
slot precodes, which pins scrambling, modulation, layer and RE mapping.
Each UL case hashes what seeded noisy transmissions of one
transport block decode to, so any change to the decoder's arithmetic or
schedule shows. When an output is meant to change, regenerate its digest
by taking the printed digest from the failure message
(``pytest tests/test_golden.py``), and say why in the change log.
"""
import hashlib
import json

import numpy as np
import pytest

from vranphy import highphy
from vranphy.backends import SoftwareBackend
from vranphy.cli import cli_main
from vranphy.deployment.harness import PhyTestTraffic
from vranphy.nr import (awgn_llrs, compute_tbs, encode_tb, mcs_params,
                        new_soft_buffer, pipeline, resource_elements,
                        segment_tb)
from vranphy.slot_coding import (HarqPool, InterfaceGeneration,
                                 SlotCodingRequest, TransportBlockJob,
                                 decode_slot, encode_slot)
from ul_oracle import decode_tb

GOLDEN = {
    ("--format", "json", "deploy", "--profile", "ep-rfsoc",
     "--instances", "7", "--slots", "2000"):
        "bfe98d0b061253f8304c8db9350c4cf396d24b30b4156463ee7b3d822d921b97",
    ("--format", "json", "deploy", "--profile", "vranp",
     "--instances", "3", "--slots", "2000"):
        "9e740d3dca64953ee99be9c91f67c6b424e96c532a4c4ca7099915e8d88974a9",
    ("--format", "json", "deploy", "--profile", "hpp",
     "--instances", "4", "--slots", "2000"):
        "7890f67524c9268d751344aae5d8beacb649baa6708f5bb8fe1c31f4668f3537",
    ("--format", "csv", "deploy", "--profile", "ep-rfsoc",
     "--instances", "7", "--slots", "2000"):
        "6339e3eb813c012528d0b1180eda4e8a5dcdca775aa82cf16c9859378c57c6d3",
    ("bench-interfaces", "--backend", "t2-emulated"):
        "443f49a1ac83fcc5a9c986bb0ad99cdd5092f0c58569b542cfd1cb0940606f05",
    ("bench-interfaces", "--backend", "vran-boost-emulated"):
        "0cbb97f149aa3baa1460aed669dd2dd3201c102ae1c89cbabf9cf08a52e9fa36",
    ("bench-interfaces", "--backend", "hpp-sw-emulated"):
        "edd8b90077257a8dd1f14042d773fc3dbb89e6398892bb19e50034d95815eff5",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids="_".join)
def test_output_matches_its_recorded_digest(argv, capsys):
    cli_main(["--seed", "0", *argv])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[argv], f"{' '.join(argv)}: {digest}"


# name -> (argv, --config document or None, digest). The first is the
# benchmark's deployment; the second pins how each instance's error draws
# interleave with its jitter draws on the instance's one stream. Both were
# recorded while every random variate was still drawn by its own numpy
# call, so drawing them a block at a time changes no draw.
DEPLOY_GOLDEN = {
    "ep_rfsoc_7x4000_seed3": (
        ["--seed", "3", "--format", "json", "deploy", "--profile",
         "ep-rfsoc", "--instances", "7", "--slots", "4000"], None,
        "ff9dbac0328383956cc3a530af4fcb98a8c9405e57bc55745b6e6116ce9de8ec"),
    "ep_rfsoc_3x2000_seed5_error_rates": (
        ["--format", "json", "deploy"],
        {"profile": "ep_rfsoc", "n_instances": 3, "duration_slots": 2000,
         "seed": 5, "traffic": {"dl_error_rate": 0.1,
                                "ul_error_rate": 0.2}},
        "98d1084ea22d1afb3e1c5431465b771a1b6a6b0e0fcb073b972d921a2ead6441"),
}


@pytest.mark.parametrize("name", list(DEPLOY_GOLDEN))
def test_deploy_matches_its_recorded_digest(name, capsys, tmp_path):
    argv, config, expected = DEPLOY_GOLDEN[name]
    if config is not None:
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), *argv]
    cli_main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == expected, f"{name}: {digest}"


# sha256 of DL rate-matched streams (each CB's uint8 bits, in order): they
# pin the encoder, rate matching and CRCs independently of the program's
# own reference encode.
def _streams_digest(streams) -> str:
    h = hashlib.sha256()
    for s in streams:
        h.update(np.asarray(s, dtype=np.uint8).tobytes())
    return h.hexdigest()


def _payload(bits: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed, bits]).integers(
        0, 2, bits, dtype=np.uint8)


def _phy_test(link: str):
    t = PhyTestTraffic()
    mcs, table, layers = (getattr(t, f"{link}_{f}")
                          for f in ("mcs", "table", "layers"))
    qm, rate = mcs_params(mcs, table)
    tbs = compute_tbs(t.prbs, t.symbols, layers, mcs, table, t.overhead)
    g = resource_elements(t.prbs, t.symbols, t.overhead) * qm * layers
    return tbs, segment_tb(tbs, rate), g, qm, layers


def _phy_test_dl():
    return _phy_test("dl")


def _small(a: int, rate: float, g: int):
    return a, segment_tb(a, rate), g, 2, 1


# name -> (shape builder, rv, digest)
DL_GOLDEN = {
    "phy_test_rv0": (_phy_test_dl, 0,
        "2cba5e04a91bcd5aec56415c4b0ffd6cd34bc954687950540400f7c917a770df"),
    "phy_test_rv1": (_phy_test_dl, 1,
        "6465536d44d643615418691c4288897087872d06a15a08ee7702d180d775d8a3"),
    "phy_test_rv2": (_phy_test_dl, 2,
        "8b760e52f4c0f14723f6af925a340ec44d800098d4a961882abfd7c1d0f08f15"),
    "phy_test_rv3": (_phy_test_dl, 3,
        "44d3b1e8d9a6fdda04f1667b79905bd99702ef4025e9171af9b933a07b25df89"),
    # BG2, three CBs with 181 filler bits each
    "bg2_filler_rv0": (lambda: _small(8000, 0.2, 3 * 13_000), 0,
        "0f7cbb58ef647cd45f364c34c6aedf602bc6dc73a5da0634e850e1af407c9e69"),
    "bg2_filler_rv2": (lambda: _small(8000, 0.2, 3 * 13_000), 2,
        "19696b21c47764c7bd6e4c00ff80e3d11efc689f94bdac8e5c16a8e212b98da4"),
    # E = 3 Ncb: selection wraps the circular buffer
    "repetition_wrap_rv1": (lambda: _small(500, 0.5, 3 * 3600), 1,
        "ebda6809306a81f50c98d4560222a78df5cfe047269f8748f3e01e48f0575381"),
}


@pytest.mark.parametrize("name", list(DL_GOLDEN))
def test_dl_streams_match_their_recorded_digest(name):
    shape, rv, expected = DL_GOLDEN[name]
    tbs, plan, g, qm, layers = shape()
    enc = encode_tb(_payload(tbs, 9), plan, g, qm, layers, rv)
    assert sum(p.e for p in enc.params) == g
    assert _streams_digest(enc.streams) == expected, name


# a two-TB slot whose TBs have different plans (BG1 with CB CRCs, BG2)
SLOT_DIGEST = (
        "a0eb0d5db992efb83e8ad45d89528ad4a6e2af249751704bcd5d4c39219b13fc")


@pytest.mark.parametrize("generation", list(InterfaceGeneration),
                         ids=lambda g: g.value)
def test_two_tb_slot_streams_match_their_recorded_digest(generation):
    jobs = []
    for ue, (prbs, mcs, table, layers) in enumerate(
            [(120, 20, "T2", 2), (30, 5, "T1", 1)]):
        tbs = compute_tbs(prbs, 12, layers, mcs, table)
        jobs.append(TransportBlockJob(
            ue_id=ue, payload=_payload(tbs, 10 + ue), mcs_index=mcs,
            mcs_table=table, layers=layers, prb_share=prbs))
    result = encode_slot(
        SlotCodingRequest(jobs=jobs, interface_generation=generation),
        SoftwareBackend())
    streams = [s for jr in result.job_results for s in jr.streams]
    assert _streams_digest(streams) == SLOT_DIGEST


# sha256 of the port grid (complex128, ports x symbols x subcarriers) that
# run_dl_slot precodes for a seeded phy-test TB of RNTI 3. The default
# identity weights make every product exact, so no machine rounds it
# differently.
PORT_GRID_DIGEST = (
        "a33fcdc965b84337d84e094e7c836f45b5c775745ec9984996902d73a20dbea1")


def test_dl_port_grid_matches_its_recorded_digest(monkeypatch):
    grids = []
    real = highphy.precode_and_map

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        grids.append(hashlib.sha256(result.data.tobytes()).hexdigest())
        return result

    monkeypatch.setattr(highphy, "precode_and_map", spy)
    t = PhyTestTraffic()
    tbs, *_ = _phy_test_dl()
    job = TransportBlockJob(
        ue_id=3, payload=_payload(tbs, 9), mcs_index=t.dl_mcs,
        mcs_table=t.dl_table, layers=t.dl_layers, prb_share=t.prbs)
    highphy.run_dl_slot(highphy.CellConfig(overhead=t.overhead), [job],
                        SoftwareBackend())
    assert grids == [PORT_GRID_DIGEST], grids


# sha256 of UL decodes at the phy-test shape (36 BG1 CBs): each
# transmission (rv, sigma) of one seeded TB is combined into the same soft
# buffers and decoded, and every decode's per-CB iterations, CB CRC
# verdicts and TB payload are hashed in order. Recorded on the layered
# min-sum decoder with int16 LLRs, where each CB leaves after the first
# pass whose segment CRC passes.
UL_GOLDEN = {
    "rv0_sigma0.44": (((0, 0.44),),
        "418143b6900fb681024c1e979e591193e87831b5e6352fc8eafb8e25a1d3ba6e"),
    "rv0_sigma0.625": (((0, 0.625),),
        "7b9ed8df5295f38a22def15631168c73fe1ddbfc3031a5ceee139b7d69da6951"),
    "rv0_sigma0.625+rv2_sigma0.44": (((0, 0.625), (2, 0.44)),
        "fe694ccd1fd66bfecb6502af6f070b2a381b41f3b97378d8e2d1b7cb3fb6650f"),
}


@pytest.mark.parametrize("name", list(UL_GOLDEN))
def test_ul_decodes_match_their_recorded_digest(name):
    transmissions, expected = UL_GOLDEN[name]
    tbs, plan, g, qm, layers = _phy_test("ul")
    payload = _payload(tbs, 11)
    rng = np.random.default_rng(12)
    buffers = [new_soft_buffer(plan) for _ in range(plan.num_cbs)]
    h = hashlib.sha256()
    for rv, sigma in transmissions:
        enc = encode_tb(payload, plan, g, qm, layers, rv)
        out = decode_tb([awgn_llrs(s, sigma, rng) for s in enc.streams],
                        plan, enc.params, buffers)
        h.update(np.asarray(out.iterations, dtype=np.int32).tobytes())
        h.update(np.asarray(out.cb_crc_ok, dtype=np.uint8).tobytes())
        h.update(out.payload.tobytes())
    assert h.hexdigest() == expected, f"{name}: {h.hexdigest()}"


# sha256 of HARQ retransmission sets decoded through ``decode_slot``: a
# faded first transmission of the UL test TB (25 of its 36 CBs pass), then
# retransmissions combined in one HARQ process. Every transmission's CB
# verdicts, TB verdict and payload are hashed in order; iteration counts
# are not, since a CB that passed is not decoded again. Recorded on the
# int16 decoder. The first set's verdicts are those of the same UL_GOLDEN
# transmissions, where every CB is decoded again, so keeping the passed
# CBs changes no decision. A retransmission decodes exactly the CBs that
# had failed.
HARQ_GOLDEN = {
    "rv0_sigma0.625+rv2_sigma0.44": (((0, 0.625), (2, 0.44)),
        "01cedb433546ca0cf732321753d952e60cb3196ccc7dadb7cb14435f4ed01697"),
    "rv0_sigma0.625+rv2_sigma3.0+rv3_sigma0.6": (
        ((0, 0.625), (2, 3.0), (3, 0.6)),
        "30f492770caf8131bd6db11cc0e5513edc94965c8d625e20f8a0352d187c310a"),
}


@pytest.mark.parametrize("name", list(HARQ_GOLDEN))
def test_harq_retransmissions_match_their_recorded_digest(name,
                                                         monkeypatch):
    transmissions, expected = HARQ_GOLDEN[name]
    decodes = []
    real = pipeline.ldpc_decode_batch

    def counted(buffers, *args):
        decodes.extend(buffers)
        return real(buffers, *args)

    monkeypatch.setattr(pipeline, "ldpc_decode_batch", counted)
    t = PhyTestTraffic()
    tbs, plan, g, qm, layers = _phy_test("ul")
    payload = _payload(tbs, 11)
    rng = np.random.default_rng(12)
    backend, harq = SoftwareBackend(), HarqPool()
    h = hashlib.sha256()
    failed = plan.num_cbs
    for tx, (rv, sigma) in enumerate(transmissions):
        decodes.clear()
        enc = encode_tb(payload, plan, g, qm, layers, rv)
        job = TransportBlockJob(
            ue_id=0, payload=None, mcs_index=t.ul_mcs, mcs_table=t.ul_table,
            layers=layers, prb_share=t.prbs, rv=rv, harq_pid=3,
            new_data=tx == 0,
            llr_streams=[awgn_llrs(s, sigma, rng) for s in enc.streams])
        jr = decode_slot(SlotCodingRequest(
            jobs=[job], symbols=t.symbols, overhead=t.overhead),
            backend, harq).job_results[0]
        assert len(decodes) == failed
        failed = jr.cb_crc_ok.count(False)
        h.update(np.asarray(jr.cb_crc_ok, dtype=np.uint8).tobytes())
        h.update(np.uint8(jr.tb_crc_ok).tobytes())
        h.update(jr.payload.tobytes())
    assert h.hexdigest() == expected, f"{name}: {h.hexdigest()}"
