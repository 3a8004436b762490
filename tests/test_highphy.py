from dataclasses import replace

import numpy as np
import pytest

from vranphy import highphy
from vranphy.backends import SoftwareBackend
from vranphy.backends.emulated import make_emulated
from vranphy.backends.model import JitterSpec
from vranphy.deployment import PhyTestTraffic
from vranphy.errors import InvalidConfigError, ResourceExhaustedError
from vranphy.highphy import (CellConfig, PrecodeMode, ResourceGrid,
                             precode_and_map, run_dl_slot, run_ul_slot,
                             tdd_slot_kind)
from vranphy.nr import compute_tbs, mcs_params, noiseless_llrs
from vranphy.nr.mcs import SUBCARRIERS_PER_PRB, SYMBOLS_PER_SLOT
from vranphy.nr.modulation import (constellation, gold_sequence, layer_map,
                                   modulate, scramble, scrambling_init,
                                   symbol_indices)
from vranphy.slot_coding import HarqPool, TransportBlockJob


def _precode_scalar(w, x):
    """Per-element reference: accumulate over layers in index order."""
    ports, nl = w.shape
    _, n_sym, n_sc = x.shape
    out = np.zeros((ports, n_sym, n_sc), dtype=np.complex128)
    zero = np.complex128(0)
    for p in range(ports):
        wp = [w[p, l] for l in range(nl)]
        for s in range(n_sym):
            for c in range(n_sc):
                acc = zero
                for l in range(nl):
                    acc = acc + wp[l] * x[l, s, c]
                out[p, s, c] = acc
    return out


def _qpsk_layer_grid(cfg: CellConfig, layers: int, seed: int
                     ) -> ResourceGrid:
    """A layer grid filled with QPSK symbols from seeded bits, scrambled,
    modulated and layer-mapped."""
    count = layers * SYMBOLS_PER_SLOT * cfg.subcarriers
    bits = np.random.default_rng(seed).integers(0, 2, 2 * count,
                                                dtype=np.uint8)
    packed = scramble(bits, scrambling_init(seed))
    x = layer_map(modulate(symbol_indices(packed, 2, count), 2), layers)
    return ResourceGrid(x.reshape(layers, SYMBOLS_PER_SLOT, -1))


def test_vector_precoding_matches_scalar_oracle_bit_for_bit(rng):
    """Weights whose products with the grid are exact (the default
    identity, and dyadic complex values) leave no rounding to differ."""
    cfg = CellConfig(prbs=4)
    grid = _qpsk_layer_grid(cfg, layers=3, seed=7)
    dyadic = (rng.integers(-1, 2, (4, 3))
              + 1j * rng.integers(-1, 2, (4, 3))) / 2
    for w in (np.eye(4, 3), dyadic):
        got = precode_and_map(grid, w, mode=PrecodeMode.VECTOR).data
        ref = _precode_scalar(w, grid.data)
        assert got.shape == (4, 14, cfg.subcarriers)
        assert np.array_equal(got.view(np.float64), ref.view(np.float64))


def test_vector_precoding_matches_scalar_oracle_to_rounding(rng):
    """NumPy's vectorized complex multiply may round an element
    differently from its scalar multiply, by at most a few ulps."""
    grid = _qpsk_layer_grid(CellConfig(prbs=4), layers=3, seed=7)
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    got = precode_and_map(grid, w).data
    ref = _precode_scalar(w, grid.data)
    scale = np.abs(w).sum(axis=1).max() * np.abs(grid.data).max()
    assert np.abs(got - ref).max() <= 8 * np.finfo(np.float64).eps * scale


def test_zero_weights_are_skipped_without_changing_a_bit(rng):
    """Adding every term, zero weights included, gives the same bytes."""
    grid = _qpsk_layer_grid(CellConfig(prbs=4), layers=3, seed=7)
    x = grid.data
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w[rng.random((4, 3)) < 0.5] = 0
    w[0, 0] = -0.0
    every_term = np.zeros((4, *x.shape[1:]), dtype=complex)
    for p in range(4):
        for l in range(3):
            every_term[p] += w[p, l] * x[l]
    got = precode_and_map(grid, w).data
    assert got.tobytes() == every_term.tobytes()


def test_precoding_rejects_mismatched_weights():
    grid = ResourceGrid(np.zeros((2, SYMBOLS_PER_SLOT, SUBCARRIERS_PER_PRB)))
    with pytest.raises(InvalidConfigError):
        precode_and_map(grid, np.eye(4, 3))
    with pytest.raises(InvalidConfigError):
        precode_and_map(grid, np.eye(4, 2), mode="workers")


def test_precoding_rejects_an_output_of_another_shape_or_type():
    grid = ResourceGrid(np.zeros((2, SYMBOLS_PER_SLOT, SUBCARRIERS_PER_PRB)))
    for out in (np.zeros((3, SYMBOLS_PER_SLOT, SUBCARRIERS_PER_PRB), complex),
                np.zeros((4, SYMBOLS_PER_SLOT, SUBCARRIERS_PER_PRB),
                         np.complex64)):
        with pytest.raises(InvalidConfigError):
            precode_and_map(grid, np.eye(4, 2), out=out)


def test_precoding_writes_into_out(rng):
    grid = ResourceGrid(rng.standard_normal((2, SYMBOLS_PER_SLOT, 24)))
    w = rng.standard_normal((3, 2))
    out = np.full((3, SYMBOLS_PER_SLOT, 24), np.nan, dtype=complex)
    got = precode_and_map(grid, w, out=out)
    assert got.data is out
    assert np.array_equal(out, precode_and_map(grid, w).data)


def test_precoding_in_place_matches_a_separate_output(rng):
    """An ``out`` whose first rows are the layer grid gets the bytes a
    separate output gets."""
    x = rng.standard_normal((2, SYMBOLS_PER_SLOT, 24)) \
        + 1j * rng.standard_normal((2, SYMBOLS_PER_SLOT, 24))
    w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    expected = precode_and_map(ResourceGrid(x), w).data
    out = np.full((3, SYMBOLS_PER_SLOT, 24), np.nan, dtype=complex)
    out[:2] = x
    precode_and_map(ResourceGrid(out[:2]), w, out=out)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
def test_precoding_rejects_non_finite_weights(bad):
    """Weights are checked on entry, before anything is written, since
    the port grid precoded from them is not scanned afterwards."""
    grid = ResourceGrid(np.ones((2, SYMBOLS_PER_SLOT, SUBCARRIERS_PER_PRB)))
    w = np.eye(3, 2, dtype=np.complex128)
    w[2, 1] = bad
    out = np.zeros((3, SYMBOLS_PER_SLOT, SUBCARRIERS_PER_PRB), complex)
    with pytest.raises(InvalidConfigError):
        precode_and_map(grid, w, out=out)
    assert not out.any()        # rejected before anything is written


def test_grid_rejects_non_finite_values():
    with pytest.raises(InvalidConfigError):
        ResourceGrid(np.full((1, 1, 1), np.nan))


def test_tdd_slot_kind_repeats_the_pattern():
    assert [tdd_slot_kind(k) for k in range(7)] == list("DDDSUDD")


@pytest.mark.parametrize("field, value", [
    ("prbs", 0), ("prbs", 274), ("symbols", 0), ("symbols", 15),
    ("overhead", -1), ("tx_antennas", 0),
    ("overhead", 144)])     # 12 symbols of 12 subcarriers: no RE left
def test_cell_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(InvalidConfigError):
        CellConfig(**{field: value})


def _job(ue_id, prbs, mcs, layers, cfg, seed=0):
    tbs = compute_tbs(prbs, cfg.symbols, layers, mcs, "T2", cfg.overhead)
    return TransportBlockJob(
        ue_id=ue_id, payload=np.random.default_rng(seed).integers(0, 2, tbs),
        mcs_index=mcs, mcs_table="T2", layers=layers, prb_share=prbs)


@pytest.mark.parametrize("cfg, jobs, run_slot", [
    # more layers than antennas: the identity weights would drop layer 2
    (CellConfig(prbs=4, tx_antennas=2), [(0, 4, 5, 3)], run_dl_slot),
    # PRB shares past the cell, on either link
    (CellConfig(prbs=10), [(0, 6, 5, 1), (1, 5, 5, 1)], run_dl_slot),
    (CellConfig(prbs=10), [(0, 50, 5, 1)], run_ul_slot),
    # an RNTI outside 16 bits
    (CellConfig(prbs=4), [(65536, 4, 5, 1)], run_dl_slot),
    (CellConfig(prbs=4), [(-1, 4, 5, 1)], run_dl_slot),
], ids=["layers", "prbs", "prbs-ul", "rnti-high", "rnti-negative"])
def test_dl_slot_rejects_jobs_the_cell_cannot_carry(cfg, jobs, run_slot):
    with pytest.raises(InvalidConfigError):
        run_slot(cfg, [_job(*j, cfg) for j in jobs], SoftwareBackend())


def test_slot_runners_check_the_slot_kind(t2_quiet):
    cfg = CellConfig()
    with pytest.raises(InvalidConfigError):
        run_dl_slot(cfg, [], t2_quiet, slot_id=4)    # U slot
    for slot in (0, 3):                               # D and S slots
        with pytest.raises(InvalidConfigError):
            run_ul_slot(cfg, [], t2_quiet, slot_id=slot)


def test_slot_runners_take_what_the_benchmark_opens():
    """perfbench's call path: open queue 0 of a one-worker software
    backend, which hands the backend back, and run a DL and a UL slot on
    it. The backend's 64 queue indices run out at the 65th open."""
    backend = SoftwareBackend(worker_count=1)
    device = backend.allocator.open_queue(0, device=backend)
    assert device is backend
    cfg = CellConfig(prbs=4)
    job = _job(0, 4, 5, 1, cfg)
    _, dl = run_dl_slot(cfg, [job], device, mode=PrecodeMode.VECTOR,
                        slot_id=0)
    ul = replace(job, payload=None, llr_streams=[
        noiseless_llrs(s) for s in dl.job_results[0].streams])
    _, coding = run_ul_slot(cfg, [ul], device, harq=HarqPool(), slot_id=4)
    assert coding.job_results[0].tb_crc_ok
    np.testing.assert_array_equal(coding.job_results[0].payload, job.payload)
    for i in range(1, 64):
        backend.allocator.open_queue(i, device=backend)
    with pytest.raises(ResourceExhaustedError):
        backend.allocator.open_queue(64, device=backend)


@pytest.mark.parametrize("backend", ["t2-emulated", "vran-boost-emulated"])
def test_dl_slot_total_is_the_harness_rule_in_virtual_time(backend, rng):
    """At the phy-test DL shape a DL slot costs 407 us besides its coding,
    as in the deployment harness. Precoding runs on the host's wall clock
    and stays out of the total, so on an emulated device the verdict and
    the record do not depend on the host."""
    t = PhyTestTraffic()
    tbs = compute_tbs(t.prbs, t.symbols, t.dl_layers, t.dl_mcs, t.dl_table,
                      t.overhead)
    job = TransportBlockJob(ue_id=0, payload=rng.integers(0, 2, tbs),
                            mcs_index=t.dl_mcs, mcs_table=t.dl_table,
                            layers=t.dl_layers, prb_share=t.prbs)
    device = make_emulated(backend, spike=JitterSpec())
    cell = CellConfig(overhead=t.overhead)
    records = []
    for _ in range(3):
        rec, coding = run_dl_slot(cell, [job], device, slot_id=0)
        assert rec.total_us == 407.0 + coding.total_elapsed_us
        assert rec.deadline_met
        records.append(replace(rec, precode_wall_us=None))
    assert records[0] == records[1] == records[2]


@pytest.fixture
def precoded(monkeypatch):
    """Copies of the layer grid and port grid of each precoding call."""
    calls = []
    real = highphy.precode_and_map

    def spy(layers, weights, mode=PrecodeMode.VECTOR, out=None):
        before = layers.data.copy()      # the port grid may overwrite it
        result = real(layers, weights, mode=mode, out=out)
        calls.append((before, result.data.copy()))
        return result

    monkeypatch.setattr(highphy, "precode_and_map", spy)
    return calls


def _demap_job(grid, cfg, job, first_prb, n_bits):
    """The rate-matched bits a job's REs carry, read back by the mapping
    rule of ``highphy``: hard demap, then descramble. Asserts that the
    REs of its region that carry none of them are 0."""
    qm, _ = mcs_params(job.mcs_index, job.mcs_table)
    sc = SUBCARRIERS_PER_PRB * first_prb
    region = grid[:, SYMBOLS_PER_SLOT - cfg.symbols:,
                  sc:sc + SUBCARRIERS_PER_PRB * job.prb_share]
    res = region.reshape(len(grid), -1)              # frequency-first
    start = cfg.overhead * job.prb_share
    count = n_bits // qm // job.layers
    data = res[:job.layers, start:start + count]
    assert not res[:job.layers, :start].any()
    assert not res[:job.layers, start + count:].any()
    assert not res[job.layers:].any()
    symbols = data.T.reshape(-1)                     # d(layers * i + v)
    points = constellation(qm)
    idx = np.abs(symbols[:, None] - points[None, :]).argmin(axis=1)
    bits = ((idx[:, None] >> np.arange(qm - 1, -1, -1)) & 1).reshape(-1)
    sequence = np.unpackbits(
        gold_sequence(scrambling_init(job.ue_id), n_bits), count=n_bits)
    return (bits ^ sequence).astype(np.uint8)


@pytest.mark.parametrize("mcs, qm", [(2, 2), (6, 4), (13, 6), (22, 8)])
def test_dl_slot_maps_the_encoded_streams_for_each_qm(mcs, qm, precoded):
    cfg = CellConfig(prbs=3, overhead=12)
    job = _job(41, 3, mcs, 2, cfg, seed=mcs)
    assert mcs_params(mcs, "T2")[0] == qm
    _, coding = run_dl_slot(cfg, [job], SoftwareBackend())
    (layers, ports), = precoded
    streams = np.concatenate(coding.job_results[0].streams)
    assert np.array_equal(
        _demap_job(layers, cfg, job, 0, streams.size), streams)
    assert not layers[:, :SYMBOLS_PER_SLOT - cfg.symbols].any()
    assert np.array_equal(ports[:2], layers) and not ports[2:].any()


def test_dl_slot_maps_two_jobs_with_different_layer_counts(precoded):
    """Jobs take PRBs in request order; the cell's REs beyond a job's
    symbols (156 per PRB at 14 symbols) and its last PRB stay 0."""
    cfg = CellConfig(prbs=6, symbols=14, overhead=6)
    jobs = [_job(3, 3, 11, 1, cfg, seed=1), _job(9, 2, 20, 3, cfg, seed=2)]
    _, coding = run_dl_slot(cfg, jobs, SoftwareBackend())
    (layers, _), = precoded
    assert layers.shape == (3, SYMBOLS_PER_SLOT, cfg.subcarriers)
    first_prb = 0
    for job, result in zip(jobs, coding.job_results):
        streams = np.concatenate(result.streams)
        assert np.array_equal(
            _demap_job(layers, cfg, job, first_prb, streams.size), streams)
        first_prb += job.prb_share
    assert not layers[:, :, SUBCARRIERS_PER_PRB * first_prb:].any()
