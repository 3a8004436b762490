from dataclasses import replace

import numpy as np
import pytest

from vranphy.backends.emulated import make_emulated
from vranphy.backends.model import JitterSpec
from vranphy.deployment import PhyTestTraffic
from vranphy.errors import InvalidConfigError
from vranphy.highphy import (CellConfig, PrecodeMode, ResourceGrid,
                             layer_grid, precode_and_map, run_dl_slot,
                             run_ul_slot, tdd_slot_kind)
from vranphy.nr import compute_tbs
from vranphy.slot_coding import TransportBlockJob


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


def test_vector_precoding_matches_scalar_oracle_bit_for_bit(rng):
    """Weights whose products with the grid are exact (the default
    identity, and dyadic complex values) leave no rounding to differ."""
    cfg = CellConfig(prbs=4)
    grid = layer_grid(cfg, layers=3, seed=7)
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
    grid = layer_grid(CellConfig(prbs=4), layers=3, seed=7)
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    got = precode_and_map(grid, w).data
    ref = _precode_scalar(w, grid.data)
    scale = np.abs(w).sum(axis=1).max() * np.abs(grid.data).max()
    assert np.abs(got - ref).max() <= 8 * np.finfo(np.float64).eps * scale


def test_precoding_rejects_mismatched_weights():
    grid = layer_grid(CellConfig(prbs=1), layers=2)
    with pytest.raises(InvalidConfigError):
        precode_and_map(grid, np.eye(4, 3))
    with pytest.raises(InvalidConfigError):
        precode_and_map(grid, np.eye(4, 2), mode="workers")


def test_grid_rejects_non_finite_values():
    with pytest.raises(InvalidConfigError):
        ResourceGrid(np.full((1, 1, 1), np.nan))


def test_tdd_slot_kind_repeats_the_pattern():
    assert [tdd_slot_kind(k, "DDDSU") for k in range(7)] == \
        list("DDDSUDD")
    assert tdd_slot_kind(3, "DU") == "U"
    for bad in ("", "DDX"):
        with pytest.raises(InvalidConfigError):
            tdd_slot_kind(0, bad)
        with pytest.raises(InvalidConfigError):
            CellConfig(tdd_pattern=bad)


def test_slot_runners_check_the_slot_kind(t2_quiet):
    cfg = CellConfig()
    handle = t2_quiet.allocator.open_queue(0, device=t2_quiet)
    with pytest.raises(InvalidConfigError):
        run_dl_slot(cfg, [], handle, slot_id=4)      # U slot
    for slot in (0, 3):                               # D and S slots
        with pytest.raises(InvalidConfigError):
            run_ul_slot(cfg, [], handle, slot_id=slot)


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
    handle = device.allocator.open_queue(0, device=device)
    cell = CellConfig(overhead=t.overhead)
    records = []
    for _ in range(3):
        rec, coding = run_dl_slot(cell, [job], handle, slot_id=0)
        assert rec.total_us == 407.0 + coding.total_elapsed_us
        assert rec.deadline_met
        records.append(replace(rec, precode_wall_us=None))
    assert records[0] == records[1] == records[2]
