from math import ceil

import numpy as np
import pytest

from vranphy.errors import InvalidConfigError
from vranphy.nr import (assemble_payload, compute_tbs, encode_tb,
                        mcs_params, segment_tb, split_payload)
from vranphy.nr.basegraph import lifting_sizes
from vranphy.nr.segmentation import select_base_graph


def segmentation_oracle(a, rate):
    """Arithmetic oracle over the size/rate thresholds."""
    bg = 2 if (a <= 292 or (a <= 3824 and rate <= 0.67) or rate <= 0.25) \
        else 1
    b = a + (24 if a > 3824 else 16)
    kcb = 8448 if bg == 1 else 3840
    if b <= kcb:
        c, b_prime = 1, b
    else:
        c = ceil(b / (kcb - 24))
        b_prime = b + 24 * c
    k_prime = ceil(b_prime / c)
    if bg == 1:
        kb = 22
    elif b <= 192:
        kb = 6
    elif b <= 560:
        kb = 8
    elif b <= 640:
        kb = 9
    else:
        kb = 10
    z = min(x for x in lifting_sizes() if kb * x >= k_prime)
    return bg, c, z, k_prime


def test_single_bg2_segment():
    plan = segment_tb(100, 0.3)
    assert plan.base_graph == 2
    assert plan.num_cbs == 1
    assert not plan.cb_crc_present


def test_one_bit_above_single_segment_limit_bg1():
    # the largest single-segment payload: A + 24-bit CRC == 8448
    at_limit = segment_tb(8424, 0.8)
    assert (at_limit.num_cbs, at_limit.base_graph) == (1, 1)
    over = segment_tb(8425, 0.8)
    assert over.num_cbs == 2
    assert over.cb_crc_present


def test_reference_full_slot_tb_has_26_segments():
    qm, rate = mcs_params(28, "T1")
    tbs = compute_tbs(273, 12, 1, 28, "T1", overhead=0)
    plan = segment_tb(tbs, rate)
    assert plan.num_cbs == 26
    assert plan.base_graph == 1
    assert plan.lifting_size == 384


def test_against_oracle_sweep(rng):
    rates = [0.12, 0.25, 0.3, 0.67, 0.7, 0.85, 948 / 1024]
    sizes = list(rng.integers(1, 300000, 60)) + [1, 24, 292, 293, 3824,
                                                 3825, 8424, 8425]
    for a in sizes:
        for r in rates:
            plan = segment_tb(int(a), r)
            bg, c, z, k_prime = segmentation_oracle(int(a), r)
            assert plan.base_graph == bg, (a, r)
            assert plan.num_cbs == c, (a, r)
            assert plan.lifting_size == z, (a, r)
            assert plan.k_prime == k_prime, (a, r)
            # invariant: C * k' covers payload plus segment CRCs
            b = plan.tb_size_bits
            need = b + (c * 24 if c > 1 else 0)
            assert c * k_prime >= need


def test_monotone_num_cbs_in_tb_size():
    rate = 0.7
    last = 0
    for a in range(1000, 120000, 997):
        c = segment_tb(a, rate).num_cbs
        assert c >= last
        last = c


def test_split_and_assemble_round_trip(rng):
    qm, rate = mcs_params(28, "T1")
    tbs = compute_tbs(60, 12, 1, 28, "T1")
    plan = segment_tb(tbs, rate)
    assert plan.num_cbs > 1
    payload = rng.integers(0, 2, tbs).astype(np.uint8)
    cbs = split_payload(payload, plan)
    assert all(cb.size == plan.k for cb in cbs)
    infos = [cb[: plan.k_prime] for cb in cbs]
    back, tb_ok = assemble_payload(infos, plan)
    assert tb_ok
    np.testing.assert_array_equal(back, payload)


def test_corrupted_segment_flagged(rng):
    qm, rate = mcs_params(28, "T1")
    tbs = compute_tbs(60, 12, 1, 28, "T1")
    plan = segment_tb(tbs, rate)
    payload = rng.integers(0, 2, tbs).astype(np.uint8)
    cbs = split_payload(payload, plan)
    infos = [cb[: plan.k_prime].copy() for cb in cbs]
    infos[1][5] ^= 1
    _, tb_ok = assemble_payload(infos, plan)
    assert not tb_ok


def test_base_graph_rule_boundaries():
    assert select_base_graph(292, 0.9) == 2
    assert select_base_graph(293, 0.9) == 1
    assert select_base_graph(3824, 0.67) == 2
    assert select_base_graph(3824, 0.68) == 1
    assert select_base_graph(100000, 0.25) == 2


def test_tiny_and_invalid_sizes():
    plan = segment_tb(1, 0.5)
    assert plan.num_cbs == 1
    with pytest.raises(InvalidConfigError):
        segment_tb(0, 0.5)


def test_non_binary_payload_rejected():
    plan = segment_tb(300, 0.5)
    with pytest.raises(InvalidConfigError):
        encode_tb(np.full(300, 2, np.uint8), plan, 2 * 400, qm=2, layers=1)
    for value in (2, -1, 0.5):
        payload = np.zeros(300, dtype=np.asarray(value).dtype)
        payload[17] = value
        with pytest.raises(InvalidConfigError):
            split_payload(payload, plan)
    split_payload(np.ones(300, dtype=bool), plan)
