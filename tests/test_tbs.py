from fractions import Fraction
from math import ceil, floor, log2

import pytest

from vranphy.errors import InvalidConfigError
from vranphy.nr import compute_tbs, mcs_params, resource_elements
from vranphy.nr.mcs import MCS_TABLE_1, MCS_TABLE_2, TBS_QUANTIZED

# Independent oracle: the size-determination procedure written out
# separately (floats everywhere the scaled sizes are integral anyway).


def tbs_oracle(prbs, symbols, layers, qm, rate, overhead=0):
    n_re = min(156, 12 * symbols - overhead) * prbs
    n_info = Fraction(n_re * qm * layers) * rate
    if n_info <= 3824:
        n = max(3, floor(log2(float(n_info))) - 6)
        quant = max(24, (1 << n) * (int(n_info) // (1 << n)))
        return min(t for t in TBS_QUANTIZED if t >= quant)
    n = floor(log2(float(n_info - 24))) - 5
    step = 1 << n
    quant = max(3840, step * floor((n_info - 24) / step + Fraction(1, 2)))
    if rate <= Fraction(1, 4):
        c = ceil((quant + 24) / 3816)
    elif quant > 8424:
        c = ceil((quant + 24) / 8424)
    else:
        c = 1
    return 8 * c * ceil((quant + 24) / (8 * c)) - 24


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfigError):
        compute_tbs(0, 12, 1, 0, "T1")
    with pytest.raises(InvalidConfigError):
        compute_tbs(1, 12, 1, 99, "T1")
    with pytest.raises(InvalidConfigError):
        compute_tbs(1, 12, 5, 0, "T1")
    with pytest.raises(InvalidConfigError):
        compute_tbs(1, 12, 1, 0, "T9")


def test_small_config_against_oracle():
    qm, rate = mcs_params(0, "T1")
    assert compute_tbs(1, 12, 1, 0, "T1") == tbs_oracle(1, 12, 1, qm, rate)


def test_sweep_against_oracle():
    for table, entries in (("T1", MCS_TABLE_1), ("T2", MCS_TABLE_2)):
        for mcs in range(0, len(entries), 3):
            qm, rate = mcs_params(mcs, table)
            for prbs in (1, 4, 20, 51, 137, 273):
                for layers in (1, 2, 4):
                    got = compute_tbs(prbs, 12, layers, mcs, table)
                    want = tbs_oracle(prbs, 12, layers, qm, rate)
                    assert got == want, (table, mcs, prbs, layers)


def test_dl_target_config_supports_1200_mbps():
    # full-grid 4-layer 256QAM allocation; three of five slots carry DL
    tbs = compute_tbs(273, 12, 4, 27, "T2", overhead=12)
    d_slots_per_second = 1200
    assert tbs * d_slots_per_second >= 1.2e9


def test_ul_target_config_supports_90_mbps():
    tbs = compute_tbs(273, 12, 2, 16, "T2", overhead=12)
    u_slots_per_second = 400
    assert tbs * u_slots_per_second >= 90e6


def test_monotone_in_prbs():
    qm, rate = mcs_params(10, "T2")
    values = [compute_tbs(p, 12, 1, 10, "T2") for p in range(1, 120)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_resource_elements_cap():
    assert resource_elements(2, 14, 0) == 156 * 2
    assert resource_elements(2, 12, 0) == 144 * 2
    for args in ((0, 12), (274, 12), (1, 0), (1, 15), (1, 1, 24)):
        with pytest.raises(InvalidConfigError):
            resource_elements(*args)


def test_negative_overhead_rejected():
    with pytest.raises(InvalidConfigError):
        resource_elements(10, 12, -3)
    with pytest.raises(InvalidConfigError):
        compute_tbs(10, 12, 1, 5, "T1", overhead=-1)
