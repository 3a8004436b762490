"""The NR resource grid, MCS tables and transport-block size determination.

The grid (TS 38.211 4.4) is stated here once: a PRB is
``SUBCARRIERS_PER_PRB`` subcarriers wide, a slot has ``SYMBOLS_PER_SLOT``
OFDM symbols and a carrier at most ``MAX_PRBS`` PRBs. ``check_allocation``
is the one bounds rule for an allocation of PRBs, symbols and per-PRB
overhead; the cell, the deployment's traffic and ``resource_elements`` all
apply it. The TDD pattern and the slot-kind rule live in ``highphy``.

``compute_tbs`` follows the shared-channel TBS procedure: resource-element
counting per PRB (capped at 156), intermediate information size
``N_RE * R * Qm * layers`` carried exactly as a rational, quantization, and
the segment-aligned final size for payloads above 3824 bits.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from ..errors import InvalidConfigError

SUBCARRIERS_PER_PRB = 12
SYMBOLS_PER_SLOT = 14
MAX_PRBS = 273

# (modulation order Qm, code rate numerator; rate = num / 1024)
# 64QAM table
MCS_TABLE_1 = [
    (2, 120), (2, 157), (2, 193), (2, 251), (2, 308), (2, 379), (2, 449),
    (2, 526), (2, 602), (2, 679), (4, 340), (4, 378), (4, 434), (4, 490),
    (4, 553), (4, 616), (4, 658), (6, 438), (6, 466), (6, 517), (6, 567),
    (6, 616), (6, 666), (6, 719), (6, 772), (6, 822), (6, 873), (6, 910),
    (6, 948),
]
# 256QAM table; half-step rates stored as exact fractions
MCS_TABLE_2 = [
    (2, 120), (2, 193), (2, 308), (2, 449), (2, 602), (4, 378), (4, 434),
    (4, 490), (4, 553), (4, 616), (4, 658), (6, 466), (6, 517), (6, 567),
    (6, 616), (6, 666), (6, 719), (6, 772), (6, 822), (6, 873),
    (8, Fraction(1365, 2)), (8, 711), (8, 754), (8, 797), (8, 841),
    (8, 885), (8, Fraction(1833, 2)), (8, 948),
]

_TABLES = {"T1": MCS_TABLE_1, "T2": MCS_TABLE_2}

# quantized sizes for intermediate information lengths up to 3824 bits
TBS_QUANTIZED = [
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144,
    152, 160, 168, 176, 184, 192, 208, 224, 240, 256, 272, 288, 304, 320,
    336, 352, 368, 384, 408, 432, 456, 480, 504, 528, 552, 576, 608, 640,
    672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160,
    1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672, 1736,
    1800, 1864, 1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472, 2536, 2600,
    2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496, 3624, 3752, 3824,
]


def mcs_params(mcs_index: int, mcs_table: str) -> tuple[int, Fraction]:
    """(Qm, code rate) for an MCS index; raises on invalid entries."""
    table = _TABLES.get(mcs_table)
    if table is None:
        raise InvalidConfigError(f"unknown MCS table {mcs_table!r}")
    if not 0 <= mcs_index < len(table):
        raise InvalidConfigError(
            f"MCS index {mcs_index} invalid for table {mcs_table}")
    qm, num = table[mcs_index]
    return qm, Fraction(num, 1024)


def check_allocation(prbs: int, symbols: int, overhead: int = 0) -> None:
    """Reject an allocation outside the grid: prbs in 1..MAX_PRBS, symbols
    in 1..SYMBOLS_PER_SLOT, overhead >= 0 and at least one RE per PRB."""
    if not 1 <= prbs <= MAX_PRBS:
        raise InvalidConfigError(f"prbs must be in 1..{MAX_PRBS}")
    if not 1 <= symbols <= SYMBOLS_PER_SLOT:
        raise InvalidConfigError(f"symbols must be in 1..{SYMBOLS_PER_SLOT}")
    if overhead < 0:
        raise InvalidConfigError("overhead must be >= 0")
    if SUBCARRIERS_PER_PRB * symbols <= overhead:
        raise InvalidConfigError("overhead exceeds symbol budget")


def resource_elements(prbs: int, symbols: int, overhead: int = 0) -> int:
    """Allocated REs: min(156, 12*symbols - overhead) per PRB."""
    check_allocation(prbs, symbols, overhead)
    return min(156, SUBCARRIERS_PER_PRB * symbols - overhead) * prbs


def compute_tbs(prbs: int, symbols: int, layers: int, mcs_index: int,
                mcs_table: str = "T1", overhead: int = 0) -> int:
    """Transport-block size in bits for the given allocation."""
    if not 1 <= layers <= 4:
        raise InvalidConfigError("layers must be in 1..4")
    qm, rate = mcs_params(mcs_index, mcs_table)
    n_re = resource_elements(prbs, symbols, overhead)
    n_info = Fraction(n_re * qm * layers) * rate
    if n_info <= 3824:
        n = max(3, _floor_log2(n_info) - 6)
        n_info_q = max(24, (1 << n) * floor(n_info / (1 << n)))
        for t in TBS_QUANTIZED:
            if t >= n_info_q:
                return t
        return TBS_QUANTIZED[-1]
    n = _floor_log2(n_info - 24) - 5
    step = 1 << n
    n_info_q = max(3840, step * _round_half_up((n_info - 24) / step))
    if rate <= Fraction(1, 4):
        c = ceil((n_info_q + 24) / 3816)
    elif n_info_q > 8424:
        c = ceil((n_info_q + 24) / 8424)
    else:
        c = 1
    return 8 * c * ceil((n_info_q + 24) / (8 * c)) - 24


def _floor_log2(x: Fraction) -> int:
    if x <= 0:
        raise InvalidConfigError("information size must be positive")
    q = x.numerator // x.denominator
    if q >= 1:
        return q.bit_length() - 1
    # only reached for sub-1 intermediate sizes, which are invalid configs
    raise InvalidConfigError("information size below one bit")


def _round_half_up(x: Fraction) -> int:
    return floor(x + Fraction(1, 2))
