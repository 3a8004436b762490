"""PDSCH bit-to-symbol stages of 3GPP TS 38.211: scrambling (7.3.1.1)
with the pseudo-random sequence of 5.2.1, modulation mapping (5.1) and
layer mapping (7.3.1.3).

Scrambled bits travel packed, eight to a byte with the first bit most
significant (``np.packbits`` order). Modulation is one table lookup: each
group of Qm bits, b(0) most significant, is the index of its symbol.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from math import gcd

import numpy as np

from ..errors import InvalidConfigError

NC = 1600                    # 5.2.1: the sequence starts Nc bits in
N_ID = 0                     # scrambling identity: one cell, N_ID fixed
MAX_RNTI = 65535
QM = (2, 4, 6, 8)             # modulation orders: QPSK to 256QAM
_X1_INIT = np.eye(1, 31, dtype=np.uint8)[0]     # x1(0) = 1, x1(1..30) = 0


def scrambling_init(rnti: int) -> int:
    """c_init = n_RNTI * 2^15 + q * 2^14 + N_ID of the one codeword
    (q = 0) a transport block of 1 to 4 layers is carried in."""
    if not 0 <= rnti <= MAX_RNTI:
        raise InvalidConfigError(f"RNTI {rnti} outside 0..{MAX_RNTI}")
    return (rnti << 15) + N_ID


def _m_sequence(init, taps: tuple[int, ...], length: int) -> np.ndarray:
    """Bits s(0..length-1) of s(n+31) = s(n) + sum_t s(n+t) mod 2 from
    s(0..30) = init.

    Squaring the recurrence's polynomial j times gives
    s(n+31k) = s(n) + sum_t s(n+tk) mod 2 for k = 2^j, so once 31k bits
    are known the next (31 - max tap) k follow in one vector operation.
    """
    s = np.zeros(max(length, 31), dtype=np.uint8)
    s[:31] = init
    n = 31
    while n < length:
        k = 1 << ((n // 31).bit_length() - 1)
        step = min((31 - max(taps)) * k, length - n)
        base = n - 31 * k
        block = s[n:n + step]
        np.copyto(block, s[base:base + step])
        for t in taps:
            block ^= s[base + t * k:base + t * k + step]
        n += step
    return s[:length]


_SEQUENCES: OrderedDict[int, np.ndarray] = OrderedDict()
_SEQUENCES_LOCK = threading.Lock()
_KEPT_SEQUENCES = 8


def gold_sequence(c_init: int, length: int) -> np.ndarray:
    """The first ``length`` bits of c(n) = x1(n+Nc) + x2(n+Nc) mod 2
    (5.2.1) for ``c_init``, packed, as a read-only view; the bits that pad
    the last byte are those of c(length), c(length + 1), ....

    The sequence of a length is a prefix of that of any longer one, so the
    longest sequence made for each of the last ``_KEPT_SEQUENCES`` c_init
    values asked for is kept and a shorter request reads a prefix of it.
    Only a new c_init or a longer request generates bits, so a DL slot
    generates none when each of its RNTIs is among the last
    ``_KEPT_SEQUENCES`` scrambled and no longer a TB than before."""
    if not 0 <= c_init < 1 << 31:
        raise InvalidConfigError(f"c_init {c_init} outside 0..2^31-1")
    if length < 0:
        raise InvalidConfigError("sequence length must be >= 0")
    size = -(-length // 8)
    with _SEQUENCES_LOCK:
        kept = _SEQUENCES.pop(c_init, None)
        if kept is None or kept.size < size:
            x1 = _m_sequence(_X1_INIT, (3,), NC + 8 * size)
            x2 = _m_sequence((c_init >> np.arange(31)) & 1, (1, 2, 3),
                             NC + 8 * size)
            kept = np.packbits(x1[NC:] ^ x2[NC:])
            kept.flags.writeable = False
        _SEQUENCES[c_init] = kept
        if len(_SEQUENCES) > _KEPT_SEQUENCES:
            _SEQUENCES.popitem(last=False)
    return kept[:size]


def scramble(bits: np.ndarray, c_init: int) -> np.ndarray:
    """The codeword's bits (0/1, one per element) XOR the sequence of
    ``c_init``, packed."""
    packed = np.packbits(bits)
    np.bitwise_xor(packed, gold_sequence(c_init, bits.size), out=packed)
    return packed


def symbol_indices(packed: np.ndarray, qm: int, count: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Value of each of the first ``count`` Qm-bit groups of the packed
    bits, written into ``out`` (an integer array) when given, else into a
    new uint8 array."""
    if qm not in QM:
        raise InvalidConfigError(f"Qm must be one of {QM}, got {qm}")
    if packed.size * 8 < count * qm:
        raise InvalidConfigError(
            f"{packed.size} bytes hold fewer than {count} {qm}-bit groups")
    per = qm // gcd(qm, 8)        # bytes of a run of whole groups: 1 or 3
    k = 8 * per // qm             # groups in a run: 4, 2, 4 or 1
    full = count // k             # runs whose groups are all wanted
    mask = (1 << qm) - 1
    idx = np.empty(count, dtype=np.uint8) if out is None else out[:count]
    for j in range(k):
        # group j of a run: its bits end `spill` bits into the byte after
        # byte `first` of the run (spill <= 0: they end inside it)
        first, bit = divmod(qm * j, 8)
        spill = bit + qm - 8
        col = idx[j:full * k:k]
        head = packed[first:per * full:per]
        if spill <= 0:
            np.right_shift(head, -spill, out=col)
        else:
            np.left_shift(head, spill, out=col)
            col |= packed[first + 1:per * full:per] >> 8 - spill
    if count > full * k:
        word = int.from_bytes(packed[per * full:per * (full + 1)].tobytes()
                              .ljust(per, b"\0"), "big")
        idx[full * k:] = [word >> 8 * per - qm * (j + 1) & mask
                          for j in range(count - full * k)]
    np.bitwise_and(idx, mask, out=idx)
    return idx


def modulate(indices: np.ndarray, qm: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Complex symbol of each Qm-bit group value (5.1), written into
    ``out`` (a complex128 array) when given."""
    return np.take(constellation(qm), indices, out=out, mode="clip")


def layer_map(symbols: np.ndarray, layers: int) -> np.ndarray:
    """x^(v)(i) = d(layers * i + v) (7.3.1.3), as a (layers, M) view."""
    if symbols.size % layers:
        raise InvalidConfigError(
            f"{symbols.size} symbols do not fill {layers} layers")
    return symbols.reshape(-1, layers).T


@lru_cache(maxsize=None)
def constellation(qm: int) -> np.ndarray:
    """Unit-power symbol of each Qm-bit value (5.1), read-only. The real
    part is set by the even bits b(0), b(2), ..., the imaginary part by the
    odd ones, as s(0) (2^(m-1) - s(1) (2^(m-2) - ... - s(m-1))) with
    s = 1 - 2b."""
    if qm not in QM:
        raise InvalidConfigError(f"Qm must be one of {QM}, got {qm}")
    m = qm // 2
    value = np.arange(1 << qm)[:, None]
    s = 1 - 2 * ((value >> np.arange(qm - 1, -1, -1)) & 1)

    def amplitude(sign):
        inner = 1
        for t in range(m - 1, 0, -1):
            inner = (1 << (m - t)) - sign[:, t] * inner
        return sign[:, 0] * inner

    scale = np.sqrt(2 * (4 ** m - 1) / 3)
    points = amplitude(s[:, 0::2]) / scale \
        + 1j * (amplitude(s[:, 1::2]) / scale)
    points.flags.writeable = False
    return points
