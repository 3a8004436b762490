"""Cyclic redundancy checks used by transport-block processing.

Three generator polynomials are supported: the 24-bit A and B variants and
the 16-bit CCITT polynomial. Bits are processed MSB-first with zero initial
state and no final inversion, so an all-zero payload yields an all-zero
checksum and appending the checksum makes the remainder zero.

The checksum is computed through the linearity of polynomial division:
``crc(m) = sum over set bits i of (x^(len + n - 1 - i) mod g)``. Over a
block of rows of width W that sum is one GF(2) matrix product: the rows
times a (W, len) matrix whose row j holds the bits of x^(len + W - 1 - j)
mod g give every row's remainder at once. A batch of equal-length
messages is such a block. A flat payload is zero-padded at the front to
whole rows of ``ROW_BITS`` (leading zeros leave the remainder unchanged),
and the row remainders are folded pairwise, hi * x^W + lo, in log2(rows)
more products, so the table of x^k mod g never grows past the widest row.
The matrix of each fold level squares the previous level's; it is built
once per (kind, level) and cached read-only.
Products run on bits packed 64 to a word: AND with the matrix's packed
columns, XOR-reduce, parity.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import InvalidConfigError

# generator polynomials, MSB (x^len) implicit
_POLYS = {
    "CRC24A": (0x864CFB, 24),
    "CRC24B": (0x800063, 24),
    "CRC16": (0x1021, 16),
}
# row width a flat payload is folded over: the largest code block, so the
# CRC of a block is one row and needs no fold
ROW_BITS = 8448
# rows a GF(2) product ANDs and reduces at once, which bounds its transient
# (0.4 MB at 8448 bits and 24 columns)
_PRODUCT_ROWS = 16

_POWER_CACHE: dict[str, np.ndarray] = {}


def crc_length(kind: str) -> int:
    if kind not in _POLYS:
        raise InvalidConfigError(f"unknown CRC kind {kind!r}")
    return _POLYS[kind][1]


def _x_powers(kind: str, needed: int) -> np.ndarray:
    """Array P with P[k] = x^k mod g as an integer, grown on demand."""
    poly, length = _POLYS[kind]
    mask = (1 << length) - 1
    top = 1 << (length - 1)
    cached = _POWER_CACHE.get(kind)
    if cached is not None and cached.size >= needed:
        return cached
    size = max(needed, 1 << 12)
    if cached is not None:
        size = max(size, 2 * cached.size)
    out = np.empty(size, dtype=np.uint32)
    if cached is not None:
        out[: cached.size] = cached
        start = cached.size
        reg = int(cached[start - 1])
    else:
        out[0] = 1
        start = 1
        reg = 1
    for k in range(start, size):
        if reg & top:
            reg = ((reg << 1) ^ poly) & mask
        else:
            reg = (reg << 1) & mask
        out[k] = reg
    _POWER_CACHE[kind] = out
    return out


def _power_bits(kind: str, lo: int, count: int) -> np.ndarray:
    """(count, len) MSB-first bits of x^k mod g for k = lo + count - 1
    down to lo."""
    length = crc_length(kind)
    powers = _x_powers(kind, lo + count)[lo:lo + count][::-1]
    return ((powers[:, None] >> np.arange(length - 1, -1, -1,
                                          dtype=np.uint32)) & 1
            ).astype(np.uint8)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(n, W) 0/1 array as (n, ceil(W / 64)) uint64 words."""
    n, width = bits.shape
    packed = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(bits, axis=1)
    return packed.view(np.uint64)


def _gf2_product(a: np.ndarray, b_cols: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for an (n, K) 0/1 array ``a`` and a (K, L) 0/1
    matrix given as its packed columns ``_pack_rows(b.T)``: (n, L) bits."""
    packed = _pack_rows(a)
    words = np.empty((packed.shape[0], b_cols.shape[0]), dtype=np.uint64)
    for lo in range(0, packed.shape[0], _PRODUCT_ROWS):
        np.bitwise_xor.reduce(packed[lo:lo + _PRODUCT_ROWS, None, :] & b_cols,
                              axis=2, out=words[lo:lo + _PRODUCT_ROWS])
    for shift in (32, 16, 8, 4, 2, 1):
        words ^= words >> np.uint64(shift)
    return (words & np.uint64(1)).astype(np.uint8)


@lru_cache(maxsize=8)
def _row_matrix(kind: str, width: int) -> np.ndarray:
    """Packed columns of the (width, len) matrix whose row j holds
    x^(len + width - 1 - j) mod g."""
    return _pack_rows(_power_bits(kind, crc_length(kind), width).T)


@lru_cache(maxsize=None)
def _fold_matrix(kind: str, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The (len, len) matrix that multiplies a remainder by x^w, w =
    ROW_BITS * 2^level (row i holds x^(w + len - 1 - i) mod g), and its
    packed columns."""
    if level == 0:
        shift = _power_bits(kind, ROW_BITS, crc_length(kind))
    else:
        shift = _gf2_product(*_fold_matrix(kind, level - 1))
    packed = _pack_rows(shift.T)
    shift.flags.writeable = packed.flags.writeable = False
    return shift, packed


def crc_compute(payload, kind: str) -> np.ndarray:
    """Checksum bits of ``payload`` (0/1 values): one (len,) checksum of a
    flat sequence, or an (n, len) array of the checksums of each row of an
    (n, W) array."""
    length = crc_length(kind)
    bits = np.asarray(payload, dtype=np.uint8)
    if bits.ndim == 2:
        return _gf2_product(bits, _row_matrix(kind, bits.shape[1]))
    if bits.ndim != 1:
        raise InvalidConfigError("payload must be a flat bit sequence or "
                                 "a block of rows")
    n_rows = -(-bits.size // ROW_BITS)
    padded = np.zeros(n_rows * ROW_BITS, dtype=np.uint8)
    padded[padded.size - bits.size:] = bits
    rem = _gf2_product(padded.reshape(n_rows, ROW_BITS),
                       _row_matrix(kind, ROW_BITS))
    level = 0
    while rem.shape[0] > 1:     # fold adjacent rows as hi * x^w + lo
        if rem.shape[0] % 2:
            rem = np.vstack([np.zeros((1, length), dtype=np.uint8), rem])
        rem = _gf2_product(rem[0::2], _fold_matrix(kind, level)[1]) \
            ^ rem[1::2]
        level += 1
    return rem[0] if n_rows else np.zeros(length, dtype=np.uint8)


def crc_check(block, kind: str) -> bool:
    """True when ``block`` ends with a valid checksum over its head."""
    bits = np.asarray(block, dtype=np.uint8)
    length = crc_length(kind)
    if bits.size < length:
        return False
    expected = crc_compute(bits[:-length], kind)
    return bool(np.array_equal(expected, bits[-length:]))
