"""Cyclic redundancy checks used by transport-block processing.

Three generator polynomials are supported: the 24-bit A and B variants and
the 16-bit CCITT polynomial. Bits are processed MSB-first with zero initial
state and no final inversion, so an all-zero payload yields an all-zero
checksum and appending the checksum makes the remainder zero. Every
payload value must be 0 or 1; a bool array is binary by its type, so
callers that checked their bits already pass a bool view and nothing is
checked twice.

The checksum is computed through the linearity of polynomial division:
``crc(m) = m(x) x^len mod g``, the sum over set bits i of
x^(len + n - 1 - i) mod g. Over a block of rows of width W that sum is one
GF(2) matrix product: the rows times a (W, len) matrix whose row j holds
the bits of x^(len + W - 1 - j) mod g give every row's checksum at once.
A batch of equal-length messages is such a block.

A flat payload of n bits is packed into R rows of W = ``ROW_BITS`` and
t = R * W - n trailing zeros. The stack of rows is the message times x^t,
and row j of it counts times x^(W * (R - 1 - j)), so

    crc(m) = sum over j of crc(row j) * x^(W * (R - 1 - j) - t) mod g.

The exponent may be negative: x is invertible modulo each generator, whose
constant term is 1. The sum is one more GF(2) product, of the R row
checksums laid end to end with an (R * len, len) fold matrix. That matrix
is built in O(log R) products of (len, len) shift matrices, by doubling
its stack of blocks, and cached read-only per (kind, R, t).
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
# row width a flat payload is packed into: the largest code block, so the
# CRC of a block is one row; a whole number of 64-bit words
ROW_BITS = 8448
# bytes of the transient a GF(2) product ANDs and reduces at once: 16 rows
# at 8448 bits and 24 columns
_PRODUCT_BYTES = 16 * 132 * 24 * 8

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


def _int_bits(values, length: int) -> np.ndarray:
    """(count, len) MSB-first bits of ``count`` integers."""
    values = np.asarray(values, dtype=np.uint32)
    return ((values[:, None] >> np.arange(length - 1, -1, -1,
                                          dtype=np.uint32)) & 1
            ).astype(np.uint8)


def _power_bits(kind: str, lo: int, count: int) -> np.ndarray:
    """(count, len) MSB-first bits of x^k mod g for k = lo + count - 1
    down to lo."""
    return _int_bits(_x_powers(kind, lo + count)[lo:lo + count][::-1],
                     crc_length(kind))


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(n, W) 0/1 array as (n, ceil(W / 64)) uint64 words."""
    n, width = bits.shape
    packed = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(bits, axis=1)
    return packed.view(np.uint64)


def _gf2_product(packed: np.ndarray, b_cols: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for an (n, K) 0/1 array ``a`` given as its packed
    rows ``_pack_rows(a)`` and a (K, L) 0/1 matrix given as its packed
    columns ``_pack_rows(b.T)``: (n, L) bits."""
    words = np.empty((packed.shape[0], b_cols.shape[0]), dtype=np.uint64)
    step = max(1, _PRODUCT_BYTES // max(1, b_cols.size * 8))
    for lo in range(0, packed.shape[0], step):
        np.bitwise_xor.reduce(packed[lo:lo + step, None, :] & b_cols,
                              axis=2, out=words[lo:lo + step])
    for shift in (32, 16, 8, 4, 2, 1):
        words ^= words >> np.uint64(shift)
    return (words & np.uint64(1)).astype(np.uint8)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for two small 0/1 matrices."""
    return _gf2_product(_pack_rows(a), _pack_rows(b.T))


def _shift_matrix(kind: str, k: int) -> np.ndarray:
    """The (len, len) matrix that multiplies a checksum by x^k mod g: row i
    holds x^(len - 1 - i + k) mod g. A negative k powers x^-1 = (g - 1) / x
    by squaring."""
    if k >= 0:
        return _power_bits(kind, k, crc_length(kind))
    poly, length = _POLYS[kind]
    base = np.eye(length, k=1, dtype=np.uint8)      # row i: x^(len - 2 - i)
    base[-1] = _int_bits([(poly | 1 << length) >> 1], length)[0]
    out = np.eye(length, dtype=np.uint8)
    for bit in bin(-k)[:1:-1]:
        if bit == "1":
            out = _times(out, base)
        base = _times(base, base)
    return out


@lru_cache(maxsize=8)
def _row_matrix(kind: str, width: int) -> np.ndarray:
    """Packed columns of the (width, len) matrix whose row j holds
    x^(len + width - 1 - j) mod g."""
    return _pack_rows(_power_bits(kind, crc_length(kind), width).T)


@lru_cache(maxsize=8)
def _fold_rows(kind: str, rows: int, trailing: int) -> np.ndarray:
    """Packed columns of the (rows * len, len) matrix that folds the
    checksums of ``rows`` rows of ``ROW_BITS``, followed by ``trailing``
    zeros, into the checksum of the message: block j multiplies by
    x^(ROW_BITS * (rows - 1 - j) - trailing)."""
    length = crc_length(kind)
    stack = _shift_matrix(kind, -trailing)             # the last row's block
    step = _shift_matrix(kind, ROW_BITS)               # x^(W * blocks)
    while stack.shape[0] < rows * length:
        stack = np.vstack([_times(stack, step), stack])
        step = _times(step, step)
    packed = _pack_rows(stack[stack.shape[0] - rows * length:].T)
    packed.flags.writeable = False
    return packed


def _binary(payload) -> np.ndarray:
    """``payload`` as a bool array, checked to hold only 0 and 1 unless its
    type says so: a uint8 array is viewed, anything else converted."""
    bits = np.asarray(payload)
    if bits.dtype == np.bool_:
        return bits
    if bits.dtype == np.uint8:
        if bits.size and bits.max() > 1:
            raise InvalidConfigError("CRC payload bits must be 0 or 1")
        return bits.view(np.bool_)
    if bits.dtype.kind not in "iuf" or not ((bits == 0) | (bits == 1)).all():
        raise InvalidConfigError("CRC payload bits must be 0 or 1")
    return bits != 0


def crc_compute(payload, kind: str) -> np.ndarray:
    """Checksum bits of ``payload`` (0/1 values, else
    ``InvalidConfigError``): one (len,) checksum of a flat sequence, or an
    (n, len) array of the checksums of each row of an (n, W) array."""
    length = crc_length(kind)
    bits = _binary(payload)
    if bits.ndim == 2:
        return _gf2_product(_pack_rows(bits), _row_matrix(kind, bits.shape[1]))
    if bits.ndim != 1:
        raise InvalidConfigError("payload must be a flat bit sequence or "
                                 "a block of rows")
    if not bits.size:
        return np.zeros(length, dtype=np.uint8)
    rows = -(-bits.size // ROW_BITS)
    packed = np.zeros(rows * ROW_BITS // 8, dtype=np.uint8)
    packed[: -(-bits.size // 8)] = np.packbits(bits)
    checksums = _gf2_product(packed.view(np.uint64).reshape(rows, -1),
                             _row_matrix(kind, ROW_BITS))
    return _gf2_product(_pack_rows(checksums.reshape(1, -1)),
                        _fold_rows(kind, rows, rows * ROW_BITS - bits.size))[0]


def crc_check(block, kind: str) -> bool:
    """True when ``block`` ends with a valid checksum over its head."""
    bits = _binary(block)
    length = crc_length(kind)
    if bits.size < length:
        return False
    expected = crc_compute(bits[:-length], kind)
    return bool(np.array_equal(expected, bits[-length:]))
