import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vranphy.errors import InvalidConfigError
from vranphy.nr import crc_check, crc_compute, crc_length
from vranphy.nr.crc import ROW_BITS, _fold_rows

POLYS = {"CRC24A": (0x864CFB, 24), "CRC24B": (0x800063, 24),
         "CRC16": (0x1021, 16)}


def crc_long_division(bits, kind):
    """Independent oracle: bit-by-bit polynomial long division."""
    poly, length = POLYS[kind]
    reg = 0
    mask = (1 << length) - 1
    top = 1 << (length - 1)
    for b in np.asarray(bits).tolist():
        reg ^= int(b) << (length - 1)
        if reg & top:
            reg = ((reg << 1) ^ poly) & mask
        else:
            reg = (reg << 1) & mask
    return np.array([(reg >> (length - 1 - i)) & 1 for i in range(length)],
                    dtype=np.uint8)


@pytest.mark.parametrize("kind", ["CRC24A", "CRC24B", "CRC16"])
def test_zero_payload_zero_checksum(kind):
    out = crc_compute(np.zeros(64, dtype=np.uint8), kind)
    assert not out.any()


@pytest.mark.parametrize("kind", ["CRC24A", "CRC24B", "CRC16"])
def test_append_then_verify(kind, rng):
    payload = rng.integers(0, 2, 313).astype(np.uint8)
    block = np.concatenate([payload, crc_compute(payload, kind)])
    assert crc_check(block, kind)


def test_seeded_1024_bits_against_long_division_oracle():
    rng = np.random.default_rng(1024)
    payload = rng.integers(0, 2, 1024).astype(np.uint8)
    for kind in POLYS:
        expected = crc_long_division(payload, kind)
        np.testing.assert_array_equal(crc_compute(payload, kind), expected)


@settings(max_examples=50, deadline=None)
@given(data=st.binary(min_size=0, max_size=96),
       kind=st.sampled_from(sorted(POLYS)))
def test_matches_oracle_on_arbitrary_payloads(data, kind):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    np.testing.assert_array_equal(crc_compute(bits, kind),
                                  crc_long_division(bits, kind))


@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=1, max_size=64),
       kind=st.sampled_from(sorted(POLYS)))
def test_single_bit_flip_always_detected(data, kind):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    block = np.concatenate([bits, crc_compute(bits, kind)])
    flip = len(block) // 2
    block[flip] ^= 1
    assert not crc_check(block, kind)


@pytest.mark.parametrize("kind", sorted(POLYS))
@pytest.mark.parametrize("n", [0, 1, ROW_BITS - 1, ROW_BITS, ROW_BITS + 1,
                               1_081_512 + 7])
def test_block_rows_match_oracle_at_row_boundaries(kind, n):
    bits = np.random.default_rng([n, 3]).integers(0, 2, n, dtype=np.uint8)
    np.testing.assert_array_equal(crc_compute(bits, kind),
                                  crc_long_division(bits, kind))


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(0, 6), width=st.integers(0, 3 * ROW_BITS),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(POLYS)))
def test_each_row_of_a_block_is_its_own_message(rows, width, seed, kind):
    block = np.random.default_rng(seed).integers(0, 2, (rows, width),
                                                 dtype=np.uint8)
    out = crc_compute(block, kind)
    assert out.shape == (rows, crc_length(kind))
    for row, checksum in zip(block, out):
        np.testing.assert_array_equal(checksum,
                                      crc_long_division(row, kind))


@pytest.mark.parametrize("rows", [15, 16, 17, 33])
def test_block_rows_match_oracle_across_product_chunks(rows):
    """A block's rows are multiplied a chunk at a time; every row keeps
    its own checksum whichever chunk it falls in."""
    block = np.random.default_rng(rows).integers(0, 2, (rows, 100),
                                                 dtype=np.uint8)
    out = crc_compute(block, "CRC24B")
    for row, checksum in zip(block, out):
        np.testing.assert_array_equal(checksum,
                                      crc_long_division(row, "CRC24B"))


def test_empty_payload_checksum_is_zero():
    assert not crc_compute(np.array([], dtype=np.uint8), "CRC16").any()


def test_unknown_kind_rejected():
    with pytest.raises(InvalidConfigError):
        crc_compute(np.zeros(8, dtype=np.uint8), "CRC32")
    with pytest.raises(InvalidConfigError):
        crc_length("CRC32")


def test_short_block_fails_check():
    assert not crc_check(np.zeros(10, dtype=np.uint8), "CRC24A")


def test_fold_matrix_is_cached_read_only(rng):
    """A flat payload of five rows folds its row checksums through one
    matrix, built once per (kind, rows, trailing zeros), kept read-only,
    and giving the same checksum again."""
    bits = rng.integers(0, 2, 5 * ROW_BITS - 7, dtype=np.uint8)
    first = crc_compute(bits, "CRC24A")
    fold = _fold_rows("CRC24A", 5, 7)
    assert fold.shape == (24, -(-5 * 24 // 64))
    assert _fold_rows("CRC24A", 5, 7) is fold
    assert not fold.flags.writeable
    np.testing.assert_array_equal(crc_compute(bits, "CRC24A"), first)
    np.testing.assert_array_equal(first, crc_long_division(bits, "CRC24A"))


@pytest.mark.parametrize("payload", [
    [2, 0, 1, 1], [0.5, 1, 0], [np.nan, 0, 1], [-1, 0, 1], [1j, 0],
    ["1", "0"], np.array([0, 3, 1], dtype=np.uint8), [[0, 1], [2, 0]]])
def test_non_binary_payload_rejected(payload):
    """A value other than 0 or 1 fails as a config error, without a
    cast warning on the way: 2 is not taken for 1, nor 0.5 or NaN for 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in POLYS:
            with pytest.raises(InvalidConfigError):
                crc_compute(payload, kind)


def test_non_binary_block_fails_its_check_as_config_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError):
            crc_check([0.5] * 30, "CRC16")
        with pytest.raises(InvalidConfigError):
            crc_check([2] + [0] * 29, "CRC16")


def test_bool_int_and_float_bits_give_the_uint8_checksum(rng):
    bits = rng.integers(0, 2, 1000, dtype=np.uint8)
    want = crc_long_division(bits, "CRC24A")
    for form in (bits.astype(bool), bits.astype(np.int64), bits.tolist(),
                 bits.astype(np.float32)):
        np.testing.assert_array_equal(crc_compute(form, "CRC24A"), want)
    block = np.concatenate([bits, want])
    assert crc_check(block.astype(bool), "CRC24A")
    assert crc_check(block.tolist(), "CRC24A")
