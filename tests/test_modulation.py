import sys
import threading

import numpy as np
import pytest

from vranphy.errors import InvalidConfigError
from vranphy.nr.modulation import (NC, constellation, gold_sequence,
                                   layer_map, modulate, scramble,
                                   scrambling_init, symbol_indices)


def _gold_scalar(c_init, length):
    """TS 38.211 5.2.1, one bit at a time."""
    n = NC + length
    x1 = [1] + [0] * 30
    x2 = [(c_init >> i) & 1 for i in range(31)]
    for i in range(n):
        x1.append((x1[i + 3] + x1[i]) % 2)
        x2.append((x2[i + 3] + x2[i + 2] + x2[i + 1] + x2[i]) % 2)
    return np.array([(x1[i + NC] + x2[i + NC]) % 2 for i in range(length)],
                    dtype=np.uint8)


# each vector block k adds 28k bits once 31k are known: 1 600 + 3 000 bits
# cross every block boundary up to k = 64
@pytest.mark.parametrize("c_init", [0, 1, 0x2AAAAAAA, 7 << 15, 2**31 - 1])
@pytest.mark.parametrize("length", [0, 1, 13, 2000, 3000])
def test_gold_sequence_matches_the_scalar_recurrence(c_init, length):
    got = np.unpackbits(gold_sequence(c_init, length), count=length)
    assert np.array_equal(got, _gold_scalar(c_init, length))


def test_gold_sequence_is_shared_read_only():
    """A request no longer than one made before for the same c_init reads
    a prefix of the kept sequence; a longer one generates a new one."""
    c_init = 12321
    kept = gold_sequence(c_init, 100)
    prefix = gold_sequence(c_init, 37)
    assert prefix.size == 5 and np.shares_memory(prefix, kept)
    assert not prefix.flags.writeable and not kept.flags.writeable
    longer = gold_sequence(c_init, 200)
    assert not np.shares_memory(longer, kept)
    assert np.array_equal(longer[:kept.size], kept)
    assert np.shares_memory(gold_sequence(c_init, 100), longer)


def test_gold_sequence_keeps_the_last_8_c_init_values():
    first = gold_sequence(777, 64)
    for c_init in range(778, 785):
        gold_sequence(c_init, 64)
    assert np.shares_memory(gold_sequence(777, 64), first)
    for c_init in range(778, 786):
        gold_sequence(c_init, 64)
    assert not np.shares_memory(gold_sequence(777, 64), first)


def test_gold_sequence_is_right_under_concurrent_callers():
    """More threads than cores ask for prefixes of 12 sequences, so entries
    are evicted and regenerated while others read them."""
    expected = {c: np.unpackbits(gold_sequence(c, 2048)).copy()
                for c in range(900, 912)}
    wrong = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            c_init = int(rng.integers(900, 912))
            length = int(rng.integers(1, 2049))
            got = np.unpackbits(gold_sequence(c_init, length), count=length)
            if not np.array_equal(got, expected[c_init][:length]):
                wrong.append((c_init, length))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("c_init, length", [(-1, 8), (2**31, 8), (0, -1)])
def test_gold_sequence_rejects_out_of_range_arguments(c_init, length):
    with pytest.raises(InvalidConfigError):
        gold_sequence(c_init, length)


def test_scrambling_init_is_the_rnti_over_codeword_0_and_n_id_0():
    assert [scrambling_init(r) for r in (0, 1, 65535)] == \
        [0, 2**15, 65535 * 2**15]
    for bad in (-1, 65536):
        with pytest.raises(InvalidConfigError):
            scrambling_init(bad)


def _spec_points(qm):
    """TS 38.211 5.1, each modulation's formula written out."""
    out = []
    for v in range(1 << qm):
        s = [1 - 2 * ((v >> (qm - 1 - i)) & 1) for i in range(qm)]
        if qm == 2:
            d = (s[0] + 1j * s[1]) / np.sqrt(2)
        elif qm == 4:
            d = (s[0] * (2 - s[2]) + 1j * s[1] * (2 - s[3])) / np.sqrt(10)
        elif qm == 6:
            d = (s[0] * (4 - s[2] * (2 - s[4]))
                 + 1j * s[1] * (4 - s[3] * (2 - s[5]))) / np.sqrt(42)
        else:
            d = (s[0] * (8 - s[2] * (4 - s[4] * (2 - s[6])))
                 + 1j * s[1] * (8 - s[3] * (4 - s[5] * (2 - s[7])))) \
                / np.sqrt(170)
        out.append(d)
    return np.array(out)


@pytest.mark.parametrize("qm", [2, 4, 6, 8])
def test_constellations_follow_the_spec_with_unit_power(qm):
    points = constellation(qm)
    assert np.array_equal(points, _spec_points(qm))
    assert abs(np.mean(np.abs(points) ** 2) - 1) < 1e-12
    assert modulate(np.arange(1 << qm), qm).tolist() == points.tolist()


@pytest.mark.parametrize("qm", [2, 4, 6, 8])
@pytest.mark.parametrize("count", [1, 2, 3, 5, 97])
def test_symbol_indices_read_each_group_most_significant_bit_first(
        qm, count, rng):
    bits = rng.integers(0, 2, qm * count, dtype=np.uint8)
    expected = bits.reshape(count, qm) @ (1 << np.arange(qm - 1, -1, -1))
    packed = np.packbits(bits)
    assert np.array_equal(symbol_indices(packed, qm, count), expected)
    for dtype in (np.uint8, np.intp):
        out = np.full(count + 4, 255, dtype=dtype)
        symbol_indices(packed, qm, count, out=out)
        assert np.array_equal(out[:count], expected)
        assert (out[count:] == 255).all()


def test_scrambling_is_an_xor_with_the_gold_sequence(rng):
    bits = rng.integers(0, 2, 1001, dtype=np.uint8)
    got = np.unpackbits(scramble(bits, 12345), count=bits.size)
    assert np.array_equal(got, bits ^ _gold_scalar(12345, bits.size))


def test_layer_mapping_deals_symbols_round_robin():
    x = layer_map(np.arange(12), 3)
    assert x.tolist() == [[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]
    with pytest.raises(InvalidConfigError):
        layer_map(np.arange(10), 3)


def test_malformed_modulation_input_is_rejected():
    with pytest.raises(InvalidConfigError):
        symbol_indices(np.zeros(2, np.uint8), 3, 1)
    with pytest.raises(InvalidConfigError):
        symbol_indices(np.zeros(2, np.uint8), 6, 3)     # 18 bits > 16
    with pytest.raises(InvalidConfigError):
        modulate(np.zeros(1, np.intp), 5)
