import numpy as np
import pytest

from vranphy.errors import InvalidConfigError
from vranphy.nr import (RateMatchParams, buffer_length,
                        interleave, k0_offset, ldpc_encode, rate_match,
                        segment_tb, selection_positions)
from vranphy.nr.ratematch import deinterleave, filler_range


def k0_oracle(bg, z, rv, ncb):
    """Independent evaluation of the start-position formula."""
    table = {1: {0: 0, 1: 17, 2: 33, 3: 56},
             2: {0: 0, 1: 13, 2: 25, 3: 43}}
    n_blocks = 66 if bg == 1 else 50
    return (table[bg][rv] * ncb // (n_blocks * z)) * z


def test_k0_matches_formula_oracle():
    for bg in (1, 2):
        for z in (8, 52, 384):
            ncb = buffer_length(bg, z)
            for rv in range(4):
                assert k0_offset(bg, z, rv, ncb) == k0_oracle(bg, z, rv, ncb)
            # shortened circular buffers too
            for ncb2 in (ncb - z, ncb // 2 // z * z):
                for rv in range(4):
                    assert k0_offset(bg, z, rv, ncb2) == \
                        k0_oracle(bg, z, rv, ncb2)


def test_interleaver_matches_reshape_transpose_oracle():
    e = np.arange(8)
    got = interleave(e, 2)
    # oracle: write into Qm rows of length E/Qm, read column by column
    want = np.asarray([e[j * 4 + i] for i in range(4) for j in range(2)])
    np.testing.assert_array_equal(got, want)
    for qm in (2, 4, 6, 8):
        x = np.arange(qm * 30)
        np.testing.assert_array_equal(deinterleave(interleave(x, qm), qm), x)


def _plan_and_codeword(rng, a=300, rate=0.5):
    plan = segment_tb(a, rate)
    k = plan.k
    from vranphy.nr import split_payload
    payload = rng.integers(0, 2, a).astype(np.uint8)
    cb_bits = split_payload(payload, plan)[0]
    cw = ldpc_encode(cb_bits, plan.base_graph, plan.lifting_size)
    return plan, cw


def test_full_buffer_read_covers_every_nonfiller_bit_once(rng):
    plan, cw = _plan_and_codeword(rng)
    z = plan.lifting_size
    ncb = buffer_length(plan.base_graph, z)
    lo, hi = filler_range(plan)
    e = ncb - (hi - lo)
    if e % 2:
        e -= 1  # keep the modulation constraint
    params = RateMatchParams(e=e, rv=0, qm=2, ncb=ncb)
    pos = selection_positions(plan, params)
    counts = np.bincount(pos, minlength=ncb)
    assert counts[lo:hi].sum() == 0
    covered = np.concatenate([counts[:lo], counts[hi:]])
    assert covered.max() <= 1 and covered.sum() == e


def test_rv_union_matches_position_enumeration_oracle(rng):
    plan, cw = _plan_and_codeword(rng)
    z = plan.lifting_size
    ncb = buffer_length(plan.base_graph, z)
    lo, hi = filler_range(plan)
    e = 2 * ((ncb // 3) // 2)
    touched = set()
    for rv in (0, 2):
        params = RateMatchParams(e=e, rv=rv, qm=2, ncb=ncb)
        touched |= set(selection_positions(plan, params).tolist())
    # oracle: walk the ring by hand from each k0, skipping filler
    expect = set()
    for rv in (0, 2):
        k0 = k0_oracle(plan.base_graph, z, rv, ncb)
        taken, idx = 0, 0
        while taken < e:
            p = (k0 + idx) % ncb
            idx += 1
            if lo <= p < hi:
                continue
            expect.add(p)
            taken += 1
    assert touched == expect


def test_no_filler_positions_in_any_rv_window(rng):
    plan, cw = _plan_and_codeword(rng, a=120, rate=0.3)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    lo, hi = filler_range(plan)
    for rv in range(4):
        params = RateMatchParams(e=200, rv=rv, qm=2, ncb=ncb)
        pos = selection_positions(plan, params)
        assert not ((pos >= lo) & (pos < hi)).any()


def test_identity_buffer_interleave_pattern(rng):
    plan, cw = _plan_and_codeword(rng)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    ident = np.arange(cw.size) % 2
    params = RateMatchParams(e=8, rv=0, qm=2, ncb=ncb)
    out = rate_match(ident, plan, params)
    pos = selection_positions(plan, params)
    sel = ident[2 * plan.lifting_size:][pos]
    np.testing.assert_array_equal(out, interleave(sel, 2))


def test_rate_match_errors(rng):
    plan, cw = _plan_and_codeword(rng)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    with pytest.raises(InvalidConfigError):
        rate_match(cw, plan, RateMatchParams(e=ncb * 9 - (ncb * 9) % 2,
                                             rv=0, qm=2, ncb=ncb))
    with pytest.raises(InvalidConfigError):
        rate_match(cw, plan, RateMatchParams(e=7, rv=0, qm=2, ncb=ncb))
    with pytest.raises(InvalidConfigError):
        RateMatchParams(e=0, rv=0, qm=2, ncb=ncb)
    with pytest.raises(InvalidConfigError):
        RateMatchParams(e=8, rv=5, qm=2, ncb=ncb)
    with pytest.raises(InvalidConfigError):
        RateMatchParams(e=8, rv=0, qm=3, ncb=ncb)
    with pytest.raises(InvalidConfigError):
        rate_match(cw[:-1], plan, RateMatchParams(e=8, rv=0, qm=2, ncb=ncb))


def test_repetition_wraps_consistently(rng):
    plan, cw = _plan_and_codeword(rng, a=100, rate=0.4)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    lo, hi = filler_range(plan)
    usable = ncb - (hi - lo)
    e = 2 * usable
    params = RateMatchParams(e=e, rv=0, qm=2, ncb=ncb)
    pos = selection_positions(plan, params)
    counts = np.bincount(pos, minlength=ncb)
    covered = np.concatenate([counts[:lo], counts[hi:]])
    assert covered.min() == 2 and covered.max() == 2


def test_selection_is_memoised_and_read_only():
    plan = segment_tb(300, 0.5)
    params = RateMatchParams(e=600, rv=2, qm=2,
                             ncb=buffer_length(plan.base_graph,
                                               plan.lifting_size))
    pos = selection_positions(plan, params)
    assert selection_positions(plan, params) is pos
    assert not pos.flags.writeable
    with pytest.raises(ValueError):
        pos[0] = 0


def test_rate_match_returns_a_fresh_writable_stream(rng):
    """The selection it gathers through is shared and read-only; each
    call's stream is a new array that the caller may write."""
    plan = segment_tb(300, 0.5)
    params = RateMatchParams(e=600, rv=2, qm=2,
                             ncb=buffer_length(plan.base_graph,
                                               plan.lifting_size))
    cw = ldpc_encode(rng.integers(0, 2, plan.k, dtype=np.uint8),
                     plan.base_graph, plan.lifting_size)
    first, second = (rate_match(cw, plan, params) for _ in range(2))
    assert first.flags.writeable and not np.shares_memory(first, second)
    first ^= 1
    np.testing.assert_array_equal(rate_match(cw, plan, params), second)
    np.testing.assert_array_equal(first, second ^ 1)


def test_batch_rate_match_equals_each_row_alone(rng):
    plan = segment_tb(300, 0.5)
    z = plan.lifting_size
    cws = ldpc_encode(rng.integers(0, 2, (3, plan.k), dtype=np.uint8),
                      plan.base_graph, z)
    params = RateMatchParams(e=4 * 170, rv=3, qm=4,
                             ncb=buffer_length(plan.base_graph, z))
    batch = rate_match(cws, plan, params)
    assert batch.shape == (3, params.e)
    for row, cw in zip(batch, cws):
        np.testing.assert_array_equal(row, rate_match(cw, plan, params))
