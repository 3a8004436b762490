import numpy as np
import pytest

from vranphy.errors import InvalidConfigError
from vranphy.nr import (RateMatchParams, buffer_length,
                        interleave, k0_offset, ldpc_encode, rate_match,
                        segment_tb, selection_positions)
from vranphy.nr.ratematch import deinterleave, filler_range, selection_runs


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
    """The selection it copies by is shared and read-only; each call's
    stream is a new array that the caller may write."""
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


# (plan, Ncb, Qm, E) cases of the oracle tests: BG1 and BG2, both with
# filler; the full buffer, one 5Z shorter and a third of it; E short, about
# half the buffer, and wrapping it, up to the 8x cap
ORACLE_PLANS = {"bg1": (5000, 0.8), "bg2": (300, 0.5)}


def oracle_cases(name):
    plan = segment_tb(*ORACLE_PLANS[name])
    z = plan.lifting_size
    full = buffer_length(plan.base_graph, z)
    assert plan.filler_per_cb > 0
    for ncb in (full, full - 5 * z, full // 3 // z * z):
        for qm in (2, 4, 6, 8):
            for e in (7 * qm, ncb // 2, 2 * ncb + 5 * qm, 8 * ncb):
                yield plan, ncb, qm, e - e % qm


def rate_match_oracle(cw, plan, params):
    """The gather form: interleave the selected positions, then take."""
    read = interleave(selection_positions(plan, params), params.qm)
    return np.asarray(cw).take(2 * plan.lifting_size + read, axis=-1)


@pytest.mark.parametrize("name", sorted(ORACLE_PLANS))
def test_rate_match_equals_the_gather_oracle(name):
    rng = np.random.default_rng(list(name.encode()))
    for plan, ncb, qm, e in oracle_cases(name):
        width = buffer_length(plan.base_graph, plan.lifting_size) \
            + 2 * plan.lifting_size
        for rv in range(4):
            params = RateMatchParams(e=e, rv=rv, qm=qm, ncb=ncb)
            for shape in ((width,), (3, width), (2, 3, width)):
                cw = rng.integers(0, 2, shape, dtype=np.uint8)
                got = rate_match(cw, plan, params)
                assert got.shape == shape[:-1] + (e,)
                np.testing.assert_array_equal(
                    got, rate_match_oracle(cw, plan, params),
                    err_msg=f"{name} ncb={ncb} qm={qm} e={e} rv={rv}")


def test_runs_cover_the_selection_in_pieces_within_interleaver_rows():
    """Each piece is consecutive buffer positions inside one of the Qm
    rows; read in output order they give the interleaved selection."""
    plan = segment_tb(*ORACLE_PLANS["bg2"])
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    params = RateMatchParams(e=6 * 700, rv=3, qm=6, ncb=ncb)
    runs = selection_runs(plan, params)
    assert selection_runs(plan, params) is runs
    assert all(type(v) is int for run in runs for v in run)
    want = interleave(selection_positions(plan, params), params.qm)
    got = np.full(params.e, -1)
    row = params.e // params.qm
    for start, pos, length in runs:
        assert 0 < length <= row - start // params.qm
        got[start::params.qm][:length] = np.arange(pos, pos + length)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("qm", [0, -2, 3, 10, 2.0, True, None, "2"])
def test_interleaver_rejects_a_modulation_order_outside_the_table(qm):
    for fn in (interleave, deinterleave):
        with pytest.raises(InvalidConfigError):
            fn(np.arange(24), qm)


@pytest.mark.parametrize("field, value", [
    ("e", 800.0), ("e", True), ("e", "800"), ("ncb", 2000.0),
    ("ncb", None), ("rv", True), ("rv", 1.0), ("qm", True), ("qm", 2.0)])
def test_params_hold_plain_integers(field, value):
    """The fields key the selection caches: 800.0 equals and hashes like
    800, and True like 1, so neither may stand in for an integer."""
    fields = dict(e=800, rv=1, qm=2, ncb=2000)
    RateMatchParams(**fields)
    fields[field] = value
    with pytest.raises(InvalidConfigError):
        RateMatchParams(**fields)


def test_params_take_numpy_integers():
    params = RateMatchParams(e=np.int64(800), rv=np.int32(1), qm=np.int8(2),
                             ncb=np.int64(2000))
    assert params == RateMatchParams(e=800, rv=1, qm=2, ncb=2000)
