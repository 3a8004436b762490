import numpy as np
import pytest

from vranphy.errors import InvalidConfigError, VranPhyError
from vranphy.nr import (RateMatchParams, awgn_llrs, buffer_length, encode_tb,
                        new_soft_buffer, noiseless_llrs,
                        rate_recover_and_combine, segment_tb,
                        selection_positions)
from vranphy.nr import softbuffer
from vranphy.nr.ratematch import deinterleave, filler_range
from vranphy.nr.softbuffer import LLR_DTYPE, LLR_MAX, LLR_SAT, quantized
from test_ratematch import ORACLE_PLANS, oracle_cases


def _setup(rng, a=300, rate=0.5, e=None, rv=0):
    plan = segment_tb(a, rate)
    payload = rng.integers(0, 2, a).astype(np.uint8)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    e = e or 2 * ((ncb // 2) // 2)
    enc = encode_tb(payload, plan, e, qm=2, layers=1, rv=rv)
    return plan, enc, payload


def test_combining_identical_transmissions_doubles_llrs(rng):
    plan, enc, _ = _setup(rng)
    llrs = noiseless_llrs(enc.streams[0], magnitude=5.0)
    buf = new_soft_buffer(plan)
    rate_recover_and_combine(llrs, plan, enc.params[0], buf)
    once = buf.llrs.copy()
    rate_recover_and_combine(llrs, plan, enc.params[0], buf)
    lo, hi = filler_range(plan)
    mask = np.ones(buf.llrs.size, dtype=bool)
    mask[lo:hi] = False
    touched = mask & (once != 0)
    np.testing.assert_allclose(buf.llrs[touched], 2 * once[touched])


def test_untouched_positions_stay_zero(rng):
    plan, enc, _ = _setup(rng, e=120)
    llrs = noiseless_llrs(enc.streams[0], magnitude=3.0)
    buf = new_soft_buffer(plan)
    rate_recover_and_combine(llrs, plan, enc.params[0], buf)
    pos = set(selection_positions(plan, enc.params[0]).tolist())
    lo, hi = filler_range(plan)
    for p in range(buf.llrs.size):
        if lo <= p < hi:
            assert buf.llrs[p] == LLR_SAT
        elif p not in pos:
            assert buf.llrs[p] == 0.0


def test_rv0_then_rv2_touched_set_matches_union_oracle(rng):
    plan, enc0, payload = _setup(rng, e=400, rv=0)
    enc2 = encode_tb(payload, plan, 400, qm=2, layers=1, rv=2)
    buf = new_soft_buffer(plan)
    rate_recover_and_combine(noiseless_llrs(enc0.streams[0], 1.0), plan,
                             enc0.params[0], buf)
    rate_recover_and_combine(noiseless_llrs(enc2.streams[0], 1.0), plan,
                             enc2.params[0], buf)
    lo, hi = filler_range(plan)
    touched = {int(p) for p in np.flatnonzero(buf.llrs)
               if not lo <= p < hi}
    union = set(selection_positions(plan, enc0.params[0]).tolist()) | \
        set(selection_positions(plan, enc2.params[0]).tolist())
    assert touched <= union
    # every unioned position carries a nonzero value (exact-sign inputs)
    assert union - touched == set()


def test_saturation_clamps_at_buffer_limit(rng):
    plan, enc, _ = _setup(rng)
    big = noiseless_llrs(enc.streams[0], magnitude=LLR_MAX)
    buf = new_soft_buffer(plan)
    for _ in range(3):
        rate_recover_and_combine(big, plan, enc.params[0], buf)
    assert np.abs(buf.llrs).max() <= LLR_SAT


def test_length_mismatch_rejected(rng):
    plan, enc, _ = _setup(rng)
    buf = new_soft_buffer(plan)
    with pytest.raises(InvalidConfigError):
        rate_recover_and_combine(np.zeros(enc.params[0].e - 2, np.float32),
                                 plan, enc.params[0], buf)
    short = new_soft_buffer(plan)
    short.llrs = short.llrs[:-4]
    with pytest.raises(InvalidConfigError):
        rate_recover_and_combine(noiseless_llrs(enc.streams[0]), plan,
                                 enc.params[0], short)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_llrs_rejected(rng, bad):
    plan, enc, _ = _setup(rng)
    llrs = noiseless_llrs(enc.streams[0], 4.0)
    llrs[7] = bad
    buf = new_soft_buffer(plan)
    with pytest.raises(InvalidConfigError):
        rate_recover_and_combine(llrs, plan, enc.params[0], buf)


@pytest.mark.parametrize("bits", [[0, 1, 2], [3, 0], [0, -1], [0.5, 1]])
def test_non_binary_bits_rejected(bits, rng):
    with pytest.raises(InvalidConfigError):
        noiseless_llrs(np.asarray(bits))
    with pytest.raises(InvalidConfigError):
        awgn_llrs(np.asarray(bits), 0.5, rng)


@pytest.mark.parametrize("sigma", [0.0, -0.5, np.nan, np.inf])
def test_awgn_noise_level_must_be_positive_and_finite(sigma, rng):
    with pytest.raises(InvalidConfigError):
        awgn_llrs(np.zeros(8, np.uint8), sigma, rng)


@pytest.mark.parametrize("x,q", [
    (0.0, 0), (-0.0, 0), (0.1, 0), (0.125, 1), (-0.125, -1), (0.375, 2),
    (-0.375, -2), (0.625, 3), (-0.625, -3), (1.2, 5), (-1.2, -5),
    # a float32 just below one half after scaling: adding 0.5 in float32
    # would round it up to 1
    (np.nextafter(np.float32(0.125), np.float32(0.0)), 0),
    (2047.6, 8190), (LLR_MAX, LLR_SAT), (-LLR_MAX, -LLR_SAT),
    (3e4, LLR_SAT), (-1e30, -LLR_SAT)])
def test_quantisation_scales_rounds_half_away_and_saturates(x, q):
    got = quantized(np.array([x], dtype=np.float32))
    assert got.dtype == LLR_DTYPE
    assert got.tolist() == [q]


def test_float64_llrs_round_without_passing_through_float32():
    # 0.125 - 1e-12 is 0.125 in float32, a half after scaling
    got = quantized(np.array([0.125 - 1e-12, -0.125 + 1e-12, 2.5]))
    assert got.tolist() == [0, 0, 10]


def test_repeated_positions_saturate_without_wrapping(rng):
    """E = 3 Ncb at full confidence sums up to four values of LLR_SAT into
    one position, past the int16 range; combining the opposite signs
    afterwards drives every sent position to the other bound."""
    plan = segment_tb(300, 0.5)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    plan, enc, _ = _setup(rng, e=2 * ((3 * ncb) // 2))
    positions = selection_positions(plan, enc.params[0])
    assert np.bincount(positions).max() >= 4
    sent = np.zeros(ncb, bool)
    sent[positions] = True
    lo, hi = filler_range(plan)
    sent[lo:hi] = False
    buf = new_soft_buffer(plan)
    llrs = noiseless_llrs(enc.streams[0])
    rate_recover_and_combine(llrs, plan, enc.params[0], buf)
    signs = np.sign(buf.llrs[sent])
    assert (buf.llrs[sent] == signs * LLR_SAT).all()
    for _ in range(2):
        rate_recover_and_combine(-llrs, plan, enc.params[0], buf)
    assert (buf.llrs[sent] == -signs * LLR_SAT).all()
    assert (buf.llrs[lo:hi] == LLR_SAT).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_llrs_fail_before_quantisation(bad, monkeypatch):
    def unreachable(llrs):
        raise AssertionError("quantised before the check")

    monkeypatch.setattr(softbuffer, "quantized", unreachable)
    params = RateMatchParams(e=4, rv=0, qm=2, ncb=100)
    with pytest.raises(VranPhyError):
        softbuffer.received_llrs(np.array([1.0, bad, 0.0, 2.0]), params)


@pytest.mark.parametrize("bad", [
    np.array([1 + 1j, 2]), np.array(["1", "2"]), np.array([None, 1.0]),
    np.array([True, False])], ids=["complex", "str", "object", "bool"])
def test_llrs_that_are_no_real_numbers_rejected(bad):
    params = RateMatchParams(e=2, rv=0, qm=2, ncb=100)
    with pytest.raises(InvalidConfigError):
        softbuffer.received_llrs(bad, params)


def test_a_stream_in_the_format_passes_as_it_is():
    params = RateMatchParams(e=4, rv=0, qm=2, ncb=100)
    rx = np.array([-LLR_SAT, -1, 0, 7], dtype=LLR_DTYPE)
    assert softbuffer.received_llrs(rx, params) is rx


def combine_oracle(llrs, plan, params, prior):
    """The add.at form: de-interleave, sum onto the selected positions in
    int32, saturate, pin the filler."""
    seq = deinterleave(softbuffer.received_llrs(llrs, params), params.qm)
    total = prior.astype(np.int32)
    np.add.at(total, selection_positions(plan, params), seq.astype(np.int32))
    out = np.clip(total, -LLR_SAT, LLR_SAT).astype(LLR_DTYPE)
    lo, hi = filler_range(plan)
    out[lo:hi] = LLR_SAT
    return out


@pytest.mark.parametrize("name", sorted(ORACLE_PLANS))
def test_combining_equals_the_add_at_oracle(name):
    """Bit for bit, on a prior buffer of any values, with LLRs that reach
    saturation so that repeated positions (E > Ncb) sum past int16."""
    rng = np.random.default_rng(list(name.encode()))
    for plan, ncb, qm, e in oracle_cases(name):
        for rv in range(4):
            params = RateMatchParams(e=e, rv=rv, qm=qm, ncb=ncb)
            prior = rng.integers(-LLR_SAT, LLR_SAT + 1, ncb, dtype=LLR_DTYPE)
            llrs = rng.integers(-LLR_SAT, LLR_SAT + 1, e, dtype=LLR_DTYPE)
            llrs[::3] = LLR_SAT
            want = combine_oracle(llrs, plan, params, prior)
            buf = softbuffer.SoftBuffer(llrs=prior.copy())
            got = rate_recover_and_combine(llrs, plan, params, buf)
            assert got is buf
            np.testing.assert_array_equal(
                buf.llrs, want,
                err_msg=f"{name} ncb={ncb} qm={qm} e={e} rv={rv}")
