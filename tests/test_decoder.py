import numpy as np
import pytest

from vranphy.nr import (awgn_llrs, buffer_length, decode_tb, encode_cb,
                        encode_tb, ldpc_decode, lifted, mcs_params,
                        new_soft_buffer, noiseless_llrs,
                        rate_recover_and_combine, segment_tb, split_payload)
from vranphy.nr import crc, decoder
from vranphy.nr.decoder import DEFAULT_MAX_ITERS

# empirically calibrated: far inside the correction capability of the
# full-buffer configuration used below (the waterfall sits above 260)
CALIBRATED_FLIPS = 64


def _full_buffer_e(plan):
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    return 2 * ((ncb - plan.filler_per_cb) // 2)


def _loopback(payload, plan):
    """Noiseless encode -> exact-LLR mapping -> decode round trip."""
    enc = encode_tb(payload, plan, _full_buffer_e(plan), qm=2, layers=1)
    return decode_tb([noiseless_llrs(s) for s in enc.streams], plan,
                     enc.params)


def test_noiseless_round_trip_is_nearly_instant(rng):
    plan = segment_tb(300, 0.5)
    payload = rng.integers(0, 2, 300).astype(np.uint8)
    out = _loopback(payload, plan)
    assert out.tb_crc_ok and all(out.cb_crc_ok)
    np.testing.assert_array_equal(out.payload, payload)
    assert all(it <= 2 for it in out.iterations)


def test_calibrated_sign_flips_corrected():
    plan = segment_tb(300, 0.5)
    e = _full_buffer_e(plan)
    for seed in range(20):
        r = np.random.default_rng(seed)
        payload = r.integers(0, 2, 300).astype(np.uint8)
        enc = encode_tb(payload, plan, e, qm=2, layers=1)
        llrs = noiseless_llrs(enc.streams[0], magnitude=8.0)
        idx = r.choice(llrs.size, CALIBRATED_FLIPS, replace=False)
        llrs[idx] = -llrs[idx]
        buf = new_soft_buffer(plan)
        rate_recover_and_combine(llrs, plan, enc.params[0], buf)
        res = ldpc_decode(buf, plan)
        assert res.crc_ok, seed
        np.testing.assert_array_equal(
            res.info_bits[: plan.payload_bits], payload)


def test_uniform_random_llrs_rejected_by_crc():
    # multi-segment plan: every segment carries a 24-bit checksum
    qm, rate = mcs_params(28, "T1")
    plan = segment_tb(9000, float(rate))
    assert plan.cb_crc_present
    for seed in range(40):
        r = np.random.default_rng(1000 + seed)
        buf = new_soft_buffer(plan)
        lo = plan.k_prime - 2 * plan.lifting_size
        buf.llrs[:] = r.uniform(-10, 10, buf.llrs.size).astype(np.float32)
        res = ldpc_decode(buf, plan, max_iters=2)
        assert not res.crc_ok, seed


def test_iterations_reported_and_bounded(rng):
    plan = segment_tb(300, 0.5)
    e = _full_buffer_e(plan)
    payload = rng.integers(0, 2, 300).astype(np.uint8)
    enc = encode_tb(payload, plan, e, qm=2, layers=1)
    llrs = noiseless_llrs(enc.streams[0], magnitude=6.0)
    idx = rng.choice(llrs.size, CALIBRATED_FLIPS, replace=False)
    llrs[idx] = -llrs[idx]
    buf = new_soft_buffer(plan)
    rate_recover_and_combine(llrs, plan, enc.params[0], buf)
    res = ldpc_decode(buf, plan, max_iters=8)
    assert 1 <= res.iterations_used <= 8
    assert res.parity_ok


def test_punctured_head_recovered_from_parity(rng):
    # the first 2Z information bits are never transmitted; the decoder
    # must reconstruct them exactly
    plan = segment_tb(300, 0.5)
    payload = rng.integers(0, 2, 300).astype(np.uint8)
    out = _loopback(payload, plan)
    head = out.payload[: 2 * plan.lifting_size]
    np.testing.assert_array_equal(head, payload[: 2 * plan.lifting_size])


def test_erased_block_is_undecided():
    # nothing received: every information total stays 0, so the all-zero
    # hard decision (which the zero-state CRC accepts) is no pass
    plan = segment_tb(300, 0.5)
    res = ldpc_decode(new_soft_buffer(plan), plan)
    assert not res.crc_ok
    assert not res.parity_ok
    assert res.iterations_used == DEFAULT_MAX_ITERS


def test_dtx_transport_block_fails_crc():
    qm, rate = mcs_params(28, "T1")
    plan = segment_tb(9000, float(rate))
    assert plan.num_cbs > 1
    enc = encode_tb(np.zeros(9000, np.uint8), plan, 4 * 2400, qm, 1)
    out = decode_tb([np.zeros(p.e, np.float32) for p in enc.params], plan,
                    enc.params)
    assert not out.tb_crc_ok
    assert not any(out.cb_crc_ok)


def test_corrupted_code_block_fails_its_crc_and_the_tb(rng):
    """A block that decodes to a valid codeword whose CB CRC does not hold
    fails on the decoder's verdict, and so does its TB."""
    qm, rate = mcs_params(28, "T1")
    plan = segment_tb(9000, float(rate))
    assert plan.cb_crc_present
    payload = rng.integers(0, 2, 9000).astype(np.uint8)
    enc = encode_tb(payload, plan, 4 * 2400, qm, 1)
    bits = split_payload(payload, plan)[1]
    bits[5] ^= 1
    enc.streams[1] = encode_cb(bits[None], plan, [enc.params[1]])[0]
    out = decode_tb([noiseless_llrs(s) for s in enc.streams], plan,
                    enc.params)
    assert out.cb_crc_ok == [True, False]
    assert not out.tb_crc_ok
    pos = plan.segment_data_bits + 5    # the flipped bit in the payload
    assert out.payload[pos] != payload[pos]


@pytest.mark.parametrize("sigma", [0.0, 0.7, 0.9])
@pytest.mark.parametrize("erased", [0.0, 0.3])
def test_negative_zeros_decode_as_positive_zeros(sigma, erased, rng):
    """A soft buffer whose zeros are -0.0 decodes to the same result as
    with +0.0: rv 0 over two thirds of the buffer, with a share of its
    LLRs erased, leaves zeros in rows that run, and noise makes the
    decoder iterate."""
    plan = segment_tb(300, 0.5)
    e = 2 * (buffer_length(plan.base_graph, plan.lifting_size) // 3)
    payload = rng.integers(0, 2, 300).astype(np.uint8)
    enc = encode_tb(payload, plan, e, qm=2, layers=1)
    llrs = noiseless_llrs(enc.streams[0]) if sigma == 0.0 else awgn_llrs(
        enc.streams[0], sigma, rng)
    llrs[rng.random(llrs.size) < erased] = 0.0
    buf = rate_recover_and_combine(llrs, plan, enc.params[0],
                                   new_soft_buffer(plan))
    negative = new_soft_buffer(plan)
    negative.llrs[:] = np.where(buf.llrs == 0, np.float32(-0.0), buf.llrs)
    assert np.signbit(negative.llrs[negative.llrs == 0]).all()
    plus, minus = ldpc_decode(buf, plan), ldpc_decode(negative, plan)
    np.testing.assert_array_equal(minus.info_bits, plus.info_bits)
    assert (minus.crc_ok, minus.iterations_used, minus.parity_ok) == \
        (plus.crc_ok, plus.iterations_used, plus.parity_ok)


def _reference_messages(v):
    """Per-edge min-sum rule: the smallest magnitude among the other
    edges, normalised and clamped, signed by the parity of the other
    edges' signs (a zero counts as positive)."""
    out = np.empty_like(v)
    for j in range(v.shape[0]):
        others = np.delete(v, j, axis=0)
        mag = np.minimum(np.float32(decoder.NORMALIZATION)
                         * np.abs(others).min(axis=0),
                         np.float32(decoder._MSG_CLAMP))
        negative = np.logical_xor.reduce(others < 0, axis=0)
        out[j] = np.where(negative, np.float32(-1), np.float32(1)) * mag
    return out


@pytest.mark.parametrize("degree", [3, 8, 19])
def test_row_messages_match_the_per_edge_rule(degree):
    """Random blocks with ties at the smallest magnitude, exact zeros and
    magnitudes past the clamp; compared bit for bit, zeros' signs too."""
    r = np.random.default_rng(degree)
    z = 64
    for _ in range(20):
        v = r.normal(0.0, 4.0, (degree, z)).astype(np.float32)
        v[r.random(v.shape) < 0.1] = 0.0
        v[r.random(v.shape) < r.choice([0.05, 0.9])] *= np.float32(2.0 ** 26)
        # two edges (one when the draws agree) at the column's smallest
        # magnitude, each with a random sign
        m1 = np.abs(v).min(axis=0)
        for row in r.integers(0, degree, (2, z)):
            v[row, np.arange(z)] = m1 * r.choice([-1, 1], z)
        v += np.float32(0.0)              # the decoder holds no -0.0
        assert ((np.abs(v) == m1).sum(axis=0) > 1).any()
        out = np.empty_like(v)
        decoder._row_messages(v, out)
        np.testing.assert_array_equal(out.view(np.uint32),
                                      _reference_messages(v).view(np.uint32))


def _reference_decode(buf, plan):
    """The decoder's own loop on the full lifted graph: every row runs."""
    channel = decoder._channel(buf, plan)
    st = lifted(plan.base_graph, plan.lifting_size)
    totals, iters, _ = decoder._layered_min_sum(st, channel,
                                                DEFAULT_MAX_ITERS)
    info = (totals < 0)[: plan.k_prime].astype(np.uint8)
    ok = bool(totals[: st.k].all()) and decoder._crc_verdict(info, plan)
    return info, ok, iters


def test_single_block_tb_crc_is_computed_once(rng, monkeypatch):
    plan = segment_tb(300, 0.5)
    assert plan.num_cbs == 1 and not plan.cb_crc_present
    payload = rng.integers(0, 2, 300).astype(np.uint8)
    enc = encode_tb(payload, plan, _full_buffer_e(plan), qm=2, layers=1)
    llrs = [noiseless_llrs(s) for s in enc.streams]
    calls = []
    compute = crc.crc_compute

    def counted(bits, kind):
        calls.append(kind)
        return compute(bits, kind)

    monkeypatch.setattr(crc, "crc_compute", counted)
    out = decode_tb(llrs, plan, enc.params)
    assert out.tb_crc_ok and all(out.cb_crc_ok)
    np.testing.assert_array_equal(out.payload, payload)
    assert calls == [plan.tb_crc_kind]


def _awgn_buffer(plan, a, e, rvs, sigma, rng):
    """Soft buffer combining BPSK-AWGN transmissions, one per rv, of a
    random ``a``-bit payload."""
    payload = rng.integers(0, 2, a, dtype=np.uint8)
    buf = new_soft_buffer(plan)
    for rv in rvs:
        enc = encode_tb(payload, plan, e, qm=2, layers=1, rv=rv)
        rate_recover_and_combine(awgn_llrs(enc.streams[0], sigma, rng), plan,
                                 enc.params[0], buf)
    return buf


@pytest.mark.parametrize("a,rate,bg", [(1000, 0.8, 1), (500, 0.5, 2)],
                         ids=["bg1", "bg2"])
@pytest.mark.parametrize("rvs", [(0,), (0, 2)], ids=["rv0", "rv0+rv2"])
@pytest.mark.parametrize("sigma,decodes", [(0.5, True), (1.6, False)])
def test_row_pruning_changes_no_decision(a, rate, bg, rvs, sigma, decodes):
    plan = segment_tb(a, rate)
    assert plan.base_graph == bg
    e = 2 * round(plan.k_prime / rate / 2)
    z = plan.lifting_size
    verdicts = []
    for seed in range(6):
        r = np.random.default_rng([seed, a])
        buf = _awgn_buffer(plan, a, e, rvs, sigma, r)
        parity_cols = decoder._channel(buf, plan).reshape(-1, z)[
            plan.k // z:]
        assert not parity_cols.any(axis=1).all()   # some rows are pruned
        res = ldpc_decode(buf, plan)
        ref_info, ref_ok, ref_iters = _reference_decode(buf, plan)
        assert res.iterations_used <= ref_iters
        if res.crc_ok and ref_ok:
            np.testing.assert_array_equal(res.info_bits, ref_info)
        verdicts.append((res.crc_ok, ref_ok))
    # pruning passes every block the full graph passes
    assert all(ok or not ref_ok for ok, ref_ok in verdicts)
    assert sum(ok for ok, _ in verdicts) == (6 if decodes else 0)


# CB CRC passes and total iterations of 20 seeded blocks per point,
# measured on the flooding min-sum decoder this one replaced:
# (shape, rvs) -> {sigma: (passed, iterations)}
FLOODING_SWEEP = {
    ("bg1", (0,)): {0.45: (20, 93), 0.5: (20, 136), 0.55: (4, 160)},
    ("bg1", (0, 2)): {0.75: (18, 138), 0.85: (16, 156), 0.95: (0, 160)},
    ("bg2", (0,)): {0.6: (20, 101), 0.65: (20, 120), 0.7: (17, 143)},
    ("bg2", (0, 2)): {1.05: (20, 148), 1.15: (14, 160), 1.25: (4, 160)},
}
SWEEP_SHAPES = {"bg1": (1000, 0.8), "bg2": (500, 0.5)}


@pytest.mark.parametrize("shape,rvs", list(FLOODING_SWEEP),
                         ids=lambda v: v if isinstance(v, str)
                         else "+".join(f"rv{rv}" for rv in v))
def test_awgn_sweep_no_worse_than_flooding(shape, rvs):
    a, rate = SWEEP_SHAPES[shape]
    plan = segment_tb(a, rate)
    e = 2 * round(plan.k_prime / rate / 2)
    for sigma, (flood_passed, flood_iters) in FLOODING_SWEEP[
            (shape, rvs)].items():
        passed = iters = 0
        for seed in range(20):
            r = np.random.default_rng([seed, a, round(sigma * 100)])
            res = ldpc_decode(_awgn_buffer(plan, a, e, rvs, sigma, r), plan)
            passed += res.crc_ok
            iters += res.iterations_used
        assert passed >= flood_passed, sigma
        assert iters <= flood_iters, sigma
