import numpy as np
import pytest

from vranphy.deployment.harness import PhyTestTraffic
from vranphy.errors import InvalidConfigError
from vranphy.nr import (awgn_llrs, buffer_length, compute_tbs, decode_cb,
                        encode_cb, encode_tb, ldpc_decode, ldpc_encode,
                        lifted, mcs_params, new_soft_buffer, noiseless_llrs,
                        rate_recover_and_combine, resource_elements,
                        segment_tb, split_payload)
from vranphy.nr import crc, decoder
from vranphy.nr.decoder import DEFAULT_MAX_ITERS, DecodeResult
from vranphy.nr.segmentation import CB_CRC
from vranphy.nr.softbuffer import LLR_DTYPE, LLR_SAT, quantized
import float_decoder
from syndrome import syndrome_passes
from test_golden import UL_GOLDEN, _payload, _phy_test
from ul_oracle import decode_tb

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
        buf.llrs[:] = quantized(r.uniform(-10, 10, buf.llrs.size))
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
    assert res.crc_ok


@pytest.mark.parametrize("max_iters", [0, -1, 2.5, "8", None])
def test_max_iters_must_be_a_positive_integer(max_iters, rng):
    plan = segment_tb(300, 0.5)
    buf = _awgn_buffer(plan, 300, _full_buffer_e(plan), (0,), 0.7, rng)
    for decode in (ldpc_decode, lambda b, p, m: decoder.ldpc_decode_batch(
            [b, b], p, m)):
        with pytest.raises(InvalidConfigError, match="max_iters"):
            decode(buf, plan, max_iters)


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
    """An LLR stream whose zeros are -0.0 decodes to the same result as
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
    negative = np.where(llrs == 0, np.float32(-0.0), llrs)
    assert np.signbit(negative[negative == 0]).all()
    buffers = [rate_recover_and_combine(x, plan, enc.params[0],
                                        new_soft_buffer(plan))
               for x in (llrs, negative)]
    np.testing.assert_array_equal(buffers[0].llrs, buffers[1].llrs)
    plus, minus = (ldpc_decode(b, plan) for b in buffers)
    np.testing.assert_array_equal(minus.info_bits, plus.info_bits)
    assert (minus.crc_ok, minus.iterations_used) == \
        (plus.crc_ok, plus.iterations_used)


def _reference_messages(v):
    """Per-edge min-sum rule in integers: the smallest magnitude m among
    the other edges, times 0.75 rounded down, signed by the parity of the
    other edges' signs (a zero counts as positive)."""
    out = np.empty_like(v)
    for j in range(v.shape[0]):
        others = np.delete(v, j, axis=0).astype(np.int64)
        m = np.abs(others).min(axis=0)
        mag = 3 * m // 4
        negative = np.logical_xor.reduce(others < 0, axis=0)
        out[j] = np.where(negative, -mag, mag)
    return out


@pytest.mark.parametrize("degree", [3, 8, 19])
def test_row_messages_match_the_per_edge_rule(degree):
    """Random blocks with ties at the smallest magnitude, exact zeros and
    magnitudes at the saturation bound; compared value for value."""
    r = np.random.default_rng(degree)
    z = 64
    for _ in range(20):
        v = np.round(r.normal(0.0, 40.0, (degree, z))).astype(np.int64)
        v[r.random(v.shape) < 0.1] = 0
        v[r.random(v.shape) < r.choice([0.05, 0.9])] = LLR_SAT
        v = np.clip(v * r.choice([-1, 1], v.shape), -LLR_SAT, LLR_SAT)
        # two edges (one when the draws agree) at the column's smallest
        # magnitude, each with a random sign
        m1 = np.abs(v).min(axis=0)
        for row in r.integers(0, degree, (2, z)):
            v[row, np.arange(z)] = m1 * r.choice([-1, 1], z)
        v = v.astype(LLR_DTYPE)
        assert ((np.abs(v) == m1).sum(axis=0) > 1).any()
        out = np.empty_like(v)
        decoder._row_messages(v, out)
        np.testing.assert_array_equal(out, _reference_messages(v))


def test_saturated_channel_never_wraps_a_total(monkeypatch, rng):
    """A channel at +-LLR_SAT everywhere that is no codeword: every row's
    first messages are the largest there are, totals pass LLR_SAT by that
    much and later rows take their own messages off them, over all
    DEFAULT_MAX_ITERS passes. The int16 chunk ends on the totals the same
    arithmetic gives in int64, where nothing can wrap."""
    plan = segment_tb(1000, 0.8)
    st = lifted(plan.base_graph, plan.lifting_size)
    channel = np.where(rng.random(st.n_used) < 0.5, -LLR_SAT, LLR_SAT)
    largest = []
    real = decoder._row_messages

    def recording(v, out):
        real(v, out)
        largest.append(int(np.abs(out).max()))

    monkeypatch.setattr(decoder, "_row_messages", recording)
    totals = channel.astype(LLR_DTYPE)[:, None].copy()
    results = [None]
    decoder._decode_chunk(st, totals, [0], plan, DEFAULT_MAX_ITERS, results)
    assert results[0].iterations_used == DEFAULT_MAX_ITERS
    assert not results[0].crc_ok
    assert max(largest) == 3 * LLR_SAT // 4

    def wide_messages(v, out):
        out[...] = _reference_messages(v)

    want, iterations, passed = _per_cb_min_sum(
        st, plan, channel.astype(np.int64), DEFAULT_MAX_ITERS, wide_messages)
    assert (iterations, passed) == (DEFAULT_MAX_ITERS, False)
    assert np.abs(want).max() > LLR_SAT
    np.testing.assert_array_equal(totals[:, 0], want)


def _per_cb_passes(st, plan, totals):
    """The exit test on one block, as a receiver checks one block: every
    information position decided and the segment CRC passing on the hard
    decisions (the CB CRC24B, or the TB CRC of a single segment)."""
    kind = CB_CRC if plan.cb_crc_present else plan.tb_crc_kind
    info = (totals[: plan.k_prime] < 0).astype(np.uint8)
    return bool(totals[: st.k].all()) and crc.crc_check(info, kind)


def _per_cb_min_sum(st, plan, channel, max_iters,
                    row_messages=decoder._row_messages):
    """The layered min-sum loop on one code block at a time, the oracle of
    the batch: final totals, iterations run, and whether the block passed
    the exit test. The arithmetic is in ``channel``'s dtype."""
    totals = channel.copy()
    decoder._peel_erasures(st, totals)
    if _per_cb_passes(st, plan, totals):
        return totals, 0, True
    sent = [np.zeros(index.shape, dtype=totals.dtype)
            for index in st.row_blocks]
    for it in range(1, max_iters + 1):
        for index, messages in zip(st.row_blocks, sent):
            v = np.clip(totals.take(index) - messages, -LLR_SAT, LLR_SAT)
            row_messages(v, messages)
            totals[index] = v + messages
        if _per_cb_passes(st, plan, totals):
            return totals, it, True
    return totals, max_iters, False


def _oracle_decode(buf, plan, max_iters=DEFAULT_MAX_ITERS, full=False):
    """One block through the per-CB loop, on the rows the buffer reached
    or (``full``) on every row."""
    channel = decoder._channel(buf, plan)
    st = lifted(plan.base_graph, plan.lifting_size) if full \
        else decoder._reached_structure(channel, plan)
    totals, iters, passed = _per_cb_min_sum(st, plan, channel, max_iters)
    info = (totals < 0)[: plan.k_prime].astype(np.uint8)
    return DecodeResult(info_bits=info, crc_ok=passed, iterations_used=iters)


def _reference_decode(buf, plan):
    """The per-CB loop on the full lifted graph: every row runs."""
    res = _oracle_decode(buf, plan, full=True)
    return res.info_bits, res.crc_ok, res.iterations_used


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
    """First code block's soft buffer combining BPSK-AWGN transmissions,
    one per rv and ``e`` bits per block, of a random ``a``-bit payload."""
    payload = rng.integers(0, 2, a, dtype=np.uint8)
    buf = new_soft_buffer(plan)
    for rv in rvs:
        enc = encode_tb(payload, plan, e * plan.num_cbs, qm=2, layers=1,
                        rv=rv)
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
# two BG1 segments at Z 208, each with its CB CRC24B
TWO_CB_SHAPE = (8500, 0.8)


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


def _mixed_buffers(shape, count, seed):
    """``count`` soft buffers of the first code block of the BG1 plan of
    ``shape``, an ``(a, rate)`` pair, cycling through: rv0 noise, passed after a few passes or not at
    all; rv0 + rv2, which reaches more rows; noiseless, passed by peeling
    at 0 iterations; erased; a partly erased block and its -0.0 twin; and
    noise that runs out at max_iters."""
    a, rate = shape
    plan = segment_tb(a, rate)
    e = 2 * round(plan.k_prime / rate / 2)
    r = np.random.default_rng([seed, count])
    buffers = []
    while len(buffers) < count:
        buffers.append(_awgn_buffer(plan, a, e, (0,), r.uniform(0.45, 0.6),
                                    r))
        buffers.append(_awgn_buffer(plan, a, e, (0, 2), r.uniform(0.6, 0.9),
                                    r))
        enc = encode_tb(r.integers(0, 2, a, dtype=np.uint8), plan,
                        e * plan.num_cbs, 2, 1)
        buffers.append(rate_recover_and_combine(
            noiseless_llrs(enc.streams[0]), plan, enc.params[0],
            new_soft_buffer(plan)))
        buffers.append(new_soft_buffer(plan))
        llrs = awgn_llrs(enc.streams[0], 0.5, r)
        llrs[r.random(llrs.size) < 0.2] = 0.0
        buffers += [rate_recover_and_combine(x, plan, enc.params[0],
                                             new_soft_buffer(plan))
                    for x in (llrs, np.where(llrs == 0, np.float32(-0.0),
                                             llrs))]
        buffers.append(_awgn_buffer(plan, a, e, (0,), 1.6, r))
    return plan, buffers[:count]


def _same_results(batch, oracle):
    assert len(batch) == len(oracle)
    for got, want in zip(batch, oracle):
        np.testing.assert_array_equal(got.info_bits, want.info_bits)
        assert (got.crc_ok, got.iterations_used) == \
            (want.crc_ok, want.iterations_used)


CHUNK = 3


@pytest.mark.parametrize("shape,count", [
    pytest.param(shape, count, id=f"{name}{count}")
    for name, shape in (("", SWEEP_SHAPES["bg1"]), ("cb-crc-", TWO_CB_SHAPE))
    for count in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 14)])
@pytest.mark.parametrize("max_iters", [DEFAULT_MAX_ITERS, 3])
def test_batch_matches_the_per_cb_oracle(shape, count, max_iters,
                                         monkeypatch):
    """Mixed batches decode block for block as the per-CB loop does, with
    chunks of CHUNK blocks: results at every chunk boundary, across
    reached-row groups, and whether a block leaves after its first pass
    that passes its segment CRC (the TB CRC of a single segment, or a CB
    CRC), at 0 iterations or at max_iters."""
    monkeypatch.setattr(decoder, "_chunk_width", lambda st: CHUNK)
    plan, buffers = _mixed_buffers(shape, count, seed=count)
    assert plan.cb_crc_present == (shape == TWO_CB_SHAPE)
    oracle = [_oracle_decode(buf, plan, max_iters) for buf in buffers]
    _same_results(decoder.ldpc_decode_batch(buffers, plan, max_iters),
                  oracle)
    if count == 14:
        iterations = {res.iterations_used for res in oracle}
        assert {0, max_iters} <= iterations
        assert len({decoder._reached_structure(decoder._channel(b, plan),
                                               plan)
                    for b, res in zip(buffers, oracle)
                    if res.iterations_used}) >= 3


@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 1])
def test_one_group_leaves_its_chunk_block_by_block(count, monkeypatch):
    """Blocks of one reached-row set that solve after different passes:
    the chunk drops each after its pass and goes on with the rest."""
    monkeypatch.setattr(decoder, "_chunk_width", lambda st: CHUNK)
    a, rate = SWEEP_SHAPES["bg1"]
    plan = segment_tb(a, rate)
    e = 2 * round(plan.k_prime / rate / 2)
    r = np.random.default_rng([7, count])
    buffers = [_awgn_buffer(plan, a, e, (0,), sigma, r)
               for sigma in r.uniform(0.35, 0.6, count)]
    oracle = [_oracle_decode(buf, plan) for buf in buffers]
    _same_results(decoder.ldpc_decode_batch(buffers, plan), oracle)
    # some chunk holds blocks that leave after different passes
    assert any(len({res.iterations_used for res in oracle[i:i + CHUNK]}) > 1
               for i in range(0, count, CHUNK))


def test_a_retransmitted_block_leaves_at_its_first_crc_pass():
    """On ``test_golden``'s rv0 sigma 0.625 + rv2 sigma 0.44 buffers, each
    CB leaves after the first pass whose exit test it passes, as the
    per-CB loop finds, also CBs whose syndrome still fails there (a core
    check keeps flipping, which kept them to the last pass under an exit
    on the syndrome). No CB runs DEFAULT_MAX_ITERS passes."""
    transmissions, _ = UL_GOLDEN["rv0_sigma0.625+rv2_sigma0.44"]
    tbs, plan, g, qm, layers = _phy_test("ul")
    payload = _payload(tbs, 11)
    rng = np.random.default_rng(12)
    buffers = [new_soft_buffer(plan) for _ in range(plan.num_cbs)]
    for rv, sigma in transmissions:
        enc = encode_tb(payload, plan, g, qm, layers, rv)
        out = decode_tb([awgn_llrs(s, sigma, rng) for s in enc.streams],
                        plan, enc.params, buffers)
    assert out.tb_crc_ok and all(out.cb_crc_ok)
    assert max(out.iterations) < DEFAULT_MAX_ITERS
    syndrome_failing = 0
    for buf, iterations in zip(buffers, out.iterations):
        channel = decoder._channel(buf, plan)
        st = decoder._reached_structure(channel, plan)
        totals, want, passed = _per_cb_min_sum(st, plan, channel,
                                               DEFAULT_MAX_ITERS)
        assert (iterations, passed) == (want, True)
        syndrome_failing += not syndrome_passes(st, (totals < 0)[:, None])[0]
    assert syndrome_failing


def test_chunk_width_holds_the_message_budget():
    """At the UL phy-test shape (BG1, Z 384), a chunk's messages fit the
    budget, and the budget holds several blocks on every row set."""
    for rows in [tuple(range(12)), None]:
        st = lifted(1, 384, rows)
        width = decoder._chunk_width(st)
        assert width >= 4
        assert width * st.var_index.size * np.dtype(LLR_DTYPE).itemsize \
            <= decoder._CHUNK_BYTES


def test_empty_batch_decodes_nothing():
    assert decoder.ldpc_decode_batch([], segment_tb(300, 0.5)) == []


def test_decode_cb_rejects_mismatched_batch_lengths():
    plan = segment_tb(300, 0.5)
    enc = encode_tb(np.zeros(300, np.uint8), plan, _full_buffer_e(plan), 2,
                    1)
    llrs = [noiseless_llrs(s) for s in enc.streams]
    with pytest.raises(InvalidConfigError):
        decode_cb(llrs * 2, plan, enc.params, [new_soft_buffer(plan)])


# Per-CB CRC verdicts of the int16 decoder against the float32 decoder it
# replaced (``float_decoder``) on seeded AWGN at the UL golden set's shape
# (PhyTestTraffic's one UL MCS: 36 BG1 CBs at Z 384), INT16_SWEEP_SEEDS
# transmissions at each sigma, 324 CBs in all. From the benchmark's clear
# channel (0.44) to just below the waterfall (near 0.625, where int16
# passes fewer CBs than float32). Set before the sweep was run: at most
# ALLOWED_DISAGREEMENTS CBs whose two verdicts differ.
INT16_SWEEP_SIGMAS = (0.44, 0.52, 0.60)
INT16_SWEEP_SEEDS = 3
ALLOWED_DISAGREEMENTS = 1


def test_int16_verdicts_match_the_float32_reference():
    t = PhyTestTraffic()
    qm, rate = mcs_params(t.ul_mcs, t.ul_table)
    plan = segment_tb(compute_tbs(t.prbs, t.symbols, t.ul_layers, t.ul_mcs,
                                  t.ul_table, t.overhead), rate)
    g = resource_elements(t.prbs, t.symbols, t.overhead) * qm * t.ul_layers
    disagreements = cbs = 0
    for sigma in INT16_SWEEP_SIGMAS:
        for seed in range(INT16_SWEEP_SEEDS):
            r = np.random.default_rng([seed, round(sigma * 100)])
            payload = r.integers(0, 2, plan.payload_bits, dtype=np.uint8)
            enc = encode_tb(payload, plan, g, qm, t.ul_layers)
            llrs = [awgn_llrs(s, sigma, r) for s in enc.streams]
            ints = decode_tb(llrs, plan, enc.params).cb_crc_ok
            buffers = [float_decoder.rate_recover_and_combine(
                x, plan, p, float_decoder.new_soft_buffer(plan))
                for x, p in zip(llrs, enc.params)]
            floats = [res.crc_ok for res in
                      float_decoder.ldpc_decode_batch(buffers, plan)]
            disagreements += sum(a != b for a, b in zip(ints, floats))
            cbs += len(ints)
    assert cbs == len(INT16_SWEEP_SIGMAS) * INT16_SWEEP_SEEDS * plan.num_cbs
    assert disagreements <= ALLOWED_DISAGREEMENTS, disagreements
