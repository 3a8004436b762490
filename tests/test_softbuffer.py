import numpy as np
import pytest

from vranphy.errors import InvalidConfigError
from vranphy.nr import (RateMatchParams, buffer_length, encode_tb,
                        new_soft_buffer, noiseless_llrs,
                        rate_recover_and_combine, segment_tb,
                        selection_positions)
from vranphy.nr.ratematch import filler_range
from vranphy.nr.softbuffer import FLOAT_CLAMP


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
            assert buf.llrs[p] == FLOAT_CLAMP
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
    big = noiseless_llrs(enc.streams[0], magnitude=FLOAT_CLAMP)
    buf = new_soft_buffer(plan)
    for _ in range(3):
        rate_recover_and_combine(big, plan, enc.params[0], buf)
    assert np.abs(buf.llrs).max() <= FLOAT_CLAMP


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
