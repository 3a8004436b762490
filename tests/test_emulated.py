import itertools

import numpy as np
import pytest

from vranphy.backends import emulated
from vranphy.backends.emulated import (DRAW_BLOCK, OCCUPANCY_FRACTION,
                                       block_draws)
from vranphy.backends.model import calibrate_per_generation
from vranphy.deployment.harness import SUBMIT_JITTER_US
from vranphy.errors import InvalidConfigError


def test_full_pool_grants_waiting_calls_in_submission_order(t2_quiet):
    dev = t2_quiet
    assert dev.parallel_servers == 8
    # later calls are shorter, so servers free up in reverse order
    calls = [dev.submit(100.0, "decode", "per_slot", 1, 20 - i,
                        0.5 * (20 - i)) for i in range(10)]
    assert [c.start_us for c in calls[:8]] == [100.0] * 8
    assert calls[8].start_us is None and calls[9].start_us is None
    releases = sorted(c.start_us + OCCUPANCY_FRACTION * c.base_us
                      for c in calls[:8])
    assert releases[0] < releases[1]
    dev.drain()
    assert calls[8].start_us == releases[0]
    assert calls[9].start_us == releases[1]
    done = dev.pop_completed()
    keys = [(c.completion_us, c.seq) for c in done]
    assert keys == sorted(keys)
    assert sorted(c.seq for c in done) == [c.seq for c in calls]
    assert [c.seq for c in done] != [c.seq for c in calls]
    assert dev.pop_completed() == []


def test_bundled_calibration_is_fitted_once_per_process(monkeypatch):
    fits = []

    def counted(*args):
        fits.append(args)
        return calibrate_per_generation(*args)

    emulated._bundled_models.cache_clear()
    monkeypatch.setattr(emulated, "calibrate_per_generation", counted)
    a = emulated.make_emulated_t2()
    b = emulated.make_emulated_t2(seed=1)
    assert fits == [()]
    assert a.models == b.models and a.models is not b.models


@pytest.mark.parametrize("arrival, shape", [
    (float("nan"), (1, 20, 10.0)),
    (100.0, (1, 20, float("nan"))),
    (100.0, (-1, 20, -303.0)),
    (100.0, (1, -2, 10.0)),
    (100.0, (float("inf"), 20, 10.0)),
], ids=["nan-arrival", "nan-kbits", "negative-tb-and-kbits",
        "negative-cbs", "infinite-tbs"])
def test_submit_rejects_a_malformed_call(t2_quiet, arrival, shape):
    dev = t2_quiet
    with pytest.raises(InvalidConfigError):
        dev.submit(arrival, "decode", "per_slot", *shape)
    # a rejected call leaves the device as it was
    call = dev.submit(100.0, "decode", "per_slot", 1, 20, 10.0)
    assert call.seq == 0 and call.start_us == 100.0
    assert call.base_us > 0


def test_submit_rejects_an_arrival_before_the_clock(t2_quiet):
    t2_quiet.submit(100.0, "decode", "per_slot", 1, 20, 10.0)
    with pytest.raises(InvalidConfigError):
        t2_quiet.submit(50.0, "decode", "per_slot", 1, 20, 10.0)


def test_submit_prices_each_call_shape_once(t2_quiet, monkeypatch):
    dev = t2_quiet
    priced = []
    real = dev.base_service_us

    def counted(*shape):
        priced.append(shape)
        return real(*shape)

    monkeypatch.setattr(dev, "base_service_us", counted)
    dl = ("encode", "per_slot", 1, 129, 1081.512)
    ul = ("decode", "per_slot", 1, 36, 303.24)
    calls = [dev.submit(100.0 * k, *(dl if k % 2 else ul))
             for k in range(6)]
    assert priced == [ul, dl]
    assert {c.base_us for c in calls[::2]} == {real(*ul)}
    assert {c.base_us for c in calls[1::2]} == {real(*dl)}


@pytest.mark.parametrize("seed", [0, 3, 17, 2024])
def test_block_draws_are_the_scalar_draws(seed):
    """A block of ``random`` scaled by the jitter width is the sequence of
    scalar ``uniform(0, width)`` draws, and a block of ``standard_normal``
    is the sequence of scalar ``standard_normal`` draws, bit for bit."""
    n = 2 * DRAW_BLOCK + 37
    scalar = np.random.default_rng(seed)
    block = block_draws(np.random.default_rng(seed).random)
    for _ in range(n):
        assert SUBMIT_JITTER_US * next(block) == \
            scalar.uniform(0.0, SUBMIT_JITTER_US)
    scalar = np.random.default_rng(seed)
    block = block_draws(np.random.default_rng(seed).standard_normal)
    assert list(itertools.islice(block, n)) == \
        [scalar.standard_normal() for _ in range(n)]
