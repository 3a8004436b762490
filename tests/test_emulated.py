import heapq
import itertools
from collections import deque

import numpy as np
import pytest

from vranphy.backends import emulated
from vranphy.backends.emulated import (DEFAULT_SPIKE, DRAW_BLOCK,
                                       OCCUPANCY_FRACTION, CallRecord,
                                       block_draws)
from vranphy.backends.model import JitterSpec, calibrate_per_generation
from vranphy.deployment.harness import SUBMIT_JITTER_US
from vranphy.errors import InvalidConfigError
from vranphy.lpu import CallShape, CodingOpDescriptor, Granularity, OpKind


def test_full_pool_grants_waiting_calls_in_submission_order(t2_quiet):
    dev = t2_quiet
    assert dev.parallel_servers == 8
    # later calls are shorter, so servers free up in reverse order
    calls = [dev.submit(100.0, "decode", CallShape("per_slot", 1, 20 - i,
                                                   0.5 * (20 - i)))
             for i in range(10)]
    assert [c.start_us for c in calls[:8]] == [100.0] * 8
    releases = sorted(c.start_us + OCCUPANCY_FRACTION * c.base_us
                      for c in calls[:8])
    assert releases[0] < releases[1]
    # a waiting call's start is known when it is submitted
    assert calls[8].start_us == releases[0]
    assert calls[9].start_us == releases[1]
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
    a = emulated.make_emulated("t2-emulated")
    b = emulated.make_emulated("t2-emulated", seed=1)
    assert fits == [()]
    assert a.models == b.models and a.models is not b.models


@pytest.mark.parametrize("arrival, shape", [
    (float("nan"), (1, 20, 10.0)),
    (100.0, (1, 20, float("nan"))),
    (100.0, (-1, 20, -303.0)),
    (100.0, (1, -2, 10.0)),
    (100.0, (float("inf"), 20, 10.0)),
    (float("inf"), (1, 20, 10.0)),
], ids=["nan-arrival", "nan-kbits", "negative-tb-and-kbits",
        "negative-cbs", "infinite-tbs", "infinite-arrival"])
def test_submit_rejects_a_malformed_call(t2_quiet, arrival, shape):
    dev = t2_quiet
    with pytest.raises(InvalidConfigError):
        dev.submit(arrival, "decode", CallShape("per_slot", *shape))
    # a rejected call leaves the device as it was
    call = dev.submit(100.0, "decode", CallShape("per_slot", 1, 20, 10.0))
    assert call.seq == 0 and call.start_us == 100.0
    assert call.base_us > 0


def test_submit_rejects_an_arrival_before_the_clock(t2_quiet):
    t2_quiet.submit(100.0, "decode", CallShape("per_slot", 1, 20, 10.0))
    with pytest.raises(InvalidConfigError):
        t2_quiet.submit(50.0, "decode", CallShape("per_slot", 1, 20, 10.0))


def test_submit_prices_each_call_shape_once(t2_quiet, monkeypatch):
    """``submit`` and ``process`` price a (direction, shape) through one
    cache: each is priced the first time the device sees it, by either
    path, and both reuse that base time after."""
    dev = t2_quiet
    priced = []
    real = dev.base_service_us

    def counted(*shape):
        priced.append(shape)
        return real(*shape)

    monkeypatch.setattr(dev, "base_service_us", counted)
    dl = ("encode", CallShape("per_slot", 1, 129, 1081.512))
    ul = ("decode", CallShape("per_slot", 1, 36, 303.24))
    calls = [dev.submit(100.0 * k, *(dl if k % 2 else ul))
             for k in range(6)]
    assert priced == [ul, dl]
    assert {c.base_us for c in calls[::2]} == {real(*ul)}
    assert {c.base_us for c in calls[1::2]} == {real(*dl)}

    def op(direction, shape):
        return CodingOpDescriptor(kind=OpKind(direction),
                                  granularity=Granularity.CB, payload=[],
                                  shape=shape)

    per_cb = ("decode", CallShape("per_cb", 1.0, 1, 8.424))
    done = dev.process([op(*dl), op(*per_cb), op(*ul), op(*per_cb)])
    assert priced == [ul, dl, per_cb]
    assert [c.service_time_us for c in done] == \
        [real(*dl), real(*per_cb), real(*ul), real(*per_cb)]
    assert dev.submit(600.0, *per_cb).base_us == real(*per_cb)
    assert priced == [ul, dl, per_cb]


@pytest.mark.parametrize("seed", [0, 3, 17, 2024])
def test_block_draws_are_the_scalar_draws(seed):
    """A block of ``random`` scaled by the jitter width is the sequence of
    scalar ``uniform(0, width)`` draws, a block of ``standard_normal`` is
    the sequence of scalar ``standard_normal`` draws, and a device's spike
    blocks are the scalar spikes ``float(scale_us * np.exp(sigma * z))``
    of its normals ``z``, bit for bit."""
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
    # one server and one arrival: every call after the first is spiked
    t2 = emulated.make_emulated("t2-emulated")
    dev = emulated.EmulatedDevice(
        device_id="t2", capabilities=t2.capabilities, models=t2.models,
        parallel_servers=1, spike=DEFAULT_SPIKE, seed=seed)
    spikes = [dev.submit(0.0, *_UL).spike_us for _ in range(n + 1)][1:]
    normals = np.random.default_rng(seed).standard_normal
    scale_us, sigma = DEFAULT_SPIKE.scale_us, DEFAULT_SPIKE.sigma
    assert spikes == [float(scale_us * np.exp(sigma * normals()))
                      for _ in range(n)]


@pytest.mark.parametrize("servers", [0, -1, 2.0, True, None],
                         ids=["zero", "negative", "float", "bool", "none"])
def test_device_rejects_a_server_count_that_is_not_a_positive_int(
        t2_quiet, servers):
    with pytest.raises(InvalidConfigError):
        emulated.EmulatedDevice(device_id="bad",
                                capabilities=t2_quiet.capabilities,
                                models=t2_quiet.models,
                                parallel_servers=servers)


class _ReplayPool:
    """The event-replay engine the heap engine replaced, as a reference:
    each granted call pushes a server release (phase 0) and a completion
    (phase 1); events pop in (time, phase, seq) order and a release grants
    the oldest waiting call at the clock."""

    def __init__(self, device):
        self.device = device
        self.normals = np.random.default_rng(device.seed)
        self.seq = itertools.count()
        self.now_us = 0.0
        self.events = []
        self.waiting = deque()
        self.completed = []
        self.outstanding = 0
        self.busy = 0

    def submit(self, arrival_us, *shape):
        self.advance_to(arrival_us)
        call = CallRecord(arrival_us, self.device.base_service_us(*shape),
                          0.0, None, None, next(self.seq), None)
        spike = self.device.spike
        if spike.enabled and \
                self.outstanding + 1 > self.device.parallel_servers:
            call.spike_us = float(spike.scale_us * np.exp(
                spike.sigma * self.normals.standard_normal()))
        self.waiting.append(call)
        self.outstanding += 1
        self.try_start()
        return call

    def try_start(self):
        while self.waiting and self.busy < self.device.parallel_servers:
            call = self.waiting.popleft()
            call.start_us = self.now_us
            call.completion_us = call.start_us + (call.base_us
                                                  + call.spike_us)
            release = min(call.start_us + OCCUPANCY_FRACTION * call.base_us,
                          call.completion_us)
            self.busy += 1
            heapq.heappush(self.events, (release, 0, call.seq, call))
            heapq.heappush(self.events,
                           (call.completion_us, 1, call.seq, call))

    def advance_to(self, t_us):
        while self.events and self.events[0][0] <= t_us + 1e-9:
            when, phase, _, call = heapq.heappop(self.events)
            self.now_us = max(self.now_us, when)
            if phase == 0:
                self.busy -= 1
                self.try_start()
            else:
                self.outstanding -= 1
                self.completed.append(call)
        self.now_us = max(self.now_us, t_us)

    def pop_completed(self):
        done, self.completed = self.completed, []
        return done


_DL = ("encode", CallShape("per_slot", 1, 129, 1081.512))
_UL = ("decode", CallShape("per_slot", 1, 36, 303.24))
_EMPTY = ("decode", CallShape("per_slot", 0, 0, 0.0))   # zero base time


@pytest.mark.parametrize("servers", [1, 2, 8])
@pytest.mark.parametrize("spiked", [False, True], ids=["quiet", "spikes"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heap_grants_match_the_event_replay_engine(servers, spiked, seed):
    """Per call start, completion and spike, and the order of every
    ``pop_completed``, equal the event-replay engine's on seeded streams
    with bursts of equal arrivals that fill the pool, zero-time calls, and
    arrivals placed exactly at a release."""
    t2 = emulated.make_emulated("t2-emulated")
    dev = emulated.EmulatedDevice(
        device_id="t2", capabilities=t2.capabilities, models=t2.models,
        parallel_servers=servers,
        spike=DEFAULT_SPIKE if spiked else JitterSpec(), seed=seed)
    ref = _ReplayPool(dev)
    rng = np.random.default_rng(100 + seed)
    new_calls, ref_calls = [], []
    t = 0.0
    for slot in range(300):
        for _ in range(int(rng.integers(1, 2 * servers + 3))):
            roll = rng.random()
            if roll < 0.3:
                pass                              # equal to the last arrival
            elif roll < 0.5:                      # exactly at a release
                later = [c.start_us + OCCUPANCY_FRACTION * c.base_us
                         for c in new_calls[-3 * servers:]]
                later = [r for r in later if r >= t]
                t = min(later) if later else t
            else:
                t += float(rng.exponential(40.0))
            shape = (_DL, _UL, _EMPTY)[int(rng.choice(3, p=[.45, .45, .1]))]
            new_calls.append(dev.submit(t, *shape))
            ref_calls.append(ref.submit(t, *shape))
        if slot % 3 == 0:
            t += float(rng.exponential(200.0))
            dev.advance_to(t)
            ref.advance_to(t)
        assert [c.seq for c in dev.pop_completed()] == \
            [c.seq for c in ref.pop_completed()]
    dev.drain()
    ref.advance_to(float("inf"))
    assert [c.seq for c in dev.pop_completed()] == \
        [c.seq for c in ref.pop_completed()]
    assert [(c.start_us, c.completion_us, c.spike_us) for c in new_calls] \
        == [(c.start_us, c.completion_us, c.spike_us) for c in ref_calls]
    waited = sum(c.start_us > c.arrival_us for c in new_calls)
    assert waited > 0
    assert (sum(c.spike_us > 0 for c in new_calls) > 0) == spiked


def test_a_server_free_just_after_the_arrival_counts_as_free_at_it(t2_quiet):
    t2 = t2_quiet
    dev = emulated.EmulatedDevice(device_id="t2",
                                  capabilities=t2.capabilities,
                                  models=t2.models, parallel_servers=1)
    first = dev.submit(0.0, *_UL)
    release = OCCUPANCY_FRACTION * first.base_us
    second = dev.submit(release - 0.5e-9, *_UL)
    assert second.start_us == second.arrival_us < release


def test_every_completed_call_carries_its_own_submits_tag():
    """Instances sharing one device tag their calls; every record that
    ``pop_completed`` hands out, before and after ``drain``, is the one its
    ``submit`` returned and carries that submit's tag, unchanged."""
    dev = emulated.make_emulated("t2-emulated", seed=4)
    rng = np.random.default_rng(7)
    submitted = {}
    popped = []
    t = 0.0
    for slot in range(200):
        for instance in range(7):
            t += float(rng.exponential(15.0))
            direction = "ul" if rng.random() < 0.5 else "dl"
            tag = (instance, direction, slot)
            call = dev.submit(t, *(_UL if direction == "ul" else _DL),
                              tag=tag)
            assert call.tag is tag
            submitted[call.seq] = (call, tag)
        dev.advance_to(t)
        popped += dev.pop_completed()
    assert popped and len(popped) < len(submitted)
    untagged = dev.submit(t, *_UL)
    submitted[untagged.seq] = (untagged, None)
    dev.drain()
    popped += dev.pop_completed()
    assert sorted(c.seq for c in popped) == sorted(submitted)
    for call in popped:
        record, tag = submitted[call.seq]
        assert call is record and call.tag is tag
    assert sum(c.spike_us > 0 for c in popped) > 0


@pytest.mark.parametrize("t_us", [float("inf"), float("nan")],
                         ids=["infinite", "nan"])
def test_advance_to_rejects_a_time_that_is_not_finite(t2_quiet, t_us):
    """An infinite time would leave the clock at inf, so every later
    arrival would be rejected; a NaN one would be ignored unseen."""
    dev = t2_quiet
    call = dev.submit(10.0, *_UL)
    with pytest.raises(InvalidConfigError):
        dev.advance_to(t_us)
    # a rejected time leaves the device as it was
    assert dev.now_us == 10.0 and dev.pop_completed() == []
    dev.advance_to(call.completion_us)
    assert dev.pop_completed() == [call]
    assert dev.submit(2000.0, *_UL).start_us == 2000.0


def test_a_drained_device_takes_later_calls(t2_quiet):
    """Draining completes every call in flight and leaves the clock at the
    last completion, so a later arrival is still accepted."""
    dev = t2_quiet
    first = dev.submit(10.0, *_UL)
    dev.drain()
    assert dev.pop_completed() == [first]
    assert dev.now_us == first.completion_us
    second = dev.submit(2000.0, *_UL)
    assert second.start_us == 2000.0
