from vranphy.backends import emulated
from vranphy.backends.emulated import OCCUPANCY_FRACTION
from vranphy.backends.model import calibrate_per_generation


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
