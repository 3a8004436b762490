import pytest

from vranphy.backends import emulated
from vranphy.backends.model import JitterSpec
from vranphy.deployment import (DeploymentConfig, expected_goodput_mbps,
                                expected_slot_counts, run_deployment)
from vranphy.errors import InvalidConfigError
from vranphy.metrics import summarize


@pytest.mark.parametrize("profile", ["ep_rfsoc", "hpp"])
def test_run_deployment_repeats_exactly_for_a_seed(profile):
    config = DeploymentConfig(profile=profile, n_instances=3,
                              duration_slots=200, seed=5)
    a, b = run_deployment(config), run_deployment(config)
    assert a.as_dict() == b.as_dict()
    assert a.raw_samples_jsonl() == b.raw_samples_jsonl()


@pytest.mark.parametrize("profile", ["ep_rfsoc", "vranp", "hpp"])
def test_zero_error_rate_delivers_expected_goodput(profile):
    config = DeploymentConfig(profile=profile, n_instances=2,
                              duration_slots=120, seed=1)
    bundle = run_deployment(config)
    expected = expected_goodput_mbps(config)
    for m in bundle.instances:
        assert not m.failed
        assert bundle.goodput_mbps(m.instance_id) == expected


def test_every_call_is_accounted_once():
    config = DeploymentConfig(n_instances=7, duration_slots=203, seed=2)
    bundle = run_deployment(config)
    counts = expected_slot_counts(config.duration_slots)
    for m in bundle.instances:
        assert not m.failed
        assert len(m.ul_decode_us) == counts["ul"]
        assert len(m.dl_encode_us) == counts["dl_encoded"]
        assert m.slots_processed == config.duration_slots


def test_totals_and_misses_are_the_slot_timing_rule():
    """Every slot total of a 7-instance run is the direction's synthetic
    cost plus that slot's coding sample, and a deadline miss is a total
    over the direction's budget."""
    bundle = run_deployment(DeploymentConfig(n_instances=7,
                                             duration_slots=400, seed=3))
    all_misses = 0
    for m in bundle.instances:
        dists = bundle.distributions(m.instance_id)
        for (other, budget), coding, total, samples, misses in (
                ((1400.0, 2000.0), "ul_decode", "ul_total", m.ul_decode_us,
                 m.ul_deadline_misses),
                ((407.0, 1000.0), "dl_encode", "dl_total", m.dl_encode_us,
                 m.dl_deadline_misses)):
            totals = [other + us for us in samples]
            assert dists[coding] == summarize(samples)
            assert dists[total] == summarize(totals)
            assert misses == sum(t > budget for t in totals)
            all_misses += misses
    assert all_misses > 0


@pytest.mark.parametrize("slots", [0, -3])
def test_run_length_must_be_positive(slots):
    with pytest.raises(InvalidConfigError):
        DeploymentConfig(duration_slots=slots)


def test_from_dict_leaves_the_callers_dict_alone():
    doc = {"n_instances": 2, "duration_slots": 10,
           "traffic": {"ul_error_rate": 0.1}}
    snapshot = {"n_instances": 2, "duration_slots": 10,
                "traffic": {"ul_error_rate": 0.1}}
    config = DeploymentConfig.from_dict(doc)
    assert doc == snapshot
    assert config.traffic.ul_error_rate == 0.1
    for bad in ({"slots": 3}, {"traffic": {"ul_mcs": 5, "ues": 2}}):
        with pytest.raises(InvalidConfigError):
            DeploymentConfig.from_dict(bad)


def test_make_emulated_reports_only_unknown_names(monkeypatch):
    with pytest.raises(InvalidConfigError):
        emulated.make_emulated("nowhere")

    def broken(**kw):
        raise KeyError("inside the factory")

    monkeypatch.setitem(emulated.EMULATED_FACTORIES, "broken", broken)
    with pytest.raises(KeyError, match="inside the factory"):
        emulated.make_emulated("broken")


@pytest.mark.parametrize("name", sorted(emulated.EMULATED_FACTORIES))
def test_every_factory_accepts_a_spike(name):
    spike = JitterSpec(scale_us=5.0, sigma=0.5)
    assert emulated.make_emulated(name, spike=spike).spike == spike
    assert not emulated.make_emulated(name, spike=JitterSpec()).spike.enabled
