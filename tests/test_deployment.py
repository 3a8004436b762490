import pytest

from vranphy.backends import emulated
from vranphy.backends.model import JitterSpec
from vranphy.deployment import (DeploymentConfig, expected_goodput_mbps,
                                expected_slot_counts, run_deployment)
from vranphy.errors import InvalidConfigError


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
        assert len(m.ul_decode_us) == len(m.ul_total_us) == counts["ul"]
        assert len(m.dl_encode_us) == len(m.dl_total_us) \
            == counts["dl_encoded"]
        assert m.slots_processed == config.duration_slots


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
