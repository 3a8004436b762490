import pytest

from vranphy.backends import emulated
from vranphy.backends.model import (DIRECTIONS, GENERATIONS, JitterSpec,
                                    call_shapes)
from vranphy.deployment import (TOPOLOGY_PROFILES, DeploymentConfig,
                                expected_goodput_mbps, expected_slot_counts,
                                run_deployment)
from vranphy.deployment import harness
from vranphy.errors import InvalidConfigError
from vranphy.highphy import tdd_slot_kind
from vranphy.metrics import summarize
from vranphy.nr import compute_tbs, mcs_params, segment_tb


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


@pytest.mark.parametrize("profile", ["ep_rfsoc", "hpp"])
def test_deployment_submits_the_calls_call_shapes_gives(profile,
                                                        monkeypatch):
    """Every call a deployment submits is the one per-slot call that
    ``call_shapes`` makes of its link's phy-test TB."""
    submitted = []
    real = emulated.EmulatedDevice.submit

    def recorded(self, arrival_us, direction, shape, tag=None):
        submitted.append((direction, shape))
        return real(self, arrival_us, direction, shape, tag)

    monkeypatch.setattr(emulated.EmulatedDevice, "submit", recorded)
    config = DeploymentConfig(profile=profile, n_instances=3,
                              duration_slots=40, seed=3)
    run_deployment(config)
    t = config.traffic
    expected = set()
    for direction, layers, mcs, table in (
            ("encode", t.dl_layers, t.dl_mcs, t.dl_table),
            ("decode", t.ul_layers, t.ul_mcs, t.ul_table)):
        tbs = compute_tbs(t.prbs, t.symbols, layers, mcs, table, t.overhead)
        tb = (tbs, segment_tb(tbs, mcs_params(mcs, table)[1]).num_cbs)
        expected |= {(direction, shape) for _, shape in
                     call_shapes("per_slot", direction, [tb])}
    assert len(expected) == 2
    assert set(submitted) == expected
    counts = expected_slot_counts(config.duration_slots)
    assert len(submitted) == config.n_instances * (counts["ul"]
                                                   + counts["dl_encoded"])


def test_every_call_is_accounted_once():
    config = DeploymentConfig(n_instances=7, duration_slots=203, seed=2)
    bundle = run_deployment(config)
    counts = expected_slot_counts(config.duration_slots)
    for m in bundle.instances:
        assert not m.failed
        assert len(m.ul_decode_us) == counts["ul"]
        assert len(m.dl_encode_us) == counts["dl_encoded"]
        assert m.slots_processed == config.duration_slots


def test_a_run_reads_slot_kinds_built_once():
    """``run_deployment`` and ``expected_slot_counts`` count the slots of
    each kind that ``tdd_slot_kind`` gives."""
    want = {n: {"dl_encoded": sum(tdd_slot_kind(k) == "D"
                                  for k in range(1, n)),
                "ul": sum(tdd_slot_kind(k) == "U" for k in range(n))}
            for n in (1, 2, 4, 5, 6, 23)}
    assert {n: expected_slot_counts(n) for n in want} == want
    bundle = run_deployment(DeploymentConfig(n_instances=2,
                                             duration_slots=23))
    assert [len(m.ul_decode_us) for m in bundle.instances] == \
        [want[23]["ul"]] * 2


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


@pytest.mark.parametrize("traffic", [
    {"prbs": 300}, {"prbs": 274}, {"prbs": 0},
    {"symbols": 20}, {"symbols": 15}, {"symbols": 0},
], ids=str)
def test_traffic_the_cell_cannot_carry_is_rejected(traffic):
    with pytest.raises(InvalidConfigError):
        harness.PhyTestTraffic(**traffic)


def test_traffic_may_fill_the_grid_and_the_slot():
    traffic = harness.PhyTestTraffic(prbs=273, symbols=14)
    plans = traffic.plans()
    assert plans["dl"].payload_bits > \
        harness.PhyTestTraffic().plans()["dl"].payload_bits


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
    """Only a name missing from the table is an unknown backend; an error
    raised while building a known device reaches the caller as it is."""
    with pytest.raises(InvalidConfigError, match="unknown emulated backend"):
        emulated.make_emulated("nowhere")

    def broken(name):
        raise KeyError("inside discover")

    monkeypatch.setattr(emulated, "discover", broken)
    with pytest.raises(KeyError, match="inside discover"):
        emulated.make_emulated("t2-emulated")


@pytest.mark.parametrize("name", sorted(emulated.DEVICE_PROFILES))
def test_every_factory_accepts_a_spike(name):
    spike = JitterSpec(scale_us=5.0, sigma=0.5)
    assert emulated.make_emulated(name, spike=spike).spike == spike
    assert not emulated.make_emulated(name, spike=JitterSpec()).spike.enabled
    default = emulated.DEVICE_PROFILES[name].spike
    assert emulated.make_emulated(name).spike == default


@pytest.mark.parametrize("profile", sorted(TOPOLOGY_PROFILES))
def test_every_profiles_device_prices_every_call(profile):
    """A server profile's device has a model for each (direction,
    generation), so any call ``call_shapes`` makes can be priced."""
    device = emulated.make_emulated(TOPOLOGY_PROFILES[profile].device)
    for direction in DIRECTIONS:
        for generation in GENERATIONS:
            model = device.service_model(direction, generation)
            assert model.call_time_us(1, 1, 10.0) > 0


def test_an_unknown_profile_fails_at_construction():
    with pytest.raises(InvalidConfigError, match="nowhere"):
        DeploymentConfig(profile="nowhere")


def test_a_config_may_name_only_its_profiles_device():
    doc = DeploymentConfig(profile="vranp").to_dict()
    assert doc["backend"] == "vran-boost-emulated"
    assert DeploymentConfig.from_dict(doc).to_dict() == doc
    for other in ("t2-emulated", "nowhere", None):
        with pytest.raises(InvalidConfigError):
            DeploymentConfig.from_dict({**doc, "backend": other})
