import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vranphy.backends import DEVICE_PROFILES
from vranphy.deployment import (CORES_PER_INSTANCE, TOPOLOGY_PROFILES,
                                default_core_plan, topology_for)
from vranphy.deployment.topology import plan_from_block
from vranphy.errors import CapacityError

# instances a profile holds: one 8-core block each, block 0 for the host
CAPACITY = {"ep_rfsoc": 7, "hpp": 7, "vranp": 3}


def _default_plans():
    """(topology, plans) of every profile at every count up to capacity."""
    assert set(CAPACITY) == set(TOPOLOGY_PROFILES)
    for name, capacity in CAPACITY.items():
        topology = topology_for(name)
        for n in range(1, capacity + 1):
            plans = default_core_plan(topology, n)
            assert [p.instance_id for p in plans] == list(range(n))
            yield topology, plans


def _cores(plan) -> set[int]:
    return {plan.io, plan.worker, plan.l1_tx, plan.l1_rx, plan.system,
            plan.ru, *plan.pool}


def test_every_plan_fills_one_block_after_the_first():
    for topology, plans in _default_plans():
        for plan in plans:
            cores = _cores(plan)
            assert len(cores) == CORES_PER_INSTANCE
            assert max(cores) < topology.total_cores
            blocks = {c // CORES_PER_INSTANCE for c in cores}
            assert len(blocks) == 1 and 0 not in blocks, plan


def test_plans_are_pairwise_disjoint():
    for _, plans in _default_plans():
        for i, a in enumerate(plans):
            for b in plans[i + 1:]:
                assert not _cores(a) & _cores(b), (a, b)


def test_role_cores_are_distinct():
    """IO, worker, L1 TX and L1 RX each own a core outside the pool of
    four; the system and radio-unit roles share the pool."""
    for _, plans in _default_plans():
        for plan in plans:
            exclusive = {plan.io, plan.worker, plan.l1_tx, plan.l1_rx}
            assert len(exclusive) == 4 and len(set(plan.pool)) == 4
            assert not exclusive & set(plan.pool)
            assert {plan.system, plan.ru} <= set(plan.pool)


@pytest.mark.parametrize("profile", sorted(CAPACITY))
def test_one_instance_past_capacity_raises(profile):
    with pytest.raises(CapacityError):
        default_core_plan(topology_for(profile), CAPACITY[profile] + 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20))
def test_ep_rfsoc_holds_at_most_seven_instances(n):
    topology = topology_for("ep_rfsoc")
    if n > 7:
        with pytest.raises(CapacityError):
            default_core_plan(topology, n)
    else:
        assert len(default_core_plan(topology, n)) == n


def test_software_device_serves_on_the_instance_pool():
    """The ``hpp-sw-emulated`` device codes on one instance's pool cores,
    so its server count is the pool's size."""
    assert DEVICE_PROFILES["hpp-sw-emulated"].servers == \
        len(plan_from_block(0, list(range(8))).pool)
