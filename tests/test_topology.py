import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vranphy.deployment import (default_core_plan, plan_from_block,
                                topology_for, validate_placement)
from vranphy.errors import CapacityError

COMPLEX_PROFILES = ("ep_rfsoc", "hpp")   # complexes grouped into dies


@st.composite
def complex_blocks(draw):
    """A topology with complexes and the 8 cores of one of its complexes,
    in any order."""
    topology = topology_for(draw(st.sampled_from(COMPLEX_PROFILES)))
    index = draw(st.integers(0, len(topology.complexes) - 1))
    cores = draw(st.permutations(list(topology.complexes[index])))
    return topology, index, cores


def _kinds(report):
    return {v.kind for v in report.violations}


@settings(max_examples=60, deadline=None)
@given(complex_blocks())
def test_a_plan_inside_one_complex_crosses_nothing(block):
    topology, _, cores = block
    assert validate_placement(topology, [plan_from_block(0, cores)]).ok


@settings(max_examples=60, deadline=None)
@given(complex_blocks(), st.integers(0, 7), st.data())
def test_a_core_on_another_die_is_a_die_crossing(block, slot, data):
    topology, index, cores = block
    die = topology.dies[index // topology.complexes_per_die]
    elsewhere = [c for i, r in enumerate(topology.complexes)
                 if i not in die for c in r]
    cores = list(cores)
    cores[slot] = data.draw(st.sampled_from(elsewhere))
    report = validate_placement(topology, [plan_from_block(3, cores)])
    crossings = [v for v in report.violations if v.kind == "die_crossing"]
    assert len(crossings) == 1
    assert crossings[0].severity == 3 and crossings[0].instance_id == 3
    assert "complex_crossing" not in _kinds(report)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("ep_rfsoc", "hpp", "vranp")), st.data())
def test_overlapping_plans_are_flagged(profile, data):
    topology = topology_for(profile)
    a, b = default_core_plan(topology, 2)
    shared = data.draw(st.sets(st.sampled_from(sorted(a.all_cores)),
                               min_size=1, max_size=8))
    cores = sorted(shared) + sorted(b.all_cores)[:8 - len(shared)]
    moved = plan_from_block(b.instance_id, cores)
    overlaps = [v for v in validate_placement(topology, [a, moved]).violations
                if v.kind == "overlap"]
    assert len(overlaps) == 1
    assert overlaps[0].severity == 3 and overlaps[0].instance_id == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20))
def test_ep_rfsoc_holds_at_most_seven_instances(n):
    topology = topology_for("ep_rfsoc")
    if n > 7:
        with pytest.raises(CapacityError):
            default_core_plan(topology, n)
    else:
        assert validate_placement(topology,
                                  default_core_plan(topology, n)).ok
