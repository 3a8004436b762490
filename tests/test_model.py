import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vranphy.backends.model import (ENCODE_CB_BATCH, BenchConfig,
                                    ServiceTimeModel, call_groups,
                                    call_shapes, calibrate_per_generation,
                                    calls_for)
from vranphy.errors import InvalidConfigError

GENERATIONS = ("per_cb", "per_tb", "per_slot")
DIRECTIONS = ("decode", "encode")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8),
       st.sampled_from(GENERATIONS), st.sampled_from(DIRECTIONS))
def test_call_groups_cover_every_cb_once_in_tb_order(cbs_per_tb, generation,
                                                     direction):
    groups = call_groups(generation, direction, cbs_per_tb)
    flat = [t for t, n in enumerate(cbs_per_tb) for _ in range(n)]
    assert [t for g in groups for t in g] == flat
    assert calls_for(generation, direction, len(cbs_per_tb),
                     sum(cbs_per_tb)) == len(groups)


def test_call_groups_per_generation():
    cbs = [3, 10]
    assert call_groups("per_slot", "decode", cbs) == [[0] * 3 + [1] * 10]
    assert call_groups("per_tb", "encode", cbs) == [[0] * 3, [1] * 10]
    assert len(call_groups("per_cb", "decode", cbs)) == 13
    enc = call_groups("per_cb", "encode", cbs)
    assert [len(g) for g in enc] == [ENCODE_CB_BATCH, 13 - ENCODE_CB_BATCH]
    assert enc[0] == [0, 0, 0] + [1] * 5
    with pytest.raises(InvalidConfigError):
        call_groups("per_ue", "decode", cbs)


@pytest.mark.parametrize("generation", GENERATIONS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_a_tb_with_no_cb_to_code_makes_no_call(generation, direction):
    assert call_shapes(generation, direction, [(3000, 0)]) == []
    calls = call_shapes(generation, direction, [(3000, 0), (9000, 3)])
    assert [t for tbs, _ in calls for t in tbs] == [1, 1, 1]
    assert sum(s.n_tb for _, s in calls) == pytest.approx(1)
    assert all(s.kbits == pytest.approx(3.0 * s.n_cb) for _, s in calls)


@pytest.mark.parametrize("generation", GENERATIONS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_call_shapes_conserve_the_slot(generation, direction):
    tb_shapes = BenchConfig().tb_shapes(3)
    calls = call_shapes(generation, direction, tb_shapes)
    shapes = [shape for _, shape in calls]
    assert sum(s.n_tb for s in shapes) == pytest.approx(3)
    assert sum(s.n_cb for s in shapes) == sum(c for _, c in tb_shapes)
    assert sum(s.kbits for s in shapes) == pytest.approx(
        sum(t for t, _ in tb_shapes) / 1000.0)
    assert all(s.generation == generation for s in shapes)


def test_calibrated_models_are_non_negative_and_close():
    models = calibrate_per_generation()
    assert len(models) == 6
    for m in models.values():
        assert isinstance(m, ServiceTimeModel)
        assert min(m.fixed_per_call_us, m.per_tb_us, m.per_cb_us,
                   m.per_kbit_us) >= 0
        assert m.max_rel_residual < 0.1
