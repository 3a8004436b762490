import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vranphy.backends.model import (ENCODE_CB_BATCH, BenchConfig,
                                    JitterSpec, ServiceTimeModel, _nnls,
                                    call_groups, call_shapes,
                                    calibrate_model,
                                    calibrate_per_generation, calls_for,
                                    load_reference_observations)
from vranphy.errors import CalibrationError, InvalidConfigError

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


# (fixed_per_call_us, per_tb_us, per_cb_us, per_kbit_us) of each bundled
# fit, as scipy.optimize.nnls 1.17.1 computed them
SCIPY_FITS = {
    ("decode", "per_cb"): (0.0, 114.88054922772764, 5.326389288784673,
                           1.9555984475032655),
    ("decode", "per_tb"): (0.0, 160.01898004079044, 0.0, 0.6588111370667799),
    ("decode", "per_slot"): (0.0, 118.58915172765867, 0.0,
                             0.855904823454352),
    ("encode", "per_cb"): (66.25079187471876, 5.144061673825687,
                           0.6440990638742282, 0.0),
    ("encode", "per_tb"): (0.0, 10.361800520940266, 0.23388798407591013,
                           0.5193062199297153),
    ("encode", "per_slot"): (137.39349297941567, 0.8384694558929965, 0.0,
                             0.0),
}


def test_bundled_fits_match_scipy():
    models = calibrate_per_generation()
    assert set(models) == set(SCIPY_FITS)
    for key, expected in SCIPY_FITS.items():
        m = models[key]
        got = (m.fixed_per_call_us, m.per_tb_us, m.per_cb_us, m.per_kbit_us)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12,
                                   err_msg=str(key))


@pytest.mark.parametrize("n_tb, us", [
    (3, float("nan")), (3, float("inf")), (3, 0.0), (3, -1.0),
    (0, 300.0), (-1, 300.0),
])
def test_an_observation_out_of_range_is_rejected(n_tb, us):
    obs = [("per_tb", n, 100.0 * n) for n in range(1, 5)]
    obs[2] = ("per_tb", n_tb, us)
    with pytest.raises(CalibrationError):
        calibrate_model(obs)


@pytest.mark.parametrize("scale_us, sigma", [
    (20.0, float("nan")), (float("inf"), 1.0), (float("nan"), 1.0),
    (20.0, float("inf")), (-1.0, 1.0), (20.0, -0.5),
])
def test_a_spike_parameter_that_is_not_finite_and_non_negative_is_rejected(
        scale_us, sigma):
    with pytest.raises(InvalidConfigError):
        JitterSpec(scale_us, sigma)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("position", range(4))
def test_a_model_coefficient_that_is_not_finite_and_non_negative_is_rejected(
        bad, position):
    coefficients = [0.0, 0.0, 0.0, 1.0]
    coefficients[position] = bad
    with pytest.raises(InvalidConfigError):
        ServiceTimeModel(*coefficients)


def test_a_direction_other_than_encode_or_decode_is_rejected():
    obs = [(d, "per_tb", n, 100.0 * n) for d in ("decode", "sideways")
           for n in range(1, 5)]
    with pytest.raises(CalibrationError, match="sideways"):
        calibrate_per_generation(obs)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 6), st.data())
def test_nnls_meets_the_kkt_conditions(m, n, data):
    def draw(size):
        return np.asarray(data.draw(st.lists(
            st.integers(-5, 5), min_size=size, max_size=size)), dtype=float)
    a, b = draw(m * n).reshape(m, n), draw(m)
    x = _nnls(a, b)
    grad = a.T @ (b - a @ x)
    tol = 1e-9 * (1 + np.abs(a).sum()) ** 2 * (1 + np.abs(b).sum()
                                                + np.abs(x).sum())
    assert (x >= 0).all()
    assert np.abs(grad[x > 0]).max(initial=0) <= tol
    assert grad[x == 0].max(initial=0) <= tol


@pytest.mark.parametrize("a, b, expected", [
    # equal columns: all weight on the last
    ([[1, 1], [1, 1], [1, 1]], [1, 1, 1], [0, 1]),
    # a per-TB design: the call count equals the TB count
    ([[1, 1, 2], [2, 2, 1], [3, 3, 1]], [3, 3, 4], [0, 1, 1]),
])
def test_nnls_puts_the_weight_on_the_last_of_equal_columns(a, b, expected):
    x = _nnls(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    np.testing.assert_allclose(x, expected, atol=1e-12)


def test_a_call_of_whole_tbs_carries_exactly_their_bits():
    """A call that carries k of a TB's c CBs carries bits * k / c of its
    bits, so a call of the whole TB carries exactly bits / 1000 kbits."""
    [(_, shape)] = call_shapes("per_slot", "decode", [(303240, 36)])
    assert shape.kbits == 303.24


def test_observations_are_read_from_a_given_csv(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("direction,generation,n_tb,mean_us\n"
                    "decode,per_tb,2,150.5\n")
    assert load_reference_observations(good) == [
        ("decode", "per_tb", 2, 150.5)]
    assert load_reference_observations(str(good)) == [
        ("decode", "per_tb", 2, 150.5)]
    bad = tmp_path / "bad.csv"
    bad.write_text("direction,generation,n_tb,mean_us\n"
                   "decode,per_tb,two,150.5\n")
    with pytest.raises(InvalidConfigError, match="not an observation"):
        load_reference_observations(bad)
    assert len(load_reference_observations()) > 4
