from hypothesis import given, settings
from hypothesis import strategies as st

from vranphy.metrics import summarize

_RANKED = ("min", "p10", "q1", "median", "q3", "p90", "max")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=60))
def test_summary_fields_are_ordered_observed_samples(samples):
    dist = summarize(samples)
    values = [getattr(dist, name) for name in _RANKED]
    assert dist.count == len(samples)
    assert all(v in samples for v in values)
    assert values == sorted(values)
