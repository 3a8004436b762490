"""``tools/bench_pairs.summary`` on hand-made runs; nothing is benchmarked."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "ms_per_op", "unit": "ms", "better": "lower"}
HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher"}


def _runs(base: list[float], change: list[float], name: str) -> list[dict]:
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


@pytest.mark.parametrize("spec, won", [(LOWER, 2), (HIGHER, 1)],
                         ids=["lower-is-better", "higher-is-better"])
def test_change_won_counts_pairs_the_change_improved(spec, won):
    # pair 1 lower, pair 2 higher, pair 3 a tie, pair 4 lower
    runs = _runs([10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 10.0, 8.0],
                 spec["name"])
    out = bench_pairs.summary(runs, [spec])[spec["name"]]
    assert out["change_won"] == won
    assert out["unit"] == spec["unit"] and out["better"] == spec["better"]


def test_ties_are_not_wins():
    for spec in (LOWER, HIGHER):
        runs = _runs([5.0, 7.0], [5.0, 7.0], spec["name"])
        assert bench_pairs.summary(runs, [spec])[spec["name"]][
            "change_won"] == 0


def test_medians_and_quartiles_per_tree():
    runs = _runs([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0],
                 "ms_per_op")
    out = bench_pairs.summary(runs, [LOWER])["ms_per_op"]
    assert out["base"]["median"] == 3.0 and out["change"]["median"] == 6.0
    # ``statistics.quantiles``' default (exclusive) method
    assert (out["base"]["q1"], out["base"]["q3"]) == (1.5, 4.5)
    assert (out["change"]["q1"], out["change"]["q3"]) == (3.0, 9.0)
    assert out["base"]["p90"] == 5.0


def test_a_single_run_is_its_own_quartiles():
    out = bench_pairs.summary(_runs([7.5], [6.5], "ms_per_op"),
                              [LOWER])["ms_per_op"]
    for tree, value in (("base", 7.5), ("change", 6.5)):
        assert out[tree] == {"median": value, "p90": value, "q1": value,
                             "q3": value}
    assert out["change_won"] == 1
