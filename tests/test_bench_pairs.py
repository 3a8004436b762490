"""``tools/bench_pairs`` on hand-made runs and on this tree's files;
nothing is benchmarked."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_bench_pairs()

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


def test_importing_bench_pairs_leaves_the_import_path_alone(monkeypatch):
    monkeypatch.delitem(sys.modules, "measure", raising=False)
    path = list(sys.path)
    _load_bench_pairs()
    assert sys.path == path
    assert "measure" not in sys.modules


def test_the_change_side_is_an_export_of_the_tree_as_it_is(tmp_path):
    """Every file git tracks or would track is copied byte for byte, and
    nothing else: no ``.git``, no ignored caches."""
    root = bench_pairs.ROOT
    bench_pairs.export_tree(tmp_path)
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True,
        text=True).stdout.split("\0")
    want = {name for name in listed if name and (root / name).is_file()}
    got = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
           if p.is_file()}
    assert got == want
    assert "perfbench/run.py" in got and "BENCHMARK.json" in got
    for name in want:
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes()


def test_an_interrupted_run_does_not_outlive_it(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import time\ntime.sleep(60)\n")
    pids = []

    def interrupted(pid, options):
        pids.append(pid)
        raise KeyboardInterrupt

    monkeypatch.setattr(bench_pairs.os, "wait4", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.run_once(tmp_path, "ul_harq_awgn", 1, 1.0)
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


@pytest.mark.parametrize("workloads", [["no_such_load"],
                                       ["ul_harq_awgn", "no_such_load"]],
                         ids=["alone", "after-a-valid-one"])
def test_an_unknown_workload_exits_before_any_tree_is_exported(
        workloads, tmp_path, monkeypatch, capsys):
    def exported(*args, **kwargs):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", exported)
    monkeypatch.setattr(bench_pairs, "export_tree", exported)
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD", "--pairs", "1", "--seconds", "1",
            "--out", str(out)]
    for name in workloads:
        argv += ["--workload", name]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert "no_such_load" in capsys.readouterr().err
    assert not out.exists()
