"""Tests of the benchmark's own arithmetic and output contract.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


# -- probe arithmetic ------------------------------------------------------

def test_step_time_is_scaled_by_reference_over_mean_probe():
    p_ref = measure.P_REF_MS
    assert measure.speed_factor(p_ref / 2, p_ref * 1.5) == 1.0
    assert measure.speed_factor(p_ref * 2, p_ref * 2) == 0.5
    assert measure.speed_factor(p_ref * 0.4, p_ref * 0.6) == 2.0


def test_speed_factor_rejects_non_positive_probe():
    with pytest.raises(ValueError):
        measure.speed_factor(0.0, 10.0)


def test_probe_disagreement_is_relative_to_the_faster_probe():
    edge = 10.0 * (1 + measure.PROBE_DISAGREEMENT_BOUND)
    assert not measure.probes_disagree(10.0, edge)
    assert measure.probes_disagree(10.0, edge + 0.1)
    assert measure.probes_disagree(edge + 0.1, 10.0)


def test_probe_returns_positive_milliseconds():
    assert measure.Probe().run() > 0


# -- percentiles -----------------------------------------------------------

def test_nearest_rank_returns_an_observed_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.nearest_rank(values, 0.5) == 3.0
    assert measure.nearest_rank(values, 0.9) == 5.0
    assert measure.nearest_rank([7.0], 0.1) == 7.0


@pytest.mark.parametrize("n, q, emitted", [
    (100, 0.9, True), (99, 0.9, False), (20, 0.5, True), (19, 0.5, False),
    (0, 0.5, False)])
def test_percentile_needs_ten_samples_beyond_it(n, q, emitted):
    value = measure.tail_percentile(list(range(n)), q)
    assert (value is not None) == emitted
    if emitted:
        assert value == measure.nearest_rank(list(range(n)), q)


# -- names -----------------------------------------------------------------

def test_metric_names_equal_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(tracing.PER_LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)


# -- inputs and determinism ------------------------------------------------

def test_seed_changes_inputs():
    programs = workloads.import_program()
    a, b = workloads.DlFullLoad(1), workloads.DlFullLoad(2)
    a.prepare(programs)
    b.prepare(programs)
    assert not np.array_equal(a.payloads[0], b.payloads[0])
    u1, u2 = workloads.UlHarqAwgn(1), workloads.UlHarqAwgn(2)
    assert [u1.sigma(i, 0) for i in range(10)] != \
        [u2.sigma(i, 0) for i in range(10)]


def test_ul_fades_one_first_transmission_per_block():
    ul = workloads.UlHarqAwgn(7)
    block = workloads.UL_FADE_BLOCK
    fade_lo, clear_hi = workloads.UL_FADE_SIGMA[0], workloads.UL_CLEAR_SIGMA[1]
    for b in range(4):
        firsts = [ul.sigma(b * block + j, 0) for j in range(block)]
        assert sum(s >= fade_lo for s in firsts) == 1
        assert all(s <= clear_hi for s in firsts if s < fade_lo)
        assert all(ul.sigma(b * block + j, tx) <= clear_hi
                   for j in range(block) for tx in (1, 2, 3))


def _coding(crc_ok: bool, payload=None):
    return SimpleNamespace(job_results=[SimpleNamespace(
        tb_crc_ok=crc_ok, payload=payload)])


def test_ul_check_fails_an_undelivered_tb_and_a_wrong_payload():
    ul = workloads.UlHarqAwgn(1)
    ul.harq = SimpleNamespace(release=lambda ue, pid: None)
    sent = np.ones(8, dtype=np.uint8)
    ul.pending = [0, sent, 0]
    for tx in range(workloads.UL_MAX_TRANSMISSIONS - 1):
        assert ul.check({"tb": 0, "tx": tx, "payload": sent}, _coding(False))
    assert not ul.check({"tb": 0, "tx": 3, "payload": sent}, _coding(False))
    assert ul.residual == {0: True}
    ul.pending = [1, sent, 0]
    assert not ul.check({"tb": 1, "tx": 0, "payload": sent},
                        _coding(True, np.zeros(8, dtype=np.uint8)))
    ul.pending = [2, sent, 0]
    assert ul.check({"tb": 2, "tx": 0, "payload": sent},
                    _coding(True, sent.copy()))


def test_ul_op_time_sums_transmissions_of_whole_fade_blocks():
    ul = workloads.UlHarqAwgn(1)
    block = workloads.UL_FADE_BLOCK
    # TB 0 took two transmissions; TBs 1..block finished; TB block+1 pending
    ul.step_tb = [0, 0] + list(range(1, block + 1)) + [block + 1]
    ul.residual = {tb: False for tb in range(block + 1)}
    step_ms = [1.0] * len(ul.step_tb)
    assert ul.ms_per_op(step_ms) == (block + 1) / block
    ul.residual = {0: False, 1: False}
    assert ul.ms_per_op(step_ms) == 3 / 2


def _ul_outcome(seed: int, slots: int) -> dict:
    ul = workloads.UlHarqAwgn(seed)
    ul.prepare(workloads.import_program())
    ul.setup(workloads.import_program())
    for i in range(slots):
        arg = ul.next_input(i)
        assert ul.check(arg, ul.step(arg))
    ul.close()
    return ul.quality([1.0] * slots)


def test_bler_covers_only_the_first_tbs():
    flags = {tb: tb % 2 == 0 for tb in range(workloads.UL_BLER_TBS + 5)}
    flags[workloads.UL_BLER_TBS + 1] = True
    assert workloads._share(flags) == 0.5
    assert workloads._share({}) == 0.0


def test_ul_bler_metrics_repeat_for_a_seed():
    assert _ul_outcome(3, 2) == _ul_outcome(3, 2)


def test_deploy_virtual_metrics_repeat_and_check(monkeypatch):
    monkeypatch.setattr(workloads, "DEPLOY_SLOTS", 300)
    dep = workloads.DeploySharedT2(4)
    dep.setup(workloads.import_program())
    bundle = dep.step(None)
    assert dep.virtual_metrics(bundle) == dep.reference
    assert dep.check(None, bundle)
    quality = dep.quality([1.0])
    assert quality["targets_met_ratio"] == 1.0
    assert 0 < quality["fig1_max_rel_err"] < quality[
        "fig1_holdout_max_rel_err"]
    bundle.instances[0].failed = True
    dep.reference = dep.virtual_metrics(bundle)
    assert not dep.check(None, bundle)


# -- the command -----------------------------------------------------------

def _result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def test_command_prints_end_to_end_metrics_for_two_seeds():
    outs = [_result(_bench("--workload", "deploy_shared_t2", "--seed",
                           str(seed), "--seconds", "1", "--trace", "0"))
            for seed in (1, 2)]
    for result, detail in outs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"]
                                           for m in SPEC["end_to_end"]]
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert outs[0][1]["quality"]["ul_decode_vus_p90"] != \
        outs[1][1]["quality"]["ul_decode_vus_p90"]


def test_traced_command_prints_per_layer_metrics():
    result, detail = _result(_bench("--workload", "deploy_shared_t2",
                                    "--seed", "1", "--seconds", "2",
                                    "--trace", "1"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["backends.model.calibrations"] == 1
    assert values["backends.emulated.submits"] == \
        detail["quality"]["device_calls"]
    assert 0.95 <= detail["trace_overhead"]["self_sum_ratio"] <= 1.0
    assert (ROOT / detail["spans_file"]).is_file()


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "dl_full_load", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
