"""Benchmark command: one workload, one process, one thread.

    python3 perfbench/run.py --workload dl_full_load --seed 1 --seconds 30 \
        --trace 0

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it holds the
run's detail: raw and probe timings, per-run quality metrics and, with
``--trace 1``, the tracing overhead. With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
ones. A traced run also writes its spans to ``.perfbench/`` as JSON lines.

Every timing is probe-normalised (see ``measure.py``): a step's wall time
is scaled by the reference probe time over the mean of the probes run
right before and right after it. Each timed set-up runs in a fresh process
(``setup_once.py``), started and waited for one at a time.
"""
from __future__ import annotations

import os

# before numpy is imported anywhere: no BLAS or OpenMP thread pools
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import (Probe, nearest_rank, probes_disagree,  # noqa: E402
                     speed_factor)
from tracing import PER_LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
MAX_REPORTED_ERRORS = 3
SETUP_REPEATS = 5     # timed set-ups per run; setup_s is their median
SETUP_TIMEOUT_S = 60

END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = WORKLOADS[workload](seed)
        self.seconds = seconds
        self.trace = trace
        self.probe = Probe()
        self.errors: list[str] = []
        self.setup_raw_s: list[float] = []
        self.setup_norm_s: list[float] = []
        self.probe_ms: list[float] = []
        self.steps: list[dict] = []
        self.setup_tracer = Tracer() if trace else None
        self.tracer = Tracer() if trace else None

    # -- phases -----------------------------------------------------------
    def set_up(self) -> None:
        """Generate inputs, time SETUP_REPEATS set-ups, each in a fresh
        process, then set up once more in this process for the steps
        (untimed; traced in a traced run)."""
        w = self.workload
        w.prepare(import_program())
        state = pickle.dumps(w.setup_state())
        for _ in range(SETUP_REPEATS):
            child = subprocess.run(
                [sys.executable, str(HERE / "setup_once.py"),
                 "--workload", w.name, "--seed", str(w.seed)],
                input=state, capture_output=True, timeout=SETUP_TIMEOUT_S)
            if child.returncode:
                sys.stderr.write(child.stderr.decode(errors="replace"))
                raise RuntimeError(f"set-up exited with {child.returncode}")
            timing = json.loads(child.stdout.splitlines()[-1])
            before, after = timing["before_ms"], timing["after_ms"]
            self.probe_ms += [before, after]
            self.setup_raw_s.append(timing["raw_s"])
            self.setup_norm_s.append(
                timing["raw_s"] * speed_factor(before, after))
        programs = import_program()
        tracer = self.setup_tracer
        if tracer:
            tracer.install()
        before = self.probe.run()
        if tracer:
            tracer.begin_step("setup")
        w.setup(programs)
        if tracer:
            tracer.end_step()
            tracer.uninstall()
        after = self.probe.run()
        if tracer:
            tracer.fold_step(speed_factor(before, after))

    def measure(self) -> None:
        """Run steps for ``seconds``; a traced run spends the first half
        untraced (the overhead baseline) and the second half traced."""
        start = time.perf_counter()
        deadline = start + self.seconds
        half = start + self.seconds / 2
        traced = False
        index = 0
        while True:
            now = time.perf_counter()
            if self.trace and not traced and now >= half and self.steps:
                self.tracer.install()
                traced = True
            done = now >= deadline and self.steps
            if done and (not self.trace or traced and
                         any(s["traced"] for s in self.steps)):
                break
            self._one_step(index, traced)
            index += 1
        if traced:
            self.tracer.uninstall()

    def _one_step(self, index: int, traced: bool) -> None:
        w = self.workload
        record = {"traced": traced, "ok": False}
        try:
            arg = w.next_input(index)
            before = self.probe.run()
            if traced:
                self.tracer.begin_step(index)
            t0 = time.perf_counter()
            try:
                result = w.step(arg)
            finally:
                raw = time.perf_counter() - t0
                if traced:
                    self.tracer.end_step()
            after = self.probe.run()
            factor = speed_factor(before, after)
            record.update(raw_ms=raw * 1e3, norm_ms=raw * 1e3 * factor,
                          before=before, after=after)
            if traced:
                self.tracer.fold_step(factor)
            record["ok"] = bool(w.check(arg, result))
        except Exception:
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(traceback.format_exc())
        self.steps.append(record)

    # -- results ----------------------------------------------------------
    def _timed(self, traced: bool) -> list[dict]:
        return [s for s in self.steps if "norm_ms" in s and s["ok"]
                and s["traced"] == traced]

    def _per_step(self, key: str) -> list:
        return [s[key] if s["ok"] else None for s in self.steps]

    def result(self) -> tuple[dict, dict]:
        failed = sum(not s["ok"] for s in self.steps)
        plain = self._timed(False)
        norm = [s["norm_ms"] for s in plain]
        w = self.workload
        ms_per_op = w.ms_per_op(self._per_step("norm_ms"))
        probes = self.probe_ms + [p for s in self.steps if "before" in s
                                  for p in (s["before"], s["after"])]
        detail = {
            "workload": self.workload.name, "seed": self.workload.seed,
            "trace": int(self.trace),
            "setup_s": {"raw": self.setup_raw_s,
                        "normalised": self.setup_norm_s},
            "steps": {"samples": len(norm),
                      "raw_ms_p50": _median([s["raw_ms"] for s in plain]),
                      "norm_ms_p50": _median(norm),
                      "raw_ms_per_op": w.ms_per_op(self._per_step("raw_ms")),
                      "norm_ms_per_op": ms_per_op},
            "probe_ms": {"p50": _median(probes), "min": min(probes),
                         "max": max(probes), "samples": len(probes)},
            "per_step": {key: [round(s[key], 4) for s in plain]
                         for key in ("raw_ms", "before", "after")},
            "probe_flagged_steps": sum(
                probes_disagree(s["before"], s["after"])
                for s in self.steps if "before" in s),
            "quality": w.quality(self._per_step("norm_ms"))
            if ms_per_op else {},
            "errors": self.errors,
        }
        if self.trace:
            metrics = self._layer_metrics(detail)
        else:
            values = {
                "setup_s": _median(self.setup_norm_s),
                "ms_per_op": ms_per_op,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_METRICS}
            detail["metric_info"] = {
                "setup_s": {"samples": len(self.setup_norm_s),
                            "better": "lower"},
                "ms_per_op": {"samples": len(norm), "better": "lower"},
                "peak_rss_mb": {"samples": 1, "better": "lower"},
            }
        result = {"correct": failed == 0 and ms_per_op > 0,
                  "attempted": len(self.steps), "failed": failed,
                  "metrics": metrics}
        return result, detail

    def _layer_metrics(self, detail: dict) -> dict:
        values = self.tracer.metrics()
        setup = self.setup_tracer.metrics()
        for key in ("nr.basegraph.lifted_builds", "nr.basegraph.lifted_ms",
                    "backends.model.calibrations",
                    "backends.model.calibrate_ms"):
            values["setup." + key] = setup[key]
        traced = [s["norm_ms"] for s in self._timed(True)]
        untraced = [s["norm_ms"] for s in self._timed(False)]
        overhead = {"traced_step_ms_p50": _median(traced),
                    "untraced_step_ms_p50": _median(untraced),
                    "self_sum_ratio": self.tracer.self_sum_ratio(),
                    "spans_kept": len(self.tracer.spans),
                    "spans_dropped": self.tracer.dropped}
        overhead["step_ms_p50"] = overhead["traced_step_ms_p50"] \
            - overhead["untraced_step_ms_p50"]
        calls = detail["quality"].get("device_calls")
        if calls:
            overhead["host_us_per_call"] = overhead["step_ms_p50"] * 1e3 \
                / calls
        detail["trace_overhead"] = overhead
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit, _ in PER_LAYER_METRICS}

    def write_spans(self, seed: int) -> Path:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"spans-{self.workload.name}-{seed}.jsonl"
        with open(path, "w") as f:
            self.setup_tracer.write_jsonl(f)
            self.tracer.write_jsonl(f)
        return path


def _median(values) -> float:
    return nearest_rank(values, 0.5) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vranphy" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.set_up()
    run.measure()
    result, detail = run.result()
    run.workload.close()
    if args.trace:
        detail["spans_file"] = str(
            run.write_spans(args.seed).relative_to(ROOT))
    for err in run.errors:
        print(err, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
