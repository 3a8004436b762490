"""Steadiness check: run the benchmark RUNS times per workload, on seeds
FIRST_SEED, FIRST_SEED + 1, ..., for ``run_seconds`` of ``BENCHMARK.json``
each, and tabulate each end-to-end metric with its median and quartile
spread, raw timings next to normalised ones.

    python3 perfbench/steadiness.py --workloads dl_full_load ul_harq_awgn \
        deploy_shared_t2 --json-out runs.json

Runs are sequential, each in its own process. The spread of a metric is
the distance between the first and third quartile of its per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark is steady when every spread is below a third of the metric's
bound in ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(seed=seed, wall_s=time.perf_counter() - start,
               correct=result["correct"],
               attempted=result["attempted"], failed=result["failed"],
               raw_setup_s=statistics.median(detail["setup_s"]["raw"]),
               raw_ms_per_op=detail["steps"]["raw_ms_per_op"],
               probe_ms_p50=detail["probe_ms"]["p50"],
               flagged=detail["probe_flagged_steps"])
    row.update({k: v for k, v in detail["quality"].items()
                if isinstance(v, (int, float))})
    return row, detail


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance over median) of the values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def table(workload: str, rows: list[dict], bounds: dict) -> str:
    keys = dict.fromkeys(k for r in rows for k in r
                         if k not in ("seed", "correct"))
    lines = [f"### {workload}", "",
             "| metric | bound | median | spread | per-run values |",
             "|---|---|---|---|---|"]
    for key in keys:
        values = [float(r[key]) for r in rows if key in r]
        med, sp = spread(values) if len(values) > 1 else (values[0], 0.0)
        lines.append(f"| {key} | {bounds.get(key, '')} | {med:.6g} | "
                     f"{sp:.4f} | "
                     + ", ".join(f"{float(r[key]):.6g}" if key in r else "-"
                                 for r in rows) + " |")
    lines.append("")
    lines.append("seeds: " + ", ".join(str(r["seed"]) for r in rows)
                 + "; correct: "
                 + ", ".join(str(r["correct"]).lower() for r in rows))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--json-out", default=None,
                        help="also write every run's row here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, everything = [], {}
    for workload in args.workloads:
        runs = [run_once(workload, FIRST_SEED + i, spec["run_seconds"])
                for i in range(RUNS)]
        rows = [row for row, _ in runs]
        everything[workload] = runs
        report.append(table(workload, rows, bounds))
        print(report[-1], flush=True)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(everything, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
