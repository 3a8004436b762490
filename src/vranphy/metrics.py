"""Distribution summaries in the boxplot convention used by all reports:
quartile box, first/last decile whiskers, extrema fliers.

Percentiles are nearest-rank (value at index ceil(q * N), 1-based) so a
summary is always an observed sample and golden files stay byte-stable.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from math import ceil

import numpy as np

from .errors import InvalidConfigError

SCHEMA_VERSION = "vranphy-report-1"


@dataclass(frozen=True)
class LatencyDistribution:
    count: int
    min: float
    p10: float
    q1: float
    median: float
    q3: float
    p90: float
    max: float
    mean: float

    def as_dict(self) -> dict:
        return asdict(self)


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    n = sorted_values.size
    rank = max(1, ceil(q * n))
    return float(sorted_values[rank - 1])


def summarize(samples) -> LatencyDistribution:
    """Nearest-rank distribution summary of latency samples."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise InvalidConfigError("cannot summarize an empty sample set")
    s = np.sort(values)
    return LatencyDistribution(
        count=int(s.size),
        min=float(s[0]),
        p10=_nearest_rank(s, 0.10),
        q1=_nearest_rank(s, 0.25),
        median=_nearest_rank(s, 0.50),
        q3=_nearest_rank(s, 0.75),
        p90=_nearest_rank(s, 0.90),
        max=float(s[-1]),
        mean=float(s.mean()),
    )


_DIST_FIELDS = ("count", "min", "p10", "q1", "median", "q3", "p90", "max",
                "mean")


def export_report(report: dict, fmt: str = "json") -> str:
    """Serialize a report dict (``MetricsBundle.as_dict`` and any added
    blocks) with stable field ordering.

    JSON round-trips to the report plus its schema tag; CSV has one row
    per (instance, direction, metric).
    """
    doc = {"schema": SCHEMA_VERSION, **report}
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["schema", SCHEMA_VERSION])
        writer.writerow(["instance", "direction", "metric", "value"])
        for inst in sorted(doc.get("instances", {})):
            block = doc["instances"][inst]
            for direction in sorted(block.get("distributions", {})):
                dist = block["distributions"][direction]
                for name in _DIST_FIELDS:
                    writer.writerow([inst, direction, name, dist[name]])
        return out.getvalue()
    raise InvalidConfigError(f"unknown report format {fmt!r}")


def bench_rows_to_csv(rows: list[dict]) -> str:
    """Interface-bench table as CSV with the documented header."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["direction", "generation", "n_tb", "mean_us",
                     "calls_made"])
    for r in rows:
        writer.writerow([r["direction"], r["generation"], r["n_tb"],
                         f"{r['mean_us']:.3f}", r["calls_made"]])
    return out.getvalue()


def bench_rows_to_json(rows: list[dict]) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, "rows": rows},
                      indent=2, sort_keys=True) + "\n"
