"""Service-time models for emulated coding accelerators.

A call's base service time is linear in its shape:

    t = fixed_per_call + per_tb * n_tb + per_cb * n_cb + per_kbit * kbits

Calibration fits the four coefficients per (direction, generation) with
non-negative least squares on relative residuals, so fitted models are
monotone in every feature and reproduce measured curves within a small
relative envelope. The fit is Lawson and Hanson's active-set method
(*Solving Least Squares Problems*, 1974, ch. 23), which frees one
coefficient at a time: the one of largest gradient, and the last of them
on a tie, as ``scipy.optimize.nnls`` does. Where the design has equal
columns (a per-CB decode makes one call per CB, a per-TB call one per TB)
the fit is not unique, and this rule puts the weight on the per-CB or
per-TB coefficient rather than the per-call one. An observation whose time
is not finite and positive, or whose slot holds no TB, is rejected.
"""
from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ..errors import CalibrationError, InvalidConfigError
from ..lpu import CallShape
from ..nr.mcs import MAX_PRBS
from ..nr.pipeline import tb_geometry

GENERATIONS = ("per_cb", "per_tb", "per_slot")
DIRECTIONS = ("decode", "encode")
ENCODE_CB_BATCH = 8   # legacy encoder interface: 8 segments per call


def _check_non_negative(spec, names) -> None:
    for name in names:
        value = getattr(spec, name)
        if not (math.isfinite(value) and value >= 0):
            raise InvalidConfigError(
                f"{name} must be finite and >= 0, not {value!r}")


@dataclass(frozen=True)
class JitterSpec:
    """Lognormal contention spike added to a call (see EmulatedDevice)."""
    scale_us: float = 0.0     # median of the added tail delay
    sigma: float = 0.0

    def __post_init__(self):
        _check_non_negative(self, ("scale_us", "sigma"))

    @property
    def enabled(self) -> bool:
        return self.scale_us > 0.0


@dataclass(frozen=True)
class ServiceTimeModel:
    fixed_per_call_us: float
    per_tb_us: float
    per_cb_us: float
    per_kbit_us: float
    max_rel_residual: float = 0.0

    def __post_init__(self):
        _check_non_negative(self, ("fixed_per_call_us", "per_tb_us",
                                   "per_cb_us", "per_kbit_us"))

    def call_time_us(self, n_tb: float, n_cb: float, kbits: float) -> float:
        if n_cb == 0 and n_tb == 0 and kbits == 0:
            return 0.0
        return (self.fixed_per_call_us + self.per_tb_us * n_tb
                + self.per_cb_us * n_cb + self.per_kbit_us * kbits)


@dataclass(frozen=True)
class BenchConfig:
    """Geometry of the interface benchmark: a full slot equally shared."""
    prbs: int = MAX_PRBS
    symbols: int = 12
    overhead: int = 0
    layers: int = 1
    mcs_index: int = 28
    mcs_table: str = "T1"

    def prb_split(self, n_tb: int) -> list[int]:
        base, rem = divmod(self.prbs, n_tb)
        return [base + (1 if i < rem else 0) for i in range(n_tb)]

    def tb_shapes(self, n_tb: int) -> list[tuple[int, int]]:
        """Per-TB (tbs_bits, num_cbs) for the slot split n_tb ways."""
        plans = [tb_geometry(prbs, self.symbols, self.layers, self.mcs_index,
                             self.mcs_table, self.overhead)[0]
                 for prbs in self.prb_split(n_tb)]
        return [(plan.payload_bits, plan.num_cbs) for plan in plans]

    def slot_shape(self, n_tb: int) -> tuple[int, float]:
        """(total CBs, total kbits) of the benchmark slot."""
        shapes = self.tb_shapes(n_tb)
        return (sum(c for _, c in shapes),
                sum(t for t, _ in shapes) / 1000.0)


def call_groups(generation: str, direction: str, cbs_per_tb: list[int]
                ) -> list[list[int]]:
    """The TB index of each CB in each coding-library call of one slot.

    This is the one statement of how an interface generation groups a
    slot's CBs into calls: the whole slot in one call, one call per TB, or
    per CB (decode) and per batch of ``ENCODE_CB_BATCH`` CBs (encode). Each
    call takes the next CBs in TB order. A TB with no CB to code makes no
    call.
    """
    flat = [t for t, n in enumerate(cbs_per_tb) for _ in range(n)]
    if generation == "per_slot":
        return [flat] if flat else []
    if generation == "per_tb":
        return [[t] * n for t, n in enumerate(cbs_per_tb) if n]
    if generation == "per_cb":
        size = 1 if direction == "decode" else ENCODE_CB_BATCH
        return [flat[i:i + size] for i in range(0, len(flat), size)]
    raise InvalidConfigError(f"unknown generation {generation!r}")


def call_shapes(generation: str, direction: str,
                tb_shapes: list[tuple[int, int]]
                ) -> list[tuple[list[int], CallShape]]:
    """Each call of one slot: the TB index of each of its CBs, and its shape.

    This is the one place a call's shape is made. ``tb_shapes`` holds
    (bits, CB count) per TB: the CBs to code and the bits they carry. A
    call that carries k of a TB's c CBs carries ``bits * k / c`` of that
    TB's bits, summed over its TBs in TB order, so a call of whole TBs
    carries exactly their bits / 1000 kbits. The TBs that make a call are
    spread evenly over the calls.
    """
    groups = call_groups(generation, direction, [c for _, c in tb_shapes])
    coded_tbs = sum(c > 0 for _, c in tb_shapes)
    out = []
    for tbs in groups:
        bits = sum(tb_shapes[t][0] * k / tb_shapes[t][1]
                   for t, k in Counter(tbs).items())
        out.append((tbs, CallShape(generation, coded_tbs / len(groups),
                                   len(tbs), bits / 1000.0)))
    return out


def calls_for(generation: str, direction: str, n_tb: int, n_cb: int) -> int:
    """Coding-library calls one slot of ``n_tb`` TBs and ``n_cb`` CBs needs.

    The count does not depend on how the CBs are spread over the TBs.
    """
    base, rem = divmod(n_cb, n_tb)
    return len(call_groups(generation, direction,
                           [base + (t < rem) for t in range(n_tb)]))


def _design_row(generation: str, direction: str, n_tb: int, n_cb: int,
                kbits: float) -> list[float]:
    return [calls_for(generation, direction, n_tb, n_cb),
            float(n_tb), float(n_cb), kbits]


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x >= 0 that minimises |a x - b| (see the module docstring).

    Each outer step frees one bound coefficient; the inner loop steps back
    toward the feasible region until the free coefficients' least-squares
    solution is positive.
    """
    m, n = a.shape
    # a gradient within rounding of 0, as an equal column's is once its
    # twin is free, frees nothing
    tol = (10 * np.finfo(float).eps * max(m, n)
           * np.abs(a).sum(axis=0).max() * np.abs(b).max())
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        # a column sum, not a.T @ r: equal columns get equal gradients
        w = (a * (b - a @ x)[:, None]).sum(axis=0)
        w[free] = -np.inf
        j = n - 1 - int(np.argmax(w[::-1]))
        if w[j] <= tol:
            break
        free[j] = True
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if (z[free] > 0).all():
                break
            neg = free & (z <= 0)
            step = x[neg] / np.maximum(x[neg] - z[neg], np.finfo(float).tiny)
            x += step.min() * (z - x)
            free[np.flatnonzero(neg)[step == step.min()]] = False
            x[~free] = 0.0
        x = z
    return x


def calibrate_model(observations, direction: str = "decode",
                    bench: BenchConfig | None = None) -> ServiceTimeModel:
    """Fit one coefficient set to (generation, n_tb, mean_us) observations.

    Features per observation are completed from the benchmark geometry.
    Raises when the direction is neither decode nor encode, or when the
    data is underdetermined (fewer than four points or a design without
    at least two distinct shapes).
    """
    if direction not in DIRECTIONS:
        raise CalibrationError(f"unknown direction {direction!r}")
    obs = list(observations)
    if len(obs) < 4:
        raise CalibrationError(
            f"need at least 4 observations, got {len(obs)}")
    bench = bench or BenchConfig()
    rows, y = [], []
    for generation, n_tb, us in obs:
        if generation not in GENERATIONS:
            raise CalibrationError(f"unknown generation {generation!r}")
        if not (math.isfinite(us) and us > 0):
            raise CalibrationError(
                f"observed times must be finite and positive, got {us}")
        if int(n_tb) < 1:
            raise CalibrationError(f"a slot holds at least 1 TB, got {n_tb}")
        n_cb, kbits = bench.slot_shape(int(n_tb))
        rows.append(_design_row(generation, direction, int(n_tb), n_cb,
                                kbits))
        y.append(float(us))
    x = np.asarray(rows, dtype=float)
    yv = np.asarray(y, dtype=float)
    if np.linalg.matrix_rank(x) < 2:
        raise CalibrationError("degenerate design matrix")
    coef = _nnls(x / yv[:, None], np.ones_like(yv))
    resid = np.abs(x @ coef - yv) / yv
    return ServiceTimeModel(
        fixed_per_call_us=float(coef[0]), per_tb_us=float(coef[1]),
        per_cb_us=float(coef[2]), per_kbit_us=float(coef[3]),
        max_rel_residual=float(resid.max()))


def load_reference_observations(path=None
                                ) -> list[tuple[str, str, int, float]]:
    """(direction, generation, n_tb, mean_us) rows of a CSV file: ``path``,
    or the measurements bundled with the package when it is None."""
    source = resources.files("vranphy.backends").joinpath(
        "data/fig1_ep_rfsoc.csv") if path is None else Path(path)
    out = []
    with source.open() as f:
        for row in csv.DictReader(f):
            try:
                out.append((row["direction"], row["generation"],
                            int(row["n_tb"]), float(row["mean_us"])))
            except (KeyError, TypeError, ValueError):
                raise InvalidConfigError(
                    f"{source}: not an observation: {row}") from None
    return out


def calibrate_per_generation(observations=None, bench: BenchConfig | None
                             = None
                             ) -> dict[tuple[str, str], ServiceTimeModel]:
    """One fitted model per (direction, generation), encode and decode
    calibrated separately since the measured slopes differ."""
    if observations is None:
        observations = load_reference_observations()
    if not observations:
        raise InvalidConfigError("no observations to calibrate from")
    groups: dict[tuple[str, str], list] = {}
    for direction, generation, n_tb, us in observations:
        groups.setdefault((direction, generation), []).append(
            (generation, n_tb, us))
    return {key: calibrate_model(rows, direction=key[0], bench=bench)
            for key, rows in groups.items()}
