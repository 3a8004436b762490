"""Service-time models for emulated coding accelerators.

A call's base service time is linear in its shape:

    t = fixed_per_call + per_tb * n_tb + per_cb * n_cb + per_kbit * kbits

Calibration fits the four coefficients per (direction, generation) with
non-negative least squares on relative residuals, so fitted models are
monotone in every feature and reproduce measured curves within a small
relative envelope.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.optimize import nnls

from ..errors import CalibrationError, InvalidConfigError
from ..lpu import CallShape
from ..nr.mcs import compute_tbs, mcs_params
from ..nr.segmentation import segment_tb

GENERATIONS = ("per_cb", "per_tb", "per_slot")
ENCODE_CB_BATCH = 8   # legacy encoder interface: 8 segments per call


@dataclass(frozen=True)
class JitterSpec:
    """Lognormal contention spike added to a call (see EmulatedDevice)."""
    scale_us: float = 0.0     # median of the added tail delay
    sigma: float = 0.0

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
        for name in ("fixed_per_call_us", "per_tb_us", "per_cb_us",
                     "per_kbit_us"):
            if getattr(self, name) < 0:
                raise InvalidConfigError(f"{name} must be >= 0")

    def call_time_us(self, n_tb: float, n_cb: float, kbits: float) -> float:
        if n_cb == 0 and n_tb == 0 and kbits == 0:
            return 0.0
        return (self.fixed_per_call_us + self.per_tb_us * n_tb
                + self.per_cb_us * n_cb + self.per_kbit_us * kbits)


@dataclass(frozen=True)
class BenchConfig:
    """Geometry of the interface benchmark: a full slot equally shared."""
    prbs: int = 273
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
        qm, rate = mcs_params(self.mcs_index, self.mcs_table)
        shapes = []
        for prbs in self.prb_split(n_tb):
            tbs = compute_tbs(prbs, self.symbols, self.layers,
                              self.mcs_index, self.mcs_table, self.overhead)
            plan = segment_tb(tbs, rate)
            shapes.append((tbs, plan.num_cbs))
        return shapes

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
    call takes the next CBs in TB order.
    """
    flat = [t for t, n in enumerate(cbs_per_tb) for _ in range(n)]
    if generation == "per_slot":
        return [flat]
    if generation == "per_tb":
        return [[t] * n for t, n in enumerate(cbs_per_tb)]
    if generation == "per_cb":
        size = 1 if direction == "decode" else ENCODE_CB_BATCH
        return [flat[i:i + size] for i in range(0, len(flat), size)]
    raise InvalidConfigError(f"unknown generation {generation!r}")


def call_shapes(generation: str, direction: str,
                tb_shapes: list[tuple[int, int]]
                ) -> list[tuple[list[int], CallShape]]:
    """Each call of one slot: the TB index of each of its CBs, and its shape.

    ``tb_shapes`` holds (TBS bits, CB count) per TB. A CB carries an equal
    share of its TB's bits.
    """
    groups = call_groups(generation, direction, [c for _, c in tb_shapes])
    n_tb = len(tb_shapes) / len(groups)
    out = []
    for tbs in groups:
        kbits = sum(tb_shapes[t][0] / tb_shapes[t][1] / 1000.0 for t in tbs)
        out.append((tbs, CallShape(generation, n_tb, len(tbs), kbits)))
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


def calibrate_model(observations, direction: str = "decode",
                    bench: BenchConfig | None = None) -> ServiceTimeModel:
    """Fit one coefficient set to (generation, n_tb, mean_us) observations.

    Features per observation are completed from the benchmark geometry.
    Raises when the data is underdetermined (fewer than four points or a
    design without at least two distinct shapes).
    """
    obs = list(observations)
    if len(obs) < 4:
        raise CalibrationError(
            f"need at least 4 observations, got {len(obs)}")
    bench = bench or BenchConfig()
    rows, y = [], []
    for generation, n_tb, us in obs:
        if generation not in GENERATIONS:
            raise CalibrationError(f"unknown generation {generation!r}")
        if us <= 0:
            raise CalibrationError("observed times must be positive")
        n_cb, kbits = bench.slot_shape(int(n_tb))
        rows.append(_design_row(generation, direction, int(n_tb), n_cb,
                                kbits))
        y.append(float(us))
    x = np.asarray(rows, dtype=float)
    yv = np.asarray(y, dtype=float)
    if np.linalg.matrix_rank(x) < 2:
        raise CalibrationError("degenerate design matrix")
    coef, _ = nnls(x / yv[:, None], np.ones_like(yv))
    resid = np.abs(x @ coef - yv) / yv
    return ServiceTimeModel(
        fixed_per_call_us=float(coef[0]), per_tb_us=float(coef[1]),
        per_cb_us=float(coef[2]), per_kbit_us=float(coef[3]),
        max_rel_residual=float(resid.max()))


def load_reference_observations() -> list[tuple[str, str, int, float]]:
    """(direction, generation, n_tb, mean_us) rows bundled with the package."""
    ref = resources.files("vranphy.backends").joinpath(
        "data/fig1_ep_rfsoc.csv")
    out = []
    with ref.open() as f:
        for row in csv.DictReader(f):
            out.append((row["direction"], row["generation"],
                        int(row["n_tb"]), float(row["mean_us"])))
    return out


def calibrate_per_generation(observations=None, bench: BenchConfig | None
                             = None
                             ) -> dict[tuple[str, str], ServiceTimeModel]:
    """One fitted model per (direction, generation), encode and decode
    calibrated separately since the measured slopes differ."""
    if observations is None:
        observations = load_reference_observations()
    groups: dict[tuple[str, str], list] = {}
    for direction, generation, n_tb, us in observations:
        groups.setdefault((direction, generation), []).append(
            (generation, n_tb, us))
    return {key: calibrate_model(rows, direction=key[0], bench=bench)
            for key, rows in groups.items()}
