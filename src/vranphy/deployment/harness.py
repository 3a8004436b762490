"""Multi-instance deployment harness.

Drives the DDDSU traffic of N gNB instances against one shared emulated
coding device, entirely in virtual time. Each instance submits one encode
call per prepared downlink slot and one decode call per uplink slot; the
device serves every instance's calls from its one FIFO server pool and
fixes each call's start and completion as it is submitted, and at each
slot's end the harness accounts the calls completed by then, each by the
``(instance, direction, slot)`` tag it was submitted with (``emulated``
states the tag rule). Downlink encodes are prepared one slot ahead; uplink
decodes follow the front stages of their slot, so encode and decode
service windows overlap inside uplink slots and sharing shows up as
occasional occupancy spikes rather than a median shift. Per-slot coding
times, deadline accounting, delivered goodput and instance-failure events
land in a metrics bundle that serializes deterministically. Slot totals are derived, not stored:
the deadline check and the bundle's ``ul_total``/``dl_total`` summaries
both apply ``highphy.slot_timing`` to the coding samples.

Each instance owns one uniform stream, drawn a block at a time
(``emulated.block_draws``) and consumed in order: per slot its DL then its
UL submission jitter, then one error draw per completed call, in
completion order. A jitter is ``SUBMIT_JITTER_US * u``, which is bitwise
``rng.uniform(0.0, SUBMIT_JITTER_US)``.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..backends.emulated import block_draws, make_emulated
from ..errors import InvalidConfigError
from ..highphy import (DL_SLOT_US, SYMBOLS_PER_SLOT, TDD_PATTERN, TTI_US,
                       UL_SLOT_US, slot_timing, tdd_slot_kind)
from ..metrics import LatencyDistribution, summarize
from ..nr.mcs import compute_tbs, mcs_params
from ..nr.segmentation import segment_tb
from ..slot_coding import MAX_PRBS
from .topology import default_core_plan, topology_for

ENCODE_LOOKAHEAD_SLOTS = 1
UL_FAILURE_STREAK = 8

# submission offsets within a slot (CPU-side stage pipelining); the jitter
# spreads instance arrivals so device collisions are occasional
DL_PREP_OFFSET_US = 250.0
UL_PREP_OFFSET_US = 320.0
SUBMIT_JITTER_US = 130.0

DEFAULT_TARGETS = {"dl_mbps": 1200.0, "ul_mbps": 90.0}

_PROFILE_BACKENDS = {
    "ep_rfsoc": "t2-emulated",
    "vranp": "vran-boost-emulated",
    "hpp": "hpp-sw-emulated",
}
_SHARED_DEVICE_PROFILES = {"ep_rfsoc", "vranp"}


def _check_type(name: str, value, kind: type) -> None:
    """Reject a config value of the wrong type. A bool is not a number,
    and an int is a valid float."""
    kinds = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InvalidConfigError(
            f"{name} must be a {kind.__name__}, not {value!r}")


@dataclass(frozen=True)
class PhyTestTraffic:
    """Emulated full-load UE connection parameters."""
    dl_layers: int = 4
    dl_mcs: int = 27
    dl_table: str = "T2"
    ul_layers: int = 2
    ul_mcs: int = 16
    ul_table: str = "T2"
    prbs: int = 273
    symbols: int = 12
    overhead: int = 12
    dl_error_rate: float = 0.0
    ul_error_rate: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            _check_type(f"traffic.{f.name}", getattr(self, f.name),
                        type(f.default))
        for name in ("dl_error_rate", "ul_error_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:   # NaN fails too
                raise InvalidConfigError(f"traffic.{name} must be in [0, 1]")
        for name, top in (("prbs", MAX_PRBS), ("symbols", SYMBOLS_PER_SLOT)):
            if not 1 <= getattr(self, name) <= top:
                raise InvalidConfigError(f"traffic.{name} must be in 1..{top}")


@dataclass(frozen=True)
class DeploymentConfig:
    profile: str = "ep_rfsoc"
    n_instances: int = 1
    backend: str | None = None
    duration_slots: int = 2000
    seed: int = 0
    traffic: PhyTestTraffic = field(default_factory=PhyTestTraffic)

    def __post_init__(self):
        for name, kind in (("profile", str), ("n_instances", int),
                           ("duration_slots", int), ("seed", int)):
            _check_type(name, getattr(self, name), kind)
        if self.backend is not None:
            _check_type("backend", self.backend, str)
        if self.n_instances < 1:
            raise InvalidConfigError("n_instances must be >= 1")
        if self.duration_slots < 1:
            raise InvalidConfigError("duration_slots must be >= 1")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")

    @property
    def backend_name(self) -> str:
        return self.backend or _PROFILE_BACKENDS.get(self.profile,
                                                     "t2-emulated")

    @staticmethod
    def from_dict(doc: dict) -> "DeploymentConfig":
        if not isinstance(doc, dict):
            raise InvalidConfigError("a deployment config is a JSON object")
        doc = dict(doc)
        traffic = doc.pop("traffic", {})
        if not isinstance(traffic, dict):
            raise InvalidConfigError("traffic is a JSON object")
        known = {"profile", "n_instances", "backend", "duration_slots",
                 "seed"}
        unknown = (set(doc) - known) | {
            f"traffic.{k}" for k in
            set(traffic) - {f.name for f in fields(PhyTestTraffic)}}
        if unknown:
            raise InvalidConfigError(
                f"unknown deployment config keys: {sorted(unknown)}")
        return DeploymentConfig(traffic=PhyTestTraffic(**traffic), **doc)

    def to_dict(self) -> dict:
        doc = {"profile": self.profile, "n_instances": self.n_instances,
               "backend": self.backend_name,
               "duration_slots": self.duration_slots, "seed": self.seed,
               "traffic": asdict(self.traffic)}
        return doc


@dataclass
class InstanceMetrics:
    instance_id: int
    ul_decode_us: list[float] = field(default_factory=list)
    dl_encode_us: list[float] = field(default_factory=list)
    delivered_dl_bits: int = 0
    delivered_ul_bits: int = 0
    ul_deadline_misses: int = 0
    dl_deadline_misses: int = 0
    failed: bool = False
    failed_at_slot: int | None = None
    slots_processed: int = 0


@dataclass
class MetricsBundle:
    config: DeploymentConfig
    instances: list[InstanceMetrics]
    virtual_time_us: float

    def distributions(self, instance_id: int) -> dict[str,
                                                      LatencyDistribution]:
        """Summaries of the coding samples and of the slot totals that
        ``slot_timing`` derives from them."""
        m = self.instances[instance_id]
        out = {}
        for coding, total, slot_us, samples in (
                ("ul_decode", "ul_total", UL_SLOT_US, m.ul_decode_us),
                ("dl_encode", "dl_total", DL_SLOT_US, m.dl_encode_us)):
            if samples:
                out[coding] = summarize(samples)
                out[total] = summarize([slot_timing(slot_us, us)[0]
                                        for us in samples])
        return out

    def goodput_mbps(self, instance_id: int) -> dict[str, float]:
        m = self.instances[instance_id]
        seconds = self.virtual_time_us / 1e6
        return {"dl": m.delivered_dl_bits / seconds / 1e6,
                "ul": m.delivered_ul_bits / seconds / 1e6}

    def as_dict(self) -> dict:
        doc = {"config": self.config.to_dict(),
               "virtual_time_us": self.virtual_time_us,
               "instances": {}}
        for m in self.instances:
            block = {
                "distributions": {k: d.as_dict() for k, d in
                                  self.distributions(m.instance_id).items()},
                "goodput_mbps": {k: round(v, 6) for k, v in
                                 self.goodput_mbps(m.instance_id).items()},
                "failed": m.failed,
                "failed_at_slot": m.failed_at_slot,
                "ul_deadline_misses": m.ul_deadline_misses,
                "dl_deadline_misses": m.dl_deadline_misses,
                "slots_processed": m.slots_processed,
            }
            doc["instances"][str(m.instance_id)] = block
        return doc

    def raw_samples_jsonl(self) -> str:
        lines = []
        for m in self.instances:
            for kind, samples in (("ul_decode", m.ul_decode_us),
                                  ("dl_encode", m.dl_encode_us)):
                for i, v in enumerate(samples):
                    lines.append(json.dumps(
                        {"instance": m.instance_id, "metric": kind,
                         "index": i, "us": round(v, 3)}, sort_keys=True))
        return "\n".join(lines) + "\n"


@dataclass
class _TrafficShape:
    tbs: int
    n_cbs: int

    @property
    def kbits(self) -> float:
        return self.tbs / 1000.0


def traffic_shapes(traffic: PhyTestTraffic) -> dict[str, _TrafficShape]:
    """(TBS, segment count) of the DL and UL phy-test transport blocks."""
    out = {}
    for direction, layers, mcs, table in (
            ("dl", traffic.dl_layers, traffic.dl_mcs, traffic.dl_table),
            ("ul", traffic.ul_layers, traffic.ul_mcs, traffic.ul_table)):
        qm, rate = mcs_params(mcs, table)
        tbs = compute_tbs(traffic.prbs, traffic.symbols, layers, mcs, table,
                          traffic.overhead)
        plan = segment_tb(tbs, rate)
        out[direction] = _TrafficShape(tbs=tbs, n_cbs=plan.num_cbs)
    return out


def _make_devices(config: DeploymentConfig, n: int):
    name = config.backend_name
    if config.profile in _SHARED_DEVICE_PROFILES:
        device = make_emulated(name, seed=config.seed)
        return [device] * n, [device]
    devices = [make_emulated(name, seed=config.seed + i,
                             device_id=f"{name}-{i}") for i in range(n)]
    return devices, devices


# the kind of each slot of one TDD period, checked once
_SLOT_KINDS = tuple(tdd_slot_kind(k, TDD_PATTERN)
                    for k in range(len(TDD_PATTERN)))


def run_deployment(config: DeploymentConfig) -> MetricsBundle:
    """Drive the configured instances for the configured slot count."""
    # the instances must fit the profile's cores (CapacityError otherwise)
    default_core_plan(topology_for(config.profile), config.n_instances)
    n = config.n_instances
    devices, unique_devices = _make_devices(config, n)
    metrics = [InstanceMetrics(instance_id=i) for i in range(n)]
    shapes = traffic_shapes(config.traffic)
    uniforms = [block_draws(np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(i,))).random) for i in range(n)]
    ul, dl = shapes["ul"], shapes["dl"]
    ul_tbs, ul_error = ul.tbs, config.traffic.ul_error_rate
    dl_tbs, dl_error = dl.tbs, config.traffic.dl_error_rate
    # (op, generation, n_tb, n_cb, kbits) of each direction's one call
    ul_call = ("decode", "per_slot", 1, ul.n_cbs, ul.kbits)
    dl_call = ("encode", "per_slot", 1, dl.n_cbs, dl.kbits)

    duration = config.duration_slots
    ul_streak = [0] * n

    def schedule(slot: int) -> list[tuple[float, int, str, int]]:
        """(arrival_us, instance, direction, traffic_slot) for one slot."""
        out = []
        t0 = slot * TTI_US
        uplink = _SLOT_KINDS[slot % len(_SLOT_KINDS)] == "U"
        # encode prepared ahead for the D slot this one points at
        target = slot + ENCODE_LOOKAHEAD_SLOTS
        encode_ahead = target < duration and \
            _SLOT_KINDS[target % len(_SLOT_KINDS)] == "D"
        for i in range(n):
            if metrics[i].failed:
                continue
            if encode_ahead:
                jitter = SUBMIT_JITTER_US * next(uniforms[i])
                out.append((t0 + DL_PREP_OFFSET_US + jitter, i, "dl",
                            target))
            if uplink:
                jitter = SUBMIT_JITTER_US * next(uniforms[i])
                out.append((t0 + UL_PREP_OFFSET_US + jitter, i, "ul", slot))
        return out

    def account(call) -> None:
        instance, direction, slot = call.tag
        m = metrics[instance]
        elapsed = call.elapsed_us
        if direction == "ul":
            m.ul_decode_us.append(elapsed)
            if next(uniforms[instance]) >= ul_error:
                m.delivered_ul_bits += ul_tbs
            _, met = slot_timing(UL_SLOT_US, elapsed)
            if not met:
                m.ul_deadline_misses += 1
                ul_streak[instance] += 1
                if ul_streak[instance] >= UL_FAILURE_STREAK \
                        and not m.failed:
                    m.failed = True
                    m.failed_at_slot = slot
            else:
                ul_streak[instance] = 0
        else:
            m.dl_encode_us.append(elapsed)
            if next(uniforms[instance]) >= dl_error:
                m.delivered_dl_bits += dl_tbs
            _, met = slot_timing(DL_SLOT_US, elapsed)
            if not met:
                m.dl_deadline_misses += 1

    for slot in range(duration):
        wave = sorted(schedule(slot))
        for arrival, instance, direction, target in wave:
            devices[instance].submit(
                arrival, *(ul_call if direction == "ul" else dl_call),
                tag=(instance, direction, target))
        horizon = (slot + 1) * TTI_US
        for dev in unique_devices:
            dev.advance_to(horizon)
            for call in dev.pop_completed():
                account(call)
        for i in range(n):
            if not metrics[i].failed:
                metrics[i].slots_processed += 1
    for dev in unique_devices:
        dev.drain()
        for call in dev.pop_completed():
            account(call)
    return MetricsBundle(config=config, instances=metrics,
                         virtual_time_us=duration * TTI_US)


def expected_slot_counts(duration_slots: int) -> dict[str, int]:
    """Traffic-carrying slot counts over a run.

    The first downlink slot has no lookahead window to be prepared in, so
    the encoded-slot count can be one short of the raw D-slot count.
    """
    kinds = [_SLOT_KINDS[k % len(_SLOT_KINDS)] for k in range(duration_slots)]
    return {"dl_encoded": kinds[ENCODE_LOOKAHEAD_SLOTS:].count("D"),
            "ul": kinds.count("U")}


def expected_goodput_mbps(config: DeploymentConfig) -> dict[str, float]:
    """Exact noiseless goodput from the TBS arithmetic."""
    shapes = traffic_shapes(config.traffic)
    counts = expected_slot_counts(config.duration_slots)
    seconds = config.duration_slots * TTI_US / 1e6
    return {"dl": shapes["dl"].tbs * counts["dl_encoded"] / seconds / 1e6,
            "ul": shapes["ul"].tbs * counts["ul"] / seconds / 1e6}


def check_throughput(bundle: MetricsBundle,
                     targets: dict | None = None) -> dict:
    """Per-instance pass/fail of delivered goodput against targets."""
    targets = dict(DEFAULT_TARGETS if targets is None else targets)
    out = {"targets": targets, "instances": {}, "all_pass": True}
    for m in bundle.instances:
        good = bundle.goodput_mbps(m.instance_id)
        ok = (good["dl"] >= targets["dl_mbps"]
              and good["ul"] >= targets["ul_mbps"] and not m.failed)
        out["instances"][str(m.instance_id)] = {
            "dl_mbps": round(good["dl"], 3),
            "ul_mbps": round(good["ul"], 3),
            "pass": ok,
        }
        out["all_pass"] = out["all_pass"] and ok
    return out
