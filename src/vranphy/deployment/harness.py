"""Multi-instance deployment harness.

Drives the TDD traffic of N gNB instances, entirely in virtual time,
against the emulated coding device their server profile names
(``topology.TOPOLOGY_PROFILES``): one device the instances share, or one
per instance where the device's ``emulated.DEVICE_PROFILES`` entry is not
``shared``. A config cannot choose another device; its ``to_dict`` names
the profile's as ``"backend"``. Each instance submits one encode
call per prepared downlink slot and one decode call per uplink slot, the
one per-slot call ``model.call_shapes`` makes of the link's TB; the
device serves every instance's calls from its one FIFO server pool and
fixes each call's start and completion as it is submitted, and at each
slot's end the harness accounts the calls completed by then, each by its
``(instance, direction, slot)`` tag (``emulated`` states the tag rule).
Downlink encodes are prepared one slot ahead; uplink decodes follow the
front stages of their slot, so encode and decode service windows overlap
inside uplink slots and sharing shows up as occasional occupancy spikes
rather than a median shift. Per-slot coding times, deadline accounting,
delivered goodput and instance-failure events land in a metrics bundle
that serializes deterministically. Slot totals are derived, not stored:
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

from ..backends.emulated import DEVICE_PROFILES, block_draws, make_emulated
from ..backends.model import call_shapes
from ..errors import InvalidConfigError
from ..highphy import (DL_SLOT_US, TTI_US, UL_SLOT_US, slot_timing,
                       tdd_slot_kind)
from ..metrics import LatencyDistribution, summarize
from ..nr.mcs import MAX_PRBS, check_allocation
from ..nr.pipeline import tb_geometry
from ..nr.segmentation import SegmentationPlan
from .topology import canonical_profile, default_core_plan, topology_for

ENCODE_LOOKAHEAD_SLOTS = 1
UL_FAILURE_STREAK = 8

# submission offsets within a slot (CPU-side stage pipelining); the jitter
# spreads instance arrivals so device collisions are occasional
DL_PREP_OFFSET_US = 250.0
UL_PREP_OFFSET_US = 320.0
SUBMIT_JITTER_US = 130.0

DEFAULT_TARGETS = {"dl_mbps": 1200.0, "ul_mbps": 90.0}


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
    prbs: int = MAX_PRBS
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
        check_allocation(self.prbs, self.symbols, self.overhead)

    def plans(self) -> dict[str, SegmentationPlan]:
        """Segmentation plan of the DL and UL transport block; its
        ``payload_bits`` is the TBS."""
        return {link: tb_geometry(self.prbs, self.symbols, layers, mcs, table,
                                  self.overhead)[0]
                for link, layers, mcs, table in (
                    ("dl", self.dl_layers, self.dl_mcs, self.dl_table),
                    ("ul", self.ul_layers, self.ul_mcs, self.ul_table))}


@dataclass(frozen=True)
class DeploymentConfig:
    profile: str = "ep_rfsoc"
    n_instances: int = 1
    duration_slots: int = 2000
    seed: int = 0
    traffic: PhyTestTraffic = field(default_factory=PhyTestTraffic)

    def __post_init__(self):
        for name, kind in (("profile", str), ("n_instances", int),
                           ("duration_slots", int), ("seed", int)):
            _check_type(name, getattr(self, name), kind)
        topology_for(self.profile)   # an unknown profile fails here
        object.__setattr__(self, "profile", canonical_profile(self.profile))
        if self.n_instances < 1:
            raise InvalidConfigError("n_instances must be >= 1")
        if self.duration_slots < 1:
            raise InvalidConfigError("duration_slots must be >= 1")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")

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
        config = DeploymentConfig(traffic=PhyTestTraffic(**traffic), **{
            k: v for k, v in doc.items() if k != "backend"})
        # "backend" is written by ``to_dict``: it may only repeat the
        # profile's own device
        device = topology_for(config.profile).device
        if doc.get("backend", device) != device:
            raise InvalidConfigError(f"backend {doc['backend']!r} is not "
                                     f"{config.profile}'s device {device!r}")
        return config

    def to_dict(self) -> dict:
        return {"profile": self.profile, "n_instances": self.n_instances,
                "backend": topology_for(self.profile).device,
                "duration_slots": self.duration_slots, "seed": self.seed,
                "traffic": asdict(self.traffic)}


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


def _make_devices(name: str, seed: int, n: int):
    """Each instance's device, and the distinct devices among them."""
    if DEVICE_PROFILES[name].shared:
        device = make_emulated(name, seed=seed)
        return [device] * n, [device]
    devices = [make_emulated(name, seed=seed + i, device_id=f"{name}-{i}")
               for i in range(n)]
    return devices, devices


def run_deployment(config: DeploymentConfig) -> MetricsBundle:
    """Drive the configured instances for the configured slot count."""
    topology = topology_for(config.profile)
    n = config.n_instances
    # the instances must fit the profile's cores (CapacityError otherwise)
    default_core_plan(topology, n)
    devices, unique_devices = _make_devices(topology.device, config.seed, n)
    metrics = [InstanceMetrics(instance_id=i) for i in range(n)]
    plans = config.traffic.plans()
    uniforms = [block_draws(np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(i,))).random) for i in range(n)]
    ul_tbs, ul_error = plans["ul"].payload_bits, config.traffic.ul_error_rate
    dl_tbs, dl_error = plans["dl"].payload_bits, config.traffic.dl_error_rate
    # (direction, shape) of each link's one per-slot call
    [(_, ul_shape)] = call_shapes("per_slot", "decode",
                                  [(ul_tbs, plans["ul"].num_cbs)])
    [(_, dl_shape)] = call_shapes("per_slot", "encode",
                                  [(dl_tbs, plans["dl"].num_cbs)])
    ul_call, dl_call = ("decode", ul_shape), ("encode", dl_shape)

    duration = config.duration_slots
    ul_streak = [0] * n

    def schedule(slot: int) -> list[tuple[float, int, str, int]]:
        """(arrival_us, instance, direction, traffic_slot) for one slot."""
        out = []
        t0 = slot * TTI_US
        uplink = tdd_slot_kind(slot) == "U"
        # encode prepared ahead for the D slot this one points at
        target = slot + ENCODE_LOOKAHEAD_SLOTS
        encode_ahead = target < duration and tdd_slot_kind(target) == "D"
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
    kinds = [tdd_slot_kind(k) for k in range(duration_slots)]
    return {"dl_encoded": kinds[ENCODE_LOOKAHEAD_SLOTS:].count("D"),
            "ul": kinds.count("U")}


def expected_goodput_mbps(config: DeploymentConfig) -> dict[str, float]:
    """Exact noiseless goodput from the TBS arithmetic."""
    plans = config.traffic.plans()
    counts = expected_slot_counts(config.duration_slots)
    seconds = config.duration_slots * TTI_US / 1e6
    return {link: plans[link].payload_bits * counts[key] / seconds / 1e6
            for link, key in (("dl", "dl_encoded"), ("ul", "ul"))}


def check_throughput(bundle: MetricsBundle) -> dict:
    """Per-instance pass/fail of delivered goodput against
    ``DEFAULT_TARGETS``."""
    targets = dict(DEFAULT_TARGETS)
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
