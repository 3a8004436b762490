"""Emulated coding accelerators with calibrated timing and contention.

A device has two paths, and both price a call from its ``CallShape``
(made by ``model.call_shapes``), which ``base_service_us`` takes whole, as
``interface_bench`` does for the benchmark slots without coding them.
``process(ops)``, the contract every backend shares, is the synchronous
base-time path: it codes each op's payload and reports the base service
time of its shape. Its ops run one after another, so each arrives at an
idle device, is granted at once and never meets the contention tail. The
virtual-time event engine is the deployment harness's: ``submit`` adds one
call at an explicit, finite arrival time, ``advance_to`` moves the clock
to a finite time, ``drain`` completes every call in flight and leaves the
clock at the last completion, and ``pop_completed`` collects finished
calls. A call's ``tag`` is the submitter's own data, as a bbdev op's
``opaque_data``: ``submit`` stores it on the call's ``CallRecord`` and
``pop_completed`` hands it back unchanged, so a submitter needs no record
of its own to tell which of its calls has completed.

The device is one FIFO pool of ``parallel_servers`` servers: calls wait in
submission order, which is arrival order since arrivals never decrease,
and each free server takes the oldest waiting call. The device has no
queues, and its callers submit to it directly. A bbdev queue is a
descriptor ring of one virtual function, and a rule per queue would change
no grant here: with one queue index per instance, over 897 108 submits
(every shipped profile, 1 to 7 instances, seeds 0-9, 4 000 slots each,
plus the interface bench on every device) no call ever arrived while its
own queue was busy or held a waiting call, though the pool was full 947
times.

The engine keeps two heaps: the time each server is next free
(``_free``) and the calls in flight by ``(completion_us, seq)``. With
FIFO grants, identical servers and non-decreasing arrivals, every earlier
call already holds its server and no later call can overtake, so
``submit`` fixes a call's start at once (J. Kiefer and J. Wolfowitz, "On
the theory of queues with many servers", Trans. AMS 78, 1955): after
advancing to the arrival it starts the call at the clock if the earliest
server is free by ``arrival_us + 1e-9`` (so a server freed inside
``(arrival_us, arrival_us + 1e-9]`` counts as free at the clock), else at
that server's free time. The server is next free at ``min(start +
OCCUPANCY_FRACTION * base, completion)``.

Base call latencies come from the calibrated linear models; only
``OCCUPANCY_FRACTION`` of that latency holds a server (the rest is
transfer/driver latency that does not consume the shared cores), so the
rated capacity sits well above the offered load. A heavy-tail delay is
added to calls arriving while the device-wide outstanding count exceeds
the server count, which is what turns instance sharing into latency
spikes while leaving medians nearly unchanged.

Random variates: each device owns one numpy stream of spike normals,
consumed one per spiked call in submission order. The spikes are drawn
``DRAW_BLOCK`` at a time (``block_draws``, which the deployment harness
uses for its instances' streams too), each block as ``scale_us *
np.exp(sigma * z)`` over a block of normals ``z``. A block holds exactly
the values the same number of scalar draws would give, each one
``float(scale_us * np.exp(sigma * z))`` bit for bit, so the draw order
alone fixes the outputs. The spike in force is the one the device was
built with. A (direction, shape) is checked and
priced the first time the device sees it (``_base_us``), by ``submit`` or
by ``process``; both reuse that base time after that.

The engine's entry points stay whole methods, each called once per
submit, advance, collection or drain, so a tracer wrapping them by name
counts every call; ``submit`` binds the heap functions at module level and
``advance_to`` moves the clock once per batch of completions.

Each shipped device is one ``DEVICE_PROFILES`` entry, which
``make_emulated`` builds by name.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace

import numpy as np

from ..errors import InvalidConfigError
from ..lpu import (CallShape, Completion, CodingOpDescriptor,
                   LpuCapabilities, discover, validate_ops)
from .model import (DIRECTIONS, GENERATIONS, BenchConfig, JitterSpec,
                    ServiceTimeModel, calibrate_per_generation, call_shapes)
from .software import execute_descriptor

OCCUPANCY_FRACTION = 0.25   # share of a call's base latency a server is held
DRAW_BLOCK = 1024           # variates a stream draws per numpy call


def block_draws(draw):
    """The values of successive scalar ``draw()`` calls, drawn a block at a
    time: ``draw(n)`` returns ``n`` values as an array, as a bound
    ``Generator`` method such as ``rng.random`` does."""
    return itertools.chain.from_iterable(map(
        np.ndarray.tolist, map(draw, itertools.repeat(DRAW_BLOCK))))


@dataclass(slots=True)
class CallRecord:
    arrival_us: float
    base_us: float
    spike_us: float
    start_us: float
    completion_us: float
    seq: int
    tag: object   # the submitter's, handed back unchanged


@dataclass
class EmulatedDevice:
    """A shared coding accelerator: one FIFO pool of servers."""

    device_id: str
    capabilities: LpuCapabilities
    models: dict[tuple[str, str], ServiceTimeModel]
    parallel_servers: int = 8
    spike: JitterSpec = field(default_factory=JitterSpec)
    seed: int = 0

    def __post_init__(self):
        servers = self.parallel_servers
        if type(servers) is not int or servers < 1:
            raise InvalidConfigError(f"{self.device_id}: parallel_servers "
                                     f"must be an int >= 1, not {servers!r}")
        normals = np.random.default_rng(self.seed).standard_normal
        scale_us, sigma = self.spike.scale_us, self.spike.sigma
        self._spikes = block_draws(
            lambda k: scale_us * np.exp(sigma * normals(k))
        ).__next__ if self.spike.enabled else None
        self._base_us: dict[tuple, float] = {}   # (direction, shape) -> us
        self._seq = 0
        self.now_us = 0.0
        self._free = [0.0] * servers   # heap: when each server is next free
        self._in_flight: list[tuple[float, int, CallRecord]] = []   # heap
        self._completed: list[CallRecord] = []

    # -- service model ----------------------------------------------------
    def service_model(self, direction: str, generation: str
                      ) -> ServiceTimeModel:
        try:
            return self.models[(direction, generation)]
        except KeyError:
            raise InvalidConfigError(
                f"{self.device_id}: no model for {direction}/{generation}")

    def _priced_us(self, direction: str, shape: CallShape) -> float:
        """The base time of a (direction, shape), checked and priced the
        first time the device sees it and read from ``_base_us`` after."""
        key = (direction, shape)
        base_us = self._base_us.get(key)
        if base_us is None:
            base_us = self._base_us[key] = self.base_service_us(*key)
        return base_us

    def base_service_us(self, direction: str, shape: CallShape) -> float:
        generation, n_tb, n_cb, kbits = shape
        if not all(math.isfinite(v) and v >= 0 for v in (n_tb, n_cb, kbits)):
            raise InvalidConfigError(
                f"{self.device_id}: a call's TB count, CB count and kbits "
                f"must be finite and non-negative, not {(n_tb, n_cb, kbits)}")
        if n_cb == 0:
            return 0.0
        model = self.service_model(direction, generation)
        return model.call_time_us(n_tb, n_cb, kbits)

    def interface_bench(self, directions=DIRECTIONS, tb_counts=range(1, 9)
                        ) -> list[dict]:
        """Slot coding time per (direction, generation, TB count).

        The benchmark slot is a full grid equally shared between the TBs
        (``BenchConfig``). Its calls run one after another, so none waits
        for a server or meets the contention tail: each row is the sum of
        the base service times of its call shapes, one deterministic
        virtual-time sample.
        """
        if not tb_counts or min(tb_counts) < 1:
            raise InvalidConfigError(
                "the interface bench needs TB counts >= 1")
        cfg = BenchConfig()
        rows = []
        for direction in directions:
            for generation in GENERATIONS:
                for n_tb in tb_counts:
                    calls = call_shapes(generation, direction,
                                        cfg.tb_shapes(n_tb))
                    rows.append({
                        "direction": direction,
                        "generation": generation,
                        "n_tb": int(n_tb),
                        "mean_us": sum(self.base_service_us(direction, s)
                                       for _, s in calls),
                        "calls_made": len(calls),
                    })
        return rows

    # -- event engine ------------------------------------------------------
    def submit(self, arrival_us: float, direction: str, shape: CallShape,
               tag: object = None) -> CallRecord:
        """Add one call at the given virtual arrival time and grant it."""
        if not self.now_us - 1e-9 <= arrival_us < math.inf:   # NaN fails too
            raise InvalidConfigError(
                "arrivals must be finite and non-decreasing")
        base_us = self._priced_us(direction, shape)
        self.advance_to(arrival_us)
        in_flight = self._in_flight
        spike_us = self._spikes() if self._spikes and \
            len(in_flight) >= self.parallel_servers else 0.0
        free_us = self._free[0]
        start = self.now_us if free_us <= arrival_us + 1e-9 else free_us
        completion = start + (base_us + spike_us)
        seq = self._seq
        self._seq = seq + 1
        call = CallRecord(arrival_us, base_us, spike_us, start, completion,
                          seq, tag)
        heapreplace(self._free, min(start + OCCUPANCY_FRACTION * base_us,
                                    completion))
        heappush(in_flight, (completion, seq, call))
        return call

    def advance_to(self, t_us: float) -> None:
        """Complete the calls that finish by ``t_us`` and move the clock."""
        if not t_us < math.inf:             # NaN fails too
            raise InvalidConfigError(f"advance_to({t_us}): time not finite")
        in_flight, completed = self._in_flight, self._completed
        now, limit = self.now_us, t_us + 1e-9
        while in_flight and in_flight[0][0] <= limit:
            when, _, call = heappop(in_flight)
            if when > now:
                now = when
            completed.append(call)
        self.now_us = t_us if t_us > now else now

    def drain(self) -> None:
        """Complete every call in flight; the clock stops at the last one."""
        self.advance_to(max(self._in_flight)[0] if self._in_flight
                        else self.now_us)

    def pop_completed(self) -> list[CallRecord]:
        """Hand out the calls completed so far, in (completion_us, seq)
        order. ``submit`` advances the clock too, so this is the one place
        completions are collected."""
        done, self._completed = self._completed, []
        return done

    # -- lpu surface --------------------------------------------------------
    def process(self, ops: list[CodingOpDescriptor]) -> list[Completion]:
        """Code each op; one completion per op, in submission order, with
        the base service time of the op's shape."""
        validate_ops(self.capabilities, ops)
        if any(op.shape is None for op in ops):
            raise InvalidConfigError(
                f"{self.device_id}: an emulated call needs a shape")
        return [Completion(outputs=execute_descriptor(op),
                           service_time_us=self._priced_us(op.kind.value,
                                                           op.shape))
                for op in ops]


# -- shipped device profiles -------------------------------------------------

# Heavy-tail spike defaults; frozen by the contention calibration run.
DEFAULT_SPIKE = JitterSpec(scale_us=20.0, sigma=1.5)


@dataclass(frozen=True)
class DeviceProfile:
    """A shipped device: its ``lpu`` capability profile, server count and
    default spike; whether a deployment's instances share one device or
    each get their own; and its flat per-kbit (decode, encode) service
    rates, or ``None`` for the fit of the bundled measurements."""
    lpu: str
    servers: int
    spike: JitterSpec
    shared: bool
    per_kbit_us: tuple[float, float] | None = None


DEVICE_PROFILES = {
    # RFSoC: 8 forward-error-correction cores
    "t2-emulated": DeviceProfile("t2", 8, DEFAULT_SPIKE, shared=True),
    # in-package accelerator; rates anchored to the observed
    # single-instance medians of the deployment traffic; the 32 servers
    # are an assumption (no contention was observed on this part), not a
    # measured property
    "vran-boost-emulated": DeviceProfile(
        "vran_boost", 32, JitterSpec(), shared=True,
        per_kbit_us=(273.590 / 303.240, 110.658 / 1081.512)),
    # software coding on a high-performance processor, anchored to
    # observed single-instance medians; one device per instance, as pool
    # cores are not shared, so no cross-instance queueing
    "hpp-sw-emulated": DeviceProfile(
        "software", 4, JitterSpec(), shared=False,
        per_kbit_us=(485.961 / 303.240, 101.269 / 1081.512)),
}


@functools.cache
def _bundled_models() -> dict[tuple[str, str], ServiceTimeModel]:
    """The fit of the bundled interface measurements, once per process."""
    return calibrate_per_generation()


def make_emulated(name: str, seed: int = 0, spike: JitterSpec | None = None,
                  device_id: str | None = None) -> EmulatedDevice:
    """A fresh device of the ``DEVICE_PROFILES`` entry ``name``."""
    try:
        profile = DEVICE_PROFILES[name]
    except KeyError:
        raise InvalidConfigError(
            f"unknown emulated backend {name!r}") from None
    if profile.per_kbit_us is None:
        models = dict(_bundled_models())
    else:
        models = {(direction, generation): ServiceTimeModel(
            fixed_per_call_us=0.0, per_tb_us=0.0, per_cb_us=0.0,
            per_kbit_us=rate)
            for direction, rate in zip(DIRECTIONS, profile.per_kbit_us)
            for generation in GENERATIONS}
    return EmulatedDevice(
        device_id=name if device_id is None else device_id,
        capabilities=discover(profile.lpu), models=models,
        parallel_servers=profile.servers,
        spike=profile.spike if spike is None else spike, seed=seed)
