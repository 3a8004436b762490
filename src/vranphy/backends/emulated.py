"""Emulated coding accelerators with calibrated timing and contention.

A device has two paths, and both price a call from its ``CallShape``
(made by ``model.call_shapes``), which ``base_service_us`` takes whole.
``process(ops)``, the contract every backend shares, is the synchronous
base-time path: it codes each op's payload and reports the base service
time of its shape. Its ops run one after another, so each arrives at an
idle device, is granted at once and never meets the contention tail. The
virtual-time event engine is the deployment harness's: ``submit`` adds one
call at an explicit, finite arrival time, ``advance_to`` moves the clock,
``drain`` completes every call in flight and leaves the clock at the last
completion, and ``pop_completed`` collects finished calls. A call's
``tag`` is the submitter's own data, as a bbdev op's ``opaque_data``:
``submit`` stores it on the call's ``CallRecord`` and ``pop_completed``
hands it back unchanged, so a submitter needs no record of its own to tell
which of its calls has completed.

The device is one FIFO pool of ``parallel_servers`` servers: calls wait in
submission order, which is arrival order since arrivals never decrease,
and each free server takes the oldest waiting call. Queue indices from the
allocator are labels, as a bbdev queue is a descriptor ring of one virtual
function; they are not a scheduling rule. Serialising each queue's calls
was measured to change no grant: over 897 108 submits (every shipped
profile, 1 to 7 instances, seeds 0-9, 4 000 slots each, plus the
interface bench on every device) no call ever arrived while its own queue
was busy or held a waiting call, though the pool was full 947 times.

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
consumed one per spiked call in submission order and drawn ``DRAW_BLOCK``
values at a time (``block_draws``, which the deployment harness uses for
its instances' streams too). A block holds exactly the values the same
number of scalar calls would return, so the draw order alone fixes the
outputs. A (direction, shape) is checked and priced the first time the
device sees it; ``submit`` reuses that base time after that.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError
from ..lpu import (CallShape, Completion, CodingOpDescriptor,
                   LpuCapabilities, QueueAllocator, discover, validate_ops)
from .model import JitterSpec, ServiceTimeModel, calibrate_per_generation
from .software import execute_descriptor

OCCUPANCY_FRACTION = 0.25   # share of a call's base latency a server is held
DRAW_BLOCK = 1024           # variates a stream draws per numpy call


def block_draws(draw):
    """The values of successive scalar ``draw()`` calls, drawn a block at a
    time: ``draw`` is a bound ``Generator`` method such as ``rng.random``."""
    while True:
        yield from draw(DRAW_BLOCK).tolist()


@dataclass(slots=True)
class CallRecord:
    arrival_us: float
    base_us: float
    spike_us: float
    start_us: float
    completion_us: float
    seq: int
    tag: object   # the submitter's, handed back unchanged

    @property
    def elapsed_us(self) -> float:
        return self.completion_us - self.arrival_us


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
        self.allocator = QueueAllocator(self.device_id,
                                        self.capabilities.num_queues)
        self._normals = block_draws(
            np.random.default_rng(self.seed).standard_normal)
        self._base_us: dict[tuple, float] = {}   # (direction, shape) -> us
        self._seq = itertools.count()
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

    # -- event engine ------------------------------------------------------
    def submit(self, arrival_us: float, direction: str, shape: CallShape,
               tag: object = None) -> CallRecord:
        """Add one call at the given virtual arrival time and grant it."""
        if not self.now_us - 1e-9 <= arrival_us < math.inf:   # NaN fails too
            raise InvalidConfigError(
                "arrivals must be finite and non-decreasing")
        key = (direction, shape)
        base_us = self._base_us.get(key)
        if base_us is None:
            base_us = self._base_us[key] = self.base_service_us(*key)
        self.advance_to(arrival_us)
        spike_us = 0.0
        if len(self._in_flight) >= self.parallel_servers and \
                self.spike.enabled:
            spike_us = float(self.spike.scale_us * np.exp(
                self.spike.sigma * next(self._normals)))
        free_us = self._free[0]
        start = self.now_us if free_us <= arrival_us + 1e-9 else free_us
        completion = start + (base_us + spike_us)
        call = CallRecord(arrival_us, base_us, spike_us, start, completion,
                          next(self._seq), tag)
        heapq.heapreplace(self._free, min(
            start + OCCUPANCY_FRACTION * base_us, completion))
        heapq.heappush(self._in_flight, (completion, call.seq, call))
        return call

    def advance_to(self, t_us: float) -> None:
        """Complete the calls that finish by ``t_us`` and move the clock."""
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= t_us + 1e-9:
            when, _, call = heapq.heappop(in_flight)
            if when > self.now_us:
                self.now_us = when
            self._completed.append(call)
        self.now_us = max(self.now_us, t_us)

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
                           service_time_us=self.base_service_us(
                               op.kind.value, op.shape))
                for op in ops]


# -- shipped device profiles -------------------------------------------------

# Heavy-tail spike defaults; frozen by the contention calibration run.
DEFAULT_SPIKE = JitterSpec(scale_us=20.0, sigma=1.5)


@functools.cache
def _bundled_models() -> dict[tuple[str, str], ServiceTimeModel]:
    """The fit of the bundled interface measurements, once per process."""
    return calibrate_per_generation()


def make_emulated_t2(seed: int = 0, spike: JitterSpec | None = None,
                     device_id: str = "t2-emulated") -> EmulatedDevice:
    """RFSoC profile: 8 forward-error-correction cores, calibrated on the
    bundled interface benchmark measurements."""
    return EmulatedDevice(device_id=device_id, capabilities=discover("t2"),
                          models=dict(_bundled_models()), parallel_servers=8,
                          spike=DEFAULT_SPIKE if spike is None else spike,
                          seed=seed)


def _flat_rate_models(dec_per_kbit: float, enc_per_kbit: float
                      ) -> dict[tuple[str, str], ServiceTimeModel]:
    out = {}
    for gen in ("per_cb", "per_tb", "per_slot"):
        out[("decode", gen)] = ServiceTimeModel(
            fixed_per_call_us=0.0, per_tb_us=0.0, per_cb_us=0.0,
            per_kbit_us=dec_per_kbit)
        out[("encode", gen)] = ServiceTimeModel(
            fixed_per_call_us=0.0, per_tb_us=0.0, per_cb_us=0.0,
            per_kbit_us=enc_per_kbit)
    return out


def make_emulated_vran_boost(seed: int = 0, spike: JitterSpec | None = None,
                                     device_id: str = "vran-boost-emulated"
                             ) -> EmulatedDevice:
    """In-package accelerator profile. Throughput anchored to the observed
    single-instance medians of the deployment traffic; the 32 servers are
    an assumption (no contention was observed on this part) rather than a
    measured property."""
    models = _flat_rate_models(dec_per_kbit=273.590 / 303.240,
                               enc_per_kbit=110.658 / 1081.512)
    return EmulatedDevice(device_id=device_id,
                          capabilities=discover("vran_boost"), models=models,
                          parallel_servers=32,
                          spike=JitterSpec() if spike is None else spike,
                          seed=seed)


def make_emulated_hpp_software(seed: int = 0,
                               spike: JitterSpec | None = None,
                                         device_id: str = "hpp-sw-emulated"
                               ) -> EmulatedDevice:
    """Per-instance software coding on a high-performance processor,
    anchored to observed single-instance medians. Used one device per
    instance: pool cores are not shared, so no cross-instance queueing."""
    models = _flat_rate_models(dec_per_kbit=485.961 / 303.240,
                               enc_per_kbit=101.269 / 1081.512)
    return EmulatedDevice(device_id=device_id,
                          capabilities=discover("software"), models=models,
                          parallel_servers=4,
                          spike=JitterSpec() if spike is None else spike,
                          seed=seed)


EMULATED_FACTORIES = {
    "t2-emulated": make_emulated_t2,
    "vran-boost-emulated": make_emulated_vran_boost,
    "hpp-sw-emulated": make_emulated_hpp_software,
}


def make_emulated(name: str, **kw) -> EmulatedDevice:
    try:
        factory = EMULATED_FACTORIES[name]
    except KeyError:
        raise InvalidConfigError(
            f"unknown emulated backend {name!r}") from None
    return factory(**kw)
