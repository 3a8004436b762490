"""Emulated coding accelerators with calibrated timing and contention.

A device has two paths. ``process(ops)``, the contract every backend
shares, is the synchronous base-time path: it codes each op's payload and
reports the op's base service time. Its ops run one after another, so
each arrives at an idle device, is granted at once and never meets the
contention tail. The virtual-time event engine is the deployment
harness's: ``submit`` adds one call at an explicit arrival time,
``advance_to`` moves the clock and ``pop_completed`` collects finished
calls.

The device is one FIFO pool of ``parallel_servers`` servers: calls wait in
submission order, which is arrival order since arrivals never decrease,
and each free server takes the oldest waiting call. Queue indices from the
allocator are labels, as a bbdev queue is a descriptor ring of one virtual
function; they are not a scheduling rule. Serialising each queue's calls
was measured to change no grant: over 897 108 submits (every shipped
profile, 1 to 7 instances, seeds 0-9, 4 000 slots each, plus the
interface bench on every device) no call ever arrived while its own queue
was busy or held a waiting call, though the pool was full 947 times.

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
outputs. Each call shape's base time is computed, and the shape checked,
the first time the device sees it; ``submit`` reuses it after that.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidConfigError
from ..lpu import (Completion, CodingOpDescriptor, LpuCapabilities,
                   QueueAllocator, discover, validate_ops)
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
    direction: str
    generation: str
    n_tb: float
    n_cb: int
    kbits: float
    arrival_us: float
    base_us: float = 0.0
    spike_us: float = 0.0
    start_us: float | None = None
    completion_us: float | None = None
    seq: int = -1

    @property
    def elapsed_us(self) -> float:
        return self.completion_us - self.arrival_us

    @property
    def service_us(self) -> float:
        return self.base_us + self.spike_us


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
        self.allocator = QueueAllocator(self.device_id,
                                        self.capabilities.num_queues)
        self._normals = block_draws(
            np.random.default_rng(self.seed).standard_normal)
        self._base_us: dict[tuple, float] = {}   # call shape -> base time
        self._seq = itertools.count()
        self.now_us = 0.0
        # events: (time, phase, seq, call); phase 0 = server release,
        # phase 1 = completion (result visible)
        self._events: list[tuple[float, int, int, CallRecord]] = []
        self._waiting: deque[CallRecord] = deque()
        # events pop in (time, phase, seq) order and none is pushed before
        # the clock, so this list is in (completion_us, seq) order
        self._completed: list[CallRecord] = []
        self._outstanding = 0
        self._servers_busy = 0

    # -- service model ----------------------------------------------------
    def service_model(self, direction: str, generation: str
                      ) -> ServiceTimeModel:
        try:
            return self.models[(direction, generation)]
        except KeyError:
            raise InvalidConfigError(
                f"{self.device_id}: no model for {direction}/{generation}")

    def base_service_us(self, direction: str, generation: str, n_tb: float,
                        n_cb: int, kbits: float) -> float:
        if not all(math.isfinite(v) and v >= 0 for v in (n_tb, n_cb, kbits)):
            raise InvalidConfigError(
                f"{self.device_id}: a call's TB count, CB count and kbits "
                f"must be finite and non-negative, not {(n_tb, n_cb, kbits)}")
        if n_cb == 0:
            return 0.0
        model = self.service_model(direction, generation)
        return model.call_time_us(n_tb, n_cb, kbits)

    # -- event engine ------------------------------------------------------
    def submit(self, arrival_us: float, direction: str, generation: str,
               n_tb: float, n_cb: int, kbits: float) -> CallRecord:
        """Add one call at the given virtual arrival time."""
        if not arrival_us >= self.now_us - 1e-9:   # NaN fails too
            raise InvalidConfigError("arrivals must be non-decreasing")
        shape = (direction, generation, n_tb, n_cb, kbits)
        base_us = self._base_us.get(shape)
        if base_us is None:
            base_us = self._base_us[shape] = self.base_service_us(*shape)
        self.advance_to(arrival_us)
        call = CallRecord(direction, generation, n_tb, n_cb, kbits,
                          arrival_us, base_us, seq=next(self._seq))
        occupancy = self._outstanding + 1
        if self.spike.enabled and occupancy > self.parallel_servers:
            draw = next(self._normals)
            call.spike_us = float(
                self.spike.scale_us * np.exp(self.spike.sigma * draw))
        self._waiting.append(call)
        self._outstanding += 1
        self._try_start()
        return call

    def _try_start(self) -> None:
        """Grant free servers to the oldest waiting calls at the clock."""
        while self._waiting and self._servers_busy < self.parallel_servers:
            call = self._waiting.popleft()
            call.start_us = self.now_us
            call.completion_us = call.start_us + call.service_us
            release = min(call.start_us + OCCUPANCY_FRACTION * call.base_us,
                          call.completion_us)
            self._servers_busy += 1
            heapq.heappush(self._events, (release, 0, call.seq, call))
            heapq.heappush(self._events,
                           (call.completion_us, 1, call.seq, call))

    def advance_to(self, t_us: float) -> None:
        """Process events up to ``t_us``."""
        while self._events and self._events[0][0] <= t_us + 1e-9:
            when, phase, _, call = heapq.heappop(self._events)
            if when > self.now_us:
                self.now_us = when
            if phase == 0:
                self._servers_busy -= 1
                if self._waiting:
                    self._try_start()
            else:
                self._outstanding -= 1
                self._completed.append(call)
        self.now_us = max(self.now_us, t_us)

    def drain(self) -> None:
        self.advance_to(float("inf"))

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
                               op.kind.value, op.shape.generation,
                               op.shape.n_tb, op.shape.n_cb, op.shape.kbits))
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
