"""Accelerator-abstraction layer: capability discovery, queue allocation,
operation descriptors and the CB/TB interface routing quirks.

Devices expose static capability descriptors. Every backend takes work
through one call, ``process(ops) -> list[Completion]``: one completion per
coding operation descriptor, in submission order, after the device has
checked the descriptor against its capabilities. Each gNB instance owns
exclusive queue indices on a shared device. Routing between code-block and
transport-block descriptor granularity honours each device's advertised
quirks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple

from .errors import (CapabilityMismatchError, InvalidConfigError,
                     ResourceExhaustedError)


class OpKind(Enum):
    ENCODE = "encode"
    DECODE = "decode"


class Granularity(Enum):
    CB = "cb"
    TB = "tb"


class BufferLocation(Enum):
    """Where a decode op's HARQ soft buffers live."""
    HOST = "host"
    DEVICE = "device"


@dataclass(frozen=True)
class LpuCapabilities:
    name: str
    supports_cb_interface: bool
    supports_tb_interface: bool
    tb_required_when_single_cb: bool
    internal_harq_memory: bool
    num_queues: int

    def __post_init__(self):
        if not (self.supports_cb_interface or self.supports_tb_interface):
            raise InvalidConfigError(
                f"{self.name}: at least one interface must be supported")
        if self.tb_required_when_single_cb and not self.supports_tb_interface:
            raise InvalidConfigError(
                f"{self.name}: single-CB TB quirk requires the TB interface")


# Shipped capability profiles. The RFSoC card only ever talks CB and keeps
# retransmission state on board; the in-package accelerator has no internal
# memory and insists on TB descriptors for single-segment blocks.
_PROFILES = {
    "t2": LpuCapabilities(
        name="t2", supports_cb_interface=True, supports_tb_interface=False,
        tb_required_when_single_cb=False, internal_harq_memory=True,
        num_queues=16),
    "vran_boost": LpuCapabilities(
        name="vran_boost", supports_cb_interface=True,
        supports_tb_interface=True, tb_required_when_single_cb=True,
        internal_harq_memory=False, num_queues=16),
    "software": LpuCapabilities(
        name="software", supports_cb_interface=True,
        supports_tb_interface=True, tb_required_when_single_cb=False,
        internal_harq_memory=False, num_queues=64),
}


def discover(backend_id: str) -> LpuCapabilities:
    """Static capability descriptor of a registered backend."""
    try:
        return _PROFILES[backend_id]
    except KeyError:
        raise InvalidConfigError(f"unknown backend {backend_id!r}")


def route_interface(caps: LpuCapabilities, num_cbs_in_tb: int) -> Granularity:
    """Descriptor granularity for a TB of the given segment count."""
    if num_cbs_in_tb < 1:
        raise InvalidConfigError("num_cbs_in_tb must be >= 1")
    if num_cbs_in_tb == 1 and caps.tb_required_when_single_cb:
        return Granularity.TB
    if caps.supports_cb_interface:
        return Granularity.CB
    if caps.supports_tb_interface:
        return Granularity.TB
    raise CapabilityMismatchError(
        f"{caps.name}: no permitted interface for {num_cbs_in_tb} CBs")


class CallShape(NamedTuple):
    """Timing shape of one coding-library call (``model.call_shapes``)."""
    generation: str
    n_tb: float        # the slot's TBs spread evenly over its calls
    n_cb: int
    kbits: float


@dataclass
class CodingOpDescriptor:
    kind: OpKind
    granularity: Granularity
    payload: Any                     # the per-code-block items to code
    harq_location: BufferLocation | None = None
    shape: CallShape | None = None   # what an emulated device times


@dataclass
class Completion:
    """The result of the op at the same position in the submitted batch."""
    outputs: Any
    service_time_us: float


@dataclass
class QueueHandle:
    """One queue index of a device: the label of an instance's descriptor
    ring, through which its work reaches ``device``."""
    device_id: str
    queue_index: int
    device: Any = field(repr=False, default=None)


class QueueAllocator:
    """Exclusive queue-index bookkeeping for one device: indices are
    handed out in order and stay with their holder."""

    def __init__(self, device_id: str, num_queues: int):
        self.device_id = device_id
        self.num_queues = num_queues
        self._opened = 0

    def open_queue(self, instance_id: int, device=None) -> QueueHandle:
        """The next free queue for ``instance_id``, which holds the
        returned handle."""
        if self._opened == self.num_queues:
            raise ResourceExhaustedError(
                f"{self.device_id}: all {self.num_queues} queues in use")
        handle = QueueHandle(device_id=self.device_id,
                             queue_index=self._opened, device=device)
        self._opened += 1
        return handle


def validate_harq_placement(caps: LpuCapabilities,
                            op: CodingOpDescriptor) -> None:
    """Reject device-side HARQ buffers on devices without internal memory."""
    if op.harq_location is BufferLocation.DEVICE \
            and not caps.internal_harq_memory:
        raise CapabilityMismatchError(
            f"{caps.name}: device-side HARQ buffer on a host-memory device")


def validate_granularity(caps: LpuCapabilities,
                         op: CodingOpDescriptor) -> None:
    if op.granularity is Granularity.CB and not caps.supports_cb_interface:
        raise CapabilityMismatchError(f"{caps.name}: CB interface unsupported")
    if op.granularity is Granularity.TB and not caps.supports_tb_interface:
        raise CapabilityMismatchError(f"{caps.name}: TB interface unsupported")


def validate_ops(caps: LpuCapabilities, ops: list[CodingOpDescriptor]
                 ) -> None:
    """Input and capability checks every backend runs before it
    processes a batch."""
    for op in ops:
        if op.payload is None:
            raise InvalidConfigError("a coding op needs a payload")
        validate_granularity(caps, op)
        validate_harq_placement(caps, op)
