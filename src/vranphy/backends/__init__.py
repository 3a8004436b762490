"""Concrete LPU backends: software workers and emulated accelerators."""

from .model import (BenchConfig, JitterSpec, ServiceTimeModel, call_groups,
                    call_shapes, calibrate_model, calibrate_per_generation,
                    calls_for, load_reference_observations, ENCODE_CB_BATCH)
from .emulated import (CallRecord, DEVICE_PROFILES, EmulatedDevice,
                       make_emulated, DEFAULT_SPIKE)
from .software import SoftwareBackend, execute_descriptor

__all__ = [
    "BenchConfig", "JitterSpec", "ServiceTimeModel", "call_groups",
    "call_shapes", "calibrate_model", "calibrate_per_generation",
    "calls_for", "load_reference_observations", "ENCODE_CB_BATCH",
    "CallRecord", "DEVICE_PROFILES", "EmulatedDevice",
    "make_emulated", "DEFAULT_SPIKE",
    "SoftwareBackend", "execute_descriptor",
]
