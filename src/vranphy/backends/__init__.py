"""Concrete LPU backends: software workers and emulated accelerators."""

from .model import (BenchConfig, JitterSpec, ServiceTimeModel, call_groups,
                    call_shapes, calibrate_model, calibrate_per_generation,
                    calls_for, load_reference_observations, ENCODE_CB_BATCH)
from .emulated import (CallRecord, EmulatedDevice, EMULATED_FACTORIES,
                       make_emulated, make_emulated_acc100,
                       make_emulated_hpp_software, make_emulated_t2,
                       make_emulated_vran_boost, DEFAULT_SPIKE)
from .software import SoftwareBackend, execute_descriptor

__all__ = [
    "BenchConfig", "JitterSpec", "ServiceTimeModel", "call_groups",
    "call_shapes", "calibrate_model", "calibrate_per_generation",
    "calls_for", "load_reference_observations", "ENCODE_CB_BATCH",
    "CallRecord", "EmulatedDevice", "EMULATED_FACTORIES", "make_emulated",
    "make_emulated_t2", "make_emulated_acc100", "make_emulated_vran_boost",
    "make_emulated_hpp_software", "DEFAULT_SPIKE",
    "SoftwareBackend", "execute_descriptor",
]
