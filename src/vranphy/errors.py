"""Error types shared across the package."""


class VranPhyError(Exception):
    """Base class for all package errors."""


class InvalidConfigError(VranPhyError):
    """A request or parameter set violates a documented precondition."""


class UnsupportedConfigError(VranPhyError):
    """The (base graph, lifting size) or similar combination is not shipped."""


class CapabilityMismatchError(VranPhyError):
    """An operation was routed to a device that does not support it."""


class ResourceExhaustedError(VranPhyError):
    """No free queue / core / capacity left."""


class HarqBufferMissingError(VranPhyError):
    """Soft combining was requested but no buffer exists for the process."""


class CalibrationError(VranPhyError):
    """Model fitting failed (degenerate or underdetermined data)."""


class CapacityError(VranPhyError):
    """Not enough cores/complexes for the requested instance count."""


class DataFileError(VranPhyError):
    """A bundled data file is missing or fails its checksum."""
