"""Circular-buffer rate matching and the modulation-order interleaver.

The circular buffer is the lifted codeword minus its punctured 2Z head.
Selection starts at the redundancy-version offset, skips filler positions
and wraps; the selected stream is then block-interleaved with Qm rows.
The selected positions depend only on the segmentation plan and the
rate-match parameters, so they are computed once per distinct pair.

Selection reads the buffer in a few runs of consecutive positions: from k0
up to the filler, from the filler's end up to Ncb, and on from 0 after
each wrap. The interleaver writes the selected stream into Qm rows of
E/Qm bits and reads it out by columns, so the part of a run that lies in
one row lands on every Qm-th output bit. ``selection_runs`` cuts the runs
where the rows end and keeps each piece as three small ints; rate matching
copies each piece with one strided slice, and soft combining
(``nr.softbuffer``) adds each one back the same way. Neither builds an
index array.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from ..errors import InvalidConfigError
from .basegraph import PUNCTURED_BLOCKS, buffer_length
from .segmentation import SegmentationPlan

MAX_E_FACTOR = 8  # cap on repetition: E may wrap the buffer at most this often
QM_VALUES = (2, 4, 6, 8)

_K0_NUM = {1: {0: 0, 1: 17, 2: 33, 3: 56},
           2: {0: 0, 1: 13, 2: 25, 3: 43}}
_N_BLOCKS = {1: 66, 2: 50}


@dataclass(frozen=True)
class RateMatchParams:
    e: int              # output bits for this code block
    rv: int             # redundancy version 0..3
    qm: int             # modulation order
    ncb: int            # circular-buffer length

    def __post_init__(self):
        # the fields key the selection caches, so each must be a plain
        # integer: 800.0 or True would pass a range check as 800 or 1
        for name in ("e", "rv", "qm", "ncb"):
            if not _is_integer(getattr(self, name)):
                raise InvalidConfigError(
                    f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.e <= 0:
            raise InvalidConfigError("E must be positive")
        if self.rv not in (0, 1, 2, 3):
            raise InvalidConfigError("rv must be one of 0..3")
        _check_qm(self.qm)


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_qm(qm) -> None:
    if not (_is_integer(qm) and qm in QM_VALUES):
        raise InvalidConfigError(f"Qm must be one of 2, 4, 6, 8, not {qm!r}")


def k0_offset(base_graph: int, z: int, rv: int, ncb: int | None = None) -> int:
    """Circular-buffer start position for a redundancy version."""
    if rv not in (0, 1, 2, 3):
        raise InvalidConfigError("rv must be one of 0..3")
    if ncb is None:
        ncb = buffer_length(base_graph, z)
    num = _K0_NUM[base_graph][rv]
    den = _N_BLOCKS[base_graph] * z
    return (num * ncb // den) * z


def filler_range(plan: SegmentationPlan) -> tuple[int, int]:
    """[start, end) of filler positions inside the circular buffer."""
    z = plan.lifting_size
    start = plan.k_prime - PUNCTURED_BLOCKS * z
    end = plan.k - PUNCTURED_BLOCKS * z
    return start, end


@lru_cache(maxsize=32)
def selection_positions(plan: SegmentationPlan, params: RateMatchParams
                        ) -> np.ndarray:
    """Buffer positions read for E output bits (filler skipped, wrapping),
    as a read-only array shared by every caller with the same plan and
    parameters."""
    z = plan.lifting_size
    ncb = params.ncb
    full = buffer_length(plan.base_graph, z)
    if ncb > full or ncb <= 0:
        raise InvalidConfigError(f"Ncb={ncb} outside (0, {full}]")
    if params.e > MAX_E_FACTOR * ncb:
        raise InvalidConfigError(
            f"E={params.e} exceeds {MAX_E_FACTOR}x the circular buffer")
    if params.e % params.qm:
        raise InvalidConfigError("E must be a multiple of Qm")
    k0 = k0_offset(plan.base_graph, z, params.rv, ncb)
    ring = (k0 + np.arange(ncb)) % ncb
    f_lo, f_hi = filler_range(plan)
    keep = ring[(ring < f_lo) | (ring >= f_hi)]
    if keep.size == 0:
        raise InvalidConfigError("buffer is all filler")
    positions = np.resize(keep, params.e)
    positions.flags.writeable = False
    return positions


@lru_cache(maxsize=32)
def selection_runs(plan: SegmentationPlan, params: RateMatchParams
                   ) -> tuple[tuple[int, int, int], ...]:
    """The selection as pieces of runs of consecutive buffer positions,
    each within one interleaver row: (output index of its first bit, its
    first buffer position, its length). A piece's bits go to every Qm-th
    output bit from the first. A tuple of small ints, so the cache pins
    none of the heap memory a slot's arrays use."""
    positions = selection_positions(plan, params)
    row = params.e // params.qm
    first = np.zeros(params.e, dtype=bool)
    first[::row] = True                         # a row starts
    first[1:] |= np.diff(positions) != 1        # a run starts
    cuts = np.flatnonzero(first)
    lengths = np.diff(cuts, append=params.e)
    row_index, column = np.divmod(cuts, row)
    return tuple(zip((column * params.qm + row_index).tolist(),
                     positions[cuts].tolist(), lengths.tolist()))


def interleave(selected: np.ndarray, qm: int) -> np.ndarray:
    """f[i*Qm + j] = e[j*(E/Qm) + i]: write row-wise in Qm rows, read columns."""
    _check_qm(qm)
    e = np.asarray(selected)
    if e.size % qm:
        raise InvalidConfigError("E must be a multiple of Qm")
    return e.reshape(qm, e.size // qm).T.reshape(-1)


def deinterleave(received: np.ndarray, qm: int) -> np.ndarray:
    _check_qm(qm)
    f = np.asarray(received)
    if f.size % qm:
        raise InvalidConfigError("length must be a multiple of Qm")
    return f.reshape(f.size // qm, qm).T.reshape(-1)


def rate_match(codeword: np.ndarray, plan: SegmentationPlan,
               params: RateMatchParams) -> np.ndarray:
    """E transmitted bits of a full lifted codeword, or an (n, E) array of
    them for an (n, codeword) batch that shares ``params``."""
    cw = np.asarray(codeword, dtype=np.uint8)
    z = plan.lifting_size
    expected = buffer_length(plan.base_graph, z) + PUNCTURED_BLOCKS * z
    if cw.shape[-1] != expected:
        raise InvalidConfigError(
            f"codeword length {cw.shape[-1]} != {expected}")
    out = np.empty(cw.shape[:-1] + (params.e,), dtype=np.uint8)
    qm = params.qm
    for start, pos, length in selection_runs(plan, params):
        pos += PUNCTURED_BLOCKS * z
        out[..., start:start + length * qm:qm] = cw[..., pos:pos + length]
    return out
