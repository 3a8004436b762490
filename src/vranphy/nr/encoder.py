"""Systematic LDPC encoding of a batch of code blocks that share one
(base graph, Z), on the lifted quasi-cyclic structure.

Each row's parity over the columns it reads is, for every block at once,
one gather through the lifted variable index and one XOR reduction. The
four core parity blocks follow from the core rows' syndromes through the
double-diagonal form of the core submatrix (Richardson & Urbanke, IEEE
Trans. IT 47(2), 2001): summing the four core rows isolates the first.
Extension row r >= 4 owns identity column kb + r and reads only
information and core parity columns besides it, so each extension column
is solved alone, and only the columns the caller reads are (rate matching
reads the span its redundancy version selects). Output is the lifted
codeword, information part (filler included) first; the 2Z-head puncture
is applied later by rate matching.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from ..errors import InvalidConfigError, UnsupportedConfigError
from .basegraph import CORE_PARITY_BLOCKS, lifted


class _EncodePlan:
    """The edges each row reads (a core row's information edges, an
    extension row's edges but its own identity column) and the core anchor
    shifts of one (base graph, Z). Columns ascend within a lifted row, so
    a row's read edges are a prefix of its edges."""

    def __init__(self, bg: int, z: int):
        st = lifted(bg, z)
        self.bg, self.z, self.kb = bg, z, st.kb
        self.k, self.n_full, self.n_rows = st.k, st.n_full, st.n_rows
        core = st.rows < CORE_PARITY_BLOCKS
        anchors = core & (st.cols == st.kb)
        shift_a = st.shifts[anchors & np.isin(st.rows, (0, 3))]
        shift_b = st.shifts[anchors & np.isin(st.rows, (1, 2))]
        if shift_a.size == 0 or shift_b.size == 0:
            raise UnsupportedConfigError(
                "core parity anchors missing from table")
        self.shift_a, self.shift_b = int(shift_a[0]), int(shift_b[0])
        reads = st.cols < np.where(core, st.kb, st.kb + CORE_PARITY_BLOCKS)
        ends = st.row_starts + np.bincount(st.rows[reads],
                                           minlength=st.n_rows)
        self.var_index = st.var_index
        self.row_edges = list(zip(st.row_starts.tolist(), ends.tolist()))


@lru_cache(maxsize=8)
def _plan(bg: int, z: int) -> _EncodePlan:
    return _EncodePlan(bg, z)


def _shift(v: np.ndarray, s: int) -> np.ndarray:
    """Shifted identity on each row: (P_s v)[i] = v[(i + s) mod z]."""
    return np.roll(v, -s, axis=-1)


def ldpc_encode(bits, base_graph: int, lifting_size: int,
                read_cols: Iterable[int] | None = None) -> np.ndarray:
    """Lifted codewords (length n_cols * Z) of K-bit code blocks (payload,
    CB CRC and filler): one block as a flat array, or a batch as (n, K).

    ``read_cols`` lists the codeword column blocks the caller reads; the
    extension parity columns outside it are left zero. When it is None
    the whole codeword is solved.
    """
    plan = _plan(base_graph, lifting_size)
    info = np.asarray(bits, dtype=np.uint8)
    if info.ndim not in (1, 2) or info.shape[-1] != plan.k:
        raise InvalidConfigError(
            f"code block shape {info.shape} is not (K,) or (n, K) with "
            f"K={plan.k}")
    first_ext = plan.kb + CORE_PARITY_BLOCKS
    cols = range(first_ext, plan.kb + plan.n_rows) if read_cols is None \
        else sorted(c for c in set(read_cols) if c >= first_ext)
    codeword = _encode(plan, info.reshape(-1, plan.k), cols)
    return codeword.reshape(info.shape[:-1] + (plan.n_full,))


def _encode(plan: _EncodePlan, info: np.ndarray,
            ext_cols: Iterable[int]) -> np.ndarray:
    z, kb = plan.z, plan.kb

    def row_parity(bits: np.ndarray, row: int) -> np.ndarray:
        """(n, z) XOR of the values row ``row``'s edges read."""
        lo, hi = plan.row_edges[row]
        gathered = bits[:, plan.var_index[lo:hi].ravel()]
        return np.bitwise_xor.reduce(
            gathered.reshape(bits.shape[0], -1, z), axis=1)

    codeword = np.zeros((info.shape[0], plan.n_full), dtype=np.uint8)
    codeword[:, : plan.k] = info
    s = [row_parity(info, r) for r in range(CORE_PARITY_BLOCKS)]
    p1 = np.roll(s[0] ^ s[1] ^ s[2] ^ s[3], plan.shift_b,
                 axis=-1)                       # invert the P_b circulant
    pa_p1 = _shift(p1, plan.shift_a)
    p2 = s[0] ^ pa_p1
    if plan.bg == 1:
        # rows: [P_a I . .] [P_b I I .] [. . I I] [P_a . . I]
        p3 = s[1] ^ _shift(p1, plan.shift_b) ^ p2
    else:
        # rows: [P_a I . .] [. I I .] [P_b . I I] [P_a . . I]
        p3 = s[1] ^ p2
    p4 = s[3] ^ pa_p1
    for i, p in enumerate((p1, p2, p3, p4)):
        codeword[:, (kb + i) * z:(kb + i + 1) * z] = p
    # extension column c is solved by row c - kb from the head alone
    for c in ext_cols:
        codeword[:, c * z:(c + 1) * z] = row_parity(codeword, c - kb)
    return codeword
