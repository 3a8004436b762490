"""Systematic LDPC encoding of a batch of code blocks that share one
(base graph, Z), by circulant shifts on the lifted quasi-cyclic structure.

One rule solves every row (Z. Li et al., IEEE Trans. Commun. 54(1), 2006):
its parity is the XOR of its edges, and edge (column c, shift s) adds
block c rotated by s, the slice [s, s + Z) of block c written twice into
a reused (n, 2Z) scratch, copied once per column for every row reading it.
A run over the information columns gives the core rows' syndromes, which
the double-diagonal core submatrix turns into core parity (Richardson &
Urbanke, IEEE Trans. IT 47(2), 2001). Extension row r >= 4 owns column
kb + r and reads only information and core columns besides it, so a run
over the core columns completes it; only the extension columns the caller
reads are solved. Output is the lifted codeword, information part (filler
included) first; rate matching later punctures its 2Z head.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from ..errors import InvalidConfigError
from .basegraph import CORE_PARITY_BLOCKS, lifted


class _EncodePlan:
    """The core anchor shifts of one (base graph, Z) and the schedule of
    each set of extension rows solved, all small Python objects, so a plan
    built mid-slot pins no heap memory that the slot's arrays freed."""

    def __init__(self, bg: int, z: int):
        st = lifted(bg, z)
        self.bg, self.z, self.kb = bg, z, st.kb
        self.k, self.n_full, self.n_rows = st.k, st.n_full, st.n_rows
        at = (st.cols == st.kb).nonzero()[0]
        shift = dict(zip(st.rows[at].tolist(), st.shifts[at].tolist()))
        self.shift_a, self.shift_b = shift[0], shift[1 if bg == 1 else 2]

    @lru_cache(maxsize=32)
    def schedule(self, ext_rows: tuple[int, ...]):
        """(column, ((accumulator, shift), ...)) of each information, then
        core, column that the core rows (accumulators 0-3) and ``ext_rows``
        (4 + j for ext_rows[j]) read besides the parity they solve."""
        st, kb = lifted(self.bg, self.z), self.kb
        place = {r: i for i, r in enumerate((*range(CORE_PARITY_BLOCKS),
                                             *ext_rows))}
        by_col: dict[int, list] = {}
        for r, c, s in zip(*(a.tolist() for a in (st.rows, st.cols,
                                                  st.shifts))):
            solved = c >= kb if r < CORE_PARITY_BLOCKS else c == kb + r
            if r in place and not solved:
                by_col.setdefault(c, []).append((place[r], s))
        cols = [(c, tuple(e)) for c, e in sorted(by_col.items())]
        n_info = sum(c < kb for c, _ in cols)
        return cols[:n_info], cols[n_info:]


_plan = lru_cache(maxsize=8)(_EncodePlan)


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
    rows = range(CORE_PARITY_BLOCKS, plan.n_rows) if read_cols is None \
        else sorted({r for r in (int(c) - plan.kb for c in read_cols)
                     if r >= CORE_PARITY_BLOCKS})
    codeword = _encode(plan, info.reshape(-1, plan.k), tuple(rows))
    return codeword.reshape(info.shape[:-1] + (plan.n_full,))


def _encode(plan: _EncodePlan, info: np.ndarray,
            ext_rows: tuple[int, ...]) -> np.ndarray:
    n, z, kb = info.shape[0], plan.z, plan.kb
    on_info, on_core = plan.schedule(ext_rows)
    s = np.zeros((CORE_PARITY_BLOCKS + len(ext_rows), n, z), dtype=np.uint8)
    doubled = np.empty((n, 2 * z), dtype=np.uint8)

    def add_circulants(blocks: np.ndarray, columns) -> None:
        for c, edges in columns:
            np.copyto(doubled.reshape(n, 2, z), blocks[:, c, None])
            for i, shift in edges:
                s[i] ^= doubled[:, shift:shift + z]

    add_circulants(info.reshape(n, kb, z), on_info)
    # summing the core rows isolates p1; invert its P_b circulant
    p1 = np.roll(s[0] ^ s[1] ^ s[2] ^ s[3], plan.shift_b, axis=-1)
    pa_p1 = np.roll(p1, -plan.shift_a, axis=-1)  # (P_a v)[i] = v[i + a]
    p2 = s[0] ^ pa_p1
    if plan.bg == 1:    # rows: [P_a I . .] [P_b I I .] [. . I I] [P_a . . I]
        p3 = s[1] ^ np.roll(p1, -plan.shift_b, axis=-1) ^ p2
    else:               # rows: [P_a I . .] [. I I .] [P_b . I I] [P_a . . I]
        p3 = s[1] ^ p2
    p4 = s[3] ^ pa_p1
    codeword = np.zeros((n, plan.n_full), dtype=np.uint8)
    codeword[:, : plan.k] = info
    blocks = codeword.reshape(n, -1, z)
    blocks[:, kb:kb + CORE_PARITY_BLOCKS] = np.stack((p1, p2, p3, p4), 1)
    add_circulants(blocks, on_core)
    for r, parity in zip(ext_rows, s[CORE_PARITY_BLOCKS:]):
        blocks[:, kb + r] = parity
    return codeword
