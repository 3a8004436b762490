"""Systematic LDPC encoding on the lifted quasi-cyclic structure.

The four core parity blocks are solved through the double-diagonal form of
the core parity submatrix (summing the four core rows isolates the first
parity block), the remaining parity blocks come from one gather/XOR pass
over the extension rows. Output is the full lifted codeword, information
part (filler included) first; the 2Z-head puncture is applied later by
rate matching.
"""
from __future__ import annotations

import numpy as np

from ..errors import InvalidConfigError, UnsupportedConfigError
from .basegraph import CORE_PARITY_BLOCKS, LiftedStructure, lifted


def _roll_neg(v: np.ndarray, s: int) -> np.ndarray:
    """Apply a shifted identity: (P_s v)[i] = v[(i + s) mod z]."""
    return np.roll(v, -s)


def ldpc_encode(bits, base_graph: int, lifting_size: int) -> np.ndarray:
    """Full lifted codeword (length n_cols * Z) for one K-bit code block
    (payload, CB CRC and filler)."""
    st = lifted(base_graph, lifting_size)
    info = np.asarray(bits, dtype=np.uint8)
    if info.size != st.k:
        raise InvalidConfigError(
            f"code block length {info.size} != K={st.k}")
    return _encode_on(st, info)


def _encode_on(st: LiftedStructure, info: np.ndarray) -> np.ndarray:
    z = st.z
    kb = st.kb
    codeword = np.zeros(st.n_full, dtype=np.uint8)
    codeword[: st.k] = info

    # syndromes of the four core rows over information columns
    s = np.zeros((CORE_PARITY_BLOCKS, z), dtype=np.uint8)
    core_shift_a = None
    core_shift_b = None
    for e in range(st.n_edges):
        r = st.rows[e]
        if r >= CORE_PARITY_BLOCKS:
            break
        c = st.cols[e]
        if c < kb:
            s[r] ^= _roll_neg(info[c * z:(c + 1) * z], st.shifts[e])
        elif c == kb:
            if r in (0, 3):
                core_shift_a = int(st.shifts[e])
            else:
                core_shift_b = int(st.shifts[e])
    if core_shift_a is None or core_shift_b is None:
        raise UnsupportedConfigError("core parity anchors missing from table")

    total = s[0] ^ s[1] ^ s[2] ^ s[3]
    p1 = np.roll(total, core_shift_b)      # invert the P_b circulant
    pa_p1 = _roll_neg(p1, core_shift_a)
    p2 = s[0] ^ pa_p1
    if st.bg == 1:
        # rows: [P_a I . .] [P_b I I .] [. . I I] [P_a . . I]
        p3 = s[1] ^ _roll_neg(p1, core_shift_b) ^ p2
        p4 = s[3] ^ pa_p1
    else:
        # rows: [P_a I . .] [. I I .] [P_b . I I] [P_a . . I]
        p3 = s[1] ^ p2
        p4 = s[3] ^ pa_p1
    base = kb * z
    for i, p in enumerate((p1, p2, p3, p4)):
        codeword[base + i * z: base + (i + 1) * z] = p

    # extension parities: each row r >= 4 owns identity column kb + r
    head = codeword[: (kb + CORE_PARITY_BLOCKS) * z]
    ext_mask = (st.rows >= CORE_PARITY_BLOCKS) & \
               (st.cols < kb + CORE_PARITY_BLOCKS)
    idx = st.var_index[ext_mask]
    vals = head[idx]
    ext_rows = st.rows[ext_mask]
    starts = np.searchsorted(ext_rows, np.arange(CORE_PARITY_BLOCKS,
                                                 st.n_rows))
    parity = np.bitwise_xor.reduceat(vals, starts, axis=0)
    codeword[(kb + CORE_PARITY_BLOCKS) * z:] = parity.reshape(-1)
    return codeword
