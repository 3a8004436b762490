"""The syndrome test of a lifted graph's kept checks, which the decoder no
longer runs: it exits on the segment CRC. ``test_encoder`` checks
codewords with it, the float32 reference decoder (``float_decoder``)
still exits on it, and ``test_decoder`` shows with it which blocks the
CRC exit lets leave while a check still fails.

A word passes the syndrome when each kept row's XOR over its edges' hard
bits is zero at all Z positions; the test of a batch of words stops at
the first row where each has failed."""
from __future__ import annotations

import numpy as np


def syndrome_passes(st, hard_bits: np.ndarray) -> np.ndarray:
    """Per column of the ``(n, c)`` words ``hard_bits``, whether it
    passes the kept checks of the lifted structure ``st``. Each row
    gathers only the columns that passed every row before it, and the test
    stops once none is left. The words are made C-contiguous once and kept
    so by ``compress`` (``take`` would copy a whole array of another layout
    per row)."""
    hard_bits = np.ascontiguousarray(hard_bits)
    passes = np.ones(hard_bits.shape[1], dtype=bool)
    left = np.arange(hard_bits.shape[1])
    for index in st.row_blocks:
        failed = np.bitwise_xor.reduce(hard_bits.take(index, axis=0),
                                       axis=0).any(axis=0)
        if failed.any():
            passes[left[failed]] = False
            left = left[~failed]
            if not left.size:
                break
            hard_bits = hard_bits.compress(~failed, axis=1)
    return passes
