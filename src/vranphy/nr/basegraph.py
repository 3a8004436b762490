"""Base-graph tables and lifted quasi-cyclic structures.

The two base graphs ship as versioned text files (one line per entry:
row, column, one shift per lifting-set index) guarded by a sha256 header.
A lifted structure for a concrete (graph, Z) pair holds its edges, which
the encoder reads, and precomputes the gather and group-reduction indices
that the decoder runs on; the decoder asks for one restricted to the
check rows a transmission reached.

Lifting semantics: an entry with shift ``s`` stands for a Z x Z identity
rolled by ``s``; check-local position ``i`` of that block connects to
variable position ``(i + s) mod Z`` of its column.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from ..errors import DataFileError, UnsupportedConfigError

KB_BG1 = 22
KB_BG2 = 10
CORE_PARITY_BLOCKS = 4
PUNCTURED_BLOCKS = 2
MAX_Z = 384

_BG_FILES = {1: "bg1_v1.txt", 2: "bg2_v1.txt"}
_LIFT_FILE = "lifting_sizes_v1.txt"


def parse_table_text(text: str, name: str) -> list[str]:
    """Body lines of a data file after validating its sha256 header."""
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    digest = None
    for ln in header:
        parts = ln[1:].split()
        if parts and parts[0] == "sha256":
            digest = parts[1]
    if digest is None:
        raise DataFileError(f"{name}: missing checksum header")
    payload = "\n".join(body) + "\n"
    if hashlib.sha256(payload.encode()).hexdigest() != digest:
        raise DataFileError(f"{name}: checksum mismatch")
    return body


def _read_data(name: str) -> list[str]:
    ref = resources.files("vranphy.nr").joinpath("data").joinpath(name)
    try:
        text = ref.read_text()
    except FileNotFoundError as exc:
        raise DataFileError(f"missing data file {name}") from exc
    return parse_table_text(text, name)


@lru_cache(maxsize=None)
def lifting_sizes() -> tuple[int, ...]:
    """Supported lifting sizes, ascending."""
    return tuple(int(ln.split()[0]) for ln in _read_data(_LIFT_FILE))


@lru_cache(maxsize=None)
def _set_index_map() -> dict[int, int]:
    return {int(z): int(i) for z, i in
            (ln.split() for ln in _read_data(_LIFT_FILE))}


def set_index(z: int) -> int:
    """Lifting-set index for a supported Z."""
    try:
        return _set_index_map()[z]
    except KeyError:
        raise UnsupportedConfigError(f"lifting size {z} not supported")


@dataclass(frozen=True)
class BaseGraph:
    bg: int
    kb: int
    n_rows: int
    n_cols: int
    rows: np.ndarray      # entry row indices
    cols: np.ndarray      # entry column indices
    shifts: np.ndarray    # (n_entries, 8) shift per lifting set


@lru_cache(maxsize=None)
def base_graph(bg: int) -> BaseGraph:
    if bg not in _BG_FILES:
        raise UnsupportedConfigError(f"base graph {bg} unknown")
    body = _read_data(_BG_FILES[bg])
    rows, cols, shifts = [], [], []
    for ln in body:
        parts = [int(p) for p in ln.split()]
        rows.append(parts[0])
        cols.append(parts[1])
        shifts.append(parts[2:10])
    kb = KB_BG1 if bg == 1 else KB_BG2
    n_rows = 46 if bg == 1 else 42
    n_cols = 68 if bg == 1 else 52
    g = BaseGraph(bg=bg, kb=kb, n_rows=n_rows, n_cols=n_cols,
                  rows=np.asarray(rows), cols=np.asarray(cols),
                  shifts=np.asarray(shifts))
    _check_structure(g)
    return g


def _check_structure(g: BaseGraph) -> None:
    """Structural sanity of the bundled table (beyond the checksum)."""
    entries = set(zip(g.rows.tolist(), g.cols.tolist()))
    kb = g.kb
    core = {(0, kb), (0, kb + 1), (1, kb + 1), (1, kb + 2),
            (2, kb + 2), (2, kb + 3), (3, kb), (3, kb + 3)}
    extra = {(1, kb)} if g.bg == 1 else {(2, kb)}
    for rc in core | extra:
        if rc not in entries:
            raise DataFileError(f"BG{g.bg}: core parity entry {rc} missing")
    for r in range(4, g.n_rows):
        if (r, kb + 4 + r - 4) not in entries:
            raise DataFileError(f"BG{g.bg}: identity column missing in row {r}")
    if g.cols.max() >= g.n_cols or g.rows.max() >= g.n_rows:
        raise DataFileError(f"BG{g.bg}: entry out of bounds")


def codeword_length(bg: int, z: int) -> int:
    """Full lifted codeword length including the punctured 2Z head."""
    return base_graph(bg).n_cols * z


def buffer_length(bg: int, z: int) -> int:
    """Circular-buffer length Ncb (codeword minus punctured 2Z)."""
    return codeword_length(bg, z) - PUNCTURED_BLOCKS * z


class LiftedStructure:
    """Gather/reduce index plan for one (base graph, Z) pair.

    ``rows`` restricts the plan to those check rows (every row when None):
    the edges and row groups then cover only the kept rows, and
    ``row_blocks`` holds each kept row's ``(degree, z)`` slice of
    ``var_index``. ``n_rows`` stays the base graph's row count.
    """

    def __init__(self, bg: int, z: int, rows: tuple[int, ...] | None = None):
        iset = set_index(z)     # rejects an unsupported Z
        g = base_graph(bg)
        self.kb = g.kb
        self.n_rows = g.n_rows
        self.k = g.kb * z
        self.n_full = g.n_cols * z
        order = np.lexsort((g.cols, g.rows))
        if rows is not None:
            order = order[np.isin(g.rows[order], rows)]
        self.rows = g.rows[order]
        self.cols = g.cols[order]
        self.shifts = np.mod(g.shifts[order, iset], z)
        # row groups (edges are row-major sorted); reduceat over
        # row_starts yields one entry per kept row, and row_degree expands
        # it back to one entry per edge
        _, self.row_starts, self.row_degree = np.unique(
            self.rows, return_index=True, return_counts=True)
        # check-local position i of edge e reads variable (i + s_e) mod z;
        # built in place to keep construction temporaries small
        self.var_index = np.arange(z)[None, :] + self.shifts[:, None]
        self.var_index %= z
        self.var_index += self.cols[:, None] * z
        self.row_blocks = tuple(np.split(self.var_index, self.row_starts[1:]))
        # the codeword head holding every column the kept rows touch
        self.n_used = (int(self.cols.max()) + 1) * z


@lru_cache(maxsize=32)
def lifted(bg: int, z: int, rows: tuple[int, ...] | None = None
           ) -> LiftedStructure:
    """Cached index plan for (bg, z), restricted to ``rows`` if given."""
    return LiftedStructure(bg, z, rows)
