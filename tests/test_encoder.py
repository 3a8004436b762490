import numpy as np
import pytest

from vranphy.errors import DataFileError, InvalidConfigError, \
    UnsupportedConfigError
from vranphy.nr import ldpc_encode, lifted, lifting_sizes
from vranphy.nr.basegraph import base_graph, parse_table_text


def dense_parity_matrix(bg, z):
    """Expanded parity-check matrix built straight from the table."""
    g = base_graph(bg)
    st = lifted(bg, z)
    h = np.zeros((g.n_rows * z, g.n_cols * z), dtype=np.uint8)
    for r, c, s in zip(st.rows, st.cols, st.shifts):
        for i in range(z):
            h[r * z + i, c * z + (i + s) % z] = 1
    return h


def gf2_solve_parity(h, info):
    """Oracle: solve for parity bits by Gaussian elimination over GF(2)."""
    m, n = h.shape
    k = info.size
    n_parity = n - k
    rhs = (h[:, :k] @ info) % 2
    a = np.concatenate([h[:, k:], rhs[:, None]], axis=1).astype(np.uint8)
    row = 0
    pivots = []
    for col in range(n_parity):
        pivot_rows = np.nonzero(a[row:, col])[0]
        if pivot_rows.size == 0:
            continue
        pr = row + pivot_rows[0]
        a[[row, pr]] = a[[pr, row]]
        others = np.nonzero(a[:, col])[0]
        for o in others:
            if o != row:
                a[o] ^= a[row]
        pivots.append(col)
        row += 1
        if row == m:
            break
    parity = np.zeros(n_parity, dtype=np.uint8)
    for r, col in enumerate(pivots):
        parity[col] = a[r, -1]
    # verify the remaining equations are consistent
    assert not ((h[:, k:] @ parity + rhs) % 2).any()
    return parity


@pytest.mark.parametrize("bg,z", [(2, 8), (1, 4), (2, 3), (1, 13)])
def test_encoder_matches_gf2_elimination_oracle(bg, z, rng):
    kb = 22 if bg == 1 else 10
    info = rng.integers(0, 2, kb * z).astype(np.uint8)
    cw = ldpc_encode(info, bg, z)
    h = dense_parity_matrix(bg, z)
    parity = gf2_solve_parity(h, info)
    np.testing.assert_array_equal(cw[: kb * z], info)
    np.testing.assert_array_equal(cw[kb * z:], parity)


def test_all_zero_info_gives_all_zero_codeword():
    cw = ldpc_encode(np.zeros(10 * 16, np.uint8), 2, 16)
    assert not cw.any()


def test_seeded_codeword_syndrome_is_zero(rng):
    st = lifted(2, 8)
    h = dense_parity_matrix(2, 8)
    info = rng.integers(0, 2, 80).astype(np.uint8)
    cw = ldpc_encode(info, 2, 8)
    assert not ((h @ cw) % 2).any()
    assert st.syndrome_ok(cw)


def test_syndrome_zero_across_sizes(rng):
    for z in (3, 7, 9, 32, 52, 112, 384):
        st = lifted(2, z)
        info = rng.integers(0, 2, 10 * z).astype(np.uint8)
        cw = ldpc_encode(info, 2, z)
        assert st.syndrome_ok(cw), z
    for z in (2, 24, 208, 384):
        st = lifted(1, z)
        info = rng.integers(0, 2, 22 * z).astype(np.uint8)
        cw = ldpc_encode(info, 1, z)
        assert st.syndrome_ok(cw), z


def test_unsupported_lifting_size_rejected():
    with pytest.raises((UnsupportedConfigError, InvalidConfigError)):
        ldpc_encode(np.zeros(10 * 17, np.uint8), 2, 17)


def test_wrong_info_length_rejected():
    with pytest.raises(InvalidConfigError):
        ldpc_encode(np.zeros(99, np.uint8), 2, 8)


def test_lifting_table_contents():
    zs = lifting_sizes()
    assert len(zs) == 51
    assert zs[0] == 2 and zs[-1] == 384
    assert all(a < b for a, b in zip(zs, zs[1:]))


def test_checksum_guard_rejects_tampered_table():
    good = ("# sha256 "
            "badc0ffee00000000000000000000000000000000000000000000000000000"
            "00\n0 0 1 1 1 1 1 1 1 1\n")
    with pytest.raises(DataFileError):
        parse_table_text(good, "tampered")
    with pytest.raises(DataFileError):
        parse_table_text("0 0 1 1 1 1 1 1 1 1\n", "headerless")
