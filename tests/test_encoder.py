import numpy as np
import pytest

from vranphy.errors import DataFileError, InvalidConfigError, \
    UnsupportedConfigError
from vranphy.nr import (RateMatchParams, buffer_length, cb_params, encode_cb,
                        ldpc_encode, lifted, lifting_sizes, segment_tb,
                        selection_positions, split_payload)
from vranphy.nr import pipeline
from vranphy.nr.basegraph import base_graph, parse_table_text, set_index
from syndrome import syndrome_passes


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


def _syndrome_ok(st, word):
    """Whether ``word`` alone passes the kept checks of ``st``."""
    return bool(syndrome_passes(st, word[:, None])[0])


def test_seeded_codeword_syndrome_is_zero(rng):
    st = lifted(2, 8)
    h = dense_parity_matrix(2, 8)
    info = rng.integers(0, 2, 80).astype(np.uint8)
    cw = ldpc_encode(info, 2, 8)
    assert not ((h @ cw) % 2).any()
    assert _syndrome_ok(st, cw)


def test_syndrome_zero_across_sizes(rng):
    for z in (3, 7, 9, 32, 52, 112, 384):
        st = lifted(2, z)
        info = rng.integers(0, 2, 10 * z).astype(np.uint8)
        cw = ldpc_encode(info, 2, z)
        assert _syndrome_ok(st, cw), z
    for z in (2, 24, 208, 384):
        st = lifted(1, z)
        info = rng.integers(0, 2, 22 * z).astype(np.uint8)
        cw = ldpc_encode(info, 1, z)
        assert _syndrome_ok(st, cw), z


def _word_failing_first_at(h, j):
    """A word that satisfies every check of ``h[:j]`` and fails one of
    ``h[j]``: a GF(2) null-space vector of the earlier rows."""
    a = h[:j].reshape(-1, h.shape[-1]).copy()
    pivots = []
    for col in range(a.shape[1]):
        hits = np.flatnonzero(a[len(pivots):, col])
        if hits.size == 0:
            continue
        r = len(pivots)
        a[[r, r + hits[0]]] = a[[r + hits[0], r]]
        others = np.flatnonzero(a[:, col])
        a[others[others != r]] ^= a[r]
        pivots.append(col)
        if r + 1 == a.shape[0]:
            break
    for free in sorted(set(range(a.shape[1])) - set(pivots)):
        word = np.zeros(a.shape[1], dtype=np.uint8)
        word[free] = 1
        word[pivots] = a[: len(pivots), free]
        if (h[j] @ word % 2).any():
            return word
    raise AssertionError(f"row block {j} is implied by the rows before it")


@pytest.mark.parametrize("bg,z", [(1, 2), (1, 5), (2, 3), (2, 6)])
@pytest.mark.parametrize("rows", [None, (0, 1, 2, 3, 6, 11)],
                         ids=["all", "restricted"])
def test_syndrome_rule_matches_the_dense_parity_matrix(bg, z, rows, rng):
    """``syndrome_passes`` on one word against H built from the base-graph
    entries: true on codewords, false after any one flip in a kept row's
    columns, false on a word whose first failing row is any given kept row
    (so every row's early exit is reached), and equal to ``H x = 0`` on
    random words."""
    g = base_graph(bg)
    kept = list(range(g.n_rows)) if rows is None else list(rows)
    h = np.zeros((g.n_rows, z, g.n_cols * z), dtype=np.uint8)
    i = np.arange(z)
    for r, c, s in zip(g.rows, g.cols, g.shifts[:, set_index(z)] % z):
        h[r, i, c * z + (i + s) % z] = 1
    h = h[kept]
    st = lifted(bg, z, rows)
    cw = ldpc_encode(rng.integers(0, 2, g.kb * z, dtype=np.uint8), bg, z)
    assert _syndrome_ok(st, cw) and _syndrome_ok(st, cw == 1)
    first_failing = set()
    for col in np.flatnonzero(h.any(axis=(0, 1))):
        word = cw.copy()
        word[col] ^= 1
        assert not _syndrome_ok(st, word), col
        first_failing.add(np.flatnonzero(h[:, :, col].any(axis=1))[0])
    for j in sorted(set(range(len(kept))) - first_failing):
        assert not _syndrome_ok(st, cw ^ _word_failing_first_at(h, j)), j
    for _ in range(40):
        word = cw ^ (rng.random(cw.size) < rng.choice([0.002, 0.5]))
        assert _syndrome_ok(st, word) == (not (h @ word % 2).any())


@pytest.mark.parametrize("rows", [None, (0, 1, 2, 3, 6, 11)],
                         ids=["all", "restricted"])
def test_syndrome_of_a_batch_is_each_words_syndrome(rows, rng):
    """Words side by side as columns get the verdicts they get one by one:
    codewords, words failing at different rows, and all-failing batches."""
    st = lifted(1, 5, rows)
    cws = [ldpc_encode(rng.integers(0, 2, 22 * 5, dtype=np.uint8), 1, 5)
           for _ in range(4)]
    words = cws + [cw ^ (rng.random(cw.size) < p)
                   for cw in cws for p in (0.002, 0.01, 0.5)]
    for batch in (words, words[4:], words[:1]):
        passes = syndrome_passes(st, np.stack(batch, axis=1))
        assert passes.tolist() == [_syndrome_ok(st, w) for w in batch]
    assert not syndrome_passes(st, np.stack(words[4:], axis=1)).all()


@pytest.mark.parametrize("rows", [None, (0, 1, 2, 3, 6, 11)],
                         ids=["all", "restricted"])
def test_syndrome_of_a_batch_ignores_its_layout(rows, rng):
    """Fortran-ordered and column-strided batches get each word's
    verdict, also when failing columns drop out at row 0 and at later
    rows while codewords stay to the last row."""
    st = lifted(1, 5, rows)
    kb = st.k // 5
    cws = [ldpc_encode(rng.integers(0, 2, 22 * 5, dtype=np.uint8), 1, 5)
           for _ in range(4)]
    late = []
    for r in (6, 11):       # column kb + r is read by row r alone
        word = cws[r % 4].copy()
        word[(kb + r) * 5] ^= 1
        late.append(word)
    early = cws[1].copy()
    early[int(st.var_index[0, 0])] ^= 1
    noisy = [cw ^ (rng.random(cw.size) < p)
             for cw in cws for p in (0.002, 0.5)]
    dropping = [cws[0], early, late[0], cws[1], late[1], cws[2]]
    for batch in (cws + noisy, noisy, dropping):
        want = [_syndrome_ok(st, w) for w in batch]
        words = np.stack(batch, axis=1)
        wide = np.repeat(words, 2, axis=1)
        wide[:, 1::2] ^= 1
        for layout in (np.asfortranarray(words), wide[:, ::2]):
            np.testing.assert_array_equal(layout, words)
            assert syndrome_passes(st, layout).tolist() == want
    assert [_syndrome_ok(st, w) for w in dropping] == \
        [True, False, False, True, False, True]


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


@pytest.mark.parametrize("bg,z", [(1, 24), (2, 16)])
def test_batch_encode_equals_each_block_alone(bg, z, rng):
    info = rng.integers(0, 2, (5, (22 if bg == 1 else 10) * z),
                        dtype=np.uint8)
    batch = ldpc_encode(info, bg, z)
    for row, bits in zip(batch, info):
        np.testing.assert_array_equal(row, ldpc_encode(bits, bg, z))


def _rv_read(bg: int, rv: int):
    """(bg, 384, the codeword column blocks that rate matching reads for
    E = 12 000 under ``rv``) for a one-CB TB coded with Z = 384."""
    plan = segment_tb(8000, 0.7) if bg == 1 else segment_tb(3824, 0.5)
    assert (plan.base_graph, plan.lifting_size) == (bg, 384)
    params = RateMatchParams(e=12_000, rv=rv, qm=2,
                             ncb=buffer_length(bg, 384))
    read = np.unique(selection_positions(plan, params) // 384) + 2
    return pytest.param((bg, 384, read), id=f"bg{bg}-z384-rv{rv}")


@pytest.mark.parametrize("read", [
    (1, 16, range(0, 26)), (1, 16, range(30, 68)),
    (1, 16, (0, 27, 40, 41, 67)),
    *(_rv_read(bg, rv) for bg in (1, 2) for rv in (2, 3))])
def test_restricted_encode_is_exact_on_the_columns_read(read, rng):
    bg, z, read = read
    kb = 22 if bg == 1 else 10
    info = rng.integers(0, 2, (3, kb * z), dtype=np.uint8)
    full = ldpc_encode(info, bg, z).reshape(3, -1, z)
    part = ldpc_encode(info, bg, z, read).reshape(3, -1, z)
    cols = sorted(set(read) | set(range(kb + 4)))   # core is always solved
    assert len(cols) < full.shape[1]
    np.testing.assert_array_equal(part[:, cols], full[:, cols])
    assert not np.delete(part, cols, axis=1).any()


@pytest.mark.parametrize("bg", [1, 2])
def test_batched_full_codewords_satisfy_every_check_row(bg, rng):
    """Every extension row is solved for every block of a batch."""
    z = 384
    info = rng.integers(0, 2, (5, (22 if bg == 1 else 10) * z),
                        dtype=np.uint8)
    codewords = ldpc_encode(info, bg, z)
    assert codewords.shape == (5, lifted(bg, z).n_full)
    for cw in codewords:
        assert _syndrome_ok(lifted(bg, z), cw)


@pytest.mark.parametrize("rv", [0, 2])
def test_batched_encode_cb_equals_batches_of_one(rv, rng):
    plan = segment_tb(30_000, 0.6)
    assert plan.num_cbs > 2
    params = cb_params(plan, 6 * (4000 * plan.num_cbs + 1), 2, 3, rv)
    assert len(set(p.e for p in params)) == 2
    bits = split_payload(rng.integers(0, 2, plan.payload_bits,
                                      dtype=np.uint8), plan)
    batch = encode_cb(bits, plan, params)
    assert len(batch) == plan.num_cbs
    for i, stream in enumerate(batch):
        one = encode_cb(bits[i:i + 1], plan, params[i:i + 1])
        assert len(one) == 1
        np.testing.assert_array_equal(stream, one[0])


def test_a_repeated_encode_reuses_its_read_columns(monkeypatch, rng):
    """The columns rate matching reads are kept per (plan, parameters), so
    encoding the same shape again selects only to rate-match."""
    plan = segment_tb(30_000, 0.6)
    params = cb_params(plan, 6 * (4000 * plan.num_cbs + 1), 2, 3, 1)
    bits = split_payload(rng.integers(0, 2, plan.payload_bits,
                                      dtype=np.uint8), plan)
    first = encode_cb(bits, plan, params)
    calls = []

    def counted(*args):
        calls.append(args)
        return selection_positions(*args)

    monkeypatch.setattr(pipeline, "selection_positions", counted)
    again = encode_cb(bits, plan, params)
    assert calls == []
    for a, b in zip(first, again, strict=True):
        np.testing.assert_array_equal(a, b)
    read = pipeline._read_columns(plan, frozenset(params))
    assert isinstance(read, tuple)     # immutable as well as shared
    assert pipeline._read_columns(plan, frozenset(params)) is read
