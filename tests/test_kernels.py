import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddsi import kernels
from ddsi.model import ModelParams, init_model
from ddsi.rng import Xoshiro256StarStar

from oracles import oracle_lcs


def _check_lcs(seqs, pa, pb):
    tok, lengths = kernels.pack_token_matrix(seqs)
    out = kernels.lcs_lengths_pairs(tok, lengths, pa, pb)
    assert out.dtype == np.int64 and out.shape == (len(pa),)
    for value, i, j in zip(out.tolist(), pa, pb):
        assert value == oracle_lcs(seqs[i], seqs[j])
    return out


def test_lcs_matches_oracle():
    rng = Xoshiro256StarStar(5)
    # short rows plus rows on either side of one, two and three 64-token words
    lens = [1 + rng.randbelow(20) for _ in range(6)] + [63, 64, 65, 127, 128, 129, 160, 191, 192, 193]
    seqs = [[rng.randbelow(6) for _ in range(n)] for n in lens]
    pa, pb = np.triu_indices(len(seqs), k=1)
    _check_lcs(seqs, pa, pb)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 191, 192, 193])
def test_lcs_word_boundaries(n):
    rng = Xoshiro256StarStar(n)
    # near-copies of one row, so the LCS runs right up to the last bit of b
    base = [rng.randbelow(4) for _ in range(n)]
    seqs = [base, base[:-1], base[1:] + [9], [rng.randbelow(4) for _ in range(n)], base[::-1], [1] * n]
    pa, pb = np.meshgrid(np.arange(len(seqs)), np.arange(len(seqs)))
    out = _check_lcs(seqs, pa.ravel(), pb.ravel())
    assert out[0] == n


def test_lcs_carry_crosses_a_word_without_matches():
    # b's middle word never matches a, so a carry out of the first word has
    # to pass through a word of all ones to reach the third
    b = [1] * 64 + [2] * 64 + [1] * 64
    seqs = [[1] * 200, [1] * 70, [1] * 130, [2] * 10 + [1] * 150, b]
    pa, pb = np.meshgrid(np.arange(len(seqs)), np.arange(len(seqs)))
    _check_lcs(seqs, pa.ravel(), pb.ravel())


def test_lcs_zero_length_rows():
    seqs = [[], [1, 2, 3], [], [3, 2, 1, 2]]
    out = _check_lcs(seqs, [0, 0, 1, 2, 1, 3], [1, 2, 0, 3, 3, 1])
    np.testing.assert_array_equal(out, [0, 0, 0, 0, 2, 2])


def test_lcs_all_rows_empty():
    tok, lengths = kernels.pack_token_matrix([[], [], []])
    out = kernels.lcs_lengths_pairs(tok, lengths, [0, 1, 2], [1, 2, 2])
    np.testing.assert_array_equal(out, [0, 0, 0])
    # no columns at all
    out = kernels.lcs_lengths_pairs(np.zeros((2, 0), np.int64), np.zeros(2, np.int64), [0], [1])
    np.testing.assert_array_equal(out, [0])


def test_lcs_same_row_and_both_orders():
    rng = Xoshiro256StarStar(17)
    seqs = [[rng.randbelow(5) for _ in range(n)] for n in (7, 70, 130, 1)]
    pa = [0, 1, 2, 3, 0, 1, 1, 2, 2, 3]
    pb = [0, 1, 2, 3, 1, 0, 2, 1, 3, 2]
    out = _check_lcs(seqs, pa, pb)
    np.testing.assert_array_equal(out[:4], [7, 70, 130, 1])
    assert out[4] == out[5] and out[6] == out[7] and out[8] == out[9]


def test_lcs_large_token_ids():
    rng = Xoshiro256StarStar(23)
    seqs = [[rng.randbelow(7) for _ in range(n)] for n in (5, 66, 140, 30)]
    pa, pb = np.triu_indices(len(seqs), k=1)
    small = _check_lcs(seqs, pa, pb)
    for offset in (2**40, 2**62):
        big = [[offset + 3 * t for t in s] for s in seqs]
        tok, lengths = kernels.pack_token_matrix(big)
        np.testing.assert_array_equal(kernels.lcs_lengths_pairs(tok, lengths, pa, pb), small)


def test_lcs_padding_value_is_ignored():
    seqs = [[1, 2, 3, 1], [3, 1], [2, 2, 2]]
    tok, lengths = kernels.pack_token_matrix(seqs)
    pa, pb = np.triu_indices(3, k=1)
    want = kernels.lcs_lengths_pairs(tok, lengths, pa, pb)
    tok[tok == -1] = 2
    np.testing.assert_array_equal(kernels.lcs_lengths_pairs(tok, lengths, pa, pb), want)


def test_lcs_slot_table_blocks(monkeypatch):
    # a tiny slot table cap splits the pairs into one block per b-row
    monkeypatch.setattr(kernels, "_SLOT_CELLS", 3)
    rng = Xoshiro256StarStar(29)
    seqs = [[rng.randbelow(5) for _ in range(n)] for n in (0, 9, 64, 65, 100, 3)]
    pa, pb = np.meshgrid(np.arange(len(seqs)), np.arange(len(seqs)))
    _check_lcs(seqs, pa.ravel(), pb.ravel())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=4), max_size=150), min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)), min_size=1, max_size=20),
)
def test_lcs_random_rows_match_oracle(seqs, pairs):
    pa = [i % len(seqs) for i, _ in pairs]
    pb = [j % len(seqs) for _, j in pairs]
    _check_lcs(seqs, pa, pb)


def test_lcs_memory_is_bounded_by_pairs_times_words():
    # 9,585 pairs (213 sets of 10) of 160-token rows; the kernel may not
    # hold anything the size of a (pairs x row length) int64 array
    rng = np.random.default_rng(4)
    tok = rng.integers(0, 300, size=(200, 160)).astype(np.int64)
    lengths = np.full(200, 160, dtype=np.int64)
    i, j = np.triu_indices(10, k=1)
    sets = [rng.choice(200, 10, replace=False) for _ in range(213)]
    pa = np.concatenate([s[i] for s in sets])
    pb = np.concatenate([s[j] for s in sets])
    assert len(pa) >= 9000
    tracemalloc.start()
    try:
        kernels.lcs_lengths_pairs(tok, lengths, pa, pb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(pa) * 160 * 8, f"peak {peak} bytes"


def test_lcs_empty_pairs():
    tok, lengths = kernels.pack_token_matrix([[1, 2], [2, 1]])
    out = kernels.lcs_lengths_pairs(tok, lengths, np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert out.shape == (0,)


def test_pack_token_matrix_pads_with_minus_one():
    tok, lengths = kernels.pack_token_matrix([[3, 1], [2]])
    np.testing.assert_array_equal(lengths, [2, 1])
    np.testing.assert_array_equal(tok, [[3, 1], [2, -1]])


def _lexsort_top_k(z, k):
    """Indices of the k highest of each row, best first, ties to the smaller index, NaN last."""
    return [np.lexsort((np.arange(z.shape[1]), -row))[:k].tolist() for row in z]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.one_of(st.integers(min_value=1, max_value=7), st.integers(min_value=8, max_value=64)))
def test_top_k_equals_lexsort_with_ties_and_signed_zeros(data, n):
    # a row may tie across its k-th place, hold NaN or infinities, or have
    # k == n; rows of 8 to 64 draw k far below half a row as well as above it
    values = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 1.5, 3.0, np.inf, np.nan])
    z = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=5)))
    k = data.draw(st.integers(min_value=1, max_value=n))
    want = _lexsort_top_k(z, k)
    assert kernels.top_k(z, k).tolist() == want
    assert kernels.top_k(z[0], k).tolist() == want[0]
    assert kernels.top_k(z[None], k).tolist() == [want]


def test_top_k_sorts_only_the_candidates_of_rows_without_a_tie_at_k(monkeypatch):
    # every row is argsorted whole with numpy's default sort; rows 0 and 3 tie
    # inside their top k, row 1 ties across the k-th place and row 2 has a NaN
    # there, so all four are argsorted again, stably
    z = np.array([
        [0.5, 3.0, -1.0, 3.0, 0.0, 1.0],
        [0.5, 3.0, 2.0, 2.0, 0.0, 2.0],
        [np.nan, 3.0, np.nan, np.nan, np.nan, np.nan],
        [np.inf, -0.0, 0.0, -np.inf, np.nan, -2.0],
    ])
    k = 3
    calls = []
    argsort = np.argsort

    def top_k_calls(z, k):
        calls.clear()
        monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: calls.append((np.shape(a), kw.get("kind"))) or argsort(a, *args, **kw))
        got = kernels.top_k(z, k)
        monkeypatch.undo()
        return got

    got = top_k_calls(z, k)
    assert got.tolist() == _lexsort_top_k(z, k) == [[1, 3, 5], [1, 2, 3], [1, 0, 2], [0, 1, 2]]
    assert calls == [((4, 6), None), ((4, 6), "stable")]
    # the added row 4 has distinct values, so at k and past half a row alike
    # it alone keeps the default sort's order
    z = np.vstack([z, [0.5, 3.0, -1.0, 2.0, 0.0, 1.0]])
    got = top_k_calls(z, k)
    assert got.tolist() == _lexsort_top_k(z, k)
    assert calls == [((5, 6), None), ((4, 6), "stable")]
    got = top_k_calls(z, k + 1)
    assert got.tolist() == _lexsort_top_k(z, k + 1)
    assert calls == [((5, 6), None), ((4, 6), "stable")]


@pytest.mark.parametrize("n", [6, 7, 200])
def test_top_k_past_half_a_row_breaks_ties_by_index(n):
    # duplicates, signed zeros, infinities and NaNs past half a row: just
    # past it, n - 1, and n, where a row's k + 1 best are the whole row
    rng = np.random.default_rng(n)
    values = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 1.5, np.inf, np.nan])
    z = np.vstack([
        rng.choice(values, size=(40, n)),
        rng.choice(values[:-1], size=(20, n)),
        rng.choice([-0.0, 0.0], size=(5, n)),
        np.full((2, n), np.inf),
        np.full((2, n), np.nan),
        rng.normal(size=(20, n)),
        np.arange(n)[::-1] * np.ones((3, 1)),
    ])
    for k in (n // 2 + 1, n - 1, n):
        assert kernels.top_k(z, k).tolist() == _lexsort_top_k(z, k)


def test_pair_cosines_batch_matches_each_stack():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4, 5, 3))
    rows[2, 1] = 0.0
    unit, inv, cosines = kernels.pair_cosines(rows)
    assert cosines.shape == (4, 5, 5)
    for b in range(4):
        u, i, c = kernels.pair_cosines(rows[b])
        np.testing.assert_array_equal(unit[b], u)
        np.testing.assert_array_equal(inv[b], i)
        np.testing.assert_array_equal(cosines[b], c)
        np.testing.assert_array_equal(np.diag(c), 0.0)
    # a zero-norm row counts as similarity 0 with every other row
    assert inv[2, 1] == 0.0
    np.testing.assert_array_equal(cosines[2, 1], 0.0)
    np.testing.assert_array_equal(cosines[2, :, 1], 0.0)


def test_train_pass_ties_go_to_smaller_docids():
    bsz, kk = 6, 4
    params = init_model(9, 5, 12, 3)
    params.cls_w[:] = 0.0
    params.cls_b[:] = 0.0
    rng = Xoshiro256StarStar(8)
    tok, lengths = kernels.pack_token_matrix([[rng.randbelow(9) for _ in range(1 + i)] for i in range(bsz)])
    golds = np.arange(bsz, dtype=np.int64)
    for alpha in (0.0, 0.5):
        out = kernels.train_pass(*params.arrays(), tok, lengths, golds, kk, alpha, ModelParams.zeros(*params.dims))
        np.testing.assert_array_equal(out[3], np.tile(np.arange(kk), (bsz, 1)))
        assert out[2] == bsz * kk * (kk - 1) // 2
        assert out[1] == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_encode_one_row_matches_batch(seed):
    params = init_model(15, 6, 4, seed)
    rng = Xoshiro256StarStar(seed)
    seqs = [[rng.randbelow(15) for _ in range(1 + rng.randbelow(7))] for _ in range(5)]
    tok, lengths = kernels.pack_token_matrix(seqs)
    _, act = kernels.encode(params.embed, params.hidden_w, params.hidden_b, tok, lengths)
    for i, s in enumerate(seqs):
        row = np.array([s], dtype=np.int64)
        _, one = kernels.encode(params.embed, params.hidden_w, params.hidden_b, row, np.array([len(s)]))
        np.testing.assert_allclose(one[0], act[i], rtol=1e-12, atol=1e-15)


# magnitudes where a regrouped sum would round differently, overflow or flush
_SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 3e-300, 1e300, -1e300, 7e299, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-310, max_value=1e-290) | st.floats(min_value=1e290, max_value=1e300),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.lists(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6), min_size=1, max_size=5),
    st.data(),
)
def test_add_rows_at_equals_add_at_bit_for_bit(num_rows, d, queries, data):
    # ids are the tokens of padded queries, flattened as train_pass does, so an
    # id repeats within a query and across queries
    tok, lengths = kernels.pack_token_matrix([[t % num_rows for t in q] for q in queries])
    ids = tok[np.arange(tok.shape[1])[None, :] < lengths[:, None]]
    rows = np.array(data.draw(st.lists(st.lists(_SCATTER_VALUES, min_size=d, max_size=d),
                                       min_size=ids.size, max_size=ids.size)), dtype=np.float64)
    want = np.zeros((num_rows, d))
    got = np.zeros((num_rows, d))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(want, ids, rows)
        kernels.add_rows_at(got, ids, rows)
    assert got.tobytes() == want.tobytes()


def test_add_rows_at_leaves_other_rows_and_sums_in_input_order():
    out = np.full((4, 2), 7.0)
    out[[1, 3]] = 0.0
    rows = np.array([[1e16, 1.0], [1.0, -0.0], [-1e16, -0.0], [1.0, 2.0]])
    kernels.add_rows_at(out, np.array([3, 3, 3, 1]), rows)
    # (1e16 + 1) + -1e16 is 0 in sequence, though the exact sum is 1
    assert out.tolist() == [[7.0, 7.0], [1.0, 2.0], [7.0, 7.0], [0.0, 1.0]]
    assert not np.signbit(out[3, 0])


# starting values of out: a regrouped sum, or one that skips a term, would change their bits
_OUT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=12), min_size=1, max_size=6),
    st.data(),
)
def test_add_rows_at_onto_any_rows_equals_add_at_bit_for_bit(num_rows, d, queries, data):
    # train_pass's call form: one row per query, gathered for each of its tokens;
    # an id repeats within and across queries, up to 72 times in one call
    tok, lengths = kernels.pack_token_matrix([[t % num_rows for t in q] for q in queries])
    mask = np.arange(tok.shape[1])[None, :] < lengths[:, None]
    ids, src = tok[mask], np.nonzero(mask)[0]
    rows = np.array(data.draw(st.lists(st.lists(_SCATTER_VALUES, min_size=d, max_size=d),
                                       min_size=len(queries), max_size=len(queries))), dtype=np.float64)
    start = np.array(data.draw(st.lists(st.lists(_OUT_VALUES, min_size=d, max_size=d),
                                        min_size=num_rows, max_size=num_rows)), dtype=np.float64)
    want = start.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(want, ids, rows[src])
        got = start.copy()
        kernels.add_rows_at(got, ids, rows, src)
    assert got.tobytes() == want.tobytes()


def test_add_rows_at_one_id_throughout_a_batch():
    # every token of a 32 x 32 batch is id 0, as for queries of unknown words:
    # each flat index of row 0 repeats 1,024 times, and gets its terms added in order
    rng = np.random.default_rng(6)
    start = rng.normal(size=(5, 8))
    rows = rng.normal(size=(32, 8))
    src = np.repeat(np.arange(32), 32)
    want = start.copy()
    np.add.at(want, np.zeros(1024, np.int64), rows[src])
    got = start.copy()
    kernels.add_rows_at(got, np.zeros(1024, np.int64), rows, src)
    assert got.tobytes() == want.tobytes()
    kernels.add_rows_at(got, np.zeros(0, np.int64), rows)
    assert got.tobytes() == want.tobytes()


def test_add_rows_at_adds_onto_the_ce_gradient_in_order():
    # rows 1 and 2 of g_cw hold the CE gradient; the diversity rows of docids
    # 1 and 2 come in three top-K lists and are added onto it one at a time
    g_cw = np.array([[5.0, 5.0], [1e16, 1e16], [3.0, -0.0]])
    topk = np.array([[1, 2], [2, 1], [1, 2]])
    div_rows = np.array([[1.0, 1.0], [0.5, -0.0], [-0.0, -0.0], [-0.0, 1.0], [-1e16, -1e16], [0.25, -0.0]])
    kernels.add_rows_at(g_cw, topk.ravel(), div_rows)
    # (1e16 + 1) - 1e16 is 0 in sequence, though the exact sum is 1; in column 1
    # summing the diversity rows first would give 1e16 + (1 + 1 - 1e16) = 2
    assert g_cw.tolist() == [[5.0, 5.0], [0.0, 0.0], [3.75, 0.0]]
    assert np.signbit(g_cw[2, 1]) and not np.signbit(g_cw[1, 0])


@pytest.mark.parametrize("seed", range(3))
def test_encode_unpadded_batch_equals_padded_bytes(seed):
    # the same queries, once as they are and once with a padded column
    params = init_model(15, 6, 4, seed)
    rng = np.random.default_rng(seed)
    tok = rng.integers(0, 15, size=(5, 7))
    lengths = np.full(5, 7)
    padded = np.concatenate([tok, np.full((5, 1), -1)], axis=1)
    for got, want in zip(kernels.encode(params.embed, params.hidden_w, params.hidden_b, tok, lengths),
                         kernels.encode(params.embed, params.hidden_w, params.hidden_b, padded, lengths)):
        assert got.tobytes() == want.tobytes()
    # a ragged batch: each row pools to the bytes of its query encoded alone,
    # whatever value fills the cells past its length
    lengths = rng.integers(1, 9, size=6)
    tok = rng.integers(0, 15, size=(6, 8))
    for pad in (-1, 0, 14):
        ragged = np.where(np.arange(8)[None, :] < lengths[:, None], tok, pad)
        pooled, _ = kernels.encode(params.embed, params.hidden_w, params.hidden_b, ragged, lengths)
        for row, n in enumerate(lengths.tolist()):
            alone, _ = kernels.encode(params.embed, params.hidden_w, params.hidden_b, tok[row : row + 1, :n],
                                      np.array([n]))
            assert pooled[row].tobytes() == alone[0].tobytes()
