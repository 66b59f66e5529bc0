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


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.5, 3.0]), min_size=6, max_size=6),
        min_size=1, max_size=5,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_top_k_equals_lexsort_with_ties_and_signed_zeros(rows, k):
    z = np.array(rows)
    want = [np.lexsort((np.arange(z.shape[1]), -row))[:k].tolist() for row in z]
    assert kernels.top_k(z, k).tolist() == want
    assert kernels.top_k(z[0], k).tolist() == want[0]


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
