import numpy as np
import pytest

from ddsi import kernels
from ddsi.model import ModelParams, init_model
from ddsi.rng import Xoshiro256StarStar

from oracles import oracle_lcs


def test_lcs_matches_oracle():
    rng = Xoshiro256StarStar(5)
    # short rows plus rows on either side of one, two and three 64-token words
    lens = [1 + rng.randbelow(20) for _ in range(6)] + [63, 64, 65, 127, 128, 129, 160]
    seqs = [[rng.randbelow(6) for _ in range(n)] for n in lens]
    tok, lengths = kernels.pack_token_matrix(seqs)
    pa, pb = np.triu_indices(len(seqs), k=1)
    out = kernels.lcs_lengths_pairs(tok, lengths, pa, pb)
    for value, i, j in zip(out, pa, pb):
        assert value == oracle_lcs(seqs[i], seqs[j])


def test_lcs_empty_pairs():
    tok, lengths = kernels.pack_token_matrix([[1, 2], [2, 1]])
    out = kernels.lcs_lengths_pairs(tok, lengths, np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert out.shape == (0,)


def test_pack_token_matrix_pads_with_minus_one():
    tok, lengths = kernels.pack_token_matrix([[3, 1], [2]])
    np.testing.assert_array_equal(lengths, [2, 1])
    np.testing.assert_array_equal(tok, [[3, 1], [2, -1]])


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
