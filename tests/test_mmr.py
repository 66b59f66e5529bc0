import numpy as np
import pytest

from ddsi.errors import InvalidConfig, ZeroVector
from ddsi.mmr import MmrConfig, mmr_rerank, retrieve_then_rerank
from ddsi.model import cosine, encode_query, forward, init_model, top_k
from ddsi.rng import Xoshiro256StarStar

from oracles import oracle_mmr


def random_pool(seed, size, dim=4):
    rng = Xoshiro256StarStar(seed)
    return [(docid, np.array([rng.uniform(-1, 1) for _ in range(dim)])) for docid in range(size)]


def random_query(seed, dim=4):
    rng = Xoshiro256StarStar(seed * 31 + 7)
    return np.array([rng.uniform(-1, 1) for _ in range(dim)])


def test_lambda_one_is_pure_relevance_sort():
    pool = random_pool(1, 6)
    q = random_query(1)
    out = mmr_rerank(q, pool, MmrConfig(lambda_=1.0, m=6, pool=6))
    rels = sorted(((cosine(q, v), -d) for d, v in pool), reverse=True)
    assert out.docids() == [-d for _, d in rels]


def test_m_one_picks_most_similar():
    pool = random_pool(2, 5)
    q = random_query(2)
    out = mmr_rerank(q, pool, MmrConfig(lambda_=0.3, m=1, pool=5))
    best = max(pool, key=lambda c: (cosine(q, c[1]), -c[0]))
    assert out.docids() == [best[0]]


def test_lambda_zero_second_pick_minimizes_max_similarity():
    pool = random_pool(3, 6)
    q = random_query(3)
    out = mmr_rerank(q, pool, MmrConfig(lambda_=0.0, m=3, pool=6))
    first_vec = dict(pool)[out.docids()[0]]
    second = out.docids()[1]
    sims = {d: cosine(v, first_vec) for d, v in pool if d != out.docids()[0]}
    assert second == min(sims, key=lambda d: (sims[d], d))


def test_matches_bruteforce_oracle_small_pools():
    for seed in range(40):
        size = 2 + seed % 7  # pools of 2..8
        pool = random_pool(seed + 100, size)
        q = random_query(seed + 100)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            m = 1 + seed % size
            got = mmr_rerank(q, pool, MmrConfig(lambda_=lam, m=m, pool=size)).docids()
            want = oracle_mmr(q.tolist(), [(d, v.tolist()) for d, v in pool], lam, m)
            assert got == want, f"seed={seed} lam={lam} m={m}"


def test_duplicate_vectors_tie_break_low_docid():
    vec = np.array([1.0, 0.5, -0.25, 0.0])
    pool = [(3, vec.copy()), (1, vec.copy()), (2, vec.copy())]
    out = mmr_rerank(vec, pool, MmrConfig(lambda_=0.5, m=3, pool=3))
    assert out.docids() == [1, 2, 3]


def test_output_is_subset_of_input_of_size_m():
    pool = random_pool(9, 8)
    out = mmr_rerank(random_query(9), pool, MmrConfig(lambda_=0.5, m=5, pool=8))
    ids = out.docids()
    assert len(ids) == 5 == len(set(ids))
    assert set(ids) <= {d for d, _ in pool}


def test_m_equals_pool_is_permutation():
    pool = random_pool(10, 6)
    out = mmr_rerank(random_query(10), pool, MmrConfig(lambda_=0.5, m=6, pool=6))
    assert sorted(out.docids()) == [d for d, _ in pool]


def test_invalid_configs_rejected():
    pool = random_pool(11, 4)
    q = random_query(11)
    with pytest.raises(InvalidConfig):
        MmrConfig(lambda_=1.5, m=2, pool=4).validate()
    with pytest.raises(InvalidConfig):
        MmrConfig(lambda_=0.5, m=8, pool=4).validate()
    with pytest.raises(InvalidConfig):
        mmr_rerank(q, pool, MmrConfig(lambda_=0.5, m=8, pool=8))
    with pytest.raises(InvalidConfig):
        mmr_rerank(q, pool + [(0, q)], MmrConfig(lambda_=0.5, m=2, pool=5))


def test_zero_vectors_rejected():
    pool = random_pool(12, 4)
    pool[2] = (2, np.zeros(4))
    with pytest.raises(ZeroVector):
        mmr_rerank(random_query(12), pool, MmrConfig(lambda_=0.5, m=2, pool=4))
    with pytest.raises(ZeroVector):
        mmr_rerank(np.zeros(4), random_pool(13, 4), MmrConfig(lambda_=0.5, m=2, pool=4))


def test_tiny_candidate_relevance_stays_at_most_one():
    # squared norms of 1e-158-scaled rows underflow to subnormals unless
    # the vectors are rescaled first; unscaled, this relevance was 1.0000000102
    q = random_query(14)
    pool = [(0, q * 1e-158), (1, -q)]
    out = mmr_rerank(q, pool, MmrConfig(lambda_=1.0, m=2, pool=2))
    assert out.docids() == [0, 1]
    assert out.entries[0][1] == pytest.approx(1.0, abs=1e-15)
    assert out.entries[0][1] <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# retrieve_then_rerank
# ---------------------------------------------------------------------------


def normalized_model(seed, v=12, d=6, n=9):
    """Bias-free model with unit-norm classifier rows: logit order == cosine order."""
    p = init_model(v, d, n, seed)
    p.cls_b[:] = 0.0
    p.cls_w /= np.linalg.norm(p.cls_w, axis=1, keepdims=True)
    return p


def test_rerank_lambda_one_matches_topk_on_normalized_model():
    p = normalized_model(21)
    tokens = [1, 4, 7]
    cfg = MmrConfig(lambda_=1.0, m=6, pool=6)
    reranked = retrieve_then_rerank(p, tokens, cfg)
    expected = top_k(forward(p, tokens), 6)
    assert reranked.docids() == expected.docids()


def test_rerank_any_lambda_same_docid_set_as_topk():
    p = init_model(12, 6, 9, 22)
    tokens = [2, 3]
    cfg = MmrConfig(lambda_=0.25, m=5, pool=5)
    reranked = retrieve_then_rerank(p, tokens, cfg)
    expected = top_k(forward(p, tokens), 5)
    assert sorted(reranked.docids()) == sorted(expected.docids())


def test_rerank_full_pool_is_permutation_of_all_docids():
    p = init_model(12, 6, 9, 23)
    cfg = MmrConfig(lambda_=0.5, m=9, pool=9)
    out = retrieve_then_rerank(p, [5, 6], cfg)
    assert sorted(out.docids()) == list(range(9))


def test_rerank_pool_larger_than_corpus_rejected():
    from ddsi.errors import KOutOfRange

    p = init_model(12, 6, 9, 24)
    with pytest.raises(KOutOfRange):
        retrieve_then_rerank(p, [1], MmrConfig(lambda_=0.5, m=2, pool=10))


def test_rerank_encodes_each_query_once(monkeypatch):
    from ddsi import mmr

    p = init_model(12, 6, 9, 25)
    cfg = MmrConfig(lambda_=0.5, m=4, pool=7)
    queries = [[1, 2, 3], [4], [5, 5, 11]]
    # the plain two-step form: logits from forward(), the query vector encoded anew
    expected = []
    for tokens in queries:
        candidates = [(d, p.cls_w[d]) for d in top_k(forward(p, tokens), cfg.pool).docids()]
        expected.append(mmr_rerank(encode_query(p, tokens), candidates, cfg).entries)
    calls = []

    def counted(params, tokens):
        calls.append(list(tokens))
        return encode_query(params, tokens)

    monkeypatch.setattr(mmr, "encode_query", counted)
    got = [retrieve_then_rerank(p, tokens, cfg).entries for tokens in queries]
    assert calls == queries
    assert got == expected
