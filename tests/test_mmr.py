import numpy as np
import pytest

from ddsi.corpus import QueryExample
from ddsi.errors import InvalidConfig
from ddsi.mmr import MmrConfig, mmr_rerank, retrieve_then_rerank
from ddsi.model import QUERY_BLOCK, cosine, encode_query, forward, init_model, top_k
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


def test_zero_vectors_score_zero():
    # a zero query or candidate has cosine 0 with every vector, as in training
    pool = random_pool(12, 5)
    pool[2] = (2, np.zeros(4))
    zeros = [(d, np.zeros(4)) for d in range(4)]
    cases = [(random_query(12), pool), (np.zeros(4), random_pool(13, 5)), (np.zeros(4), pool), (random_query(13), zeros)]
    for q, cands in cases:
        for lam in (0.0, 0.25, 0.5, 1.0):
            got = mmr_rerank(q, cands, MmrConfig(lambda_=lam, m=len(cands), pool=len(cands))).docids()
            assert got == oracle_mmr(q.tolist(), [(d, v.tolist()) for d, v in cands], lam, len(cands)), lam


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


def queries_of(token_lists):
    return [QueryExample(qid=i, tokens=list(tokens), gold_docid=0) for i, tokens in enumerate(token_lists)]


def random_token_lists(seed, num, v=12):
    rng = Xoshiro256StarStar(seed)
    return [[rng.randbelow(v) for _ in range(1 + rng.randbelow(6))] for _ in range(num)]


def test_rerank_lambda_one_matches_topk_on_normalized_model():
    p = normalized_model(21)
    token_lists = [[1, 4, 7], [2], [0, 11, 11, 3], [5, 6]]
    cfg = MmrConfig(lambda_=1.0, m=6, pool=6)
    reranked = retrieve_then_rerank(p, queries_of(token_lists), cfg).rankings
    assert [r.qid for r in reranked] == [0, 1, 2, 3]
    assert [r.docids() for r in reranked] == [top_k(forward(p, tokens), 6).docids() for tokens in token_lists]


def test_rerank_any_lambda_same_docid_set_as_topk():
    p = init_model(12, 6, 9, 22)
    token_lists = [[2, 3], [7], [1, 1, 10]]
    cfg = MmrConfig(lambda_=0.25, m=5, pool=5)
    reranked = retrieve_then_rerank(p, queries_of(token_lists), cfg).rankings
    for got, tokens in zip(reranked, token_lists):
        assert sorted(got.docids()) == sorted(top_k(forward(p, tokens), 5).docids())


def test_rerank_full_pool_is_permutation_of_all_docids():
    p = init_model(12, 6, 9, 23)
    cfg = MmrConfig(lambda_=0.5, m=9, pool=9)
    for out in retrieve_then_rerank(p, queries_of([[5, 6], [0], [3, 9, 9]]), cfg).rankings:
        assert sorted(out.docids()) == list(range(9))


def test_rerank_pool_larger_than_corpus_rejected():
    from ddsi.errors import KOutOfRange

    p = init_model(12, 6, 9, 24)
    with pytest.raises(KOutOfRange):
        retrieve_then_rerank(p, queries_of([[1], [2, 3]]), MmrConfig(lambda_=0.5, m=2, pool=10))


def test_rerank_encodes_each_query_once(monkeypatch):
    from ddsi import kernels

    p = init_model(12, 6, 9, 25)
    cfg = MmrConfig(lambda_=0.5, m=4, pool=7)
    token_lists = random_token_lists(25, 2 * QUERY_BLOCK + 5)
    # the plain two-step form: logits from forward(), the query vector encoded anew
    expected = []
    for tokens in token_lists:
        candidates = [(d, p.cls_w[d]) for d in top_k(forward(p, tokens), cfg.pool).docids()]
        expected.append(mmr_rerank(encode_query(p, tokens), candidates, cfg).entries)
    rows = []
    encode = kernels.encode

    def counted(embed, hidden_w, hidden_b, tok, lengths):
        rows.append(tok.shape[0])
        return encode(embed, hidden_w, hidden_b, tok, lengths)

    monkeypatch.setattr(kernels, "encode", counted)
    got = [r.entries for r in retrieve_then_rerank(p, queries_of(token_lists), cfg).rankings]
    # one encode per block, every query in exactly one block
    assert len(rows) == len(token_lists) // QUERY_BLOCK == 2
    assert sum(rows) == len(token_lists)
    # a batched encode may sum in another order than a one-row encode
    assert [[d for d, _ in e] for e in got] == [[d for d, _ in e] for e in expected]
    for e, w in zip(got, expected):
        assert [s for _, s in e] == pytest.approx([s for _, s in w], abs=1e-12)


def test_rerank_across_blocks_matches_each_query_alone():
    p = init_model(30, 8, 40, 26)
    cfg = MmrConfig(lambda_=0.5, m=5, pool=12)
    token_lists = random_token_lists(26, 3 * QUERY_BLOCK + 7, v=30)
    assert len(token_lists) // QUERY_BLOCK == 3
    together = retrieve_then_rerank(p, queries_of(token_lists), cfg).rankings
    assert [r.qid for r in together] == list(range(len(token_lists)))
    for i, (got, tokens) in enumerate(zip(together, token_lists)):
        (alone,) = retrieve_then_rerank(p, [QueryExample(qid=i, tokens=tokens, gold_docid=0)], cfg).rankings
        assert got.docids() == alone.docids()
