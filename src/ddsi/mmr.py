"""Maximal Marginal Relevance re-ranking over model scores.

This is the post-hoc diversification baseline: greedily pick the
candidate maximizing

    lambda * cos(candidate, query) - (1 - lambda) * max cos(candidate, selected)

with the max-over-selected term taken as 0 while nothing is selected
yet. Both similarities are cosine, under the rule training uses (see
kernels): a zero-norm query or candidate has cosine 0 with every vector.
Output order is the contract; the recorded scores are the MMR scores at
selection time and need not be monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidConfig
# encode_query, forward and top_k stay importable only because perfbench/layers.py wraps them by name
from .model import ModelParams, RankedList, encode_query, forward, pack_query_set, ranked_lists, score_blocks, top_k  # noqa: F401


# The greedy steps a group of about this many candidates (queries x pool) at
# once, so that the group's (queries, pool, d) candidate stack stays in L2
# cache: 20 queries at pool 100. No bit depends on the group size, since each
# query's products are its own.
GREEDY_CELLS = 2000
INT64_MAX = np.iinfo(np.int64).max


@dataclass
class MmrConfig:
    lambda_: float = 0.5
    m: int = 10
    pool: int = 50

    def validate(self) -> None:
        if not 0.0 <= self.lambda_ <= 1.0:
            raise InvalidConfig(f"lambda must be in [0, 1], got {self.lambda_}")
        if self.m < 1:
            raise InvalidConfig(f"m must be >= 1, got {self.m}")
        if self.pool < self.m:
            raise InvalidConfig(f"candidate pool ({self.pool}) smaller than m ({self.m})")


def _greedy(query_unit, docids, cand_unit, cfg: MmrConfig) -> tuple[np.ndarray, np.ndarray]:
    """Greedy MMR stepping a stack of queries together: (B, d) query vectors,
    (B, P) candidate docids in any order and their (B, P, d) vectors, all of
    unit or zero length, give the (B, m) picked docids and their MMR scores
    at selection time. Ties go to the smaller docid.

    lambda * relevance is formed once; a pick's entry of it becomes -inf, so
    the pick scores -inf at every later step. Each step's scores are two
    in-place ufuncs over the candidates, in pool order."""
    rows = np.arange(docids.shape[0])
    lam = cfg.lambda_
    lam_rel = lam * np.matmul(cand_unit, query_unit[:, :, None])[..., 0]
    # max-similarity-to-selected is 0 only while nothing is selected, then the true max, maybe negative
    max_sim = np.zeros(docids.shape)
    scores = np.empty(docids.shape)
    picked, picked_scores = [], []
    for step in range(cfg.m):
        np.subtract(lam_rel, np.multiply(max_sim, 1.0 - lam, out=scores), out=scores)
        best_score = scores.max(axis=1, keepdims=True)
        best = np.where(scores == best_score, docids, INT64_MAX).argmin(axis=1)
        picked.append(docids[rows, best])
        picked_scores.append(best_score[:, 0])
        lam_rel[rows, best] = -np.inf
        if step == cfg.m - 1:
            break  # no pick is left to score against this one
        sims = np.matmul(cand_unit, cand_unit[rows, best][:, :, None])[..., 0]
        max_sim = sims if step == 0 else np.maximum(max_sim, sims, out=max_sim)
    return np.stack(picked, axis=1), np.stack(picked_scores, axis=1)


def mmr_rerank(query_vec, candidates: list[tuple[int, np.ndarray]], cfg: MmrConfig, qid: int = -1) -> RankedList:
    """Greedy MMR selection of cfg.m docids for one query; ties go to the smaller docid."""
    cfg.validate()
    if cfg.m > len(candidates):
        raise InvalidConfig(f"m={cfg.m} exceeds candidate count {len(candidates)}")
    docids = np.array([d for d, _ in candidates], dtype=np.int64)
    if len(set(docids.tolist())) != len(docids):
        raise InvalidConfig("candidate docids must be distinct")
    vecs = kernels.unit_rows(np.array([v for _, v in candidates], dtype=np.float64))
    return ranked_lists([qid], *_greedy(kernels.unit_rows(query_vec)[None], docids[None], vecs[None], cfg))[0]


def retrieve_then_rerank(p: ModelParams, queries, cfg: MmrConfig) -> list[RankedList]:
    """Top-pool retrieval by logits, as in eval, then MMR over classifier-row
    vectors, for every query; each block of queries is reranked in groups
    of about GREEDY_CELLS candidates."""
    cfg.validate()
    tok, lengths, _ = pack_query_set(p, queries)
    doc_units = kernels.unit_rows(p.cls_w)
    group = max(1, GREEDY_CELLS // cfg.pool)
    rankings = []
    for block, act, logits in score_blocks(p, tok, lengths):
        pool = kernels.top_k(logits, cfg.pool)
        units = kernels.unit_rows(act)
        qids = [q.qid for q in queries[block]]
        for g in range(0, len(qids), group):
            at = slice(g, g + group)
            rankings += ranked_lists(qids[at], *_greedy(units[at], pool[at], doc_units.take(pool[at], axis=0), cfg))
    return rankings
