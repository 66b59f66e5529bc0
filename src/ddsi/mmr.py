"""Maximal Marginal Relevance re-ranking over model scores.

This is the post-hoc diversification baseline: greedily pick the
candidate maximizing

    lambda * cos(candidate, query) - (1 - lambda) * max cos(candidate, selected)

with the max-over-selected term taken as 0 while nothing is selected
yet. Both similarities are cosine. Output order is the contract; the
recorded scores are the MMR scores at selection time and need not be
monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidConfig, ZeroVector
# encode_query, forward and top_k stay importable only because perfbench/layers.py wraps them by name
from .model import ModelParams, RankedList, encode_query, forward, pack_queries, ranked_lists, score_blocks, top_k, unit_rows  # noqa: F401


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
    """Greedy MMR stepping a stack of queries together: (B, d) unit query
    vectors, (B, P) candidate docids in any order and their (B, P, d) unit
    vectors give the (B, m) picked docids and their MMR scores at selection
    time. Ties go to the smaller docid."""
    if not (query_unit.any(axis=-1).all() and cand_unit.any(axis=-1).all()):
        raise ZeroVector("MMR requires nonzero query and candidate vectors")
    rows = np.arange(docids.shape[0])
    rel = np.matmul(cand_unit, query_unit[:, :, None])[..., 0]
    lam = cfg.lambda_
    # max-similarity-to-selected is 0 only while nothing is selected, then the true max, maybe negative
    max_sim = np.zeros(docids.shape)
    selected = np.zeros(docids.shape, dtype=bool)
    picked, picked_scores = [], []
    for step in range(cfg.m):
        scores = lam * rel - (1.0 - lam) * max_sim
        scores[selected] = -np.inf
        best_score = scores.max(axis=1, keepdims=True)
        best = np.where(scores == best_score, docids, np.iinfo(np.int64).max).argmin(axis=1)
        picked.append(docids[rows, best])
        picked_scores.append(best_score[:, 0])
        selected[rows, best] = True
        sims = np.matmul(cand_unit, cand_unit[rows, best][:, :, None])[..., 0]
        max_sim = sims if step == 0 else np.maximum(max_sim, sims)
    return np.stack(picked, axis=1), np.stack(picked_scores, axis=1)


def mmr_rerank(query_vec, candidates: list[tuple[int, np.ndarray]], cfg: MmrConfig, qid: int = -1) -> RankedList:
    """Greedy MMR selection of cfg.m docids for one query; ties go to the smaller docid."""
    cfg.validate()
    if cfg.m > len(candidates):
        raise InvalidConfig(f"m={cfg.m} exceeds candidate count {len(candidates)}")
    docids = np.array([d for d, _ in candidates], dtype=np.int64)
    if len(set(docids.tolist())) != len(docids):
        raise InvalidConfig("candidate docids must be distinct")
    vecs = unit_rows(np.array([v for _, v in candidates], dtype=np.float64))
    return ranked_lists([qid], *_greedy(unit_rows(query_vec)[None], docids[None], vecs[None], cfg))[0]


def retrieve_then_rerank(p: ModelParams, queries, cfg: MmrConfig) -> list[RankedList]:
    """Top-pool retrieval by logits, as in eval, then MMR over classifier-row
    vectors, for every query; each block of queries is reranked together."""
    cfg.validate()
    tok, lengths = pack_queries([q.tokens for q in queries], p.vocab_size)
    doc_units = unit_rows(p.cls_w)
    rankings = []
    for block, act, logits in score_blocks(p, tok, lengths):
        pool = kernels.top_k(logits, cfg.pool)
        rankings += ranked_lists([q.qid for q in queries[block]], *_greedy(unit_rows(act), pool, doc_units[pool], cfg))
    return rankings
