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

from .errors import InvalidConfig, ZeroVector
# forward is unused here but stays importable: perfbench/layers.py wraps mmr.forward by name
from .model import ModelParams, RankedList, encode_query, forward, rescale_exact, top_k  # noqa: F401


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


def mmr_rerank(query_vec, candidates: list[tuple[int, np.ndarray]], cfg: MmrConfig, qid: int = -1) -> RankedList:
    """Greedy MMR selection of cfg.m docids; ties go to the smaller docid."""
    cfg.validate()
    if cfg.m > len(candidates):
        raise InvalidConfig(f"m={cfg.m} exceeds candidate count {len(candidates)}")
    docids = np.array([d for d, _ in candidates], dtype=np.int64)
    if len(set(docids.tolist())) != len(docids):
        raise InvalidConfig("candidate docids must be distinct")

    q = rescale_exact(np.asarray(query_vec, dtype=np.float64))
    qn = np.linalg.norm(q)
    vecs = rescale_exact(np.array([v for _, v in candidates], dtype=np.float64))
    norms = np.linalg.norm(vecs, axis=1)
    if qn == 0.0 or (norms == 0.0).any():
        raise ZeroVector("MMR requires nonzero query and candidate vectors")
    unit = vecs / norms[:, None]
    rel = unit @ (q / qn)

    lam = cfg.lambda_
    # max-similarity-to-selected is 0 only while nothing is selected; once
    # R is non-empty the true max applies, which may be negative
    max_sim = None
    selected = np.zeros(len(candidates), dtype=bool)
    entries: list[tuple[int, float]] = []
    for _ in range(cfg.m):
        penalty = max_sim if max_sim is not None else np.zeros(len(candidates))
        scores = lam * rel - (1.0 - lam) * penalty
        scores[selected] = -np.inf
        best = int(np.lexsort((docids, -scores))[0])
        entries.append((int(docids[best]), float(scores[best])))
        selected[best] = True
        sims = unit @ unit[best]
        max_sim = sims if max_sim is None else np.maximum(max_sim, sims)
    return RankedList(qid=qid, entries=entries)


def retrieve_then_rerank(p: ModelParams, tokens, cfg: MmrConfig, qid: int = -1) -> RankedList:
    """Top-pool retrieval by logits, then MMR over classifier-row vectors.

    The query is encoded once; its logits are forward()'s expression.
    """
    cfg.validate()
    q = encode_query(p, tokens)
    pool = top_k(p.cls_w @ q + p.cls_b, cfg.pool)
    candidates = [(docid, p.cls_w[docid]) for docid in pool.docids()]
    return mmr_rerank(q, candidates, cfg, qid=qid)
