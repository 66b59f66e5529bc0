"""Combined relevance + diversity loss, exact gradients, training loop.

The per-batch loss is alpha * CE + (1 - alpha) * D, where CE is one-hot
cross-entropy over docids and D is the mean pairwise cosine similarity
among the classifier rows of each example's top-K predicted docids
(batch-averaged). At alpha == 1 the diversity machinery is skipped
outright, not multiplied by zero; a module-level counter of cosine pair
evaluations exists so that skip is checkable.

Gradients are exact for the loss as defined: the discrete top-K
selection is held constant, so the diversity term reaches only the
selected classifier rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import Corpus, QueryExample
from .errors import (
    GoldOutOfRange,
    InvalidConfig,
    NonFiniteGradient,
    ShapeMismatch,
)
# batch_logits stays importable only because perfbench/layers.py wraps it by name
from .model import ModelParams, batch_logits, init_model, pack_queries, score_blocks  # noqa: F401
from .rng import Xoshiro256StarStar, mix_seed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# cosine pair evaluations performed by the diversity path since the last
# reset; stays at 0 through an alpha == 1 run
_diversity_pair_evals = 0


def diversity_pair_evals() -> int:
    return _diversity_pair_evals


def reset_diversity_pair_evals() -> None:
    global _diversity_pair_evals
    _diversity_pair_evals = 0


def _count_pairs(n: int) -> None:
    global _diversity_pair_evals
    _diversity_pair_evals += n


@dataclass
class TrainConfig:
    alpha: float = 1.0
    k: int = 10
    lr: float = 3e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 7
    optimizer: str = "adam"
    dim: int = 64

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfig(f"alpha must be in [0, 1], got {self.alpha}")
        if self.k < 2:
            raise InvalidConfig(f"K must be >= 2, got {self.k}")
        if self.lr <= 0.0:
            raise InvalidConfig(f"lr must be > 0, got {self.lr}")
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidConfig(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        if self.dim < 1:
            raise InvalidConfig(f"dim must be >= 1, got {self.dim}")


@dataclass
class LossBreakdown:
    ce: float
    diversity: float
    alpha: float
    total: float
    selected_topk: tuple[tuple[int, ...], ...] = ()


@dataclass
class EpochStats:
    epoch: int
    ce: float
    diversity: float
    total: float
    train_hits1: float


def cross_entropy(probs, gold: int) -> float:
    """-log(probs[gold]) with the probability floored at 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    if not 0 <= gold < p.shape[0]:
        raise GoldOutOfRange(f"gold docid {gold} outside [0, {p.shape[0]})")
    return float(-math.log(max(float(p[gold]), kernels.PROB_FLOOR)))


def diversity_term(p: ModelParams, topk) -> float:
    """Mean pairwise cosine among the classifier rows of the given docids.

    A zero-norm row makes its pairs contribute similarity 0, mirroring
    the gradient policy.
    """
    sel = list(topk)
    kk = len(sel)
    if kk < 2:
        raise InvalidConfig(f"diversity needs K >= 2, got {kk}")
    if len(set(sel)) != kk:
        raise InvalidConfig("top-K docids must be distinct")
    _, _, cosines = kernels.pair_cosines(p.cls_w[np.asarray(sel, dtype=np.int64)])
    npairs = kk * (kk - 1) // 2
    _count_pairs(npairs)
    return float(cosines.sum()) / 2.0 / npairs


def _run_pass(p: ModelParams, batch: list[QueryExample], cfg: TrainConfig):
    if not batch:
        raise InvalidConfig("batch must be non-empty")
    tok, lengths = pack_queries([q.tokens for q in batch], p.vocab_size)
    golds = np.array([q.gold_docid for q in batch], dtype=np.int64)
    n = p.num_docs
    if golds.min() < 0 or golds.max() >= n:
        raise GoldOutOfRange(f"gold docid outside [0, {n})")
    if cfg.k > n:
        raise InvalidConfig(f"K={cfg.k} exceeds corpus size {n}")
    grads = ModelParams.zeros(*p.dims)
    ce_sum, div_sum, pair_evals, topk = kernels.train_pass(
        *p.arrays(), tok, lengths, golds, cfg.k, cfg.alpha, grads,
    )
    _count_pairs(int(pair_evals))
    bsz = len(batch)
    ce = ce_sum / bsz
    if cfg.alpha == 1.0:
        breakdown = LossBreakdown(ce=ce, diversity=0.0, alpha=cfg.alpha, total=ce, selected_topk=())
    else:
        div = div_sum / bsz
        total = cfg.alpha * ce + (1.0 - cfg.alpha) * div
        selected = tuple(tuple(int(d) for d in row) for row in topk)
        breakdown = LossBreakdown(ce=ce, diversity=div, alpha=cfg.alpha, total=total, selected_topk=selected)
    return breakdown, grads


def total_loss(p: ModelParams, batch: list[QueryExample], cfg: TrainConfig) -> LossBreakdown:
    cfg.validate()
    breakdown, _ = _run_pass(p, batch, cfg)
    return breakdown


def backward(p: ModelParams, batch: list[QueryExample], cfg: TrainConfig) -> tuple[LossBreakdown, ModelParams]:
    """Loss and its gradients, laid out as parameters."""
    cfg.validate()
    breakdown, grads = _run_pass(p, batch, cfg)
    if not math.isfinite(breakdown.total):
        raise NonFiniteGradient("loss is not finite")
    if not np.isfinite(grads.flat).all():
        raise NonFiniteGradient("gradient is not finite")
    return breakdown, grads


@dataclass
class OptimizerState:
    kind: str
    step_count: int = 0
    m: np.ndarray | None = None  # Adam moments, laid out like ModelParams.flat
    v: np.ndarray | None = None


def init_optimizer_state(p: ModelParams, cfg: TrainConfig) -> OptimizerState:
    state = OptimizerState(kind=cfg.optimizer)
    if cfg.optimizer == "adam":
        state.m = np.zeros_like(p.flat)
        state.v = np.zeros_like(p.flat)
    return state


def step(p: ModelParams, g: ModelParams, state: OptimizerState, cfg: TrainConfig) -> ModelParams:
    """Apply one optimizer update in place and return the params."""
    if g.dims != p.dims:
        raise ShapeMismatch(f"gradient dims {g.dims} != param dims {p.dims}")
    if state.kind == "sgd":
        p.flat -= cfg.lr * g.flat
    elif state.kind == "adam":
        state.step_count += 1
        t = state.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        m, v = state.m, state.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g.flat
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g.flat * g.flat
        p.flat -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    else:
        raise InvalidConfig(f"unknown optimizer {state.kind!r}")
    return p


def _train_hits1(p: ModelParams, tok: np.ndarray, lengths: np.ndarray, golds: np.ndarray) -> float:
    """Hits@1 over all training queries, scored in blocks (model.QUERY_BLOCK)
    so that the logits stay small."""
    hits = 0
    for block, _, logits in score_blocks(p, tok, lengths):
        hits += int((logits.argmax(axis=1) == golds[block]).sum())
    return hits / tok.shape[0]


def train(corpus: Corpus, queries: list[QueryExample], cfg: TrainConfig) -> tuple[ModelParams, list[EpochStats]]:
    """Run the full optimization; deterministic in (corpus, queries, cfg)."""
    cfg.validate()
    if corpus.num_docs == 0 or not queries:
        raise InvalidConfig("corpus and query set must be non-empty")
    if cfg.k > corpus.num_docs:
        raise InvalidConfig(f"K={cfg.k} exceeds corpus size {corpus.num_docs}")

    params = init_model(corpus.vocab.size, cfg.dim, corpus.num_docs, cfg.seed)
    state = init_optimizer_state(params, cfg)
    tok_all, lengths_all = pack_queries([q.tokens for q in queries], params.vocab_size)
    golds_all = np.array([q.gold_docid for q in queries], dtype=np.int64)

    history: list[EpochStats] = []
    num = len(queries)
    for epoch in range(cfg.epochs):
        order = list(range(num))
        Xoshiro256StarStar(mix_seed(cfg.seed, epoch)).shuffle(order)
        ce_sum = 0.0
        div_sum = 0.0
        for start in range(0, num, cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            batch = [queries[i] for i in chunk]
            try:
                breakdown, grads = backward(params, batch, cfg)
            except NonFiniteGradient as e:
                raise NonFiniteGradient(f"epoch {epoch} batch {start // cfg.batch_size}: {e}") from e
            step(params, grads, state, cfg)
            ce_sum += breakdown.ce * len(chunk)
            div_sum += breakdown.diversity * len(chunk)
        ce = ce_sum / num
        div = div_sum / num
        total = ce if cfg.alpha == 1.0 else cfg.alpha * ce + (1.0 - cfg.alpha) * div
        hits1 = _train_hits1(params, tok_all, lengths_all, golds_all)
        history.append(EpochStats(epoch=epoch, ce=ce, diversity=div, total=total, train_hits1=hits1))
    return params, history


def write_history(history: list[EpochStats], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("epoch\tce\tdiversity\ttotal\ttrain_hits1\n")
        for row in history:
            f.write(
                f"{row.epoch}\t{row.ce:.17g}\t{row.diversity:.17g}\t{row.total:.17g}\t{row.train_hits1:.17g}\n"
            )
