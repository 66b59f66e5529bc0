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
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import Corpus, QueryExample
from .errors import InvalidConfig, NonFiniteGradient, ShapeMismatch
from .fileio import atomic_open
from .helper import Helper
# batch_logits stays importable only because perfbench/layers.py wraps it by name
from .model import ModelParams, batch_logits, float32_values, init_model, pack_query_set, score_blocks  # noqa: F401
from .rng import Xoshiro256StarStar, mix_seed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam updates the parameters in slices of this many floats: the six
# 256 KB slices it touches at once stay in a 2 MB L2 cache
ADAM_BLOCK = 1 << 15
# From this many parameters on, train() shares each Adam step with one
# helper thread (see step). Below it, the two threads hand the GIL to
# each other more often than the second core saves: every split measured at
# 87,624 parameters lost or tied.
ADAM_SPLIT_MIN = 4 * ADAM_BLOCK

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
        if not 0.0 < self.lr < math.inf:
            raise InvalidConfig(f"lr must be finite and > 0, got {self.lr}")
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
    total: float
    selected_topk: np.ndarray | tuple = ()  # (B, K) top-K docids; () at alpha == 1


@dataclass
class EpochStats:
    epoch: int
    ce: float
    diversity: float
    total: float
    train_hits1: float


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


def _mix(ce: float, div: float, alpha: float) -> float:
    """The loss alpha * CE + (1 - alpha) * D; CE alone at alpha == 1, where D is never computed."""
    return ce if alpha == 1.0 else alpha * ce + (1.0 - alpha) * div


def _run_pass(p: ModelParams, tok: np.ndarray, lengths: np.ndarray, golds: np.ndarray, cfg: TrainConfig,
              grads: ModelParams) -> LossBreakdown:
    """The one batch step: one batch of checked, packed queries through
    kernels.train_pass, with grads zeroed first and left holding the batch's
    gradients; raises NonFiniteGradient if the loss or a gradient is not finite."""
    grads.flat.fill(0.0)
    ce_sum, div_sum, pair_evals, topk = kernels.train_pass(
        *p.arrays(), tok, lengths, golds, cfg.k, cfg.alpha, grads,
    )
    _count_pairs(int(pair_evals))
    bsz = tok.shape[0]
    ce, div = ce_sum / bsz, div_sum / bsz
    total = _mix(ce, div, cfg.alpha)
    if not math.isfinite(total):
        raise NonFiniteGradient("loss is not finite")
    if not np.isfinite(grads.flat).all():
        raise NonFiniteGradient("gradient is not finite")
    return LossBreakdown(ce=ce, diversity=div, total=total, selected_topk=topk)


def backward(p: ModelParams, batch: list[QueryExample], cfg: TrainConfig) -> tuple[LossBreakdown, ModelParams]:
    """Loss and its gradients, laid out as parameters."""
    cfg.validate()
    grads = ModelParams.zeros(*p.dims)
    return _run_pass(p, *pack_query_set(p, batch), cfg, grads), grads


@dataclass
class OptimizerState:
    kind: str
    step_count: int = 0
    m: np.ndarray | None = None  # Adam moments, laid out like ModelParams.flat
    v: np.ndarray | None = None
    chunks: list[tuple[int, int]] | None = None  # Adam's [lo, hi) slices of the flat vector
    # Adam's work slices, a pair for the caller and a pair for a helper
    # thread, so that a step allocates nothing
    scratch: tuple[tuple[np.ndarray, np.ndarray], ...] = ()


def init_optimizer_state(p: ModelParams, cfg: TrainConfig) -> OptimizerState:
    state = OptimizerState(kind=cfg.optimizer)
    if cfg.optimizer == "adam":
        state.m = np.zeros_like(p.flat)
        state.v = np.zeros_like(p.flat)
        # equal chunks of at most ADAM_BLOCK floats
        size = p.flat.size
        count = -(-size // ADAM_BLOCK)
        state.chunks = [(size * i // count, size * (i + 1) // count) for i in range(count)]
        width = -(-size // count)
        state.scratch = tuple((np.empty(width), np.empty(width)) for _ in range(2))
    return state


def _adam_chunks(chunks, m: np.ndarray, v: np.ndarray, g: np.ndarray, p: np.ndarray, lr: float, bc1: float,
                 bc2: float, scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """Adam's update of p, m and v in place over each [lo, hi) of chunks:
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time."""
    for lo, hi in chunks:
        mb, vb, gb, pb = m[lo:hi], v[lo:hi], g[lo:hi], p[lo:hi]
        a, b = (w[: pb.size] for w in scratch)
        mb *= ADAM_BETA1
        mb += np.multiply(gb, 1.0 - ADAM_BETA1, out=a)
        vb *= ADAM_BETA2
        np.multiply(gb, 1.0 - ADAM_BETA2, out=a)
        vb += np.multiply(a, gb, out=a)
        np.divide(mb, bc1, out=a)
        a *= lr
        np.divide(vb, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        pb -= a


def step(p: ModelParams, g: ModelParams, state: OptimizerState, cfg: TrainConfig,
         helper: Helper | None = None) -> ModelParams:
    """Apply one optimizer update in place and return the params.

    With a helper, Adam shares its chunks with the helper thread, which
    claims them from the front, embedding rows, while the caller claims
    them from the back, so that it writes first the hidden and classifier
    tail that the next training pass reads. numpy releases the GIL inside
    each ufunc, so the two threads update chunks at once, and each element
    goes through the same operations as without a helper: the bytes are
    the same.
    """
    if g.dims != p.dims:
        raise ShapeMismatch(f"gradient dims {g.dims} != param dims {p.dims}")
    if state.kind == "sgd":
        p.flat -= cfg.lr * g.flat
    elif state.kind == "adam":
        state.step_count += 1
        t = state.step_count
        args = (state.m, state.v, g.flat, p.flat, cfg.lr, 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)
        chunks, (mine, theirs) = state.chunks, state.scratch
        if helper is None:
            _adam_chunks(chunks, *args, mine)
        else:
            def job(claimed):
                _adam_chunks(map(chunks.__getitem__, claimed), *args, theirs)

            with helper.share(len(chunks), job) as claimed:
                _adam_chunks(map(chunks.__getitem__, claimed), *args, mine)
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
    params = init_model(corpus.vocab.size, cfg.dim, corpus.num_docs, cfg.seed)
    state = init_optimizer_state(params, cfg)
    tok_all, lengths_all, golds_all = pack_query_set(params, queries)
    grads = ModelParams.zeros(*params.dims)

    history: list[EpochStats] = []
    num = len(queries)
    split = state.kind == "adam" and params.flat.size >= ADAM_SPLIT_MIN
    with Helper("adam-helper") if split else nullcontext() as helper:
        for epoch in range(cfg.epochs):
            order = list(range(num))
            Xoshiro256StarStar(mix_seed(cfg.seed, epoch)).shuffle(order)
            order = np.array(order, dtype=np.int64)
            ce_sum = 0.0
            div_sum = 0.0
            for start in range(0, num, cfg.batch_size):
                chunk = order[start : start + cfg.batch_size]
                lengths = lengths_all[chunk]
                # the same matrix pack_queries builds for this batch alone
                tok = tok_all[chunk, : lengths.max()]
                try:
                    breakdown = _run_pass(params, tok, lengths, golds_all[chunk], cfg, grads)
                except NonFiniteGradient as e:
                    raise NonFiniteGradient(f"epoch {epoch} batch {start // cfg.batch_size}: {e}") from e
                step(params, grads, state, cfg, helper)
                ce_sum += breakdown.ce * len(chunk)
                div_sum += breakdown.diversity * len(chunk)
            # parameters a checkpoint cannot hold stop the run here, not after the last epoch
            float32_values(params, f"epoch {epoch}")
            ce, div = ce_sum / num, div_sum / num
            hits1 = _train_hits1(params, tok_all, lengths_all, golds_all)
            history.append(EpochStats(epoch=epoch, ce=ce, diversity=div, total=_mix(ce, div, cfg.alpha),
                                      train_hits1=hits1))
    return params, history


def write_history(history: list[EpochStats], path) -> None:
    with atomic_open(path) as f:
        f.write("epoch\tce\tdiversity\ttotal\ttrain_hits1\n")
        for row in history:
            f.write(
                f"{row.epoch}\t{row.ce:.17g}\t{row.diversity:.17g}\t{row.total:.17g}\t{row.train_hits1:.17g}\n"
            )
