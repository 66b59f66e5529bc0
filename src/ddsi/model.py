"""Query encoder and docid classifier.

A query is mean-pooled token embeddings pushed through one tanh affine
layer; scoring is a linear classifier whose row i doubles as the learned
representation of docid i. Parameter shapes are a pure function of
(V, d, N), so models trained under any loss mix are byte-compatible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    CheckpointVersionMismatch,
    EmptyQuery,
    InvalidDims,
    TokenOutOfRange,
    ZeroVector,
)
from .rng import Xoshiro256StarStar

CHECKPOINT_MAGIC = b"DDSI"
CHECKPOINT_VERSION = 1


def param_shapes(v: int, d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of embed, hidden_w, hidden_b, cls_w, cls_b, in checkpoint order."""
    return ((v, d), (d, d), (d,), (n, d), (n,))


def flat_size(v: int, d: int, n: int) -> int:
    """Length of the flat parameter vector for dims (V, d, N)."""
    return sum(math.prod(s) for s in param_shapes(v, d, n))


class ModelParams:
    """All parameters as one flat float64 vector `flat`, in checkpoint order.

    embed, hidden_w, hidden_b, cls_w and cls_b are reshaped views into
    `flat`: writes through either are seen by both. Gradients share this
    layout, so the optimizer and the checkpoint work on `flat` whole.
    """

    def __init__(self, flat: np.ndarray, v: int, d: int, n: int):
        if flat.dtype != np.float64 or flat.shape != (flat_size(v, d, n),):
            raise InvalidDims(f"flat parameters {flat.dtype}{flat.shape} do not fit dims V={v} d={d} N={n}")
        self.flat = flat
        self.dims = (v, d, n)
        views = []
        start = 0
        for shape in param_shapes(v, d, n):
            end = start + math.prod(shape)
            views.append(flat[start:end].reshape(shape))
            start = end
        self.embed, self.hidden_w, self.hidden_b, self.cls_w, self.cls_b = views

    @classmethod
    def zeros(cls, v: int, d: int, n: int) -> "ModelParams":
        return cls(np.zeros(flat_size(v, d, n)), v, d, n)

    @property
    def vocab_size(self) -> int:
        return self.dims[0]

    @property
    def dim(self) -> int:
        return self.dims[1]

    @property
    def num_docs(self) -> int:
        return self.dims[2]

    def param_count(self) -> int:
        return self.flat.size

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Parameter arrays in canonical (checkpoint) order."""
        return (self.embed, self.hidden_w, self.hidden_b, self.cls_w, self.cls_b)

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), *self.dims)


@dataclass
class RankedList:
    """Docids with scores for one query, best first."""

    qid: int
    entries: list[tuple[int, float]] = field(default_factory=list)

    def docids(self) -> list[int]:
        return [d for d, _ in self.entries]


def ranked_lists(qids, docids: np.ndarray, scores: np.ndarray) -> list[RankedList]:
    """One RankedList per qid from rows of (queries, depth) docids and scores."""
    return [RankedList(qid, list(zip(d, s))) for qid, d, s in zip(qids, docids.tolist(), scores.tolist())]


def init_model(v: int, d: int, n: int, seed: int) -> ModelParams:
    """Fresh parameters: weights ~ U(-1/sqrt(d), 1/sqrt(d)), biases zero.

    Fill order (embed rows, hidden_w rows, cls_w rows, all row-major) is
    part of the determinism contract.
    """
    if v < 1 or d < 1 or n < 1:
        raise InvalidDims(f"dims must be >= 1, got V={v} d={d} N={n}")
    p = ModelParams.zeros(v, d, n)
    rng = Xoshiro256StarStar(seed)
    bound = 1.0 / np.sqrt(d)
    for arr in (p.embed, p.hidden_w, p.cls_w):
        arr[:] = np.reshape([rng.uniform(-bound, bound) for _ in range(arr.size)], arr.shape)
    return p


def pack_queries(token_lists, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad queries into kernels.encode's (tok, lengths), after checking that
    each has a token and that every token is in [0, vocab_size)."""
    tok, lengths = kernels.pack_token_matrix(token_lists)
    if (lengths == 0).any():
        raise EmptyQuery("every query needs at least one token")
    valid = tok[np.arange(tok.shape[1])[None, :] < lengths[:, None]]
    if valid.size and (valid.min() < 0 or valid.max() >= vocab_size):
        raise TokenOutOfRange(f"token index outside [0, {vocab_size})")
    return tok, lengths


def encode_query(p: ModelParams, tokens) -> np.ndarray:
    """tanh(hidden_w @ mean token embedding + hidden_b) for one validated query."""
    _, act = kernels.encode(p.embed, p.hidden_w, p.hidden_b, *pack_queries([tokens], p.vocab_size))
    return act[0]


def forward(p: ModelParams, tokens) -> np.ndarray:
    """Logits over all docids for one query."""
    return p.cls_w @ encode_query(p, tokens) + p.cls_b


# Queries are scored in n // QUERY_BLOCK near-equal blocks (one when fewer).
# No block is small, since BLAS may round a small product differently (OpenBLAS
# does under about 77,000 multiply-adds: 18 queries through a 64-wide layer).
QUERY_BLOCK = 20


def score_blocks(p: ModelParams, tok: np.ndarray, lengths: np.ndarray):
    """Yield (block slice, encoded queries, logits over all docids) per block of a padded batch."""
    n = tok.shape[0]
    count = max(1, n // QUERY_BLOCK)
    for block in (slice(n * i // count, n * (i + 1) // count) for i in range(count)):
        _, act = kernels.encode(p.embed, p.hidden_w, p.hidden_b, tok[block], lengths[block])
        yield block, act, act @ p.cls_w.T + p.cls_b


def batch_logits(p: ModelParams, tok: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized forward for many queries; tok is padded with any value."""
    return np.concatenate([logits for _, _, logits in score_blocks(p, tok, lengths)])


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def top_k(logits, k: int, qid: int = -1) -> RankedList:
    """K highest-scoring docids; ties go to the smaller docid."""
    z = np.asarray(logits, dtype=np.float64)
    return RankedList(qid=qid, entries=[(int(i), float(z[i])) for i in kernels.top_k(z, k)])


def unit_rows(x) -> np.ndarray:
    """x scaled to unit length along its last axis; zero rows stay zero. Rows are
    first scaled exactly, by the power of two that brings the largest |entry| into
    [0.5, 1), so squared norms of tiny vectors do not underflow to subnormals."""
    x = np.asarray(x, dtype=np.float64)
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=-1, keepdims=True, initial=0.0))[1])
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)


def cosine(u, v) -> float:
    u, v = unit_rows(u), unit_rows(v)
    if not (u.any() and v.any()):
        raise ZeroVector("cosine undefined for zero-norm vector")
    return float(u @ v)


def save_checkpoint(p: ModelParams, path) -> None:
    """Binary checkpoint: magic, version, dims, then the flat vector as f32 LE."""
    header = CHECKPOINT_MAGIC + struct.pack("<IIII", CHECKPOINT_VERSION, *p.dims)
    with open(path, "wb") as f:
        f.write(header + p.flat.astype("<f4").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 20 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointVersionMismatch(f"{path}: bad magic")
    version, v, d, n = struct.unpack("<IIII", blob[4:20])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionMismatch(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    expected = 20 + 4 * flat_size(v, d, n)
    if len(blob) != expected:
        raise CheckpointVersionMismatch(f"{path}: {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f4", offset=20)
    if not np.isfinite(flat).all():
        raise CheckpointVersionMismatch(f"{path}: non-finite parameter values")
    return ModelParams(flat.astype(np.float64), v, d, n)
