"""Query encoder and docid classifier.

A query is mean-pooled token embeddings pushed through one tanh affine
layer; scoring is a linear classifier whose row i doubles as the learned
representation of docid i. Parameter shapes are a pure function of
(V, d, N), so models trained under any loss mix are byte-compatible.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    CheckpointVersionMismatch,
    EmptyQuery,
    InvalidDims,
    KOutOfRange,
    TokenOutOfRange,
    ZeroVector,
)
from .rng import Xoshiro256StarStar

CHECKPOINT_MAGIC = b"DDSI"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    embed: np.ndarray  # (V, d)
    hidden_w: np.ndarray  # (d, d)
    hidden_b: np.ndarray  # (d,)
    cls_w: np.ndarray  # (N, d)
    cls_b: np.ndarray  # (N,)

    def __post_init__(self):
        v, d = self.embed.shape
        if self.hidden_w.shape != (d, d) or self.hidden_b.shape != (d,):
            raise InvalidDims("hidden layer shapes inconsistent with embedding dim")
        n = self.cls_w.shape[0]
        if self.cls_w.shape != (n, d) or self.cls_b.shape != (n,):
            raise InvalidDims("classifier shapes inconsistent")

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    @property
    def dim(self) -> int:
        return self.embed.shape[1]

    @property
    def num_docs(self) -> int:
        return self.cls_w.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.vocab_size, self.dim, self.num_docs)

    def param_count(self) -> int:
        v, d, n = self.dims
        return v * d + d * d + d + n * d + n

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Parameter arrays in canonical (checkpoint) order."""
        return (self.embed, self.hidden_w, self.hidden_b, self.cls_w, self.cls_b)

    def copy(self) -> "ModelParams":
        return ModelParams(*(a.copy() for a in self.arrays()))


@dataclass
class RankedList:
    """Docids with scores for one query, best first."""

    qid: int
    entries: list[tuple[int, float]] = field(default_factory=list)

    def docids(self) -> list[int]:
        return [d for d, _ in self.entries]


def init_model(v: int, d: int, n: int, seed: int) -> ModelParams:
    """Fresh parameters: weights ~ U(-1/sqrt(d), 1/sqrt(d)), biases zero.

    Fill order (embed rows, hidden_w rows, cls_w rows, all row-major) is
    part of the determinism contract.
    """
    if v < 1 or d < 1 or n < 1:
        raise InvalidDims(f"dims must be >= 1, got V={v} d={d} N={n}")
    rng = Xoshiro256StarStar(seed)
    bound = 1.0 / np.sqrt(d)

    def fill(rows: int, cols: int) -> np.ndarray:
        vals = [rng.uniform(-bound, bound) for _ in range(rows * cols)]
        return np.array(vals, dtype=np.float64).reshape(rows, cols)

    return ModelParams(
        embed=fill(v, d),
        hidden_w=fill(d, d),
        hidden_b=np.zeros(d, dtype=np.float64),
        cls_w=fill(n, d),
        cls_b=np.zeros(n, dtype=np.float64),
    )


def _check_tokens(p: ModelParams, tokens) -> np.ndarray:
    idx = np.asarray(tokens, dtype=np.int64)
    if idx.size == 0:
        raise EmptyQuery("query has no tokens")
    if idx.min() < 0 or idx.max() >= p.vocab_size:
        raise TokenOutOfRange(f"token index outside [0, {p.vocab_size})")
    return idx


def encode_query(p: ModelParams, tokens) -> np.ndarray:
    """tanh(hidden_w @ mean token embedding + hidden_b) for one validated query."""
    idx = _check_tokens(p, tokens)
    _, act = kernels.encode(p.embed, p.hidden_w, p.hidden_b, idx[None, :], np.array([idx.size]))
    return act[0]


def forward(p: ModelParams, tokens) -> np.ndarray:
    """Logits over all docids for one query."""
    return p.cls_w @ encode_query(p, tokens) + p.cls_b


def batch_logits(p: ModelParams, tok: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized forward for many queries; tok is padded with any value."""
    _, act = kernels.encode(p.embed, p.hidden_w, p.hidden_b, tok, lengths)
    return act @ p.cls_w.T + p.cls_b


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def top_k(logits, k: int, qid: int = -1) -> RankedList:
    """K highest-scoring docids; ties go to the smaller docid."""
    z = np.asarray(logits, dtype=np.float64)
    n = z.shape[0]
    if not 1 <= k <= n:
        raise KOutOfRange(f"K={k} outside [1, {n}]")
    order = np.lexsort((np.arange(n), -z))[:k]
    return RankedList(qid=qid, entries=[(int(i), float(z[i])) for i in order])


def rescale_exact(x: np.ndarray) -> np.ndarray:
    """x times a power of two that brings each row's largest |entry| into [0.5, 1).

    The scaling is exact, so cosines in the normal range keep their
    bits, while squared norms of tiny vectors no longer underflow to
    subnormals (which pushed cosines above 1). Zero rows stay zero.
    """
    return np.ldexp(x, -np.frexp(np.abs(x).max(axis=-1, keepdims=True, initial=0.0))[1])


def cosine(u, v) -> float:
    u = rescale_exact(np.asarray(u, dtype=np.float64))
    v = rescale_exact(np.asarray(v, dtype=np.float64))
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    return float(u @ v / (nu * nv))


def op_trace_hash(p: ModelParams, tokens) -> str:
    """SHA-256 over the forward pass's operation sequence.

    The trace names each op with its operand shapes; it depends only on
    (V, d, N) and the query length, never on parameter values, so any
    two models with equal dims produce equal hashes for a query.
    """
    idx = _check_tokens(p, tokens)
    v, d, n = p.dims
    trace = [
        ("gather", (int(idx.size), d), (v, d)),
        ("mean", (int(idx.size), d)),
        ("matvec", (d, d)),
        ("add", (d,)),
        ("tanh", (d,)),
        ("matvec", (n, d)),
        ("add", (n,)),
    ]
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def save_checkpoint(p: ModelParams, path) -> None:
    """Binary checkpoint: magic, version, dims, then f32 LE arrays."""
    v, d, n = p.dims
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<IIII", CHECKPOINT_VERSION, v, d, n)
    for arr in p.arrays():
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(bytes(blob))


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 20 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointVersionMismatch(f"{path}: bad magic")
    version, v, d, n = struct.unpack("<IIII", blob[4:20])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionMismatch(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    shapes = [(v, d), (d, d), (d,), (n, d), (n,)]
    expected = 20 + 4 * sum(int(np.prod(s)) for s in shapes)
    if len(blob) != expected:
        raise CheckpointVersionMismatch(f"{path}: {len(blob)} bytes, expected {expected}")
    arrays = []
    offset = 20
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        arrays.append(arr.astype(np.float64).reshape(shape))
        offset += 4 * count
    return ModelParams(*arrays)
