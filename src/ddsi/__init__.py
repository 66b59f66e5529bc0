"""Desk-scale differentiable search index with a diversity-aware loss."""

__version__ = "0.1.0"

from .corpus import Corpus, Document, QueryExample, SyntheticConfig, Vocab, generate_synthetic, load_corpus, load_queries
from .metrics import EvalRun, MetricsReport, evaluate
from .mmr import MmrConfig, mmr_rerank, retrieve_then_rerank
from .model import ModelParams, RankedList, Run, forward, init_model, load_checkpoint, save_checkpoint, top_k
from .train import LossBreakdown, TrainConfig, train

__all__ = [
    "Corpus",
    "Document",
    "EvalRun",
    "LossBreakdown",
    "MetricsReport",
    "MmrConfig",
    "ModelParams",
    "QueryExample",
    "RankedList",
    "Run",
    "SyntheticConfig",
    "TrainConfig",
    "Vocab",
    "evaluate",
    "forward",
    "generate_synthetic",
    "init_model",
    "load_checkpoint",
    "load_corpus",
    "load_queries",
    "mmr_rerank",
    "retrieve_then_rerank",
    "save_checkpoint",
    "top_k",
    "train",
]
