import importlib
import threading

import numpy as np
import pytest

from ddsi.corpus import QueryExample, SyntheticConfig, generate_synthetic
from ddsi.model import init_model
from ddsi.train import TrainConfig, backward


@pytest.fixture(scope="session")
def small_world():
    """A small but non-trivial corpus shared by fast tests."""
    cfg = SyntheticConfig(
        num_topics=4,
        docs_per_topic=5,
        vocab_per_topic=30,
        shared_vocab=20,
        doc_len=40,
        queries_per_doc=4,
        query_len=12,
        near_duplicate_fraction=0.5,
        seed=11,
    )
    corpus, train_q, test_q = generate_synthetic(cfg)
    return cfg, corpus, train_q, test_q


@pytest.fixture(scope="session")
def one_query_loss():
    """backward(...) at alpha 1 for one query whose logits are the given ones:
    cls_w is zeroed, so cls_b is the logits. Unless the gold's probability is
    clamped, grads.cls_b is then the softmax less the gold's one-hot."""
    def loss(logits, gold):
        logits = np.asarray(logits, dtype=np.float64)
        params = init_model(1, 1, logits.shape[0], 0)
        params.cls_w[:] = 0.0
        params.cls_b[:] = logits
        query = QueryExample(qid=0, tokens=[0], gold_docid=gold)
        return backward(params, [query], TrainConfig(alpha=1.0, k=2, batch_size=1))
    return loss


@pytest.fixture
def adam_split(monkeypatch):
    """train() splits every Adam step with a helper thread, whatever the
    model's size. Returns the names of the threads that ran Adam chunks."""
    train_module = importlib.import_module("ddsi.train")  # the package's `train` is the function
    monkeypatch.setattr(train_module, "ADAM_SPLIT_MIN", 0)
    threads = []
    adam_chunks = train_module._adam_chunks

    def recorded(*args):
        threads.append(threading.current_thread().name)
        adam_chunks(*args)

    monkeypatch.setattr(train_module, "_adam_chunks", recorded)
    return threads
