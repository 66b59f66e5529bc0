import importlib
import sys
import threading

import numpy as np
import pytest

from ddsi.corpus import QueryExample, SyntheticConfig, generate_synthetic
from ddsi.metrics import compression_ratio
from ddsi.model import init_model
from ddsi.train import TrainConfig, backward


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail any test that leaves running a thread it started, such as a
    helper thread that train() or report_from_run() did not join."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


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


@pytest.fixture
def failing_eval_helper(monkeypatch):
    """report_from_run's helper thread raises RuntimeError("helper set
    failed") on the first set it claims, and the calling thread starts its
    own work only once the helper has."""
    metrics_module = importlib.import_module("ddsi.metrics")
    homogenization_sets = metrics_module._homogenization_sets
    raised = threading.Event()

    def failing_in_the_helper(texts):
        if threading.current_thread() is threading.main_thread():
            return compression_ratio(texts)
        raised.set()
        raise RuntimeError("helper set failed")

    def after_the_helper(*args):
        assert raised.wait(timeout=30)
        return homogenization_sets(*args)

    monkeypatch.setattr(metrics_module, "_compression_ratio", failing_in_the_helper)
    monkeypatch.setattr(metrics_module, "_homogenization_sets", after_the_helper)


@pytest.fixture
def thread_switches():
    """A switch interval of 1 us and a busy third thread, so that the
    claims of two threads race as often as they can."""
    noise = np.cos(np.arange(4096) * 0.3)
    busy = threading.Event()

    def contend():
        while not busy.is_set():
            np.multiply(noise, noise)

    other = threading.Thread(target=contend)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    other.start()
    yield
    busy.set()
    sys.setswitchinterval(interval)
    other.join(timeout=10)
    assert not other.is_alive()
