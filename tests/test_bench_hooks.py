"""The traced benchmark wraps ddsi functions by module attribute name.

Installing and removing its hooks here makes a renamed or moved function
fail the test suite, not only a traced benchmark run.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


def test_benchmark_hooks_install_and_unwrap():
    from ddsi import cli, kernels, mmr

    before = (kernels.train_pass, mmr.forward, cli.train, cli.retrieve_then_rerank)
    rec = spans.Recorder()
    layers.install(rec)
    try:
        assert kernels.train_pass is not before[0]
        assert kernels.train_pass.__wrapped__ is before[0]
        assert cli.retrieve_then_rerank is not before[3]
        assert cli.retrieve_then_rerank.__wrapped__ is before[3]
    finally:
        rec.unwrap_all()
    assert (kernels.train_pass, mmr.forward, cli.train, cli.retrieve_then_rerank) == before


def test_train_pass_hook_names_the_span_and_counts_pairs():
    import numpy as np

    from ddsi import kernels
    from ddsi.model import ModelParams, init_model

    bsz, kk = 5, 4
    params = init_model(9, 5, 12, 3)
    tok, lengths = kernels.pack_token_matrix([[(3 * i + j) % 9 for j in range(1 + i)] for i in range(bsz)])
    golds = np.arange(bsz, dtype=np.int64)
    rec = spans.Recorder()
    layers.install(rec)
    rec.on = True
    try:
        kernels.train_pass(*params.arrays(), tok, lengths, golds, kk, 0.5, ModelParams.zeros(*params.dims))
    finally:
        rec.on = False
        rec.unwrap_all()
    assert [s[0] for s in rec.spans] == ["kernels.train_pass_div"]
    assert rec.counts["train.batches"] == 1
    assert rec.counts["train.examples"] == bsz
    assert rec.counts["train.diversity_pair_evals"] == bsz * kk * (kk - 1) // 2


@pytest.mark.parametrize("alpha, pass_span", [(1.0, "kernels.train_pass_ce"), (0.5, "kernels.train_pass_div")])
def test_train_loop_calls_the_wrapped_step_and_pass_per_batch(small_world, alpha, pass_span):
    from ddsi.train import TrainConfig, train

    _, corpus, train_q, _ = small_world
    cfg = TrainConfig(alpha=alpha, k=5, epochs=2, batch_size=16, seed=3)
    rec = spans.Recorder()
    layers.install(rec)
    rec.on = True
    try:
        train(corpus, train_q, cfg)
    finally:
        rec.on = False
        rec.unwrap_all()
    batches = cfg.epochs * math.ceil(len(train_q) / cfg.batch_size)
    names = [s[0] for s in rec.spans]
    assert names.count("train.step") == batches
    assert names.count(pass_span) == batches
    assert rec.counts["train.batches"] == batches
    assert rec.counts["train.examples"] == cfg.epochs * len(train_q)


def test_train_with_the_adam_helper_records_each_step_once_and_only_from_the_main_thread(small_world, adam_split):
    import threading

    from ddsi.train import TrainConfig, train

    class Recorder(spans.Recorder):
        # spans.Recorder is not thread-safe: note which thread opens each span
        def _open(self, name):
            openers.add(threading.current_thread())
            return super()._open(name)

    openers = set()
    _, corpus, train_q, _ = small_world
    cfg = TrainConfig(alpha=0.5, k=5, epochs=2, batch_size=16, seed=3)
    rec = Recorder()
    layers.install(rec)
    rec.on = True
    try:
        train(corpus, train_q, cfg)
    finally:
        rec.on = False
        rec.unwrap_all()
    assert "adam-helper" in adam_split
    batches = cfg.epochs * math.ceil(len(train_q) / cfg.batch_size)
    assert [s[0] for s in rec.spans].count("train.step") == batches
    assert openers == {threading.main_thread()}
