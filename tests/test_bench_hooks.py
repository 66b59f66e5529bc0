"""The traced benchmark wraps ddsi functions by module attribute name.

Installing and removing its hooks here makes a renamed or moved function
fail the test suite, not only a traced benchmark run.
"""

import sys
from pathlib import Path

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
