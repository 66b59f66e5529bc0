"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3 and 8 share two full 30-epoch trainings on the standard
synthetic corpus (20 topics x 10 docs, near-duplicate fraction 0.5,
5 queries/doc, seed 7); the margins asserted there are fixed regression
thresholds for that exact configuration.
"""

import hashlib
import time

import numpy as np
import pytest

from ddsi.cli import main
from ddsi.corpus import SyntheticConfig, generate_synthetic
from ddsi.metrics import (
    compression_ratio,
    evaluate,
    homogenization,
    mrr_at_k,
    ngd,
    rouge_l,
    run_queries,
)
from ddsi.mmr import MmrConfig, mmr_rerank
from ddsi.model import cosine, forward, init_model, save_checkpoint
from ddsi.rng import Xoshiro256StarStar
from ddsi.train import (
    TrainConfig,
    backward,
    diversity_pair_evals,
    diversity_term,
    reset_diversity_pair_evals,
    train,
)

from oracles import finite_difference_grads, oracle_logits, oracle_mmr
from test_metrics import run_with_gold_ranks
from test_train import grads_close, stable_instances


@pytest.fixture(scope="module")
def standard_world():
    cfg = SyntheticConfig()  # the standard corpus: defaults, seed 7
    corpus, train_q, test_q = generate_synthetic(cfg)
    return cfg, corpus, train_q, test_q


@pytest.fixture(scope="module")
def trained_models(standard_world):
    _, corpus, train_q, _ = standard_world
    t0 = time.time()
    models = {}
    history = {}
    for alpha in (1.0, 0.5):
        models[alpha], history[alpha] = train(corpus, train_q, TrainConfig(alpha=alpha))
    elapsed = time.time() - t0
    return models, history, elapsed


def ok(criterion, detail):
    print(f"[ACCEPTANCE] {criterion}: PASS — {detail}")


def test_c1_gradient_oracle():
    t0 = time.time()
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    instances = stable_instances(20, alphas, start_seed=2000)
    worst_overall = 0.0
    for params, batch, cfg in instances:
        _, grads = backward(params, batch, cfg)
        pairs = [(q.tokens, q.gold_docid) for q in batch]
        numeric, _ = finite_difference_grads(list(params.arrays()), pairs, cfg.alpha, cfg.k, h=1e-4)
        good, worst = grads_close(list(grads.arrays()), numeric, rel=1e-4, floor=1e-7)
        worst_overall = max(worst_overall, worst)
        assert good, f"alpha={cfg.alpha}: finite differences disagree (tol ratio {worst:.3f})"
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"
    ok("criterion 1 (gradient oracle)", f"20 instances, worst tolerance ratio {worst_overall:.3f}, {elapsed:.1f}s")


def test_c2_alpha_one_baseline_equivalence(standard_world):
    _, corpus, train_q, _ = standard_world
    cfg = TrainConfig(alpha=1.0, epochs=2)

    # per-batch bitwise equality of total and CE
    params = init_model(corpus.vocab.size, cfg.dim, corpus.num_docs, cfg.seed)
    for start in range(0, 256, cfg.batch_size):
        breakdown, _ = backward(params, train_q[start : start + cfg.batch_size], cfg)
        assert breakdown.total == breakdown.ce
        assert breakdown.diversity == 0.0

    # the diversity path never runs across a whole training run
    reset_diversity_pair_evals()
    _, history = train(corpus, train_q, cfg)
    assert diversity_pair_evals() == 0
    assert all(row.total == row.ce for row in history)
    ok("criterion 2 (alpha=1 equivalence)", "total == ce bitwise; diversity pair counter stayed 0")


def test_c3_trend_reproduction(standard_world, trained_models):
    _, corpus, _, test_q = standard_world
    models, _, elapsed = trained_models
    assert elapsed < 300.0, f"two 30-epoch trainings took {elapsed:.0f}s"

    reports = {}
    cosines = {}
    for alpha, params in models.items():
        reports[alpha] = evaluate(params, test_q, corpus, cutoff=10)
        run = run_queries(params, test_q, 10)
        cosines[alpha] = float(np.mean([diversity_term(params, r.docids()) for r in run.rankings]))

    hom_drop = reports[1.0].rouge_l_hom - reports[0.5].rouge_l_hom
    cos_drop = cosines[1.0] - cosines[0.5]
    hits10_degrade = reports[1.0].hits10 - reports[0.5].hits10
    assert hom_drop >= 0.02, f"homogenization drop {hom_drop:.4f} < 0.02"
    assert cos_drop >= 0.02, f"top-10 row cosine drop {cos_drop:.4f} < 0.02"
    assert hits10_degrade <= 0.05, f"Hits@10 degraded by {hits10_degrade:.4f} > 0.05"
    ok(
        "criterion 3 (diversity trend)",
        f"hom -{hom_drop:.4f}, cosine -{cos_drop:.4f}, Hits@10 degrade {hits10_degrade:+.4f}, {elapsed:.0f}s",
    )


def test_c4_inference_invariance(standard_world, trained_models, tmp_path):
    _, corpus, train_q, test_q = standard_world
    models, _, _ = trained_models

    checkpoints = dict(models)
    for alpha in (0.25, 0.75):
        checkpoints[alpha], _ = train(corpus, train_q, TrainConfig(alpha=alpha, epochs=1))

    # every alpha gives the same parameter layout, and one forward pass,
    # the defining formulas, scores each of them
    probe = test_q[0].tokens
    counts = {p.param_count() for p in checkpoints.values()}
    sizes = set()
    headers = set()
    worst = 0.0
    for alpha, params in checkpoints.items():
        path = tmp_path / f"a{alpha}.bin"
        save_checkpoint(params, path)
        sizes.add(path.stat().st_size)
        headers.add(path.read_bytes()[:20])
        worst = max(worst, float(np.abs(forward(params, probe) - oracle_logits(params.arrays(), probe)).max()))
    assert len(counts) == 1
    assert len(sizes) == 1
    assert len(headers) == 1
    assert worst <= 1e-9, f"forward differs from the oracle logits by {worst:.3g}"
    ok(
        "criterion 4 (inference invariance)",
        f"param count {counts.pop()}, checkpoint bytes {sizes.pop()}, one header across alphas, "
        f"forward = oracle logits within {worst:.1e}",
    )


def test_c5_mmr_oracle():
    rng = Xoshiro256StarStar(77)
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    pools_checked = 0
    for trial in range(200):
        size = 2 + trial % 7  # pool sizes 2..8
        dim = 3 + trial % 3
        pool = [(d, np.array([rng.uniform(-1, 1) for _ in range(dim)])) for d in range(size)]
        query = np.array([rng.uniform(-1, 1) for _ in range(dim)])
        rel_order = sorted(range(size), key=lambda d: (-cosine(query, pool[d][1]), d))
        for lam in lambdas:
            m = size if lam in (0.0, 1.0) else 1 + trial % size
            got = mmr_rerank(query, pool, MmrConfig(lambda_=lam, m=m, pool=size)).docids()
            want = oracle_mmr(query.tolist(), [(d, v.tolist()) for d, v in pool], lam, m)
            assert got == want, f"trial={trial} lam={lam}"
            if lam == 1.0:
                assert got == rel_order[:m], f"trial={trial}: lambda=1 is not relevance sort"
        pools_checked += 1
    ok("criterion 5 (MMR oracle)", f"{pools_checked} pools x 5 lambdas match brute force exactly")


def test_c6_metric_oracles():
    assert mrr_at_k(run_with_gold_ranks([1, 2, 4]), 10) == pytest.approx(7 / 12, abs=1e-9)
    assert ngd([[1, 2, 1, 2]]) == pytest.approx(19 / 6, abs=1e-9)
    assert rouge_l([1, 2, 3, 4], [2, 4]) == pytest.approx(2 / 3, abs=1e-9)
    assert homogenization([[1, 2, 3]] * 3) == 1.0

    line = "abcdefghijklmnopqrst"
    repetitive = [line] * 500  # 10 kB of one repeated 20-byte line
    rng = Xoshiro256StarStar(4242)
    random_hex = ["".join(f"{rng.next_u64():016x}" for _ in range(32)) for _ in range(20)]
    cr_rep = compression_ratio(repetitive)
    cr_rand = compression_ratio(random_hex)
    assert cr_rep > 5.0 and cr_rand < 2.0 and cr_rep > cr_rand
    ok("criterion 6 (metric oracles)", f"hand values exact; CR repetitive {cr_rep:.1f} > random {cr_rand:.2f}")


def test_c7_pipeline_determinism(tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    digests = []
    for tag in ("one", "two"):
        data = tmp_path / tag / "data"
        model = tmp_path / tag / "model"
        ev = tmp_path / tag / "eval"
        assert main(["generate", "--seed", "7", "--out", str(data)]) == 0
        assert main([
            "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
            "--alpha", "0.5", "--epochs", "5", "--seed", "7", "--out", str(model),
        ]) == 0
        assert main([
            "eval", "--checkpoint", str(model / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
            "--queries", str(data / "test.tsv"), "--alpha", "0.5", "--dataset", "synth",
            "--out", str(ev),
        ]) == 0
        digests.append({
            "corpus": digest(data / "corpus.jsonl"),
            "train": digest(data / "train.tsv"),
            "test": digest(data / "test.tsv"),
            "checkpoint": digest(model / "checkpoint.bin"),
            "history": digest(model / "history.tsv"),
            "run": digest(ev / "run.tsv"),
            "report": digest(ev / "report.tsv"),
        })
    assert digests[0] == digests[1]
    ok("criterion 7 (pipeline determinism)", f"{len(digests[0])} artifact digests identical across reruns")


def test_c8_relevance_floor(standard_world, trained_models):
    _, corpus, train_q, test_q = standard_world
    models, history, _ = trained_models
    report = evaluate(models[1.0], test_q, corpus, cutoff=10)
    assert report.hits1 >= 0.6, f"test Hits@1 {report.hits1:.4f} < 0.6"
    assert report.hits10 >= 0.9, f"test Hits@10 {report.hits10:.4f} < 0.9"
    assert history[1.0][-1].train_hits1 >= 0.9

    train_report = evaluate(models[1.0], train_q, corpus, cutoff=10)
    assert train_report.hits10 >= report.hits10
    ok(
        "criterion 8 (relevance floor)",
        f"alpha=1: test Hits@1 {report.hits1:.4f}, Hits@10 {report.hits10:.4f}, train Hits@1 {history[1.0][-1].train_hits1:.3f}",
    )
