import importlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from ddsi import kernels
from ddsi.corpus import QueryExample
from ddsi.errors import (
    EmptyQuery,
    EmptyRun,
    GoldOutOfRange,
    InvalidConfig,
    NonFiniteGradient,
    ShapeMismatch,
)
from ddsi.helper import Helper
from ddsi.model import ModelParams, init_model
from ddsi.rng import Xoshiro256StarStar, mix_seed
from ddsi.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    ADAM_SPLIT_MIN,
    EpochStats,
    TrainConfig,
    backward,
    diversity_term,
    diversity_pair_evals,
    init_optimizer_state,
    reset_diversity_pair_evals,
    step,
    train,
    write_history,
)

from oracles import finite_difference_grads, oracle_total_loss, selection_gap

V, D, N, K, BATCH = 6, 5, 8, 3, 4


def make_instance(seed, alpha):
    """Random params and batch for the gradient tests."""
    params = init_model(V, D, N, seed)
    rng = Xoshiro256StarStar(seed * 7919 + 13)
    batch = []
    for qid in range(BATCH):
        length = 3 + rng.randbelow(4)
        tokens = [rng.randbelow(V) for _ in range(length)]
        batch.append(QueryExample(qid=qid, tokens=tokens, gold_docid=rng.randbelow(N)))
    cfg = TrainConfig(alpha=alpha, k=K, batch_size=BATCH)
    return params, batch, cfg


def stable_instances(count, alphas, gap=1e-3, start_seed=100):
    """First `count` random instances whose top-K boundary is FD-safe."""
    out = []
    seed = start_seed
    while len(out) < count:
        alpha = alphas[len(out) % len(alphas)]
        params, batch, cfg = make_instance(seed, alpha)
        seed += 1
        pairs = [(q.tokens, q.gold_docid) for q in batch]
        if selection_gap(list(params.arrays()), pairs, K) < gap:
            continue
        out.append((params, batch, cfg))
    return out


def unk_batch(batch):
    """The batch with every token <unk> (id 0), as for queries of unknown words only."""
    return [QueryExample(q.qid, [0] * len(q.tokens), q.gold_docid) for q in batch]


def grads_close(analytic, numeric, rel=1e-4, floor=1e-7):
    worst = 0.0
    for a_arr, f_arr in zip(analytic, numeric):
        diff = np.abs(a_arr - f_arr)
        tol = np.maximum(floor, rel * np.maximum(np.abs(a_arr), np.abs(f_arr)))
        worst = max(worst, float((diff / tol).max()))
        if (diff > tol).any():
            return False, worst
    return True, worst


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_one_hot_is_zero(one_query_loss):
    assert one_query_loss([0.0, 0.0, 1000.0, 0.0, 0.0], 2)[0].ce == 0.0


def test_cross_entropy_uniform(one_query_loss):
    assert one_query_loss(np.zeros(4), 1)[0].ce == pytest.approx(math.log(4), abs=1e-12)


def test_cross_entropy_floor(one_query_loss):
    # the gold's probability underflows to 0: the loss is the floor's, a constant
    breakdown, grads = one_query_loss([-1000.0, 0.0], 0)
    assert breakdown.ce == pytest.approx(-math.log(1e-12), abs=1e-12)
    assert not grads.flat.any()


def test_cross_entropy_gold_range(one_query_loss):
    with pytest.raises(GoldOutOfRange):
        one_query_loss(np.zeros(4), 4)


# ---------------------------------------------------------------------------
# diversity term
# ---------------------------------------------------------------------------


def test_diversity_identical_rows():
    params = init_model(V, D, N, 0)
    params.cls_w[:] = 1.0
    assert diversity_term(params, [0, 1, 2]) == pytest.approx(1.0, abs=1e-12)


def test_diversity_orthogonal_pair():
    params = init_model(V, 4, N, 0)
    params.cls_w[:] = 0.0
    params.cls_w[0, 0] = 1.0
    params.cls_w[1, 1] = 1.0
    assert diversity_term(params, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_diversity_mixed_triplet():
    params = init_model(V, 4, N, 0)
    params.cls_w[:] = 0.0
    params.cls_w[0, 0] = 1.0
    params.cls_w[1, 1] = 1.0
    params.cls_w[2, 0] = params.cls_w[2, 1] = 1.0 / math.sqrt(2.0)
    expected = (0.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(2.0)) / 3.0
    assert diversity_term(params, [0, 1, 2]) == pytest.approx(expected, abs=1e-12)


def test_diversity_k_too_small():
    params = init_model(V, D, N, 0)
    with pytest.raises(InvalidConfig):
        diversity_term(params, [0])


def test_diversity_zero_rows_contribute_zero():
    params = init_model(V, D, N, 0)
    params.cls_w[:] = 0.0
    params.cls_w[0, 0] = 1.0
    # pairs (0,1), (0,2), (1,2) all involve a zero row
    assert diversity_term(params, [0, 1, 2]) == 0.0


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------


def test_total_loss_alpha_endpoints_and_linearity():
    params, batch, _ = make_instance(3, 0.5)
    breakdowns = {}
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = TrainConfig(alpha=alpha, k=K, batch_size=BATCH)
        breakdowns[alpha] = backward(params, batch, cfg)[0]

    ce = breakdowns[1.0].ce
    assert breakdowns[1.0].total == ce
    assert breakdowns[1.0].diversity == 0.0
    assert breakdowns[1.0].selected_topk == ()

    div = breakdowns[0.0].diversity
    assert breakdowns[0.0].total == div
    for alpha in (0.0, 0.25, 0.5, 0.75):
        b = breakdowns[alpha]
        assert b.ce == ce
        assert b.diversity == div
        assert b.total == alpha * b.ce + (1.0 - alpha) * b.diversity


def test_total_loss_midpoint_arithmetic():
    params, batch, cfg = make_instance(4, 0.5)
    b = backward(params, batch, cfg)[0]
    assert b.total == pytest.approx(0.5 * b.ce + 0.5 * b.diversity, abs=1e-15)


def test_total_loss_matches_oracle():
    for seed in (5, 6, 7):
        for alpha in (0.0, 0.5, 1.0):
            params, batch, cfg = make_instance(seed, alpha)
            got = backward(params, batch, cfg)[0]
            pairs = [(q.tokens, q.gold_docid) for q in batch]
            want, selections = oracle_total_loss(list(params.arrays()), pairs, alpha, K)
            assert got.total == pytest.approx(want, rel=1e-12, abs=1e-12)
            if alpha < 1.0:
                assert [list(s) for s in got.selected_topk] == selections


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_backward_matches_finite_differences():
    # the full 20-instance sweep lives in the acceptance suite; the last
    # instance adds every token's embedding gradient into the one <unk> row
    params, batch, cfg = make_instance(100, 0.5)
    unk = (params, unk_batch(batch), cfg)
    assert selection_gap(list(params.arrays()), [(q.tokens, q.gold_docid) for q in unk[1]], K) >= 1e-3
    for params, batch, cfg in stable_instances(6, [0.0, 0.25, 0.5, 0.75, 1.0]) + [unk]:
        _, grads = backward(params, batch, cfg)
        pairs = [(q.tokens, q.gold_docid) for q in batch]
        numeric, _ = finite_difference_grads(list(params.arrays()), pairs, cfg.alpha, K)
        ok, worst = grads_close(list(grads.arrays()), numeric)
        assert ok, f"alpha={cfg.alpha}: worst tol ratio {worst:.3f}"


def test_diversity_gradient_locality_alpha_zero():
    params, batch, cfg = make_instance(21, 0.0)
    breakdown, grads = backward(params, batch, cfg)
    assert np.all(grads.embed == 0.0)
    assert np.all(grads.hidden_w == 0.0)
    assert np.all(grads.hidden_b == 0.0)
    assert np.all(grads.cls_b == 0.0)
    selected = {d for sel in breakdown.selected_topk for d in sel}
    assert selected
    for docid in range(N):
        row_zero = np.all(grads.cls_w[docid] == 0.0)
        if docid in selected:
            assert not row_zero
        else:
            assert row_zero


def test_alpha_one_skips_diversity_entirely():
    params, batch, cfg = make_instance(22, 1.0)
    reset_diversity_pair_evals()
    breakdown, grads = backward(params, batch, cfg)
    assert diversity_pair_evals() == 0
    assert breakdown.diversity == 0.0
    assert breakdown.total == breakdown.ce
    assert breakdown.selected_topk == ()
    # gradients equal the pure-CE gradients computed at alpha just below 1
    # only through the CE path; check against the oracle's CE-only FD
    pairs = [(q.tokens, q.gold_docid) for q in batch]
    numeric, _ = finite_difference_grads(list(params.arrays()), pairs, 1.0, K)
    ok, worst = grads_close(list(grads.arrays()), numeric)
    assert ok, f"worst tol ratio {worst:.3f}"


def test_diversity_step_decreases_term():
    # one SGD step on the diversity-only loss must reduce it for the
    # frozen selections in at least 95 of 100 random instances
    wins = 0
    for seed in range(100):
        params, batch, cfg = make_instance(1000 + seed, 0.0)
        cfg.lr = 1e-3
        cfg.optimizer = "sgd"
        breakdown, grads = backward(params, batch, cfg)
        before = breakdown.diversity
        step(params, grads, init_optimizer_state(params, cfg), cfg)
        after = float(np.mean([diversity_term(params, sel) for sel in breakdown.selected_topk]))
        if after < before:
            wins += 1
    assert wins >= 95, f"diversity decreased in only {wins}/100 instances"


def test_backward_rejects_non_finite():
    params, batch, cfg = make_instance(30, 0.5)
    params.hidden_b[0] = np.nan
    with pytest.raises(NonFiniteGradient):
        backward(params, batch, cfg)


def test_backward_rejects_bad_gold():
    params, batch, cfg = make_instance(31, 0.5)
    batch[0].gold_docid = N
    with pytest.raises(GoldOutOfRange):
        backward(params, batch, cfg)


def test_backward_rejects_empty_query():
    params, batch, cfg = make_instance(32, 0.5)
    batch[1].tokens = []
    with pytest.raises(EmptyQuery):
        backward(params, batch, cfg)


def test_k_must_fit_corpus():
    params, batch, cfg = make_instance(33, 0.5)
    cfg.k = N + 1
    with pytest.raises(InvalidConfig):
        backward(params, batch, cfg)


# ---------------------------------------------------------------------------
# optimizer step
# ---------------------------------------------------------------------------


def zero_grads(params):
    return ModelParams.zeros(*params.dims)


def test_step_zero_gradient_is_identity():
    params, _, cfg = make_instance(40, 1.0)
    before = [a.copy() for a in params.arrays()]
    step(params, zero_grads(params), init_optimizer_state(params, cfg), cfg)
    for prev, now in zip(before, params.arrays()):
        assert np.array_equal(prev, now)


def test_step_sgd_full_cancel():
    params, _, cfg = make_instance(41, 1.0)
    cfg.optimizer = "sgd"
    cfg.lr = 1.0
    grads = params.copy()
    step(params, grads, init_optimizer_state(params, cfg), cfg)
    for arr in params.arrays():
        assert np.all(arr == 0.0)


def test_step_deterministic():
    results = []
    for _ in range(2):
        params, batch, cfg = make_instance(42, 0.5)
        _, grads = backward(params, batch, cfg)
        state = init_optimizer_state(params, cfg)
        step(params, grads, state, cfg)
        results.append([a.copy() for a in params.arrays()])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_step_shape_mismatch():
    params, _, cfg = make_instance(43, 1.0)
    grads = ModelParams.zeros(V, D, N + 1)
    with pytest.raises(ShapeMismatch):
        step(params, grads, init_optimizer_state(params, cfg), cfg)


def test_adam_matches_reference_two_steps():
    params, _, cfg = make_instance(44, 1.0)
    cfg.lr = 0.01
    theta0 = params.hidden_b.copy()
    g1 = np.full_like(theta0, 0.5)
    g2 = np.full_like(theta0, -0.25)
    state = init_optimizer_state(params, cfg)
    for g in (g1, g2):
        grads = zero_grads(params)
        grads.hidden_b[:] = g
        step(params, grads, state, cfg)

    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    theta = theta0[0]
    for t, g in ((1, 0.5), (2, -0.25)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= cfg.lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    assert params.hidden_b[0] == pytest.approx(theta, abs=1e-15)


def assert_adam_steps_match_whole_vector_expressions(params, cfg, grads_at, helper=None):
    # the update as whole-vector numpy expressions with temporaries, bit for
    # bit, and a twin stepped without a helper
    state = init_optimizer_state(params, cfg)
    twin = params.copy()
    twin_state = init_optimizer_state(twin, cfg)
    theta = params.flat.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, 51):
        grads = grads_at(t)
        g = grads.flat
        step(params, grads, state, cfg, helper)
        step(twin, grads, twin_state, cfg)
        m = m * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
        v = v * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        theta = theta - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        assert state.m.tobytes() == m.tobytes() == twin_state.m.tobytes()
        assert state.v.tobytes() == v.tobytes() == twin_state.v.tobytes()
        assert params.flat.tobytes() == theta.tobytes() == twin.flat.tobytes(), f"step {t}"


def test_adam_steps_match_whole_vector_expressions():
    params, batch, cfg = make_instance(45, 0.5)
    assert_adam_steps_match_whole_vector_expressions(params, cfg, lambda t: backward(params, batch, cfg)[1])


def test_adam_steps_match_whole_vector_expressions_over_blocks_and_a_tail():
    dims = (1100, 64, 200)
    params = init_model(*dims, 45)
    assert params.flat.size // ADAM_BLOCK == 2 and params.flat.size % ADAM_BLOCK
    noise = np.sin(np.arange(params.flat.size) * 0.7)
    assert_adam_steps_match_whole_vector_expressions(
        params, TrainConfig(), lambda t: ModelParams(noise * (t % 5 - 2.5), *dims))


def test_adam_steps_with_a_helper_match_whole_vector_expressions_and_a_helperless_step():
    dims = (2500, 64, 200)
    params = init_model(*dims, 46)
    assert params.flat.size >= ADAM_SPLIT_MIN
    noise = np.sin(np.arange(params.flat.size) * 0.7)
    # chunks of at most ADAM_BLOCK floats, equal to a float, tile the vector
    chunks = init_optimizer_state(params, TrainConfig()).chunks
    widths = [hi - lo for lo, hi in chunks]
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
    assert chunks[-1][1] == params.flat.size
    assert len(chunks) > 4 and max(widths) - min(widths) <= 1 and max(widths) <= ADAM_BLOCK
    with Helper("adam-helper") as helper:
        assert_adam_steps_match_whole_vector_expressions(
            params, TrainConfig(), lambda t: ModelParams(noise * (t % 5 - 2.5), *dims), helper)


def test_adam_helper_takes_the_leading_chunks_and_the_caller_the_trailing_ones(monkeypatch):
    train_module = importlib.import_module("ddsi.train")
    adam_chunks = train_module._adam_chunks
    claimed = {}

    def recorded(chunks, *args):
        mine = claimed.setdefault(threading.current_thread().name, [])
        adam_chunks((mine.append(c) or c for c in chunks), *args)

    monkeypatch.setattr(train_module, "_adam_chunks", recorded)
    dims = (2500, 64, 200)
    params = init_model(*dims, 49)
    grads = ModelParams(np.sin(np.arange(params.flat.size) * 0.7), *dims)
    state = init_optimizer_state(params, TrainConfig())
    with Helper("adam-helper") as helper:
        for _ in range(20):
            claimed.clear()
            step(params, grads, state, TrainConfig(), helper)
            front, back = claimed.get("adam-helper", []), claimed[threading.main_thread().name]
            assert front == state.chunks[: len(front)]
            assert back == state.chunks[len(front):][::-1]


def test_adam_helper_claims_each_chunk_once_under_thread_switches(monkeypatch, thread_switches):
    # a chunk claimed by both threads or by neither changes m, v and params;
    # tiny chunks make the claims race as often as they can
    monkeypatch.setattr(importlib.import_module("ddsi.train"), "ADAM_BLOCK", 64)
    dims = (100, 16, 30)
    params = init_model(*dims, 48)
    noise = np.cos(np.arange(params.flat.size) * 0.3)
    assert len(init_optimizer_state(params, TrainConfig()).chunks) > 30
    with Helper("adam-helper") as helper:
        assert_adam_steps_match_whole_vector_expressions(
            params, TrainConfig(), lambda t: ModelParams(noise * (t % 3 - 1.5), *dims), helper)


@pytest.mark.parametrize("errstate", [dict(over="ignore", invalid="ignore"), dict(over="raise")])
def test_adam_helper_keeps_the_callers_floating_point_error_state(errstate):
    # numpy's error state does not carry into a new thread; g * g overflows
    # in the helper's half alone, which must ignore or raise it as the caller says
    dims = (2500, 64, 200)
    grads = ModelParams.zeros(*dims)
    size = grads.flat.size
    grads.flat[: size // 2] = 1e300
    results = []
    with Helper("adam-helper") as helper:
        for h in (None, helper):
            params = init_model(*dims, 47)
            state = init_optimizer_state(params, TrainConfig())
            with warnings.catch_warnings(), np.errstate(**errstate):
                warnings.simplefilter("error")
                if errstate["over"] == "raise":
                    with pytest.raises(FloatingPointError, match="overflow"):
                        step(params, grads, state, TrainConfig(), h)
                else:
                    step(params, grads, state, TrainConfig(), h)
            results.append(params.flat.tobytes())
        # a step that raised leaves nothing behind for the next one
        fresh = init_model(*dims, 47)
        step(fresh, ModelParams.zeros(*dims), init_optimizer_state(fresh, TrainConfig()), TrainConfig(), helper)
    assert results[0] == results[1]


def test_warm_adam_step_allocates_less_than_one_flat_vector():
    # the whole-vector form peaks at three flat vectors of temporaries
    params = ModelParams.zeros(2500, 64, 200)
    grads = ModelParams(np.linspace(-1.0, 1.0, params.flat.size), *params.dims)
    cfg = TrainConfig()
    state = init_optimizer_state(params, cfg)
    with Helper("adam-helper") as helper:
        for h in (None, helper):
            step(params, grads, state, cfg, h)
            tracemalloc.start()
            try:
                step(params, grads, state, cfg, h)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < params.flat.nbytes, f"peak {peak} bytes, helper {h}"


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha, optimizer, split, queries", [
    pytest.param(1.0, "adam", False, "as-is", id="1.0-adam"),
    pytest.param(0.5, "adam", False, "as-is", id="0.5-adam"),
    pytest.param(0.5, "sgd", False, "as-is", id="0.5-sgd"),
    pytest.param(1.0, "adam", True, "as-is", id="1.0-adam-split"),
    pytest.param(0.5, "adam", True, "as-is", id="0.5-adam-split"),
    pytest.param(1.0, "adam", False, "ragged", id="1.0-adam-ragged"),
    pytest.param(0.5, "adam", False, "ragged", id="0.5-adam-ragged"),
    pytest.param(0.5, "sgd", False, "ragged", id="0.5-sgd-ragged"),
    pytest.param(1.0, "adam", False, "unk", id="1.0-adam-unk"),
    pytest.param(0.5, "adam", False, "unk", id="0.5-adam-unk"),
])
def test_train_equals_backward_and_step_per_batch(small_world, request, alpha, optimizer, split, queries):
    # with split, train() steps with a helper and the loop below without one;
    # ragged queries of 1 to 12 tokens make padded batches, and unk queries
    # send every token's embedding gradient to the one <unk> row
    threads = request.getfixturevalue("adam_split") if split else []
    _, corpus, train_q, _ = small_world
    if queries == "ragged":
        train_q = [QueryExample(q.qid, q.tokens[: 1 + i % 12], q.gold_docid) for i, q in enumerate(train_q)]
        assert len({len(q.tokens) for q in train_q}) == 12
    elif queries == "unk":
        train_q = unk_batch(train_q)
    cfg = TrainConfig(alpha=alpha, k=5, epochs=2, batch_size=16, seed=3, optimizer=optimizer, lr=0.01)
    assert len(train_q) % cfg.batch_size, "the last batch should be a short one"
    got, history = train(corpus, train_q, cfg)

    params = init_model(corpus.vocab.size, cfg.dim, corpus.num_docs, cfg.seed)
    state = init_optimizer_state(params, cfg)
    for epoch in range(cfg.epochs):
        order = list(range(len(train_q)))
        Xoshiro256StarStar(mix_seed(cfg.seed, epoch)).shuffle(order)
        ce_sum = div_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_q[i] for i in order[start : start + cfg.batch_size]]
            breakdown, grads = backward(params, batch, cfg)
            step(params, grads, state, cfg)
            ce_sum += breakdown.ce * len(batch)
            div_sum += breakdown.diversity * len(batch)
        assert history[epoch].ce == ce_sum / len(train_q)
        assert history[epoch].diversity == div_sum / len(train_q)
    assert got.flat.tobytes() == params.flat.tobytes()
    assert ("adam-helper" in threads) == split


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_history_total_is_the_loss_mix_of_its_ce_and_diversity(small_world, alpha):
    _, corpus, train_q, _ = small_world
    _, history = train(corpus, train_q, TrainConfig(alpha=alpha, k=5, epochs=2, batch_size=16, seed=3))
    for row in history:
        assert row.total == alpha * row.ce + (1.0 - alpha) * row.diversity


def test_train_is_deterministic(small_world):
    _, corpus, train_q, _ = small_world
    cfg = TrainConfig(alpha=0.5, k=5, epochs=2, batch_size=16, seed=3)
    p1, h1 = train(corpus, train_q, cfg)
    p2, h2 = train(corpus, train_q, cfg)
    for a, b in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)
    assert h1 == h2


def test_train_alpha_one_vs_nearly_one(small_world):
    _, corpus, train_q, _ = small_world
    base = dict(k=5, epochs=1, batch_size=16, seed=3)
    _, h_naive = train(corpus, train_q, TrainConfig(alpha=1.0, **base))
    _, h_mixed = train(corpus, train_q, TrainConfig(alpha=0.999999, **base))
    assert h_naive[-1].diversity == 0.0
    assert h_mixed[-1].diversity != 0.0
    assert h_naive[-1].total != h_mixed[-1].total


def test_train_rejects_bad_configs(small_world):
    _, corpus, train_q, _ = small_world
    with pytest.raises(InvalidConfig):
        train(corpus, train_q, TrainConfig(k=1))
    with pytest.raises(InvalidConfig):
        train(corpus, train_q, TrainConfig(alpha=1.5))
    # K is read only by the diversity term, so only alpha < 1 bounds it by N
    with pytest.raises(InvalidConfig):
        train(corpus, train_q, TrainConfig(alpha=0.5, k=corpus.num_docs + 1))
    # an empty query set is not a configuration but missing input, as in eval and rerank
    with pytest.raises(EmptyRun, match="no queries"):
        train(corpus, [], TrainConfig())
    for lr in (math.nan, math.inf):
        with pytest.raises(InvalidConfig):
            train(corpus, train_q, TrainConfig(lr=lr))


def test_alpha_one_trains_alike_with_any_k(small_world):
    # alpha == 1 never takes a top-K, so a K above N trains as K = 2 does
    _, corpus, train_q, _ = small_world
    runs = [train(corpus, train_q, TrainConfig(alpha=1.0, k=k, epochs=2, batch_size=16, seed=3))
            for k in (2, corpus.num_docs + 3)]
    (p_small, h_small), (p_big, h_big) = runs
    assert p_small.flat.tobytes() == p_big.flat.tobytes()
    assert h_small == h_big


def test_train_nonfinite_diagnostic_names_epoch(small_world):
    _, corpus, train_q, _ = small_world
    cfg = TrainConfig(alpha=1.0, k=5, epochs=2, batch_size=16, seed=3, optimizer="sgd", lr=1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteGradient, match=r"epoch \d+ batch \d+"):
        train(corpus, train_q, cfg)


def test_train_joins_its_adam_helper_on_return_and_on_error(small_world, adam_split):
    _, corpus, train_q, _ = small_world
    before = threading.active_count()
    train(corpus, train_q, TrainConfig(k=5, epochs=1, batch_size=16, seed=3))
    assert "adam-helper" in adam_split
    assert threading.active_count() == before
    adam_split.clear()
    cfg = TrainConfig(k=5, epochs=2, batch_size=16, seed=3, lr=1e300)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteGradient):
        train(corpus, train_q, cfg)
    assert "adam-helper" in adam_split
    assert threading.active_count() == before


def test_an_error_in_the_adam_helper_is_raised_by_train_which_joins_it(small_world, adam_split, monkeypatch):
    train_module = importlib.import_module("ddsi.train")
    adam_chunks = train_module._adam_chunks

    def failing_in_the_helper(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper chunk failed")
        adam_chunks(*args)

    monkeypatch.setattr(train_module, "_adam_chunks", failing_in_the_helper)
    _, corpus, train_q, _ = small_world
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper chunk failed"):
        train(corpus, train_q, TrainConfig(k=5, epochs=1, batch_size=16, seed=3))
    assert adam_split == [threading.main_thread().name]  # the caller's half of the first step
    assert threading.active_count() == before


@pytest.mark.parametrize("block", [None, 7])
def test_train_hits1_blocks_match_one_shot(monkeypatch, block):
    model_module = importlib.import_module("ddsi.model")
    train_module = importlib.import_module("ddsi.train")  # the package's `train` is the function
    if block is not None:
        monkeypatch.setattr(model_module, "QUERY_BLOCK", block)
    params = init_model(40, 8, 25, 4)
    rng = Xoshiro256StarStar(12)
    num = 2 * model_module.QUERY_BLOCK + 37
    tok, lengths = kernels.pack_token_matrix([[rng.randbelow(40) for _ in range(1 + rng.randbelow(9))] for _ in range(num)])
    _, act = kernels.encode(params.embed, params.hidden_w, params.hidden_b, tok, lengths)
    logits = act @ params.cls_w.T + params.cls_b
    # about half the golds are the top docid, so the count is not trivially 0 or num
    golds = np.array([logits[i].argmax() if i % 2 else rng.randbelow(25) for i in range(num)], dtype=np.int64)
    assert num // model_module.QUERY_BLOCK > 2
    assert train_module._train_hits1(params, tok, lengths, golds) == float((logits.argmax(axis=1) == golds).mean())


def test_write_history(tmp_path):
    rows = [EpochStats(0, 1.5, 0.25, 0.875, 0.5), EpochStats(1, 1.0, 0.5, 0.75, 0.75)]
    path = tmp_path / "history.tsv"
    write_history(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch\tce\tdiversity\ttotal\ttrain_hits1"
    assert lines[1].split("\t")[0] == "0"
    assert float(lines[2].split("\t")[3]) == 0.75


class _Unformattable(float):
    def __format__(self, spec):
        raise RuntimeError("no format")


def test_write_history_that_fails_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "history.tsv"
    write_history([EpochStats(0, 1.5, 0.25, 0.875, 0.5)], path)
    old = path.read_bytes()
    rows = [EpochStats(0, 1.0, 0.5, 0.75, 0.75), EpochStats(1, _Unformattable(2.0), 0.5, 0.75, 0.75)]
    with pytest.raises(RuntimeError):
        write_history(rows, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["history.tsv"]
