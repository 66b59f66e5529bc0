import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddsi.errors import (
    CheckpointVersionMismatch,
    EmptyQuery,
    EmptyRun,
    GoldOutOfRange,
    InvalidDims,
    KOutOfRange,
    TokenOutOfRange,
)
from ddsi.model import (
    ModelParams,
    cosine,
    encode_query,
    forward,
    init_model,
    load_checkpoint,
    pack_query_set,
    save_checkpoint,
    top_k,
)
from ddsi.corpus import QueryExample
from ddsi.rng import Xoshiro256StarStar


def test_init_deterministic():
    a = init_model(10, 4, 5, 123)
    b = init_model(10, 4, 5, 123)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_init_draws_embed_hidden_cls_row_major():
    v, d, n, seed = 4, 3, 5, 11
    p = init_model(v, d, n, seed)
    rng = Xoshiro256StarStar(seed)
    bound = 1.0 / np.sqrt(d)
    for arr in (p.embed, p.hidden_w, p.cls_w):
        assert arr.ravel().tolist() == [rng.uniform(-bound, bound) for _ in range(arr.size)]
    assert not p.hidden_b.any() and not p.cls_b.any()


@pytest.mark.parametrize("dims, digest", [
    ((1101, 64, 200, 7), "47cc266b17fc1e8487fb3dd44dde718f3820da0d0fa488ddf4d7690421fa6fc6"),
    ((2501, 64, 200, 12), "beda1280c58436d3da6864088d56968eba9ff039030418e473b337928dad12af"),
    ((3, 2, 5, 0), "ad81cc169023e685b00b45c78c620b34fbb5cb0bf1442179643a5e69a74fcb0f"),
])
def test_init_model_bytes_are_pinned(dims, digest):
    # recorded from the one-draw-at-a-time fill; the standard and long-document corpora's dims
    assert hashlib.sha256(init_model(*dims).flat.tobytes()).hexdigest() == digest


def test_init_seed_changes_weights():
    a = init_model(10, 4, 5, 1)
    b = init_model(10, 4, 5, 2)
    assert not np.array_equal(a.embed, b.embed)


def test_init_biases_zero_weights_bounded():
    p = init_model(10, 4, 5, 7)
    assert np.all(p.hidden_b == 0.0)
    assert np.all(p.cls_b == 0.0)
    bound = 1.0 / np.sqrt(4)
    for arr in (p.embed, p.hidden_w, p.cls_w):
        assert np.all(np.abs(arr) <= bound)


def test_param_count():
    assert init_model(10, 4, 5, 0).param_count() == 10 * 4 + 4 * 4 + 4 + 5 * 4 + 5


def test_init_rejects_bad_dims():
    for v, d, n in ((0, 4, 5), (10, 0, 5), (10, 4, 0)):
        with pytest.raises(InvalidDims):
            init_model(v, d, n, 0)


def test_encode_zero_embeddings_gives_tanh_bias():
    p = init_model(6, 4, 3, 0)
    p.embed[:] = 0.0
    p.hidden_b[:] = np.array([0.5, -0.5, 0.0, 2.0])
    np.testing.assert_allclose(encode_query(p, [1, 2]), np.tanh(p.hidden_b), atol=1e-15)


def test_encode_single_token_pools_to_row():
    p = init_model(6, 4, 3, 1)
    expected = np.tanh(p.hidden_w @ p.embed[3] + p.hidden_b)
    np.testing.assert_allclose(encode_query(p, [3]), expected, atol=1e-15)


def test_encode_order_invariant():
    p = init_model(8, 4, 3, 2)
    np.testing.assert_array_equal(encode_query(p, [1, 5, 2, 2]), encode_query(p, [2, 1, 2, 5]))


def test_encode_rejects_empty_and_out_of_range():
    p = init_model(6, 4, 3, 0)
    with pytest.raises(EmptyQuery):
        encode_query(p, [])
    with pytest.raises(TokenOutOfRange):
        encode_query(p, [6])
    with pytest.raises(TokenOutOfRange):
        encode_query(p, [-1])


def test_pack_query_set_checks_the_whole_set():
    p = init_model(6, 4, 3, 0)
    queries = [QueryExample(qid=0, tokens=[1, 5], gold_docid=2), QueryExample(qid=1, tokens=[3], gold_docid=0)]
    tok, lengths, golds = pack_query_set(p, queries)
    assert lengths.tolist() == [2, 1] and tok[0].tolist() == [1, 5] and tok[1, 0] == 3
    assert golds.dtype == np.int64 and golds.tolist() == [2, 0]
    with pytest.raises(EmptyRun, match="no queries"):
        pack_query_set(p, [])
    for field, bad, error in (("tokens", [], EmptyQuery), ("tokens", [6], TokenOutOfRange),
                              ("gold_docid", 3, GoldOutOfRange), ("gold_docid", -1, GoldOutOfRange)):
        broken = QueryExample(**{**vars(queries[1]), field: bad})
        with pytest.raises(error):
            pack_query_set(p, [queries[0], broken])


def test_forward_zero_classifier_returns_bias():
    p = init_model(6, 4, 3, 3)
    p.cls_w[:] = 0.0
    p.cls_b[:] = np.array([0.1, -0.2, 0.3])
    np.testing.assert_allclose(forward(p, [1, 2]), p.cls_b, atol=1e-15)


def test_forward_duplicate_rows_tie():
    p = init_model(6, 4, 4, 4)
    p.cls_b[:] = 0.0
    p.cls_w[2] = p.cls_w[0]
    logits = forward(p, [1, 3])
    assert logits[0] == logits[2]


def test_forward_bias_shift_preserves_topk():
    p = init_model(6, 4, 5, 5)
    logits = forward(p, [1, 2])
    p2 = p.copy()
    p2.cls_b += 3.5
    shifted = forward(p2, [1, 2])
    np.testing.assert_allclose(shifted, logits + 3.5, atol=1e-12)
    assert top_k(logits, 3).docids() == top_k(shifted, 3).docids()


def test_softmax_uniform(one_query_loss):
    _, grads = one_query_loss(np.zeros(4), 1)
    np.testing.assert_allclose(grads.cls_b + np.eye(4)[1], np.full(4, 0.25), atol=1e-15)


def test_softmax_extreme_no_overflow(one_query_loss):
    # exp(1000) overflows, and the warning it raises is an error here
    breakdown, grads = one_query_loss([1000.0, 0.0], 0)
    assert breakdown.ce == 0.0
    np.testing.assert_allclose(grads.cls_b + [1.0, 0.0], [1.0, 0.0], atol=1e-12)


def test_softmax_log_weights(one_query_loss):
    breakdown, grads = one_query_loss(np.log([1.0, 2.0, 3.0]), 2)
    assert breakdown.ce == pytest.approx(math.log(2.0), abs=1e-12)
    np.testing.assert_allclose(grads.cls_b + [0.0, 0.0, 1.0], [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20), st.floats(min_value=-10, max_value=10))
def test_softmax_shift_invariant_and_normalized(one_query_loss, logits, shift):
    a, grads = one_query_loss(logits, 0)
    b, _ = one_query_loss(np.asarray(logits) + shift, 0)
    assert abs(grads.cls_b.sum()) <= 1e-12
    assert abs(a.ce - b.ce) <= 1e-12


def test_top_k_basic():
    out = top_k([0.1, 0.9, 0.5], 2)
    assert out.entries == [(1, 0.9), (2, 0.5)]


def test_top_k_tie_breaks_low_docid():
    out = top_k([1.0, 1.0, 1.0, 1.0, 1.0], 3)
    assert out.docids() == [0, 1, 2]


def test_top_k_full_is_permutation():
    logits = [0.3, 0.1, 0.4, 0.1, 0.5]
    assert sorted(top_k(logits, 5).docids()) == [0, 1, 2, 3, 4]


def test_top_k_rejects_bad_k():
    with pytest.raises(KOutOfRange):
        top_k([1.0, 2.0], 0)
    with pytest.raises(KOutOfRange):
        top_k([1.0, 2.0], 3)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=15), st.data())
def test_top_k_prefix_property(logits, data):
    k = data.draw(st.integers(min_value=1, max_value=len(logits)))
    full = top_k(logits, len(logits)).entries
    assert top_k(logits, k).entries == full[:k]


def test_cosine_identity_orthogonal_and_known():
    assert cosine([1.0, 2.0, -3.0], [1.0, 2.0, -3.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)


def test_cosine_tiny_and_huge_vectors_stay_in_range():
    assert cosine([1.0, 0.0], [1.0582240700692009e-158, 0.0]) == 1.0
    assert cosine([3e-170, 4e-170], [3e-170, 4e-170]) == pytest.approx(1.0, abs=1e-15)
    assert cosine([3e170, 4e170], [4e170, 3e170]) == pytest.approx(0.96, abs=1e-15)


def test_cosine_zero_vector():
    # a zero-norm vector has cosine 0 with every vector, itself included
    assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0
    assert cosine([1.0, 0.0], [0.0, 0.0]) == 0.0
    assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=8, max_size=8),
)
# the squared norm of the second vector underflows to a subnormal; before
# the exact rescale in cosine() this gave 1.0000000032477718
@example([1.0, 0.0], [1.0582240700692009e-158, 0.0])
def test_cosine_symmetric(u, v):
    v = v[: len(u)]
    assert cosine(u, v) == cosine(v, u)
    assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = init_model(10, 4, 5, 7)
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_checkpoint(p, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.dims == p.dims
    # float32 storage: values agree to f32 precision
    np.testing.assert_allclose(loaded.embed, p.embed, atol=1e-6)


def test_checkpoint_bytes_are_header_then_arrays_in_canonical_order(tmp_path):
    v, d, n = 5, 3, 4
    p = init_model(v, d, n, 0)
    start = 0
    for arr in p.arrays():
        # distinct values, each exact in f32
        arr[...] = (np.arange(start, start + arr.size).reshape(arr.shape) - 20) * 0.125
        start += arr.size
    path = tmp_path / "c.bin"
    save_checkpoint(p, path)
    body = b"".join(a.astype("<f4").tobytes() for a in (p.embed, p.hidden_w, p.hidden_b, p.cls_w, p.cls_b))
    assert path.read_bytes() == b"DDSI" + struct.pack("<IIII", 1, v, d, n) + body
    for got, want in zip(load_checkpoint(path).arrays(), p.arrays()):
        assert np.array_equal(got, want)


def test_checkpoint_write_that_fails_midway_keeps_the_old_file(tmp_path):
    class NoBytes(np.ndarray):
        def tobytes(self, order="C"):
            raise RuntimeError("no body")

    class Unwritable:
        def astype(self, dtype):
            return np.zeros(p.flat.size, dtype=dtype).view(NoBytes)

    path = tmp_path / "checkpoint.bin"
    p = init_model(6, 3, 4, 0)
    save_checkpoint(p, path)
    old = path.read_bytes()
    broken = ModelParams.zeros(*p.dims)
    broken.flat = Unwritable()  # the header is written before the body fails
    with pytest.raises(RuntimeError):
        save_checkpoint(broken, path)
    assert path.read_bytes() == old
    assert [q.name for q in tmp_path.iterdir()] == ["checkpoint.bin"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 17, -1])
def test_checkpoint_rejects_non_finite(tmp_path, value, index):
    p = init_model(6, 3, 4, 0)
    path = tmp_path / "bad.bin"
    save_checkpoint(p, path)
    # save_checkpoint refuses such a value, so it is written into the file by hand
    blob = bytearray(path.read_bytes())
    offset = 20 + 4 * (index % p.flat.size)
    blob[offset : offset + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionMismatch, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
def test_save_checkpoint_refuses_a_value_float32_cannot_hold(tmp_path, value):
    # 1e39 is finite in float64 and overflows to an infinity in float32
    p = init_model(6, 3, 4, 0)
    p.flat[17] = value
    with pytest.raises(CheckpointVersionMismatch, match="float32"):
        save_checkpoint(p, tmp_path / "checkpoint.bin")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_same_params_same_bytes(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(init_model(10, 4, 5, 7), a)
    save_checkpoint(init_model(10, 4, 5, 7), b)
    assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    save_checkpoint(init_model(6, 3, 4, 0), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionMismatch):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "bad.bin"
    save_checkpoint(init_model(6, 3, 4, 0), path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionMismatch):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "short.bin"
    save_checkpoint(init_model(6, 3, 4, 0), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointVersionMismatch):
        load_checkpoint(path)


def test_model_params_shape_validation():
    v, d, n = 4, 3, 5
    size = v * d + d * d + d + n * d + n
    assert ModelParams(np.zeros(size), v, d, n).param_count() == size
    with pytest.raises(InvalidDims):
        ModelParams(np.zeros(size - 1), v, d, n)
    with pytest.raises(InvalidDims):
        ModelParams(np.zeros(size, dtype=np.float32), v, d, n)


def test_model_params_arrays_are_views_of_flat():
    p = init_model(4, 3, 5, 0)
    np.testing.assert_array_equal(np.concatenate([a.ravel() for a in p.arrays()]), p.flat)
    p.cls_w[2] = 100.0
    assert (p.flat == 100.0).sum() == 3
    q = p.copy()
    q.flat[:] = 0.0
    assert (p.flat == 100.0).sum() == 3
