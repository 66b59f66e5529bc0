"""Hand-made cases for the benchmark's reference checks.

    python3 -m pytest perfbench/test_checks.py
"""

import struct
import zlib

import numpy as np
import pytest

import checks
import spans


def test_lcs_hand_values():
    assert checks.lcs("ABCBDAB", "BDCABA") == 4
    assert checks.lcs([1, 2, 3], [1, 2, 3]) == 3
    assert checks.lcs([1, 2, 3], [4, 5]) == 0
    assert checks.lcs([], [1]) == 0
    # 130 tokens: more than two 64-bit words of a bit-parallel LCS
    a = list(range(130))
    assert checks.lcs(a, a[::2] + [999]) == 65


def test_rouge_and_homogenization():
    # LCS 2 of lengths 3 and 2: P = 2/2, R = 2/3, F1 = 0.8
    assert checks.rouge_l([1, 2, 3], [1, 3]) == pytest.approx(0.8)
    docs = [[1, 2, 3], [1, 2, 3], [4, 5, 6]]
    # pairs: identical (1.0), disjoint (0.0) twice
    assert checks.homogenization(docs) == pytest.approx(1.0 / 3.0)


def test_ngd_hand_value():
    # 1-grams 2/4, 2-grams {12, 21} 2/3, 3-grams {121, 212} 2/2, 4-grams 1/1
    assert checks.ngd([[1, 2, 1, 2]]) == pytest.approx(0.5 + 2 / 3 + 1 + 1)
    # n-grams never cross documents: [1] and [1] give only 1-grams, 1/2
    assert checks.ngd([[1], [1]]) == pytest.approx(0.5)


def test_compression_ratio_is_deflate_level_6():
    texts = ["a b c", "a b c"]
    raw = b"a b c\na b c"
    assert checks.compression_ratio(texts) == len(raw) / len(zlib.compress(raw, 6))


def test_relevance_hand_values():
    rankings = {0: [5, 1, 2], 1: [3, 4, 0], 2: [7, 8, 9]}
    golds = [5, 0, 1]  # ranks 1, 3, absent
    got = checks.relevance(rankings, golds)
    assert got == {"hits1": 1 / 3, "hits5": 2 / 3, "hits10": 2 / 3, "mrr10": (1.0 + 1.0 / 3.0) / 3}


def _eval_dir(tmp_path, rouge_l):
    # query 0 retrieves docids 0, 1, 2 (gold 0 at rank 1), query 1 docids 2, 0 (gold 1 absent)
    corpus = checks.Corpus(["a b c", "a b c", "d e f"])
    (tmp_path / "run.tsv").write_text("0\t0\t1\t3.0\n0\t1\t2\t2.0\n0\t2\t3\t1.0\n1\t2\t1\t5.0\n1\t0\t2\t4.0\n")
    cr = (checks.compression_ratio(["a b c", "a b c", "d e f"]) + checks.compression_ratio(["d e f", "a b c"])) / 2
    # per-set NGD: 6/9 + 4/6 + 2/3 = 2 and 1 + 1 + 1 = 3
    row = ["test", "0.5", "0.5", "0.5", "0.5", "0.5", repr(rouge_l), "2.5", repr(cr), "2"]
    (tmp_path / "report.tsv").write_text(
        "dataset\talpha\thits1\thits5\thits10\tmrr10\trouge_l\tngd\tcr\tnum_queries\n" + "\t".join(row) + "\n")
    return corpus


def test_eval_problems_checks_the_homogenization_mean(tmp_path):
    # per-set homogenization: 1/3 (one identical pair of three) and 0, mean 1/6
    corpus = _eval_dir(tmp_path, 1 / 6)
    assert checks.eval_problems(tmp_path, corpus, [0, 1], [], checks.homogenization) == []
    corpus = _eval_dir(tmp_path, 1 / 3)
    (problem,) = checks.eval_problems(tmp_path, corpus, [0, 1], [], checks.homogenization)
    assert "mean rouge_l recomputed 0.1666" in problem


def test_mmr_greedy_prefers_diverse_second_pick():
    q = np.array([1.0, 0.0])
    # relevance 0.8, ~0.778 (a near-copy of docid 0), 0.6 (orthogonal to docid 0)
    vecs = {0: np.array([0.8, 0.6]), 1: np.array([0.78, 0.63]), 2: np.array([0.6, -0.8])}
    # lambda 1 is plain relevance order
    assert [d for d, _ in checks.mmr_greedy(checks.Candidates(q, vecs), 1.0, 3)] == [0, 1, 2]
    # at lambda 0.5 the near-copy loses to docid 2: 0.5 * 0.6 - 0.5 * 0 = 0.3
    picks = checks.mmr_greedy(checks.Candidates(q, vecs), 0.5, 2)
    assert [d for d, _ in picks] == [0, 2]
    assert picks[1][1] == pytest.approx(0.3)


def test_mmr_greedy_ties_go_to_smaller_docid():
    q = np.array([1.0, 0.0])
    vecs = {4: np.array([2.0, 0.0]), 3: np.array([1.0, 0.0])}
    assert checks.mmr_greedy(checks.Candidates(q, vecs), 1.0, 1)[0][0] == 3


def test_read_checkpoint_hand_blob(tmp_path):
    v, d, n = 2, 1, 3
    values = np.arange(v * d + d * d + d + n * d + n, dtype="<f4")
    path = tmp_path / "c.bin"
    path.write_bytes(b"DDSI" + struct.pack("<IIII", 1, v, d, n) + values.tobytes())
    dims, arrays = checks.read_checkpoint(path)
    assert dims == (2, 1, 3)
    assert [a.shape for a in arrays] == [(2, 1), (1, 1), (1,), (3, 1), (3,)]
    assert arrays[3][:, 0].tolist() == [4.0, 5.0, 6.0]
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        checks.read_checkpoint(path)


def test_corpus_ids_follow_first_appearance():
    corpus = checks.Corpus(["b a b", "c a"])
    assert corpus.tokens == [[1, 2, 1], [3, 2]]
    assert corpus.tokenize("a zz") == [2, 0]
    assert corpus.vocab_size == 4


def test_history_problems(tmp_path):
    path = tmp_path / "history.tsv"
    path.write_text("epoch\tce\tdiversity\ttotal\ttrain_hits1\n0\t1.5\t0\t1.5\t0.25\n1\tnan\t0\tnan\t0.5\n")
    assert checks.history_problems(path, 2) == [f"{path}: non-finite loss at epoch 1"]
    assert checks.history_problems(path, 3)


def test_self_times_subtract_children():
    rec = spans.Recorder()
    rec.spans = [["cli.x", 0.0, 10.0, -1], ["train.a", 1.0, 4.0, 0], ["kernels.b", 2.0, 3.0, 1], ["model.c", 5.0, 6.0, 0]]
    assert rec.self_times() == [6.0, 2.0, 1.0, 1.0]
    (row,) = spans.command_breakdown(rec)
    assert row == {"command": "cli.x", "wall_s": 10.0, "self_s": {"cli": 6.0, "train": 2.0, "kernels": 1.0, "model": 1.0}}


def test_uncovered_problems_flags_time_outside_the_layers():
    def row(command, wall, cli):
        return {"command": command, "wall_s": wall, "self_s": {"cli": cli, "kernels": wall - cli}}

    # two evals with 0.15 s of cli self time in 2 s: 7.5 %, within 10 %
    assert spans.uncovered_problems([row("cli.eval", 1.0, 0.1), row("cli.eval", 1.0, 0.05)]) == []
    # a short command is all cli self time, but under the 0.05 s floor
    assert spans.uncovered_problems([row("cli.report", 0.003, 0.003)]) == []
    # 0.3 s of 2 s is 15 %: the wrappers miss part of the command
    (problem,) = spans.uncovered_problems([row("cli.rerank", 1.0, 0.1), row("cli.rerank", 1.0, 0.2)])
    assert problem.startswith("cli.rerank: 0.300 s of its 2.000 s")


def test_per_call_tail_leaves_ten_samples_beyond():
    stats = spans.per_call([i / 1000.0 for i in range(1, 101)])  # 1..100 ms
    assert stats["median"] == pytest.approx(50.5)
    assert (stats["tail_pct"], stats["tail"], stats["n"]) == (90.0, pytest.approx(90.0), 100)
    few = spans.per_call([0.001] * 39)
    assert few["tail"] == few["median"] and few["tail_pct"] == 50.0


def test_wrap_records_nested_spans_and_counts():
    import types

    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    rec = spans.Recorder()
    rec.wrap(mod, "inner", "kernels.inner", lambda c, a, k, r: c.update({"calls": 1}))
    rec.wrap(mod, "outer", "train.outer")
    assert mod.outer(1) == 4 and not rec.spans  # off: no spans
    rec.on = True
    assert mod.outer(1) == 4
    assert [(s[0], s[3]) for s in rec.spans] == [("train.outer", -1), ("kernels.inner", 0)]
    assert rec.counts["calls"] == 1
    rec.unwrap_all()
    assert not hasattr(mod.outer, "__wrapped__") and not hasattr(mod.inner, "__wrapped__")
    assert mod.outer(1) == 4 and len(rec.spans) == 2
