import hashlib
import json
import struct
import threading

import numpy as np
import pytest

from ddsi.cli import main
from ddsi.corpus import load_corpus, load_queries
from ddsi.metrics import read_report_tsv, read_run
from ddsi.mmr import MmrConfig, mmr_rerank
from ddsi.model import encode_query, init_model, load_checkpoint, save_checkpoint

from oracles import oracle_mmr


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


GEN_SMALL = [
    "--topics", "3", "--docs-per-topic", "4", "--vocab-per-topic", "20",
    "--shared-vocab", "10", "--doc-len", "30", "--queries-per-doc", "4",
    "--query-len", "10", "--seed", "5",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated data plus a small trained checkpoint, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["generate", *GEN_SMALL, "--out", str(data)]) == 0
    run = root / "model"
    assert main([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
        "--alpha", "1.0", "--k", "4", "--epochs", "3", "--batch-size", "8", "--seed", "1",
        "--out", str(run),
    ]) == 0
    return root, data, run


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_outputs_and_manifest(workspace):
    _, data, _ = workspace
    for name in ("corpus.jsonl", "train.tsv", "test.tsv", "manifest.json"):
        assert (data / name).exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["num_topics"] == 3
    assert str(data / "corpus.jsonl") in manifest["outputs"]


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", *GEN_SMALL, "--out", str(a)]) == 0
    assert main(["generate", *GEN_SMALL, "--out", str(b)]) == 0
    for name in ("corpus.jsonl", "train.tsv", "test.tsv"):
        assert sha(a / name) == sha(b / name)


@pytest.mark.parametrize(
    "argv, digests",
    [
        (
            ["--seed", "7"],
            {
                "corpus.jsonl": "d0bc895be50bd62f8208f43100cd9d29493fdb3bb99ab1a2077aa2bdbad13bdf",
                "train.tsv": "12e04dfa013a2284115cd792fd9aa8df41c8e2d64a965395171cd69d4324e7da",
                "test.tsv": "b45446d628e51d93efe23b87f482e91d47904aff5d706d5bc51c0d85191a520a",
            },
        ),
        (
            ["--doc-len", "160", "--vocab-per-topic", "120", "--seed", "12"],
            {
                "corpus.jsonl": "1b175eb6233b3698ce8a104e01cf50cad84795ff91ec1f0234ad205d71fb5c96",
                "train.tsv": "4067cb1150ccf11fa9139f0b898e11620dde89da3a37bd8989b4aafb1701c116",
                "test.tsv": "797c122f72758845279e7783b556a0d467801ef23516565652eddea6297b3581",
            },
        ),
    ],
)
def test_generate_bytes_are_pinned(tmp_path, argv, digests):
    assert main(["generate", *argv, "--out", str(tmp_path)]) == 0
    assert {name: sha(tmp_path / name) for name in digests} == digests


def test_generate_requires_out():
    assert main(["generate", "--topics", "2"]) == 2


def test_generate_rejects_bad_near_dup(tmp_path):
    assert main(["generate", "--near-dup", "1.5", "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_outputs(workspace):
    _, _, run = workspace
    assert (run / "checkpoint.bin").exists()
    history = (run / "history.tsv").read_text().splitlines()
    assert history[0] == "epoch\tce\tdiversity\ttotal\ttrain_hits1"
    assert len(history) == 4
    # alpha=1: diversity column all zeros
    assert all(line.split("\t")[2] == "0" for line in history[1:])
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 1.0
    assert len(manifest["inputs"]) == 2


def test_train_rejects_k_one(workspace, tmp_path):
    _, data, _ = workspace
    code = main([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
        "--alpha", "0.5", "--k", "1", "--out", str(tmp_path / "m"),
    ])
    assert code == 2


def test_train_deterministic(workspace, tmp_path):
    _, data, _ = workspace
    args = [
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
        "--alpha", "0.5", "--k", "4", "--epochs", "2", "--batch-size", "8", "--seed", "9",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert sha(a / "checkpoint.bin") == sha(b / "checkpoint.bin")
    assert sha(a / "history.tsv") == sha(b / "history.tsv")


def test_train_dim_sets_the_checkpoint_width_and_eval_reads_it(workspace, tmp_path):
    _, data, run = workspace
    out = tmp_path / "m"
    assert main([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
        "--k", "4", "--epochs", "1", "--batch-size", "8", "--dim", "8", "--out", str(out),
    ]) == 0
    _, _, vocab_size, dim, num_docs = struct.unpack("<4sIIII", (out / "checkpoint.bin").read_bytes()[:20])
    default = load_checkpoint(run / "checkpoint.bin")
    assert (vocab_size, dim, num_docs) == (default.vocab_size, 8, default.num_docs)
    assert json.loads((out / "manifest.json").read_text())["config"]["dim"] == 8
    assert main([
        "eval", "--checkpoint", str(out / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--out", str(tmp_path / "eval"),
    ]) == 0


def test_train_rejects_dim_zero(workspace, tmp_path):
    _, data, _ = workspace
    code = main([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
        "--dim", "0", "--out", str(tmp_path / "m"),
    ])
    assert code == 2
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_non_finite_lr(workspace, tmp_path, lr):
    _, data, _ = workspace
    code = main([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
        "--lr", lr, "--out", str(tmp_path / "m"),
    ])
    assert code == 2
    assert not (tmp_path / "m").exists()


def test_train_missing_corpus(tmp_path):
    code = main([
        "train", "--corpus", str(tmp_path / "none.jsonl"), "--queries", str(tmp_path / "q.tsv"),
        "--out", str(tmp_path / "m"),
    ])
    assert code == 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_outputs(workspace, tmp_path):
    _, data, run = workspace
    out = tmp_path / "eval"
    code = main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--cutoff", "10", "--alpha", "1.0",
        "--dataset", "tiny", "--out", str(out),
    ])
    assert code == 0
    rows = read_report_tsv(out / "report.tsv")
    assert rows[0]["dataset"] == "tiny"
    assert rows[0]["alpha"] == 1.0
    assert 0.0 <= rows[0]["hits10"] <= 1.0
    table = (out / "report.txt").read_text()
    assert table.splitlines()[0].split()[0] == "Dataset"
    run_rows = read_run(out / "run.tsv")
    assert run_rows and all(len(r.entries) == 10 for r in run_rows)


def test_an_error_in_the_eval_helper_is_raised_by_ddsi_eval_which_joins_it(workspace, tmp_path, failing_eval_helper):
    _, data, run = workspace
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper set failed"):
        main([
            "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
            "--queries", str(data / "test.tsv"), "--out", str(tmp_path / "e"),
        ])
    assert threading.active_count() == before
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_eval_rejects_dataset_label_with_tab_or_line_break(workspace, tmp_path, char):
    # report.tsv could not hold such a label: its own reader would reject the file
    _, data, run = workspace
    out = tmp_path / "e"
    base = ["eval", "--checkpoint", str(run / "checkpoint.bin"), "--queries", str(data / "test.tsv"), "--out", str(out)]
    assert main([*base, "--corpus", str(data / "corpus.jsonl"), "--dataset", f"syn{char}th"]) == 2
    assert not out.exists()
    # the default label, the corpus stem, is checked too
    corpus = tmp_path / f"syn{char}th.jsonl"
    corpus.write_bytes((data / "corpus.jsonl").read_bytes())
    assert main([*base, "--corpus", str(corpus)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_alpha(workspace, tmp_path, capsys, alpha):
    # report.tsv's alpha is a sort key, so it must be finite
    _, data, run = workspace
    out = tmp_path / "e"
    code = main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), f"--alpha={alpha}", "--out", str(out),
    ])
    assert code == 2
    assert f"--alpha {alpha} is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_corrupt_checkpoint(workspace, tmp_path):
    _, data, run = workspace
    bad = tmp_path / "bad.bin"
    blob = bytearray((run / "checkpoint.bin").read_bytes())
    blob[:4] = b"XXXX"
    bad.write_bytes(bytes(blob))
    code = main([
        "eval", "--checkpoint", str(bad), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--out", str(tmp_path / "e"),
    ])
    assert code == 1


def test_eval_cutoff_too_large(workspace, tmp_path):
    _, data, run = workspace
    code = main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--cutoff", "100", "--out", str(tmp_path / "e"),
    ])
    assert code == 2


def test_eval_cutoff_above_n_names_the_flag(workspace, tmp_path, capsys):
    _, data, run = workspace
    out = tmp_path / "e"
    code = main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--cutoff", "13", "--out", str(out),
    ])
    assert code == 2
    assert "--cutoff 13 exceeds N=12" in capsys.readouterr().err
    assert not out.exists()


def test_eval_cutoff_below_report_depth(workspace, tmp_path):
    # N = 12: the report's Hits@10 and MRR@10 need a run 10 deep
    _, data, run = workspace
    code = main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--cutoff", "3", "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert not (tmp_path / "e" / "report.tsv").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_eval_rejects_non_finite_checkpoint(workspace, tmp_path, value):
    _, data, run = workspace
    bad = tmp_path / "bad.bin"
    blob = bytearray((run / "checkpoint.bin").read_bytes())
    blob[20 + 4 * 5 : 20 + 4 * 6] = np.array([value], dtype="<f4").tobytes()
    bad.write_bytes(bytes(blob))
    code = main([
        "eval", "--checkpoint", str(bad), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--out", str(tmp_path / "e"),
    ])
    assert code == 1


def mismatched_checkpoint(workspace, tmp_path, dv, dn):
    """A checkpoint whose vocabulary and docid counts differ from the corpus's by dv and dn."""
    _, _, run = workspace
    v, d, n = load_checkpoint(run / "checkpoint.bin").dims
    path = tmp_path / "other.bin"
    save_checkpoint(init_model(v + dv, d, n + dn, 3), path)
    return path


@pytest.mark.parametrize("dv, dn", [(-3, 0), (0, 5), (0, -1)])
def test_eval_rejects_checkpoint_of_another_corpus(workspace, tmp_path, dv, dn):
    _, data, _ = workspace
    out = tmp_path / "e"
    code = main([
        "eval", "--checkpoint", str(mismatched_checkpoint(workspace, tmp_path, dv, dn)),
        "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "test.tsv"), "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dv, dn", [(-3, 0), (0, 5), (0, -1)])
def test_rerank_rejects_checkpoint_of_another_corpus(workspace, tmp_path, dv, dn):
    _, data, _ = workspace
    out = tmp_path / "r"
    code = main([
        "rerank", "--checkpoint", str(mismatched_checkpoint(workspace, tmp_path, dv, dn)),
        "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "test.tsv"),
        "--m", "4", "--pool", "6", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()


def test_rerank_without_queries_writes_nothing(workspace, tmp_path):
    _, data, run = workspace
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    out = tmp_path / "r"
    code = main([
        "rerank", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(empty), "--m", "4", "--pool", "6", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()


def test_rerank_pool_smaller_than_m(workspace, tmp_path):
    _, data, run = workspace
    code = main([
        "rerank", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--pool", "4", "--m", "8", "--out", str(tmp_path / "r"),
    ])
    assert code == 2


def test_rerank_pool_above_n_names_the_flag(workspace, tmp_path, capsys):
    _, data, run = workspace
    out = tmp_path / "r"
    code = main([
        "rerank", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--m", "4", "--pool", "13", "--out", str(out),
    ])
    assert code == 2
    assert "--pool 13 exceeds N=12" in capsys.readouterr().err
    assert not out.exists()


def test_rerank_scores_a_zeroed_classifier_row_as_similarity_zero(workspace, tmp_path):
    _, data, run = workspace
    params = load_checkpoint(run / "checkpoint.bin")
    params.cls_w[5] = 0.0
    ckpt = tmp_path / "zero_row.bin"
    save_checkpoint(params, ckpt)
    n = params.num_docs
    out = tmp_path / "r"
    assert main([
        "rerank", "--checkpoint", str(ckpt), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--lambda", "0.5", "--m", str(n), "--pool", str(n), "--out", str(out),
    ]) == 0
    corpus = load_corpus(data / "corpus.jsonl")
    queries = load_queries(data / "test.tsv", corpus)
    got = read_run(out / "run.tsv")
    assert [r.qid for r in got] == [q.qid for q in queries]
    candidates = [(d, params.cls_w[d]) for d in range(n)]
    for r, q in zip(got, queries):
        query = encode_query(params, q.tokens)
        assert r.docids() == mmr_rerank(query, candidates, MmrConfig(lambda_=0.5, m=n, pool=n)).docids()
        assert r.docids() == oracle_mmr(query.tolist(), [(d, v.tolist()) for d, v in candidates], 0.5, n)


def test_rerank_deterministic(workspace, tmp_path):
    _, data, run = workspace
    args = [
        "rerank", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--lambda", "0.5", "--m", "4", "--pool", "6",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert sha(a / "run.tsv") == sha(b / "run.tsv")


def test_rerank_defaults_diversify_beyond_plain_top10(tmp_path):
    # standard corpus; the default pool is wider than m, so MMR can swap in
    # documents from outside the plain top-10
    data, model = tmp_path / "data", tmp_path / "model"
    assert main(["generate", "--out", str(data)]) == 0
    base = ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "test.tsv")]
    assert main(["train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "train.tsv"),
                 "--epochs", "3", "--out", str(model)]) == 0
    ckpt = str(model / "checkpoint.bin")
    assert main(["eval", "--checkpoint", ckpt, *base, "--out", str(tmp_path / "eval")]) == 0
    assert main(["rerank", "--checkpoint", ckpt, *base, "--out", str(tmp_path / "rerank")]) == 0
    plain = read_run(tmp_path / "eval" / "run.tsv")
    mmr = read_run(tmp_path / "rerank" / "run.tsv")
    assert [r.qid for r in plain] == [r.qid for r in mmr]
    assert all(len(r.entries) == 10 for r in mmr)
    assert any(set(a.docids()) != set(b.docids()) for a, b in zip(plain, mmr))


def test_rerank_lambda_one_matches_eval_run_on_normalized_checkpoint(workspace, tmp_path):
    _, data, run = workspace
    # bias-free, row-normalized checkpoint: cosine order equals logit order
    params = load_checkpoint(run / "checkpoint.bin")
    params.cls_b[:] = 0.0
    params.cls_w /= np.linalg.norm(params.cls_w, axis=1, keepdims=True)
    ckpt = tmp_path / "norm.bin"
    save_checkpoint(params, ckpt)

    eval_out = tmp_path / "eval"
    rerank_out = tmp_path / "rerank"
    base = ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "test.tsv")]
    assert main(["eval", "--checkpoint", str(ckpt), *base, "--cutoff", "10", "--out", str(eval_out)]) == 0
    assert main(["rerank", "--checkpoint", str(ckpt), *base, "--lambda", "1", "--m", "10", "--pool", "10", "--out", str(rerank_out)]) == 0

    eval_run = read_run(eval_out / "run.tsv")
    rerank_run = read_run(rerank_out / "run.tsv")
    for a, b in zip(eval_run, rerank_run):
        assert a.qid == b.qid
        assert [d for d, _ in a.entries] == [d for d, _ in b.entries]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_merges_and_sorts(workspace, tmp_path, capsys):
    _, data, run = workspace
    paths = []
    for alpha in ("0.25", "1.0", "0.5", "0.75"):
        out = tmp_path / f"eval{alpha}"
        assert main([
            "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
            "--queries", str(data / "test.tsv"), "--cutoff", "10", "--alpha", alpha,
            "--dataset", "synth", "--out", str(out),
        ]) == 0
        paths.append(str(out / "report.tsv"))
    merged = tmp_path / "merged.tsv"
    capsys.readouterr()  # drain the eval tables
    assert main(["report", *paths, "--out", str(merged)]) == 0
    captured = capsys.readouterr().out
    lines = [ln for ln in captured.splitlines() if ln.strip()]
    alphas = [float(ln.split()[1]) for ln in lines[2:6]]
    assert alphas == [1.0, 0.75, 0.5, 0.25]
    rows = read_report_tsv(merged)
    assert [r["alpha"] for r in rows] == [1.0, 0.75, 0.5, 0.25]


def test_report_order_does_not_depend_on_argument_order(workspace, tmp_path, capsys):
    _, data, run = workspace
    paths = []
    for alpha in (["--alpha", "1.0"], [], ["--alpha", "0.5"]):
        out = tmp_path / f"eval{len(paths)}"
        assert main([
            "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
            "--queries", str(data / "test.tsv"), *alpha, "--out", str(out),
        ]) == 0
        paths.append(str(out / "report.tsv"))
    capsys.readouterr()  # drain the eval tables
    printed, merged = [], []
    for order in ([0, 1, 2], [1, 2, 0]):
        out = tmp_path / f"merged{len(merged)}.tsv"
        assert main(["report", *[paths[i] for i in order], "--out", str(out)]) == 0
        printed.append(capsys.readouterr().out)
        merged.append(out.read_bytes())
    assert printed[0] == printed[1]
    assert merged[0] == merged[1]
    # a hand-edited alpha of nan has no place in that order
    text = (tmp_path / "eval0" / "report.tsv").read_text()
    (tmp_path / "eval0" / "report.tsv").write_text(text.replace("\t1\t", "\tnan\t", 1))
    assert main(["report", *paths]) == 1
    assert "alpha nan is not finite" in capsys.readouterr().err


def test_report_single_row(workspace, tmp_path, capsys):
    _, data, run = workspace
    out = tmp_path / "eval"
    assert main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
        "--queries", str(data / "test.tsv"), "--cutoff", "10", "--out", str(out),
    ]) == 0
    capsys.readouterr()  # drain the eval table
    assert main(["report", str(out / "report.tsv")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 3  # header, rule, one row


def test_report_order_breaks_ties_on_the_remaining_cells(workspace, tmp_path, capsys):
    # evals of the train and the test queries: the same dataset and alpha, other metrics
    _, data, run = workspace
    paths = []
    for queries in ("train.tsv", "test.tsv"):
        out = tmp_path / f"eval-{queries}"
        assert main([
            "eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(data / "corpus.jsonl"),
            "--queries", str(data / queries), "--alpha", "1", "--out", str(out),
        ]) == 0
        paths.append(str(out / "report.tsv"))
    capsys.readouterr()  # drain the eval tables
    printed, merged = [], []
    for order in (paths, paths[::-1]):
        out = tmp_path / f"merged{len(merged)}.tsv"
        assert main(["report", *order, "--out", str(out)]) == 0
        printed.append(capsys.readouterr().out)
        merged.append(out.read_bytes())
    assert printed[0] == printed[1]
    assert merged[0] == merged[1]
    rows = read_report_tsv(tmp_path / "merged0.tsv")
    assert [r["dataset"] for r in rows] == ["corpus", "corpus"]
    assert rows[0]["hits1"] <= rows[1]["hits1"] and rows[0] != rows[1]


def test_report_column_mismatch(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("dataset\talpha\thits1\thits5\thits10\tmrr10\trouge_l\tcr\tnum_queries\n")
    assert main(["report", str(bad)]) == 1


def test_unknown_command_usage_error():
    assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# input files shared by train, eval and rerank
# ---------------------------------------------------------------------------


def command_argv(command, run, corpus, queries, out):
    if command == "train":
        return ["train", "--corpus", str(corpus), "--queries", str(queries), "--k", "4", "--epochs", "1", "--out", str(out)]
    extra = ["--m", "4", "--pool", "6"] if command == "rerank" else []
    return [command, "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(corpus), "--queries", str(queries), *extra, "--out", str(out)]


@pytest.mark.parametrize("command", ["train", "eval", "rerank"])
@pytest.mark.parametrize("text", ["", " \n\t\n\n"])
def test_corpus_without_documents_exits_1_naming_the_file(workspace, tmp_path, capsys, command, text):
    _, data, run = workspace
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text(text)
    out = tmp_path / "out"
    assert main(command_argv(command, run, corpus, data / "test.tsv", out)) == 1
    assert f"ddsi {command}: {corpus}: no documents" in capsys.readouterr().err
    assert not out.exists()


def test_query_file_without_queries_exits_1_alike_in_every_command(workspace, tmp_path, capsys):
    _, data, run = workspace
    queries = tmp_path / "empty.tsv"
    queries.write_text("\n \t\n")
    errors = []
    for command in ("train", "eval", "rerank"):
        out = tmp_path / command
        assert main(command_argv(command, run, data / "corpus.jsonl", queries, out)) == 1
        assert not out.exists()
        errors.append(capsys.readouterr().err.removeprefix(f"ddsi {command}: "))
    assert errors == ["no queries\n"] * 3
