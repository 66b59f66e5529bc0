import dataclasses
import hashlib
import importlib
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddsi import kernels
from ddsi.corpus import SyntheticConfig, generate_synthetic
from ddsi.errors import (
    ColumnMismatch,
    EmptyDocument,
    EmptyInput,
    EmptyRun,
    MalformedLine,
    ShapeMismatch,
    TokenOutOfRange,
    TooFewDocs,
)
from ddsi.metrics import (
    EvalRun,
    MetricsReport,
    compression_ratio,
    evaluate,
    format_report_table,
    hits_at_k,
    homogenization,
    mrr_at_k,
    ngd,
    read_report_tsv,
    read_run,
    report_from_run,
    report_tsv,
    rouge_l,
    run_queries,
    sort_report_rows,
    write_report_tsv,
    write_run,
)
from ddsi.model import RankedList, init_model
from ddsi.rng import Xoshiro256StarStar
from ddsi.train import TrainConfig, train

from oracles import oracle_lcs, oracle_ngd


def run_with_gold_ranks(ranks, depth=10):
    """One query per rank; gold docid 0 placed at the requested 1-based rank."""
    rankings = []
    golds = []
    for qid, rank in enumerate(ranks):
        entries = []
        for pos in range(1, depth + 1):
            docid = 0 if pos == rank else 100 + qid * depth + pos
            entries.append((docid, float(depth - pos)))
        rankings.append(RankedList(qid=qid, entries=entries))
        golds.append(0)
    return EvalRun(rankings=rankings, golds=golds)


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------


def test_hits_all_headed_by_gold():
    run = run_with_gold_ranks([1, 1, 1])
    assert hits_at_k(run, 1) == 1.0


def test_hits_hand_counts():
    run = run_with_gold_ranks([1, 2, 4])
    assert hits_at_k(run, 1) == pytest.approx(1 / 3)
    assert hits_at_k(run, 5) == 1.0


def test_hits_gold_never_retrieved():
    run = run_with_gold_ranks([99, 99])  # rank beyond depth: gold absent
    for k in (1, 5, 10):
        assert hits_at_k(run, k) == 0.0


def test_hits_monotone_in_k():
    run = run_with_gold_ranks([1, 2, 4, 7, 99])
    h1, h5, h10 = (hits_at_k(run, k) for k in (1, 5, 10))
    assert h1 <= h5 <= h10


def test_mrr_hand_value():
    run = run_with_gold_ranks([1, 2, 4])
    assert mrr_at_k(run, 10) == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)


def test_mrr_all_first():
    assert mrr_at_k(run_with_gold_ranks([1, 1])) == 1.0


def test_mrr_beyond_cutoff_contributes_zero():
    run = run_with_gold_ranks([11], depth=12)
    assert mrr_at_k(run, 10) == 0.0
    assert mrr_at_k(run, 12) == pytest.approx(1 / 11)


def test_mrr_bounded_by_hits():
    run = run_with_gold_ranks([1, 3, 99, 8])
    assert mrr_at_k(run, 10) <= hits_at_k(run, 10)


def test_mrr_sums_in_query_order():
    # over more than 8 values np.sum adds pairwise and math.fsum exactly; on
    # these ranks both differ from the query-order sum in the last bit
    ranks = [1, 7, 7, 10, 1, 8, 5, 4, 10, 2, 6, 1]
    total = 0.0
    for rank in ranks:
        total += 1.0 / rank
    recips = [1.0 / rank for rank in ranks]
    assert total != np.sum(recips) and total != math.fsum(recips)
    assert mrr_at_k(run_with_gold_ranks(ranks), 10) == total / len(ranks)


def test_empty_run_rejected():
    run = EvalRun(rankings=[], golds=[])
    with pytest.raises(EmptyRun):
        hits_at_k(run, 1)
    with pytest.raises(EmptyRun):
        mrr_at_k(run)


@pytest.mark.parametrize("golds", [[0], [0, 0, 0]])
def test_run_with_more_or_fewer_golds_than_rankings_rejected(tmp_path, golds):
    # zipped, the extra rankings or golds would drop out of the counts
    run = dataclasses.replace(run_with_gold_ranks([1, 99]), golds=golds)
    corpus, _ = make_single_doc_world(tmp_path)
    message = f"2 rankings but {len(golds)} golds"
    with pytest.raises(ShapeMismatch, match=message):
        hits_at_k(run, 1)
    with pytest.raises(ShapeMismatch, match=message):
        mrr_at_k(run)
    with pytest.raises(ShapeMismatch, match=message):
        report_from_run(run, corpus)


# ---------------------------------------------------------------------------
# lcs / rouge
# ---------------------------------------------------------------------------


def lcs_len(a, b) -> int:
    tok, lengths = kernels.pack_token_matrix([a, b])
    return int(kernels.lcs_lengths_pairs(tok, lengths, np.array([0]), np.array([1]))[0])


def test_lcs_identity_subseq_empty():
    assert lcs_len([1, 2, 3], [1, 2, 3]) == 3
    assert lcs_len([1, 2, 3, 4], [2, 4]) == 2
    assert lcs_len([1, 2, 3], []) == 0


@settings(max_examples=80)
@given(
    st.lists(st.integers(min_value=0, max_value=5), max_size=25),
    st.lists(st.integers(min_value=0, max_value=5), max_size=25),
)
def test_lcs_matches_oracle(a, b):
    assert lcs_len(a, b) == oracle_lcs(a, b)


def test_rouge_identical():
    assert rouge_l([1, 2, 3], [1, 2, 3]) == 1.0


def test_rouge_disjoint():
    assert rouge_l([1, 2], [3, 4]) == 0.0


def test_rouge_hand_value():
    # lcs=2, precision 1, recall 0.5 -> F1 = 2/3
    assert rouge_l([1, 2, 3, 4], [2, 4]) == pytest.approx(2 / 3, abs=1e-12)


def test_rouge_empty_rejected():
    with pytest.raises(EmptyDocument):
        rouge_l([], [1])


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20),
)
def test_rouge_symmetric_unit_interval(a, b):
    assert rouge_l(a, b) == rouge_l(b, a)
    assert 0.0 <= rouge_l(a, b) <= 1.0


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------


def test_homogenization_identical_docs():
    assert homogenization([[1, 2, 3]] * 4) == 1.0


def test_homogenization_disjoint_docs():
    assert homogenization([[1], [2], [3]]) == 0.0


def test_homogenization_mixed_third():
    # pairwise rouge: (a,b)=1, (a,c)=0, (b,c)=0
    assert homogenization([[1], [1], [2]]) == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_homogenization_is_np_mean_of_pairwise_rouge(seed):
    # up to 190 pairs of unequal rows: np.mean sums pairwise, and a running sum would differ
    rng = Xoshiro256StarStar(seed)
    docs = [[rng.randbelow(5) for _ in range(1 + rng.randbelow(150))] for _ in range(2 + rng.randbelow(19))]
    pairs = [(i, j) for i in range(len(docs)) for j in range(i + 1, len(docs))]
    assert homogenization(docs) == float(np.mean([rouge_l(docs[i], docs[j]) for i, j in pairs]))


def test_homogenization_sets_of_mixed_sizes_each_equal_that_sets_homogenization_alone():
    # sets of 1, 2, 3, 10, 3 and 2 rows, rows repeated within and across sets:
    # the sets of one size share one table of pair indices, which must keep
    # each set's pairs in the order that its own mean sums them
    rng = Xoshiro256StarStar(23)
    docs = [[rng.randbelow(5) for _ in range(1 + rng.randbelow(12))] for _ in range(8)]
    tok, lengths = kernels.pack_token_matrix(docs)
    sets = [np.array([rng.randbelow(8) for _ in range(size)]) for size in (1, 2, 3, 10, 3, 2)]
    got = importlib.import_module("ddsi.metrics")._homogenization_sets(tok, lengths, np.concatenate(sets), np.array(list(map(len, sets))))
    want = [homogenization([docs[i] for i in rows]) for rows in sets if len(rows) >= 2]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_homogenization_too_few():
    with pytest.raises(TooFewDocs):
        homogenization([[1, 2]])


@settings(max_examples=30)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=10), min_size=2, max_size=5), st.randoms())
def test_homogenization_permutation_invariant(docs, rnd):
    shuffled = list(docs)
    rnd.shuffle(shuffled)
    assert homogenization(shuffled) == pytest.approx(homogenization(docs), abs=1e-12)
    assert 0.0 <= homogenization(docs) <= 1.0


# ---------------------------------------------------------------------------
# ngd / compression ratio
# ---------------------------------------------------------------------------


def test_ngd_hand_cases():
    assert ngd([[1, 2, 1, 2]]) == pytest.approx(2 / 4 + 2 / 3 + 2 / 2 + 1 / 1, abs=1e-12)
    assert ngd([[1, 2, 3, 4]]) == 4.0
    assert ngd([[1, 1, 1, 1, 1]]) == pytest.approx(1 / 5 + 1 / 4 + 1 / 3 + 1 / 2, abs=1e-12)


def test_ngd_does_not_cross_doc_boundaries():
    # two docs of 2 tokens have no 3-grams or 4-grams at all
    assert ngd([[1, 2], [1, 2]]) == pytest.approx(2 / 4 + 1 / 2, abs=1e-12)


def test_ngd_short_input_skips_missing_levels():
    assert ngd([[5]]) == 1.0


def test_ngd_empty_rejected():
    with pytest.raises(EmptyInput):
        ngd([])
    with pytest.raises(EmptyInput):
        ngd([[], []])


@settings(max_examples=50)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12), min_size=1, max_size=4))
def test_ngd_range(docs):
    value = ngd(docs)
    assert 0.0 < value <= 4.0


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=12), min_size=1, max_size=5).filter(lambda ds: any(ds)))
def test_ngd_matches_oracle(docs):
    assert ngd(docs) == oracle_ngd(docs)


@pytest.mark.parametrize(
    "cells, spare_docs", [(1, 0), (100, 0), (300, 0), (1 << 16, 0), (1000, 250)], ids=["1", "100", "300", "65536", "1000-spare"]
)
def test_ngd_sets_counted_in_groups_match_the_oracle(monkeypatch, cells, spare_docs):
    # A group holds at most NGD_CELLS // (9 x 5) sets, the gathered-cell bound
    # for rows of up to 9 tokens in sets of up to 5 rows, and at most
    # (NGD_CELLS << 2) // (distinct n-grams + 1), the seen-table bound. With
    # the 12 documents of 4 words alone, the gathered-cell bound splits the
    # groups: NGD_CELLS 1 counts one set a group, 100 and 300 two and six,
    # 1 << 16 all at once. 250 spare documents of other words, in no set,
    # make 1,279 distinct words, so at 1000 the seen-table bound counts the
    # sets 3, 3, 4 and 6 a group for n = 1..4, where the gathered-cell bound
    # would take 22
    metrics_module = importlib.import_module("ddsi.metrics")
    monkeypatch.setattr(metrics_module, "NGD_CELLS", cells)
    rng, spare_rng = Xoshiro256StarStar(17), Xoshiro256StarStar(18)
    docs = [[rng.randbelow(4) for _ in range(1 + rng.randbelow(9))] for _ in range(12)]
    docs += [[4 + spare_rng.randbelow(10**6) for _ in range(1 + spare_rng.randbelow(9))] for _ in range(spare_docs)]
    tok, lengths = kernels.pack_token_matrix(docs)
    sets = [np.array([rng.randbelow(12) for _ in range(1 + rng.randbelow(5))]) for _ in range(30)]
    assert max(map(len, sets)) == 5 and tok.shape[1] == 9
    got = metrics_module._ngd_sets(tok, lengths, np.concatenate(sets), np.array(list(map(len, sets))))
    assert got.tolist() == [oracle_ngd([docs[i] for i in rows]) for rows in sets]


def test_compression_ratio_repetitive_vs_random():
    line = "abcdefghijklmnopqrst"  # 20 bytes
    repetitive = [line] * 500  # ~10 kB
    rng = Xoshiro256StarStar(99)
    random_text = ["".join(f"{rng.next_u64():016x}" for _ in range(32)) for _ in range(20)]  # ~10 kB hex
    cr_rep = compression_ratio(repetitive)
    cr_rand = compression_ratio(random_text)
    assert cr_rep > 5.0
    assert cr_rand < 2.0
    assert cr_rep > cr_rand


def test_compression_ratio_empty_rejected():
    with pytest.raises(EmptyInput):
        compression_ratio([])
    with pytest.raises(EmptyInput):
        compression_ratio([""])


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def make_single_doc_world(tmp_path):
    import json

    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"docid": 0, "title": "", "text": "only doc here"}) + "\n")
    from ddsi.corpus import QueryExample, load_corpus

    corpus = load_corpus(path)
    queries = [QueryExample(qid=0, tokens=corpus.vocab.tokenize("only doc"), gold_docid=0)]
    return corpus, queries


def test_evaluate_single_doc_corpus(tmp_path):
    corpus, queries = make_single_doc_world(tmp_path)
    params = init_model(corpus.vocab.size, 8, 1, 0)
    report = evaluate(params, queries, corpus, cutoff=1)
    assert report.hits1 == report.hits5 == report.hits10 == 1.0
    assert report.mrr10 == 1.0
    assert report.rouge_l_hom is None
    assert report.ngd > 0.0
    assert report.cr >= 1.0 or report.cr > 0.0


def test_evaluate_trained_beats_untrained(small_world):
    _, corpus, train_q, test_q = small_world
    untrained = init_model(corpus.vocab.size, 32, corpus.num_docs, 0)
    cfg = TrainConfig(alpha=1.0, k=5, epochs=8, batch_size=16, seed=0, dim=32)
    trained, _ = train(corpus, train_q, cfg)
    r_untrained = evaluate(untrained, test_q, corpus, cutoff=10)
    r_trained = evaluate(trained, test_q, corpus, cutoff=10)
    assert r_trained.hits10 > r_untrained.hits10
    assert r_trained.hits1 <= r_trained.hits5 <= r_trained.hits10
    assert r_trained.mrr10 <= r_trained.hits10


def test_evaluate_deterministic(small_world):
    _, corpus, _, test_q = small_world
    params = init_model(corpus.vocab.size, 16, corpus.num_docs, 3)
    a = evaluate(params, test_q, corpus)
    b = evaluate(params, test_q, corpus)
    assert a == b


def recorded_compression_ratios(monkeypatch):
    """Route report_from_run's compression ratios through a recorder of
    (thread name, texts) per set; return its list."""
    calls = []

    def recorded(texts):
        calls.append((threading.current_thread().name, tuple(texts)))
        return compression_ratio(texts)

    monkeypatch.setattr(importlib.import_module("ddsi.metrics"), "_compression_ratio", recorded)
    return calls


def run_of_mixed_set_sizes(corpus, queries):
    params = init_model(corpus.vocab.size, 16, corpus.num_docs, 4)
    run = run_queries(params, queries, cutoff=12)
    # one ranking short of the cutoff, so sets of different sizes mix
    run.rankings[-1].entries = run.rankings[-1].entries[:3]
    # the last query's gold is absent from its ranking, the first's (when
    # there are two) ranked 11th, past the report's depth of 10
    run.golds[-1] = next(d for d in range(corpus.num_docs) if d not in run.rankings[-1].docids())
    if len(run.rankings) > 1:
        run.golds[0] = run.rankings[0].entries[10][0]
    return run, [tuple(corpus.documents[docid].body for docid, _ in r.entries) for r in run.rankings]


@pytest.mark.parametrize("count", [1, 2, None], ids=["one", "two", "many"])
def test_report_from_run_takes_each_sets_compression_ratio_whole_and_once(monkeypatch, small_world, count):
    _, corpus, train_q, _ = small_world
    run, texts = run_of_mixed_set_sizes(corpus, train_q[:count])
    calls = recorded_compression_ratios(monkeypatch)
    report = report_from_run(run, corpus)
    assert sorted(t for _, t in calls) == sorted(texts)
    # the mean in set order of the ratio of each set's texts, to the bit
    assert report.cr == float(np.mean([compression_ratio(t) for t in texts]))
    if count == 1:
        assert report.cr == compression_ratio(texts[0])
    # relevance from the gold ranks found once, to the bit
    relevance = [hits_at_k(run, 1), hits_at_k(run, 5), hits_at_k(run, 10), mrr_at_k(run, 10)]
    assert [v.hex() for v in (report.hits1, report.hits5, report.hits10, report.mrr10)] == [v.hex() for v in relevance]


def test_report_from_run_claims_each_set_once_under_thread_switches(monkeypatch, small_world, thread_switches):
    # a set claimed by both threads or by neither shows in the calls. The
    # caller skips homogenization and NGD, so that it claims sets from the
    # start, and many small sets make claims often
    _, corpus, train_q, _ = small_world
    run = run_queries(init_model(corpus.vocab.size, 16, corpus.num_docs, 4), train_q * 4, cutoff=2)
    texts = [tuple(corpus.documents[docid].body for docid, _ in r.entries) for r in run.rankings]
    want = float(np.mean([compression_ratio(t) for t in texts]))
    metrics_module = importlib.import_module("ddsi.metrics")
    monkeypatch.setattr(metrics_module, "_homogenization_sets", lambda tok, lengths, members, sizes: [0.0])
    monkeypatch.setattr(metrics_module, "_ngd_sets", lambda tok, lengths, members, sizes: np.zeros(len(sizes)))
    calls = recorded_compression_ratios(monkeypatch)
    for _ in range(50):
        calls.clear()
        assert report_from_run(run, corpus).cr == want
        assert sorted(t for _, t in calls) == sorted(texts)


def test_an_error_in_the_eval_helper_is_raised_by_report_from_run_which_joins_it(small_world, failing_eval_helper):
    _, corpus, _, test_q = small_world
    run = run_queries(init_model(corpus.vocab.size, 16, corpus.num_docs, 4), test_q, cutoff=10)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper set failed"):
        report_from_run(run, corpus)
    assert threading.active_count() == before


@pytest.mark.parametrize("depth, error", [(10, EmptyDocument), (1, EmptyInput)], ids=["homogenization", "ngd"])
def test_the_callers_own_error_wins_over_the_eval_helpers(small_world, failing_eval_helper, depth, error):
    # a document without tokens fails homogenization in sets of two or
    # more, and NGD in sets of one, while the helper fails its first set
    _, corpus, _, test_q = small_world
    run = run_queries(init_model(corpus.vocab.size, 16, corpus.num_docs, 4), test_q, cutoff=depth)
    docs = list(corpus.documents)
    docid = run.rankings[0].entries[0][0]
    docs[docid] = dataclasses.replace(docs[docid], tokens=[])
    before = threading.active_count()
    with pytest.raises(error):
        report_from_run(run, dataclasses.replace(corpus, documents=docs))
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# run / report files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [None, 7])
def test_run_queries_blocks_match_one_shot(monkeypatch, small_world, block):
    model_module = importlib.import_module("ddsi.model")
    if block is not None:
        monkeypatch.setattr(model_module, "QUERY_BLOCK", block)
    _, corpus, train_q, _ = small_world
    params = init_model(corpus.vocab.size, 16, corpus.num_docs, 6)
    queries = train_q[: 2 * model_module.QUERY_BLOCK + 7]
    assert len(queries) // model_module.QUERY_BLOCK > 1
    run = run_queries(params, queries, cutoff=10)
    tok, lengths = kernels.pack_token_matrix([q.tokens for q in queries])
    _, act = kernels.encode(params.embed, params.hidden_w, params.hidden_b, tok, lengths)
    logits = act @ params.cls_w.T + params.cls_b
    order = np.arange(corpus.num_docs)
    assert [r.qid for r in run.rankings] == [q.qid for q in queries]
    assert [r.docids() for r in run.rankings] == [np.lexsort((order, -z))[:10].tolist() for z in logits]


def test_run_queries_checks_tokens_against_the_vocabulary(small_world):
    _, corpus, _, test_q = small_world
    small_vocab = init_model(2, 8, corpus.num_docs, 1)
    with pytest.raises(TokenOutOfRange):
        run_queries(small_vocab, test_q, cutoff=10)


def test_run_file_roundtrip(tmp_path, small_world):
    _, corpus, _, test_q = small_world
    params = init_model(corpus.vocab.size, 16, corpus.num_docs, 1)
    run = run_queries(params, test_q[:5], cutoff=4)
    path = tmp_path / "run.tsv"
    write_run(run.rankings, path)
    loaded = read_run(path)
    assert [r.qid for r in loaded] == [r.qid for r in run.rankings]
    for a, b in zip(loaded, run.rankings):
        assert a.entries == b.entries


def test_read_run_rejects_a_docid_ranked_twice_in_one_query(tmp_path):
    path = tmp_path / "run.tsv"
    path.write_text("0\t3\t1\t0.5\n0\t4\t2\t0.4\n1\t4\t1\t0.9\n0\t3\t3\t0.1\n")
    with pytest.raises(MalformedLine, match="docid 3") as exc:
        read_run(path)
    assert exc.value.lineno == 4


@pytest.mark.parametrize("ranks, bad_line", [((2,), 1), ((1, 3), 2), ((1, 2, 2), 3), ((1, 0), 2)])
def test_read_run_rejects_ranks_that_are_not_1_to_n_in_file_order(tmp_path, ranks, bad_line):
    path = tmp_path / "run.tsv"
    path.write_text("".join(f"5\t{i}\t{rank}\t0.5\n" for i, rank in enumerate(ranks)))
    with pytest.raises(MalformedLine, match="rank") as exc:
        read_run(path)
    assert exc.value.lineno == bad_line


def test_read_run_skips_whitespace_lines_but_counts_them(tmp_path):
    path = tmp_path / "run.tsv"
    path.write_text("0\t3\t1\t0.5\n \t \n\n0\t4\t2\t0.4\n\t\n0\t4\t3\t0.1\n")
    with pytest.raises(MalformedLine, match="docid 4") as exc:
        read_run(path)
    assert exc.value.lineno == 6
    path.write_text("0\t3\t1\t0.5\n \t \n\n0\t4\t2\t0.4\n\t\n")
    assert [r.entries for r in read_run(path)] == [[(3, 0.5), (4, 0.4)]]


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("cell", ["\u0663", "1_0", " 1", "1 ", "1\x1c", "+1"])
def test_read_run_numbers_must_be_plain_ascii(tmp_path, column, cell):
    cells = ["0", "3", "1", "1"]
    cells[column] = cell
    path = tmp_path / "run.tsv"
    path.write_text("0\t2\t1\t0.5\n\n" + "\t".join(cells) + "\n")
    with pytest.raises(MalformedLine, match="plain ASCII") as exc:
        read_run(path)
    assert exc.value.lineno == 3


@pytest.mark.parametrize("line", [
    "-1\t0\t1\t0.5", "3\t-0\t1\t0.5", "3\t0\t-1\t0.5", "3\t0\t1\tnan", "3\t0\t1\tinf", "3\t0\t1\t-inf", "3\t0\t1\t1e999",
])
def test_read_run_ids_carry_no_sign_and_scores_are_finite(tmp_path, line):
    path = tmp_path / "run.tsv"
    path.write_text("0\t2\t1\t0.5\n" + line + "\n")
    with pytest.raises(MalformedLine) as exc:
        read_run(path)
    assert exc.value.lineno == 2


def test_a_docid_past_int64_read_from_a_run_is_an_unknown_docid(tmp_path, small_world):
    _, corpus, _, _ = small_world
    path = tmp_path / "run.tsv"
    path.write_text("0\t1\t1\t0.9\n0\t99999999999999999999\t2\t0.5\n0\t" + f"{corpus.num_docs}\t3\t0.1\n")
    run = EvalRun(rankings=read_run(path), golds=[1])
    with pytest.raises(EmptyInput, match=r"unknown docid 99999999999999999999$"):
        report_from_run(run, corpus)


def test_read_run_reads_a_negative_zero_score(tmp_path):
    path = tmp_path / "run.tsv"
    path.write_text("3\t0\t1\t-0\n3\t1\t2\t-1.5e-300\n")
    [ranking] = read_run(path)
    assert ranking.qid == 3
    assert [(docid, score.hex()) for docid, score in ranking.entries] == [(0, "-0x0.0p+0"), (1, (-1.5e-300).hex())]


def test_report_tsv_roundtrip(tmp_path):
    report = MetricsReport(
        hits1=0.5, hits5=0.75, hits10=1.0, mrr10=0.625,
        rouge_l_hom=0.123456789012345, ngd=3.25, cr=1.75, num_queries=8,
    )
    path = tmp_path / "report.tsv"
    write_report_tsv(report, path, dataset="synth", alpha=0.5)
    rows = read_report_tsv(path)
    assert len(rows) == 1
    row = rows[0]
    assert row["dataset"] == "synth"
    assert row["alpha"] == 0.5
    assert row["rouge_l"] == report.rouge_l_hom
    assert row["num_queries"] == 8


def test_report_tsv_absent_hom(tmp_path):
    report = MetricsReport(hits1=1, hits5=1, hits10=1, mrr10=1, rouge_l_hom=None, ngd=1.0, cr=1.0, num_queries=1)
    path = tmp_path / "report.tsv"
    write_report_tsv(report, path, dataset="d", alpha=None)
    row = read_report_tsv(path)[0]
    assert row["rouge_l"] is None
    assert row["alpha"] is None


def test_report_tsv_column_mismatch(tmp_path):
    path = tmp_path / "report.tsv"
    path.write_text("dataset\talpha\thits1\n")
    with pytest.raises(ColumnMismatch):
        read_report_tsv(path)


@pytest.mark.parametrize(
    "column, cell", [
        ("hits5", "0.7x5"), ("num_queries", "8.0"), ("alpha", "nan"), ("alpha", "inf"), ("alpha", "-inf"),
        ("hits5", "nan"), ("cr", "inf"), ("num_queries", "1_0"), ("hits1", "\u0663"), ("ngd", " 3.25"), ("mrr10", "0.625\x0c"),
        ("hits1", "+0.5"), ("num_queries", "-8"), ("num_queries", "+8"),
    ]
)
def test_report_tsv_bad_number_is_a_column_mismatch(tmp_path, column, cell):
    report = MetricsReport(hits1=0.5, hits5=0.75, hits10=1.0, mrr10=0.625, rouge_l_hom=0.1, ngd=3.25, cr=1.75, num_queries=8)
    path = tmp_path / "report.tsv"
    write_report_tsv(report, path, dataset="synth", alpha=0.5)
    header, row = path.read_text().splitlines()
    cells = row.split("\t")
    cells[header.split("\t").index(column)] = cell
    path.write_text(header + "\n\n" + "\t".join(cells) + "\n")
    with pytest.raises(ColumnMismatch, match=":3:"):
        read_report_tsv(path)


@pytest.mark.parametrize("read", [read_report_tsv, read_run])
def test_run_and_report_readers_name_the_line_of_bad_utf8(tmp_path, read):
    path = tmp_path / "f.tsv"
    path.write_bytes(b"dataset\talpha\n\n0\t1\t1\t0.5\xc3\n")
    with pytest.raises(MalformedLine) as exc:
        read(path)
    assert exc.value.lineno == 3


def test_read_report_tsv_skips_whitespace_lines_but_counts_them(tmp_path):
    report = MetricsReport(hits1=0.5, hits5=0.75, hits10=1.0, mrr10=0.625, rouge_l_hom=0.1, ngd=3.25, cr=1.75, num_queries=8)
    path = tmp_path / "report.tsv"
    write_report_tsv(report, path, dataset="synth", alpha=0.5)
    header, row = path.read_text().splitlines()
    path.write_text(f"\n \t\n{header}\n  \n{row}\n\t\n")
    assert read_report_tsv(path)[0]["num_queries"] == 8
    path.write_text(f"\n \t\n{header}\n  \n{row}\n\t\n{row[:-1]}x\n")
    with pytest.raises(ColumnMismatch, match=":7:"):
        read_report_tsv(path)


def test_sort_report_rows_is_a_total_order():
    rows = []
    for hits1, rouge_l, num_queries in ((0.5, 0.2, 9), (0.25, None, 9), (0.25, 0.2, 9), (0.5, 0.2, 8), (0.5, None, 9)):
        rows.append(dict(
            dataset="corpus", alpha=1.0, hits1=hits1, hits5=0.75, hits10=1.0, mrr10=0.625,
            rouge_l=rouge_l, ngd=3.25, cr=1.75, num_queries=num_queries,
        ))
    rows.append(dict(rows[0], alpha=None))
    rows.append(dict(rows[0], alpha=0.5))
    want = [rows[2], rows[1], rows[3], rows[0], rows[4], rows[6], rows[5]]
    for shift in range(len(rows)):
        assert sort_report_rows(rows[shift:] + rows[:shift]) == want
        assert sort_report_rows((rows[shift:] + rows[:shift])[::-1]) == want


def test_format_table_sorts_by_alpha_desc(tmp_path):
    rows = []
    for alpha in (0.25, 1.0, 0.5, 0.75):
        report = MetricsReport(hits1=alpha, hits5=1, hits10=1, mrr10=1, rouge_l_hom=0.1, ngd=2.0, cr=1.5, num_queries=4)
        path = tmp_path / f"r{alpha}.tsv"
        write_report_tsv(report, path, dataset="synth", alpha=alpha)
        rows.extend(read_report_tsv(path))
    table = format_report_table(rows)
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["Dataset", "alpha"]
    alphas = [float(line.split()[1]) for line in lines[2:]]
    assert alphas == [1.0, 0.75, 0.5, 0.25]


def test_report_formats_are_pinned(tmp_path):
    # hand-made reports: these bytes are the report.tsv and report.txt formats
    path = tmp_path / "report.tsv"
    report = MetricsReport(hits1=1 / 3, hits5=0.1 + 0.2, hits10=1.0, mrr10=2 / 7, rouge_l_hom=None, ngd=3.0000000000000004, cr=1e-20, num_queries=9)
    write_report_tsv(report, path, dataset="synth", alpha=None)
    assert path.read_bytes() == (
        b"dataset\talpha\thits1\thits5\thits10\tmrr10\trouge_l\tngd\tcr\tnum_queries\n"
        b"synth\tNA\t0.33333333333333331\t0.30000000000000004\t1\t0.2857142857142857\tNA\t3.0000000000000004\t9.9999999999999995e-21\t9\n"
    )
    rows = []
    for dataset in ("b-synth", "a-long"):
        for alpha in (None, 0.25, 1.0, 0.5, 0.75):
            a = 0.6 if alpha is None else alpha
            rows.append(dict(
                dataset=dataset, alpha=alpha, hits1=a / 3, hits5=0.1 + a, hits10=1.0, mrr10=a / 7,
                rouge_l=None if a == 0.5 else 0.123456789 * a, ngd=3.0, cr=12.5 / a, num_queries=int(40 * a),
            ))
    table, merged = format_report_table(rows), report_tsv(sort_report_rows(rows))
    assert hashlib.sha256(table.encode()).hexdigest() == "480bec5cd469327a33be367615e8f2a23a1b5cb9d768992bb43e56d5e3e0a0ec"
    assert hashlib.sha256(merged.encode()).hexdigest() == "8474b63abcd7376f7283e668b9b6d9af549a6e0e307b8adda1c38e83201a101f"


def test_report_from_run_rejects_unknown_docid(small_world):
    _, corpus, _, _ = small_world
    run = EvalRun(rankings=[RankedList(qid=0, entries=[(corpus.num_docs + 5, 1.0)])], golds=[0])
    with pytest.raises(EmptyInput):
        report_from_run(run, corpus)
    # the error names the first unknown docid in run order
    n = corpus.num_docs
    for entries, first in (
        ([[(1, 0.9), (-2, 0.5)], [(n, 0.9), (-1, 0.1)]], -2),
        ([[(0, 0.9)], [(n + 3, 0.8), (-4, 0.7)]], n + 3),
    ):
        run = EvalRun(rankings=[RankedList(qid=q, entries=e) for q, e in enumerate(entries)], golds=[0, 0])
        with pytest.raises(EmptyInput, match=rf"unknown docid {first}$"):
            report_from_run(run, corpus)


@pytest.mark.parametrize(
    "cfg",
    [
        SyntheticConfig(num_topics=1, docs_per_topic=1, queries_per_doc=3, seed=3),
        SyntheticConfig(num_topics=1, docs_per_topic=3, doc_len=70, query_len=10, seed=5),
        SyntheticConfig(),
        SyntheticConfig(num_topics=4, docs_per_topic=6, doc_len=160, vocab_per_topic=120, seed=9),
    ],
    ids=["n1", "n3", "standard", "long-docs"],
)
def test_report_from_run_equals_per_set_functions(cfg):
    corpus, train_q, test_q = generate_synthetic(cfg)
    queries = test_q or train_q
    params = init_model(corpus.vocab.size, 16, corpus.num_docs, 2)
    run = run_queries(params, queries, cutoff=min(10, corpus.num_docs))
    # one ranking short of the cutoff, so sets of different sizes mix
    run.rankings[0].entries = run.rankings[0].entries[:1]
    report = report_from_run(run, corpus)
    sets = [[corpus.documents[docid].tokens for docid, _ in r.entries] for r in run.rankings]
    multi = [s for s in sets if len(s) >= 2]
    if corpus.num_docs == 1:
        assert report.rouge_l_hom is None and not multi
    else:
        assert report.rouge_l_hom == float(np.mean([homogenization(s) for s in multi]))
    assert report.ngd == float(np.mean([ngd(s) for s in sets]))
