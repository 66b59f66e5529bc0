import json

import pytest

from ddsi.corpus import (
    Corpus,
    SyntheticConfig,
    Vocab,
    generate_synthetic,
    load_corpus,
    load_queries,
    save_corpus,
    save_queries,
    split_words,
)
from ddsi.errors import (
    EmptyDocument,
    GoldOutOfRange,
    InvalidConfig,
    MalformedLine,
    NonDenseDocids,
)
from ddsi.metrics import rouge_l


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------


def test_tokenize_known_vocab():
    vocab = Vocab(["california", "gold", "rush"])
    assert vocab.tokenize("California Gold-Rush") == [1, 2, 3]


def test_tokenize_empty():
    assert Vocab(["a"]).tokenize("") == []


def test_tokenize_unknown_maps_to_zero():
    vocab = Vocab(["california", "gold", "rush"])
    assert vocab.tokenize("zzz california") == [0, 1]


def test_split_words_rules():
    assert split_words("Foo-bar_baz 42x!") == ["foo", "bar", "baz", "42x"]


def test_vocab_bijective():
    vocab = Vocab(["a", "b", "a"])
    assert vocab.size == 3
    assert [vocab.index_to_token[vocab.token_to_index[w]] for w in ("a", "b")] == ["a", "b"]


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def test_load_corpus_well_formed(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": i, "title": f"t{i}", "text": f"doc {i} words"} for i in range(3)])
    corpus = load_corpus(path)
    assert corpus.num_docs == 3
    assert corpus.documents[2].tokens


def test_load_corpus_accepts_shuffled_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": i, "title": "", "text": f"w{i}"} for i in (2, 0, 1)])
    corpus = load_corpus(path)
    assert [d.docid for d in corpus.documents] == [0, 1, 2]


def test_load_corpus_non_dense(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": i, "title": "", "text": "w"} for i in (0, 2)])
    with pytest.raises(NonDenseDocids) as exc:
        load_corpus(path)
    assert exc.value.missing == 1


def test_load_corpus_empty_document(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": 0, "title": "t", "text": ""}])
    with pytest.raises(EmptyDocument) as exc:
        load_corpus(path)
    assert exc.value.docid == 0


def test_load_corpus_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid": 0, "title": "t", "text": "x"}\nnot json\n')
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path)
    assert exc.value.lineno == 2


def test_load_corpus_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid": 0, "title": "t"}\n')
    with pytest.raises(MalformedLine):
        load_corpus(path)


def test_corpus_roundtrip(tmp_path, small_world):
    _, corpus, _, _ = small_world
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    reloaded = load_corpus(path)
    assert reloaded.num_docs == corpus.num_docs
    for a, b in zip(corpus.documents, reloaded.documents):
        assert (a.docid, a.title, a.body, a.tokens) == (b.docid, b.title, b.body, b.tokens)


# ---------------------------------------------------------------------------
# query files
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": i, "title": "", "text": "alpha beta gamma"} for i in range(10)])
    return load_corpus(path)


def test_load_queries_basic(tmp_path, tiny_corpus):
    path = tmp_path / "q.tsv"
    path.write_text("alpha beta\t4\ngamma\t0\n")
    queries = load_queries(path, tiny_corpus)
    assert [q.qid for q in queries] == [0, 1]
    assert queries[0].gold_docid == 4
    assert queries[0].tokens == tiny_corpus.vocab.tokenize("alpha beta")


def test_load_queries_gold_out_of_range(tmp_path, tiny_corpus):
    path = tmp_path / "q.tsv"
    path.write_text("q\t99\n")
    with pytest.raises(GoldOutOfRange):
        load_queries(path, tiny_corpus)


def test_load_queries_empty_file(tmp_path, tiny_corpus):
    path = tmp_path / "q.tsv"
    path.write_text("")
    assert load_queries(path, tiny_corpus) == []


def test_load_queries_malformed(tmp_path, tiny_corpus):
    path = tmp_path / "q.tsv"
    path.write_text("no tab here\n")
    with pytest.raises(MalformedLine):
        load_queries(path, tiny_corpus)


def test_queries_roundtrip(tmp_path, small_world):
    _, corpus, train_q, _ = small_world
    path = tmp_path / "q.tsv"
    save_queries(train_q, path)
    reloaded = load_queries(path, corpus)
    assert len(reloaded) == len(train_q)
    for a, b in zip(train_q, reloaded):
        assert (a.tokens, a.gold_docid, a.text) == (b.tokens, b.gold_docid, b.text)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_generate_deterministic():
    cfg = SyntheticConfig(num_topics=2, docs_per_topic=3, seed=7)
    c1, tr1, te1 = generate_synthetic(cfg)
    c2, tr2, te2 = generate_synthetic(cfg)
    assert [d.body for d in c1.documents] == [d.body for d in c2.documents]
    assert [(q.text, q.gold_docid) for q in tr1] == [(q.text, q.gold_docid) for q in tr2]
    assert [(q.text, q.gold_docid) for q in te1] == [(q.text, q.gold_docid) for q in te2]


def test_generate_seed_matters():
    base = dict(num_topics=2, docs_per_topic=3)
    c1, _, _ = generate_synthetic(SyntheticConfig(seed=1, **base))
    c2, _, _ = generate_synthetic(SyntheticConfig(seed=2, **base))
    assert [d.body for d in c1.documents] != [d.body for d in c2.documents]


def test_generate_all_duplicates_high_rouge():
    cfg = SyntheticConfig(num_topics=2, docs_per_topic=4, near_duplicate_fraction=1.0, seed=7)
    corpus, _, _ = generate_synthetic(cfg)
    for t in range(cfg.num_topics):
        docs = corpus.documents[t * cfg.docs_per_topic : (t + 1) * cfg.docs_per_topic]
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                assert rouge_l(docs[i].tokens, docs[j].tokens) >= 0.9


def test_generate_disjoint_topics_without_shared_vocab():
    cfg = SyntheticConfig(num_topics=3, docs_per_topic=3, shared_vocab=0, seed=5)
    corpus, _, _ = generate_synthetic(cfg)
    per_topic = []
    for t in range(cfg.num_topics):
        tokens = set()
        for d in corpus.documents[t * cfg.docs_per_topic : (t + 1) * cfg.docs_per_topic]:
            tokens.update(d.tokens)
        per_topic.append(tokens)
    for i in range(len(per_topic)):
        for j in range(i + 1, len(per_topic)):
            assert not (per_topic[i] & per_topic[j])


def test_generate_golds_exist_and_split_is_8020ish():
    cfg = SyntheticConfig()
    corpus, train_q, test_q = generate_synthetic(cfg)
    total = len(train_q) + len(test_q)
    assert total == cfg.num_docs * cfg.queries_per_doc
    for q in train_q + test_q:
        assert 0 <= q.gold_docid < corpus.num_docs
        assert q.tokens and all(t > 0 for t in q.tokens)
    frac = len(test_q) / total
    assert 0.15 < frac < 0.25


def test_generate_query_tokens_come_from_gold_doc():
    cfg = SyntheticConfig(num_topics=2, docs_per_topic=3, seed=3)
    corpus, train_q, test_q = generate_synthetic(cfg)
    for q in train_q + test_q:
        doc_tokens = set(corpus.documents[q.gold_docid].tokens)
        assert set(q.tokens) <= doc_tokens


def test_generate_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(near_duplicate_fraction=1.5))
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(num_topics=0))
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(query_len=100, doc_len=50))
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(shared_vocab=-1))


def test_generate_near_duplicates_stay_close(small_world):
    cfg, corpus, _, _ = small_world
    num_dups = int(cfg.near_duplicate_fraction * cfg.docs_per_topic + 0.5)
    dup_start = cfg.docs_per_topic - num_dups
    for t in range(cfg.num_topics):
        dups = corpus.documents[t * cfg.docs_per_topic + dup_start : (t + 1) * cfg.docs_per_topic]
        for i in range(len(dups)):
            for j in range(i + 1, len(dups)):
                assert rouge_l(dups[i].tokens, dups[j].tokens) >= 0.9
