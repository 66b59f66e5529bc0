import json
import string

import pytest
from hypothesis import given, strategies as st

from ddsi.corpus import (
    SyntheticConfig,
    Vocab,
    generate_synthetic,
    load_corpus,
    load_queries,
    save_corpus,
    save_queries,
    _WORD_RE,
    split_words,
)
from ddsi.errors import (
    EmptyDocument,
    EmptyInput,
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


_ASCII_BIASED = st.sampled_from(list(string.ascii_letters[::5] + string.punctuation + string.digits + "_\x1c \t\n\x7f"))
_NON_ASCII = st.one_of(st.sampled_from(["İ", "\u0301", "\u0307", "\u20dd", "K", "ß", "\u00a0"]), st.characters())


@given(st.one_of(st.text(_ASCII_BIASED), st.text(st.one_of(_ASCII_BIASED, _NON_ASCII))))
def test_split_words_equals_the_word_regex(text):
    assert split_words(text) == _WORD_RE.findall(text.lower())


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
    # token ids follow docid order, not file order: shuffled lines give the
    # vocabulary and the tokens of the ordered file
    texts = ["w0 shared x0", "shared w1 w0", "x2 w2 shared w1"]
    ordered, shuffled = tmp_path / "ordered.jsonl", tmp_path / "shuffled.jsonl"
    write_jsonl(ordered, [{"docid": i, "title": "", "text": texts[i]} for i in (0, 1, 2)])
    write_jsonl(shuffled, [{"docid": i, "title": "", "text": texts[i]} for i in (2, 0, 1)])
    want, corpus = load_corpus(ordered), load_corpus(shuffled)
    assert [d.docid for d in corpus.documents] == [0, 1, 2]
    assert want.vocab.index_to_token == ["<unk>", "w0", "shared", "x0", "w1", "x2", "w2"]
    assert corpus.vocab.index_to_token == want.vocab.index_to_token
    assert [d.tokens for d in corpus.documents] == [d.tokens for d in want.documents]


def test_load_corpus_non_dense(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": i, "title": "", "text": "w"} for i in (0, 2)])
    with pytest.raises(NonDenseDocids) as exc:
        load_corpus(path)
    assert exc.value.missing == 1


@pytest.mark.parametrize("docids, missing, lineno, stray", [
    ((0, -1, 1), 2, 2, -1),
    ((0, 7), 1, 2, 7),
    ((3, 0, -1), 1, 1, 3),  # the first of two lines out of range
])
def test_load_corpus_docid_out_of_range_names_its_line(tmp_path, docids, missing, lineno, stray):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": i, "title": "", "text": "w"} for i in docids])
    with pytest.raises(NonDenseDocids) as exc:
        load_corpus(path)
    assert exc.value.missing == missing
    assert str(exc.value).endswith(f"c.jsonl:{lineno}: docid {stray} is not in 0..{len(docids) - 1}")


def test_load_corpus_repeated_docid_names_both_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": i, "title": "", "text": "w"} for i in (0, 1, 1, 2)])
    with pytest.raises(MalformedLine, match="docid 1 is already on line 2") as exc:
        load_corpus(path)
    assert exc.value.lineno == 3


def test_load_corpus_empty_document(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"docid": 0, "title": "t", "text": ""}])
    with pytest.raises(EmptyDocument) as exc:
        load_corpus(path)
    assert exc.value.docid == 0
    # a document of no words names its line, like every other corpus error
    write_jsonl(path, [{"docid": 0, "title": "t", "text": "w"}, {"docid": 1, "title": "t", "text": "!!! ..."}])
    with pytest.raises(EmptyDocument) as exc:
        load_corpus(path)
    assert exc.value.docid == 1
    assert str(exc.value) == f"{path}:2: document 1 has no tokens"


def test_load_corpus_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid": 0, "title": "t", "text": "x"}\nnot json\n')
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path)
    assert exc.value.lineno == 2


def test_load_corpus_bad_utf8_names_its_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"docid": 0, "title": "t", "text": "x"}\r\n\r{"docid": 1, "title": "t", "text": "\xff"}\n')
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path)
    assert exc.value.lineno == 3


def test_load_corpus_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid": 0, "title": "t"}\n')
    with pytest.raises(MalformedLine):
        load_corpus(path)


def test_load_corpus_skips_whitespace_lines_but_counts_them(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docid": 0, "title": "t", "text": "x"}\n \t\n\n{"docid": 1, "title": "t", "text": "y"}\n  \nnot json\n')
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path)
    assert exc.value.lineno == 6
    path.write_text('\n{"docid": 0, "title": "t", "text": "x"}\n \t\n')
    assert load_corpus(path).num_docs == 1


@pytest.mark.parametrize("text", ["", "\n", " \t\n\r\n  "])
def test_load_corpus_without_documents_names_the_file(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text)
    with pytest.raises(EmptyInput, match="c.jsonl: no documents"):
        load_corpus(path)


def test_corpus_roundtrip(tmp_path, small_world):
    _, corpus, _, _ = small_world
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    reloaded = load_corpus(path)
    assert reloaded.num_docs == corpus.num_docs
    for a, b in zip(corpus.documents, reloaded.documents):
        assert (a.docid, a.title, a.body, a.tokens) == (b.docid, b.title, b.body, b.tokens)


def test_document_tokens_equal_tokenize_of_body(tmp_path, small_world):
    _, corpus, _, _ = small_world
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    for c in (corpus, load_corpus(path)):
        for doc in c.documents:
            assert doc.tokens == c.vocab.tokenize(doc.body)


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


def test_load_queries_skips_whitespace_lines_but_counts_them(tmp_path, tiny_corpus):
    path = tmp_path / "q.tsv"
    path.write_text("alpha\t1\n \t \n\n   \ngamma\t2\nbeta\t99\n")
    with pytest.raises(GoldOutOfRange, match=":6:"):
        load_queries(path, tiny_corpus)
    path.write_text("alpha\t1\n \t \n\ngamma\t2\n\t\n")
    queries = load_queries(path, tiny_corpus)
    assert [(q.qid, q.gold_docid) for q in queries] == [(0, 1), (1, 2)]


@pytest.mark.parametrize("gold", ["\u0663", "\uff13", "1_0", " 3", "3 ", "3\x0b", "three", "", "+1", "-1", "-0"])
def test_load_queries_gold_must_be_a_plain_ascii_integer(tmp_path, tiny_corpus, gold):
    path = tmp_path / "q.tsv"
    path.write_text(f"alpha\t1\n\nt0w1 t0w2\t{gold}\n")
    with pytest.raises(MalformedLine) as exc:
        load_queries(path, tiny_corpus)
    assert exc.value.lineno == 3


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


@pytest.mark.parametrize(
    "overrides",
    [{}, {"doc_len": 160, "vocab_per_topic": 120}, {"shared_vocab": 0}, {"near_duplicate_fraction": 1.0}],
)
def test_generate_tokens_equal_tokenize_of_the_text(overrides):
    # generate takes these tokens from the words it drew, not from the texts
    # it writes; a command that reads the files tokenizes the texts
    corpus, train_q, test_q = generate_synthetic(SyntheticConfig(**overrides))
    for doc in corpus.documents:
        assert doc.tokens == corpus.vocab.tokenize(doc.body)
    for q in train_q + test_q:
        assert q.tokens == corpus.vocab.tokenize(q.text)


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
