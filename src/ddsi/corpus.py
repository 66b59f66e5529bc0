"""Document and query collections: loading, tokenization, synthesis.

Docids are dense 0-based integers because the classifier layer indexes
rows by docid. The synthetic generator builds topical clusters salted
with near-duplicate documents, which is the regime where retrieved sets
turn redundant and a diversity signal has something to do.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import (
    EmptyDocument,
    GoldOutOfRange,
    InvalidConfig,
    MalformedLine,
    NonDenseDocids,
)
from .rng import Xoshiro256StarStar, mix_seed

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

UNKNOWN_TOKEN = "<unk>"
UNKNOWN_INDEX = 0

# mixing weight for shared-vocabulary draws during synthesis
_SHARED_RATE = 0.2


def split_words(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _WORD_RE.findall(text.lower())


class Vocab:
    """Bijection between tokens and [0, V); index 0 is the unknown token."""

    def __init__(self, words: list[str] | None = None):
        self.index_to_token = [UNKNOWN_TOKEN]
        self.token_to_index = {UNKNOWN_TOKEN: UNKNOWN_INDEX}
        for w in words or []:
            self.add(w)

    def add(self, word: str) -> int:
        idx = self.token_to_index.get(word)
        if idx is None:
            idx = len(self.index_to_token)
            self.token_to_index[word] = idx
            self.index_to_token.append(word)
        return idx

    @property
    def size(self) -> int:
        return len(self.index_to_token)

    def tokenize(self, text: str) -> list[int]:
        """Map text to vocab indices; unknown words map to 0."""
        return [self.token_to_index.get(w, UNKNOWN_INDEX) for w in split_words(text)]


@dataclass
class Document:
    docid: int
    title: str
    body: str
    tokens: list[int] = field(default_factory=list)


@dataclass
class QueryExample:
    qid: int
    tokens: list[int]
    gold_docid: int
    text: str = ""


@dataclass
class Corpus:
    documents: list[Document]
    vocab: Vocab

    @property
    def num_docs(self) -> int:
        return len(self.documents)


def _build_corpus(rows: list[tuple[int, str, str]]) -> Corpus:
    """Assemble a Corpus from (docid, title, body) rows; checks density."""
    n = len(rows)
    by_id = {docid: (title, body) for docid, title, body in rows}
    for want in range(n):
        if want not in by_id:
            raise NonDenseDocids(want)
    vocab = Vocab()
    documents = []
    for docid in range(n):
        title, body = by_id[docid]
        words = split_words(body)
        if not words:
            raise EmptyDocument(docid)
        for w in words:
            vocab.add(w)
        documents.append(Document(docid=docid, title=title, body=body))
    for doc in documents:
        doc.tokens = vocab.tokenize(doc.body)
    return Corpus(documents=documents, vocab=vocab)


def load_corpus(path) -> Corpus:
    """Read UTF-8 JSONL with fields docid (int), title (str), text (str)."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedLine(path, lineno, str(e)) from e
            if not isinstance(obj, dict):
                raise MalformedLine(path, lineno, "not a JSON object")
            try:
                docid, title, body = obj["docid"], obj["title"], obj["text"]
            except KeyError as e:
                raise MalformedLine(path, lineno, f"missing field {e}") from e
            if not isinstance(docid, int) or isinstance(docid, bool):
                raise MalformedLine(path, lineno, "docid must be an integer")
            if not isinstance(title, str) or not isinstance(body, str):
                raise MalformedLine(path, lineno, "title/text must be strings")
            rows.append((docid, title, body))
    return _build_corpus(rows)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for doc in corpus.documents:
            f.write(json.dumps({"docid": doc.docid, "title": doc.title, "text": doc.body}) + "\n")


def load_queries(path, corpus: Corpus) -> list[QueryExample]:
    """Read TSV lines `query<TAB>gold_docid`; qids follow line order."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedLine(path, lineno, "expected query<TAB>docid")
            text, gold_str = parts
            try:
                gold = int(gold_str)
            except ValueError as e:
                raise MalformedLine(path, lineno, "docid not an integer") from e
            if not 0 <= gold < corpus.num_docs:
                raise GoldOutOfRange(f"{path}:{lineno}: docid {gold} outside [0, {corpus.num_docs})")
            tokens = corpus.vocab.tokenize(text)
            if not tokens:
                raise MalformedLine(path, lineno, "query has no tokens")
            out.append(QueryExample(qid=len(out), tokens=tokens, gold_docid=gold, text=text))
    return out


def save_queries(queries: list[QueryExample], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for q in queries:
            f.write(f"{q.text}\t{q.gold_docid}\n")


@dataclass
class SyntheticConfig:
    num_topics: int = 20
    docs_per_topic: int = 10
    vocab_per_topic: int = 50
    shared_vocab: int = 100
    doc_len: int = 60
    queries_per_doc: int = 5
    query_len: int = 32
    near_duplicate_fraction: float = 0.5
    seed: int = 7

    def validate(self) -> None:
        counts = {
            "num_topics": self.num_topics,
            "docs_per_topic": self.docs_per_topic,
            "vocab_per_topic": self.vocab_per_topic,
            "doc_len": self.doc_len,
            "queries_per_doc": self.queries_per_doc,
            "query_len": self.query_len,
        }
        for name, value in counts.items():
            if value < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {value}")
        if self.shared_vocab < 0:
            raise InvalidConfig(f"shared_vocab must be >= 0, got {self.shared_vocab}")
        if not 0.0 <= self.near_duplicate_fraction <= 1.0:
            raise InvalidConfig(f"near_duplicate_fraction must be in [0, 1], got {self.near_duplicate_fraction}")
        if self.query_len > self.doc_len:
            raise InvalidConfig("query_len cannot exceed doc_len")

    @property
    def num_docs(self) -> int:
        return self.num_topics * self.docs_per_topic


def _is_test_query(seed: int, qid: int) -> bool:
    """Hash-bucket split: roughly one query in five goes to the test set."""
    return mix_seed(seed, qid) % 5 == 0


def generate_synthetic(cfg: SyntheticConfig) -> tuple[Corpus, list[QueryExample], list[QueryExample]]:
    """Build a clustered corpus plus train/test queries, reproducibly.

    Each topic owns a disjoint word list; every position of a document
    draws a shared-vocabulary word with probability 0.2 (when any shared
    words are configured) and a topic word otherwise. Within a topic, a
    near_duplicate_fraction of the documents are copies of one prototype
    with 5% of positions rewritten. Rewrites draw from a reserved slice
    of the topic vocabulary that regular sampling never touches, each
    word used at most once per topic, so every near-duplicate carries a
    few rare words that identify it the way a date or a name tells
    otherwise-identical pages apart. Queries sample distinct positions
    of their gold document.
    """
    cfg.validate()
    rng = Xoshiro256StarStar(cfg.seed)
    shared_words = [f"c{j}" for j in range(cfg.shared_vocab)]

    def draw_word(content_words: list[str]) -> str:
        if shared_words and rng.random() < _SHARED_RATE:
            return shared_words[rng.randbelow(len(shared_words))]
        return content_words[rng.randbelow(len(content_words))]

    num_dups = int(cfg.near_duplicate_fraction * cfg.docs_per_topic + 0.5)
    perturb_count = max(1, cfg.doc_len // 20)
    reserve = min(num_dups * perturb_count, cfg.vocab_per_topic - 1)

    rows = []
    doc_words: list[list[str]] = []
    for t in range(cfg.num_topics):
        topic_words = [f"t{t}w{j}" for j in range(cfg.vocab_per_topic)]
        content_words = topic_words[: cfg.vocab_per_topic - reserve]
        marker_pool = topic_words[cfg.vocab_per_topic - reserve :]
        proto = [draw_word(content_words) for _ in range(cfg.doc_len)]
        for i in range(cfg.docs_per_topic):
            if i < cfg.docs_per_topic - num_dups:
                words = [draw_word(content_words) for _ in range(cfg.doc_len)]
            else:
                words = list(proto)
                for pos in rng.sample_indices(cfg.doc_len, perturb_count):
                    if marker_pool:
                        words[pos] = marker_pool.pop(rng.randbelow(len(marker_pool)))
                    else:
                        replacement = content_words[rng.randbelow(len(content_words))]
                        while len(content_words) > 1 and replacement == words[pos]:
                            replacement = content_words[rng.randbelow(len(content_words))]
                        words[pos] = replacement
            docid = t * cfg.docs_per_topic + i
            rows.append((docid, f"topic{t:02d}-doc{i:02d}", " ".join(words)))
            doc_words.append(words)

    corpus = _build_corpus(rows)

    train_queries: list[QueryExample] = []
    test_queries: list[QueryExample] = []
    for docid in range(cfg.num_docs):
        words = doc_words[docid]
        for j in range(cfg.queries_per_doc):
            qid = docid * cfg.queries_per_doc + j
            positions = rng.sample_indices(cfg.doc_len, cfg.query_len)
            text = " ".join(words[pos] for pos in positions)
            example = QueryExample(qid=qid, tokens=corpus.vocab.tokenize(text), gold_docid=docid, text=text)
            if _is_test_query(cfg.seed, qid):
                test_queries.append(example)
            else:
                train_queries.append(example)
    return corpus, train_queries, test_queries
