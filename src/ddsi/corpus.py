"""Document and query collections: loading, tokenization, synthesis.

Docids are dense 0-based integers because the classifier layer indexes
rows by docid. The synthetic generator builds topical clusters salted
with near-duplicate documents, which is the regime where retrieved sets
turn redundant and a diversity signal has something to do.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import count, repeat

from .errors import (
    EmptyDocument,
    EmptyInput,
    GoldOutOfRange,
    InvalidConfig,
    MalformedLine,
    NonDenseDocids,
)
from .fileio import atomic_open, int_cell, read_records
from .rng import Xoshiro256StarStar, mix_seed

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# on ASCII text _WORD_RE's words are the runs of [a-z0-9] once lowercased:
# this table lowercases each ASCII letter and digit, and makes every other byte a space
_ASCII_WORDS = bytes(ord(chr(c).lower()) if c < 128 and chr(c).isalnum() else 0x20 for c in range(256))

UNKNOWN_TOKEN = "<unk>"
UNKNOWN_INDEX = 0

# mixing weight for shared-vocabulary draws during synthesis
_SHARED_RATE = 0.2


def split_words(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_WORDS).decode("ascii").split()
    return _WORD_RE.findall(text.lower())


class Vocab:
    """Bijection between tokens and [0, V); index 0 is the unknown token."""

    def __init__(self, words: list[str] | None = None):
        # each word takes the next free index at its first appearance
        self.index_to_token = list(dict.fromkeys([UNKNOWN_TOKEN, *(words or [])]))
        self.token_to_index = {w: i for i, w in enumerate(self.index_to_token)}

    @property
    def size(self) -> int:
        return len(self.index_to_token)

    def tokenize(self, text: str) -> list[int]:
        """Map text to vocab indices; unknown words map to 0."""
        words = split_words(text)
        return list(map(self.token_to_index.get, words, repeat(UNKNOWN_INDEX, len(words))))


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


def _build_corpus(rows: Iterable[tuple[int, str, str, list[str]]], where: Callable[[int], str] | None = None) -> Corpus:
    """Assemble a Corpus from (docid, title, body, words) rows in docid
    order, docids 0..N-1 and words being split_words(body). One pass over
    the words numbers the vocabulary: a word's id is the next free one at
    its first appearance, so each document's tokens are
    vocab.tokenize(body). where(docid), when given, names the path:line a
    row came from."""
    index = defaultdict(count(UNKNOWN_INDEX + 1).__next__)
    documents = []
    for docid, title, body, words in rows:
        if not words:
            raise EmptyDocument(docid, where(docid) if where else "")
        documents.append(Document(docid=docid, title=title, body=body, tokens=list(map(index.__getitem__, words))))
    return Corpus(documents=documents, vocab=Vocab(list(index)))


def load_corpus(path) -> Corpus:
    """Read UTF-8 JSONL with fields docid (int), title (str), text (str)."""
    rows = []
    line_of: dict[int, int] = {}  # the line each docid is on
    for lineno, line in read_records(path):
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
        if docid in line_of:
            raise MalformedLine(path, lineno, f"docid {docid} is already on line {line_of[docid]}")
        line_of[docid] = lineno
        rows.append((docid, title, body))
    if not rows:
        raise EmptyInput(f"{path}: no documents")
    # the docids are distinct, so they are 0..N-1 unless one lies outside
    n = len(rows)
    stray = next((docid for docid in line_of if not 0 <= docid < n), None)
    if stray is not None:
        missing = next(want for want in range(n) if want not in line_of)
        raise NonDenseDocids(missing, f"{path}:{line_of[stray]}: docid {stray} is not in 0..{n - 1}")
    # in docid order, each body split only as its row is numbered: the words
    # of one document are alive at a time
    rows.sort()
    split_rows = ((docid, title, body, split_words(body)) for docid, title, body in rows)
    return _build_corpus(split_rows, lambda docid: f"{path}:{line_of[docid]}")


def save_corpus(corpus: Corpus, path) -> None:
    with atomic_open(path) as f:
        for doc in corpus.documents:
            f.write(json.dumps({"docid": doc.docid, "title": doc.title, "text": doc.body}) + "\n")


def load_queries(path, corpus: Corpus) -> list[QueryExample]:
    """Read TSV lines `query<TAB>gold_docid`; qids follow line order."""
    out = []
    for lineno, line in read_records(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLine(path, lineno, "expected query<TAB>docid")
        text, gold_str = parts
        try:
            gold = int_cell(gold_str)
        except ValueError as e:
            raise MalformedLine(path, lineno, f"docid {e}") from e
        if not 0 <= gold < corpus.num_docs:
            raise GoldOutOfRange(f"{path}:{lineno}: docid {gold} outside [0, {corpus.num_docs})")
        tokens = corpus.vocab.tokenize(text)
        if not tokens:
            raise MalformedLine(path, lineno, "query has no tokens")
        out.append(QueryExample(qid=len(out), tokens=tokens, gold_docid=gold, text=text))
    return out


def save_queries(queries: list[QueryExample], path) -> None:
    with atomic_open(path) as f:
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

    def draw_words(choices: list[str]) -> list[str]:
        # choices are the shared words, then the topic's content words
        drawn = rng.mixture_below(cfg.doc_len, _SHARED_RATE, len(shared_words), len(choices) - len(shared_words))
        return list(map(choices.__getitem__, drawn))

    num_dups = int(cfg.near_duplicate_fraction * cfg.docs_per_topic + 0.5)
    perturb_count = max(1, cfg.doc_len // 20)
    reserve = min(num_dups * perturb_count, cfg.vocab_per_topic - 1)

    rows = []
    for t in range(cfg.num_topics):
        topic_words = [f"t{t}w{j}" for j in range(cfg.vocab_per_topic)]
        content_words = topic_words[: cfg.vocab_per_topic - reserve]
        marker_pool = topic_words[cfg.vocab_per_topic - reserve :]
        choices = shared_words + content_words
        proto = draw_words(choices)
        for i in range(cfg.docs_per_topic):
            if i < cfg.docs_per_topic - num_dups:
                words = draw_words(choices)
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
            rows.append((docid, f"topic{t:02d}-doc{i:02d}", " ".join(words), words))

    corpus = _build_corpus(rows)

    train_queries: list[QueryExample] = []
    test_queries: list[QueryExample] = []
    for (docid, _, _, words), doc in zip(rows, corpus.documents):
        for j in range(cfg.queries_per_doc):
            qid = docid * cfg.queries_per_doc + j
            positions = rng.sample_indices(cfg.doc_len, cfg.query_len)
            text = " ".join([words[pos] for pos in positions])
            # every word is a lowercase [a-z0-9] run in the vocabulary, so
            # these are vocab.tokenize(text)
            tokens = [doc.tokens[pos] for pos in positions]
            example = QueryExample(qid=qid, tokens=tokens, gold_docid=docid, text=text)
            if _is_test_query(cfg.seed, qid):
                test_queries.append(example)
            else:
                train_queries.append(example)
    return corpus, train_queries, test_queries
