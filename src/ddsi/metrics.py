"""Relevance and diversity metrics for evaluation runs.

Relevance: Hits@{1,5,10} and MRR@10 over gold ranks. Diversity, all
computed on each query's retrieved top set and then averaged over
queries: mean pairwise ROUGE-L of the document texts (homogenization),
n-gram diversity (unique/total summed over n = 1..4, n-grams never
crossing document boundaries), and the DEFLATE compression ratio of the
concatenated texts. High homogenization / high CR / low NGD all mean a
redundant result set.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import Corpus, QueryExample
from .errors import (
    ColumnMismatch,
    EmptyDocument,
    EmptyInput,
    EmptyRun,
    MalformedLine,
    TooFewDocs,
)
# batch_logits and top_k stay importable only because perfbench/layers.py wraps them by name
from .model import ModelParams, RankedList, batch_logits, pack_queries, ranked_lists, score_blocks, top_k  # noqa: F401


@dataclass
class EvalRun:
    rankings: list[RankedList]
    golds: list[int]


@dataclass
class MetricsReport:
    hits1: float
    hits5: float
    hits10: float
    mrr10: float
    rouge_l_hom: float | None
    ngd: float
    cr: float
    num_queries: int


def _gold_rank(ranking: RankedList, gold: int) -> int | None:
    """1-based rank of the gold docid, or None when absent."""
    for pos, (docid, _) in enumerate(ranking.entries, start=1):
        if docid == gold:
            return pos
    return None


def hits_at_k(run: EvalRun, k: int) -> float:
    if not run.rankings:
        raise EmptyRun("no queries in run")
    hits = 0
    for ranking, gold in zip(run.rankings, run.golds):
        rank = _gold_rank(ranking, gold)
        if rank is not None and rank <= k:
            hits += 1
    return hits / len(run.rankings)


def mrr_at_k(run: EvalRun, k: int = 10) -> float:
    if not run.rankings:
        raise EmptyRun("no queries in run")
    total = 0.0
    for ranking, gold in zip(run.rankings, run.golds):
        rank = _gold_rank(ranking, gold)
        if rank is not None and rank <= k:
            total += 1.0 / rank
    return total / len(run.rankings)


def lcs_len(a, b) -> int:
    """Longest common subsequence length of two token sequences."""
    if len(a) == 0 or len(b) == 0:
        return 0
    tok, lengths = kernels.pack_token_matrix([list(a), list(b)])
    out = kernels.lcs_lengths_pairs(tok, lengths, np.array([0]), np.array([1]))
    return int(out[0])


def _rouge_f1(lcs, len_a, len_b) -> np.ndarray:
    """F1 of each pair, 2pr/(p+r) with p = lcs/len_b and r = lcs/len_a; 0 where lcs is 0."""
    lcs = np.asarray(lcs)
    precision = lcs / len_b
    recall = lcs / len_a
    f1 = np.zeros(lcs.shape, dtype=np.float64)
    np.divide(2.0 * precision * recall, precision + recall, out=f1, where=lcs > 0)
    return f1


def rouge_l(a, b) -> float:
    """LCS-based F1 between two token sequences."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyDocument("<rouge input>")
    return float(_rouge_f1(lcs_len(a, b), len(a), len(b)))


def _homogenization_sets(tok, lengths, sets) -> list[float]:
    """Mean pairwise ROUGE-L of each set of two or more rows, in set order.

    sets holds arrays of row indices into the packed (tok, lengths); the
    pairs of every set go to one LCS kernel call.
    """
    firsts, seconds = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for rows in sets:
        if len(rows) >= 2:
            i, j = np.triu_indices(len(rows), k=1)
            firsts.append(rows[i])
            seconds.append(rows[j])
    pa, pb = np.concatenate(firsts), np.concatenate(seconds)
    if (lengths[pa] == 0).any() or (lengths[pb] == 0).any():
        raise EmptyDocument("<homogenization input>")
    f1 = _rouge_f1(kernels.lcs_lengths_pairs(tok, lengths, pa, pb), lengths[pa], lengths[pb])
    bounds = np.cumsum([len(rows) for rows in firsts]).tolist()
    return [float(np.mean(f1[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]


def homogenization(docs) -> float:
    """Mean pairwise ROUGE-L over all unordered document pairs."""
    docs = [list(d) for d in docs]
    if len(docs) < 2:
        raise TooFewDocs(f"homogenization needs >= 2 documents, got {len(docs)}")
    tok, lengths = kernels.pack_token_matrix(docs)
    return _homogenization_sets(tok, lengths, [np.arange(len(docs))])[0]


def _ngd_sets(tok, lengths, sets) -> np.ndarray:
    """N-gram diversity of each set of rows: the sum over n = 1..4 of
    unique/total n-grams, pooled over the set's rows.

    Each row's n-grams get integer ids once, shared by every set: an
    (n+1)-gram's id numbers the distinct (n-gram id, next token) pairs.
    """
    members = np.concatenate(sets)
    owner = np.repeat(np.arange(len(sets)), [len(rows) for rows in sets])
    if (np.bincount(owner, weights=lengths[members], minlength=len(sets)) == 0).any():
        raise EmptyInput("no tokens for n-gram diversity")
    token_ids, ntok = kernels.dense_token_ids(tok, lengths)
    gram_ids, ngrams = token_ids, ntok
    score = np.zeros(len(sets), dtype=np.float64)
    for n in range(1, 5):
        if n > 1:
            ends = token_ids[:, n - 1 :]
            keys = gram_ids[:, : ends.shape[1]] * ntok + ends
            gram_ids = np.full(ends.shape, -1, dtype=np.int64)
            uniq, gram_ids[ends >= 0] = np.unique(keys[ends >= 0], return_inverse=True)
            ngrams = uniq.shape[0]
        total = np.bincount(owner, weights=np.maximum(lengths[members] - n + 1, 0), minlength=len(sets))
        grams = gram_ids[members]
        keys = np.sort((owner[:, None] * ngrams + grams)[grams >= 0])
        first = np.diff(keys, prepend=-1) != 0
        distinct = np.bincount(keys[first] // max(ngrams, 1), minlength=len(sets))
        score += np.where(total > 0, distinct / np.maximum(total, 1), 0.0)
    return score


def ngd(docs) -> float:
    """Sum over n=1..4 of unique/total n-gram ratios, pooled over docs."""
    docs = [list(d) for d in docs]
    if not docs:
        raise EmptyInput("no tokens for n-gram diversity")
    tok, lengths = kernels.pack_token_matrix(docs)
    return float(_ngd_sets(tok, lengths, [np.arange(len(docs))])[0])


def compression_ratio(texts) -> float:
    """Raw UTF-8 bytes over level-6 DEFLATE bytes of newline-joined texts."""
    raw = "\n".join(texts).encode("utf-8")
    if not raw:
        raise EmptyInput("nothing to compress")
    return len(raw) / len(zlib.compress(raw, 6))


def run_queries(p: ModelParams, queries: list[QueryExample], cutoff: int = 10) -> EvalRun:
    """Forward + top-cutoff for every query."""
    if not queries:
        raise EmptyRun("no queries")
    tok, lengths = pack_queries([q.tokens for q in queries], p.vocab_size)
    rankings = []
    for block, _, logits in score_blocks(p, tok, lengths):
        top = kernels.top_k(logits, cutoff)
        rankings += ranked_lists([q.qid for q in queries[block]], top, np.take_along_axis(logits, top, axis=1))
    return EvalRun(rankings=rankings, golds=[q.gold_docid for q in queries])


def report_from_run(run: EvalRun, corpus: Corpus) -> MetricsReport:
    if not run.rankings:
        raise EmptyRun("no queries in run")
    docs = corpus.documents
    for ranking in run.rankings:
        for docid, _ in ranking.entries:
            if not 0 <= docid < len(docs):
                raise EmptyInput(f"run references unknown docid {docid}")

    docids = sorted({docid for ranking in run.rankings for docid, _ in ranking.entries})
    row_of = {docid: row for row, docid in enumerate(docids)}
    tok, lengths = kernels.pack_token_matrix([docs[docid].tokens for docid in docids])
    sets = [np.array([row_of[docid] for docid, _ in ranking.entries], dtype=np.int64) for ranking in run.rankings]
    hom_vals = _homogenization_sets(tok, lengths, sets)
    ngd_vals = _ngd_sets(tok, lengths, sets)
    cr_vals = [compression_ratio([docs[docid].body for docid, _ in ranking.entries]) for ranking in run.rankings]

    return MetricsReport(
        hits1=hits_at_k(run, 1),
        hits5=hits_at_k(run, 5),
        hits10=hits_at_k(run, 10),
        mrr10=mrr_at_k(run, 10),
        rouge_l_hom=float(np.mean(hom_vals)) if hom_vals else None,
        ngd=float(np.mean(ngd_vals)),
        cr=float(np.mean(cr_vals)),
        num_queries=len(run.rankings),
    )


def evaluate(p: ModelParams, queries: list[QueryExample], corpus: Corpus, cutoff: int = 10) -> MetricsReport:
    return report_from_run(run_queries(p, queries, cutoff), corpus)


# ---------------------------------------------------------------------------
# run / report files
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ["dataset", "alpha", "hits1", "hits5", "hits10", "mrr10", "rouge_l", "ngd", "cr", "num_queries"]


def write_run(run: EvalRun, path) -> None:
    """TREC-style TSV: qid, docid, 1-based rank, score."""
    with open(path, "w", encoding="utf-8") as f:
        for ranking in run.rankings:
            for rank, (docid, score) in enumerate(ranking.entries, start=1):
                f.write(f"{ranking.qid}\t{docid}\t{rank}\t{score:.17g}\n")


def read_run(path) -> list[RankedList]:
    by_qid: dict[int, RankedList] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise MalformedLine(path, lineno, "expected qid<TAB>docid<TAB>rank<TAB>score")
            try:
                qid, docid, _rank, score = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError as e:
                raise MalformedLine(path, lineno, str(e)) from e
            by_qid.setdefault(qid, RankedList(qid=qid, entries=[])).entries.append((docid, score))
    return list(by_qid.values())


def _fmt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.17g}"


def sort_report_rows(rows: list[dict]) -> list[dict]:
    """Report rows by dataset, then descending alpha (rows without alpha last)."""
    return sorted(rows, key=lambda r: (r["dataset"], -(r["alpha"] if r["alpha"] is not None else -np.inf)))


def report_tsv(rows: list[dict]) -> str:
    """Header plus one line per report row, floats at full precision."""
    lines = ["\t".join(REPORT_COLUMNS)]
    for r in rows:
        lines.append("\t".join(str(r[c]) if c in ("dataset", "num_queries") else _fmt(r[c]) for c in REPORT_COLUMNS))
    return "\n".join(lines) + "\n"


def write_report_tsv(report: MetricsReport, path, *, dataset: str, alpha: float | None) -> None:
    row = {
        "dataset": dataset,
        "alpha": alpha,
        "hits1": report.hits1,
        "hits5": report.hits5,
        "hits10": report.hits10,
        "mrr10": report.mrr10,
        "rouge_l": report.rouge_l_hom,
        "ngd": report.ngd,
        "cr": report.cr,
        "num_queries": report.num_queries,
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(report_tsv([row]))


def read_report_tsv(path) -> list[dict]:
    """Rows of a report TSV as dicts; header must match REPORT_COLUMNS."""
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines or lines[0].split("\t") != REPORT_COLUMNS:
        raise ColumnMismatch(f"{path}: header must be {REPORT_COLUMNS}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(REPORT_COLUMNS):
            raise ColumnMismatch(f"{path}:{lineno}: expected {len(REPORT_COLUMNS)} columns")
        row: dict = dict(zip(REPORT_COLUMNS, parts))
        for key in ("alpha", "hits1", "hits5", "hits10", "mrr10", "rouge_l", "ngd", "cr"):
            row[key] = None if row[key] == "NA" else float(row[key])
        row["num_queries"] = int(row["num_queries"])
        rows.append(row)
    return rows


def format_report_table(rows: list[dict]) -> str:
    """Merged rows rendered Table-2 style, dataset then descending alpha."""
    header = ["Dataset", "alpha", "Hits@1", "Hits@5", "Hits@10", "MRR@10", "ROUGE-L", "NGD", "CR"]
    cells = [header]
    for r in sort_report_rows(rows):
        cells.append(
            [r["dataset"]]
            + ["NA" if r[k] is None else f"{r[k]:.4f}" for k in ("alpha", "hits1", "hits5", "hits10", "mrr10", "rouge_l", "ngd", "cr")]
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
