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
from .model import ModelParams, RankedList, batch_logits, top_k


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


def _rouge_f1(lcs: int, len_a: int, len_b: int) -> float:
    if lcs == 0:
        return 0.0
    precision = lcs / len_b
    recall = lcs / len_a
    return 2.0 * precision * recall / (precision + recall)


def rouge_l(a, b) -> float:
    """LCS-based F1 between two token sequences."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyDocument("<rouge input>")
    return _rouge_f1(lcs_len(a, b), len(a), len(b))


def homogenization(docs) -> float:
    """Mean pairwise ROUGE-L over all unordered document pairs."""
    docs = [list(d) for d in docs]
    if len(docs) < 2:
        raise TooFewDocs(f"homogenization needs >= 2 documents, got {len(docs)}")
    for d in docs:
        if not d:
            raise EmptyDocument("<homogenization input>")
    tok, lengths = kernels.pack_token_matrix(docs)
    n = len(docs)
    pa, pb = np.triu_indices(n, k=1)
    lcs = kernels.lcs_lengths_pairs(tok, lengths, pa, pb)
    scores = [_rouge_f1(int(l), len(docs[i]), len(docs[j])) for l, i, j in zip(lcs, pa, pb)]
    return float(np.mean(scores))


def ngd(docs) -> float:
    """Sum over n=1..4 of unique/total n-gram ratios, pooled over docs."""
    docs = [tuple(d) for d in docs]
    if not docs or all(len(d) == 0 for d in docs):
        raise EmptyInput("no tokens for n-gram diversity")
    score = 0.0
    for n in range(1, 5):
        total = 0
        seen = set()
        for d in docs:
            for i in range(len(d) - n + 1):
                seen.add(d[i : i + n])
                total += 1
        if total > 0:
            score += len(seen) / total
    return score


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
    tok, lengths = kernels.pack_token_matrix([q.tokens for q in queries])
    logits = batch_logits(p, tok, lengths)
    rankings = [top_k(logits[i], cutoff, qid=q.qid) for i, q in enumerate(queries)]
    return EvalRun(rankings=rankings, golds=[q.gold_docid for q in queries])


def report_from_run(run: EvalRun, corpus: Corpus) -> MetricsReport:
    if not run.rankings:
        raise EmptyRun("no queries in run")
    docs = corpus.documents
    for ranking in run.rankings:
        for docid, _ in ranking.entries:
            if not 0 <= docid < len(docs):
                raise EmptyInput(f"run references unknown docid {docid}")

    hom_vals: list[float] = []
    ngd_vals: list[float] = []
    cr_vals: list[float] = []
    for ranking in run.rankings:
        retrieved = [docs[docid] for docid, _ in ranking.entries]
        token_sets = [d.tokens for d in retrieved]
        if len(retrieved) >= 2:
            hom_vals.append(homogenization(token_sets))
        ngd_vals.append(ngd(token_sets))
        cr_vals.append(compression_ratio([d.body for d in retrieved]))

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
