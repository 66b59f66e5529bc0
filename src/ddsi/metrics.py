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
from dataclasses import astuple, dataclass

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
from .fileio import atomic_open, float_cell, int_cell, read_records
from .helper import Helper
# batch_logits and top_k stay importable only because perfbench/layers.py wraps them by name
from .model import ModelParams, RankedList, batch_logits, pack_query_set, ranked_lists, score_blocks, top_k  # noqa: F401


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


def _gold_ranks(run: EvalRun) -> list[int]:
    """1-based rank of each query's gold docid, 0 where its ranking lacks it."""
    if not run.rankings:
        raise EmptyRun("no queries in run")
    ranks = []
    for ranking, gold in zip(run.rankings, run.golds):
        docids = ranking.docids()
        ranks.append(docids.index(gold) + 1 if gold in docids else 0)
    return ranks


def hits_at_k(run: EvalRun, k: int) -> float:
    return sum(0 < rank <= k for rank in _gold_ranks(run)) / len(run.rankings)


def mrr_at_k(run: EvalRun, k: int = 10) -> float:
    total = 0.0
    # summed in query order, as np.sum's pairwise sum would move the last bits
    for rank in _gold_ranks(run):
        if 0 < rank <= k:
            total += 1.0 / rank
    return total / len(run.rankings)


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
    # ROUGE-L F1 of each pair, 2pr/(p+r) with p = lcs/len_b and r = lcs/len_a; 0 where lcs is 0
    lcs = kernels.lcs_lengths_pairs(tok, lengths, pa, pb)
    precision = lcs / lengths[pb]
    recall = lcs / lengths[pa]
    f1 = np.zeros(lcs.shape, dtype=np.float64)
    np.divide(2.0 * precision * recall, precision + recall, out=f1, where=lcs > 0)
    bounds = np.cumsum([len(rows) for rows in firsts]).tolist()
    return [float(np.mean(f1[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]


def homogenization(docs) -> float:
    """Mean pairwise ROUGE-L over all unordered document pairs."""
    docs = [list(d) for d in docs]
    if len(docs) < 2:
        raise TooFewDocs(f"homogenization needs >= 2 documents, got {len(docs)}")
    tok, lengths = kernels.pack_token_matrix(docs)
    return _homogenization_sets(tok, lengths, [np.arange(len(docs))])[0]


def rouge_l(a, b) -> float:
    """LCS-based F1 between two token sequences: the homogenization of the pair."""
    return homogenization([a, b])


# _ngd_sets counts distinct n-grams for groups of sets of about this many
# token cells, so that its sort works on a bounded slice of an eval's sets
NGD_CELLS = 1 << 16


def _ngd_sets(tok, lengths, sets) -> np.ndarray:
    """N-gram diversity of each set of rows: the sum over n = 1..4 of
    unique/total n-grams, pooled over the set's rows.

    Each row's n-grams get integer ids once, shared by every set: an
    (n+1)-gram's id numbers the distinct (n-gram id, next token) pairs.
    """
    members = np.concatenate(sets)
    sizes = [len(rows) for rows in sets]
    owner = np.repeat(np.arange(len(sets)), sizes)
    if (np.bincount(owner, weights=lengths[members], minlength=len(sets)) == 0).any():
        raise EmptyInput("no tokens for n-gram diversity")
    bounds = np.concatenate([[0], np.cumsum(sizes)])  # set s owns members[bounds[s]:bounds[s + 1]]
    group = max(1, NGD_CELLS // max(1, tok.shape[1] * max(sizes)))
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
        distinct = np.zeros(len(sets), dtype=np.int64)
        for lo in range(0, len(sets), group):
            hi = min(lo + group, len(sets))
            span = slice(bounds[lo], bounds[hi])
            grams = gram_ids[members[span]]
            keys = np.sort(((owner[span] - lo)[:, None] * ngrams + grams)[grams >= 0])
            first = np.diff(keys, prepend=-1) != 0
            distinct[lo:hi] = np.bincount(keys[first] // max(ngrams, 1), minlength=hi - lo)
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


# report_from_run's threads call it by this name, which perfbench/layers.py
# does not wrap: its span recorder serves one thread only
_compression_ratio = compression_ratio


def run_queries(p: ModelParams, queries: list[QueryExample], cutoff: int = 10) -> EvalRun:
    """Forward + top-cutoff for every query."""
    tok, lengths, golds = pack_query_set(p, queries)
    rankings = []
    for block, _, logits in score_blocks(p, tok, lengths):
        top = kernels.top_k(logits, cutoff)
        rankings += ranked_lists([q.qid for q in queries[block]], top, np.take_along_axis(logits, top, axis=1))
    return EvalRun(rankings=rankings, golds=golds.tolist())


def report_from_run(run: EvalRun, corpus: Corpus) -> MetricsReport:
    """The metrics of a run. A helper thread computes the compression
    ratios while this one computes homogenization and NGD, then this one
    takes the sets the helper has not reached. Each ratio is computed
    whole by one thread and the mean is taken in set order, so the
    report's bytes do not depend on how the threads share the sets."""
    if not run.rankings:
        raise EmptyRun("no queries in run")
    docs = corpus.documents
    flat = np.array([docid for ranking in run.rankings for docid, _ in ranking.entries], dtype=np.int64)
    unknown = (flat < 0) | (flat >= len(docs))
    if unknown.any():
        raise EmptyInput(f"run references unknown docid {flat[unknown.argmax()]}")
    docids, rows = np.unique(flat, return_inverse=True)
    tok, lengths = kernels.pack_token_matrix([docs[docid].tokens for docid in docids])
    sets = np.split(rows, np.cumsum([len(ranking.entries) for ranking in run.rankings])[:-1])
    cr_vals = np.empty(len(run.rankings))

    def job(claimed):  # the ratio of each claimed set, into its slot
        for s in claimed:
            cr_vals[s] = _compression_ratio([docs[docid].body for docid, _ in run.rankings[s].entries])

    with Helper("eval-helper") as helper, helper.share(len(cr_vals), job) as claimed:
        hom_vals = _homogenization_sets(tok, lengths, sets)
        ngd_vals = _ngd_sets(tok, lengths, sets)
        job(claimed)

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

# report.tsv's columns: after dataset and alpha come MetricsReport's fields, in order
REPORT_COLUMNS = ["dataset", "alpha", "hits1", "hits5", "hits10", "mrr10", "rouge_l", "ngd", "cr", "num_queries"]
_FLOATS = REPORT_COLUMNS[1:-1]  # float or NA; dataset is text and num_queries an int
# report.txt's headings, one per column but num_queries
_HEADINGS = ["Dataset", "alpha", "Hits@1", "Hits@5", "Hits@10", "MRR@10", "ROUGE-L", "NGD", "CR"]


def write_run(run: EvalRun, path) -> None:
    """TREC-style TSV: qid, docid, 1-based rank, score."""
    with atomic_open(path) as f:
        for ranking in run.rankings:
            for rank, (docid, score) in enumerate(ranking.entries, start=1):
                f.write(f"{ranking.qid}\t{docid}\t{rank}\t{score:.17g}\n")


def read_run(path) -> list[RankedList]:
    """Read write_run's format. Each qid's lines give ranks 1..n in file
    order, with no docid twice."""
    by_qid: dict[int, RankedList] = {}
    seen: dict[int, set[int]] = {}
    for lineno, line in read_records(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise MalformedLine(path, lineno, "expected qid<TAB>docid<TAB>rank<TAB>score")
        try:
            qid, docid, rank = map(int_cell, parts[:3])
            score = float_cell(parts[3])
        except ValueError as e:
            raise MalformedLine(path, lineno, str(e)) from e
        entries = by_qid.setdefault(qid, RankedList(qid=qid, entries=[])).entries
        docids = seen.setdefault(qid, set())
        if rank != len(entries) + 1:
            raise MalformedLine(path, lineno, f"qid {qid}: rank {rank} where {len(entries) + 1} is next")
        if docid in docids:
            raise MalformedLine(path, lineno, f"qid {qid}: docid {docid} ranked twice")
        docids.add(docid)
        entries.append((docid, score))
    return list(by_qid.values())


def _fmt(value: float | None, spec: str) -> str:
    return "NA" if value is None else format(value, spec)


def sort_report_rows(rows: list[dict]) -> list[dict]:
    """Report rows by dataset, then descending alpha, then the other cells
    ascending in column order; NA sorts last in every cell."""
    def key(r):
        cells = [None if r["alpha"] is None else -r["alpha"], *(r[c] for c in REPORT_COLUMNS[2:])]
        return (r["dataset"], *((v is None, v or 0) for v in cells))
    return sorted(rows, key=key)


def report_tsv(rows: list[dict]) -> str:
    """Header plus one line per report row, floats at full precision."""
    lines = ["\t".join(REPORT_COLUMNS)]
    for r in rows:
        lines.append("\t".join(_fmt(r[c], ".17g") if c in _FLOATS else str(r[c]) for c in REPORT_COLUMNS))
    return "\n".join(lines) + "\n"


def write_report_tsv(report: MetricsReport, path, *, dataset: str, alpha: float | None) -> None:
    row = dict(zip(REPORT_COLUMNS, (dataset, alpha, *astuple(report))))
    with atomic_open(path) as f:
        f.write(report_tsv([row]))


def read_report_tsv(path) -> list[dict]:
    """Rows of a report TSV as dicts; header must match REPORT_COLUMNS and
    each float cell, when given, must be finite."""
    lines = read_records(path)
    if not lines or lines[0][1].split("\t") != REPORT_COLUMNS:
        raise ColumnMismatch(f"{path}: header must be {REPORT_COLUMNS}")
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(REPORT_COLUMNS):
            raise ColumnMismatch(f"{path}:{lineno}: expected {len(REPORT_COLUMNS)} columns")
        row: dict = {"dataset": parts[0]}
        for key, cell in zip(REPORT_COLUMNS[1:], parts[1:]):
            try:
                row[key] = int_cell(cell) if key == "num_queries" else None if cell == "NA" else float_cell(cell)
            except ValueError as e:
                raise ColumnMismatch(f"{path}:{lineno}: {key} {e}") from e
        rows.append(row)
    return rows


def format_report_table(rows: list[dict]) -> str:
    """Merged rows rendered Table-2 style, dataset then descending alpha."""
    cells = [_HEADINGS]
    for r in sort_report_rows(rows):
        cells.append([r["dataset"]] + [_fmt(r[c], ".4f") for c in _FLOATS])
    widths = [max(len(row[i]) for row in cells) for i in range(len(_HEADINGS))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
