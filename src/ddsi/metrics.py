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
    ShapeMismatch,
    TooFewDocs,
)
from .fileio import atomic_open, float_cell, int_cell, read_records
from .helper import Helper
# batch_logits and top_k stay importable only because perfbench/layers.py wraps them by name
from .model import ModelParams, Run, batch_logits, pack_query_set, score_blocks, top_k  # noqa: F401


@dataclass
class EvalRun(Run):
    """A run with the gold docid of each of its queries."""

    golds: np.ndarray


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


def _gold_ranks(run: EvalRun) -> np.ndarray:
    """1-based rank of each query's gold docid, 0 where its ranking lacks it."""
    num_queries, golds = len(run.depths), np.asarray(run.golds)
    if not num_queries:
        raise EmptyRun("no queries in run")
    if len(golds) != num_queries:
        raise ShapeMismatch(f"run has {num_queries} rankings but {len(golds)} golds")
    owner = np.repeat(np.arange(num_queries), run.depths)
    hits = np.flatnonzero(run.docids == golds[owner])
    first = hits[np.diff(owner[hits], prepend=-1) != 0]  # a gold listed twice counts where it comes first
    ranks = np.zeros(num_queries, dtype=np.int64)
    ranks[owner[first]] = run.ranks()[first]
    return ranks


def _hits(ranks: np.ndarray, k: int) -> float:
    return np.count_nonzero((ranks > 0) & (ranks <= k)) / len(ranks)


def _mrr(ranks: np.ndarray, k: int) -> float:
    total = 0.0
    # summed in query order, as np.sum's pairwise sum would move the last bits
    for rank in ranks[(ranks > 0) & (ranks <= k)].tolist():
        total += 1.0 / rank
    return total / len(ranks)


def hits_at_k(run: EvalRun, k: int) -> float:
    return _hits(_gold_ranks(run), k)


def mrr_at_k(run: EvalRun, k: int = 10) -> float:
    return _mrr(_gold_ranks(run), k)


def _homogenization_sets(tok, lengths, members, sizes) -> list[float]:
    """Mean pairwise ROUGE-L of each set of two or more rows, in set order.

    members holds the row index into the packed (tok, lengths) of every
    set member, one set after another, and sizes the number of members of
    each set. The sets of one size share one table of pair indices, which
    keeps each set's pairs in np.triu_indices order, and the pairs of
    every set go to one LCS kernel call.
    """
    # a set of two or more rows pairs each of them
    if (lengths[members[np.repeat(sizes >= 2, sizes)]] == 0).any():
        raise EmptyDocument("<homogenization input>")
    starts = np.cumsum(sizes) - sizes
    multi = np.flatnonzero(sizes >= 2)
    # the sets of each size m, in set order (np.unique without return_inverse
    # would import numpy.ma, 0.5 MB of RSS); their pairs fill pa and pb from
    # bounds[k] on, one set's after another's
    by_size = [(m, multi[sizes[multi] == m]) for m in sorted(set(sizes[multi].tolist()))]
    bounds = np.cumsum([0] + [len(which) * (m * (m - 1) // 2) for m, which in by_size]).tolist()
    pa, pb = np.empty(bounds[-1], np.int64), np.empty(bounds[-1], np.int64)
    for (m, which), lo, hi in zip(by_size, bounds[:-1], bounds[1:]):
        i, j = np.triu_indices(m, k=1)
        rows = members[starts[which][:, None] + np.arange(m)]  # one set a row
        pa[lo:hi] = rows[:, i].ravel()
        pb[lo:hi] = rows[:, j].ravel()
    # ROUGE-L F1 of each pair, 2pr/(p+r) with p = lcs/len_b and r = lcs/len_a; 0 where lcs is 0
    lcs = kernels.lcs_lengths_pairs(tok, lengths, pa, pb)
    precision = lcs / lengths[pb]
    recall = lcs / lengths[pa]
    f1 = np.zeros(lcs.shape, dtype=np.float64)
    np.divide(2.0 * precision * recall, precision + recall, out=f1, where=lcs > 0)
    # each row's mean is np.mean of that set's pairs alone, to the bit
    means = np.empty(len(sizes))
    for (m, which), lo, hi in zip(by_size, bounds[:-1], bounds[1:]):
        means[which] = f1[lo:hi].reshape(len(which), -1).mean(axis=1)
    return means[multi].tolist()


def homogenization(docs) -> float:
    """Mean pairwise ROUGE-L over all unordered document pairs."""
    docs = [list(d) for d in docs]
    if len(docs) < 2:
        raise TooFewDocs(f"homogenization needs >= 2 documents, got {len(docs)}")
    tok, lengths = kernels.pack_token_matrix(docs)
    return _homogenization_sets(tok, lengths, np.arange(len(docs)), np.array([len(docs)]))[0]


def rouge_l(a, b) -> float:
    """LCS-based F1 between two token sequences: the homogenization of the pair."""
    return homogenization([a, b])


# _ngd_sets counts distinct n-grams for groups of sets: a group gathers
# about this many token cells, and its seen-table, one cell per (set,
# n-gram), has at most NGD_CELLS << 2 cells unless one set needs more.
# Tables of 2^19 and 2^20 cells were slower, and one of 2^20 cells raised
# the peak RSS of back-to-back evals by about 1 MB.
NGD_CELLS = 1 << 16


def _ngd_sets(tok, lengths, members, sizes) -> np.ndarray:
    """N-gram diversity of each set of rows: the sum over n = 1..4 of
    unique/total n-grams, pooled over the set's rows.

    members and sizes lay the sets out as _homogenization_sets takes
    them. Each row's n-grams get integer ids once, shared by every set:
    an (n+1)-gram's id numbers the distinct (n-gram id, next token)
    pairs. A set's distinct n-grams are the cells it marks in its row of
    a boolean seen-table.
    """
    nsets = len(sizes)
    owner = np.repeat(np.arange(nsets), sizes)
    if (np.bincount(owner, weights=lengths[members], minlength=nsets) == 0).any():
        raise EmptyInput("no tokens for n-gram diversity")
    bounds = np.concatenate([[0], np.cumsum(sizes)])  # set s owns members[bounds[s]:bounds[s + 1]]
    gathered = max(1, NGD_CELLS // max(1, tok.shape[1] * int(sizes.max())))  # sets a group, by gathered cells
    token_ids, ntok = kernels.dense_token_ids(tok, lengths)
    gram_ids, ngrams = token_ids, ntok
    score = np.zeros(nsets, dtype=np.float64)
    for n in range(1, 5):
        if n > 1:
            ends = token_ids[:, n - 1 :]
            keys = gram_ids[:, : ends.shape[1]] * ntok + ends
            gram_ids = np.full(ends.shape, -1, dtype=np.int64)
            uniq, gram_ids[ends >= 0] = np.unique(keys[ends >= 0], return_inverse=True)
            ngrams = uniq.shape[0]
        total = np.bincount(owner, weights=np.maximum(lengths[members] - n + 1, 0), minlength=nsets)
        distinct = np.zeros(nsets, dtype=np.int64)
        width = ngrams + 1  # column 0 of a set's row takes the -1 of each cell past its rows' n-grams
        group = min(gathered, max(1, (NGD_CELLS << 2) // width))
        for lo in range(0, nsets, group):
            hi = min(lo + group, nsets)
            span = slice(bounds[lo], bounds[hi])
            cells = gram_ids[members[span]]
            cells += ((owner[span] - lo) * width + 1)[:, None]
            seen = np.zeros((hi - lo) * width, dtype=bool)
            seen[cells] = True
            # a count per row: count_nonzero(axis=1) is slower on wide tables (109 x 5,000: 91 -> 222 us)
            distinct[lo:hi] = [np.count_nonzero(row[1:]) for row in seen.reshape(hi - lo, width)]
        score += np.where(total > 0, distinct / np.maximum(total, 1), 0.0)
    return score


def ngd(docs) -> float:
    """Sum over n=1..4 of unique/total n-gram ratios, pooled over docs."""
    docs = [list(d) for d in docs]
    if not docs:
        raise EmptyInput("no tokens for n-gram diversity")
    tok, lengths = kernels.pack_token_matrix(docs)
    return float(_ngd_sets(tok, lengths, np.arange(len(docs)), np.array([len(docs)]))[0])


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
    docids, scores = [], []
    for _, _, logits in score_blocks(p, tok, lengths):
        top = kernels.top_k(logits, cutoff)
        docids.append(top)
        scores.append(np.take_along_axis(logits, top, axis=1))
    return EvalRun.from_rows([q.qid for q in queries], docids, scores, golds=golds)


def report_from_run(run: EvalRun, corpus: Corpus) -> MetricsReport:
    """The metrics of a run. A helper thread computes the compression
    ratios while this one computes homogenization and NGD, then this one
    takes the sets the helper has not reached. Each ratio is computed
    whole by one thread and the mean is taken in set order, so the
    report's bytes do not depend on how the threads share the sets."""
    ranks = _gold_ranks(run)
    docs = corpus.documents
    # a docid past int64, which read_run keeps as a Python int, is unknown too
    unknown = np.flatnonzero((run.docids < 0) | (run.docids >= len(docs)))
    if len(unknown):
        raise EmptyInput(f"run references unknown docid {run.docids[unknown[0]]}")
    # rows: each result's row of the packed documents, in run order
    docids, rows = np.unique(run.docids, return_inverse=True)
    packed = [docs[docid] for docid in docids.tolist()]
    tok, lengths = kernels.pack_token_matrix([doc.tokens for doc in packed])
    texts = [packed[row].body for row in rows.tolist()]  # set s is texts[bounds[s]:bounds[s + 1]]
    bounds = [0, *np.cumsum(run.depths).tolist()]
    cr_vals = np.empty(len(ranks))

    def job(claimed):  # the ratio of each claimed set, into its slot
        for s in claimed:
            cr_vals[s] = _compression_ratio(texts[bounds[s] : bounds[s + 1]])

    with Helper("eval-helper") as helper, helper.share(len(cr_vals), job) as claimed:
        hom_vals = _homogenization_sets(tok, lengths, rows, run.depths)
        ngd_vals = _ngd_sets(tok, lengths, rows, run.depths)
        job(claimed)

    return MetricsReport(
        hits1=_hits(ranks, 1),
        hits5=_hits(ranks, 5),
        hits10=_hits(ranks, 10),
        mrr10=_mrr(ranks, 10),
        rouge_l_hom=float(np.mean(hom_vals)) if hom_vals else None,
        ngd=float(np.mean(ngd_vals)),
        cr=float(np.mean(cr_vals)),
        num_queries=len(ranks),
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


def write_run(run: Run, path) -> None:
    """The run as TREC-style TSV: qid, docid, 1-based rank, score, one line
    a result. The whole file is formatted in one pass, and "%.17g" writes
    the digits that f"{score:.17g}" does."""
    n = len(run.docids)
    cells = [None] * (4 * n)
    cells[0::4] = np.repeat(run.qids, run.depths).tolist()
    cells[1::4] = run.docids.tolist()
    cells[2::4] = run.ranks().tolist()
    cells[3::4] = run.scores.tolist()
    with atomic_open(path) as f:
        f.write("%d\t%d\t%d\t%.17g\n" * n % tuple(cells))


def _ids(values: list[int]) -> np.ndarray:
    """values as int64, or as Python ints (dtype object) when one is past int64."""
    return np.array(values, dtype=np.int64 if max(values, default=0) <= np.iinfo(np.int64).max else object)


def read_run(path) -> Run:
    """Read write_run's format. Each qid's lines give ranks 1..n in file
    order, with no docid twice. The queries come in the order of their
    first lines, each with all of its results."""
    seen: dict[int, tuple[int, set[int]]] = {}  # qid -> its query's place, and the docids it lists
    slots, docids, scores = [], [], []  # per line: its query's place, docid and score
    for lineno, line in read_records(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise MalformedLine(path, lineno, "expected qid<TAB>docid<TAB>rank<TAB>score")
        try:
            qid, docid, rank = map(int_cell, parts[:3])
            score = float_cell(parts[3])
        except ValueError as e:
            raise MalformedLine(path, lineno, str(e)) from e
        slot, listed = seen.setdefault(qid, (len(seen), set()))
        if rank != len(listed) + 1:
            raise MalformedLine(path, lineno, f"qid {qid}: rank {rank} where {len(listed) + 1} is next")
        if docid in listed:
            raise MalformedLine(path, lineno, f"qid {qid}: docid {docid} ranked twice")
        listed.add(docid)
        slots.append(slot)
        docids.append(docid)
        scores.append(score)
    order = np.argsort(np.array(slots, dtype=np.int64), kind="stable")
    depths = np.bincount(np.array(slots, dtype=np.int64), minlength=len(seen))
    return Run(_ids(list(seen)), depths, _ids(docids)[order], np.array(scores, dtype=np.float64)[order])


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


def write_report_tsv(report: MetricsReport, path, *, dataset: str, alpha: float | None) -> dict:
    """Write the report as a one-row report TSV; return that row, as read_report_tsv reads it."""
    row = dict(zip(REPORT_COLUMNS, (dataset, alpha, *astuple(report))))
    with atomic_open(path) as f:
        f.write(report_tsv([row]))
    return row


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
