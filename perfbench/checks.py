"""Independent checks of the walkthrough's outputs.

Everything here re-derives a result from the files the CLI wrote, using
textbook algorithms and the standard library (numpy only for the small
MMR and forward-pass arithmetic), never the ddsi code that produced the
result; ddsi is called only to obtain the per-set diversity values that
report.tsv averages but does not list, and those are checked against
the textbook versions on sampled sets. Each check returns a list of
problems; empty means it held.
"""

from __future__ import annotations

import functools
import json
import math
import re
import struct
import zlib

import numpy as np

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
_CKPT_HEADER = struct.Struct("<4sIIII")

# two float paths that agree to this relative tolerance are the same value
REL_TOL = 1e-9
# an MMR pick that differs from ours is accepted only at a near-tie
MMR_TIE = 1e-9


def words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


# --------------------------------------------------------------------------
# files


def read_corpus(path) -> list[str]:
    """Document texts indexed by docid."""
    texts: dict[int, str] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                obj = json.loads(line)
                texts[obj["docid"]] = obj["text"]
    return [texts[i] for i in range(len(texts))]


def read_queries(path) -> list[tuple[str, int]]:
    """(text, gold docid) per query; the qid is the position."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                text, gold = line.split("\t")
                out.append((text, int(gold)))
    return out


def read_run(path) -> dict[int, list[tuple[int, float]]]:
    """qid -> [(docid, score)] in rank order; ranks must be 1..m."""
    by_qid: dict[int, list[tuple[int, int, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, docid, rank, score = line.rstrip("\n").split("\t")
            by_qid.setdefault(int(qid), []).append((int(rank), int(docid), float(score)))
    out = {}
    for qid, rows in by_qid.items():
        rows.sort()
        if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{path}: qid {qid} ranks are not 1..{len(rows)}")
        out[qid] = [(d, s) for _, d, s in rows]
    return out


def read_report(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n").split("\t") for ln in f if ln.strip()]
    header, rows = lines[0], lines[1:]
    out = []
    for row in rows:
        rec = dict(zip(header, row))
        for key, value in rec.items():
            if key != "dataset":
                rec[key] = None if value == "NA" else float(value)
        out.append(rec)
    return out


def read_checkpoint(path) -> tuple[tuple[int, int, int], list[np.ndarray]]:
    """Dims (V, d, N) and float64 arrays embed, hidden_w, hidden_b, cls_w, cls_b."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, version, v, d, n = _CKPT_HEADER.unpack_from(blob, 0)
    if magic != b"DDSI" or version != 1:
        raise ValueError(f"{path}: bad header {magic!r} v{version}")
    shapes = [(v, d), (d, d), (d,), (n, d), (n,)]
    arrays, offset = [], _CKPT_HEADER.size
    for shape in shapes:
        count = math.prod(shape)
        arrays.append(np.frombuffer(blob, "<f4", count, offset).astype(np.float64).reshape(shape))
        offset += 4 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob)} bytes, header implies {offset}")
    return (v, d, n), arrays


def read_history(path) -> list[list[float]]:
    with open(path, encoding="utf-8") as f:
        next(f)
        return [[float(x) for x in line.split("\t")] for line in f if line.strip()]


# --------------------------------------------------------------------------
# reference metrics


def lcs(a, b) -> int:
    """Textbook O(len(a) * len(b)) dynamic program, two rows."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_l(a, b) -> float:
    """ROUGE-L F1 = 2 * LCS / (len(a) + len(b))."""
    return 2.0 * lcs(a, b) / (len(a) + len(b))


def homogenization(docs) -> float:
    pairs = [(i, j) for i in range(len(docs)) for j in range(i + 1, len(docs))]
    return sum(rouge_l(docs[i], docs[j]) for i, j in pairs) / len(pairs)


def ngd(docs) -> float:
    """Sum over n = 1..4 of distinct over total n-grams, pooled, per document."""
    score = 0.0
    for n in range(1, 5):
        grams = [g for d in docs for g in zip(*(d[i:] for i in range(n)))]
        if grams:
            score += len(set(grams)) / len(grams)
    return score


def compression_ratio(texts) -> float:
    raw = "\n".join(texts).encode("utf-8")
    return len(raw) / len(zlib.compress(raw, 6))


def relevance(rankings: dict[int, list[int]], golds: list[int]) -> dict[str, float]:
    """Hits@1/5/10 and MRR@10 from ranked docids and gold labels."""
    hits = {1: 0, 5: 0, 10: 0}
    rr = 0.0
    for qid, gold in enumerate(golds):
        ranked = rankings.get(qid, [])
        rank = ranked.index(gold) + 1 if gold in ranked else None
        for k in hits:
            hits[k] += rank is not None and rank <= k
        if rank is not None and rank <= 10:
            rr += 1.0 / rank
    n = len(golds)
    return {"hits1": hits[1] / n, "hits5": hits[5] / n, "hits10": hits[10] / n, "mrr10": rr / n}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


# --------------------------------------------------------------------------
# model arithmetic for the MMR check


class Corpus:
    """Document texts with token ids rebuilt from them.

    Ids follow first appearance over documents in docid order, from 1;
    0 is the unknown word. Only equality of ids matters to the metrics;
    the query encoder needs them to match the checkpoint's rows.
    """

    def __init__(self, texts: list[str]):
        self.texts = texts
        self.index: dict[str, int] = {}
        for text in texts:
            for w in words(text):
                self.index.setdefault(w, len(self.index) + 1)
        self.tokens = [self.tokenize(t) for t in texts]

    def tokenize(self, text: str) -> list[int]:
        return [self.index.get(w, 0) for w in words(text)]

    @property
    def vocab_size(self) -> int:
        return len(self.index) + 1


class Encoder:
    """Query encoder and scorer rebuilt from a checkpoint's arrays."""

    def __init__(self, arrays, corpus: Corpus):
        self.embed, self.hidden_w, self.hidden_b, self.cls_w, self.cls_b = arrays
        self.corpus = corpus

    def encode(self, text: str) -> np.ndarray:
        pooled = self.embed[self.corpus.tokenize(text)].mean(axis=0)
        return np.tanh(self.hidden_w @ pooled + self.hidden_b)

    def pool(self, act: np.ndarray, size: int) -> list[int]:
        """The size highest-scoring docids; ties go to the smaller docid."""
        logits = self.cls_w @ act + self.cls_b
        return sorted(range(len(logits)), key=lambda d: (-logits[d], d))[:size]


class Candidates:
    """One query's MMR candidates: cosines with the query and among
    themselves, computed once so the greedy loop can rescan them all."""

    def __init__(self, query_vec, vecs: dict[int, np.ndarray]):
        self.ids = sorted(vecs)
        mat = np.array([vecs[d] for d in self.ids], dtype=np.float64)
        unit = mat / np.linalg.norm(mat, axis=1)[:, None]
        self.rel = dict(zip(self.ids, (unit @ (query_vec / np.linalg.norm(query_vec))).tolist()))
        self.sim = {d: dict(zip(self.ids, row)) for d, row in zip(self.ids, (unit @ unit.T).tolist())}

    def score(self, docid: int, chosen: list[int], lam: float) -> float:
        penalty = max((self.sim[docid][c] for c in chosen), default=0.0)
        return lam * self.rel[docid] - (1.0 - lam) * penalty


def mmr_greedy(cands: Candidates, lam: float, m: int) -> list[tuple[int, float]]:
    """Brute-force greedy MMR: rescore every unselected candidate each step."""
    chosen: list[tuple[int, float]] = []
    for _ in range(m):
        ids = [c for c, _ in chosen]
        score, neg_docid = max((cands.score(d, ids, lam), -d) for d in cands.ids if d not in ids)
        chosen.append((-neg_docid, score))
    return chosen


def mmr_problems(run, encoder: Encoder, queries, qids, lam: float, m: int, pool: int) -> list[str]:
    """Compare sampled MMR lists of a rerank run with brute-force greedy MMR.

    A pick that differs from ours is accepted only when it scores within
    MMR_TIE of ours at that step; the comparison of that query stops there.
    """
    problems = []
    for qid in qids:
        act = encoder.encode(queries[qid][0])
        cands = Candidates(act, {d: encoder.cls_w[d] for d in encoder.pool(act, pool)})
        want = mmr_greedy(cands, lam, m)
        got = run[qid]
        if len(got) != m:
            problems.append(f"mmr qid {qid}: {len(got)} results, expected {m}")
            continue
        for pos, ((wd, ws), (gd, gs)) in enumerate(zip(want, got)):
            if wd != gd:
                chosen = [d for d, _ in want[:pos]]
                if gd not in cands.rel or gd in chosen or abs(cands.score(gd, chosen, lam) - ws) > MMR_TIE:
                    problems.append(f"mmr qid {qid} position {pos + 1}: got docid {gd}, brute force picks {wd}")
                break
            if not close(ws, gs, 1e-7):
                problems.append(f"mmr qid {qid} position {pos + 1}: score {gs!r}, brute force {ws!r}")
                break
    return problems


# --------------------------------------------------------------------------
# checks over one walkthrough's files


def eval_problems(eval_dir, corpus: Corpus, golds, sample_qids, per_set_homogenization=None) -> list[str]:
    """Relevance and diversity means from run.tsv against report.tsv; the
    program's per-set diversity against the references on sampled sets.

    per_set_homogenization(docs) gives the value report.tsv averages for
    one result set; by default the program's own.
    """
    per_set_homogenization = per_set_homogenization or program_homogenization
    problems = []
    (report,) = read_report(eval_dir / "report.tsv")
    run = read_run(eval_dir / "run.tsv")
    ranked = {qid: [d for d, _ in rows] for qid, rows in run.items()}
    if sorted(ranked) != list(range(len(golds))) or report["num_queries"] != len(golds):
        problems.append(f"{eval_dir.name}: run covers {len(ranked)} queries, the query file has {len(golds)}")
    for key, value in relevance(ranked, golds).items():
        if not close(value, report[key], 1e-12):
            problems.append(f"{eval_dir.name}: {key} recomputed {value!r}, report {report[key]!r}")
    # NGD and CR are cheap enough to recompute for every result set; the
    # textbook LCS is not, so the homogenization mean is taken over the
    # program's per-set values, which the sampled sets below check
    sets = [ranked[qid] for qid in sorted(ranked)]
    hom = [per_set_homogenization([corpus.tokens[d] for d in s]) for s in sets if len(s) >= 2]
    means = {
        "rouge_l": sum(hom) / len(hom) if hom else None,
        "ngd": sum(ngd([corpus.tokens[d] for d in s]) for s in sets) / len(sets),
        "cr": sum(compression_ratio([corpus.texts[d] for d in s]) for s in sets) / len(sets),
    }
    for key, value in means.items():
        same = value == report[key] if None in (value, report[key]) else close(value, report[key])
        if not same:
            problems.append(f"{eval_dir.name}: mean {key} recomputed {value!r}, report {report[key]!r}")
    for qid in sample_qids:
        docs = [corpus.tokens[d] for d in ranked[qid]]
        texts = [corpus.texts[d] for d in ranked[qid]]
        got = program_diversity(docs, texts)
        want = (homogenization(docs), ngd(docs), compression_ratio(texts))
        for name, g, w in zip(("homogenization", "ngd", "cr"), got, want):
            if not close(g, w):
                problems.append(f"{eval_dir.name}: qid {qid} {name} program {g!r}, reference {w!r}")
    return problems


def program_homogenization(docs) -> float:
    """The program's homogenization of one result set. It does not depend
    on the order of the set, so a set met again is not recomputed."""
    return _program_homogenization(tuple(sorted(tuple(d) for d in docs)))


@functools.lru_cache(maxsize=1 << 16)
def _program_homogenization(docs: tuple) -> float:
    from ddsi import metrics

    return metrics.homogenization(docs)


def program_diversity(docs, texts) -> tuple[float, float, float]:
    """The program's own per-set values, which report.tsv averages."""
    from ddsi import metrics

    return metrics.homogenization(docs), metrics.ngd(docs), metrics.compression_ratio(texts)


def history_problems(path, epochs: int) -> list[str]:
    rows = read_history(path)
    if len(rows) != epochs:
        return [f"{path}: {len(rows)} epochs, expected {epochs}"]
    bad = [r for r in rows if not all(math.isfinite(x) for x in r)]
    return [f"{path}: non-finite loss at epoch {int(bad[0][0])}"] if bad else []


def merged_report_problems(path, eval_reports: dict[float, dict]) -> list[str]:
    rows = read_report(path)
    alphas = [r["alpha"] for r in rows]
    if alphas != sorted(eval_reports, reverse=True):
        return [f"{path}: alphas {alphas}, expected {sorted(eval_reports, reverse=True)}"]
    return [f"{path}: row alpha={r['alpha']} differs from its eval report" for r in rows if r != eval_reports[r["alpha"]]]
