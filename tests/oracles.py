"""Independent reference implementations used as test oracles.

Everything here is written straight from the defining formulas with
plain loops, separately from the package code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np

PROB_FLOOR = 1e-12


def oracle_selection(logits, k: int) -> list[int]:
    n = len(logits)
    order = sorted(range(n), key=lambda d: (-logits[d], d))
    return order[:k]


def oracle_logits(arrays, tokens) -> list[float]:
    """Logits over all docids for one query, from the defining formulas."""
    embed, hidden_w, hidden_b, cls_w, cls_b = arrays
    dim = embed.shape[1]
    n = cls_w.shape[0]

    pooled = [0.0] * dim
    for t in tokens:
        for c in range(dim):
            pooled[c] += embed[t, c]
    pooled = [x / len(tokens) for x in pooled]
    act = [math.tanh(hidden_b[c] + sum(hidden_w[c, j] * pooled[j] for j in range(dim))) for c in range(dim)]
    return [cls_b[r] + sum(cls_w[r, j] * act[j] for j in range(dim)) for r in range(n)]


def oracle_example_loss(arrays, tokens, gold, k, want_div, selection=None):
    """(ce, div, selection) for one example; naive end-to-end recompute."""
    cls_w = arrays[3]
    logits = oracle_logits(arrays, tokens)
    zmax = max(logits)
    exps = [math.exp(z - zmax) for z in logits]
    denom = sum(exps)
    p_gold = exps[gold] / denom
    ce = -math.log(max(p_gold, PROB_FLOOR))

    div = 0.0
    if want_div:
        if selection is None:
            selection = oracle_selection(logits, k)
        total = 0.0
        count = 0
        for i in range(k):
            for j in range(i + 1, k):
                u = cls_w[selection[i]]
                v = cls_w[selection[j]]
                nu = math.sqrt(sum(x * x for x in u))
                nv = math.sqrt(sum(x * x for x in v))
                if nu > 0.0 and nv > 0.0:
                    total += sum(a * b for a, b in zip(u, v)) / (nu * nv)
                count += 1
        div = total / count
    return ce, div, selection


def oracle_total_loss(arrays, batch, alpha, k, selections=None):
    """Batch loss alpha*mean(ce) + (1-alpha)*mean(div); selections may be pinned."""
    want_div = alpha < 1.0
    ce_sum = 0.0
    div_sum = 0.0
    used = []
    for idx, (tokens, gold) in enumerate(batch):
        pinned = selections[idx] if selections is not None else None
        ce, div, sel = oracle_example_loss(arrays, tokens, gold, k, want_div, pinned)
        ce_sum += ce
        div_sum += div
        used.append(sel)
    bsz = len(batch)
    if alpha == 1.0:
        return ce_sum / bsz, used
    return alpha * (ce_sum / bsz) + (1.0 - alpha) * (div_sum / bsz), used


def finite_difference_grads(arrays, batch, alpha, k, h=1e-4):
    """Central differences of the batch loss, selections held at base point."""
    base_arrays = [a.copy() for a in arrays]
    _, selections = oracle_total_loss(base_arrays, batch, alpha, k)
    grads = []
    for ai, arr in enumerate(base_arrays):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = oracle_total_loss(base_arrays, batch, alpha, k, selections)
            flat[idx] = orig - h
            down, _ = oracle_total_loss(base_arrays, batch, alpha, k, selections)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads, selections


def selection_gap(arrays, batch, k) -> float:
    """Smallest logit gap around the selection boundary across the batch.

    Instances with a tiny gap sit too close to a top-K flip for finite
    differences to be meaningful; callers screen on this.
    """
    worst = math.inf
    for tokens, _gold in batch:
        logits = sorted(oracle_logits(arrays, tokens), reverse=True)
        worst = min(worst, logits[k - 1] - logits[k])
    return worst


def oracle_lcs(a, b) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_ngd(docs) -> float:
    """Sum over n = 1..4 of distinct/total n-grams pooled over docs; an
    n-gram never spans two docs, and a level with no n-grams adds nothing."""
    score = 0.0
    for n in range(1, 5):
        grams = [tuple(d[i : i + n]) for d in docs for i in range(len(d) - n + 1)]
        if grams:
            score += len(set(grams)) / len(grams)
    return score


def oracle_mmr(query_vec, candidates, lam, m) -> list[int]:
    """Brute-force greedy MMR: rescan every unselected candidate each step."""

    def cos(u, v):
        # a zero-norm vector has similarity 0 with every vector, as in training
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    selected: list[int] = []
    selected_vecs = []
    while len(selected) < m:
        best_docid = None
        best_score = None
        best_vec = None
        for docid, vec in candidates:
            if docid in selected:
                continue
            rel = cos(vec, query_vec)
            penalty = max((cos(vec, sv) for sv in selected_vecs), default=0.0)
            score = lam * rel - (1.0 - lam) * penalty
            if best_score is None or score > best_score or (score == best_score and docid < best_docid):
                best_docid, best_score, best_vec = docid, score, vec
        selected.append(best_docid)
        selected_vecs.append(best_vec)
    return selected
