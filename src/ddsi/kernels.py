"""Hot numeric kernels, in vectorized numpy.

The query encoder and the top-K row cosine have one implementation
each here, shared by training, scoring and the diversity term. Two
inner loops dominate runtime: the fused per-batch forward/backward pass
of training, and the LCS dynamic program behind the pairwise ROUGE-L
homogenization metric.
"""

from __future__ import annotations

import numpy as np

_PROB_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# LCS lengths for many token-sequence pairs
# ---------------------------------------------------------------------------


def lcs_lengths_pairs(tok: np.ndarray, lengths: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """LCS length for each (pa[i], pb[i]) row pair of a padded token matrix.

    tok is (num_seqs, max_len) int64 padded with -1; lengths gives the
    valid prefix of each row.
    """
    tok = np.ascontiguousarray(tok, dtype=np.int64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    pa = np.ascontiguousarray(pa, dtype=np.int64)
    pb = np.ascontiguousarray(pb, dtype=np.int64)
    # Row-sweep DP, vectorized across all pairs at once. The usual
    # serial-in-j recurrence is replaced by
    #   cand[j] = max(prev[j], prev[j-1] + eq[j]);  row = cummax(cand)
    # which is equivalent because neighboring LCS cells differ by at most 1.
    npairs = pa.shape[0]
    if npairs == 0:
        return np.zeros(0, dtype=np.int64)
    la = lengths[pa]
    lb = lengths[pb]
    lb_max = int(lb.max())
    la_max = int(la.max())
    b_tok = tok[pb, :lb_max]
    row = np.zeros((npairs, lb_max + 1), dtype=np.int64)
    j_valid = np.arange(lb_max)[None, :] < lb[:, None]
    for i in range(la_max):
        active = i < la
        a_tok = tok[pa, i]
        eq = ((b_tok == a_tok[:, None]) & j_valid).astype(np.int64)
        cand = np.maximum(row[:, 1:], row[:, :-1] + eq)
        np.maximum.accumulate(cand, axis=1, out=cand)
        row[active, 1:] = cand[active]
    return row[np.arange(npairs), lb]


def pack_token_matrix(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Pad integer sequences into the (matrix, lengths) form kernels expect."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if len(seqs) == 0:
        return np.zeros((0, 0), dtype=np.int64), lengths
    tok = np.full((len(seqs), max(1, int(lengths.max()))), -1, dtype=np.int64)
    for i, s in enumerate(seqs):
        tok[i, : len(s)] = s
    return tok, lengths


# ---------------------------------------------------------------------------
# Shared building blocks: query encoder and top-K row cosines
# ---------------------------------------------------------------------------


def encode(embed, hidden_w, hidden_b, tok, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Encode a padded batch of queries; tok may hold any value past each length.

    Returns (pooled, act): the (B, d) mean token embeddings and
    tanh(pooled @ hidden_w.T + hidden_b).
    """
    mask = np.arange(tok.shape[1])[None, :] < lengths[:, None]
    safe = np.where(mask, tok, 0)
    pooled = (embed[safe] * mask[:, :, None]).sum(axis=1) / lengths[:, None]
    act = np.tanh(pooled @ hidden_w.T + hidden_b)
    return pooled, act


def pair_cosines(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise cosines among the K rows of each (..., K, d) stack.

    Returns (unit, inv, cosines): the rows scaled to unit length, their
    inverse norms, and the (..., K, K) cosine matrices with a zeroed
    diagonal. A zero-norm row has inverse norm 0, so its pairs count as
    similarity 0 and pass no gradient.
    """
    norms = np.sqrt((rows * rows).sum(axis=-1))
    inv = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 0.0)
    unit = rows * inv[..., None]
    cosines = unit @ np.swapaxes(unit, -1, -2)
    kk = rows.shape[-2]
    cosines[..., np.arange(kk), np.arange(kk)] = 0.0
    return unit, inv, cosines


# ---------------------------------------------------------------------------
# Fused training pass: forward, loss terms, exact gradients
# ---------------------------------------------------------------------------
#
# train_pass adds the batch gradients into `grads`, zeroed parameters of
# the model's shapes (its arrays() in checkpoint order), and returns
#   (ce_sum, div_sum, pair_evals, topk)
# where ce_sum/div_sum are sums of per-example terms, topk is (B, K)
# int64 (-1 filled when the diversity path is skipped), and pair_evals
# counts cosine pair evaluations actually performed (0 when alpha == 1,
# which is the instrumentation the alpha=1 equivalence check relies on).
#
# Gradient conventions:
#   - loss = alpha * mean(ce_i) + (1 - alpha) * mean(div_i)
#   - CE flows through softmax into cls_w/cls_b and back through the
#     encoder into hidden_w/hidden_b/embed; a probability at the 1e-12
#     floor contributes a constant loss and therefore no gradient.
#   - the diversity term flows only into the selected cls_w rows; the
#     discrete top-K selection itself is treated as a constant, and ties
#     in it go to the smaller docid.
#   - zero-norm classifier rows contribute similarity 0 with no gradient.


def train_pass(embed, hidden_w, hidden_b, cls_w, cls_b, tok, lengths, golds, kk, alpha, grads):
    """Fused loss + gradient pass over one padded batch; see module notes."""
    bsz = tok.shape[0]
    enc, act = encode(embed, hidden_w, hidden_b, tok, lengths)
    logits = act @ cls_w.T + cls_b

    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)

    p_gold = probs[np.arange(bsz), golds]
    clamped = p_gold <= _PROB_FLOOR
    ce_terms = -np.log(np.maximum(p_gold, _PROB_FLOOR))
    ce_sum = float(ce_terms.sum())

    g_embed, g_hw, g_hb, g_cw, g_cb = grads.arrays()

    if alpha > 0.0:
        dlogits = probs * (alpha / bsz)
        dlogits[np.arange(bsz), golds] -= alpha / bsz
        dlogits[clamped] = 0.0
        g_cw += dlogits.T @ act
        g_cb += dlogits.sum(axis=0)
        dact = dlogits @ cls_w
        dhid = dact * (1.0 - act * act)
        g_hw += dhid.T @ enc
        g_hb += dhid.sum(axis=0)
        denc = dhid @ hidden_w
        contrib = denc / lengths[:, None]
        mask = np.arange(tok.shape[1])[None, :] < lengths[:, None]
        np.add.at(g_embed, tok[mask], np.repeat(contrib, lengths, axis=0))

    div_sum = 0.0
    pair_evals = 0
    topk = np.full((bsz, kk), -1, dtype=np.int64)
    if alpha < 1.0:
        npairs = kk * (kk - 1) // 2
        div_scale = (1.0 - alpha) / (bsz * npairs)
        topk = np.argsort(-logits, axis=1, kind="stable")[:, :kk]
        unit, inv, cosines = pair_cosines(cls_w[topk])
        pair_evals = bsz * npairs
        for cos_sum in cosines.reshape(bsz, -1).sum(axis=1).tolist():
            div_sum += cos_sum / 2.0 / npairs
        # d(mean pair cosine)/d row_a, summed over the pairs touching a
        unit_sum = unit.sum(axis=1, keepdims=True)
        grad_rows = inv[..., None] * ((unit_sum - unit) - unit * cosines.sum(axis=2)[..., None])
        np.add.at(g_cw, topk.ravel(), (grad_rows * div_scale).reshape(bsz * kk, -1))

    return ce_sum, div_sum, pair_evals, topk
