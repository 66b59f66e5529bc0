"""Hot numeric kernels, in vectorized numpy.

The query encoder and the top-K row cosine have one implementation
each here, shared by training, scoring and the diversity term, and the
one zero-norm similarity rule of training and MMR lives here too. Two
inner loops dominate runtime: the fused per-batch forward/backward pass
of training, and the bit-parallel LCS behind the pairwise ROUGE-L
homogenization metric.
"""

from __future__ import annotations

import numpy as np

from .errors import KOutOfRange

PROB_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# LCS lengths for many token-sequence pairs
# ---------------------------------------------------------------------------
#
# Bit-parallel LCS (Allison & Dix 1986, in Hyyro's 2004 formulation).
# Row b of a pair is a bit vector V of len(b) bits, all ones at the start;
# each token a_i of row a does
#     U = V & M[a_i];  V = (V + U) | (V - U)
# where M[t] has bit j set iff b[j] == t, and the LCS length is the number
# of zero bits of V. V - U never borrows because U is a subset of V, so it
# is V ^ U; only the addition carries from one 64-bit word to the next.
# Bits at or past len(b) have no match and so stay one: counting the zeros
# of every word counts those of the first len(b) bits.
#
# All pairs step together, sorted by len(a) so that the pairs still going
# are a prefix. Each step looks its masks up in a dense (b-row, token)
# slot table; the pairs are cut into blocks of b-rows so that the table
# never has more than _SLOT_CELLS cells. Working memory is O(pairs x
# words) plus that table, whatever the row length.

_SLOT_CELLS = 1 << 20
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def lcs_lengths_pairs(tok: np.ndarray, lengths: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """LCS length for each (pa[i], pb[i]) row pair of a padded token matrix.

    tok is (num_seqs, max_len) int64 padded with any value past each row's
    length (pack_token_matrix pads with -1); lengths gives the valid prefix
    of each row.
    """
    tok = np.asarray(tok, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    pa = np.asarray(pa, dtype=np.int64)
    pb = np.asarray(pb, dtype=np.int64)
    ids, ntok = dense_token_ids(tok, lengths)
    if pa.shape[0] == 0 or ntok == 0:
        return np.zeros(pa.shape[0], dtype=np.int64)
    # LCS is symmetric: each unordered row pair is computed once, with the
    # larger row as b. Keyed b-row first, the pairs come out ordered by b-row
    nrows = tok.shape[0]
    pair_keys, back = np.unique(np.maximum(pa, pb) * nrows + np.minimum(pa, pb), return_inverse=True)
    pb, pa = np.divmod(pair_keys, nrows)
    row_starts = np.flatnonzero(np.diff(pb, prepend=-1))
    cuts = row_starts[:: max(1, _SLOT_CELLS // ntok)].tolist() + [pa.shape[0]]
    out = np.concatenate([_lcs_block(ids, lengths, pa[lo:hi], pb[lo:hi], ntok) for lo, hi in zip(cuts[:-1], cuts[1:])])
    return out[back]


def _lcs_block(ids, lengths, pa, pb, ntok) -> np.ndarray:
    """Bit-parallel LCS of pairs whose b-rows share one slot table."""
    la = lengths[pa]
    nwords = (int(lengths[pb].max()) + 63) // 64
    if nwords == 0 or la.max() == 0:
        return np.zeros(pa.shape[0], dtype=np.int64)

    # match masks: slots[local b-row * ntok + t] is 0 (no match) or a column of masks
    b_rows, b_local = np.unique(pb, return_inverse=True)
    r, j = np.nonzero(np.arange(nwords * 64)[None, :] < lengths[b_rows][:, None])
    keys, col = np.unique(r * ntok + ids[b_rows[r], j], return_inverse=True)
    slots = np.zeros(b_rows.shape[0] * ntok, dtype=np.int32)
    slots[keys] = np.arange(1, keys.shape[0] + 1)
    masks = np.zeros((nwords, keys.shape[0] + 1), dtype=np.uint64)
    np.bitwise_or.at(masks, (j >> 6, col + 1), np.left_shift(np.uint64(1), (j & 63).astype(np.uint64)))

    # longest a first, so the pairs still stepping are a prefix
    by_len = np.argsort(-la, kind="stable")
    a_start = pa[by_len] * ids.shape[1]
    b_base = b_local[by_len] * ntok
    ids_flat = ids.ravel()
    still = np.searchsorted(-la[by_len], -np.arange(int(la.max())), side="left")
    v = np.full((nwords, pa.shape[0]), np.uint64(0xFFFFFFFFFFFFFFFF))
    for i, n in enumerate(still.tolist()):
        vi = v[:, :n]
        u = masks.take(slots.take(b_base[:n] + ids_flat.take(a_start[:n] + i)), axis=1)
        u &= vi
        s = vi + u
        carry = s < vi
        for w in range(1, nwords):
            s[w] += carry[w - 1]
            carry[w] |= carry[w - 1] & (s[w] == 0)
        vi ^= u
        vi |= s
    ones = _BYTE_POPCOUNT[v.view(np.uint8)].reshape(nwords, -1, 8).sum(axis=(0, 2), dtype=np.int64)
    out = np.empty(pa.shape[0], dtype=np.int64)
    out[by_len] = nwords * 64 - ones
    return out


def dense_token_ids(tok: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber the tokens of a padded matrix 0..ntok-1 in value order.

    Returns (ids, ntok): ids has tok's shape, with -1 past each row's
    length, so token values of any size can index dense tables.
    """
    valid = np.arange(tok.shape[1])[None, :] < lengths[:, None]
    ids = np.full(tok.shape, -1, dtype=np.int64)
    values, ids[valid] = np.unique(tok[valid], return_inverse=True)
    return ids, values.shape[0]


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
# Shared building blocks: query encoder, top-K and cosines
# ---------------------------------------------------------------------------
#
# One similarity rule holds for training, MMR and model.cosine: a vector of
# zero norm has cosine 0 with every vector, itself included. Two
# normalizations implement it, and both stay:
#   - pair_cosines (training) multiplies by the inverse norm. The exact
#     power-of-two prescale of unit_rows would keep its bits, but costs
#     40-70 us per (32, 10, 64) stack, 3-6 % of a train pass at alpha < 1.
#   - unit_rows (MMR, cosine) prescales, then divides by the norm.
#     Multiplying by the inverse instead moves one unit entry in five by an
#     ulp, and with it the bytes of rerank scores.
# They part in one case only: a row whose squared norm underflows to 0
# (every |entry| below about 1.5e-162) is zero to pair_cosines, and is
# rescaled to unit length by unit_rows.


def encode(embed, hidden_w, hidden_b, tok, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Encode a padded batch of queries; tok may hold any value past each length.

    Returns (pooled, act): the (B, d) mean token embeddings and
    tanh(pooled @ hidden_w.T + hidden_b).
    """
    pad = np.arange(tok.shape[1])[None, :] >= lengths[:, None]
    rows = embed[np.where(pad, 0, tok)]
    rows[pad] = 0.0
    pooled = rows.sum(axis=1) / lengths[:, None]
    act = np.tanh(pooled @ hidden_w.T + hidden_b)
    return pooled, act


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores of each row, best first; ties go to the smaller index."""
    n = scores.shape[-1]
    if not 1 <= k <= n:
        raise KOutOfRange(f"K={k} outside [1, {n}]")
    neg = -scores.reshape(-1, n)
    if 2 * k > n:
        # sorting more than half a row's values after the partition costs
        # more than sorting the row (at n = 200: x1.16 at k = 120, x1.9 at 199);
        # numpy's default sort is the fast one, but it orders equal values its
        # own way, so a row with an equal pair (-0.0 == 0.0, inf == inf) or a
        # NaN, which sorts last, in its first k + 1 values sorts again, stably
        order = np.argsort(neg, axis=1)
        head = np.take_along_axis(neg, order[:, : min(k + 1, n)], axis=1)
        tied = (head[:, 1:] == head[:, :-1]).any(axis=1) | np.isnan(head[:, -1])
        if tied.any():
            order[tied] = np.argsort(neg[tied], axis=1, kind="stable")
        return order[:, :k].reshape(scores.shape[:-1] + (k,))
    out = np.empty((neg.shape[0], k), dtype=np.int64)
    # a row with exactly k values at or above its k-th stable-sorts only those;
    # any other (a tie across the k-th place, a NaN there) sorts whole
    cand = neg <= np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    fast = cand.sum(axis=1) == k
    idx = np.nonzero(cand[fast])[1].reshape(-1, k)
    by_score = np.argsort(np.take_along_axis(neg[fast], idx, axis=1), axis=1, kind="stable")
    out[fast] = np.take_along_axis(idx, by_score, axis=1)
    if not fast.all():
        out[~fast] = np.argsort(neg[~fast], axis=1, kind="stable")[:, :k]
    return out.reshape(scores.shape[:-1] + (k,))


def add_rows_at(out: np.ndarray, ids: np.ndarray, rows: np.ndarray, src: np.ndarray | None = None) -> None:
    """out[ids[i]] += rows[src[i]] for each i in order, bit for bit as np.add.at
    adds; src defaults to 0, 1, 2, ...

    One np.add.at over the flat view of out. out must be C-contiguous, as
    the views of ModelParams.flat are; reshape copies any other array.
    """
    d = out.shape[1]
    np.add.at(out.reshape(-1), (ids[:, None] * d + np.arange(d)).ravel(),
              (rows[: ids.shape[0]] if src is None else rows[src]).ravel())


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


def unit_rows(x) -> np.ndarray:
    """x scaled to unit length along its last axis; zero rows stay zero. Rows are
    first scaled exactly, by the power of two that brings the largest |entry| into
    [0.5, 1), so squared norms of tiny vectors do not underflow to subnormals."""
    x = np.asarray(x, dtype=np.float64)
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=-1, keepdims=True, initial=0.0))[1])
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)


# ---------------------------------------------------------------------------
# Fused training pass: forward, loss terms, exact gradients
# ---------------------------------------------------------------------------
#
# train_pass adds the batch gradients into `grads`, parameters of the
# model's shapes (its arrays() in checkpoint order; zeroed, they end up
# holding the batch's gradients), and returns
#   (ce_sum, div_sum, pair_evals, topk)
# where ce_sum/div_sum are sums of per-example terms, topk is (B, K)
# int64, or () when alpha == 1 skips the diversity path, and pair_evals
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
    clamped = p_gold <= PROB_FLOOR
    ce_terms = -np.log(np.maximum(p_gold, PROB_FLOOR))
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
        add_rows_at(g_embed, tok[mask], contrib, np.nonzero(mask)[0])

    div_sum = 0.0
    pair_evals = 0
    topk = ()
    if alpha < 1.0:
        npairs = kk * (kk - 1) // 2
        div_scale = (1.0 - alpha) / (bsz * npairs)
        topk = top_k(logits, kk)
        unit, inv, cosines = pair_cosines(cls_w[topk])
        pair_evals = bsz * npairs
        for cos_sum in cosines.reshape(bsz, -1).sum(axis=1).tolist():
            div_sum += cos_sum / 2.0 / npairs
        # d(mean pair cosine)/d row_a, summed over the pairs touching a
        unit_sum = unit.sum(axis=1, keepdims=True)
        grad_rows = inv[..., None] * ((unit_sum - unit) - unit * cosines.sum(axis=2)[..., None])
        add_rows_at(g_cw, topk.ravel(), (grad_rows * div_scale).reshape(bsz * kk, -1))

    return ce_sum, div_sum, pair_evals, topk
