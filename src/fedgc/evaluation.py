"""Verification accuracy, embedding-geometry statistics and the fit to the client shards."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .losses import LossSpec, loss_and_grad, target_index
from .regularizers import StackedEmbeddings

# Elements in one block of the similarity pass: 1 MiB of float64 per
# temporary, whatever C. Histogram counts are integer sums and maxima are
# exact over the cosines, so the blocking sets only the pass's memory (BLAS
# may round a cosine differently in a block of only a few rows). The
# penalties instead cut fixed blocks of regularizers._BLOCK_ROWS anchors,
# since their block size fixes a summation order.
_SIMILARITY_BLOCK_ELEMENTS = 1 << 17
# the similarity histograms' 50 equal-width bins over the cosine range [-1, 1]
SIMILARITY_EDGES = np.linspace(-1.0, 1.0, 51)


@dataclass
class RoundMetrics:
    round: int
    mean_local_loss: float
    combined_objective: float
    verification_accuracy: float
    cross_client_max_cos: float
    within_client_max_cos: float
    mean_anchor_feature_dist: float


def best_threshold_accuracy(similarities: np.ndarray, same: np.ndarray) -> float:
    """Best accuracy over all thresholds on 'same iff similarity >= t'.

    Sweeps every cut of the sorted similarities: below all of them, between
    each two neighbours that differ, and above all of them, so the result
    depends only on the ordering of similarities. Each cut's correct count
    comes from cumulative same-pair counts over the sorted similarities,
    which is O(N log N); NaN similarities pass no threshold.
    """
    similarities = np.asarray(similarities, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    if similarities.size == 0 or similarities.shape != same.shape:
        raise ValueError("need matching, nonempty similarity/label arrays")
    by_similarity = np.argsort(similarities, kind="stable")
    same_before = np.concatenate([[0], np.cumsum(same[by_similarity])])
    # sorted positions [lo, hi) are predicted same; NaNs sort last and pass nothing
    hi = int(np.count_nonzero(~np.isnan(similarities)))
    ranked = similarities[by_similarity[:hi]]
    lo = np.concatenate([[0], np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, [hi]])
    true_same = same_before[hi] - same_before[lo]
    different = similarities.size - same_before[-1]
    correct = different + 2 * true_same - (hi - lo)
    return float(correct.max() / similarities.size)


def pair_cosines(params: nn.BackboneParams, x: np.ndarray, pairs) -> np.ndarray:
    """Cosine similarity of embedded sample pairs (pairs index into x)."""
    feats = nn.forward(params, x)
    norms = np.linalg.norm(feats, axis=1)
    norms[norms == 0.0] = 1.0
    feats = feats / norms[:, None]
    return (feats[pairs.idx_a] * feats[pairs.idx_b]).sum(axis=1)


def verification_accuracy(params: nn.BackboneParams, x: np.ndarray, pairs) -> float:
    """Best-threshold accuracy on same/different-identity pairs."""
    if len(pairs) == 0:
        raise ValueError("empty pair list")
    return best_threshold_accuracy(pair_cosines(params, x, pairs), pairs.same)


def _split_cosines(emb: StackedEmbeddings):
    """Yield each row block's (cross-client, within-client) pairwise column cosines.

    Zero-norm columns are left out; a NaN norm stays, so its NaN cosines
    reach the caller. Pairs of columns naming the same identity (the stack's
    class_of; copies of a shared identity) are skipped -- after merging those
    are identical by construction and would pin the cross-client max at 1.
    """
    if emb.num_columns < 2:
        raise ValueError("need at least 2 columns")
    norms = np.linalg.norm(emb.W, axis=0)
    keep = norms != 0.0
    w = emb.W[:, keep] / norms[keep]
    clients = emb.client_of[keep]
    cls = emb.class_of[keep]
    n = w.shape[1]
    # row blocks of the upper triangle: rows i in a block against columns j > i,
    # their cosines written into one reused buffer
    step = max(1, _SIMILARITY_BLOCK_ELEMENTS // max(n, 1))
    buffer = np.empty(min(step, n) * n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows, cols = np.arange(start, stop), np.arange(start, n)
        cos = buffer[: rows.size * cols.size].reshape(rows.size, cols.size)
        np.matmul(w[:, start:stop].T, w[:, start:], out=cos)
        pick = cols[None, :] > rows[:, None]
        pick &= cls[rows, None] != cls[None, cols]
        cross = clients[rows, None] != clients[None, cols]
        cross &= pick
        pick ^= cross  # now the within-client pairs
        yield cos[cross], cos[pick]


def embedding_similarity_stats(emb: StackedEmbeddings) -> tuple[float, float]:
    """(cross-client, within-client) maximum pairwise column cosine.

    A side with no pairs (a centralized cell's single head, or one column per
    client) reports the maximum over all pairs. A NaN cosine makes every
    maximum that sees it NaN.
    """
    maxima = ([], [])
    for block in _split_cosines(emb):
        for found, values in zip(maxima, block):
            if values.size:
                found.append(values.max())
    both = maxima[0] + maxima[1]
    all_pairs = float(np.max(both)) if both else float("nan")
    return tuple(float(np.max(found)) if found else all_pairs for found in maxima)


def similarity_histograms(emb: StackedEmbeddings) -> tuple[np.ndarray, np.ndarray]:
    """(cross-client, within-client) pair counts in the SIMILARITY_EDGES bins."""
    # floating error can push a cosine a hair past +/-1; open outer edges count
    # it in the first or last bin, as clipping to [-1, 1] would, and NaN in none
    open_edges = np.r_[-np.inf, SIMILARITY_EDGES[1:-1], np.inf]
    counts = np.zeros((2, SIMILARITY_EDGES.size - 1), dtype=np.int64)
    for block in _split_cosines(emb):
        for total, values in zip(counts, block):
            total += np.histogram(values, bins=open_edges)[0]
    return counts[0], counts[1]


def shard_fit(server, clients, loss: LossSpec) -> tuple[float, float]:
    """(empirical loss, mean anchor distance) over the clients' shards, one forward each.

    Client k's mean loss weighs n_k / N, N the samples of all the given clients.
    The distance is from each sample's feature to its own class embedding, NaN if N = 0.
    """
    n_all = sum(cl.n_samples for cl in clients)
    total_loss, total_dist = 0.0, 0.0
    for cl in clients:
        if cl.n_samples == 0:
            continue
        feats = nn.forward(server.theta, cl.x)
        head = server.embeddings.W[:, server.columns(cl.client_id)]
        lg = loss_and_grad(loss, head, feats, target_index(cl.y_local, head.shape[1]))
        total_loss += cl.n_samples / n_all * float(lg.loss)
        total_dist += float(np.linalg.norm(head[:, cl.y_local].T - feats, axis=1).sum())
    return total_loss, total_dist / n_all if n_all else float("nan")
