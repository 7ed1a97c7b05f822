"""Verification accuracy and embedding-geometry statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import nn
from .regularizers import StackedEmbeddings, _blocks


@dataclass
class RoundMetrics:
    round: int
    mean_local_loss: float
    combined_objective: float
    verification_accuracy: float
    cross_client_max_cos: float
    within_client_max_cos: float
    mean_anchor_feature_dist: float
    # the similarity statistics behind the two max-cos fields; not part of the row
    similarity: SimilarityStats = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "similarity"}


def best_threshold_accuracy(similarities: np.ndarray, same: np.ndarray) -> float:
    """Best accuracy over all thresholds on 'same iff similarity >= t'.

    Sweeps every midpoint of consecutive sorted similarities plus the two
    extremes, so the result depends only on the ordering of similarities.
    Each threshold's correct count comes from cumulative same-pair counts
    over the sorted similarities, which is O(N log N); NaN similarities pass
    no threshold.
    """
    similarities = np.asarray(similarities, dtype=np.float64)
    same = np.asarray(same, dtype=bool)
    if similarities.size == 0 or similarities.shape != same.shape:
        raise ValueError("need matching, nonempty similarity/label arrays")
    order = np.sort(np.unique(similarities))
    midpoints = (order[:-1] + order[1:]) / 2.0
    thresholds = np.concatenate([[order[0] - 1.0], midpoints, [order[-1] + 1.0]])
    by_similarity = np.argsort(similarities, kind="stable")
    sorted_sims = similarities[by_similarity]
    same_before = np.concatenate([[0], np.cumsum(same[by_similarity])])
    # sorted positions [lo, hi) are predicted same; NaNs sort last and pass nothing
    hi = int(np.count_nonzero(~np.isnan(similarities)))
    lo = np.minimum(np.searchsorted(sorted_sims, thresholds, side="left"), hi)
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


@dataclass
class SimilarityStats:
    cross_client_max_cos: float
    within_client_max_cos: float
    all_pairs_max_cos: float  # over both sides; NaN when a cosine is NaN
    cross_hist: np.ndarray    # 50 counts over [-1, 1]
    within_hist: np.ndarray
    bin_edges: np.ndarray
    excluded_zero_norm: int


def embedding_similarity_stats(emb: StackedEmbeddings, bins: int = 50) -> SimilarityStats:
    """Pairwise column cosines, split into within-client and cross-client.

    Pairs of columns naming the same identity (the stack's class_of; copies
    of a shared identity) are skipped -- after merging those are identical
    by construction and would pin the cross-client max at 1.
    """
    if emb.num_columns < 2:
        raise ValueError("need at least 2 columns")
    norms = np.linalg.norm(emb.W, axis=0)
    keep = norms != 0.0  # a NaN norm stays, so its NaN cosines reach the maxima
    excluded = int((~keep).sum())
    w = emb.W[:, keep] / norms[keep]
    clients = emb.client_of[keep]
    cls = emb.class_of[keep]
    n = w.shape[1]
    edges = np.linspace(-1.0, 1.0, bins + 1)
    hists = {True: np.zeros(bins, dtype=np.int64), False: np.zeros(bins, dtype=np.int64)}
    maxima = {True: [], False: []}
    # row blocks of the upper triangle: rows i in blk against columns j > i
    for blk in _blocks(n, n):
        rows, cols = np.arange(blk.start, blk.stop), np.arange(blk.start, n)
        cos = w[:, blk].T @ w[:, blk.start:]
        pick = cols[None, :] > rows[:, None]
        pick &= cls[rows, None] != cls[None, cols]
        is_cross = clients[rows, None] != clients[None, cols]
        for cross in (True, False):
            values = cos[pick & (is_cross == cross)]
            if values.size:
                maxima[cross].append(values.max())
                # floating error can push a cosine a hair past +/-1
                hists[cross] += np.histogram(np.clip(values, -1, 1), bins=edges)[0]

    def overall(values):
        return float(np.max(values)) if values else float("nan")

    return SimilarityStats(
        cross_client_max_cos=overall(maxima[True]),
        within_client_max_cos=overall(maxima[False]),
        all_pairs_max_cos=overall(maxima[True] + maxima[False]),
        cross_hist=hists[True],
        within_hist=hists[False],
        bin_edges=edges,
        excluded_zero_norm=excluded,
    )


def mean_anchor_feature_distance(server, clients) -> float:
    """Mean distance between each sample's feature and its own class embedding."""
    total, count = 0.0, 0
    for cl in clients:
        if cl.n_samples == 0:
            continue
        feats = nn.forward(server.theta, cl.x)
        cols = server.embeddings.W[:, server.head_slices[cl.client_id]]
        total += float(np.linalg.norm(cols[:, cl.y_local].T - feats, axis=1).sum())
        count += cl.n_samples
    return total / count if count else float("nan")
