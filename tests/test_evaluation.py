"""Verification metrics, similarity statistics, and the finite-difference harness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgc import nn, regularizers
from fedgc.data import SyntheticSpec, generate, partition_balanced
from fedgc.evaluation import (
    best_threshold_accuracy,
    embedding_similarity_stats,
    mean_anchor_feature_distance,
    pair_cosines,
    verification_accuracy,
)
from fedgc.federation import FederationConfig, build_federation, run_round
from fedgc.gradcheck import finite_diff_check, grad_direction_diagnostic
from fedgc.regularizers import StackedEmbeddings


def linear_backbone(dim):
    # single layer, identity weights: forward(x) == x (no activation on the last layer)
    return nn.BackboneParams([(np.eye(dim), np.zeros(dim))], "relu")


def brute_force_threshold_accuracy(sims, same):
    # dense scan plus the exact values themselves as candidate thresholds
    candidates = np.concatenate([np.linspace(sims.min() - 1, sims.max() + 1, 4001), sims])
    best = 0.0
    for t in candidates:
        best = max(best, float(((sims >= t) == same).mean()))
    return best


def test_best_threshold_matches_dense_scan():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        sims = rng.normal(size=n)
        same = rng.random(n) < 0.5
        got = best_threshold_accuracy(sims, same)
        assert abs(got - brute_force_threshold_accuracy(sims, same)) < 1e-12


def exhaustive_threshold_accuracy(sims, same):
    # every distinct cut 'same iff sim >= v' over the values v present, plus
    # the cut that predicts nothing as same; correct counts divided by N
    cuts = [sims >= v for v in np.unique(sims)] + [np.zeros(sims.shape, dtype=bool)]
    return max(int((cut == same).sum()) for cut in cuts) / sims.size


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.booleans()), min_size=1, max_size=400))
def test_best_threshold_matches_exhaustive_scan_with_ties(pairs):
    # similarities on a grid of eighths: many pairs share each value, and
    # every midpoint between neighbours is exact
    sims = np.array([v for v, _ in pairs]) / 8.0
    same = np.array([s for _, s in pairs])
    assert best_threshold_accuracy(sims, same) == exhaustive_threshold_accuracy(sims, same)


def test_best_threshold_edge_cases():
    # perfectly separated
    assert best_threshold_accuracy(np.array([0.9, 0.8, 0.1, 0.0]), np.array([1, 1, 0, 0], bool)) == 1.0
    # inverted ordering: the rule is fixed to 'same iff sim >= t', so the best
    # achievable is predicting everything one way
    assert best_threshold_accuracy(np.array([0.1, 0.9]), np.array([True, False])) == 0.5
    # all-equal similarities: predict the majority label
    assert best_threshold_accuracy(np.zeros(4), np.array([1, 1, 1, 0], bool)) == 0.75
    with pytest.raises(ValueError):
        best_threshold_accuracy(np.array([]), np.array([], dtype=bool))
    with pytest.raises(ValueError):
        best_threshold_accuracy(np.zeros(3), np.zeros(2, dtype=bool))


class _Pairs:
    def __init__(self, idx_a, idx_b, same):
        self.idx_a = np.asarray(idx_a)
        self.idx_b = np.asarray(idx_b)
        self.same = np.asarray(same, dtype=bool)

    def __len__(self):
        return len(self.same)


def test_pair_cosines_hand_values():
    x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [-3.0, 0.0]])
    pairs = _Pairs([0, 0, 0], [1, 2, 3], [False, True, False])
    cos = pair_cosines(linear_backbone(2), x, pairs)
    np.testing.assert_allclose(cos, [0.0, 1.0 / np.sqrt(2.0), -1.0], atol=1e-12)


def test_verification_accuracy_on_separable_geometry():
    # same-pair cosines all 1, different-pair cosines all <= 0
    x = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 3.0], [-1.0, 0.0]])
    pairs = _Pairs([0, 2, 0, 1], [1, 3, 2, 4], [True, True, False, False])
    assert verification_accuracy(linear_backbone(2), x, pairs) == 1.0
    with pytest.raises(ValueError):
        verification_accuracy(linear_backbone(2), x, _Pairs([], [], []))


def test_similarity_stats_hand_stack():
    # client 0: e1, e2; client 1: (e1+e2)/sqrt(2)  -> cross max cos(45 deg)
    w = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    emb = StackedEmbeddings(w, np.array([0, 0, 1]))
    stats = embedding_similarity_stats(emb, bins=4)
    assert abs(stats.cross_client_max_cos - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(stats.within_client_max_cos - 0.0) < 1e-12
    # histograms cover every surviving pair and use the stated edges
    assert stats.cross_hist.sum() == 2 and stats.within_hist.sum() == 1
    np.testing.assert_allclose(stats.bin_edges, np.linspace(-1, 1, 5))
    assert stats.excluded_zero_norm == 0


def test_similarity_stats_drops_zero_norm_columns():
    w = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    emb = StackedEmbeddings(w, np.array([0, 0, 1]))
    stats = embedding_similarity_stats(emb)
    assert stats.excluded_zero_norm == 1
    assert abs(stats.cross_client_max_cos - 0.0) < 1e-12
    assert np.isnan(stats.within_client_max_cos)  # the only within pair was dropped


def test_similarity_stats_excludes_same_identity_pairs():
    # duplicate identity on both clients with identical columns would pin the
    # cross max at 1; the stack's class map removes exactly that pair
    w = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    emb = StackedEmbeddings(w, np.array([0, 0, 1]))
    plain = embedding_similarity_stats(emb)
    assert plain.cross_client_max_cos == 1.0
    masked = embedding_similarity_stats(replace(emb, class_of=np.array([7, 3, 7])))
    assert abs(masked.cross_client_max_cos - 0.0) < 1e-12
    with pytest.raises(ValueError):
        embedding_similarity_stats(StackedEmbeddings(w[:, :1], np.array([0])))


def dense_similarity_stats(emb, bins=50):
    """The full-matrix evaluation the blocked one replaced: one C x C cosine matrix."""
    norms = np.linalg.norm(emb.W, axis=0)
    keep = norms > 0.0
    w = emb.W[:, keep] / norms[keep]
    clients = emb.client_of[keep]
    cos = w.T @ w
    iu, ju = np.triu_indices(w.shape[1], k=1)
    cls = emb.class_of[keep]
    distinct = cls[iu] != cls[ju]
    is_cross = clients[iu] != clients[ju]
    edges = np.linspace(-1.0, 1.0, bins + 1)
    out = []
    for pick in (is_cross & distinct, ~is_cross & distinct):
        values = cos[iu, ju][pick]
        hist, _ = np.histogram(np.clip(values, -1, 1), bins=edges)
        out.append((float(values.max()) if values.size else float("nan"), hist))
    return out


@pytest.mark.parametrize("budget", [1, 7 * 300, None])
def test_blocked_similarity_stats_match_dense_matrix(monkeypatch, budget):
    # budget 1 gives one-row blocks, 7 * 300 seven-row blocks, None one block
    if budget is not None:
        monkeypatch.setattr(regularizers, "_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(2)
    w = rng.normal(size=(32, 300))
    w[:, 17] = 0.0  # a zero-norm column is dropped in both
    client_of = rng.integers(0, 9, size=300)
    class_of = rng.integers(0, 250, size=300)  # some identities repeat
    for cls in (None, class_of):
        emb = StackedEmbeddings(w, client_of, class_of=cls)
        stats = embedding_similarity_stats(emb)
        (cross_max, cross_hist), (within_max, within_hist) = dense_similarity_stats(emb)
        # the counts are exact; a maximum is one BLAS dot product, computed by a
        # different kernel (gemm per block, syrk for the full matrix), so it may
        # move in the last bit on some shapes
        np.testing.assert_array_equal(stats.cross_hist, cross_hist)
        np.testing.assert_array_equal(stats.within_hist, within_hist)
        assert abs(stats.cross_client_max_cos - cross_max) <= 1e-15
        assert abs(stats.within_client_max_cos - within_max) <= 1e-15
        assert stats.excluded_zero_norm == 1
        # the all-pairs maximum equals a second pass with one column per client
        again = embedding_similarity_stats(replace(emb, client_of=np.arange(300)))
        assert stats.all_pairs_max_cos == again.cross_client_max_cos
        assert stats.all_pairs_max_cos == max(stats.cross_client_max_cos, stats.within_client_max_cos)


def test_all_pairs_max_keeps_a_nan_cosine_visible():
    # an infinite column normalizes to NaN: every maximum that sees it is NaN
    w = np.array([[1.0, 0.0, np.inf], [0.0, 1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        stats = embedding_similarity_stats(StackedEmbeddings(w, np.array([0, 0, 1])))
        solo = embedding_similarity_stats(StackedEmbeddings(w, np.zeros(3, dtype=int)))
    assert stats.within_client_max_cos == 0.0
    assert np.isnan(stats.cross_client_max_cos) and np.isnan(stats.all_pairs_max_cos)
    assert np.isnan(solo.cross_client_max_cos)  # no cross pairs at all
    assert np.isnan(solo.all_pairs_max_cos)


def test_similarity_stats_keep_a_nan_column_visible():
    # a NaN norm is not a zero norm: the column stays and its NaN cosines reach the maxima
    w = np.array([[1.0, 0.0, np.nan, 0.6], [0.0, 1.0, 1.0, 0.8]])
    stats = embedding_similarity_stats(StackedEmbeddings(w, np.array([0, 0, 1, 1])))
    assert stats.excluded_zero_norm == 0
    assert np.isnan(stats.cross_client_max_cos) and np.isnan(stats.all_pairs_max_cos)


def small_federation(rounds=0, mode="fedpe", lam=0.0):
    ds = generate(SyntheticSpec(num_classes=8, samples_per_class=12, input_dim=6, seed=1))
    _, shards = partition_balanced(ds, 2)
    cfg = FederationConfig(
        num_clients=2, mode=mode, lam=lam, eta=0.05, rounds=max(rounds, 1),
        hidden_dim=12, embedding_dim=6, batch_size=16, local_steps=4, seed=1,
    )
    server, clients = build_federation(shards, ds.input_dim, cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A]))
    for _ in range(rounds):
        server, _ = run_round(server, clients, cfg, rng)
    return server, clients, cfg


def test_mean_anchor_feature_distance_hand_value():
    server, clients, _ = small_federation()
    # independent accumulation straight from the definition
    total, count = 0.0, 0
    for cl in clients:
        feats = nn.forward(server.theta, cl.x)
        for i in range(cl.n_samples):
            col = server.head_slices[cl.client_id].start + cl.y_local[i]
            total += float(np.linalg.norm(server.embeddings.W[:, col] - feats[i]))
            count += 1
    expected = total / count
    assert abs(mean_anchor_feature_distance(server, clients) - expected) < 1e-12


def test_grad_direction_diagnostic_probe_identity():
    server, clients, _ = small_federation(rounds=6, mode="fedgc", lam=1.0)
    report = grad_direction_diagnostic(server, clients, client_id=0, sample=2)
    # with the anchor replaced by the feature the two forms are the same expression
    assert report.max_correction_vs_feature_diff <= 1e-12
    assert report.cross_columns.tolist() == list(range(4, 8))
    assert np.all(report.feature_vs_global_ratios > 0.0)
    assert np.all(np.isfinite(report.direction_cosines))
    assert np.all(np.abs(report.direction_cosines) <= 1.0 + 1e-12)


def test_finite_diff_check_accepts_true_gradient():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])

    def f(x):
        return float((a * x * x).sum())

    x0 = np.array([[0.3, -0.7], [1.1, 0.4]])
    report = finite_diff_check(f, x0, 2.0 * a * x0)
    assert report.passed and report.max_rel_err < 1e-8


def test_finite_diff_check_flags_wrong_gradient():
    x0 = np.array([1.0, 2.0])
    report = finite_diff_check(lambda x: float((x * x).sum()), x0, np.array([2.0, 3.9]))
    assert not report.passed
    assert report.worst_index == (1,)
    assert report.max_rel_err > 1e-2


def test_finite_diff_check_validation():
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: 0.0, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: 0.0, np.zeros(2), np.zeros(2), h=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        finite_diff_check(lambda x: float("nan"), np.zeros(2), np.zeros(2))
