"""Verification metrics, similarity statistics, and the finite-difference harness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgc import evaluation, nn
from fedgc.data import SyntheticSpec, generate, partition_balanced
from fedgc.evaluation import (
    SIMILARITY_EDGES,
    best_threshold_accuracy,
    embedding_similarity_stats,
    pair_cosines,
    shard_fit,
    similarity_histograms,
    verification_accuracy,
)
from fedgc.federation import FederationConfig, build_federation, run_round
from fedgc.gradcheck import _probe_federation, _trained_regime_ratios, finite_diff_check, grad_direction_diagnostic
from fedgc.regularizers import StackedEmbeddings


def linear_backbone(dim):
    # single layer, identity weights: forward(x) == x (no activation on the last layer)
    return nn.BackboneParams.from_list([np.eye(dim), np.zeros(dim)])


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
    # adjacent doubles: their midpoint rounds to one of them, yet a threshold
    # at the larger one separates them
    assert best_threshold_accuracy(np.array([1.0, np.nextafter(1.0, 2.0)]), np.array([False, True])) == 1.0
    # every similarity NaN: nothing passes, so only the different pairs count
    assert best_threshold_accuracy(np.full(3, np.nan), np.array([True, False, False])) == 2 / 3
    assert best_threshold_accuracy(np.array([np.nan]), np.array([True])) == 0.0
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
    cross, within = embedding_similarity_stats(emb)
    assert abs(cross - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(within - 0.0) < 1e-12
    # histograms cover every surviving pair and use the stated edges
    cross_hist, within_hist = similarity_histograms(emb)
    assert cross_hist.sum() == 2 and within_hist.sum() == 1
    np.testing.assert_allclose(SIMILARITY_EDGES, np.linspace(-1, 1, 51))
    assert cross_hist.shape == within_hist.shape == (50,)


def test_similarity_stats_drops_zero_norm_columns():
    w = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    emb = StackedEmbeddings(w, np.array([0, 0, 1]))
    cross_hist, within_hist = similarity_histograms(emb)
    # the only within pair was dropped, so that side counts nothing and
    # reports the all-pairs maximum, the one cross cosine (a kept zero
    # column would make it NaN)
    assert cross_hist.sum() == 1 and not within_hist.any()
    assert embedding_similarity_stats(emb) == (0.0, 0.0)


def test_similarity_stats_excludes_same_identity_pairs():
    # duplicate identity on both clients with identical columns would pin the
    # cross max at 1; the stack's class map removes exactly that pair
    w = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    emb = StackedEmbeddings(w, np.array([0, 0, 1]))
    assert embedding_similarity_stats(emb)[0] == 1.0
    masked = replace(emb, class_of=np.array([7, 3, 7]))
    assert abs(embedding_similarity_stats(masked)[0] - 0.0) < 1e-12
    assert [h.sum() for h in similarity_histograms(masked)] == [1, 1]
    for fn in (embedding_similarity_stats, similarity_histograms):
        with pytest.raises(ValueError):
            fn(StackedEmbeddings(w[:, :1], np.array([0])))


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
        monkeypatch.setattr(evaluation, "_SIMILARITY_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(2)
    w = rng.normal(size=(32, 300))
    w[:, 17] = 0.0  # a zero-norm column is dropped in both
    client_of = rng.integers(0, 9, size=300)
    class_of = rng.integers(0, 250, size=300)  # some identities repeat
    for cls in (None, class_of):
        emb = StackedEmbeddings(w, client_of, class_of=cls)
        cross, within = embedding_similarity_stats(emb)
        cross_hist, within_hist = similarity_histograms(emb)
        (cross_max, dense_cross), (within_max, dense_within) = dense_similarity_stats(emb)
        # the counts are exact; a maximum is one BLAS dot product, computed by a
        # different kernel (gemm per block, syrk for the full matrix), so it may
        # move in the last bit on some shapes
        np.testing.assert_array_equal(cross_hist, dense_cross)
        np.testing.assert_array_equal(within_hist, dense_within)
        assert abs(cross - cross_max) <= 1e-15
        assert abs(within - within_max) <= 1e-15
        # one client, or one column per client, leaves one side without pairs:
        # both sides then report the all-pairs maximum
        for owners in (np.zeros(300, dtype=int), np.arange(300)):
            again = embedding_similarity_stats(replace(emb, client_of=owners))
            assert again == (max(cross, within),) * 2


def test_all_pairs_max_keeps_a_nan_cosine_visible():
    # an infinite column normalizes to NaN: every maximum that sees it is NaN
    w = np.array([[1.0, 0.0, np.inf], [0.0, 1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        cross, within = embedding_similarity_stats(StackedEmbeddings(w, np.array([0, 0, 1])))
        solo = embedding_similarity_stats(StackedEmbeddings(w, np.zeros(3, dtype=int)))
    assert within == 0.0 and np.isnan(cross)
    # no cross pairs at all: that side reports the all-pairs maximum, NaN
    assert np.isnan(solo).all()


def test_similarity_stats_keep_a_nan_column_visible():
    # a NaN norm is not a zero norm: the column stays and its NaN cosines reach
    # the maxima, while the histograms count them in no bin
    w = np.array([[1.0, 0.0, np.nan, 0.6], [0.0, 1.0, 1.0, 0.8]])
    emb = StackedEmbeddings(w, np.array([0, 0, 1, 1]))
    assert np.isnan(embedding_similarity_stats(emb)).all()
    assert [h.sum() for h in similarity_histograms(emb)] == [2, 1]


def test_similarity_hist_counts_cosines_past_one_in_the_outer_bins():
    # two clients hold one direction and a third its opposite, each under its
    # own id: their unit columns can dot to a hair past +1 and -1, and those
    # count in the last and first bins exactly as clipping to [-1, 1] would;
    # the NaN column's pairs count in no bin
    for seed in range(100):
        v = np.random.default_rng(seed).normal(size=4)
        w = np.stack([v, v, -v, np.full(4, np.nan)], axis=1)
        unit = w / np.linalg.norm(w, axis=0)
        cos = unit.T @ unit  # the product the statistics take in one block
        if cos[0, 1] > 1.0 and cos[0, 2] < -1.0:
            break
    else:
        pytest.fail("no direction whose unit cosines pass +/-1")
    emb = StackedEmbeddings(w, np.arange(4))
    cross_hist, within_hist = similarity_histograms(emb)
    iu, ju = np.triu_indices(4, k=1)
    np.testing.assert_array_equal(
        cross_hist, np.histogram(np.clip(cos[iu, ju], -1, 1), bins=SIMILARITY_EDGES)[0]
    )
    assert cross_hist[-1] == 1 and cross_hist[0] == 2 and cross_hist.sum() == 3
    assert not within_hist.any()
    assert np.isnan(embedding_similarity_stats(emb)).all()


def past_one_columns(d=16):
    """Columns v, v, -v whose unit cosines come out a hair past +1 and -1."""
    for seed in range(100):
        v = np.random.default_rng(seed).normal(size=d)
        w = np.stack([v, v, -v], axis=1)
        unit = w / np.linalg.norm(w, axis=0)
        cos = unit.T @ unit
        if cos[0, 1] > 1.0 and cos[0, 2] < -1.0:
            return w
    pytest.fail("no direction whose unit cosines pass +/-1")


def similarity_cases():
    """Stacks with every case the statistics treat specially, keyed by name.

    The base columns are +/-1 in 16 dimensions, so every unit cosine is a
    multiple of 1/8 and comes out exact under any summation order.
    """
    rng = np.random.default_rng(5)
    cols = 150
    w = rng.choice([-1.0, 1.0], size=(16, cols))
    client_of = rng.integers(0, 6, size=cols)
    class_of = rng.integers(0, 100, size=cols)  # identities repeat, across clients too
    for cls in np.unique(class_of):  # copies of a shared identity are one column
        copies = np.flatnonzero(class_of == cls)
        w[:, copies] = w[:, copies[:1]]
    w[:, 5] = 0.0
    base = StackedEmbeddings(w, client_of, class_of)
    with_nan = w.copy()
    with_nan[:, 9] = np.nan
    return {
        "shared-copies": base,
        "nan-column": replace(base, W=with_nan),
        "single-client": replace(base, client_of=np.zeros(cols, dtype=int)),
        "past-one": StackedEmbeddings(
            np.hstack([w, past_one_columns()]),
            np.r_[client_of, 6, 7, 8],
            np.r_[class_of, 100, 101, 102],
        ),
    }


@pytest.mark.parametrize("name", ["shared-copies", "nan-column", "single-client", "past-one"])
def test_similarity_stats_do_not_depend_on_the_block_budget(monkeypatch, name):
    # one-row, seven-row and three blocks against the default (one block here):
    # counts are integer sums and a maximum is exact over the same cosines
    emb = similarity_cases()[name]
    n = emb.num_columns
    maxima, hists = embedding_similarity_stats(emb), similarity_histograms(emb)
    for budget in (1, 7 * n, n * n // 3):
        monkeypatch.setattr(evaluation, "_SIMILARITY_BLOCK_ELEMENTS", budget)
        np.testing.assert_array_equal(similarity_histograms(emb), hists)
        got = embedding_similarity_stats(emb)
        if name == "past-one":
            # BLAS rounds v . v by the kernel a block's shape picks (gemv
            # for one row, small-matrix kernels for a few), so this one
            # cosine may move by an ulp; its bin cannot
            np.testing.assert_allclose(got, maxima, rtol=0, atol=np.spacing(1.0))
        else:
            np.testing.assert_array_equal(got, maxima)
    if name == "nan-column":
        assert np.isnan(maxima).all()
    if name == "single-client":  # no cross pairs: both sides report all pairs
        assert maxima[0] == maxima[1] and not hists[0].any()


def small_federation(rounds=0, mode="fedpe", lam=0.0):
    ds = generate(SyntheticSpec(num_classes=8, samples_per_class=12, input_dim=6, seed=1))
    shards = partition_balanced(ds, 2)
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
    server, clients, cfg = small_federation()
    # independent accumulation straight from the definition
    total, count = 0.0, 0
    for cl in clients:
        feats = nn.forward(server.theta, cl.x)
        for i in range(cl.n_samples):
            col = server.columns(cl.client_id).start + cl.y_local[i]
            total += float(np.linalg.norm(server.embeddings.W[:, col] - feats[i]))
            count += 1
    expected = total / count
    assert abs(shard_fit(server, clients, cfg.loss)[1] - expected) < 1e-12


def test_grad_direction_diagnostic_probe_identity():
    server, clients, _ = small_federation(rounds=6, mode="fedgc", lam=1.0)
    report = grad_direction_diagnostic(server, clients, client_id=0, sample=2)
    # with the anchor replaced by the feature the two forms are the same expression
    assert report.max_correction_vs_feature_diff <= 1e-12
    assert report.cross_columns.tolist() == list(range(4, 8))
    assert np.all(report.feature_vs_global_ratios > 0.0)
    assert np.all(np.isfinite(report.direction_cosines))
    assert np.all(np.abs(report.direction_cosines) <= 1.0 + 1e-12)


def test_correction_geometry_rows_hold_on_every_seed():
    # at the suite's tolerances; the probe feature's squared norm ran to 348-1,383
    # on these seeds, so exp(a . a) overflowed or the correction rows underflowed,
    # and the direction row read NaN on 18 of them
    for seed in range(40):
        report = grad_direction_diagnostic(*_probe_federation(seed))
        assert report.max_correction_vs_feature_diff <= 1e-12, seed
        assert np.abs(report.direction_cosines - 1.0).max() <= 1e-12, seed
        assert np.abs(_trained_regime_ratios(seed) - 1.0).max() <= 1e-6, seed


def test_finite_diff_check_accepts_true_gradient():
    a = np.array([[2.0, -1.0], [0.5, 3.0]])

    def f(x):
        return float((a * x * x).sum())

    x0 = np.array([[0.3, -0.7], [1.1, 0.4]])
    report = finite_diff_check(f, x0, 2.0 * a * x0)
    assert report.passed is True and report.max_rel_err < 1e-8


def test_finite_diff_check_flags_wrong_gradient():
    x0 = np.array([1.0, 2.0])
    report = finite_diff_check(lambda x: float((x * x).sum()), x0, np.array([2.0, 3.9]))
    assert report.passed is False
    assert report.worst_index == (1,)
    assert report.max_rel_err > 1e-2
    # a NaN error is the worst there is: the max dropped it and passed an all-NaN gradient
    for grad, index in (([np.nan, np.nan], (0,)), ([2.0, np.nan], (1,))):
        report = finite_diff_check(lambda x: float((x * x).sum()), x0, np.array(grad))
        assert report.passed is False
        assert report.worst_index == index
        assert np.isnan(report.max_rel_err)


def test_finite_diff_check_validation():
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: 0.0, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: 0.0, np.zeros(2), np.zeros(2), h=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        finite_diff_check(lambda x: float("nan"), np.zeros(2), np.zeros(2))
