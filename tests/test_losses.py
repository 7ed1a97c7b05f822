"""Classification losses: hand values, finite differences, and cross-checks."""

import numpy as np
import pytest
from scipy.special import logsumexp

from fedgc.gradcheck import batch_loss_and_grad, finite_diff_check
from fedgc.losses import LossSpec, NonFiniteError, _log_softmax_inplace

ALL_SPECS = [LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface()]


def log_softmax(logits):
    """The loss kernels' in-place log-softmax, on a float64 copy of logits."""
    out = np.array(logits, dtype=np.float64)
    _log_softmax_inplace(out)
    return out


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("hinge")
    with pytest.raises(ValueError):
        LossSpec("cosface", margin=-0.1)
    with pytest.raises(ValueError):
        LossSpec("cosface", margin=0.2, scale=0.0)
    assert LossSpec.softmax().normalizes is False
    assert LossSpec.cosface().normalizes is True
    assert LossSpec.arcface().normalizes is True


def test_log_softmax_matches_direct_and_survives_shift():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 7))
    direct = logits - logsumexp(logits, axis=-1, keepdims=True)
    np.testing.assert_allclose(log_softmax(logits), direct, atol=1e-12)
    # large common offsets must not overflow
    shifted = log_softmax(logits + 1e4)
    np.testing.assert_allclose(shifted, direct, atol=1e-8)
    with pytest.raises(NonFiniteError):
        log_softmax(np.array([1.0, np.inf]))


def test_softmax_loss_two_class_hand_value():
    # logits (1, 0), label 0: loss = log(1 + e^-1); d/dlogit = (p - onehot)
    emb = np.array([[1.0, 0.0]])
    feat = np.array([[1.0]])
    lg = batch_loss_and_grad(LossSpec.softmax(), emb, feat, [0])
    expected = np.log1p(np.exp(-1.0))
    assert abs(lg.loss - expected) < 1e-12
    p1 = 1.0 / (1.0 + np.e)  # probability of the wrong class
    # grad wrt feature: (p - y) @ emb.T = -p1*1 + p1*0
    np.testing.assert_allclose(lg.grad_feature, [[-p1]], atol=1e-12)
    np.testing.assert_allclose(lg.grad_embeddings, [[-p1, p1]], atol=1e-12)


def test_batch_loss_is_mean_of_singles():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(6, 5))
    feats = rng.normal(size=(8, 6))
    labels = rng.integers(5, size=8)
    for spec in ALL_SPECS:
        batch = batch_loss_and_grad(spec, emb, feats, labels)
        singles = [batch_loss_and_grad(spec, emb, feats[i : i + 1], labels[i : i + 1]) for i in range(8)]
        assert abs(batch.loss - np.mean([s.loss for s in singles])) < 1e-12
        np.testing.assert_allclose(
            batch.grad_feature, np.concatenate([s.grad_feature for s in singles]) / 8.0, atol=1e-12
        )
        np.testing.assert_allclose(
            batch.grad_embeddings, sum(s.grad_embeddings for s in singles) / 8.0, atol=1e-12
        )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.variant for s in ALL_SPECS])
def test_gradients_match_finite_differences(spec):
    rng = np.random.default_rng(17)
    emb = rng.normal(size=(5, 4))
    feats = rng.normal(size=(6, 5)) * 1.5
    labels = rng.integers(4, size=6)
    lg = batch_loss_and_grad(spec, emb, feats, labels)

    report = finite_diff_check(
        lambda e: batch_loss_and_grad(spec, e, feats, labels).loss, emb, lg.grad_embeddings
    )
    assert report.passed, f"embeddings: {report.max_rel_err}"
    report = finite_diff_check(
        lambda f: batch_loss_and_grad(spec, emb, f.reshape(feats.shape), labels).loss,
        feats.ravel(),
        lg.grad_feature.ravel(),
    )
    assert report.passed, f"features: {report.max_rel_err}"


def test_cosface_matches_independent_construction():
    # normalize, subtract the margin from the target cosine, scale, plain CE
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(4, 3))
    feats = rng.normal(size=(5, 4))
    labels = rng.integers(3, size=5)
    spec = LossSpec.cosface(margin=0.22, scale=13.0)

    cos = (feats / np.linalg.norm(feats, axis=1, keepdims=True)) @ (emb / np.linalg.norm(emb, axis=0))
    logits = spec.scale * cos
    logits[np.arange(5), labels] -= spec.scale * spec.margin
    expected = float(np.mean(logsumexp(logits, axis=1) - logits[np.arange(5), labels]))
    lg = batch_loss_and_grad(spec, emb, feats, labels)
    assert abs(lg.loss - expected) < 1e-12


def test_arcface_matches_independent_construction():
    rng = np.random.default_rng(6)
    emb = rng.normal(size=(4, 3))
    feats = rng.normal(size=(5, 4))
    labels = rng.integers(3, size=5)
    spec = LossSpec.arcface(margin=0.4, scale=9.0)

    cos = (feats / np.linalg.norm(feats, axis=1, keepdims=True)) @ (emb / np.linalg.norm(emb, axis=0))
    logits = spec.scale * cos.copy()
    t = np.arange(5)
    logits[t, labels] = spec.scale * np.cos(np.arccos(cos[t, labels]) + spec.margin)
    expected = float(np.mean(logsumexp(logits, axis=1) - logits[t, labels]))
    lg = batch_loss_and_grad(spec, emb, feats, labels)
    assert abs(lg.loss - expected) < 1e-12


def test_arcface_near_parallel_feature_stays_finite():
    # cos(theta) ~ 1: the arccos chain would blow up without the clip
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    feat = np.array([[1.0, 1e-9]])
    lg = batch_loss_and_grad(LossSpec.arcface(), emb, feat, [0])
    assert np.isfinite(lg.loss)
    assert np.all(np.isfinite(lg.grad_feature))
    assert np.all(np.isfinite(lg.grad_embeddings))


def test_margin_loss_rejects_zero_norm():
    with pytest.raises(NonFiniteError):
        batch_loss_and_grad(LossSpec.cosface(), np.eye(2), np.zeros((1, 2)), [0])
    with pytest.raises(NonFiniteError):
        batch_loss_and_grad(LossSpec.cosface(), np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((1, 2)), [0])


def test_input_validation():
    spec = LossSpec.softmax()
    with pytest.raises(ValueError, match="feature dim 2"):
        batch_loss_and_grad(spec, np.eye(3), np.ones((1, 2)), np.array([0]))
    with pytest.raises(ValueError, match="out of range"):
        batch_loss_and_grad(spec, np.eye(3), np.ones((1, 3)), np.array([3]))
    with pytest.raises(ValueError, match="out of range"):
        batch_loss_and_grad(spec, np.eye(3), np.ones((1, 3)), np.array([-1]))
    with pytest.raises(ValueError, match="labels of shape"):
        batch_loss_and_grad(spec, np.eye(3), np.ones((2, 3)), np.array([0]))
    batch_loss_and_grad(spec, np.eye(3), np.ones((2, 3)), np.array([0, 2]))


def test_global_softmax_is_softmax_over_full_stack():
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(6, 10))
    feat = rng.normal(size=(1, 6))
    lg = batch_loss_and_grad(LossSpec.softmax(), stack, feat, [7])
    # softmax weights on non-target columns, shifted by -1 on the target
    p = np.exp(log_softmax(feat @ stack))
    delta = p.copy()
    delta[0, 7] -= 1.0
    np.testing.assert_allclose(lg.grad_embeddings, np.outer(feat, delta), atol=1e-12)


def reference_batch_loss(spec, embeddings, features, labels):
    """The loss math as first written (np.linalg.norm, (row, label) fancy
    indexing, mean), kept as the bitwise oracle for the rewritten kernel."""
    n = features.shape[0]
    rows = np.arange(n)
    if spec.variant == "softmax":
        logp = log_softmax(features @ embeddings)
        loss = float(-logp[rows, labels].mean())
        delta = np.exp(logp)
        delta[rows, labels] -= 1.0
        delta /= n
        return loss, delta @ embeddings.T, features.T @ delta
    w_norm = np.linalg.norm(embeddings, axis=0)
    x_norm = np.linalg.norm(features, axis=1)
    w_hat = embeddings / w_norm
    x_hat = features / x_norm[:, None]
    cos = x_hat @ w_hat
    logits = spec.scale * cos
    target_slope = np.ones(n)
    if spec.variant == "cosface":
        logits[rows, labels] = spec.scale * (cos[rows, labels] - spec.margin)
    else:
        theta = np.arccos(np.clip(cos[rows, labels], -1.0 + 1e-7, 1.0 - 1e-7))
        logits[rows, labels] = spec.scale * np.cos(theta + spec.margin)
        inside = np.abs(cos[rows, labels]) < 1.0 - 1e-7
        target_slope = np.where(inside, np.sin(theta + spec.margin) / np.sin(theta), 0.0)
    logp = log_softmax(logits)
    loss = float(-logp[rows, labels].mean())
    delta = np.exp(logp)
    delta[rows, labels] -= 1.0
    delta *= spec.scale / n
    delta[rows, labels] *= target_slope
    grad_emb = (x_hat.T @ delta - w_hat * (cos * delta).sum(axis=0)) / w_norm
    grad_feat = (delta @ w_hat.T - x_hat * (cos * delta).sum(axis=1)[:, None]) / x_norm[:, None]
    return loss, grad_feat, grad_emb


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.variant)
@pytest.mark.parametrize("n", [1, 7, 40])
def test_batch_loss_bitwise_matches_reference(spec, n):
    rng = np.random.default_rng(n)
    emb = rng.normal(size=(6, 9))
    feats = rng.normal(size=(n, 6))
    labels = rng.integers(0, 9, size=n)
    feats[0] = emb[:, labels[0]]  # a target cosine of exactly 1 hits the arcface clip
    lg = batch_loss_and_grad(spec, emb, feats, labels)
    loss, grad_feat, grad_emb = reference_batch_loss(spec, emb, feats, labels)
    assert lg.loss == loss
    np.testing.assert_array_equal(lg.grad_feature, grad_feat)
    np.testing.assert_array_equal(lg.grad_embeddings, grad_emb)
