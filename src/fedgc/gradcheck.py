"""The verification suite behind `fedgc gradcheck` and its oracles; no training path runs them.

Analytic gradients meet central finite differences, the stable penalty its direct
exponential form, and the server correction the centralized softmax gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import nn
from .config import check
from .losses import LossGrad, LossSpec, NonFiniteError, loss_and_grad, target_index
from .regularizers import RegGrad, StackedEmbeddings, cosine_reg, softmax_reg


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst_index: tuple
    passed: bool


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    analytic_grad: np.ndarray,
    h: float = 1e-5,
    tol: float = 1e-5,
) -> FiniteDiffReport:
    """Central differences per coordinate against an analytic gradient.

    Relative error uses max(1, |a| + |b|) as the denominator so tiny
    gradients are compared absolutely. The first coordinate whose error is
    NaN (a NaN or infinite analytic entry) is the worst and fails the check.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    x0 = np.asarray(x0, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if analytic_grad.shape != x0.shape:
        raise ValueError("analytic_grad shape must match x0")
    worst, worst_idx = 0.0, ()
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x0.copy()
        xp[idx] += h
        fp = f(xp)
        xp[idx] -= 2 * h
        fm = f(xp)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near index {idx}")
        numeric = (fp - fm) / (2 * h)
        a = analytic_grad[idx]
        rel = abs(numeric - a) / max(1.0, abs(numeric) + abs(a))
        if np.isnan(rel):
            return FiniteDiffReport(max_rel_err=float(rel), worst_index=idx, passed=False)
        if rel > worst:
            worst, worst_idx = rel, idx
    return FiniteDiffReport(max_rel_err=float(worst), worst_index=worst_idx, passed=bool(worst < tol))


def backward(
    params: nn.BackboneParams, x: np.ndarray, grad_out: np.ndarray
) -> tuple[nn.BackboneParams, np.ndarray]:
    """Gradients of <grad_out, forward(x)> w.r.t. parameters and x.

    x is an (n, in_dim) batch and grad_out an (n, out_dim) one whose rows
    pair with x's; contributions are summed over the batch (put any 1/n
    factor into grad_out).

    Returns (grad, grad_x) with grad a BackboneParams shaped like params.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    nn.check_input(params, x)
    if grad_out.shape != (x.shape[0], params.output_dim):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match forward output")
    tape = nn.new_tape(params.layers, x.shape[:-1])
    nn.record_forward(params.layers, x, tape)
    grad = nn.BackboneParams(np.empty(params.size), params.dims)
    grad_x = np.empty(x.shape)
    nn.reverse_sweep(params.layers, x, tape, grad_out, grad.layers, grad_x)
    return grad, grad_x


def batch_loss_and_grad(
    spec: LossSpec, embeddings: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> LossGrad:
    """losses.loss_and_grad on unchecked inputs: an (n, d) batch with (n,) labels.

    embeddings: (d, C) head columns. Converts to float64 and int64, checks
    the shapes and the label range, and returns a float loss.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    (n, feature_dim), (d, c) = features.shape, embeddings.shape
    if feature_dim != d:
        raise ValueError(f"feature dim {feature_dim} != embedding dim {d}")
    if labels.shape != (n,):
        raise ValueError(f"labels of shape {labels.shape} for {n} features")
    if np.count_nonzero((labels < 0) | (labels >= c)):
        raise ValueError(f"label out of range for {c} classes")
    lg = loss_and_grad(spec, embeddings, features, target_index(labels, embeddings.shape[1]))
    lg.loss = float(lg.loss)
    return lg


def anchor_term(emb: StackedEmbeddings, a: int) -> RegGrad:
    """Anchor a's direct-exponential term: log(1 + sum exp(w.a - a.a)) over its negatives.

    The gradient falls on the negatives only, so column a and its
    group-mates get exactly zero. A column's holders are the clients holding
    a column of its identity (class_of); the negatives are the columns whose
    holders are disjoint from a's, found here by brute force from client_of
    and class_of alone.
    """
    w = emb.W
    if not np.isfinite(w).all():
        raise NonFiniteError("non-finite entry in stacked embeddings")
    # the columns on a client holding a's identity, and every identity those clients hold
    near = np.isin(emb.client_of, emb.client_of[emb.class_of == emb.class_of[a]])
    negatives = np.flatnonzero(~np.isin(emb.class_of, emb.class_of[near]))
    anchor = w[:, a]
    self_term = np.exp(anchor @ anchor)
    cross = np.exp(w[:, negatives].T @ anchor)
    denom = self_term + cross.sum()
    grad = np.zeros_like(w)
    grad[:, negatives] = anchor[:, None] * (cross / denom)
    return RegGrad(float(-np.log(self_term / denom)), grad)


def softmax_reg_naive(emb: StackedEmbeddings) -> RegGrad:
    """Direct-exponential evaluation: anchor_term summed over every column in order.

    Overflows for large column norms; exists only to cross-check the stable
    form on small stacks.
    """
    terms = [anchor_term(emb, a) for a in range(emb.num_columns)]
    return RegGrad(float(sum(t.value for t in terms)), sum(t.grad for t in terms))


@dataclass
class DirectionReport:
    """The correction geometry at a probe whose class embedding equals its feature.

    Per column of another client: (a) the stop-gradient correction term, (b)
    the same term with the feature substituted for the anchor, and (c) the
    centralized softmax gradient over the full stacked class space. (a) and
    (b) coincide, and both are positive multiples of (c)'s direction.
    """

    max_correction_vs_feature_diff: float  # (a) vs (b)
    feature_vs_global_ratios: np.ndarray  # |(b)| / |(c)|
    direction_cosines: np.ndarray  # (a) vs (c)


def _probe(w: np.ndarray, client_of: np.ndarray, col: int, feature: np.ndarray) -> DirectionReport:
    """The DirectionReport of column col of w, with that column set to feature."""
    w = w.copy()
    w[:, col] = feature
    anchor = w[:, col].copy()  # contiguous: its dot products round as the feature's do
    cross = np.flatnonzero(client_of != client_of[col])

    def coefficients(a):
        # exp(w_j . a) / (exp(anchor . a) + sum_cross exp(w . a))
        exps = np.exp(w[:, cross].T @ a)
        return exps / (np.exp(anchor @ a) + exps.sum())

    correction = coefficients(anchor)[:, None] * anchor[None, :]
    feature_coef = coefficients(feature)
    global_grads = batch_loss_and_grad(LossSpec.softmax(), w, feature[None], [col]).grad_embeddings[:, cross]
    cosines = [a @ c / (np.linalg.norm(a) * np.linalg.norm(c)) for a, c in zip(correction, global_grads.T)]
    return DirectionReport(
        max_correction_vs_feature_diff=float(np.abs(correction - feature_coef[:, None] * feature[None, :]).max()),
        feature_vs_global_ratios=feature_coef * np.linalg.norm(feature) / np.linalg.norm(global_grads, axis=0),
        direction_cosines=np.array(cosines),
    )


def _trained_regime(seed: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """_probe's (w, client_of, col, feature) for a seeded stack trained well locally.

    Column 0 takes a norm-3 feature as its class embedding: directions do not
    depend on the scale, and exp(a . a) stays finite. Its client's other
    columns sit far in the negative-logit region, the regime where the
    feature-substituted correction magnitude matches the centralized one.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4A]))
    d, per_client, n_clients = 8, 3, 3
    w = rng.normal(0.0, 0.3, size=(d, per_client * n_clients))
    feature = rng.normal(size=d)
    feature *= 3.0 / np.linalg.norm(feature)
    # within-client non-target logits: w . f = -5 |f|^2 = -45
    w[:, 1:per_client] = -5.0 * feature[:, None]
    return w, np.repeat(np.arange(n_clients), per_client), 0, feature


@dataclass
class CheckRow:
    name: str
    max_err: float
    tol: float
    passed: bool


def _fd(f, x0, grad, h=1e-6) -> float:
    return finite_diff_check(f, x0, grad, h=h, tol=np.inf).max_rel_err


def _random_stack(rng, d=6, clients=(3, 2, 4)) -> StackedEmbeddings:
    cols = int(sum(clients))
    client_of = np.repeat(np.arange(len(clients)), clients)
    return StackedEmbeddings(rng.normal(0.0, 1.0, size=(d, cols)), client_of)


def _frozen_anchor_value(emb0: StackedEmbeddings, w: np.ndarray, normalize: bool) -> float:
    """Regularizer value with anchor occurrences pinned to emb0's columns.

    Differentiating this in w is the correct oracle for the analytic
    gradient, whose anchors are treated as constants.
    """

    def unit(m):
        return m / np.linalg.norm(m, axis=0, keepdims=True)

    anchors = unit(emb0.W) if normalize else emb0.W
    negatives = unit(w) if normalize else w
    total = 0.0
    for a in range(emb0.num_columns):
        negs = np.flatnonzero(emb0.client_of != emb0.client_of[a])
        shifted = negatives[:, negs].T @ anchors[:, a] - anchors[:, a] @ anchors[:, a]
        # log(exp(0) + sum exp(shifted)), shifted by the largest exponent
        terms = np.concatenate([[0.0], shifted])
        total += float(terms.max() + np.log(np.exp(terms - terms.max()).sum()))
    return total


def _backbone_errors(rng) -> list[float]:
    theta = nn.init_backbone([4, 6, 3], int(rng.integers(2**31)))
    x = rng.uniform(-1.0, 1.0, size=(3, 4))
    g_out = rng.normal(size=(3, 3))
    grad, grad_x = backward(theta, x, g_out)

    def f_param(t):
        return float((nn.forward(nn.BackboneParams(t, theta.dims), x) * g_out).sum())

    return [
        _fd(f_param, theta.flat, grad.flat),
        _fd(lambda t: float((nn.forward(theta, t) * g_out).sum()), x, grad_x),
    ]


def _loss_errors(spec: LossSpec, d: int, c: int, n: int, rng) -> list[float]:
    """Both gradients of a (d, c) head's loss on an (n, d) batch."""
    emb = rng.normal(size=(d, c))
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    lg = batch_loss_and_grad(spec, emb, feats, labels)
    return [
        _fd(lambda w: batch_loss_and_grad(spec, w, feats, labels).loss, emb, lg.grad_embeddings),
        _fd(lambda t: batch_loss_and_grad(spec, emb, t, labels).loss, feats, lg.grad_feature),
    ]


def _softmax_reg_error(normalize: bool, rng) -> float:
    # against the frozen-anchor oracle
    emb = _random_stack(rng)
    rg = softmax_reg(emb, normalize_columns=normalize)
    return _fd(lambda w: _frozen_anchor_value(emb, w, normalize), emb.W, rg.grad)


def _cosine_reg_errors(rng) -> list[float]:
    emb = _random_stack(rng)

    def value(w, normalize):
        return cosine_reg(StackedEmbeddings(w, emb.client_of), normalize_columns=normalize).value

    return [
        _fd(partial(value, normalize=n), emb.W, cosine_reg(emb, normalize_columns=n).grad)
        for n in (False, True)
    ]


def _stable_errors(rng) -> list[float]:
    emb = _random_stack(rng, d=8)
    stable, naive = softmax_reg(emb), softmax_reg_naive(emb)
    return [abs(stable.value - naive.value), np.abs(stable.grad - naive.grad).max()]


def _own_anchor_error(rng) -> float:
    return np.abs(anchor_term(_random_stack(rng), 0).grad[:, 0]).max()


def _closed_form_error() -> float:
    w = np.eye(4)[:, :2]
    rg = softmax_reg(StackedEmbeddings(w, np.array([0, 1])))
    closed_value = 2.0 * np.log1p(np.exp(-1.0))
    closed_col = w[:, 0] / (1.0 + np.e)
    return np.max([abs(rg.value - closed_value), np.abs(rg.grad[:, 1] - closed_col).max()])


def verification_suite(seed: int = 0, instances: int = 100) -> list[CheckRow]:
    """Analytic-vs-numeric gradient checks plus the correction-geometry identities.

    Every analytic gradient in the package is compared against central
    finite differences on seeded random instances, then the diagnostic
    identities (frozen-anchor semantics, closed forms, feature substitution,
    local-vs-global magnitude agreement) are evaluated, all on constructed
    instances. Returns one row per check; all must pass, and a NaN error
    fails its row. A negative seed raises ConfigError before any draw.
    """
    check(seed, [("seed", seed >= 0, f"need >= 0, got {seed}")])
    report = _probe(*_trained_regime(seed))
    root = np.random.SeedSequence([seed, 0x6C])

    def worst(count: int, errors) -> float:
        # the largest error over `count` seeded instances; np.max keeps a NaN
        return float(np.max([errors(np.random.default_rng(sub)) for sub in root.spawn(count)]))

    variants = (LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface())
    reg_forms = ((False, "raw dot products"), (True, "normalized columns"))
    table = [
        ("backbone backward vs finite differences", worst(10, _backbone_errors), 1e-5),
        *[(f"{spec.variant} loss gradients", worst(instances, partial(_loss_errors, spec, 5, 4, 3)), 1e-5)
          for spec in variants],
        # softmax over the full stacked class space, for one sample
        ("global softmax gradients", worst(instances, partial(_loss_errors, variants[0], 5, 9, 1)), 1e-5),
        *[(f"softmax regularizer gradient ({label})", worst(20, partial(_softmax_reg_error, normalize)), 1e-5)
          for normalize, label in reg_forms],
        ("cosine regularizer gradient", worst(20, _cosine_reg_errors), 1e-5),
        ("stable vs direct regularizer evaluation", worst(20, _stable_errors), 1e-10),
        ("own-anchor gradient contribution", worst(20, _own_anchor_error), 0.0),
        ("two-client orthonormal closed form", _closed_form_error(), 1e-10),
        # correction geometry: substitution identity, direction, magnitude ratio
        ("anchored vs feature-substituted correction", report.max_correction_vs_feature_diff, 1e-12),
        ("correction vs centralized direction", np.abs(report.direction_cosines - 1.0).max(), 1e-12),
        ("local-vs-global gradient magnitude ratio", np.abs(report.feature_vs_global_ratios - 1.0).max(), 1e-6),
    ]
    return [CheckRow(name, float(err), tol, bool(err <= tol)) for name, err, tol in table]
