"""The verification suite behind `fedgc gradcheck` and its oracles; no training path runs them.

Analytic gradients meet central finite differences, the stable penalty its direct
exponential form, and the server correction the centralized softmax gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import data as datasets
from . import federation, nn
from .losses import LossGrad, LossSpec, batch_loss_and_grad
from .regularizers import RegGrad, StackedEmbeddings, cosine_reg, softmax_reg
from .regularizers import _anchor_columns, _ownership, _same_owner


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
    gradients are compared absolutely.
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
        if rel > worst:
            worst, worst_idx = rel, idx
    return FiniteDiffReport(max_rel_err=float(worst), worst_index=worst_idx, passed=worst < tol)


def global_softmax_grad(embeddings: np.ndarray, feature: np.ndarray, label: int) -> LossGrad:
    """Standard softmax CE over the full stacked class space.

    This is the centralized oracle the correction step is compared against;
    it is plain cross entropy on raw logits, identical in form to the local
    softmax but over every class column.
    """
    return batch_loss_and_grad(LossSpec.softmax(), embeddings, feature, label)


def softmax_reg_naive(emb: StackedEmbeddings) -> RegGrad:
    """Direct-exponential evaluation, one anchor at a time.

    Overflows for large column norms; exists only to cross-check the stable
    form on small stacks.
    """
    w = emb.W
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite entry in stacked embeddings")
    owners = _ownership(emb)
    value = 0.0
    grad = np.zeros_like(w)
    for a in _anchor_columns(emb):
        negatives = np.flatnonzero(~_same_owner(emb, owners, np.array([a]))[0])
        anchor = w[:, a]
        self_term = np.exp(anchor @ anchor)
        cross = np.exp(w[:, negatives].T @ anchor)
        denom = self_term + cross.sum()
        value += -np.log(self_term / denom)
        for j, col in enumerate(negatives):
            grad[:, col] += (cross[j] / denom) * anchor
    return RegGrad(float(value), grad)


@dataclass
class DirectionReport:
    """Comparison of the correction gradient against its two reference forms.

    For a probe sample whose target embedding is set equal to its feature,
    the embedding-anchored correction gradient and its feature-anchored form
    coincide; both are positive multiples of the probe direction, as is the
    centralized full-softmax gradient on the same column.
    """

    cross_columns: np.ndarray
    max_correction_vs_feature_diff: float
    feature_vs_global_ratios: np.ndarray
    direction_cosines: np.ndarray      # correction vs centralized directions


def grad_direction_diagnostic(server, clients, client_id: int = 0, sample: int = 0) -> DirectionReport:
    """Evaluate the correction geometry on one probe sample.

    The probe replaces the sample's own class embedding with its feature and
    then compares, per cross-client column: (a) the stop-gradient correction
    term, (b) the same term with the feature substituted for the anchor, and
    (c) the centralized softmax gradient over the full class space.
    """
    cl = clients[client_id]
    feature = nn.forward(server.theta, cl.x[sample])
    label = int(cl.y_local[sample])
    w = server.embeddings.W.copy()
    own = server.head_slices[cl.client_id]
    anchor_col = own.start + label
    w[:, anchor_col] = feature

    client_of = server.embeddings.client_of
    cross = np.flatnonzero(client_of != cl.client_id)
    anchor = w[:, anchor_col]

    # (a) embedding-anchored: exp(w_j . a) a / (exp(a . a) + sum_cross exp(w . a))
    exps_a = np.exp(w[:, cross].T @ anchor)
    denom_a = np.exp(anchor @ anchor) + exps_a.sum()
    correction = (exps_a / denom_a)[:, None] * anchor[None, :]

    # (b) feature-anchored: same expression with the raw feature as the anchor
    exps_f = np.exp(w[:, cross].T @ feature)
    denom_f = np.exp(anchor @ feature) + exps_f.sum()
    feature_form = (exps_f / denom_f)[:, None] * feature[None, :]

    # (c) centralized softmax over the full stacked class space
    full = global_softmax_grad(w, feature, anchor_col)
    global_grads = full.grad_embeddings[:, cross].T

    def _mag(g):
        return np.linalg.norm(g, axis=1)

    ratios = _mag(feature_form) / _mag(global_grads)
    cosines = np.array(
        [
            float(a @ c / (np.linalg.norm(a) * np.linalg.norm(c)))
            for a, c in zip(correction, global_grads)
        ]
    )
    return DirectionReport(
        cross_columns=cross,
        max_correction_vs_feature_diff=float(np.abs(correction - feature_form).max()),
        feature_vs_global_ratios=ratios,
        direction_cosines=cosines,
    )


@dataclass
class CheckRow:
    name: str
    max_err: float
    tol: float
    passed: bool


def _record(rows: list[CheckRow], name: str, err: float, tol: float) -> None:
    rows.append(CheckRow(name, float(err), tol, bool(err <= tol)))


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


def verification_suite(seed: int = 0, instances: int = 100) -> list[CheckRow]:
    """Analytic-vs-numeric gradient checks plus the correction-geometry identities.

    Every analytic gradient in the package is compared against central
    finite differences on seeded random instances, then the diagnostic
    identities (frozen-anchor semantics, closed forms, feature substitution,
    local-vs-global magnitude agreement) are evaluated. Returns one row per
    check; all must pass.
    """
    rows: list[CheckRow] = []
    root = np.random.SeedSequence([seed, 0x6C])

    # backbone backward pass
    err = 0.0
    for sub in root.spawn(10):
        rng = np.random.default_rng(sub)
        theta = nn.init_backbone([4, 6, 3], int(rng.integers(2**31)))
        x = rng.uniform(-1.0, 1.0, size=(3, 4))
        g_out = rng.normal(size=(3, 3))
        grads, grad_x = nn.backward(theta, x, g_out)
        flat = theta.to_list()
        flat_grads = [g for pair in grads for g in pair]
        for i in range(len(flat)):
            def f_param(t, i=i):
                arrays = [t if j == i else flat[j] for j in range(len(flat))]
                p = nn.BackboneParams.from_list(arrays, theta.activation)
                return float((nn.forward(p, x) * g_out).sum())

            err = max(err, _fd(f_param, flat[i], flat_grads[i]))
        err = max(err, _fd(lambda t: float((nn.forward(theta, t) * g_out).sum()), x, grad_x))
    _record(rows, "backbone backward vs finite differences", err, 1e-5)

    # local loss gradients, all variants
    for spec_name, spec in (
        ("softmax", LossSpec.softmax()),
        ("cosface", LossSpec.cosface()),
        ("arcface", LossSpec.arcface()),
    ):
        err = 0.0
        for sub in root.spawn(instances):
            rng = np.random.default_rng(sub)
            d, c, n = 5, 4, 3
            emb = rng.normal(size=(d, c))
            feats = rng.normal(size=(n, d))
            labels = rng.integers(0, c, size=n)
            lg = batch_loss_and_grad(spec, emb, feats, labels)
            err = max(
                err,
                _fd(lambda w: batch_loss_and_grad(spec, w, feats, labels).loss, emb, lg.grad_embeddings),
                _fd(lambda t: batch_loss_and_grad(spec, emb, t, labels).loss, feats, lg.grad_feature),
            )
        _record(rows, f"{spec_name} loss gradients", err, 1e-5)

    # softmax over the full stacked class space
    err = 0.0
    for sub in root.spawn(instances):
        rng = np.random.default_rng(sub)
        emb = rng.normal(size=(5, 9))
        feat = rng.normal(size=5)
        label = int(rng.integers(9))
        lg = global_softmax_grad(emb, feat, label)
        err = max(
            err,
            _fd(lambda w: global_softmax_grad(w, feat, label).loss, emb, lg.grad_embeddings),
            _fd(lambda t: global_softmax_grad(emb, t, label).loss, feat, lg.grad_feature),
        )
    _record(rows, "global softmax gradients", err, 1e-5)

    # regularizer gradients against the frozen-anchor oracle
    for normalize, label in ((False, "raw dot products"), (True, "normalized columns")):
        err = 0.0
        for sub in root.spawn(20):
            rng = np.random.default_rng(sub)
            emb = _random_stack(rng)
            rg = softmax_reg(emb, normalize_columns=normalize)
            err = max(err, _fd(lambda w: _frozen_anchor_value(emb, w, normalize), emb.W, rg.grad))
        _record(rows, f"softmax regularizer gradient ({label})", err, 1e-5)

    err = 0.0
    for sub in root.spawn(20):
        rng = np.random.default_rng(sub)
        emb = _random_stack(rng)
        for normalize in (False, True):
            rg = cosine_reg(emb, normalize_columns=normalize)

            def f_cos(w, normalize=normalize):
                return cosine_reg(
                    StackedEmbeddings(w, emb.client_of), normalize_columns=normalize
                ).value

            err = max(err, _fd(f_cos, emb.W, rg.grad))
    _record(rows, "cosine regularizer gradient", err, 1e-5)

    # numerically stable vs direct exponential evaluation
    err = 0.0
    for sub in root.spawn(20):
        rng = np.random.default_rng(sub)
        emb = _random_stack(rng, d=8)
        stable = softmax_reg(emb)
        naive = softmax_reg_naive(emb)
        err = max(err, abs(stable.value - naive.value), np.abs(stable.grad - naive.grad).max())
    _record(rows, "stable vs direct regularizer evaluation", err, 1e-10)

    # an anchor's own term contributes nothing to its gradient
    err = 0.0
    for sub in root.spawn(20):
        rng = np.random.default_rng(sub)
        emb = _random_stack(rng)
        solo = StackedEmbeddings(
            emb.W, emb.client_of, np.arange(emb.num_columns) == 0
        )
        err = max(err, np.abs(softmax_reg(solo).grad[:, 0]).max())
    _record(rows, "own-anchor gradient contribution", err, 0.0)

    # two-client orthonormal closed form
    w = np.eye(4)[:, :2]
    emb = StackedEmbeddings(w, np.array([0, 1]))
    rg = softmax_reg(emb)
    closed_value = 2.0 * np.log1p(np.exp(-1.0))
    closed_col = w[:, 0] / (1.0 + np.e)
    err = max(abs(rg.value - closed_value), np.abs(rg.grad[:, 1] - closed_col).max())
    _record(rows, "two-client orthonormal closed form", err, 1e-10)

    # correction geometry: substitution identity, direction, magnitude ratio
    report = grad_direction_diagnostic(*_probe_federation(seed))
    _record(rows, "anchored vs feature-substituted correction", report.max_correction_vs_feature_diff, 1e-12)
    _record(rows, "correction vs centralized direction", np.abs(report.direction_cosines - 1.0).max(), 1e-12)
    _record(
        rows,
        "local-vs-global gradient magnitude ratio",
        np.abs(_trained_regime_ratios(seed) - 1.0).max(),
        1e-6,
    )
    return rows


def _probe_federation(seed: int):
    """A minimal random federation for the correction-geometry diagnostic."""
    cfg = federation.FederationConfig(num_clients=3, mode="fedgc", lam=1.0, seed=seed, rounds=1)
    spec = datasets.SyntheticSpec(num_classes=6, samples_per_class=8, input_dim=5, seed=seed)
    dataset = datasets.generate(spec)
    _, client_data = datasets.partition_balanced(dataset, cfg.num_clients)
    return federation.build_federation(client_data, dataset.input_dim, cfg)


def _trained_regime_ratios(seed: int) -> np.ndarray:
    """Magnitude ratios in the constructed well-trained-locally regime.

    The probe feature doubles as its own class embedding, and the client's
    other columns are pushed far into the negative-logit region, which is
    the regime where the feature-substituted correction magnitude matches
    the centralized softmax gradient magnitude.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4A]))
    d, per_client, n_clients = 8, 3, 3
    w = rng.normal(0.0, 0.3, size=(d, per_client * n_clients))
    client_of = np.repeat(np.arange(n_clients), per_client)
    feature = rng.normal(size=d)
    feature *= 3.0 / np.linalg.norm(feature)
    anchor_col = 0
    w[:, anchor_col] = feature
    own = np.flatnonzero(client_of == client_of[anchor_col])
    for col in own:
        if col != anchor_col:
            # within-client non-target logit: w . f = -5 |f|^2 = -45
            w[:, col] = -5.0 * feature
    cross = np.flatnonzero(client_of != client_of[anchor_col])
    exps = np.exp(w[:, cross].T @ feature)
    denom_sub = np.exp(feature @ feature) + exps.sum()
    sub_mags = exps / denom_sub * np.linalg.norm(feature)
    full = global_softmax_grad(w, feature, anchor_col)
    global_mags = np.linalg.norm(full.grad_embeddings[:, cross], axis=0)
    return sub_mags / global_mags
