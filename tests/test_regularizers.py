"""Separation penalties on stacked heads: closed forms, stop-gradient, masking.

The oracles here are deliberately independent of the library code: frozen-
anchor values are recomputed with explicit loops over anchors, stacks with
shared identities are checked against a double loop over allowed pairs, and
the blocked softmax and closed-form cosine penalties are checked against
test-local copies of the dense C x C evaluation they replaced. Every
reference takes a column's owners from the stack: the clients holding a
column of the same identity (class_of).
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fedgc import regularizers
from fedgc.evaluation import embedding_similarity_stats
from fedgc.gradcheck import finite_diff_check, softmax_reg_naive
from fedgc.losses import NonFiniteError
from fedgc.regularizers import StackedEmbeddings, cosine_reg, softmax_reg


def random_stack(seed, d=8, columns_per_client=(3, 2, 4), scale=0.8, class_of=None):
    rng = np.random.default_rng(seed)
    cols = sum(columns_per_client)
    w = rng.normal(0.0, scale, size=(d, cols))
    client_of = np.repeat(np.arange(len(columns_per_client)), columns_per_client)
    return StackedEmbeddings(w, client_of, class_of=class_of)


def owner_sets(emb):
    """Per column: the clients holding a column of the same identity."""
    return [
        frozenset(int(k) for k in emb.client_of[emb.class_of == emb.class_of[col]])
        for col in range(emb.num_columns)
    ]


def frozen_anchor_value(anchors, w, client_of, normalize, allowed=None):
    """Penalty with anchor occurrences pinned to `anchors` while `w` varies.

    This is the quantity whose gradient in w the library's stop-gradient
    form must produce; written as an explicit per-anchor loop.
    """
    a = anchors / np.linalg.norm(anchors, axis=0) if normalize else anchors
    v = w / np.linalg.norm(w, axis=0) if normalize else w
    total = 0.0
    for j in range(a.shape[1]):
        anchor = a[:, j]
        if allowed is None:
            negatives = np.flatnonzero(client_of != client_of[j])
        else:
            negatives = np.flatnonzero(allowed[:, j])
        terms = v[:, negatives].T @ anchor - anchor @ anchor
        total += np.logaddexp(0.0, terms[0]) if len(terms) == 1 else np.log1p(np.exp(terms).sum())
    return float(total)


def test_stacked_embeddings_validation():
    with pytest.raises(ValueError):
        StackedEmbeddings(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        StackedEmbeddings(np.zeros((2, 3)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        StackedEmbeddings(np.zeros((2, 3)), np.zeros(3, dtype=int), anchor_mask=np.ones(2, dtype=bool))
    # class_of defaults to one identity per column and is copied with the stack
    emb = StackedEmbeddings(np.zeros((2, 3)), np.zeros(3, dtype=int))
    assert emb.class_of.tolist() == [0, 1, 2] and emb.shared_columns() == []
    assert emb.copy().class_of is not emb.class_of


def test_two_client_orthonormal_closed_form():
    # two orthonormal columns on different clients: each anchor contributes
    # log(1 + exp(0 - 1)), and the gradient on column 1 is the softmax
    # weight exp(-1)/(1+exp(-1)) = 1/(1+e) times the other column
    emb = StackedEmbeddings(np.eye(2), np.array([0, 1]))
    rg = softmax_reg(emb)
    assert abs(rg.value - 2.0 * np.log1p(np.exp(-1.0))) < 1e-12
    assert abs(rg.value - 0.6265233750364456) < 1e-10
    np.testing.assert_allclose(rg.grad[:, 1], emb.W[:, 0] / (1.0 + np.e), atol=1e-12)
    np.testing.assert_allclose(rg.grad[:, 0], emb.W[:, 1] / (1.0 + np.e), atol=1e-12)


@pytest.mark.parametrize("normalize", [False, True])
def test_softmax_reg_value_matches_frozen_anchor_loop(normalize):
    for seed in range(5):
        emb = random_stack(seed)
        rg = softmax_reg(emb, normalize_columns=normalize)
        ref = frozen_anchor_value(emb.W, emb.W, emb.client_of, normalize)
        assert abs(rg.value - ref) < 1e-10


@pytest.mark.parametrize("normalize", [False, True])
def test_softmax_reg_gradient_is_frozen_anchor_gradient(normalize):
    # differentiate only the negative occurrences; anchors stay pinned
    emb = random_stack(1)
    rg = softmax_reg(emb, normalize_columns=normalize)
    anchors = emb.W.copy()

    report = finite_diff_check(
        lambda w: frozen_anchor_value(anchors, w, emb.client_of, normalize),
        emb.W,
        rg.grad,
    )
    assert report.passed, report.max_rel_err


def test_softmax_reg_own_anchor_contribution_is_exactly_zero():
    emb = random_stack(2)
    for col in range(emb.num_columns):
        mask = np.arange(emb.num_columns) == col
        solo = StackedEmbeddings(emb.W, emb.client_of, anchor_mask=mask)
        grad = softmax_reg(solo).grad
        assert np.abs(grad[:, col]).max() == 0.0
        # same-client columns are also untouched by this anchor
        same = emb.client_of == emb.client_of[col]
        assert np.abs(grad[:, same]).max() == 0.0


def test_per_anchor_terms_sum_to_total():
    emb = random_stack(3)
    total = softmax_reg(emb)
    value = 0.0
    grad = np.zeros_like(emb.W)
    for col in range(emb.num_columns):
        mask = np.arange(emb.num_columns) == col
        part = softmax_reg(StackedEmbeddings(emb.W, emb.client_of, anchor_mask=mask))
        value += part.value
        grad += part.grad
    assert abs(total.value - value) < 1e-10
    np.testing.assert_allclose(grad, total.grad, atol=1e-10)


def test_naive_and_stable_forms_agree():
    for seed in range(5):
        emb = random_stack(seed, d=8, columns_per_client=(3, 3, 3))
        stable = softmax_reg(emb)
        naive = softmax_reg_naive(emb)
        assert abs(stable.value - naive.value) < 1e-10
        np.testing.assert_allclose(stable.grad, naive.grad, atol=1e-10)


def test_stable_form_survives_norms_that_overflow_the_naive_form():
    emb = random_stack(4, scale=1.0)
    emb = StackedEmbeddings(emb.W * 40.0, emb.client_of)
    with np.errstate(over="ignore"):
        naive_denoms_overflow = not np.isfinite(np.exp((emb.W**2).sum(axis=0))).all()
    assert naive_denoms_overflow  # the direct form genuinely cannot do this
    rg = softmax_reg(emb)
    assert np.isfinite(rg.value)
    assert np.all(np.isfinite(rg.grad))


def test_single_client_stack_has_no_pairs():
    emb = StackedEmbeddings(np.random.default_rng(0).normal(size=(4, 5)), np.zeros(5, dtype=int))
    rg = softmax_reg(emb)
    assert rg.value == 0.0
    assert not rg.grad.any()


def test_cosine_reg_brute_force():
    emb = random_stack(6)
    rg = cosine_reg(emb)
    value = 0.0
    grad = np.zeros_like(emb.W)
    for i in range(emb.num_columns):
        for j in range(emb.num_columns):
            if emb.client_of[i] != emb.client_of[j]:
                value += float(emb.W[:, i] @ emb.W[:, j])
                grad[:, i] += emb.W[:, j]
                grad[:, j] += emb.W[:, i]
    assert abs(rg.value - value) < 1e-10
    np.testing.assert_allclose(rg.grad, grad, atol=1e-10)


@pytest.mark.parametrize("normalize", [False, True])
def test_cosine_reg_gradient_matches_finite_differences(normalize):
    # no stop-gradient here, so this is a plain objective gradient
    emb = random_stack(7)

    def value(w):
        return cosine_reg(StackedEmbeddings(w, emb.client_of), normalize_columns=normalize).value

    rg = cosine_reg(emb, normalize_columns=normalize)
    report = finite_diff_check(value, emb.W, rg.grad)
    assert report.passed, report.max_rel_err


def test_normalized_gradients_are_orthogonal_to_columns():
    emb = random_stack(8)
    for rg in (softmax_reg(emb, normalize_columns=True), cosine_reg(emb, normalize_columns=True)):
        dots = (rg.grad * emb.W).sum(axis=0)
        np.testing.assert_allclose(dots, 0.0, atol=1e-10)


def brute_force_masked(emb):
    """Direct-exponential evaluation over the pairs with disjoint owner sets."""
    owners = owner_sets(emb)
    value = 0.0
    grad = np.zeros_like(emb.W)
    for a in range(emb.num_columns):
        anchor = emb.W[:, a]
        negatives = [j for j in range(emb.num_columns) if owners[j].isdisjoint(owners[a])]
        denom = np.exp(anchor @ anchor) + sum(np.exp(emb.W[:, j] @ anchor) for j in negatives)
        value += np.log(denom) - anchor @ anchor
        for j in negatives:
            grad[:, j] += (np.exp(emb.W[:, j] @ anchor) / denom) * anchor
    return float(value), grad


def test_masked_reg_matches_brute_force():
    # column 1 (client 0) and column 4 (client 1) hold the same identity
    emb = random_stack(
        9, columns_per_client=(3, 3, 3), scale=0.6, class_of=[0, 1, 2, 3, 1, 5, 6, 7, 8]
    )
    rg = softmax_reg(emb)
    value, grad = brute_force_masked(emb)
    assert abs(rg.value - value) < 1e-10
    np.testing.assert_allclose(rg.grad, grad, atol=1e-10)


def test_masked_reg_never_separates_group_mates():
    # columns 0 (client 0) and 2 (client 1) are one identity
    emb = random_stack(10, columns_per_client=(2, 2, 2), class_of=[0, 1, 0, 3, 4, 5])
    # anchor only the first shared column; its twin must feel nothing
    grad = softmax_reg(replace(emb, anchor_mask=np.arange(6) == 0)).grad
    assert np.abs(grad[:, 2]).max() == 0.0
    # client 1's other column is owned by client 1 alone, so it is no negative either
    assert np.abs(grad[:, 3]).max() == 0.0
    # client 2's columns are proper negatives and do get pushed
    assert np.abs(grad[:, 4:]).max() > 0.0


def test_masked_reg_with_no_groups_is_plain_reg():
    # distinct identities, whatever their ids, leave the plain client_of penalty
    emb = random_stack(11)
    a = softmax_reg(replace(emb, class_of=np.arange(emb.num_columns)[::-1] * 7 + 3))
    b = softmax_reg(emb)
    assert a.value == b.value
    np.testing.assert_array_equal(a.grad, b.grad)


def test_masked_reg_validation():
    emb = random_stack(12)
    with pytest.raises(ValueError, match="class_of"):
        replace(emb, class_of=np.arange(emb.num_columns + 1))
    with pytest.raises(ValueError, match="class_of"):
        replace(emb, class_of=np.zeros((1, emb.num_columns), dtype=int))


def test_non_finite_stack_rejected():
    w = np.ones((3, 4))
    w[1, 2] = np.nan
    emb = StackedEmbeddings(w, np.array([0, 0, 1, 1]))
    with pytest.raises(NonFiniteError):
        softmax_reg(emb)
    with pytest.raises(NonFiniteError):
        cosine_reg(emb)
    with pytest.raises(ValueError):
        softmax_reg_naive(emb)
    zero_col = np.ones((3, 4))
    zero_col[:, 0] = 0.0
    with pytest.raises(NonFiniteError, match="zero-norm"):
        softmax_reg(StackedEmbeddings(zero_col, emb.client_of), normalize_columns=True)


# ---------------------------------------------------------------------------
# dense C x C references: the evaluation the blocked and closed forms replaced


def dense_pair_mask(emb):
    """allowed[w, a]: column w is a negative for anchor a (disjoint owner sets)."""
    owners = owner_sets(emb)
    allowed = np.array([[ow.isdisjoint(oa) for oa in owners] for ow in owners])
    if emb.anchor_mask is not None:
        allowed = allowed & emb.anchor_mask[None, :]
    return allowed


def dense_chain_normalization(w, grad_n):
    norms = np.linalg.norm(w, axis=0)
    w_hat = w / norms
    return (grad_n - w_hat * (w_hat * grad_n).sum(axis=0)) / norms


def dense_softmax_reg(emb, normalize=False):
    a_mat = emb.W / np.linalg.norm(emb.W, axis=0) if normalize else emb.W
    allowed = dense_pair_mask(emb)
    gram = a_mat.T @ a_mat
    shifted = np.where(allowed, gram - np.diag(gram)[None, :], -np.inf)
    with_self = np.vstack([shifted, np.zeros((1, emb.num_columns))])
    per_anchor = logsumexp(with_self, axis=0)
    weights = np.exp(shifted - per_anchor[None, :])
    weights[~allowed] = 0.0
    grad_n = a_mat @ weights.T
    if emb.anchor_mask is not None:
        per_anchor = per_anchor * emb.anchor_mask
    grad = dense_chain_normalization(emb.W, grad_n) if normalize else grad_n
    return float(per_anchor.sum()), grad


def dense_cosine_reg(emb, normalize=False):
    # the cosine penalty reads client_of only, so shared identities do not matter
    a_mat = emb.W / np.linalg.norm(emb.W, axis=0) if normalize else emb.W
    allowed = dense_pair_mask(replace(emb, class_of=None)).astype(np.float64)
    value = float((a_mat.T @ a_mat * allowed).sum())
    grad_n = a_mat @ (allowed + allowed.T)
    grad = dense_chain_normalization(emb.W, grad_n) if normalize else grad_n
    return value, grad


def assert_matches(rg, ref, tol=1e-12):
    value, grad = ref
    assert abs(rg.value - value) <= tol * max(1.0, abs(value))
    np.testing.assert_allclose(rg.grad, grad, rtol=0.0, atol=tol)


def shared_stack(seed, clients=6, per_client=7, d=5, identities=None, anchors=False):
    """A random stack whose identities repeat at random, within and across clients.

    identities (default: two thirds of the columns) is the number of ids
    drawn from, so several columns share each one on average.
    """
    cols = clients * per_client
    rng = np.random.default_rng(seed + 200)
    class_of = rng.integers(0, identities or 2 * cols // 3, size=cols)
    emb = random_stack(
        seed, d=d, columns_per_client=(per_client,) * clients, scale=0.7, class_of=class_of
    )
    assert emb.shared_columns()
    if anchors:
        emb = replace(emb, anchor_mask=np.random.default_rng(seed + 100).random(cols) < 0.6)
    return emb


@pytest.mark.parametrize("budget", [1, 5 * 42, None])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("anchors", [False, True])
def test_blocked_penalties_match_dense_references(monkeypatch, budget, normalize, anchors):
    # budget 1 gives one-anchor blocks, 5 * C five-anchor blocks, None the default
    if budget is not None:
        monkeypatch.setattr(regularizers, "_BLOCK_ELEMENTS", budget)
    for seed in range(3):
        emb = shared_stack(seed, anchors=anchors)
        plain = replace(emb, class_of=None)
        assert_matches(softmax_reg(plain, normalize), dense_softmax_reg(plain, normalize))
        assert_matches(softmax_reg(emb, normalize), dense_softmax_reg(emb, normalize))
        assert_matches(cosine_reg(emb, normalize), dense_cosine_reg(emb, normalize))


def test_penalties_match_dense_references_across_default_blocks():
    # 1200 columns span several blocks of the default element budget
    assert len(regularizers._blocks(1200, 1200)) > 1
    emb = random_stack(13, d=6, columns_per_client=(100,) * 12, scale=0.5)
    # identity 0 on clients 0 and 1, identity 750 on clients 7 and 3
    class_of = np.arange(emb.num_columns)
    class_of[100], class_of[350] = 0, 750
    shared = replace(emb, class_of=class_of)
    for normalize in (False, True):
        assert_matches(softmax_reg(emb, normalize), dense_softmax_reg(emb, normalize))
        assert_matches(softmax_reg(shared, normalize), dense_softmax_reg(shared, normalize))
        assert_matches(cosine_reg(emb, normalize), dense_cosine_reg(emb, normalize))


def test_naive_form_uses_the_shared_ownership():
    emb = shared_stack(5, clients=4, per_client=3)
    naive = softmax_reg_naive(emb)
    assert_matches(naive, dense_softmax_reg(emb), tol=1e-10)


def test_server_paths_hold_no_dense_pair_matrix():
    # one dense C x C float64 array at C = 4096 is 128 MiB; the blocked paths
    # must stay below a quarter of it
    shared = shared_stack(14, clients=64, per_client=64, d=8, identities=4000)
    emb = replace(shared, class_of=None)
    budget = 4096 * 4096 * 8 // 4
    calls = {
        "softmax_reg": lambda: softmax_reg(emb, normalize_columns=True),
        "softmax_reg, shared identities": lambda: softmax_reg(shared, normalize_columns=True),
        "cosine_reg": lambda: cosine_reg(emb, normalize_columns=True),
        "embedding_similarity_stats": lambda: embedding_similarity_stats(shared),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < budget, peaks


# ---------------------------------------------------------------------------
# properties


@st.composite
def stacks(draw):
    """A small random stack with repeated identities, a column permutation and relabellings."""
    cols = draw(st.integers(2, 10))
    d = draw(st.integers(1, 4))
    client_of = np.array(draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols)))
    class_of = np.array(draw(st.lists(st.integers(0, cols - 1), min_size=cols, max_size=cols)))
    w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(d, cols))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=cols, max_size=cols))
    perm = np.array(draw(st.permutations(range(cols))))
    relabel = np.array(draw(st.permutations(range(5))))
    rename = np.array(draw(st.permutations(range(cols)))) * 3 + 11
    return StackedEmbeddings(w, client_of, mask, class_of), perm, relabel, rename


def _penalties(emb, normalize):
    return [softmax_reg(emb, normalize), cosine_reg(emb, normalize)]


@settings(max_examples=60, deadline=None)
@given(stacks(), st.booleans())
def test_penalties_are_permutation_equivariant(case, normalize):
    emb, perm, _, _ = case
    mask = None if emb.anchor_mask is None else emb.anchor_mask[perm]
    permuted = StackedEmbeddings(emb.W[:, perm], emb.client_of[perm], mask, emb.class_of[perm])
    for rg, rp in zip(_penalties(emb, normalize), _penalties(permuted, normalize)):
        assert abs(rp.value - rg.value) <= 1e-12 * max(1.0, abs(rg.value))
        np.testing.assert_allclose(rp.grad, rg.grad[:, perm], rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(stacks(), st.booleans())
def test_penalties_are_invariant_under_client_relabelling(case, normalize):
    # renaming clients or identities changes no owner set
    emb, _, relabel, rename = case
    renamed = replace(emb, client_of=relabel[emb.client_of], class_of=rename[emb.class_of])
    for rg, rr in zip(_penalties(emb, normalize), _penalties(renamed, normalize)):
        assert abs(rr.value - rg.value) <= 1e-12 * max(1.0, abs(rg.value))
        np.testing.assert_allclose(rr.grad, rg.grad, rtol=0.0, atol=1e-12)


def dense_owner_matrix(emb):
    """The C x K 0/1 ownership matrix, built even when no identity repeats."""
    held = np.zeros((emb.class_of.max() + 1, emb.client_of.max() + 1))
    held[emb.class_of, emb.client_of] = 1.0
    return held[emb.class_of]


@settings(max_examples=60, deadline=None)
@given(stacks(), st.booleans())
def test_masked_reg_without_groups_is_bitwise_plain_reg(case, normalize):
    # with one column per identity the ownership-matrix path is the client_of path
    emb = replace(case[0], class_of=None)
    plain = softmax_reg(emb, normalize)
    with mock.patch.object(regularizers, "_ownership", dense_owner_matrix):
        masked = softmax_reg(emb, normalize)
    assert masked.value == plain.value
    np.testing.assert_array_equal(masked.grad, plain.grad)
