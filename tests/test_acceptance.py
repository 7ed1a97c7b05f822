"""Acceptance checklist: the ten core correctness and behavior claims.

Each test covers one numbered claim and finishes by printing a single
`[PASS] criterion N` line (run with `-s` to see them; under plain pytest
the verbose test names serve as the checklist). The preset-driven claims
(7-10) parse the committed files under configs/ rather than rebuilding
their settings, so the thresholds are checked against exactly what ships.
"""

import time
from dataclasses import replace
from pathlib import Path
from statistics import median

import numpy as np
import pytest

from fedgc import federation, nn
from fedgc.data import generate, partition_balanced
from fedgc.experiments import (
    OK,
    cell_config,
    make_dataset,
    make_partition,
    parse_config,
    run_cell,
    train_federated,
)
from fedgc.gradcheck import verification_suite
from fedgc.losses import batch_loss_and_grad
from fedgc.regularizers import StackedEmbeddings, softmax_reg

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_preset(name):
    spec, problems = parse_config(CONFIG_DIR / f"{name}.cfg")
    assert problems == [], problems
    return spec


def collect(name, seeds=range(5)):
    """Run every grid cell of a preset for each seed; returns rows and per-seed times."""
    spec = load_preset(name)
    rows, times = [], []
    for seed in seeds:
        s = replace(spec, fed=replace(spec.fed, seed=seed))
        t0 = time.perf_counter()
        for cell in s.grid():
            rows.append((cell, seed, run_cell(s, cell)))
        times.append(time.perf_counter() - t0)
    return rows, times


def _select(rows, **want):
    return [r for cell, _, r in rows if all(getattr(cell, k) == v for k, v in want.items())]


def med_accuracy(rows, **want):
    picked = _select(rows, **want)
    assert len(picked) == 5
    # a run that blew up counts as zero accuracy
    return median(r.final_accuracy if r.status == OK else 0.0 for r in picked)


def med_cross_cos(rows, **want):
    picked = _select(rows, **want)
    assert all(r.status == OK for r in picked)
    return median(r.final_cross_cos for r in picked)


@pytest.fixture(scope="module")
def checks():
    t0 = time.perf_counter()
    rows = verification_suite(seed=0, instances=100)
    return {r.name: r for r in rows}, time.perf_counter() - t0


@pytest.fixture(scope="module")
def default_runs():
    return collect("default")


@pytest.fixture(scope="module")
def participation_runs():
    return collect("participation")


@pytest.fixture(scope="module")
def sweep_runs():
    return collect("lambda_sweep")


def test_criterion_01_loss_gradients_match_finite_differences(checks):
    rows, elapsed = checks
    for name in ("softmax loss gradients", "cosface loss gradients",
                 "arcface loss gradients", "global softmax gradients"):
        row = rows[name]
        assert row.passed and row.max_err < 1e-5, f"{name}: {row.max_err}"
    assert elapsed < 10.0, f"verification suite took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: loss gradients within 1e-5 of finite differences "
          f"(suite ran in {elapsed:.1f}s)")


def test_criterion_02_separation_penalty_gradient_and_stability(checks):
    rows, _ = checks
    for name in ("softmax regularizer gradient (raw dot products)",
                 "softmax regularizer gradient (normalized columns)"):
        row = rows[name]
        assert row.passed and row.max_err < 1e-5, f"{name}: {row.max_err}"
    own = rows["own-anchor gradient contribution"]
    assert own.max_err == 0.0
    stable = rows["stable vs direct regularizer evaluation"]
    assert stable.passed and stable.max_err <= 1e-10
    print("\n[PASS] criterion 2: penalty gradient matches frozen-anchor finite "
          "differences; own-anchor term exactly zero; stable == direct to 1e-10")


def test_criterion_03_two_client_orthonormal_closed_form(checks):
    rows, _ = checks
    row = rows["two-client orthonormal closed form"]
    assert row.passed and row.max_err <= 1e-10
    # restated directly: value 2 log(1 + e^-1) ~= 0.62652, gradient column
    # equals the other client's column scaled by 1/(1 + e)
    emb = StackedEmbeddings(np.eye(2), np.array([0, 1]))
    rg = softmax_reg(emb)
    assert abs(rg.value - 2.0 * np.log1p(np.exp(-1.0))) <= 1e-10
    assert abs(rg.value - 0.62652) < 5e-6
    assert abs(rg.grad[1, 0] - 1.0 / (1.0 + np.e)) <= 1e-10
    print("\n[PASS] criterion 3: closed-form value 0.62652 and gradient 1/(1+e) "
          "reproduced to 1e-10")


def test_criterion_04_combined_objective_equals_per_sample_evaluation():
    # balanced 4 clients x 4 classes, equal samples, multiplier 1/num_classes
    spec = load_preset("default")
    data = replace(spec.data, num_classes=16, input_dim=8, seed=5)
    cfg = replace(
        spec.fed, num_clients=4, mode="fedgc", lam=1.0 / 16.0,
        loss=federation.LossSpec.softmax(), hidden_dim=16, embedding_dim=8, seed=5,
    )
    ds = generate(data)
    part, shards = partition_balanced(ds, 4)
    server, clients = federation.build_federation(shards, ds.input_dim, cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A]))
    for _ in range(3):
        server, _ = federation.run_round(server, clients, cfg, rng)

    # independent evaluation: one loss call per sample, then the penalty by
    # a direct exponential double loop
    total, n = 0.0, 0
    for cl in clients:
        head = server.head_of(cl.client_id)
        feats = nn.forward(server.theta, cl.x)
        for i in range(cl.n_samples):
            total += batch_loss_and_grad(cfg.loss, head, feats[i : i + 1], cl.y_local[i : i + 1]).loss
            n += 1
    per_sample = total / n
    w, owner = server.embeddings.W, server.embeddings.client_of
    reg = 0.0
    for a in range(w.shape[1]):
        cross = np.flatnonzero(owner != owner[a])
        reg += float(np.log(1.0 + np.exp(w[:, cross].T @ w[:, a] - w[:, a] @ w[:, a]).sum()))
    expected = per_sample + cfg.lam * reg

    got = federation.combined_objective(server, clients, cfg)
    rel = abs(got - expected) / max(1.0, abs(expected))
    assert rel < 1e-10, rel
    print(f"\n[PASS] criterion 4: combined objective matches the per-sample "
          f"evaluation (rel err {rel:.2e})")


def test_criterion_05_correction_identity_and_magnitude_ratio(checks):
    rows, _ = checks
    sub = rows["anchored vs feature-substituted correction"]
    assert sub.passed and sub.max_err <= 1e-12
    ratio = rows["local-vs-global gradient magnitude ratio"]
    assert ratio.passed and ratio.max_err <= 1e-6
    print("\n[PASS] criterion 5: feature-substituted correction identical to the "
          "anchored form; magnitude ratio within 1e-6 of 1 in the trained regime")


def test_criterion_06_zero_multiplier_degeneracy_and_determinism():
    spec = load_preset("default")
    base = replace(spec.fed, rounds=50)
    ds = make_dataset(spec, base)
    part, shards = make_partition(ds, "balanced", spec, base)

    def final_state(cfg):
        status, metrics, server, _ = train_federated(ds, part, shards, cfg, eval_every=50)
        assert status == OK
        return server, metrics

    # the zero-multiplier config is built directly (no grid accepts it for
    # real runs) to pin down that the correction path contributes nothing
    plain, m_plain = final_state(replace(base, mode="fedpe"))
    degenerate, m_degen = final_state(replace(base, mode="fedgc", lam=0.0))
    again, _ = final_state(replace(base, mode="fedgc", lam=0.0))

    np.testing.assert_array_equal(plain.embeddings.W, degenerate.embeddings.W)
    for a, b in zip(plain.theta.to_list(), degenerate.theta.to_list()):
        np.testing.assert_array_equal(a, b)
    assert [m.to_dict() for m in m_plain] == [m.to_dict() for m in m_degen]
    np.testing.assert_array_equal(degenerate.embeddings.W, again.embeddings.W)
    for a, b in zip(degenerate.theta.to_list(), again.theta.to_list()):
        np.testing.assert_array_equal(a, b)
    print("\n[PASS] criterion 6: zero-multiplier correction bitwise equals the "
          "plain private-head run over 50 rounds; reruns bitwise identical")


def test_criterion_07_mode_orderings_on_default_preset(default_runs):
    rows, times = default_runs
    assert all(r.status == OK for _, _, r in rows)
    acc = {m: med_accuracy(rows, mode=m) for m in ("fedpe", "fedcos", "fedgc", "centralized")}
    cross = {m: med_cross_cos(rows, mode=m) for m in ("fedpe", "fedcos", "fedgc")}

    assert cross["fedgc"] < cross["fedcos"] < cross["fedpe"], cross
    assert acc["fedgc"] > acc["fedcos"] > acc["fedpe"], acc
    assert acc["centralized"] - acc["fedgc"] < 0.03, acc
    assert max(times) < 300.0, times
    print(f"\n[PASS] criterion 7: median accuracy fedgc {acc['fedgc']:.4f} > "
          f"fedcos {acc['fedcos']:.4f} > fedpe {acc['fedpe']:.4f} "
          f"(centralized {acc['centralized']:.4f}); median cross-client max cos "
          f"fedgc {cross['fedgc']:+.3f} < fedcos {cross['fedcos']:+.3f} < "
          f"fedpe {cross['fedpe']:+.3f}; worst seed {max(times):.0f}s")


def test_criterion_08_participation_fraction_trend(participation_runs):
    rows, _ = participation_runs
    assert all(r.status == OK for _, _, r in rows)
    fractions = (0.25, 0.5, 1.0)
    gc = [med_accuracy(rows, mode="fedgc", fraction=f) for f in fractions]
    pe = [med_accuracy(rows, mode="fedpe", fraction=f) for f in fractions]
    assert all(b >= a for a, b in zip(gc, gc[1:])), gc
    for f, g, p in zip(fractions, gc, pe):
        assert g > p, f"fraction {f}: fedgc {g} vs fedpe {p}"
    print(f"\n[PASS] criterion 8: fedgc median accuracy non-decreasing over "
          f"fractions {fractions}: {[round(v, 4) for v in gc]}, above fedpe "
          f"{[round(v, 4) for v in pe]} at every fraction")


def test_criterion_09_multiplier_sweep_rises_then_collapses(sweep_runs):
    rows, _ = sweep_runs
    spec = load_preset("lambda_sweep")
    low, tuned, high = spec.lambdas
    assert tuned / low == pytest.approx(20.0) and high / tuned == pytest.approx(20.0)
    acc = {lam: med_accuracy(rows, lam=lam) for lam in (low, tuned, high)}
    assert acc[tuned] > acc[low], acc
    assert acc[tuned] > acc[high], acc
    blown = [cell.lam for cell, _, r in rows if r.status != OK]
    assert set(blown) <= {high}, blown  # only the oversized multiplier may blow up
    print(f"\n[PASS] criterion 9: tuned multiplier {tuned:g} gives median accuracy "
          f"{acc[tuned]:.4f} > {acc[low]:.4f} at {low:g} and > {acc[high]:.4f} at "
          f"{high:g} ({len(blown)} of 15 runs diverged, all at the largest multiplier)")


def test_criterion_10_shared_identity_merge_and_masked_penalty():
    spec = load_preset("shared")
    cell = next(c for c in spec.grid() if c.mode == "fedgc")
    result = run_cell(spec, cell)
    assert result.status == OK
    server, clients = result.server, result.clients
    cfg = cell_config(spec, cell)
    emb = server.embeddings
    shared = emb.shared_columns()
    # a quarter of 32 classes, each held by a pair of clients
    assert len(shared) == 8 and all(len(set(emb.client_of[cols])) == 2 for cols in shared)

    # replay the first half of a round to see the copies as the clients
    # return them, before the server averages the duplicates
    runs = []
    for cl in clients:
        theta_b, head_b = federation.client_payload(server, cl.client_id)
        runs.append(federation.client_update(cl, theta_b, head_b, cfg, server.round))
    new_w = server.embeddings.W.copy()
    for cl, (_, head_k, _) in zip(clients, federation.local_sgd(runs)):
        new_w[:, server.head_slices[cl.client_id]] = head_k

    copy_cosines = []
    for cols in shared:
        a, b = new_w[:, cols[0]], new_w[:, cols[1]]
        copy_cosines.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    assert min(copy_cosines) > 0.99, copy_cosines

    # the penalty on the trained stack vs a direct double loop over the pairs
    # whose owners (the clients holding a column of the identity) are disjoint
    owners = [frozenset(emb.client_of[emb.class_of == cls].tolist()) for cls in emb.class_of]
    w = emb.W
    expected = 0.0
    for a in range(w.shape[1]):
        negs = [j for j in range(w.shape[1]) if owners[j].isdisjoint(owners[a])]
        expected += float(
            np.log(np.exp(w[:, a] @ w[:, a]) + np.exp(w[:, negs].T @ w[:, a]).sum())
            - w[:, a] @ w[:, a]
        )
    got = softmax_reg(emb).value
    assert abs(got - expected) / max(1.0, abs(expected)) < 1e-10
    print(f"\n[PASS] criterion 10: pre-merge duplicate columns at cosine "
          f">= {min(copy_cosines):.4f} after training; masked penalty matches "
          f"the direct evaluation to 1e-10")
