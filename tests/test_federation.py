"""Federated protocol mechanics: rounds, aggregation, correction, checkpointing.

The single-round test replays the whole round out of the public pieces in
the documented order (local updates -> restack -> aggregate -> merge ->
correct) and demands bitwise agreement with run_round.
"""

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgc import nn
from fedgc.config import ConfigError
from fedgc.data import (
    ClientData,
    SyntheticSpec,
    generate,
    partition_balanced,
    partition_lognormal,
    partition_shared,
)
from fedgc.evaluation import shard_fit
from fedgc.experiments import compute_round_metrics
from fedgc.federation import (
    FederationConfig,
    LocalRun,
    Workspace,
    _batch_plan,
    aggregate_theta,
    build_centralized,
    build_federation,
    centralized_round,
    client_update,
    correction_step,
    init_head,
    load_checkpoint,
    local_sgd,
    merge_shared_identities,
    regularizer_grad,
    run_round,
    sample_clients,
    save_checkpoint,
)
from fedgc.gradcheck import backward, batch_loss_and_grad
from fedgc.losses import LossSpec, NonFiniteError
from fedgc.regularizers import StackedEmbeddings, cosine_reg, softmax_reg


def head_of(server, client_id):
    """A copy of one client's columns of the stacked head matrix."""
    return server.embeddings.W[:, server.columns(client_id)].copy()


def small_cfg(**kw):
    base = dict(
        num_clients=2, mode="fedpe", lam=0.5, eta=0.05, rounds=2,
        hidden_dim=10, embedding_dim=6, batch_size=16, seed=7,
    )
    base.update(kw)
    return FederationConfig(**base)


def make_federation(cfg, num_classes=8, spc=12, seed=1, share_fraction=None):
    ds = generate(SyntheticSpec(num_classes=num_classes, samples_per_class=spc, input_dim=5, seed=seed))
    if share_fraction is None:
        shards = partition_balanced(ds, cfg.num_clients)
    else:
        shards = partition_shared(ds, cfg.num_clients, share_fraction, seed=seed)
    server, clients = build_federation(shards, ds.input_dim, cfg)
    return ds, server, clients


def holders_of(shards) -> dict[int, tuple[int, ...]]:
    """class -> the ids of the clients whose shards hold it, ascending."""
    out: dict[int, list[int]] = {}
    for cl in shards:
        for cls in cl.classes:
            out.setdefault(cls, []).append(cl.client_id)
    return {cls: tuple(ks) for cls, ks in out.items()}


def train_client(client, theta, head, cfg, round_index=0):
    """client_update's run for one client, trained alone."""
    (result,) = local_sgd([client_update(client, theta, head, cfg, round_index)])
    return result


def round_rng(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 0x5A]))


def centralized_rounds(ds, cfg):
    """(theta, head, mean loss) after each of cfg.rounds centralized rounds.

    One optimizer is passed to every round, so momentum carries across them.
    """
    server, client = build_centralized(ds, cfg)
    opt = nn.SgdState(cfg.eta, cfg.momentum, cfg.weight_decay)
    states = []
    for r in range(cfg.rounds):
        server, loss = centralized_round(server, client, cfg, opt)
        assert server.round == r + 1
        states.append((server.theta, head_of(server, 0), loss))
    return states


# ---------------------------------------------------------------- config


def test_config_validate_reports_each_problem():
    with pytest.raises(ConfigError) as exc:
        FederationConfig(
            num_clients=0, participation=0.0, lam=-1.0, eta=0.0, rounds=-1,
            local_steps=-2, batch_size=0, mode="bogus",
        )
    names = [name for name, _ in exc.value.problems]
    assert names == ["num_clients", "participation", "lam", "eta", "rounds",
                     "local_steps", "batch_size", "mode"]
    for name in names:
        assert f"{name}: " in str(exc.value)
    good = small_cfg()
    assert replace(good) == good


def test_zero_lambda_is_a_grid_rule_not_a_config_rule():
    # a fedgc/fedcos grid with a zero lambda is rejected by experiments.ExperimentSpec
    # (test_grid_problems_flags_zero_lambda_only_for_correction_modes); the config
    # itself constructs, which criterion 6 and the bitwise-fedpe test rely on
    for mode in ("fedgc", "fedcos", "fedpe"):
        assert FederationConfig(num_clients=2, mode=mode, lam=0.0).lam == 0.0


def test_clients_per_round_rounds_up():
    assert small_cfg(num_clients=8, participation=0.25).clients_per_round == 2
    assert small_cfg(num_clients=8, participation=0.3).clients_per_round == 3
    assert small_cfg(num_clients=8, participation=1.0).clients_per_round == 8
    assert small_cfg(num_clients=3, participation=0.01).clients_per_round == 1


def test_normalize_reg_follows_loss_family():
    # both penalties take raw dot products under softmax, normalized columns under margin losses
    emb = StackedEmbeddings(np.random.default_rng(2).normal(size=(4, 6)), np.repeat([0, 1], 3))
    for loss, normalize in ((LossSpec.softmax(), False), (LossSpec.cosface(), True),
                            (LossSpec.arcface(), True)):
        for mode, reg in (("fedgc", softmax_reg), ("fedcos", cosine_reg)):
            got = regularizer_grad(emb, small_cfg(mode=mode, loss=loss)).value
            assert got == reg(emb, normalize_columns=normalize).value
            assert got != reg(emb, normalize_columns=not normalize).value


# ---------------------------------------------------------------- build


def test_build_federation_layout():
    cfg = small_cfg()
    _, server, clients = make_federation(cfg)
    assert [server.columns(k) for k in range(2)] == [slice(0, 4), slice(4, 8)]
    assert server.embeddings.class_of.tolist() == list(range(8))
    np.testing.assert_array_equal(server.embeddings.client_of, np.repeat([0, 1], 4))
    # equal shards, so the combined objective weighs the two clients 1/2 each
    assert [cl.n_samples for cl in clients] == [36, 36]
    assert server.round == 0 and server.embeddings.shared_columns() == []
    # the clients are the partition's shards; their heads live only on the server
    assert [cl.client_id for cl in clients] == [0, 1]
    assert all(isinstance(cl, ClientData) for cl in clients)
    # per-client head seeds differ, and rebuilding reproduces everything
    assert not np.array_equal(head_of(server, 0), head_of(server, 1))
    _, server2, _ = make_federation(cfg)
    np.testing.assert_array_equal(server.embeddings.W, server2.embeddings.W)
    # a client's columns and its place in the list are both read from its id
    with pytest.raises(ValueError, match="id order"):
        build_federation(clients[::-1], 5, cfg)


def test_init_head_scale():
    rng = np.random.default_rng(0)
    head = init_head(4000, 25, rng)
    assert head.shape == (25, 4000)
    norms = np.linalg.norm(head, axis=0)
    assert abs(norms.mean() - 1.0) < 0.05  # columns near unit norm by design


# ---------------------------------------------------------------- local updates


def test_client_update_deterministic_and_round_dependent():
    cfg = small_cfg()
    _, server, clients = make_federation(cfg)
    theta = server.theta
    head = head_of(server, 0)
    run = client_update(clients[0], theta, head, cfg, round_index=3)
    assert isinstance(run, LocalRun) and run.opt.velocity is None
    assert run.theta is theta and run.head is head  # nothing is copied before training
    a = train_client(clients[0], theta, head, cfg, round_index=3)
    b = train_client(clients[0], theta, head, cfg, round_index=3)
    c = train_client(clients[0], theta, head, cfg, round_index=4)
    for x, y in zip(a[0].to_list(), b[0].to_list()):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2] == b[2]
    assert not np.array_equal(a[1], c[1])


def test_client_update_empty_client_skips():
    cfg = small_cfg()
    _, server, clients = make_federation(cfg)
    empty = replace(clients[0], x=clients[0].x[:0], y_local=clients[0].y_local[:0])
    assert client_update(empty, server.theta, head_of(server, 0), cfg) is None


def test_client_update_does_not_mutate_inputs():
    cfg = small_cfg()
    _, server, clients = make_federation(cfg)
    head = head_of(server, 0)
    head_before = head.copy()
    theta_before = [a.copy() for a in server.theta.to_list()]
    train_client(clients[0], server.theta, head, cfg)
    np.testing.assert_array_equal(head, head_before)
    for a, b in zip(server.theta.to_list(), theta_before):
        np.testing.assert_array_equal(a, b)


def test_client_update_single_step_matches_hand_gradient():
    # one step over the full shard with momentum and decay off is exactly
    # p - eta * grad, and the gradient is permutation-invariant, so we can
    # recompute it from the unshuffled shard
    cfg = small_cfg(momentum=0.0, weight_decay=0.0, local_steps=1, batch_size=64)
    _, server, clients = make_federation(cfg)
    cl = clients[0]
    assert cl.n_samples <= cfg.batch_size
    head = head_of(server, 0)
    theta_k, head_k, trace = train_client(cl, server.theta, head, cfg)

    feats = nn.forward(server.theta, cl.x)
    lg = batch_loss_and_grad(cfg.loss, head, feats, cl.y_local)
    grad, _ = backward(server.theta, cl.x, lg.grad_feature)
    assert abs(trace[0] - lg.loss) < 1e-12
    np.testing.assert_allclose(head_k, head - cfg.eta * lg.grad_embeddings, atol=1e-12)
    np.testing.assert_allclose(theta_k.flat, server.theta.flat - cfg.eta * grad.flat, atol=1e-12)


def test_local_training_reduces_loss():
    cfg = small_cfg(local_steps=30)
    _, server, clients = make_federation(cfg)
    _, _, trace = train_client(clients[0], server.theta, head_of(server, 0), cfg)
    assert np.mean(trace[-3:]) < np.mean(trace[:3])


# ---------------------------------------------------------------- fused loop vs reference


def reference_local_sgd(theta, head, shard, batches, opt, loss):
    """The unfused loop local_sgd replaced, kept here as its bitwise oracle.

    Each step runs nn.forward, gradcheck.batch_loss_and_grad,
    gradcheck.backward (which runs the forward pass again) and one
    nn.sgd_update per tensor, on a copy, with the tensor's own SgdState.
    Between calls opt.velocity holds their velocities concatenated in
    to_list order, the head's last: the flat row local_sgd stores.
    """
    head = head.copy()
    shapes = [a.shape for a in theta.to_list() + [head]]
    velocities = [None] * len(shapes)
    if opt.velocity is not None:
        cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        velocities = [v.reshape(shape) for v, shape in zip(np.split(opt.velocity, cuts), shapes)]
    opts = [nn.SgdState(opt.learning_rate, opt.momentum, opt.weight_decay, v) for v in velocities]
    trace = []
    for idx in batches:
        xb, yb = shard.x[idx], shard.y_local[idx]
        feats = nn.forward(theta, xb)
        lg = batch_loss_and_grad(loss, head, feats, yb)
        trace.append(lg.loss)
        grad, _ = backward(theta, xb, lg.grad_feature)
        params = theta.to_list() + [head]
        grads = grad.to_list() + [lg.grad_embeddings]
        new = [p.copy() for p in params]
        for tensor_opt, param, grad in zip(opts, new, grads, strict=True):
            nn.sgd_update(tensor_opt, param, grad)
        head = new.pop()
        theta = nn.BackboneParams.from_list(new)
    opt.velocity = np.concatenate([tensor_opt.velocity.ravel() for tensor_opt in opts])
    return theta, head, trace


def assert_same_training(got, want):
    (theta_a, head_a, trace_a), (theta_b, head_b, trace_b) = got, want
    assert theta_a.dims == theta_b.dims
    np.testing.assert_array_equal(theta_a.flat, theta_b.flat)
    np.testing.assert_array_equal(head_a, head_b)
    np.testing.assert_array_equal(trace_a, trace_b)


@pytest.mark.parametrize("batch_size, local_steps", [(16, 7), (5, 17)])
@pytest.mark.parametrize("loss", [LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface()])
def test_client_update_bitwise_matches_reference_loop(loss, batch_size, local_steps):
    # 36 samples in batches of 16 or 5: the steps cross two epoch boundaries
    # and take the partial 4-sample or 1-sample batch twice
    cfg = small_cfg(loss=loss, batch_size=batch_size, local_steps=local_steps)
    _, server, clients = make_federation(cfg)
    cl = clients[0]
    assert cl.n_samples % cfg.batch_size
    assert cfg.local_steps > 2 * math.ceil(cl.n_samples / cfg.batch_size)
    head = head_of(server, 0)
    got = train_client(cl, server.theta, head, cfg, round_index=2)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, cl.client_id, 0xC1]))
    want = reference_local_sgd(
        server.theta, head, cl, _batch_plan(cl.n_samples, cfg, rng),
        nn.SgdState(cfg.eta, cfg.momentum, cfg.weight_decay), cfg.loss,
    )
    assert_same_training(got, want)


@pytest.mark.parametrize("loss", [LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface()])
def test_centralized_train_bitwise_matches_reference_loop(loss):
    # momentum carried across three rounds of a partial-batch epoch each
    ds = generate(SyntheticSpec(num_classes=8, samples_per_class=12, input_dim=5, seed=1))
    cfg = small_cfg(rounds=3, mode="centralized", loss=loss, batch_size=20)
    assert len(ds.train_y) % cfg.batch_size
    got = centralized_rounds(ds, cfg)
    theta = nn.init_backbone([5, cfg.hidden_dim, cfg.embedding_dim], cfg.seed)
    head = init_head(8, cfg.embedding_dim, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xCE, 0])))
    opt = nn.SgdState(cfg.eta, cfg.momentum, cfg.weight_decay)
    pooled = ClientData(0, list(range(8)), ds.train_x, ds.train_y)
    for r in range(cfg.rounds):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, r, 0xCE]))
        theta, head, trace = reference_local_sgd(
            theta, head, pooled, _batch_plan(len(ds.train_y), cfg, rng),
            opt, cfg.loss,
        )
        theta_c, head_c, loss_c = got[r]
        assert_same_training((theta_c, head_c, [loss_c]), (theta, head, [np.mean(trace)]))


@pytest.mark.parametrize("batch_size", [16, 11])
@pytest.mark.parametrize("momentum, weight_decay", [(0.9, 5e-4), (0.0, 0.0), (0.5, 0.0), (0.0, 1e-2)])
@pytest.mark.parametrize("dims", [[5, 6], [5, 10, 6], [5, 9, 7, 6], [5, 3, 8, 4, 6]])
@pytest.mark.parametrize("loss", [LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface()])
def test_local_sgd_bitwise_matches_reference_loop_beyond_preset_shapes(
    loss, dims, momentum, weight_decay, batch_size
):
    # the presets only train two layers with momentum and decay; the fused
    # step must also match on one layer, three layers, four layers through a
    # hidden layer narrower than the input, and a zero momentum or decay.
    # The 45 training rows end each epoch in a 13-row batch of 16 or a
    # 1-row batch of 11.
    ds = generate(SyntheticSpec(num_classes=5, samples_per_class=12, input_dim=5, seed=2))
    theta = nn.init_backbone(dims, seed=4)
    head = init_head(5, dims[-1], np.random.default_rng(9))
    cfg = small_cfg(batch_size=batch_size, local_steps=6)
    batches = list(_batch_plan(len(ds.train_y), cfg, np.random.default_rng(5)))
    assert len(ds.train_y) % cfg.batch_size
    args = (ClientData(0, list(range(5)), ds.train_x, ds.train_y), batches)
    (got,) = local_sgd([LocalRun(theta, head, *args, nn.SgdState(0.05, momentum, weight_decay), loss)])
    want = reference_local_sgd(theta, head, *args, nn.SgdState(0.05, momentum, weight_decay), loss)
    assert_same_training(got, want)
    assert got[0].dims == theta.dims


def test_local_sgd_classifies_divergence_inside_the_step():
    # a dead head column and a blown-up step are divergence (NonFiniteError),
    # never a plain ValueError or an IndexError from the buffers
    ds = generate(SyntheticSpec(num_classes=4, samples_per_class=12, input_dim=5, seed=2))
    theta = nn.init_backbone([5, 10, 6], seed=4)
    head = init_head(4, 6, np.random.default_rng(9))
    cfg = small_cfg(batch_size=8, local_steps=6)
    batches = _batch_plan(len(ds.train_y), cfg, np.random.default_rng(5))
    pooled = ClientData(0, list(range(4)), ds.train_x, ds.train_y)
    dead = head.copy()
    dead[:, 2] = 0.0
    with pytest.raises(NonFiniteError, match="zero-norm") as exc:
        local_sgd([LocalRun(theta, dead, pooled, batches, nn.SgdState(0.05), LossSpec.cosface())])
    assert exc.type is NonFiniteError
    for loss in (LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface()):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the first step is finite; its update overflows the parameters
            (one_step,) = local_sgd(
                [LocalRun(theta, head, pooled, batches[:1], nn.SgdState(1e300), loss)]
            )
            assert np.isfinite(one_step[2]).all()
            with pytest.raises(NonFiniteError) as exc:
                local_sgd([LocalRun(theta, head, pooled, batches, nn.SgdState(1e300), loss)])
        assert exc.type is NonFiniteError


# ---------------------------------------------------------------- lockstep groups


def random_run(rng, dims, classes, rows, batch_size, steps, loss, opt):
    """A LocalRun on random data whose batch plan has the given shape."""
    theta = nn.init_backbone(dims, seed=int(rng.integers(2**31)))
    for _, b in theta.layers:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    head = rng.normal(0.0, 1.0, size=(dims[-1], classes))
    x = rng.normal(0.0, 2.0, size=(rows, dims[0]))
    y = rng.integers(0, classes, size=rows)
    cfg = small_cfg(batch_size=batch_size, local_steps=steps)
    shard = ClientData(0, list(range(classes)), x, y)
    return LocalRun(theta, head, shard, _batch_plan(rows, cfg, rng), opt, loss)


def assert_same_training_and_velocity(got, want, opt_got, opt_want):
    assert_same_training(got, want)
    assert opt_got.velocity.shape == opt_want.velocity.shape
    np.testing.assert_array_equal(opt_got.velocity, opt_want.velocity)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 16),
    hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    loss=st.sampled_from([LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface()]),
    rows=st.integers(1, 40),
    batch_size=st.integers(1, 39),
    steps=st.integers(1, 5),
    classes=st.integers(1, 5),
    momentum=st.sampled_from([0.0, 0.9]),
    decay=st.sampled_from([0.0, 5e-3]),
    others=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
# sixteen runs whose third step is a 1-row partial batch; three 1-row runs
@example(k=16, hidden=[9, 9, 9], loss=LossSpec.cosface(), rows=33,
         batch_size=16, steps=5, classes=5, momentum=0.9, decay=5e-3, others=3, seed=1)
@example(k=3, hidden=[2], loss=LossSpec.arcface(), rows=1, batch_size=1,
         steps=2, classes=2, momentum=0.0, decay=0.0, others=0, seed=2)
def test_lockstep_local_sgd_is_bitwise_per_run(
    k, hidden, loss, rows, batch_size, steps, classes, momentum, decay, others, seed,
):
    # k runs of one shape train as one stacked group; `others` runs with a
    # different head width or row count join the call at random positions
    # and form groups of their own. Every run must come back bitwise as it
    # trains alone and as the unfused reference loop trains it, in input
    # order, with the same velocity; a second call resumes every run from
    # its stored velocity, as centralized rounds do.
    rng = np.random.default_rng(seed)
    dims = [4, *hidden, 3]

    def make(classes_k, rows_k):
        # one run twice, each copy with its own optimizer
        run = random_run(rng, dims, classes_k, rows_k, batch_size, steps, loss,
                         nn.SgdState(0.05, momentum, decay))
        return run, run._replace(opt=nn.SgdState(0.05, momentum, decay))

    pairs = [make(classes, rows) for _ in range(k)]
    pairs += [make(classes + 1 + i % 2, rows + i // 2) for i in range(others)]
    order = rng.permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    grouped, alone = [p[0] for p in pairs], [p[1] for p in pairs]
    ref_opts = [nn.SgdState(0.05, momentum, decay) for _ in pairs]
    for lap in range(2):
        try:
            want = [local_sgd([run])[0] for run in alone]
        except NonFiniteError:
            # a dead ReLU net gives a zero feature; the group must diverge too
            with pytest.raises(NonFiniteError):
                local_sgd(grouped)
            return
        got = local_sgd(grouped)
        for run_g, run_a, ref_opt, g, w in zip(grouped, alone, ref_opts, got, want, strict=True):
            assert_same_training_and_velocity(g, w, run_g.opt, run_a.opt)
            reference = reference_local_sgd(*run_a._replace(opt=ref_opt))
            assert_same_training_and_velocity(g, reference, run_g.opt, ref_opt)
        grouped = [run._replace(theta=g[0], head=g[1]) for run, g in zip(grouped, got)]
        alone = [run._replace(theta=w[0], head=w[1]) for run, w in zip(alone, want)]


def test_lockstep_group_diverges_with_one_dead_client():
    # one zero-norm head column in one client of a CosFace group diverges the call
    rng = np.random.default_rng(3)
    runs = [
        random_run(rng, [4, 8, 3], 3, 20, 8, 3, LossSpec.cosface(), nn.SgdState(0.05))
        for _ in range(5)
    ]
    runs[2].head[:, 1] = 0.0
    for run in runs[:2] + runs[3:]:
        local_sgd([run])  # the others train
    with pytest.raises(NonFiniteError, match="zero-norm") as exc:
        local_sgd(runs)
    assert exc.type is NonFiniteError


def test_lockstep_batches_index_each_client_alone():
    # a negative index counts from the end of the run's own rows, as x[idx]
    # does; an index past either end raises instead of reading a neighbour's
    rng = np.random.default_rng(5)
    runs = [
        random_run(rng, [4, 6, 3], 2, 7, 4, 2, LossSpec.softmax(), nn.SgdState(0.05))
        for _ in range(3)
    ]
    runs = [run._replace(batches=[np.array([-1, 0, -7, 3]), np.array([6, -2, 1, 2])]) for run in runs]
    want = [local_sgd([run._replace(opt=nn.SgdState(0.05))])[0] for run in runs]
    for got, expect in zip(local_sgd(runs), want, strict=True):
        assert_same_training(got, expect)
    for bad in (7, -8):
        broken = [run._replace(batches=[np.array([0, 1, bad, 2])], opt=nn.SgdState(0.05)) for run in runs]
        for call in (broken[:1], broken):
            with pytest.raises(IndexError):
                local_sgd(call)


def test_local_sgd_rejects_shared_optimizer_and_foreign_velocity():
    rng = np.random.default_rng(4)
    opt = nn.SgdState(0.05, 0.9)
    a, b = (random_run(rng, [4, 5, 3], 2, 9, 4, 2, LossSpec.softmax(), opt) for _ in range(2))
    with pytest.raises(ValueError, match="own SgdState"):
        local_sgd([a, b])
    # a velocity that does not fit the trained parameters (here: one left by
    # a run with a narrower head) is refused, alone or in a group
    (trained,) = local_sgd([a])
    assert len(trained[2]) == 2
    one_class = replace(a.shard, classes=[0], y_local=np.zeros_like(a.shard.y_local))
    narrow = a._replace(head=a.head[:, :1], shard=one_class, opt=nn.SgdState(0.05, 0.9))
    local_sgd([narrow])
    foreign = a._replace(opt=narrow.opt)
    b = b._replace(opt=nn.SgdState(0.05, 0.9))
    for runs in ([foreign], [foreign, b]):
        with pytest.raises(ValueError, match="mismatch"):
            local_sgd(runs)
    assert local_sgd([]) == []


def test_local_sgd_refuses_a_run_that_does_not_fit_its_shard():
    # the shard checked its own rows and labels; a run must still bring a
    # head with one column per class and a backbone as wide as the rows
    rng = np.random.default_rng(6)
    runs = [random_run(rng, [4, 5, 3], 3, 9, 4, 2, LossSpec.softmax(), nn.SgdState(0.05)) for _ in range(3)]
    local_sgd(runs)
    wide = ClientData(0, [0, 1, 2], np.zeros((9, 5)), runs[0].shard.y_local)
    misfits = [
        runs[0]._replace(head=runs[0].head[:, :2]),
        runs[0]._replace(head=np.zeros((3, 4))),
        runs[0]._replace(head=np.zeros((4, 3))),
        runs[0]._replace(shard=replace(runs[0].shard, classes=[0, 1, 2, 3])),
        runs[0]._replace(shard=wide),
    ]
    for misfit in misfits:
        for call in ([misfit], [runs[1], misfit, runs[2]]):
            with pytest.raises(ValueError, match="do not fit a shard"):
                local_sgd([run._replace(opt=nn.SgdState(0.05)) for run in call])


# ---------------------------------------------------------------- aggregation


def test_aggregate_theta_weighted_mean():
    a = nn.init_backbone([3, 4, 2], seed=0)
    b = nn.init_backbone([3, 4, 2], seed=1)
    merged = aggregate_theta([a, b], [1, 3])
    assert merged.dims == a.dims
    np.testing.assert_allclose(merged.flat, 0.25 * a.flat + 0.75 * b.flat, atol=1e-15)


def test_aggregate_theta_errors():
    a = nn.init_backbone([3, 4, 2], seed=0)
    with pytest.raises(ValueError):
        aggregate_theta([], [])
    with pytest.raises(ValueError):
        aggregate_theta([a], [0])
    with pytest.raises(ValueError, match="mismatch"):
        aggregate_theta([a, nn.init_backbone([3, 5, 2], seed=0)], [1, 1])


def test_sample_clients_properties():
    cfg = small_cfg(num_clients=8, participation=0.5)
    rng = np.random.default_rng(0)
    draws = [sample_clients(cfg, rng) for _ in range(30)]
    for d in draws:
        assert len(d) == 4 and len(set(d.tolist())) == 4
        assert (np.diff(d) > 0).all()  # client-index order
    assert len({tuple(d.tolist()) for d in draws}) > 1  # actually random
    full = sample_clients(small_cfg(num_clients=8, participation=1.0), np.random.default_rng(0))
    assert full.tolist() == list(range(8))


# ---------------------------------------------------------------- correction


def test_regularizer_grad_dispatch():
    cfg_gc = small_cfg(mode="fedgc")
    cfg_cos = small_cfg(mode="fedcos")
    rng = np.random.default_rng(0)
    emb = StackedEmbeddings(rng.normal(size=(4, 6)), np.repeat([0, 1], 3))
    shared = StackedEmbeddings(emb.W, emb.client_of, class_of=[0, 1, 2, 0, 4, 5])
    assert regularizer_grad(emb, cfg_gc).value == softmax_reg(emb).value
    assert regularizer_grad(shared, cfg_gc).value == softmax_reg(shared).value
    assert regularizer_grad(shared, cfg_gc).value != regularizer_grad(emb, cfg_gc).value
    assert regularizer_grad(emb, cfg_cos).value == cosine_reg(emb).value
    # margin losses switch both regularizers to normalized columns
    cfg_m = small_cfg(mode="fedgc", loss=LossSpec.cosface())
    assert regularizer_grad(emb, cfg_m).value == softmax_reg(emb, normalize_columns=True).value


def test_correction_step_hand_value_and_guards():
    rng = np.random.default_rng(1)
    emb = StackedEmbeddings(rng.normal(size=(4, 6)), np.repeat([0, 1], 3))
    cfg = small_cfg(mode="fedgc", lam=2.0, eta=0.25)
    out = correction_step(emb, cfg)
    np.testing.assert_allclose(out.W, emb.W - 0.5 * softmax_reg(emb).grad, atol=1e-15)
    with pytest.raises(ValueError):
        correction_step(emb, small_cfg(mode="fedpe"))
    # zero step size and single-client stacks return untouched copies
    noop = correction_step(emb, small_cfg(mode="fedgc", lam=0.0))
    np.testing.assert_array_equal(noop.W, emb.W)
    assert noop.W is not emb.W
    solo = StackedEmbeddings(emb.W, np.zeros(6, dtype=int))
    np.testing.assert_array_equal(correction_step(solo, cfg).W, solo.W)


# ---------------------------------------------------------------- rounds


def replay_round(server, clients, cfg, rng):
    """run_round out of the public pieces, one client trained at a time.

    Returns the new state, the mean loss, the number of sampled empty
    clients and the number of distinct (head width, batch sizes) shapes.
    """
    sampled = sample_clients(cfg, rng)
    new_w = server.embeddings.W.copy()
    thetas, counts, losses, skipped, shapes = [], [], [], 0, set()
    for k in sampled:
        run = client_update(clients[k], server.theta, head_of(server, k), cfg, server.round)
        if run is None:
            skipped += 1
            continue
        shapes.add((run.head.shape, tuple(len(idx) for idx in run.batches)))
        ((theta_k, head_k, trace),) = local_sgd([run])
        thetas.append(theta_k)
        counts.append(clients[k].n_samples)
        new_w[:, server.columns(k)] = head_k
        losses.append(float(np.mean(trace)))
    emb = correction_step(merge_shared_identities(replace(server.embeddings, W=new_w)), cfg)
    expect = replace(server, theta=aggregate_theta(thetas, counts), embeddings=emb, round=server.round + 1)
    return expect, float(np.mean(losses)), skipped, len(shapes)


@pytest.mark.parametrize(
    "scheme, participation",
    [("balanced", 1.0), ("balanced", 0.5), ("lognormal", 0.5), ("shared", 0.5)],
)
def test_run_round_matches_manual_replay(scheme, participation):
    # lognormal and shared shards differ in head width and batch plan, so a
    # round trains several lockstep groups; the shared partition of 16
    # classes over 12 clients leaves two clients without data. Every round
    # trains in one workspace, whose buffers the earlier rounds left behind;
    # the replay trains each client alone in fresh buffers.
    cfg = small_cfg(mode="fedgc", lam=1.0, num_clients=4, participation=participation)
    ds = generate(SyntheticSpec(num_classes=16, samples_per_class=12, input_dim=5, seed=1))
    if scheme == "balanced":
        shards = partition_balanced(ds, cfg.num_clients)
    else:
        cfg = replace(cfg, num_clients=12)
        if scheme == "lognormal":
            shards = partition_lognormal(ds, cfg.num_clients, seed=2)
        else:
            shards = partition_shared(ds, cfg.num_clients, 0.5, seed=5, group_size=2)
            assert [cl.client_id for cl in shards if cl.n_samples == 0] == [9, 10]
    server, clients = build_federation(shards, ds.input_dim, cfg)
    rng_got, rng_want = round_rng(cfg.seed), round_rng(cfg.seed)
    workspace = Workspace()
    skipped, groups = 0, 0
    for r in range(6):
        expect, expect_loss, skipped_r, groups_r = replay_round(server, clients, cfg, rng_want)
        got, got_loss = run_round(server, clients, cfg, rng_got, workspace)
        assert got.round == r + 1
        assert got_loss == expect_loss
        np.testing.assert_array_equal(got.embeddings.W, expect.embeddings.W)
        for a, b in zip(got.theta.to_list(), expect.theta.to_list(), strict=True):
            np.testing.assert_array_equal(a, b)
        skipped, groups = skipped + skipped_r, max(groups, groups_r)
        server = got
    if scheme == "balanced":
        assert groups == 1
    else:
        assert groups > 1
    assert (skipped > 0) == (scheme == "shared")


def test_run_round_leaves_inputs_untouched():
    # neither the server state a round starts from nor the one it returns
    # changes when the next round trains in the same workspace
    cfg = small_cfg()
    _, server, clients = make_federation(cfg)
    data_before = [(cl.x.copy(), cl.y_local.copy()) for cl in clients]
    rng, workspace = round_rng(cfg.seed), Workspace()
    for _ in range(3):
        w_before, theta_before = server.embeddings.W.copy(), server.theta.flat.copy()
        after, _ = run_round(server, clients, cfg, rng, workspace)
        np.testing.assert_array_equal(server.embeddings.W, w_before)
        np.testing.assert_array_equal(server.theta.flat, theta_before)
        server = after
    for cl, (x, y) in zip(clients, data_before):
        np.testing.assert_array_equal(cl.x, x)
        np.testing.assert_array_equal(cl.y_local, y)


def test_workspace_stops_growing():
    # with half of a lognormal partition sampled, the groups and their shapes
    # change from round to round; once the arenas have met the largest call,
    # further rounds replace neither of them
    cfg = small_cfg(mode="fedgc", lam=1.0, num_clients=6, participation=0.5)
    ds = generate(SyntheticSpec(num_classes=16, samples_per_class=12, input_dim=5, seed=1))
    shards = partition_lognormal(ds, cfg.num_clients, seed=2)
    server, clients = build_federation(shards, ds.input_dim, cfg)
    rng, workspace = round_rng(cfg.seed), Workspace()
    for _ in range(40):
        server, _ = run_round(server, clients, cfg, rng, workspace)
    arenas = [(id(a), a.nbytes) for a in (workspace.held, workspace.scratch)]
    assert arenas[0][1] > 0 and arenas[1][1] > 0
    head_widths = set()
    for _ in range(20):
        # run_round draws nothing from rng but its sample
        sampled = sample_clients(cfg, copy.deepcopy(rng))
        head_widths.add(sum(len(clients[k].classes) for k in sampled))
        server, _ = run_round(server, clients, cfg, rng, workspace)
        assert [(id(a), a.nbytes) for a in (workspace.held, workspace.scratch)] == arenas
    assert len(head_widths) > 1


def test_partial_participation_head_movement():
    # the correction moves the whole stacked matrix, so an unsampled client's
    # stored head moves too; under fedpe it stays bitwise frozen for the round
    for mode, idle_moves in [("fedgc", True), ("fedpe", False)]:
        cfg = small_cfg(mode=mode, lam=5.0, participation=0.5)
        _, server, clients = make_federation(cfg)
        sampled = set(sample_clients(cfg, round_rng(cfg.seed)).tolist())
        assert len(sampled) == 1
        (idle,) = set(range(2)) - sampled
        after, _ = run_round(server, clients, cfg, round_rng(cfg.seed))
        assert (not np.array_equal(head_of(after, idle), head_of(server, idle))) == idle_moves
        # the sampled client's head always moves
        (k,) = sampled
        assert not np.array_equal(head_of(after, k), head_of(server, k))


def test_zero_lambda_correction_is_bitwise_fedpe():
    # a zero-lambda fedgc config (which no grid accepts) pins down that the
    # correction path contributes nothing at lambda = 0
    _, server_a, clients_a = make_federation(small_cfg(mode="fedpe"))
    _, server_b, clients_b = make_federation(small_cfg(mode="fedgc", lam=0.0))
    rng_a, rng_b = round_rng(7), round_rng(7)
    for _ in range(5):
        server_a, loss_a = run_round(server_a, clients_a, small_cfg(mode="fedpe"), rng_a)
        server_b, loss_b = run_round(server_b, clients_b, small_cfg(mode="fedgc", lam=0.0), rng_b)
        assert loss_a == loss_b
    np.testing.assert_array_equal(server_a.embeddings.W, server_b.embeddings.W)
    for a, b in zip(server_a.theta.to_list(), server_b.theta.to_list()):
        np.testing.assert_array_equal(a, b)


def test_repeated_runs_are_bitwise_identical():
    outs = []
    for _ in range(2):
        cfg = small_cfg(mode="fedgc", lam=1.0)
        _, server, clients = make_federation(cfg)
        rng = round_rng(cfg.seed)
        for _ in range(4):
            server, _ = run_round(server, clients, cfg, rng)
        outs.append(server)
    np.testing.assert_array_equal(outs[0].embeddings.W, outs[1].embeddings.W)
    for a, b in zip(outs[0].theta.to_list(), outs[1].theta.to_list()):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- shared identities


def test_merge_shared_identities_hand_mean():
    cfg = small_cfg()
    _, server, _ = make_federation(cfg, share_fraction=0.25)
    emb = server.embeddings
    shared = emb.shared_columns()
    assert len(shared) == 2
    w_before = emb.W.copy()
    merged = merge_shared_identities(emb)
    np.testing.assert_array_equal(emb.W, w_before)  # the input stack is not written
    for cols in shared:
        assert len(cols) == 2 and emb.class_of[cols[0]] == emb.class_of[cols[1]]
        mean = (emb.W[:, cols[0]] + emb.W[:, cols[1]]) / 2.0
        np.testing.assert_allclose(merged.W[:, cols[0]], mean, atol=1e-15)
        np.testing.assert_allclose(merged.W[:, cols[1]], mean, atol=1e-15)
    # exclusive columns untouched
    shared_cols = np.isin(np.arange(emb.num_columns), np.concatenate(shared))
    np.testing.assert_array_equal(merged.W[:, ~shared_cols], emb.W[:, ~shared_cols])
    np.testing.assert_array_equal(merged.client_of, emb.client_of)
    np.testing.assert_array_equal(merged.class_of, emb.class_of)


def test_merge_shared_identities_errors_and_degenerates():
    cfg = small_cfg()
    _, server, _ = make_federation(cfg)  # balanced: every class exclusive
    # with one column per identity the merge is a no-op that returns its input
    assert merge_shared_identities(server.embeddings) is server.embeddings
    # three copies of one identity, on any clients, average in ascending column order
    w = np.arange(12.0).reshape(2, 6)
    emb = StackedEmbeddings(w, [0, 0, 1, 1, 2, 2], class_of=[9, 1, 2, 9, 4, 9])
    merged = merge_shared_identities(emb).W
    for col in (0, 3, 5):
        np.testing.assert_array_equal(merged[:, col], w[:, [0, 3, 5]].mean(axis=1))
    np.testing.assert_array_equal(merged[:, [1, 2, 4]], w[:, [1, 2, 4]])


def merge_one_identity_at_a_time(w, emb):
    """The per-identity loop merge_shared_identities replaced, as its bitwise oracle."""
    w = w.copy()
    for cols in emb.shared_columns():
        w[:, cols] = w[:, cols].mean(axis=1)[:, None]
    return w


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_by_group_size_is_bitwise_the_per_identity_loop(sizes, d, seed):
    # identity i is held `sizes[i]` times (sizes 2 to 4 are shared); the
    # columns come in shuffled order and on arbitrary clients
    rng = np.random.default_rng(seed)
    class_of = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    client_of = rng.integers(0, 3, size=len(class_of))
    w = rng.normal(size=(d, len(class_of))) * 10.0 ** rng.integers(-3, 4, size=len(class_of))
    emb = StackedEmbeddings(w, client_of, class_of=class_of)
    merged = merge_shared_identities(emb).W
    assert merged.tobytes() == merge_one_identity_at_a_time(w, emb).tobytes()


@pytest.mark.parametrize("scheme", ["balanced", "lognormal", "shared"])
def test_stack_owners_are_the_partition_assignment(scheme):
    # the owners of a column, derived from the stack alone, are exactly the
    # clients the partition assigned its class to
    ds = generate(SyntheticSpec(num_classes=16, samples_per_class=12, input_dim=5, seed=3))
    if scheme == "balanced":
        shards = partition_balanced(ds, 4)
    elif scheme == "lognormal":
        shards = partition_lognormal(ds, 4, seed=3)
    else:
        shards = partition_shared(ds, 4, 0.5, seed=3, group_size=3)
    assignment = holders_of(shards)
    server, _ = build_federation(shards, ds.input_dim, small_cfg(num_clients=4))
    emb = server.embeddings
    assert sorted(emb.class_of.tolist()) == sorted(
        cls for cls, holders in assignment.items() for _ in holders
    )
    for col in range(emb.num_columns):
        cls = int(emb.class_of[col])
        owners = set(emb.client_of[emb.class_of == cls].tolist())
        assert owners == set(assignment[cls])
    shared = {int(emb.class_of[cols[0]]) for cols in emb.shared_columns()}
    assert shared == {cls for cls, holders in assignment.items() if len(holders) > 1}


# ---------------------------------------------------------------- objective


def test_combined_objective_hand_value():
    cfg = small_cfg(mode="fedgc", lam=3.0)
    ds, server, clients = make_federation(cfg)
    expected, n_all = 0.0, sum(cl.n_samples for cl in clients)
    for cl in clients:
        feats = nn.forward(server.theta, cl.x)
        lg = batch_loss_and_grad(cfg.loss, head_of(server, cl.client_id), feats, cl.y_local)
        expected += cl.n_samples / n_all * lg.loss
    plain = expected
    expected += 3.0 * softmax_reg(server.embeddings).value
    got = compute_round_metrics(server, clients, cfg, ds, 0.0).combined_objective
    assert abs(got - expected) < 1e-12
    # fedpe never pays the penalty term even with lambda set
    fedpe = small_cfg(mode="fedpe", lam=3.0)
    got = compute_round_metrics(server, clients, fedpe, ds, 0.0).combined_objective
    assert abs(got - plain) < 1e-12


def test_combined_objective_rejects_out_of_range_labels():
    # unchecked, label C would pick the next row's first logit as its target
    # and return a plausible number; the shard refuses it when it is made,
    # so no shard that shard_fit or local_sgd reads can hold one
    cfg = small_cfg(mode="fedgc", lam=3.0)
    _, server, clients = make_federation(cfg)
    y = clients[0].y_local.copy()
    y[0] = len(clients[0].classes)
    with pytest.raises(ValueError, match="label out of range"):
        replace(clients[0], y_local=y)
    shard_fit(server, clients, cfg.loss)


# ---------------------------------------------------------------- centralized


def test_centralized_train_deterministic_and_learns():
    ds = generate(SyntheticSpec(num_classes=8, samples_per_class=12, input_dim=5, seed=1))
    cfg = small_cfg(rounds=6, mode="centralized")
    seen = centralized_rounds(ds, cfg)
    assert len(seen) == 6
    assert seen[-1][2] < seen[0][2]
    theta, head, _ = seen[-1]
    assert head.shape == (cfg.embedding_dim, 8)
    theta2, head2, _ = centralized_rounds(ds, cfg)[-1]
    np.testing.assert_array_equal(head, head2)
    for a, b in zip(theta.to_list(), theta2.to_list()):
        np.testing.assert_array_equal(a, b)


def test_centralized_momentum_persists_across_rounds():
    # two rounds of one step each differ from what a fresh optimizer would do,
    # and the velocity carried into round 2 follows the hand recursion
    ds = generate(SyntheticSpec(num_classes=8, samples_per_class=12, input_dim=5, seed=1))
    cfg = small_cfg(rounds=2, mode="centralized", local_steps=1, batch_size=256, weight_decay=0.0)
    states = centralized_rounds(ds, cfg)
    theta0 = nn.init_backbone([5, cfg.hidden_dim, cfg.embedding_dim], cfg.seed)
    rng0 = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xCE, 0]))
    head0 = init_head(8, cfg.embedding_dim, rng0)

    def full_grads(theta, head):
        feats = nn.forward(theta, ds.train_x)
        lg = batch_loss_and_grad(cfg.loss, head, feats, ds.train_y)
        grad, _ = backward(theta, ds.train_x, lg.grad_feature)
        return grad.to_list() + [lg.grad_embeddings]

    # round 1: v1 = g1, p1 = p0 - eta g1 (full batch, so shuffling is irrelevant)
    g1 = full_grads(theta0, head0)
    p1 = [p - cfg.eta * g for p, g in zip(theta0.to_list() + [head0], g1)]
    np.testing.assert_allclose(states[0][1], p1[-1], atol=1e-12)
    # round 2: v2 = m v1 + g2
    theta1 = nn.BackboneParams.from_list(p1[:-1])
    g2 = full_grads(theta1, p1[-1])
    p2 = [p - cfg.eta * (cfg.momentum * v + g) for p, v, g in zip(p1, g1, g2)]
    np.testing.assert_allclose(states[1][1], p2[-1], atol=1e-12)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_cfg(mode="fedgc", lam=1.0)
    ds = generate(SyntheticSpec(num_classes=8, samples_per_class=12, input_dim=5, seed=1))
    shards = partition_shared(ds, cfg.num_clients, 0.25, seed=1)
    server, clients = build_federation(shards, ds.input_dim, cfg)
    server, _ = run_round(server, clients, cfg, round_rng(cfg.seed))
    path = tmp_path / "ckpt"
    save_checkpoint(server, clients, path)
    theta, heads, manifest = load_checkpoint(path)

    def same_bits(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    assert all(same_bits(a, b) for a, b in zip(theta.to_list(), server.theta.to_list()))
    assert manifest["activation"] == "relu"
    for cl in clients:
        assert same_bits(heads[cl.client_id], head_of(server, cl.client_id))
    assert manifest["round"] == 1
    assert [e["id"] for e in manifest["clients"]] == [0, 1]
    # the shared groups are derived from the stack and name the partition's holders
    assignment = holders_of(shards)
    shared = [cls for cls, holders in sorted(assignment.items()) if len(holders) > 1]
    assert len(shared) == 2
    assert [cls for cls, _ in manifest["shared_groups"]] == shared
    assert [tuple(g) for _, g in manifest["shared_groups"]] == [assignment[c] for c in shared]


def test_load_checkpoint_refuses_a_manifest_naming_another_activation(tmp_path):
    # the backbone has only ReLU hidden layers; a manifest that names another
    # activation describes a network this program cannot rebuild
    _, server, clients = make_federation(small_cfg())
    path = tmp_path / "ckpt"
    save_checkpoint(server, clients, path)
    manifest_file = path / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["activation"] = "tanh"
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="tanh") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)
