"""Round-based federated training with private per-client classifier heads.

Modes:
  fedpe       - federated averaging with each client's head kept private;
                the server aggregates only the shared backbone
  fedgc       - fedpe plus a server-side correction step that walks the
                stacked head matrix down the softmax regularizer gradient
  fedcos      - same correction with the plain cosine (dot-product) regularizer
  centralized - pooled single-head SGD, the upper-bound baseline

All training runs through one fused loop, local_sgd, which is bitwise equal
to chaining the reference pieces the gradient checks exercise: nn.forward,
gradcheck.batch_loss_and_grad, gradcheck.backward and nn.sgd_update. It
trains a round's equal-shape clients in lockstep, stacked on a leading
client axis, and each client's numbers are bitwise what it gets alone.
Every buffer it writes comes from a Workspace that a federated cell creates
once and passes to run_round each round, so steady-state rounds reuse their
training buffers instead of allocating them. Its results are views into the
workspace, valid until its next use; run_round copies out what it keeps. A
call without a workspace gets fresh buffers.

Heads live only on the server, as the columns of one stacked matrix (it
receives them for aggregation anyway); a client holds just its data shard,
a data.ClientData that checks its rows and labels once, when it is made.
"Private" means client-to-client isolation: a client is only ever sent the
backbone and its own columns. The centralized baseline is the same server
state with a single client that holds every class, advanced by
centralized_round instead of run_round. The stack also records each
column's identity (StackedEmbeddings.class_of), so an identity that several
clients hold is known from the stack alone: run_round averages its copies
and neither penalty pushes them apart.

All randomness is derived from (seed, round, client_id), so a run is
bit-reproducible and independent of client execution order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import nn
from .config import check
from .data import ClientData, Dataset
from .losses import LossSpec, loss_and_grad, target_index
from .regularizers import RegGrad, StackedEmbeddings, cosine_reg, softmax_reg, softmax_value

MODES = ("fedpe", "fedgc", "fedcos", "centralized")
CORRECTION_MODES = ("fedgc", "fedcos")


@dataclass
class FederationConfig:
    num_clients: int
    participation: float = 1.0
    lam: float = 20.0
    eta: float = 0.1
    rounds: int = 1
    local_steps: int | None = None  # None = one full epoch over local data
    batch_size: int = 32
    mode: str = "fedpe"
    loss: LossSpec = field(default_factory=LossSpec.softmax)
    seed: int = 0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    hidden_dim: int = 64
    embedding_dim: int = 32

    def __post_init__(self):
        check(self, [
            ("num_clients", self.num_clients >= 1, f"need >= 1, got {self.num_clients}"),
            ("participation", 0.0 < self.participation <= 1.0,
             f"need in (0, 1], got {self.participation}"),
            # lam = 0 is allowed in every mode; a grid of fedgc/fedcos cells
            # rejects it (experiments.ExperimentSpec)
            ("lam", 0.0 <= self.lam < np.inf, f"need in [0, inf), got {self.lam}"),
            ("eta", 0.0 < self.eta < np.inf, f"need in (0, inf), got {self.eta}"),
            ("rounds", self.rounds >= 0, f"need >= 0, got {self.rounds}"),
            # zero steps would train nothing and report a NaN mean loss
            ("local_steps", self.local_steps is None or self.local_steps >= 1,
             f"need >= 1 or empty, got {self.local_steps}"),
            ("batch_size", self.batch_size >= 1, f"need >= 1, got {self.batch_size}"),
            ("mode", self.mode in MODES, f"unknown mode {self.mode!r}"),
            ("momentum", 0.0 <= self.momentum < 1.0, f"need in [0, 1), got {self.momentum}"),
            ("weight_decay", 0.0 <= self.weight_decay < np.inf,
             f"need in [0, inf), got {self.weight_decay}"),
            ("hidden_dim", self.hidden_dim >= 1, f"need >= 1, got {self.hidden_dim}"),
            ("embedding_dim", self.embedding_dim >= 1, f"need >= 1, got {self.embedding_dim}"),
            ("seed", self.seed >= 0, f"need >= 0, got {self.seed}"),
        ])

    @property
    def clients_per_round(self) -> int:
        return max(1, math.ceil(self.participation * self.num_clients))


@dataclass
class ServerState:
    theta: nn.BackboneParams
    embeddings: StackedEmbeddings
    round: int

    def columns(self, k: int) -> slice:
        """Client k's column range; the stack holds the clients in id order."""
        return slice(*np.searchsorted(self.embeddings.client_of, [k, k + 1]))


def init_head(num_classes: int, embedding_dim: int, rng: np.random.Generator) -> np.ndarray:
    # columns ~ N(0, 1/d): near-unit norms, near-orthogonal in high dimension
    return rng.normal(0.0, 1.0 / np.sqrt(embedding_dim), size=(embedding_dim, num_classes))


def build_federation(
    client_data: list[ClientData], input_dim: int, cfg: FederationConfig
) -> tuple[ServerState, list[ClientData]]:
    """The server state for partitioned data, seeded from cfg.seed, and the shards.

    Every head lives only in the server's stacked matrix, each column tagged
    with its client and its global class; a client is only ever handed the
    backbone and its own columns: run_round hands client_update the server's
    own arrays, which local_sgd copies into its buffers and never writes to.
    The shards must come in id order 0..K-1: run_round finds client k at
    clients[k], and ServerState.columns finds its columns by that order.
    """
    theta = nn.init_backbone([input_dim, cfg.hidden_dim, cfg.embedding_dim], cfg.seed)
    clients = list(client_data)
    if [cd.client_id for cd in clients] != list(range(len(clients))):
        raise ValueError("clients must come in id order 0..K-1")
    heads, client_of, class_of = [], [], []
    for cd in clients:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xEB, cd.client_id]))
        heads.append(init_head(len(cd.classes), cfg.embedding_dim, rng))
        client_of.extend([cd.client_id] * len(cd.classes))
        class_of.extend(cd.classes)
    server = ServerState(
        theta=theta,
        embeddings=StackedEmbeddings(
            np.concatenate(heads, axis=1), np.array(client_of), class_of=np.array(class_of)
        ),
        round=0,
    )
    return server, clients


def _batch_plan(n: int, cfg: FederationConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Minibatch index arrays, one per step: shuffled epochs, last partial batch kept."""
    batches_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    steps = batches_per_epoch if cfg.local_steps is None else cfg.local_steps
    plan, perm = [], None
    for step in range(steps):
        pos = step % batches_per_epoch
        if pos == 0:
            perm = rng.permutation(n)
        plan.append(perm[pos * cfg.batch_size : (pos + 1) * cfg.batch_size])
    return plan


class LocalRun(NamedTuple):
    """One job for local_sgd: SGD on (theta, head), one step per index array in batches into the shard.

    opt carries the momentum, so the caller decides whether it persists.
    """

    theta: nn.BackboneParams
    head: np.ndarray
    shard: ClientData
    batches: list
    opt: nn.SgdState
    loss: LossSpec


class Workspace:
    """The training buffers of one federated cell, reused round after round.

    Two flat float64 arenas that only grow, each to exactly the length one
    local_sgd call needs. `held` carries the parameter rows and velocity
    rows of every run in the call, one group after another; the results
    and each run's stored velocity are views into it. `scratch` carries
    the buffers of one group at a time: the gradient rows (also the
    update's scratch) and the tape, each step's input rows and layer
    outputs, which the backward pass overwrites with its products. Every
    buffer is a contiguous stretch of an arena reshaped to its shape, so
    each product sees the strides a fresh array has.
    """

    def __init__(self):
        self.held = np.empty(0)
        self.scratch = np.empty(0)

    def reserve(self, held: int, scratch: int) -> None:
        """Replace each arena shorter than the given length by one of exactly that length."""
        if self.held.size < held:
            self.held = np.empty(held)
        if self.scratch.size < scratch:
            self.scratch = np.empty(scratch)


class _Cursor:
    """Consecutive views into a flat arena, from its start."""

    def __init__(self, arena: np.ndarray):
        self.arena, self.at = arena, 0

    def take(self, shape: tuple) -> np.ndarray:
        n = math.prod(shape)
        view = self.arena[self.at : self.at + n].reshape(shape)
        self.at += n
        return view


def local_sgd(runs, workspace: Workspace | None = None) -> list[tuple[nn.BackboneParams, np.ndarray, list[float]]]:
    """Minibatch SGD on backbone and head for each LocalRun in `runs`.

    The one training loop behind run_round and centralized_round. Runs whose
    backbone shapes, head shape, loss, optimizer settings and batch size at
    every step agree train in lockstep as one group, stacked on a leading
    client axis: one (K, P) parameter buffer, one gradient buffer and one
    velocity buffer. A group of one runs the same loop with that axis
    dropped. Every product is a batched @ and every reduction runs within
    one client, so each run's numbers are bitwise what it gets trained
    alone; one run that goes non-finite raises NonFiniteError for the call.

    A shard checks its rows and labels once, when it is made; here each run's
    backbone and head must fit its shard, and a batch index out of range
    raises IndexError as x[idx] would. Each step runs one recorded forward
    pass for both the loss and the reverse sweep, which writes the backbone
    gradients straight into views of the gradient buffer; the head gradient
    is copied into its own view; then one nn.sgd_update moves the whole
    buffer, backbone and head, in place. Every buffer a step writes comes
    from `workspace`.

    Returns (backbone, head, per-step losses) per run, in input order. Each
    run's opt ends holding its trained velocity as one flat row, the
    backbone's flat row and then the head's, so every run needs its own
    SgdState. The backbones' rows, heads and velocities are views into the
    workspace, valid until its next use; a call without a workspace gets
    fresh buffers, which nothing else writes to. No run's theta or head is
    mutated.
    """
    for run in runs:
        x, classes = run.shard.x, run.shard.classes
        if run.theta.input_dim != x.shape[1] or run.head.shape != (run.theta.output_dim, len(classes)):
            raise ValueError(f"backbone {run.theta.dims} and head {run.head.shape} do not fit "
                             f"a shard of {x.shape[1]} inputs and {len(classes)} classes")
    if len({id(run.opt) for run in runs}) != len(runs):
        raise ValueError("every run needs its own SgdState")
    groups: dict[tuple, list[int]] = {}
    for i, run in enumerate(runs):
        groups.setdefault(_group_key(run), []).append(i)
    members = [[runs[i] for i in group] for group in groups.values()]
    layouts = [_layout(group[0]) for group in members]
    sizes = [layout.lengths(len(group)) for layout, group in zip(layouts, members)]
    workspace = Workspace() if workspace is None else workspace
    workspace.reserve(sum(h for h, _ in sizes), max((s for _, s in sizes), default=0))
    held = _Cursor(workspace.held)
    out: list = [None] * len(runs)
    for indices, group, layout in zip(groups.values(), members, layouts):
        # each group trains in the scratch arena from its start
        scratch = _Cursor(workspace.scratch)
        for i, result in zip(indices, _train_group(group, layout, held, scratch)):
            out[i] = result
    return out


def _group_key(run: LocalRun) -> tuple:
    """What runs must share to train in lockstep."""
    return (
        run.theta.dims,
        run.head.shape,
        (run.loss.variant, run.loss.margin, run.loss.scale),
        (run.opt.learning_rate, run.opt.momentum, run.opt.weight_decay),
        tuple(len(idx) for idx in run.batches),
    )


class _Layout(NamedTuple):
    """A run's buffer lengths in a group, worked out once for sizing and for taking views."""

    theta: int  # the backbone, flat
    size: int  # the backbone, then the head
    widths: tuple  # the input, then every layer's output
    most: int  # the rows of the largest step

    def lengths(self, k: int) -> tuple[int, int]:
        """The held and scratch lengths _train_group takes for k runs."""
        return k * 2 * self.size, k * (self.size + self.most * sum(self.widths))


def _layout(run: LocalRun) -> _Layout:
    return _Layout(
        run.theta.size,
        run.theta.size + run.head.size,
        run.theta.dims,
        max(map(len, run.batches), default=0),
    )


def _train_group(group: list[LocalRun], layout: _Layout, held: _Cursor, scratch: _Cursor) -> list:
    """local_sgd on runs that share a _group_key, in buffers taken from the two cursors."""
    first, k = group[0], len(group)
    lead = (k,) if k > 1 else ()

    def per_run(a):  # a buffer's run axis, also in a group of one
        return a if lead else a[None]

    flat = held.take(lead + (layout.size,))
    velocity = held.take(lead + (layout.size,))
    grad = scratch.take(lead + (layout.size,))  # every slot a step reads is written first
    params, grads, start = [], [], 0
    for a in first.theta.to_list() + [first.head]:
        stop = start + a.size
        # in a group each bias (the only 1-D arrays) gets a row axis, so that
        # it broadcasts over the rows of its client's batch
        row_axis = (1,) if lead and a.ndim == 1 else ()
        params.append(flat[..., start:stop].reshape(lead + row_axis + a.shape))
        grads.append(grad[..., start:stop].reshape(lead + a.shape))
        start = stop
    head, grad_head = params.pop(), grads.pop()
    for row, head_k, run in zip(per_run(flat), per_run(head), group):
        row[: layout.theta] = run.theta.flat
        head_k[...] = run.head
    layers = list(zip(params[::2], params[1::2]))
    grad_layers = list(zip(grads[::2], grads[1::2]))

    for row, run in zip(per_run(velocity), group):
        if run.opt.velocity is not None and run.opt.velocity.shape != row.shape:
            raise ValueError("velocity/params shape mismatch")
        row[...] = 0.0 if run.opt.velocity is None else run.opt.velocity
    opt = nn.SgdState(first.opt.learning_rate, first.opt.momentum, first.opt.weight_decay, velocity)

    # every step's targets, up front: take's default "raise" mode refuses an
    # index out of range, as x[idx] does, and wraps a negative one, so the
    # gathers below may use its "wrap" mode, which skips the copy "raise"
    # makes of its output
    plan = list(zip(*(run.batches for run in group)))
    labels = (np.concatenate([run.shard.y_local.take(i) for run, i in zip(group, step)]) for step in plan)
    targets = [target_index(y.reshape(lead + (-1,)), first.head.shape[1]) for y in labels]

    # a step of b rows takes the first rows of buffers sized for the
    # largest step: its input, then its tape of every layer's output
    sizes = [len(idx) for idx in first.batches]
    buffers = [scratch.take((k * layout.most, width)) for width in layout.widths]
    steps = {}
    for b in set(sizes):
        h, *tape = (buf[: k * b].reshape(lead + (b, buf.shape[1])) for buf in buffers)
        steps[b] = h, tape, list(per_run(h))

    trace = []
    for step, target, b in zip(plan, targets, sizes):
        h, tape, h_runs = steps[b]
        for run, h_k, i in zip(group, h_runs, step):
            run.shard.x.take(i, axis=0, out=h_k, mode="wrap")
        feats = nn.record_forward(layers, h, tape)
        lg = loss_and_grad(first.loss, head, feats, target)
        trace.append(lg.loss)
        nn.reverse_sweep(layers, h, tape, lg.grad_feature, grad_layers)
        grad_head[...] = lg.grad_embeddings
        nn.sgd_update(opt, flat, grad)  # the gradient buffer doubles as its scratch

    traces = np.array(trace, dtype=np.float64).reshape(len(trace), k).T.tolist()
    results = []
    for run, row, head_k, velocity_k, trace_k in zip(
        group, per_run(flat), per_run(head), per_run(velocity), traces
    ):
        run.opt.velocity = velocity_k
        results.append((nn.BackboneParams(row[: layout.theta], first.theta.dims), head_k, trace_k))
    return results


def client_update(
    client: ClientData,
    theta: nn.BackboneParams,
    head: np.ndarray,
    cfg: FederationConfig,
    round_index: int = 0,
) -> LocalRun | None:
    """The client's local-SGD run for this round, or None for a client with no data.

    theta and head are the backbone and the client's own head columns as the
    server holds them; local_sgd copies both and writes to neither. The run
    carries fresh momentum and the batch plan drawn from (seed, round,
    client_id), so it is deterministic and independent of the other clients.
    """
    if client.n_samples == 0:
        return None
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, round_index, client.client_id, 0xC1])
    )
    return LocalRun(
        theta,
        head,
        client,
        _batch_plan(client.n_samples, cfg, rng),
        nn.SgdState(cfg.eta, cfg.momentum, cfg.weight_decay),
        cfg.loss,
    )


def aggregate_theta(thetas: list[nn.BackboneParams], counts: list[int]) -> nn.BackboneParams:
    """Sample-count-weighted average of backbones, renormalized over participants.

    The sum runs over the flat rows in the given order, one acc += w * row each.
    """
    if not thetas:
        raise ValueError("nothing to aggregate")
    total = float(sum(counts))
    if total == 0.0:
        raise ValueError("aggregate weights sum to zero")
    dims = thetas[0].dims
    acc = np.zeros(thetas[0].size)
    for theta, n_k in zip(thetas, counts, strict=True):
        if theta.dims != dims:
            raise ValueError(f"backbone shape mismatch {theta.dims} vs {dims}")
        acc += (n_k / total) * theta.flat
    return nn.BackboneParams(acc, dims)


def regularizer_grad(emb: StackedEmbeddings, cfg: FederationConfig) -> RegGrad:
    """The configured mode's regularizer over the stacked heads.

    Raw dot products under the softmax loss, normalized columns under margin losses.
    """
    if cfg.mode == "fedcos":
        return cosine_reg(emb, normalize_columns=cfg.loss.normalizes)
    return softmax_reg(emb, normalize_columns=cfg.loss.normalizes)


def regularizer_value(emb: StackedEmbeddings, cfg: FederationConfig) -> float:
    """regularizer_grad(emb, cfg).value, bit for bit; the softmax mode skips the gradient."""
    if cfg.mode == "fedcos":
        return cosine_reg(emb, normalize_columns=cfg.loss.normalizes).value
    return softmax_value(emb, normalize_columns=cfg.loss.normalizes)


def correction_step(emb: StackedEmbeddings, cfg: FederationConfig) -> StackedEmbeddings:
    """One plain gradient step of size lambda * eta on the whole stacked head matrix."""
    if cfg.mode not in CORRECTION_MODES:
        raise ValueError(f"correction step is only defined for fedgc/fedcos, not {cfg.mode}")
    step = cfg.lam * cfg.eta
    if step == 0.0 or emb.num_clients < 2:
        return emb.copy()
    rg = regularizer_grad(emb, cfg)
    return replace(emb, W=emb.W - step * rg.grad)


def sample_clients(cfg: FederationConfig, rng: np.random.Generator) -> np.ndarray:
    """ceil(participation * K) distinct clients, uniform, in client-index order."""
    picked = rng.permutation(cfg.num_clients)[: cfg.clients_per_round]
    return np.sort(picked)


def run_round(
    server: ServerState,
    clients: list[ClientData],
    cfg: FederationConfig,
    rng: np.random.Generator,
    workspace: Workspace | None = None,
) -> tuple[ServerState, float]:
    """One communication round; returns the new server state and mean local loss.

    Samples clients and asks client_update for each one's run, handing it
    the server's backbone and a view of the client's own columns (neither
    is copied or written to). One local_sgd call trains every run, equal
    shapes in lockstep, in `workspace` (fresh buffers without one). Then it
    averages the trained backbones, restacks the heads, averages the copies
    of every shared identity, and applies the correction step to the whole
    stack in fedgc/fedcos mode. Reduction is in client-index order;
    server and clients are not mutated, and the new state shares no memory
    with the workspace, so the next round may reuse it.
    """
    runs, trained = [], []
    for k in sample_clients(cfg, rng):
        cols = server.columns(k)
        run = client_update(clients[k], server.theta, server.embeddings.W[:, cols], cfg, server.round)
        if run is not None:
            runs.append(run)
            trained.append((k, cols))
    new_w = server.embeddings.W.copy()
    thetas, counts, losses = [], [], []
    for (k, cols), (theta_k, head_k, trace) in zip(trained, local_sgd(runs, workspace)):
        thetas.append(theta_k)
        counts.append(clients[k].n_samples)
        new_w[:, cols] = head_k
        if trace:
            losses.append(float(np.mean(trace)))

    theta = aggregate_theta(thetas, counts) if thetas else server.theta.copy()
    emb = merge_shared_identities(replace(server.embeddings, W=new_w))
    if cfg.mode in CORRECTION_MODES:
        emb = correction_step(emb, cfg)
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return replace(server, theta=theta, embeddings=emb, round=server.round + 1), mean_loss


def merge_shared_identities(emb: StackedEmbeddings) -> StackedEmbeddings:
    """Replace the columns that share a class id by their mean, in ascending column order.

    The identities held equally often are merged together: their columns
    gather into one (d, G, g) array whose means over the last axis are
    scattered back. With no shared identity, emb itself is returned.
    """
    shared = emb.shared_columns()
    if not shared:
        return emb
    w = emb.W.copy()
    by_size: dict[int, list[np.ndarray]] = {}
    for cols in shared:
        by_size.setdefault(len(cols), []).append(cols)
    for groups in by_size.values():
        cols = np.array(groups)
        w[:, cols] = w[:, cols].mean(axis=2)[:, :, None]
    return replace(emb, W=w)


def build_centralized(dataset: Dataset, cfg: FederationConfig) -> tuple[ServerState, ClientData]:
    """The pooled upper-bound baseline: a one-client state holding every class."""
    num_classes = dataset.num_classes
    theta = nn.init_backbone([dataset.input_dim, cfg.hidden_dim, cfg.embedding_dim], cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xCE, 0]))
    head = init_head(num_classes, cfg.embedding_dim, rng)
    server = ServerState(
        theta=theta,
        embeddings=StackedEmbeddings(head, np.zeros(num_classes, dtype=np.int64)),
        round=0,
    )
    return server, ClientData(0, list(range(num_classes)), dataset.train_x, dataset.train_y)


def centralized_round(
    server: ServerState, client: ClientData, cfg: FederationConfig, opt: nn.SgdState
) -> tuple[ServerState, float]:
    """One round of pooled SGD with the single head; returns the new state and mean loss.

    One round is one epoch unless local_steps says otherwise. opt carries the
    momentum, so passing the same one every round keeps it across rounds.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, server.round, 0xCE]))
    batches = _batch_plan(client.n_samples, cfg, rng)
    ((theta, head, trace),) = local_sgd(
        [LocalRun(server.theta, server.embeddings.W, client, batches, opt, cfg.loss)]
    )
    new_server = replace(
        server, theta=theta, embeddings=replace(server.embeddings, W=head), round=server.round + 1
    )
    return new_server, float(np.mean(trace)) if trace else float("nan")


def save_checkpoint(server: ServerState, clients: list[ClientData], path) -> None:
    """Checkpoint directory: manifest.json plus one tensor section per parameter set.

    `path` must not exist yet, so no file of an earlier checkpoint, such
    as the head of a client the new one lacks, can survive into it.
    """
    os.makedirs(path)
    emb = server.embeddings
    manifest = {
        "round": server.round,
        "activation": "relu",
        "clients": [
            {
                "id": cl.client_id,
                "num_classes": len(cl.classes),
                "classes": [int(c) for c in cl.classes],
                "n_samples": cl.n_samples,
            }
            for cl in clients
        ],
        "shared_groups": [
            [int(emb.class_of[cols[0]]), np.unique(emb.client_of[cols]).tolist()]
            for cols in emb.shared_columns()
        ],
    }
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    nn.write_tensors(os.path.join(path, "backbone.fgc"), server.theta.to_list())
    for cl in clients:
        nn.write_tensors(
            os.path.join(path, f"head_{cl.client_id:03d}.fgc"),
            [emb.W[:, server.columns(cl.client_id)]],
        )


def load_checkpoint(path) -> tuple[nn.BackboneParams, dict[int, np.ndarray], dict]:
    """Read back a checkpoint: (backbone, heads by client id, manifest)."""
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    # the manifest names the hidden layers' activation; the backbone has only ReLUs
    if manifest.get("activation") != "relu":
        raise ValueError(f"{path}: unknown activation {manifest.get('activation')!r}")
    theta = nn.BackboneParams.from_list(nn.read_tensors(os.path.join(path, "backbone.fgc")))
    heads = {}
    for entry in manifest["clients"]:
        cid = entry["id"]
        (head,) = nn.read_tensors(os.path.join(path, f"head_{cid:03d}.fgc"))
        heads[cid] = head
    return theta, heads, manifest
