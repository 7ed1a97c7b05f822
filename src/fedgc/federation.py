"""Round-based federated training with private per-client classifier heads.

Modes:
  fedpe       - federated averaging with each client's head kept private;
                the server aggregates only the shared backbone
  fedgc       - fedpe plus a server-side correction step that walks the
                stacked head matrix down the softmax regularizer gradient
  fedcos      - same correction with the plain cosine (dot-product) regularizer
  fedpe_fixed - heads frozen at initialization; only the backbone trains
  centralized - pooled single-head SGD, the upper-bound baseline

All training runs through one fused loop, local_sgd, which is bitwise equal
to chaining the public reference pieces the gradient checks exercise:
nn.forward, losses.batch_loss_and_grad, nn.backward and nn.sgd_step. It
trains a round's equal-shape clients in lockstep, stacked on a leading
client axis, and each client's numbers are bitwise what it gets alone.

Heads live only on the server, as the columns of one stacked matrix (it
receives them for aggregation anyway); a client holds just its data shard.
"Private" means client-to-client isolation: a client is only ever sent the
backbone and its own columns. The centralized baseline is the same server
state with a single client that holds every class, advanced by
centralized_round instead of run_round. The stack also records each
column's identity (StackedEmbeddings.class_of), so an identity that several
clients hold is known from the stack alone: run_round averages its copies
and the softmax penalty never pushes them apart.

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
from .data import ClientData
from .losses import LossSpec, batch_loss_and_grad, check_inputs, loss_and_grad, target_index
from .regularizers import RegGrad, StackedEmbeddings, cosine_reg, softmax_reg

MODES = ("fedpe", "fedgc", "fedcos", "fedpe_fixed", "centralized")
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
            ("lam", self.lam >= 0.0, f"need >= 0, got {self.lam}"),
            ("eta", self.eta > 0.0, f"need > 0, got {self.eta}"),
            ("rounds", self.rounds >= 0, f"need >= 0, got {self.rounds}"),
            # zero steps would train nothing and report a NaN mean loss
            ("local_steps", self.local_steps is None or self.local_steps >= 1,
             f"need >= 1 or empty, got {self.local_steps}"),
            ("batch_size", self.batch_size >= 1, f"need >= 1, got {self.batch_size}"),
            ("mode", self.mode in MODES, f"unknown mode {self.mode!r}"),
            ("momentum", 0.0 <= self.momentum < 1.0, f"need in [0, 1), got {self.momentum}"),
            ("weight_decay", self.weight_decay >= 0.0, f"need >= 0, got {self.weight_decay}"),
            ("hidden_dim", self.hidden_dim >= 1, f"need >= 1, got {self.hidden_dim}"),
            ("embedding_dim", self.embedding_dim >= 1, f"need >= 1, got {self.embedding_dim}"),
        ])

    @property
    def clients_per_round(self) -> int:
        return max(1, math.ceil(self.participation * self.num_clients))

    @property
    def normalize_reg(self) -> bool:
        # raw dot products under the softmax loss, normalized columns under margin losses
        return self.loss.normalizes


@dataclass
class ServerState:
    theta: nn.BackboneParams
    embeddings: StackedEmbeddings
    weights: np.ndarray              # p_k = n_k / N over all clients
    round: int
    head_slices: list[slice]         # column range of each client's head

    def head_of(self, client_id: int) -> np.ndarray:
        return self.embeddings.W[:, self.head_slices[client_id]].copy()


def init_head(num_classes: int, embedding_dim: int, rng: np.random.Generator) -> np.ndarray:
    # columns ~ N(0, 1/d): near-unit norms, near-orthogonal in high dimension
    return rng.normal(0.0, 1.0 / np.sqrt(embedding_dim), size=(embedding_dim, num_classes))


def build_federation(
    client_data: list[ClientData], input_dim: int, cfg: FederationConfig
) -> tuple[ServerState, list[ClientData]]:
    """The server state for partitioned data, seeded from cfg.seed, and the shards.

    Every head lives only in the server's stacked matrix, each column tagged
    with its client and its global class; a client is only ever handed the
    backbone and its own columns (copies from client_payload, or in
    run_round the server's own arrays, which local_sgd only reads).
    """
    theta = nn.init_backbone([input_dim, cfg.hidden_dim, cfg.embedding_dim], cfg.seed)
    clients = list(client_data)
    heads, client_of, class_of, slices = [], [], [], []
    start = 0
    for cd in clients:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xEB, cd.client_id]))
        heads.append(init_head(len(cd.classes), cfg.embedding_dim, rng))
        client_of.extend([cd.client_id] * len(cd.classes))
        class_of.extend(cd.classes)
        slices.append(slice(start, start + len(cd.classes)))
        start += len(cd.classes)
    counts = np.array([c.n_samples for c in clients], dtype=np.float64)
    total = counts.sum()
    weights = counts / total if total else np.full(len(clients), 1.0 / max(len(clients), 1))
    server = ServerState(
        theta=theta,
        embeddings=StackedEmbeddings(
            np.concatenate(heads, axis=1), np.array(client_of), class_of=np.array(class_of)
        ),
        weights=weights,
        round=0,
        head_slices=slices,
    )
    return server, clients


def client_payload(server: ServerState, client_id: int) -> tuple[nn.BackboneParams, np.ndarray]:
    """What the server broadcasts to one client, as copies: the backbone and its own head only.

    run_round hands client_update the server's own arrays instead; local_sgd
    copies them into its buffers and never writes to them.
    """
    return server.theta.copy(), server.head_of(client_id)


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
    """One job for local_sgd: SGD on (theta, head) over x[idx], y[idx] for idx in batches.

    opt carries the momentum, so the caller decides whether it persists;
    with train_head False the head stays fixed.
    """

    theta: nn.BackboneParams
    head: np.ndarray
    x: np.ndarray
    y: np.ndarray
    batches: list
    opt: nn.SgdState
    loss: LossSpec
    train_head: bool


def local_sgd(runs) -> list[tuple[nn.BackboneParams, np.ndarray, list[float]]]:
    """Minibatch SGD for each LocalRun (or 8-tuple of its fields) in `runs`.

    The one training loop behind run_round and centralized_round. Runs whose
    backbone (shapes and activation), head shape, loss, optimizer settings,
    train_head flag and batch size at every step agree train in lockstep as
    one group, stacked on a leading client axis: one (K, P) parameter
    buffer, one gradient buffer and one velocity buffer. A group of one runs
    the same loop with that axis dropped. Every product is a batched @ and
    every reduction runs within one client, so each run's numbers are
    bitwise what it gets trained alone; one run that goes non-finite raises
    NonFiniteError for the call.

    Shapes and labels are checked once per run. Each step runs one recorded
    forward pass for both the loss and the reverse sweep, which writes the
    backbone gradients straight into views of the gradient buffer; the head
    gradient is copied into its own view; then one nn.sgd_update moves the
    buffer in place.

    Returns fresh (theta, head, per-step losses) per run, in input order,
    each a view into its row of the group's buffer. No run's theta, head, x
    or y is mutated; each run's opt ends holding its trained velocity, so
    every run needs its own SgdState.
    """
    runs = [_checked_run(*run) for run in runs]
    if len(runs) == 1:
        return _train_group(runs)
    if len({id(run.opt) for run in runs}) != len(runs):
        raise ValueError("every run needs its own SgdState")
    groups: dict[tuple, list[int]] = {}
    for i, run in enumerate(runs):
        groups.setdefault(_group_key(run), []).append(i)
    out: list = [None] * len(runs)
    for members in groups.values():
        for i, result in zip(members, _train_group([runs[i] for i in members])):
            out[i] = result
    return out


def _checked_run(theta, head, x, y, batches, opt, loss, train_head) -> LocalRun:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    nn.check_input(theta, x)
    check_inputs(head, (len(x), theta.output_dim), y)
    return LocalRun(theta, head, x, y, list(batches), opt, loss, train_head)


def _group_key(run: LocalRun) -> tuple:
    """What runs must share to train in lockstep."""
    return (
        tuple(w.shape for w, _ in run.theta.layers),
        run.theta.activation,
        run.head.shape,
        (run.loss.variant, run.loss.margin, run.loss.scale),
        (run.opt.learning_rate, run.opt.momentum, run.opt.weight_decay),
        run.train_head,
        tuple(len(idx) for idx in run.batches),
    )


def _train_group(group: list[LocalRun]) -> list[tuple[nn.BackboneParams, np.ndarray, list[float]]]:
    """local_sgd on runs that share a _group_key."""
    first = group[0]
    lead = (len(group),) if len(group) > 1 else ()
    flat = np.concatenate(
        [a.ravel() for run in group for a in run.theta.to_list() + [run.head]]
    ).reshape(lead + (-1,))
    grad = np.empty(flat.shape)  # every slot a step reads is written first
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
    layers = list(zip(params[::2], params[1::2]))
    grad_layers = list(zip(grads[::2], grads[1::2]))
    size = flat.shape[-1] if first.train_head else flat.shape[-1] - first.head.size
    stepped, stepped_grad = [flat[..., :size]], [grad[..., :size]]

    if lead:
        opt = nn.SgdState(
            first.opt.learning_rate, first.opt.momentum, first.opt.weight_decay, [np.zeros(lead + (size,))]
        )
        for row, run in zip(opt.velocity[0], group):
            if run.opt.velocity:
                if len(run.opt.velocity) != 1 or run.opt.velocity[0].shape != row.shape:
                    raise ValueError("velocity/params shape mismatch")
                row[...] = run.opt.velocity[0]
        # one gather per step over every run's rows, offset into the joint arrays
        x = np.concatenate([run.x for run in group])
        y = np.concatenate([run.y for run in group])
        n_rows = np.array([[len(run.x)] for run in group])
        offsets = np.cumsum(n_rows, axis=0) - n_rows
        rows = []
        for step in zip(*(run.batches for run in group)):
            idx = np.stack(step)
            if np.count_nonzero((idx < -n_rows) | (idx >= n_rows)):
                raise IndexError("batch index out of range")
            rows.append(np.where(idx < 0, idx + n_rows, idx) + offsets)
    else:
        opt, x, y, rows = first.opt, first.x, first.y, first.batches

    activation, loss, num_classes = first.theta.activation, first.loss, first.head.shape[1]
    trace = []
    for idx in rows:
        # take is x[idx] for an index array, with less dispatch
        feats, tape = nn.record_forward(layers, activation, x.take(idx, axis=0))
        lg = loss_and_grad(loss, head, feats, target_index(y.take(idx), num_classes))
        trace.append(lg.loss)
        nn.reverse_sweep(layers, activation, tape, lg.grad_feature, grad_layers, input_grad=False)
        grad_head[...] = lg.grad_embeddings
        nn.sgd_update(opt, stepped, stepped_grad)

    if not lead:
        return [(nn.BackboneParams(layers, activation), head, [float(v) for v in trace])]
    traces = np.array(trace, dtype=np.float64).reshape(len(trace), len(group)).T.tolist()
    results = []
    for k, run in enumerate(group):
        run.opt.velocity = [opt.velocity[0][k]]
        theta_k = nn.BackboneParams([(w[k], b[k, 0]) for w, b in layers], activation)
        results.append((theta_k, head[k], traces[k]))
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
        client.x,
        client.y_local,
        _batch_plan(client.n_samples, cfg, rng),
        nn.SgdState(cfg.eta, cfg.momentum, cfg.weight_decay),
        cfg.loss,
        cfg.mode != "fedpe_fixed",
    )


def aggregate_theta(updates: list[tuple[nn.BackboneParams, int]]) -> nn.BackboneParams:
    """Sample-count-weighted average of backbones, renormalized over participants."""
    if not updates:
        raise ValueError("nothing to aggregate")
    total = float(sum(n for _, n in updates))
    if total == 0.0:
        raise ValueError("aggregate weights sum to zero")
    ref = updates[0][0]
    acc = [np.zeros_like(a) for a in ref.to_list()]
    for theta_k, n_k in updates:
        arrays = theta_k.to_list()
        if len(arrays) != len(acc):
            raise ValueError("backbone structure mismatch")
        w = n_k / total
        for a, arr in zip(acc, arrays):
            if a.shape != arr.shape:
                raise ValueError(f"backbone shape mismatch {a.shape} vs {arr.shape}")
            a += w * arr
    return nn.BackboneParams.from_list(acc, ref.activation)


def regularizer_grad(emb: StackedEmbeddings, cfg: FederationConfig) -> RegGrad:
    """The configured mode's regularizer over the stacked heads."""
    if cfg.mode == "fedcos":
        return cosine_reg(emb, normalize_columns=cfg.normalize_reg)
    return softmax_reg(emb, normalize_columns=cfg.normalize_reg)


def correction_step(emb: StackedEmbeddings, cfg: FederationConfig) -> StackedEmbeddings:
    """One plain gradient step of size lambda * eta on the whole stacked head matrix."""
    if cfg.mode not in CORRECTION_MODES:
        raise ValueError(f"correction step is only defined for fedgc/fedcos, not {cfg.mode}")
    step = cfg.lam * cfg.eta
    if step == 0.0 or emb.num_clients < 2:
        return emb.copy()
    rg = regularizer_grad(emb, cfg)
    return replace(emb.copy(), W=emb.W - step * rg.grad)


def sample_clients(cfg: FederationConfig, rng: np.random.Generator) -> np.ndarray:
    """ceil(participation * K) distinct clients, uniform, in client-index order."""
    picked = rng.permutation(cfg.num_clients)[: cfg.clients_per_round]
    return np.sort(picked)


def run_round(
    server: ServerState,
    clients: list[ClientData],
    cfg: FederationConfig,
    rng: np.random.Generator,
) -> tuple[ServerState, float]:
    """One communication round; returns the new server state and mean local loss.

    Samples clients and asks client_update for each one's run, handing it
    the server's backbone and a view of the client's own columns (neither
    is copied or written to). One local_sgd call trains every run, equal
    shapes in lockstep. Then it averages the backbone, restacks the heads,
    averages the copies of every shared identity, and applies the
    correction step to the whole stack in fedgc/fedcos mode. Reduction is
    in client-index order; server and clients are not mutated.
    """
    sampled = sample_clients(cfg, rng)
    runs, trained = [], []
    for k in sampled:
        head = server.embeddings.W[:, server.head_slices[k]]
        run = client_update(clients[k], server.theta, head, cfg, server.round)
        if run is not None:
            runs.append(run)
            trained.append(k)
    new_w = server.embeddings.W.copy()
    updates, losses = [], []
    for k, (theta_k, head_k, trace) in zip(trained, local_sgd(runs)):
        updates.append((theta_k, clients[k].n_samples))
        if cfg.mode != "fedpe_fixed":
            new_w[:, server.head_slices[k]] = head_k
        if trace:
            losses.append(float(np.mean(trace)))

    theta = aggregate_theta(updates) if updates else server.theta.copy()
    emb = replace(server.embeddings, W=new_w)
    new_server = replace(server, theta=theta, embeddings=emb, round=server.round + 1)

    if emb.shared_columns():
        new_server = merge_shared_identities(new_server)
    if cfg.mode in CORRECTION_MODES:
        new_server = replace(new_server, embeddings=correction_step(new_server.embeddings, cfg))
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return new_server, mean_loss


def merge_shared_identities(server: ServerState) -> ServerState:
    """Replace the columns that share a class id by their mean, in ascending column order.

    The identities held equally often are merged together: their columns
    gather into one (d, G, g) array whose means over the last axis are
    scattered back.
    """
    w = server.embeddings.W.copy()
    by_size: dict[int, list[np.ndarray]] = {}
    for cols in server.embeddings.shared_columns():
        by_size.setdefault(len(cols), []).append(cols)
    for groups in by_size.values():
        cols = np.array(groups)
        w[:, cols] = w[:, cols].mean(axis=2)[:, :, None]
    return replace(server, embeddings=replace(server.embeddings, W=w))


def combined_objective(server: ServerState, clients: list[ClientData], cfg: FederationConfig) -> float:
    """Weighted mean of client empirical losses plus lambda times the regularizer.

    Evaluation only; the training loop never differentiates this directly.
    """
    total = 0.0
    for cl in clients:
        if cl.n_samples == 0:
            continue
        feats = nn.forward(server.theta, cl.x)
        head = server.embeddings.W[:, server.head_slices[cl.client_id]]
        lg = batch_loss_and_grad(cfg.loss, head, feats, cl.y_local)
        total += float(server.weights[cl.client_id]) * lg.loss
    if cfg.lam > 0.0 and cfg.mode in CORRECTION_MODES:
        rg = regularizer_grad(server.embeddings, cfg)
        total += cfg.lam * rg.value
    return total


def build_centralized(
    x: np.ndarray, y: np.ndarray, num_classes: int, cfg: FederationConfig
) -> tuple[ServerState, ClientData]:
    """The pooled upper-bound baseline: a one-client state holding every class."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    theta = nn.init_backbone([x.shape[1], cfg.hidden_dim, cfg.embedding_dim], cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xCE, 0]))
    head = init_head(num_classes, cfg.embedding_dim, rng)
    server = ServerState(
        theta=theta,
        embeddings=StackedEmbeddings(head, np.zeros(num_classes, dtype=np.int64)),
        weights=np.ones(1),
        round=0,
        head_slices=[slice(0, num_classes)],
    )
    return server, ClientData(0, list(range(num_classes)), x, y)


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
        [LocalRun(server.theta, server.embeddings.W, client.x, client.y_local, batches, opt, cfg.loss, True)]
    )
    new_server = replace(
        server, theta=theta, embeddings=replace(server.embeddings, W=head), round=server.round + 1
    )
    return new_server, float(np.mean(trace)) if trace else float("nan")


def save_checkpoint(server: ServerState, clients: list[ClientData], path) -> None:
    """Checkpoint directory: manifest.json plus one tensor section per parameter set."""
    os.makedirs(path, exist_ok=True)
    emb = server.embeddings
    manifest = {
        "round": server.round,
        "activation": server.theta.activation,
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
            [emb.W[:, server.head_slices[cl.client_id]]],
        )


def load_checkpoint(path) -> tuple[nn.BackboneParams, dict[int, np.ndarray], dict]:
    """Read back a checkpoint: (backbone, heads by client id, manifest)."""
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    theta = nn.BackboneParams.from_list(
        nn.read_tensors(os.path.join(path, "backbone.fgc")), manifest["activation"]
    )
    heads = {}
    for entry in manifest["clients"]:
        cid = entry["id"]
        (head,) = nn.read_tensors(os.path.join(path, f"head_{cid:03d}.fgc"))
        heads[cid] = head
    return theta, heads, manifest
