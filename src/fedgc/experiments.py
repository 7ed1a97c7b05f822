"""Config-driven experiment grids: synthetic data -> partition -> training -> files.

A config file (INI-style key=value sections) names a base federation setup
plus grid axes (modes x participation fractions x lambdas x partitions).
Every grid cell trains from scratch with the same seed and writes its own
metrics/checkpoint files, so identical configs reproduce outputs bitwise.

A cell whose loss turns non-finite is recorded as diverged and the rest of
the grid still runs; this is expected behavior for deliberately-too-large
correction multipliers rather than an error. Any other exception is a
program error and propagates.
"""

from __future__ import annotations

import configparser
import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from . import data as datasets
from . import evaluation, federation, nn
from .losses import LossSpec, NonFiniteError, batch_loss_and_grad, global_softmax_grad
from .regularizers import StackedEmbeddings, cosine_reg, softmax_reg, softmax_reg_naive

OK = "ok"
DIVERGED = "diverged"
PARTITIONS = ("balanced", "lognormal", "shared")
LOSSES = ("softmax", "cosface", "arcface")


class _Divergence(Exception):
    """Internal signal: a training run produced a non-finite quantity."""


@dataclass(frozen=True)
class Cell:
    mode: str
    fraction: float
    lam: float
    partition: str

    @property
    def name(self) -> str:
        return f"{self.mode}_f{self.fraction:g}_l{self.lam:g}_{self.partition}"


@dataclass
class ExperimentSpec:
    fed: federation.FederationConfig
    data: datasets.SyntheticSpec
    modes: list[str]
    fractions: list[float]
    lambdas: list[float]
    partitions: list[str]
    out_dir: str = "runs/out"
    eval_every: int = 10
    pairs_per_class: int = 10
    share_fraction: float = 0.25
    group_size: int = 2
    # optional per-mode lambda axes; a mode missing here uses `lambdas`.
    # The two correction modes want very different multipliers (the cosine
    # penalty gradient does not shrink as columns separate), so a shared
    # axis would force a bad value on one of them.
    mode_lambdas: dict = field(default_factory=dict)

    def lambdas_for(self, mode: str) -> list[float]:
        return self.mode_lambdas.get(mode, self.lambdas)

    def grid(self) -> list[Cell]:
        return [
            Cell(m, f, l, p)
            for m in self.modes
            for f in self.fractions
            for l in self.lambdas_for(m)
            for p in self.partitions
        ]


@dataclass
class CellResult:
    cell: Cell
    status: str
    rounds_completed: int
    metrics: list[evaluation.RoundMetrics]
    server: federation.ServerState
    clients: list[datasets.ClientData]
    test_features: np.ndarray | None = None

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].verification_accuracy if self.metrics else float("nan")

    @property
    def final_cross_cos(self) -> float:
        return self.metrics[-1].cross_client_max_cos if self.metrics else float("nan")

    @property
    def similarity(self) -> evaluation.SimilarityStats | None:
        """Similarity statistics of the last evaluated round; the final state's for ok cells."""
        return self.metrics[-1].similarity if self.metrics else None


# ---------------------------------------------------------------------------
# config files


def _as_int(raw: str) -> int:
    return int(raw)


def _as_float(raw: str) -> float:
    return float(raw)


def _as_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _as_steps(raw: str) -> int | None:
    # empty value = one full epoch per round
    return None if raw.strip() == "" else int(raw)

def _as_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _as_names(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


_KNOWN_KEYS = {
    "data": {
        "num_classes",
        "samples_per_class",
        "input_dim",
        "cluster_std",
        "class_center_scale",
        "pairs_per_class",
    },
    "federation": {
        "num_clients",
        "eta",
        "rounds",
        "local_steps",
        "batch_size",
        "loss",
        "loss_margin",
        "loss_scale",
        "seed",
        "momentum",
        "weight_decay",
        "hidden_dim",
        "embedding_dim",
        "correct_all_heads",
    },
    "grid": {"modes", "fractions", "lambdas", "lambdas_fedgc", "lambdas_fedcos", "partitions"},
    "run": {"out_dir", "eval_every", "share_fraction", "group_size"},
}


class _Reader:
    """Typed key access over configparser that collects problems instead of raising."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.problems: list[str] = []

    def get(self, section: str, key: str, cast, default):
        if not self.parser.has_option(section, key):
            return default
        raw = self.parser.get(section, key)
        try:
            return cast(raw)
        except (ValueError, TypeError):
            kind = cast.__name__.replace("_as_", "")
            self.problems.append(f"[{section}] {key}: cannot read {raw.strip()!r} as {kind}")
            return default


def parse_config(path) -> tuple[ExperimentSpec | None, list[str]]:
    """Read and fully validate a config file.

    Returns (spec, []) on success or (None, problems) with every violation
    listed, not just the first.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        return None, [f"cannot read {path}: {exc}"]
    except configparser.Error as exc:
        return None, [f"{path}: {exc}"]

    problems = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            problems.append(f"[{section}]: unknown section")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                problems.append(f"[{section}] {key}: unknown key")

    r = _Reader(parser)
    num_classes = r.get("data", "num_classes", _as_int, 32)
    samples_per_class = r.get("data", "samples_per_class", _as_int, 25)
    input_dim = r.get("data", "input_dim", _as_int, 16)
    cluster_std = r.get("data", "cluster_std", _as_float, 1.0)
    center_scale = r.get("data", "class_center_scale", _as_float, 5.0)
    pairs_per_class = r.get("data", "pairs_per_class", _as_int, 10)

    num_clients = r.get("federation", "num_clients", _as_int, 8)
    eta = r.get("federation", "eta", _as_float, 0.1)
    rounds = r.get("federation", "rounds", _as_int, 200)
    local_steps = r.get("federation", "local_steps", _as_steps, None)
    batch_size = r.get("federation", "batch_size", _as_int, 32)
    loss_name = r.get("federation", "loss", str.strip, "softmax")
    loss_margin = r.get("federation", "loss_margin", _as_float, None)
    loss_scale = r.get("federation", "loss_scale", _as_float, None)
    seed = r.get("federation", "seed", _as_int, 0)
    momentum = r.get("federation", "momentum", _as_float, 0.9)
    weight_decay = r.get("federation", "weight_decay", _as_float, 5e-4)
    hidden_dim = r.get("federation", "hidden_dim", _as_int, 64)
    embedding_dim = r.get("federation", "embedding_dim", _as_int, 32)
    correct_all = r.get("federation", "correct_all_heads", _as_bool, True)

    modes = r.get("grid", "modes", _as_names, ["fedpe", "fedgc"])
    fractions = r.get("grid", "fractions", _as_floats, [1.0])
    lambdas = r.get("grid", "lambdas", _as_floats, [20.0])
    mode_lambdas = {}
    for override_mode in ("fedgc", "fedcos"):
        per_mode = r.get("grid", f"lambdas_{override_mode}", _as_floats, None)
        if per_mode is not None:
            mode_lambdas[override_mode] = per_mode
    partitions = r.get("grid", "partitions", _as_names, ["balanced"])

    out_dir = r.get("run", "out_dir", str.strip, "runs/out")
    eval_every = r.get("run", "eval_every", _as_int, 10)
    share_fraction = r.get("run", "share_fraction", _as_float, 0.25)
    group_size = r.get("run", "group_size", _as_int, 2)
    problems.extend(r.problems)

    problems.extend(
        _value_problems(
            num_classes=num_classes,
            samples_per_class=samples_per_class,
            input_dim=input_dim,
            cluster_std=cluster_std,
            pairs_per_class=pairs_per_class,
            num_clients=num_clients,
            eta=eta,
            rounds=rounds,
            local_steps=local_steps,
            batch_size=batch_size,
            loss_name=loss_name,
            loss_margin=loss_margin,
            loss_scale=loss_scale,
            momentum=momentum,
            weight_decay=weight_decay,
            hidden_dim=hidden_dim,
            embedding_dim=embedding_dim,
            eval_every=eval_every,
        )
    )
    problems.extend(grid_problems(modes, fractions, lambdas, partitions, mode_lambdas))
    problems.extend(
        partition_problems(
            partitions, num_clients, num_classes, share_fraction, group_size
        )
    )
    if problems:
        return None, problems

    spec = ExperimentSpec(
        fed=federation.FederationConfig(
            num_clients=num_clients,
            eta=eta,
            rounds=rounds,
            local_steps=local_steps,
            batch_size=batch_size,
            loss=_loss_spec(loss_name, loss_margin, loss_scale),
            seed=seed,
            momentum=momentum,
            weight_decay=weight_decay,
            hidden_dim=hidden_dim,
            embedding_dim=embedding_dim,
            correct_all_heads=correct_all,
        ),
        data=datasets.SyntheticSpec(
            num_classes=num_classes,
            samples_per_class=samples_per_class,
            input_dim=input_dim,
            cluster_std=cluster_std,
            class_center_scale=center_scale,
            seed=seed,
        ),
        modes=modes,
        fractions=fractions,
        lambdas=lambdas,
        partitions=partitions,
        out_dir=out_dir,
        eval_every=eval_every,
        pairs_per_class=pairs_per_class,
        share_fraction=share_fraction,
        group_size=group_size,
        mode_lambdas=mode_lambdas,
    )
    return spec, []


def _loss_spec(name: str, margin: float | None, scale: float | None) -> LossSpec:
    if name == "softmax":
        return LossSpec.softmax()
    base = LossSpec.cosface() if name == "cosface" else LossSpec.arcface()
    return LossSpec(
        name,
        base.margin if margin is None else margin,
        base.scale if scale is None else scale,
    )


def _value_problems(**v) -> list[str]:
    problems = []
    if v["num_classes"] < 2:
        problems.append(f"[data] num_classes: need >= 2, got {v['num_classes']}")
    if v["samples_per_class"] < 8:
        problems.append(f"[data] samples_per_class: need >= 8, got {v['samples_per_class']}")
    if v["input_dim"] < 1:
        problems.append(f"[data] input_dim: need >= 1, got {v['input_dim']}")
    if v["cluster_std"] < 0.0:
        problems.append(f"[data] cluster_std: need >= 0, got {v['cluster_std']}")
    if v["pairs_per_class"] < 1:
        problems.append(f"[data] pairs_per_class: need >= 1, got {v['pairs_per_class']}")
    if v["num_clients"] < 1:
        problems.append(f"[federation] num_clients: need >= 1, got {v['num_clients']}")
    if v["eta"] <= 0.0:
        problems.append(f"[federation] eta: need > 0, got {v['eta']}")
    if v["rounds"] < 0:
        problems.append(f"[federation] rounds: need >= 0, got {v['rounds']}")
    if v["local_steps"] is not None and v["local_steps"] < 0:
        problems.append(f"[federation] local_steps: need >= 0 or empty, got {v['local_steps']}")
    if v["batch_size"] < 1:
        problems.append(f"[federation] batch_size: need >= 1, got {v['batch_size']}")
    if v["loss_name"] not in LOSSES:
        problems.append(f"[federation] loss: unknown variant {v['loss_name']!r}")
    if v["loss_name"] == "softmax" and (v["loss_margin"] is not None or v["loss_scale"] is not None):
        problems.append("[federation] loss_margin/loss_scale: only apply to cosface/arcface")
    if v["loss_margin"] is not None and v["loss_margin"] < 0.0:
        problems.append(f"[federation] loss_margin: need >= 0, got {v['loss_margin']}")
    if v["loss_scale"] is not None and v["loss_scale"] <= 0.0:
        problems.append(f"[federation] loss_scale: need > 0, got {v['loss_scale']}")
    if not 0.0 <= v["momentum"] < 1.0:
        problems.append(f"[federation] momentum: need in [0, 1), got {v['momentum']}")
    if v["weight_decay"] < 0.0:
        problems.append(f"[federation] weight_decay: need >= 0, got {v['weight_decay']}")
    if v["hidden_dim"] < 1 or v["embedding_dim"] < 1:
        problems.append("[federation] hidden_dim/embedding_dim: need >= 1")
    if v["eval_every"] < 1:
        problems.append(f"[run] eval_every: need >= 1, got {v['eval_every']}")
    return problems


def grid_problems(modes, fractions, lambdas, partitions, mode_lambdas=None) -> list[str]:
    mode_lambdas = mode_lambdas or {}
    problems = []
    if not modes:
        problems.append("[grid] modes: empty grid axis")
    for m in modes:
        if m not in federation.MODES:
            problems.append(f"[grid] modes: unknown mode {m!r}")
    if not fractions:
        problems.append("[grid] fractions: empty grid axis")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            problems.append(f"[grid] fractions: need in (0, 1], got {f}")
    axes = [("lambdas", lambdas)]
    axes += [(f"lambdas_{m}", ls) for m, ls in sorted(mode_lambdas.items())]
    for key, axis in axes:
        if not axis:
            problems.append(f"[grid] {key}: empty grid axis")
        for l in axis:
            if l < 0.0:
                problems.append(f"[grid] {key}: need >= 0, got {l}")
    for m in modes:
        if m not in ("fedgc", "fedcos"):
            continue
        effective = mode_lambdas.get(m, lambdas)
        if any(l == 0.0 for l in effective):
            key = f"lambdas_{m}" if m in mode_lambdas else "lambdas"
            problems.append(f"[grid] {key}: {m} cells need lambda > 0, got a 0 in the grid")
            break
    if not partitions:
        problems.append("[grid] partitions: empty grid axis")
    for p in partitions:
        if p not in PARTITIONS:
            problems.append(f"[grid] partitions: unknown scheme {p!r}")
    return problems


def partition_problems(partitions, num_clients, num_classes, share_fraction, group_size) -> list[str]:
    problems = []
    if "balanced" in partitions and num_clients >= 1 and num_classes % num_clients:
        problems.append(
            f"[grid] partitions: balanced needs num_clients ({num_clients}) "
            f"to divide num_classes ({num_classes})"
        )
    if "lognormal" in partitions and not 2 <= num_clients <= num_classes:
        problems.append(
            f"[grid] partitions: lognormal needs 2 <= num_clients <= num_classes, "
            f"got {num_clients} clients for {num_classes} classes"
        )
    if "shared" in partitions:
        if not 0.0 <= share_fraction < 1.0:
            problems.append(f"[run] share_fraction: need in [0, 1), got {share_fraction}")
        elif round(share_fraction * num_classes) < 1:
            problems.append(
                f"[run] share_fraction: {share_fraction} rounds to zero shared "
                f"classes out of {num_classes}"
            )
        if not 2 <= group_size <= num_clients:
            problems.append(
                f"[run] group_size: need in [2, num_clients={num_clients}], got {group_size}"
            )
    return problems


def validate_config(path) -> list[str]:
    """All config violations at once; empty list means the file is usable."""
    _, problems = parse_config(path)
    return problems


def apply_overrides(
    spec: ExperimentSpec,
    seed: int | None = None,
    out: str | None = None,
    mode: str | None = None,
    lam: float | None = None,
    fraction: float | None = None,
) -> tuple[ExperimentSpec, list[str]]:
    """Command-line overrides; single values replace whole grid axes.

    An explicit lambda wins over any per-mode axes from the config file.
    """
    modes = [mode] if mode is not None else spec.modes
    lambdas = [lam] if lam is not None else spec.lambdas
    mode_lambdas = {} if lam is not None else spec.mode_lambdas
    fractions = [fraction] if fraction is not None else spec.fractions
    problems = grid_problems(modes, fractions, lambdas, spec.partitions, mode_lambdas)
    problems.extend(
        partition_problems(
            spec.partitions,
            spec.fed.num_clients,
            spec.data.num_classes,
            spec.share_fraction,
            spec.group_size,
        )
    )
    if problems:
        return spec, problems
    new = replace(
        spec,
        modes=modes,
        lambdas=lambdas,
        mode_lambdas=mode_lambdas,
        fractions=fractions,
        out_dir=out if out is not None else spec.out_dir,
    )
    if seed is not None:
        new = replace(new, fed=replace(new.fed, seed=seed))
    return new, []


# ---------------------------------------------------------------------------
# running


def default_spec(out_dir: str = "runs/default", seed: int = 0) -> ExperimentSpec:
    """The standard desk-scale setup every preset file is a variation of:

    8 clients x 4 classes each, 32-dim embeddings, 200 rounds, margin loss.
    The step size and the correction multipliers were fixed once by a tuning
    sweep (eta=0.03 keeps the centralized reference stable under persistent
    momentum; lambda=50 for the softmax penalty and 1.0 for the cosine one,
    which matches the per-step correction magnitude -- the cosine gradient
    sums every cross-client column with no softmax down-weighting, so it is
    roughly 50x larger per unit lambda) and are mirrored in configs/.
    """
    return ExperimentSpec(
        fed=federation.FederationConfig(
            num_clients=8, eta=0.03, lam=50.0, rounds=200,
            loss=LossSpec.cosface(), seed=seed,
        ),
        data=datasets.SyntheticSpec(
            num_classes=32, samples_per_class=25, input_dim=16,
            class_center_scale=2.0, seed=seed,
        ),
        modes=["fedpe", "fedcos", "fedgc", "centralized"],
        fractions=[1.0],
        lambdas=[50.0],
        partitions=["balanced"],
        out_dir=out_dir,
        eval_every=10,
        mode_lambdas={"fedcos": [1.0]},
    )


def cell_config(spec: ExperimentSpec, cell: Cell) -> federation.FederationConfig:
    return replace(spec.fed, mode=cell.mode, participation=cell.fraction, lam=cell.lam)


def make_dataset(spec: ExperimentSpec, cfg: federation.FederationConfig) -> datasets.Dataset:
    # the run seed drives the data too, so different seeds resample everything
    return datasets.generate(replace(spec.data, seed=cfg.seed), spec.pairs_per_class)


def make_partition(dataset, partition: str, spec: ExperimentSpec, cfg):
    if partition == "balanced":
        return datasets.partition_balanced(dataset, cfg.num_clients)
    if partition == "lognormal":
        return datasets.partition_lognormal(dataset, cfg.num_clients, cfg.seed)
    if partition == "shared":
        return datasets.partition_shared(
            dataset, cfg.num_clients, spec.share_fraction, cfg.seed, spec.group_size
        )
    raise ValueError(f"unknown partition scheme {partition!r}")


def compute_round_metrics(server, clients, cfg, dataset, mean_loss: float) -> evaluation.RoundMetrics:
    """Full metrics row for the current state; every field finite for healthy runs."""
    accuracy = evaluation.verification_accuracy(server.theta, dataset.test_x, dataset.pairs)
    stats = evaluation.embedding_similarity_stats(server.embeddings, class_of=server.class_of)
    cross = stats.cross_client_max_cos
    within = stats.within_client_max_cos
    if not np.isfinite(cross) or not np.isfinite(within):
        # a degenerate split (single head, or one column per client) has no
        # pairs on one side; report the all-pairs maximum there instead
        all_pairs = evaluation.embedding_similarity_stats(
            StackedEmbeddings(server.embeddings.W, np.arange(server.embeddings.num_columns)),
            class_of=server.class_of,
        ).cross_client_max_cos
        cross = cross if np.isfinite(cross) else all_pairs
        within = within if np.isfinite(within) else all_pairs
    return evaluation.RoundMetrics(
        round=server.round,
        mean_local_loss=mean_loss,
        combined_objective=federation.combined_objective(server, clients, cfg),
        verification_accuracy=accuracy,
        cross_client_max_cos=cross,
        within_client_max_cos=within,
        mean_anchor_feature_dist=evaluation.mean_anchor_feature_distance(server, clients),
        similarity=stats,
    )


def _finite_row(m: evaluation.RoundMetrics) -> bool:
    return all(np.isfinite(v) for v in m.to_dict().values())


def _eval_now(r: int, cfg, eval_every: int) -> bool:
    return (r + 1) % eval_every == 0 or r + 1 == cfg.rounds


def _train_rounds(server, clients, step, cfg, dataset, eval_every: int):
    """Advance `server` by `step(server) -> (server, mean_loss)` for cfg.rounds rounds.

    The one round/eval/divergence loop behind federated and centralized
    cells; returns (status, metrics, server, clients), where a diverged cell
    keeps the state of the round it reached.
    """
    metrics: list[evaluation.RoundMetrics] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for r in range(cfg.rounds):
            try:
                server, mean_loss = step(server)
                if not np.isfinite(mean_loss):
                    raise _Divergence
                if _eval_now(r, cfg, eval_every):
                    row = compute_round_metrics(server, clients, cfg, dataset, mean_loss)
                    if not _finite_row(row):
                        raise _Divergence
                    metrics.append(row)
            except (_Divergence, NonFiniteError):
                return DIVERGED, metrics, server, clients
    return OK, metrics, server, clients


def train_federated(dataset, part, client_data, cfg, eval_every: int = 10):
    """Train one federated cell; returns (status, metrics, server, clients)."""
    server, clients = federation.build_federation(
        client_data, dataset.input_dim, cfg, part.shared_groups
    )
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A]))

    def step(s):
        return federation.run_round(s, clients, cfg, rng)

    return _train_rounds(server, clients, step, cfg, dataset, eval_every)


def train_centralized(dataset, cfg, eval_every: int = 10):
    """Pooled-baseline cell with the same metrics cadence as federated cells."""
    server, client = federation.build_centralized(
        dataset.train_x, dataset.train_y, dataset.num_classes, cfg
    )
    opt = nn.SgdState(cfg.eta, cfg.momentum, cfg.weight_decay)

    def step(s):
        return federation.centralized_round(s, client, cfg, opt)

    return _train_rounds(server, [client], step, cfg, dataset, eval_every)


def run_cell(spec: ExperimentSpec, cell: Cell, dataset=None) -> CellResult:
    """Train one grid cell on `dataset`, generated from the spec when not given."""
    cfg = cell_config(spec, cell)
    if dataset is None:
        dataset = make_dataset(spec, cfg)
    if cfg.mode == "centralized":
        status, metrics, server, clients = train_centralized(dataset, cfg, spec.eval_every)
    else:
        part, client_data = make_partition(dataset, cell.partition, spec, cfg)
        status, metrics, server, clients = train_federated(
            dataset, part, client_data, cfg, spec.eval_every
        )
    feats = nn.forward(server.theta, dataset.test_x) if status == OK else None
    return CellResult(cell, status, server.round, metrics, server, clients, feats)


def _write_hist(path, edges: np.ndarray, counts: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "count"])
        for left, count in zip(edges[:-1], counts):
            w.writerow([float(left), int(count)])


def write_cell_outputs(spec: ExperimentSpec, result: CellResult, dataset=None) -> str:
    cell_dir = os.path.join(spec.out_dir, result.cell.name)
    os.makedirs(cell_dir, exist_ok=True)
    with open(os.path.join(cell_dir, "metrics.jsonl"), "w") as fh:
        for m in result.metrics:
            fh.write(json.dumps(m.to_dict(), sort_keys=True) + "\n")
    if result.status == OK:
        federation.save_checkpoint(
            result.server, result.clients, os.path.join(cell_dir, "checkpoint")
        )
        stats = result.similarity
        if stats is None:  # no round was evaluated (rounds = 0)
            stats = evaluation.embedding_similarity_stats(
                result.server.embeddings, class_of=result.server.class_of
            )
        _write_hist(
            os.path.join(cell_dir, "similarity_cross.csv"), stats.bin_edges, stats.cross_hist
        )
        _write_hist(
            os.path.join(cell_dir, "similarity_within.csv"), stats.bin_edges, stats.within_hist
        )
        if result.test_features is not None and dataset is not None:
            # raw feature matrix + labels, for external projection/plotting
            nn.write_tensors(
                os.path.join(cell_dir, "test_features.fgc"),
                [result.test_features, dataset.test_y.astype(np.float64)],
            )
    return cell_dir


def write_summary(spec: ExperimentSpec, results: list[CellResult]) -> str:
    path = os.path.join(spec.out_dir, "summary.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "mode",
                "fraction",
                "lambda",
                "partition",
                "status",
                "rounds_completed",
                "final_accuracy",
                "final_cross_client_max_cos",
            ]
        )
        for res in results:
            w.writerow(
                [
                    res.cell.mode,
                    res.cell.fraction,
                    res.cell.lam,
                    res.cell.partition,
                    res.status,
                    res.rounds_completed,
                    res.final_accuracy,
                    res.final_cross_cos,
                ]
            )
    return path


def run_experiment(spec: ExperimentSpec, echo=None) -> int:
    """Run the whole grid; 0 if any cell finished, 2 if every cell diverged."""
    os.makedirs(spec.out_dir, exist_ok=True)
    results = []
    for cell in spec.grid():
        dataset = make_dataset(spec, cell_config(spec, cell))
        result = run_cell(spec, cell, dataset)
        write_cell_outputs(spec, result, dataset)
        results.append(result)
        if echo is not None:
            echo(
                f"{cell.name}: {result.status}, rounds={result.rounds_completed}, "
                f"accuracy={result.final_accuracy:.4f}, "
                f"cross_max_cos={result.final_cross_cos:.4f}"
            )
    summary = write_summary(spec, results)
    if echo is not None:
        echo(f"summary: {summary}")
    return 0 if any(r.status == OK for r in results) else 2


# ---------------------------------------------------------------------------
# gradient verification suite


@dataclass
class CheckRow:
    name: str
    max_err: float
    tol: float
    passed: bool


def _record(rows: list[CheckRow], name: str, err: float, tol: float) -> None:
    rows.append(CheckRow(name, float(err), tol, bool(err <= tol)))


def _fd(f, x0, grad, h=1e-6) -> float:
    return evaluation.finite_diff_check(f, x0, grad, h=h, tol=np.inf).max_rel_err


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
        total += float(logsumexp(np.concatenate([[0.0], shifted])))
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
    server, clients, cfg = _probe_federation(seed)
    report = evaluation.grad_direction_diagnostic(server, clients, cfg)
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
    spec = ExperimentSpec(
        fed=federation.FederationConfig(num_clients=3, mode="fedgc", lam=1.0, seed=seed, rounds=1),
        data=datasets.SyntheticSpec(num_classes=6, samples_per_class=8, input_dim=5, seed=seed),
        modes=["fedgc"],
        fractions=[1.0],
        lambdas=[1.0],
        partitions=["balanced"],
    )
    cfg = spec.fed
    dataset = make_dataset(spec, cfg)
    part, client_data = make_partition(dataset, "balanced", spec, cfg)
    server, clients = federation.build_federation(client_data, dataset.input_dim, cfg, [])
    return server, clients, cfg


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
