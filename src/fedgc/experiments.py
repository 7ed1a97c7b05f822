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
import shutil
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import data as datasets
from . import evaluation, federation, nn
from .config import ConfigError
from .losses import LossSpec, NonFiniteError

OK = "ok"
DIVERGED = "diverged"


@dataclass(frozen=True)
class Cell:
    mode: str
    fraction: float
    lam: float
    partition: str

    @property
    def name(self) -> str:
        return f"{self.mode}_f{self.fraction:g}_l{self.lam:g}_{self.partition}"


# the config-file section of each ExperimentSpec field a file sets
_GRID, _RUN = {"section": "grid"}, {"section": "run"}
# grid axis -> the FederationConfig field each cell takes from it
_AXIS_FIELDS = {"modes": "mode", "fractions": "participation", "lambdas": "lam"}


@dataclass
class ExperimentSpec:
    """A grid of cells over one base config; checks its axes at construction.

    A bad axis value, an empty axis, a zero lambda for a correction mode, a
    partition the data cannot take or, in a federated grid, one that gives
    every client one identity raises ConfigError naming every field. Both
    correction modes run on every partition, shared ones included: the two
    penalties take cross-client pairs from one ownership rule.
    """

    fed: federation.FederationConfig
    data: datasets.SyntheticSpec
    modes: list[str] = field(metadata=_GRID)
    fractions: list[float] = field(metadata=_GRID)
    lambdas: list[float] = field(metadata=_GRID)
    partitions: list[str] = field(metadata=_GRID)
    out_dir: str = field(default="runs/out", metadata=_RUN)
    eval_every: int = field(default=10, metadata=_RUN)
    share_fraction: float = field(default=0.25, metadata=_RUN)
    group_size: int = field(default=2, metadata=_RUN)
    # optional per-mode lambda axes; a mode missing here uses `lambdas`.
    # The two correction modes want very different multipliers (the cosine
    # penalty gradient does not shrink as columns separate), so a shared
    # axis would force a bad value on one of them.
    mode_lambdas: dict = field(default_factory=dict)

    def __post_init__(self):
        axes = [(key, getattr(self, key), name) for key, name in _AXIS_FIELDS.items()]
        axes += [(f"mode_lambdas[{m!r}]", ls, "lam") for m, ls in sorted(self.mode_lambdas.items())]
        problems = []
        for key, axis, name in axes:
            if not axis:
                problems.append((key, "empty grid axis"))
            problems += [(key, why) for v in axis for why in _cell_problems(self.fed, name, v)]
        if not self.partitions:
            problems.append(("partitions", "empty grid axis"))
        for m in self.modes:
            if m in federation.CORRECTION_MODES and 0.0 in self.lambdas_for(m):
                key = f"mode_lambdas[{m!r}]" if m in self.mode_lambdas else "lambdas"
                problems.append((key, f"{m} cells need lambda > 0, got a 0 in the grid"))
                break
        federated = any(m != "centralized" for m in self.modes)
        for p in self.partitions:
            # a one-class loss is constant, so local steps would only apply weight decay
            if federated and p in ("balanced", "lognormal") and self.data.num_classes == self.fed.num_clients:
                problems.append(("partitions", f"{p} gives each of the {self.fed.num_clients} clients "
                                 "one identity, whose loss is constant: federated cells would not train"))
            # data names the argument at fault; the scheme and num_clients are the axis's
            problems += [
                (name if name in ("share_fraction", "group_size") else "partitions", why)
                for name, why in datasets.partition_problems(
                    p, self.data.num_classes, self.fed.num_clients, self.share_fraction,
                    self.group_size, datasets.split_rows(self.data.samples_per_class)[0],
                )
            ]
        # partition_shared accepts no shared class at all; a grid's shared cells
        # must have one. |x| <= 0.5 is round(x) == 0, and false for NaN and inf,
        # which the range rule above reports
        if "shared" in self.partitions and abs(self.share_fraction * self.data.num_classes) <= 0.5:
            problems.append((
                "share_fraction",
                f"{self.share_fraction} rounds to zero shared classes out of {self.data.num_classes}",
            ))
        if self.eval_every < 1:
            problems.append(("eval_every", f"need >= 1, got {self.eval_every}"))
        if problems:  # a value repeated on an axis is reported once
            raise ConfigError(self, list(dict.fromkeys(problems)))

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


def _cell_problems(fed: federation.FederationConfig, name: str, value) -> list[str]:
    """FederationConfig's own verdict on `value` for the cell field `name`."""
    try:
        replace(fed, **{name: value})
    except ConfigError as exc:
        return [why for field_name, why in exc.problems if field_name == name]
    return []


@dataclass
class CellResult:
    cell: Cell
    status: str
    rounds_completed: int
    metrics: list[evaluation.RoundMetrics]
    server: federation.ServerState
    clients: list[datasets.ClientData]

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].verification_accuracy if self.metrics else float("nan")

    @property
    def final_cross_cos(self) -> float:
        return self.metrics[-1].cross_client_max_cos if self.metrics else float("nan")

    def summary(self) -> CellSummary:
        return CellSummary(
            self.cell, self.status, self.rounds_completed, self.final_accuracy, self.final_cross_cos
        )


@dataclass(frozen=True)
class CellSummary:
    """What a grid keeps of a finished cell: its summary.csv row."""

    cell: Cell
    status: str
    rounds_completed: int
    final_accuracy: float
    final_cross_cos: float


# ---------------------------------------------------------------------------
# config files


def _as_steps(raw: str) -> int | None:
    # empty value = one full epoch per round
    return None if raw.strip() == "" else int(raw)

def _as_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _as_names(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


# how a file value is read, by the annotation of the field it sets
_CASTS = {
    "int": int,
    "float": float,
    "str": str.strip,
    "LossSpec": str.strip,  # a variant name; loss_margin/loss_scale fill in the rest
    "int | None": _as_steps,
    "list[float]": _as_floats,
    "list[str]": _as_names,
}

# (section, dataclass field) for every key a config file sets by its field
# name. The [federation] seed also seeds the data, and the cell fields come
# from the grid axes.
_FILE_FIELDS = (
    [("data", f) for f in fields(datasets.SyntheticSpec) if f.name != "seed"]
    + [
        ("federation", f)
        for f in fields(federation.FederationConfig)
        if f.name not in _AXIS_FIELDS.values()
    ]
    + [(f.metadata["section"], f) for f in fields(ExperimentSpec) if "section" in f.metadata]
)
_KNOWN_KEYS = {
    section: {f.name for s, f in _FILE_FIELDS if s == section}
    for section in ("data", "federation", "grid", "run")
}
# file-only keys: the loss family's parameters and the per-mode lambda axes
_KNOWN_KEYS["federation"] |= {"loss_margin", "loss_scale"}
_KNOWN_KEYS["grid"] |= {f"lambdas_{m}" for m in federation.CORRECTION_MODES}

# file defaults the dataclass fields do not give, in file syntax: a required
# field, a different value (rounds), or the loss as a name
_FILE_DEFAULTS = {
    "num_clients": "8",
    "rounds": "200",
    "loss": "softmax",
    "modes": "fedpe, fedgc",
    "fractions": "1",
    "lambdas": "20",
    "partitions": "balanced",
}

# dataclass fields a file sets under another key
_RENAMED = {
    "variant": "loss",
    "margin": "loss_margin",
    "scale": "loss_scale",
    **{f"mode_lambdas[{m!r}]": f"lambdas_{m}" for m in federation.CORRECTION_MODES},
}


def file_problems(exc: ConfigError) -> list[str]:
    """A dataclass's problems, each prefixed with the [section] key a file sets it with."""
    out = []
    for name, why in exc.problems:
        key = _RENAMED.get(name, name)
        section = next(s for s, keys in _KNOWN_KEYS.items() if key in keys)
        out.append(f"[{section}] {key}: {why}")
    return out


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
    listed, not just the first. The rules are the dataclasses' own; each
    problem is prefixed with the [section] key it came from.
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
    values = {}
    for section, f in _FILE_FIELDS:
        cast = _CASTS[f.type]
        default = cast(_FILE_DEFAULTS[f.name]) if f.name in _FILE_DEFAULTS else f.default
        values[f.name] = r.get(section, f.name, cast, default)
    margin = r.get("federation", "loss_margin", float, None)
    scale = r.get("federation", "loss_scale", float, None)
    mode_lambdas = {}
    for m in federation.CORRECTION_MODES:
        per_mode = r.get("grid", f"lambdas_{m}", _as_floats, None)
        if per_mode is not None:
            mode_lambdas[m] = per_mode
    problems.extend(r.problems)
    if values["loss"] == "softmax":
        for key, value in (("loss_margin", margin), ("loss_scale", scale)):
            if value is not None:
                problems.append(f"[federation] {key}: only applies to cosface/arcface")

    def build(make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ConfigError as exc:
            problems.extend(file_problems(exc))
            return exc.value

    def owned_by(cls) -> dict:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    # the data takes its seed from [federation], as SyntheticSpec.seed is no file
    # key; both refuse a bad one, and the file's one key is reported once
    data = build(datasets.SyntheticSpec, **owned_by(datasets.SyntheticSpec))
    values["loss"] = build(_loss_spec, values["loss"], margin, scale)
    fed = build(federation.FederationConfig, **owned_by(federation.FederationConfig))
    spec = build(
        ExperimentSpec, fed=fed, data=data, mode_lambdas=mode_lambdas, **owned_by(ExperimentSpec)
    )
    return (None, list(dict.fromkeys(problems))) if problems else (spec, [])


def _loss_spec(name: str, margin: float | None, scale: float | None) -> LossSpec:
    """The named loss; an unset margin or scale takes the margin family's default."""
    base = {"cosface": LossSpec.cosface, "arcface": LossSpec.arcface}.get(name, LossSpec)()
    return LossSpec(
        name,
        base.margin if margin is None else margin,
        base.scale if scale is None else scale,
    )


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
    The result is a replace() of the spec, so it is checked by the same rules.
    """
    changes = {}
    if mode is not None:
        changes["modes"] = [mode]
    if lam is not None:
        changes.update(lambdas=[lam], mode_lambdas={})
    if fraction is not None:
        changes["fractions"] = [fraction]
    if out is not None:
        changes["out_dir"] = out
    try:
        if seed is not None:
            changes["fed"] = replace(spec.fed, seed=seed)
        return replace(spec, **changes), []
    except ConfigError as exc:
        return spec, file_problems(exc)


# ---------------------------------------------------------------------------
# running


def cell_config(spec: ExperimentSpec, cell: Cell) -> federation.FederationConfig:
    return replace(spec.fed, mode=cell.mode, participation=cell.fraction, lam=cell.lam)


def make_dataset(spec: ExperimentSpec, cfg: federation.FederationConfig) -> datasets.Dataset:
    """The grid's data, read-only, so that one copy can serve every cell.

    The run seed drives the data too, so different seeds resample everything.
    """
    ds = datasets.generate(replace(spec.data, seed=cfg.seed))
    for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y, ds.centers,
              ds.pairs.idx_a, ds.pairs.idx_b, ds.pairs.same):
        a.setflags(write=False)
    return ds


def make_partition(dataset, partition: str, spec: ExperimentSpec, cfg) -> list[datasets.ClientData]:
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
    cross, within = evaluation.embedding_similarity_stats(server.embeddings)
    # the combined objective: shard losses plus lambda times a correction mode's penalty
    objective, anchor_dist = evaluation.shard_fit(server, clients, cfg.loss)
    if cfg.lam > 0.0 and cfg.mode in federation.CORRECTION_MODES:
        objective += cfg.lam * federation.regularizer_grad(server.embeddings, cfg).value
    return evaluation.RoundMetrics(
        round=server.round,
        mean_local_loss=mean_loss,
        combined_objective=objective,
        verification_accuracy=accuracy,
        cross_client_max_cos=cross,
        within_client_max_cos=within,
        mean_anchor_feature_dist=anchor_dist,
    )


def run_cell(spec: ExperimentSpec, cell: Cell, dataset: datasets.Dataset) -> CellResult:
    """Train one grid cell on the grid's dataset (make_dataset).

    The one round/eval/divergence loop behind federated and centralized
    cells: `step(server) -> (server, mean_loss)` advances a round, and a
    metrics row is taken every spec.eval_every rounds and after the last.
    A non-finite loss or row makes the cell diverged, keeping the state of
    the round it reached.
    """
    cfg = cell_config(spec, cell)
    if cfg.mode == "centralized":
        server, client = federation.build_centralized(dataset, cfg)
        clients = [client]
        opt = nn.SgdState(cfg.eta, cfg.momentum, cfg.weight_decay)

        def step(s):
            return federation.centralized_round(s, client, cfg, opt)
    else:
        client_data = make_partition(dataset, cell.partition, spec, cfg)
        server, clients = federation.build_federation(client_data, dataset.input_dim, cfg)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A]))
        # the cell's training buffers, reused every round and freed with the cell
        workspace = federation.Workspace()

        def step(s):
            return federation.run_round(s, clients, cfg, rng, workspace)

    status, metrics = OK, []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for r in range(cfg.rounds):
                server, mean_loss = step(server)
                if not np.isfinite(mean_loss):
                    raise NonFiniteError("mean local loss")
                if (r + 1) % spec.eval_every == 0 or r + 1 == cfg.rounds:
                    row = compute_round_metrics(server, clients, cfg, dataset, mean_loss)
                    if not all(np.isfinite(v) for v in asdict(row).values()):
                        raise NonFiniteError("metrics row")
                    metrics.append(row)
        except NonFiniteError:
            status = DIVERGED
    return CellResult(cell, status, server.round, metrics, server, clients)


def _write_hist(path, counts: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "count"])
        for left, count in zip(evaluation.SIMILARITY_EDGES[:-1], counts):
            w.writerow([float(left), int(count)])


def write_cell_outputs(spec: ExperimentSpec, result: CellResult, dataset: datasets.Dataset) -> str:
    """Write one cell's directory whole: remove what an earlier run left there, then write."""
    cell_dir = os.path.join(spec.out_dir, result.cell.name)
    if os.path.exists(cell_dir):
        shutil.rmtree(cell_dir)
    os.makedirs(cell_dir)
    with open(os.path.join(cell_dir, "metrics.jsonl"), "w") as fh:
        for m in result.metrics:
            fh.write(json.dumps(asdict(m), sort_keys=True) + "\n")
    if result.status == OK:
        federation.save_checkpoint(
            result.server, result.clients, os.path.join(cell_dir, "checkpoint")
        )
        hists = evaluation.similarity_histograms(result.server.embeddings)
        for side, counts in zip(("cross", "within"), hists):
            _write_hist(os.path.join(cell_dir, f"similarity_{side}.csv"), counts)
        # raw feature matrix + labels, for external projection/plotting
        feats = nn.forward(result.server.theta, dataset.test_x)
        nn.write_tensors(
            os.path.join(cell_dir, "test_features.fgc"),
            [feats, dataset.test_y.astype(np.float64)],
        )
    return cell_dir


def write_summary(spec: ExperimentSpec, results: list[CellSummary]) -> str:
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


def run_experiment(spec: ExperimentSpec, dataset: datasets.Dataset, echo=None) -> int:
    """Run the whole grid on make_dataset(spec, spec.fed), which every cell shares (cell_config
    changes only mode, participation and lambda); 0 if any cell finished, 2 if every cell diverged."""
    os.makedirs(spec.out_dir, exist_ok=True)
    results = []
    for cell in spec.grid():
        result = _run_and_write_cell(spec, cell, dataset)
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


def _run_and_write_cell(spec: ExperimentSpec, cell: Cell, dataset) -> CellSummary:
    """Train and write one cell, and return only its summary row.

    The cell's server, shards and metrics rows are freed when this returns,
    so a grid holds one cell's working set at a time.
    """
    result = run_cell(spec, cell, dataset)
    write_cell_outputs(spec, result, dataset)
    return result.summary()
