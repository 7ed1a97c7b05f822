"""Config parsing, grid expansion, cell training, outputs, and the check suite."""

import csv
import gc
import json
import os
import tempfile
import textwrap
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden

from fedgc import data as datasets
from fedgc import evaluation, experiments, federation, nn
from fedgc.config import ConfigError
from fedgc.evaluation import similarity_histograms
from fedgc.experiments import (
    DIVERGED,
    OK,
    Cell,
    ExperimentSpec,
    apply_overrides,
    cell_config,
    compute_round_metrics,
    make_dataset,
    make_partition,
    parse_config,
    run_cell,
    run_experiment,
)
from fedgc.gradcheck import verification_suite
from fedgc.losses import LossSpec


def tiny_spec(out_dir="runs/test", **kw):
    fed = federation.FederationConfig(
        num_clients=2, eta=0.05, lam=1.0, rounds=3,
        hidden_dim=8, embedding_dim=4, batch_size=16, seed=3,
    )
    base = dict(
        fed=fed,
        data=datasets.SyntheticSpec(
            num_classes=4, samples_per_class=8, input_dim=4, pairs_per_class=2, seed=3
        ),
        modes=["fedpe"],
        fractions=[1.0],
        lambdas=[1.0],
        partitions=["balanced"],
        out_dir=str(out_dir),
        eval_every=2,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def write_cfg(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(textwrap.dedent(body))
    return path


def spec_problems(**kw) -> list[str]:
    """The problems tiny_spec(**kw) raises, as 'field: reason' lines; [] if it constructs."""
    try:
        tiny_spec(**kw)
    except ConfigError as exc:
        return [f"{name}: {why}" for name, why in exc.problems]
    return []


def partition_spec_problems(partitions, num_clients, num_classes, share_fraction, group_size):
    base = tiny_spec()
    return spec_problems(
        fed=replace(base.fed, num_clients=num_clients),
        data=replace(base.data, num_classes=num_classes),
        partitions=partitions,
        share_fraction=share_fraction,
        group_size=group_size,
    )


# ---------------------------------------------------------------- grid


def test_cell_names_are_compact():
    assert Cell("fedgc", 0.5, 20.0, "balanced").name == "fedgc_f0.5_l20_balanced"
    assert Cell("fedpe", 1.0, 0.25, "shared").name == "fedpe_f1_l0.25_shared"


def test_grid_expands_all_axes_with_per_mode_lambdas():
    spec = tiny_spec(
        modes=["fedpe", "fedgc", "fedcos"],
        fractions=[0.5, 1.0],
        lambdas=[10.0],
        mode_lambdas={"fedcos": [1.0, 2.0]},
    )
    names = [c.name for c in spec.grid()]
    # fedpe and fedgc use the shared axis; fedcos gets its own two values
    assert len(names) == 2 * 1 * 2 + 2 * 2
    assert "fedcos_f1_l1_balanced" in names and "fedcos_f1_l2_balanced" in names
    assert "fedcos_f1_l10_balanced" not in names
    assert spec.lambdas_for("fedgc") == [10.0]
    assert spec.lambdas_for("fedcos") == [1.0, 2.0]


# ---------------------------------------------------------------- config files


def test_parse_config_reads_values_and_defaults(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        [data]
        num_classes = 8
        samples_per_class = 10
        input_dim = 6

        [federation]
        num_clients = 2
        eta = 0.07
        rounds = 4
        loss = cosface
        loss_margin = 0.2
        local_steps =

        [grid]
        modes = fedpe, fedgc
        lambdas = 2, 4
        lambdas_fedgc = 8

        [run]
        out_dir = runs/x
        eval_every = 2
        """,
    )
    spec, problems = parse_config(path)
    assert problems == []
    assert spec.fed.num_clients == 2 and spec.fed.eta == 0.07 and spec.fed.rounds == 4
    assert spec.fed.loss.variant == "cosface" and spec.fed.loss.margin == 0.2
    assert spec.fed.loss.scale == LossSpec.cosface().scale  # unset -> family default
    assert spec.fed.local_steps is None
    assert spec.fed.momentum == 0.9  # untouched default
    assert spec.modes == ["fedpe", "fedgc"] and spec.lambdas == [2.0, 4.0]
    assert spec.mode_lambdas == {"fedgc": [8.0]}
    assert spec.out_dir == "runs/x" and spec.eval_every == 2
    assert [c.lam for c in spec.grid() if c.mode == "fedgc"] == [8.0]


def test_parse_config_collects_every_problem(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        [data]
        num_classes = two
        samples_per_class = 3

        [federation]
        eta = -1
        loss = hinge
        mystery = 1

        [typo_section]
        x = 1

        [grid]
        modes = fedpe, warp
        fractions = 0, 0.5
        """,
    )
    spec, problems = parse_config(path)
    assert spec is None
    text = "\n".join(problems)
    for needle in [
        "cannot read 'two' as int",
        "samples_per_class",
        "eta",
        "unknown variant 'hinge'",
        "mystery: unknown key",
        "[typo_section]: unknown section",
        "unknown mode 'warp'",
        "fractions: need in (0, 1]",
    ]:
        assert needle in text, f"missing {needle!r} in:\n{text}"


def test_parse_config_missing_file():
    spec, problems = parse_config("/nonexistent/nowhere.cfg")
    assert spec is None and len(problems) == 1


def test_margin_keys_rejected_for_softmax_loss(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        [federation]
        loss = softmax
        loss_margin = 0.2
        """,
    )
    assert any("loss_margin" in p for p in parse_config(path)[1])


def test_shipped_preset_configs_validate():
    import glob

    paths = sorted(glob.glob("configs/*.cfg"))
    assert len(paths) == 5
    for path in paths:
        assert parse_config(path)[1] == [], path


def test_parse_config_pins_file_defaults(tmp_path):
    # the file format's defaults; num_clients, rounds and the grid axes differ
    # from (or are required on) the dataclasses and are kept as they are
    spec, problems = parse_config(write_cfg(tmp_path, "[data]\n[federation]\n[grid]\n[run]\n"))
    assert problems == []
    assert spec == ExperimentSpec(
        fed=federation.FederationConfig(
            num_clients=8, participation=1.0, lam=20.0, eta=0.1, rounds=200,
            local_steps=None, batch_size=32, mode="fedpe", loss=LossSpec("softmax", 0.0, 1.0),
            seed=0, momentum=0.9, weight_decay=5e-4, hidden_dim=64, embedding_dim=32,
        ),
        data=datasets.SyntheticSpec(
            num_classes=32, samples_per_class=25, input_dim=16, cluster_std=1.0,
            class_center_scale=5.0, pairs_per_class=10, seed=0,
        ),
        modes=["fedpe", "fedgc"],
        fractions=[1.0],
        lambdas=[20.0],
        partitions=["balanced"],
        out_dir="runs/out",
        eval_every=10,
        share_fraction=0.25,
        group_size=2,
        mode_lambdas={},
    )


@pytest.mark.parametrize(
    "make, bad_field",
    [
        (lambda: federation.FederationConfig(num_clients=2, mode="bogus"), "mode"),
        (lambda: federation.FederationConfig(num_clients=2, participation=0.0), "participation"),
        (lambda: federation.FederationConfig(num_clients=2, batch_size=0), "batch_size"),
        (lambda: federation.FederationConfig(num_clients=2, local_steps=0), "local_steps"),
        (lambda: federation.FederationConfig(num_clients=2, lam=np.inf), "lam"),
        (lambda: federation.FederationConfig(num_clients=2, eta=np.inf), "eta"),
        (lambda: federation.FederationConfig(num_clients=2, weight_decay=np.inf), "weight_decay"),
        # numpy's SeedSequence raised "expected non-negative integer" when the data was drawn
        (lambda: federation.FederationConfig(num_clients=2, seed=-1), "seed"),
        (lambda: LossSpec("cosface", margin=np.inf), "margin"),
        (lambda: LossSpec("cosface", scale=np.inf), "scale"),
        (lambda: tiny_spec(lambdas=[np.inf]), "lambdas"),
        (lambda: replace(tiny_spec().fed, batch_size=0), "batch_size"),
        (lambda: tiny_spec(partitions=["striped"]), "partitions"),
        (lambda: tiny_spec(partitions=["shared"], group_size=3), "group_size"),
    ],
)
def test_config_dataclasses_reject_bad_values_by_field(make, bad_field):
    with pytest.raises(ConfigError) as exc:
        make()
    assert [name for name, _ in exc.value.problems] == [bad_field]
    assert str(exc.value).startswith(f"{bad_field}: ")


def test_zero_local_steps_rejected_at_parse_time(tmp_path):
    # zero steps would train nothing: a NaN mean loss and a "diverged" cell
    problems = parse_config(write_cfg(tmp_path, "[federation]\nlocal_steps = 0\n"))[1]
    assert problems == ["[federation] local_steps: need >= 1 or empty, got 0"]


def test_zero_pairs_per_class_rejected_at_parse_time(tmp_path):
    problems = parse_config(write_cfg(tmp_path, "[data]\npairs_per_class = 0\n"))[1]
    assert problems == ["[data] pairs_per_class: need >= 1, got 0"]


def test_non_finite_values_are_reported_not_raised(tmp_path):
    path = write_cfg(
        tmp_path,
        """
        [federation]
        eta = nan

        [grid]
        partitions = shared
        lambdas = nan

        [run]
        share_fraction = nan
        """,
    )
    problems = parse_config(path)[1]
    for key in ("[federation] eta: ", "[grid] lambdas: ", "[run] share_fraction: "):
        assert any(p.startswith(key) for p in problems), (key, problems)


def test_grid_problems_flags_zero_lambda_only_for_correction_modes(tmp_path):
    assert spec_problems(modes=["fedpe"], lambdas=[0.0]) == []
    bad = spec_problems(modes=["fedgc"], lambdas=[0.0])
    assert any("lambda > 0" in p for p in bad)
    bad = spec_problems(modes=["fedcos"], lambdas=[0.0])
    assert any("lambda > 0" in p for p in bad)
    # the per-mode axis is named in the message when it is the culprit
    bad = spec_problems(modes=["fedcos"], lambdas=[1.0], mode_lambdas={"fedcos": [0.0]})
    assert any(p.startswith("mode_lambdas['fedcos']") and "lambda > 0" in p for p in bad)
    path = write_cfg(tmp_path, "[grid]\nmodes = fedcos\nlambdas = 1\nlambdas_fedcos = 0\n")
    assert any(p.startswith("[grid] lambdas_fedcos: ") for p in parse_config(path)[1])
    # a clean per-mode axis rescues a zero in the shared one
    assert spec_problems(modes=["fedgc"], lambdas=[0.0], mode_lambdas={"fedgc": [5.0]}) == []


def test_partition_problems():
    assert partition_spec_problems(["balanced"], 3, 32, 0.25, 2)
    assert partition_spec_problems(["balanced"], 4, 32, 0.25, 2) == []
    assert partition_spec_problems(["lognormal"], 1, 32, 0.25, 2)
    assert partition_spec_problems(["lognormal"], 40, 32, 0.25, 2)
    problems = partition_spec_problems(["shared"], 4, 32, 0.01, 2)
    assert any("rounds to zero" in p for p in problems)
    assert partition_spec_problems(["shared"], 4, 32, 0.25, 9)


@pytest.mark.parametrize("scheme", ["balanced", "lognormal"])
def test_a_federated_grid_refuses_one_identity_per_client(scheme):
    # a one-class loss is constant: with 32 clients on configs/default.cfg,
    # fedpe, fedcos and fedgc all validated and ended at the same accuracy,
    # 0.9187 after 60 rounds, against 0.9906 for centralized
    (problem,) = partition_spec_problems([scheme], 32, 32, 0.25, 2)
    assert problem.startswith(f"partitions: {scheme} gives each of the 32 clients one identity")
    # the shared scheme gives each group member a second identity, a
    # centralized-only grid trains no client, and clients holding one
    # identity next to clients holding more still train
    assert partition_spec_problems(["shared"], 32, 32, 0.25, 2) == []
    base = tiny_spec()
    assert spec_problems(modes=["centralized"], partitions=[scheme],
                         fed=replace(base.fed, num_clients=4)) == []
    assert partition_spec_problems(["lognormal"], 31, 32, 0.25, 2) == []
    shards = datasets.partition_lognormal(
        datasets.generate(datasets.SyntheticSpec(num_classes=32, samples_per_class=8, input_dim=2)), 31, 0
    )
    assert min(len(cl.classes) for cl in shards) == 1 < max(len(cl.classes) for cl in shards)


# ---------------------------------------------------------------- overrides


def test_apply_overrides_replace_axes():
    spec = tiny_spec(modes=["fedpe", "fedgc"], fractions=[0.5, 1.0], lambdas=[1.0, 2.0])
    new, problems = apply_overrides(spec, seed=9, out="elsewhere", mode="fedgc", lam=7.0, fraction=0.5)
    assert problems == []
    assert new.modes == ["fedgc"] and new.lambdas == [7.0] and new.fractions == [0.5]
    assert new.fed.seed == 9 and new.out_dir == "elsewhere"
    assert spec.modes == ["fedpe", "fedgc"]  # original untouched


def test_explicit_lambda_override_clears_per_mode_axes():
    spec = tiny_spec(modes=["fedgc", "fedcos"], mode_lambdas={"fedcos": [1.0]}, lambdas=[50.0])
    new, problems = apply_overrides(spec, lam=3.0)
    assert problems == []
    assert new.mode_lambdas == {} and [c.lam for c in new.grid()] == [3.0, 3.0]
    # without the lambda override the per-mode axis survives
    same, _ = apply_overrides(spec, seed=1)
    assert same.mode_lambdas == {"fedcos": [1.0]}


def test_apply_overrides_rejects_bad_values():
    spec = tiny_spec()
    _, problems = apply_overrides(spec, fraction=1.5)
    assert problems
    _, problems = apply_overrides(spec, mode="fedgc", lam=0.0)
    assert any("lambda > 0" in p for p in problems)


def test_cell_config_and_dataset_follow_the_cell():
    spec = tiny_spec()
    cfg = cell_config(spec, Cell("fedgc", 0.5, 9.0, "balanced"))
    assert (cfg.mode, cfg.participation, cfg.lam) == ("fedgc", 0.5, 9.0)
    ds_a = make_dataset(spec, cfg)
    ds_b = make_dataset(spec, replace(cfg, seed=cfg.seed + 1))
    assert not np.array_equal(ds_a.train_x, ds_b.train_x)


# ---------------------------------------------------------------- training cells


def test_run_cell_metrics_cadence():
    spec = replace(tiny_spec(), eval_every=2)
    cell = Cell("fedpe", 1.0, 0.0, "balanced")
    result = run_cell(spec, cell, make_dataset(spec, cell_config(spec, cell)))
    assert result.status == OK and result.server.round == 3
    assert [m.round for m in result.metrics] == [2, 3]
    for m in result.metrics:
        assert all(np.isfinite(v) for v in asdict(m).values())


def test_single_client_metrics_fall_back_to_all_pairs():
    spec = tiny_spec(fed=replace(tiny_spec().fed, num_clients=1))
    cfg = cell_config(spec, Cell("fedpe", 1.0, 0.0, "balanced"))
    ds = make_dataset(spec, cfg)
    shards = make_partition(ds, "balanced", spec, cfg)
    server, clients = federation.build_federation(shards, ds.input_dim, cfg)
    row = compute_round_metrics(server, clients, cfg, ds, 0.0)
    # no cross-client pairs exist; the reported max is the all-pairs one
    assert np.isfinite(row.cross_client_max_cos)
    assert row.cross_client_max_cos == row.within_client_max_cos


def test_evaluation_forwards_each_nonempty_shard_once(monkeypatch):
    # the combined objective and the anchor distance share one forward per
    # shard; the shared partition of 16 classes over 12 clients leaves 9 and 10 empty
    ds = datasets.generate(
        datasets.SyntheticSpec(num_classes=16, samples_per_class=12, input_dim=5, seed=1)
    )
    shards = datasets.partition_shared(ds, 12, 0.5, seed=5, group_size=2)
    assert [cl.client_id for cl in shards if cl.n_samples == 0] == [9, 10]
    cfg = replace(tiny_spec().fed, num_clients=12, mode="fedgc")
    server, clients = federation.build_federation(shards, ds.input_dim, cfg)
    real, seen = nn.forward, []
    monkeypatch.setattr(nn, "forward", lambda params, x: seen.append(x) or real(params, x))
    compute_round_metrics(server, clients, cfg, ds, 0.0)
    inputs = [cl.x for cl in clients if cl.n_samples] + [ds.test_x]
    assert len(seen) == len(inputs) == 11
    assert all(sum(x is y for x in seen) == 1 for y in inputs)


def test_centralized_evaluation_makes_one_similarity_pass(monkeypatch):
    real, calls = evaluation.embedding_similarity_stats, []

    def counting(emb):
        # the maximum over all pairs: with one column per client every pair is cross-client
        calls.append(real(replace(emb, client_of=np.arange(emb.num_columns)))[0])
        return real(emb)

    monkeypatch.setattr(evaluation, "embedding_similarity_stats", counting)
    spec = replace(tiny_spec(), eval_every=1)
    cell = Cell("centralized", 1.0, 0.0, "balanced")
    result = run_cell(spec, cell, make_dataset(spec, cell_config(spec, cell)))
    assert result.status == OK and len(result.metrics) == 3
    assert len(calls) == 3
    for m, all_pairs in zip(result.metrics, calls):
        # one head: no cross-client pairs, so both sides report all pairs
        assert m.cross_client_max_cos == m.within_client_max_cos == all_pairs


def test_divergent_cell_is_reported_not_raised():
    spec = replace(tiny_spec(fed=replace(tiny_spec().fed, eta=1e6, rounds=6)), eval_every=1)
    cell = Cell("fedpe", 1.0, 0.0, "balanced")
    result = run_cell(spec, cell, make_dataset(spec, cell_config(spec, cell)))
    assert result.status == DIVERGED
    for m in result.metrics:  # rows recorded before the blow-up stay finite
        assert all(np.isfinite(v) for v in asdict(m).values())


def test_program_error_propagates_instead_of_diverging(monkeypatch):
    # only non-finite training state is divergence; any other ValueError is a bug
    spec = replace(tiny_spec(), eval_every=10)
    cell = Cell("fedpe", 1.0, 0.0, "balanced")
    ds = make_dataset(spec, cell_config(spec, cell))

    def broken(*args, **kwargs):
        raise ValueError("backbone structure mismatch")

    monkeypatch.setattr(federation, "aggregate_theta", broken)
    with pytest.raises(ValueError, match="structure mismatch"):
        run_cell(spec, cell, ds)
    monkeypatch.setattr(federation, "local_sgd", broken)
    with pytest.raises(ValueError, match="structure mismatch"):
        run_cell(spec, replace(cell, mode="centralized"), ds)


def test_run_cell_centralized(tmp_path):
    spec = tiny_spec(tmp_path, modes=["centralized"])
    cell = Cell("centralized", 1.0, 0.0, "balanced")
    dataset = make_dataset(spec, cell_config(spec, cell))
    result = run_cell(spec, cell, dataset)
    assert result.status == OK
    assert result.server.columns(0) == slice(0, 4)
    assert result.rounds_completed == 3
    cell_dir = experiments.write_cell_outputs(spec, result, dataset)
    features, labels = nn.read_tensors(f"{cell_dir}/test_features.fgc")
    assert features.shape == (4 * 2, spec.fed.embedding_dim)
    np.testing.assert_array_equal(labels, dataset.test_y)
    assert np.isfinite(result.final_accuracy)


# ---------------------------------------------------------------- experiment driver


def test_run_experiment_outputs_and_exit_code(tmp_path):
    spec = tiny_spec(tmp_path / "out", modes=["fedpe", "fedgc", "centralized"])
    lines = []
    assert run_experiment(spec, make_dataset(spec, spec.fed), echo=lines.append) == 0
    assert len(lines) == 4  # one per cell + summary pointer
    for cell in spec.grid():
        cell_dir = tmp_path / "out" / cell.name
        rows = [json.loads(l) for l in (cell_dir / "metrics.jsonl").read_text().splitlines()]
        assert [r["round"] for r in rows] == [2, 3]
        assert (cell_dir / "checkpoint" / "manifest.json").exists()
        assert (cell_dir / "similarity_cross.csv").read_text().startswith("bin_left,count")
        assert (cell_dir / "test_features.fgc").exists()
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("mode,fraction,lambda,partition,status")
    assert len(summary) == 1 + 3
    assert all(",ok," in line for line in summary[1:])


@pytest.mark.parametrize("rounds, eta, rows", [(0, 0.05, 0), (3, 0.05, 3), (6, 1e6, 3)])
def test_histograms_are_binned_once_from_the_final_stack(tmp_path, monkeypatch, rounds, eta, rows):
    # a metrics row takes the two maxima only; write_cell_outputs bins an ok
    # cell's final stack once, and a diverged cell writes no histograms
    calls = []
    for name in ("embedding_similarity_stats", "similarity_histograms"):
        real = getattr(evaluation, name)
        monkeypatch.setattr(
            evaluation, name, lambda emb, name=name, real=real: calls.append(name) or real(emb)
        )
    fed = replace(tiny_spec().fed, rounds=rounds, eta=eta)
    spec = replace(tiny_spec(tmp_path / "out", fed=fed, modes=["fedgc"]), eval_every=1)
    cell = spec.grid()[0]
    dataset = make_dataset(spec, cell_config(spec, cell))
    result = run_cell(spec, cell, dataset)
    assert result.status == (OK if eta < 1 else DIVERGED) and len(result.metrics) == rows
    # eval_every = 1: every round reached takes a row, the diverged cell's rejected one too
    taken = ["embedding_similarity_stats"] * result.rounds_completed
    assert calls == taken
    cell_dir = experiments.write_cell_outputs(spec, result, dataset)
    assert calls == taken + (["similarity_histograms"] if result.status == OK else [])
    if result.status == DIVERGED:
        assert not [name for name in os.listdir(cell_dir) if name.startswith("similarity")]
        return
    for side, counts in zip(("cross", "within"), similarity_histograms(result.server.embeddings)):
        with open(f"{cell_dir}/similarity_{side}.csv") as fh:
            written = list(csv.reader(fh))[1:]
        assert [int(count) for _, count in written] == counts.tolist()


def test_run_experiment_holds_one_cell_at_a_time(tmp_path, monkeypatch):
    # a finished cell keeps only its summary row: its server, clients and
    # metrics rows are gone before the next cell trains and after the run
    refs, starts = [], []
    real_write, real_run = experiments.write_cell_outputs, experiments.run_cell

    def write(spec, result, dataset):
        objects = [result.server, *result.clients, *result.metrics]
        refs.append([weakref.ref(o) for o in objects])
        return real_write(spec, result, dataset)

    def run(*args):
        gc.collect()
        starts.append([r() is not None for cell_refs in refs for r in cell_refs])
        return real_run(*args)

    monkeypatch.setattr(experiments, "write_cell_outputs", write)
    monkeypatch.setattr(experiments, "run_cell", run)
    spec = tiny_spec(tmp_path / "out", modes=["fedgc", "fedpe"])
    assert run_experiment(spec, make_dataset(spec, spec.fed)) == 0
    gc.collect()
    # server, two clients and the rows of rounds 2 and 3
    assert len(refs) == 2 and len(refs[0]) == 5
    assert starts == [[], [False] * 5]
    assert all(r() is None for cell_refs in refs for r in cell_refs)


def test_run_experiment_bitwise_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        spec = tiny_spec(tmp_path / name, modes=["fedgc"])
        run_experiment(spec, make_dataset(spec, spec.fed))
        cell_dir = tmp_path / name / spec.grid()[0].name
        outs.append(
            (
                (tmp_path / name / "summary.csv").read_bytes(),
                (cell_dir / "metrics.jsonl").read_bytes(),
                (cell_dir / "checkpoint" / "backbone.fgc").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_run_experiment_exit_2_when_everything_diverges(tmp_path, monkeypatch):
    # a diverged cell reports the round it reached: the round of the last
    # state a round step returned, for federated and centralized cells alike
    reached = {}
    for name, mode in (("run_round", "fedpe"), ("centralized_round", "centralized")):

        def spy(*args, _step=getattr(federation, name), _mode=mode):
            server, loss = _step(*args)
            reached[_mode] = server.round
            return server, loss

        monkeypatch.setattr(federation, name, spy)
    spec = tiny_spec(tmp_path / "bad", modes=["fedpe", "centralized"])
    spec = replace(spec, fed=replace(spec.fed, eta=1e6, rounds=6))
    assert run_experiment(spec, make_dataset(spec, spec.fed)) == 2
    with open(tmp_path / "bad" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["mode"] for row in rows] == ["fedpe", "centralized"]
    for row in rows:
        assert row["status"] == DIVERGED
        stopped = reached.get(row["mode"], 0)
        assert 0 < stopped < spec.fed.rounds
        assert int(row["rounds_completed"]) == stopped


def _written_grid(spec: ExperimentSpec, out_dir) -> tuple[int, list[str], dict]:
    """run_experiment into out_dir on freshly drawn data: the exit code, the
    summary.csv statuses and the digest of every file written."""
    spec = replace(spec, out_dir=str(out_dir))
    code = run_experiment(spec, make_dataset(spec, spec.fed))
    with open(f"{out_dir}/summary.csv", newline="") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    return code, statuses, golden.output_digests(out_dir)


# one value each that a field, an axis or the data refuses; a draw takes at most one
_REFUSED = [
    ("data", {"num_classes": 1}), ("data", {"samples_per_class": 7}), ("data", {"pairs_per_class": 0}),
    ("data", {"class_center_scale": 1e308}), ("data", {"cluster_std": 1e308}),
    ("fed", {"num_clients": 0}), ("fed", {"eta": 0.0}), ("fed", {"local_steps": 0}),
    ("fed", {"batch_size": 0}), ("fed", {"momentum": 1.0}), ("fed", {"hidden_dim": 0}),
    ("data", {"seed": -1}), ("fed", {"seed": -1}),
    ("grid", {"modes": []}), ("grid", {"fractions": [0.0]}), ("grid", {"partitions": ["bogus"]}),
    ("grid", {"partitions": ["shared"], "share_fraction": 1.0}),
    ("grid", {"partitions": ["shared"], "group_size": 1}), ("grid", {"eval_every": 0}),
]


# every config key at tiny sizes; derandomized, so Tier-1 takes the same
# draws on every run
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=st.fixed_dictionaries({
        "num_classes": st.integers(2, 6), "samples_per_class": st.integers(8, 9),
        "input_dim": st.integers(1, 3), "cluster_std": st.sampled_from([0.5, 2.0, 0.0]),
        "class_center_scale": st.sampled_from([2.0, 0.5, 0.0]), "pairs_per_class": st.integers(1, 2),
    }),
    fed=st.fixed_dictionaries({
        "num_clients": st.integers(1, 4), "eta": st.sampled_from([0.05, 1e6]),
        "rounds": st.integers(0, 3), "local_steps": st.sampled_from([None, 2]),
        "batch_size": st.integers(1, 9), "momentum": st.sampled_from([0.0, 0.9]),
        "weight_decay": st.sampled_from([0.0, 5e-4]), "hidden_dim": st.integers(1, 3),
        "embedding_dim": st.integers(1, 3), "seed": st.integers(0, 3),
        "loss": st.sampled_from([LossSpec.softmax(), LossSpec.cosface(), LossSpec.arcface()]),
    }),
    grid=st.fixed_dictionaries({
        "modes": st.lists(st.sampled_from(federation.MODES), min_size=1, max_size=2, unique=True),
        "fractions": st.lists(st.sampled_from([0.5, 1.0]), min_size=1, max_size=2, unique=True),
        "lambdas": st.lists(st.sampled_from([0.0, 1.0, 1e4]), min_size=1, max_size=2, unique=True),
        "partitions": st.lists(st.sampled_from(["balanced", "lognormal", "shared"]),
                               min_size=1, max_size=2, unique=True),
        "share_fraction": st.sampled_from([0.0, 0.3, 0.6]), "group_size": st.integers(2, 3),
        "eval_every": st.integers(1, 2),
    }),
    refused=st.one_of(st.none(), st.none(), st.sampled_from(_REFUSED)),
)
# a negative seed passed the dataclasses, and numpy's SeedSequence raised a
# ValueError when the data was drawn; pinned, as the draws skip most of _REFUSED
@example(
    data={"num_classes": 2, "samples_per_class": 8, "input_dim": 1},
    fed={"num_clients": 1, "rounds": 1},
    grid={"modes": ["fedpe"], "fractions": [1.0], "lambdas": [1.0], "partitions": ["balanced"]},
    refused=("fed", {"seed": -1}),
)
def test_a_config_is_refused_when_built_or_every_cell_ends_ok_or_diverged(data, fed, grid, refused):
    # no other exception may escape a run, and a rerun writes the same bytes
    if refused is not None:
        section, changes = refused
        {"data": data, "fed": fed, "grid": grid}[section].update(changes)
    try:
        spec = ExperimentSpec(
            fed=federation.FederationConfig(**fed),
            data=datasets.SyntheticSpec(**data),
            out_dir="unused",
            **grid,
        )
        make_dataset(spec, spec.fed)
    except ConfigError:
        return
    assert refused is None
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (_written_grid(spec, f"{tmp}/{name}") for name in ("a", "b"))
    code, statuses, _ = first
    assert len(statuses) == len(spec.grid()) and set(statuses) <= {OK, DIVERGED}
    assert code == (0 if OK in statuses else 2)
    assert first == second


# valid, and with 64 centres drawn, so both 1e308 scales overflow at seed 0
_TINY = {
    "data": {"num_classes": 4, "samples_per_class": 8, "input_dim": 16},
    "fed": {"num_clients": 2, "rounds": 1},
    "grid": {"modes": ["fedpe"], "fractions": [1.0], "lambdas": [1.0], "partitions": ["balanced"]},
}
# finite scales pass the spec's rules; their draws leave float64's range
_REFUSED_WHEN_DRAWN = [("data", {"class_center_scale": 1e308}), ("data", {"cluster_std": 1e308})]


def _tiny_spec(section="data", changes=()):
    parts = {name: dict(part) for name, part in _TINY.items()}
    parts[section].update(changes)
    return ExperimentSpec(
        fed=federation.FederationConfig(**parts["fed"]),
        data=datasets.SyntheticSpec(**parts["data"]),
        out_dir="unused",
        **parts["grid"],
    )


@pytest.mark.parametrize("refused", _REFUSED, ids=str)
def test_every_refusal_names_its_field_on_one_tiny_config(refused):
    # the fuzz above draws only some of _REFUSED; here each entry is refused once
    spec = _tiny_spec()
    make_dataset(spec, spec.fed)
    section, changes = refused
    if refused in _REFUSED_WHEN_DRAWN:
        spec = _tiny_spec(section, changes)
        with pytest.raises(ConfigError) as info:
            make_dataset(spec, spec.fed)
    else:
        with pytest.raises(ConfigError) as info:
            _tiny_spec(section, changes)
    # an entry's last key is the value refused; the others only make it reachable
    assert [name for name, _ in info.value.problems] == [list(changes)[-1]]


# ---------------------------------------------------------------- check suite


def test_verification_suite_smoke():
    rows = verification_suite(seed=1, instances=2)
    assert len(rows) == 14
    names = [r.name for r in rows]
    assert len(set(names)) == 14
    for row in rows:
        assert row.passed, f"{row.name}: {row.max_err} > {row.tol}"
        assert row.max_err <= row.tol
