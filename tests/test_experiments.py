"""Config parsing, grid expansion, cell training, outputs, and the check suite."""

import csv
import json
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from fedgc import data as datasets
from fedgc import evaluation, experiments, federation
from fedgc.config import ConfigError
from fedgc.experiments import (
    DIVERGED,
    OK,
    Cell,
    ExperimentSpec,
    apply_overrides,
    cell_config,
    compute_round_metrics,
    default_spec,
    make_dataset,
    make_partition,
    parse_config,
    run_cell,
    run_experiment,
    train_centralized,
    train_federated,
    validate_config,
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
        data=datasets.SyntheticSpec(num_classes=4, samples_per_class=8, input_dim=4, seed=3),
        modes=["fedpe"],
        fractions=[1.0],
        lambdas=[1.0],
        partitions=["balanced"],
        out_dir=str(out_dir),
        eval_every=2,
        pairs_per_class=2,
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
    assert any("loss_margin" in p for p in validate_config(path))


def test_shipped_preset_configs_validate():
    import glob

    paths = sorted(glob.glob("configs/*.cfg"))
    assert len(paths) == 5
    for path in paths:
        assert validate_config(path) == [], path


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
            class_center_scale=5.0, seed=0,
        ),
        modes=["fedpe", "fedgc"],
        fractions=[1.0],
        lambdas=[20.0],
        partitions=["balanced"],
        out_dir="runs/out",
        eval_every=10,
        pairs_per_class=10,
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
    problems = validate_config(write_cfg(tmp_path, "[federation]\nlocal_steps = 0\n"))
    assert problems == ["[federation] local_steps: need >= 1 or empty, got 0"]


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
    problems = validate_config(path)
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
    assert any(p.startswith("[grid] lambdas_fedcos: ") for p in validate_config(path))
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


def test_default_spec_is_internally_consistent():
    spec = default_spec()  # constructing checks the base config and the whole grid
    for cell in spec.grid():
        cell_config(spec, cell)  # and every cell's config constructs
    lams = {c.mode: c.lam for c in spec.grid()}
    assert lams["fedgc"] == 50.0 and lams["fedcos"] == 1.0


def test_cell_config_and_dataset_follow_the_cell():
    spec = tiny_spec()
    cfg = cell_config(spec, Cell("fedgc", 0.5, 9.0, "balanced"))
    assert (cfg.mode, cfg.participation, cfg.lam) == ("fedgc", 0.5, 9.0)
    ds_a = make_dataset(spec, cfg)
    ds_b = make_dataset(spec, replace(cfg, seed=cfg.seed + 1))
    assert not np.array_equal(ds_a.train_x, ds_b.train_x)


# ---------------------------------------------------------------- training cells


def test_train_federated_metrics_cadence():
    spec = tiny_spec()
    cfg = cell_config(spec, Cell("fedpe", 1.0, 0.0, "balanced"))
    ds = make_dataset(spec, cfg)
    part, shards = make_partition(ds, "balanced", spec, cfg)
    status, metrics, server, _ = train_federated(ds, part, shards, cfg, eval_every=2)
    assert status == OK and server.round == 3
    assert [m.round for m in metrics] == [2, 3]
    for m in metrics:
        assert all(np.isfinite(v) for v in m.to_dict().values())


def test_single_client_metrics_fall_back_to_all_pairs():
    spec = tiny_spec(fed=replace(tiny_spec().fed, num_clients=1))
    cfg = cell_config(spec, Cell("fedpe", 1.0, 0.0, "balanced"))
    ds = make_dataset(spec, cfg)
    part, shards = make_partition(ds, "balanced", spec, cfg)
    server, clients = federation.build_federation(shards, ds.input_dim, cfg)
    row = compute_round_metrics(server, clients, cfg, ds, 0.0)
    # no cross-client pairs exist; the reported max is the all-pairs one
    assert np.isfinite(row.cross_client_max_cos)
    assert row.cross_client_max_cos == row.within_client_max_cos


def test_centralized_evaluation_makes_one_similarity_pass(monkeypatch):
    real, calls = evaluation.embedding_similarity_stats, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "embedding_similarity_stats", counting)
    spec = tiny_spec()
    cfg = cell_config(spec, Cell("centralized", 1.0, 0.0, "balanced"))
    status, metrics, _, _ = train_centralized(make_dataset(spec, cfg), cfg, eval_every=1)
    assert status == OK and len(metrics) == 3
    assert len(calls) == 3
    for m in metrics:  # one head: no cross-client pairs, so both sides report all pairs
        assert m.cross_client_max_cos == m.within_client_max_cos == m.similarity.all_pairs_max_cos


def test_divergent_cell_is_reported_not_raised():
    spec = tiny_spec(fed=replace(tiny_spec().fed, eta=1e6, rounds=6))
    cfg = cell_config(spec, Cell("fedpe", 1.0, 0.0, "balanced"))
    ds = make_dataset(spec, cfg)
    part, shards = make_partition(ds, "balanced", spec, cfg)
    status, metrics, _, _ = train_federated(ds, part, shards, cfg, eval_every=1)
    assert status == DIVERGED
    for m in metrics:  # rows recorded before the blow-up stay finite
        assert all(np.isfinite(v) for v in m.to_dict().values())


def test_program_error_propagates_instead_of_diverging(monkeypatch):
    # only non-finite training state is divergence; any other ValueError is a bug
    spec = tiny_spec()
    cfg = cell_config(spec, Cell("fedpe", 1.0, 0.0, "balanced"))
    ds = make_dataset(spec, cfg)
    part, shards = make_partition(ds, "balanced", spec, cfg)

    def broken(*args, **kwargs):
        raise ValueError("backbone structure mismatch")

    monkeypatch.setattr(federation, "aggregate_theta", broken)
    with pytest.raises(ValueError, match="structure mismatch"):
        train_federated(ds, part, shards, cfg)
    monkeypatch.setattr(federation, "local_sgd", broken)
    with pytest.raises(ValueError, match="structure mismatch"):
        train_centralized(ds, replace(cfg, mode="centralized"))


def test_run_cell_centralized():
    spec = tiny_spec(modes=["centralized"])
    result = run_cell(spec, Cell("centralized", 1.0, 0.0, "balanced"))
    assert result.status == OK
    assert result.server.head_slices == [slice(0, 4)]
    assert result.rounds_completed == 3
    assert result.test_features.shape == (4 * 2, spec.fed.embedding_dim)
    assert np.isfinite(result.final_accuracy)


# ---------------------------------------------------------------- experiment driver


def test_run_experiment_outputs_and_exit_code(tmp_path):
    spec = tiny_spec(tmp_path / "out", modes=["fedpe", "fedgc", "centralized"])
    lines = []
    assert run_experiment(spec, echo=lines.append) == 0
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


def test_run_experiment_generates_each_dataset_once(tmp_path, monkeypatch):
    calls = []
    real = experiments.make_dataset
    monkeypatch.setattr(experiments, "make_dataset", lambda *a: calls.append(a) or real(*a))
    spec = tiny_spec(tmp_path / "out", modes=["fedpe", "centralized"])
    assert run_experiment(spec) == 0
    assert len(calls) == len(spec.grid())


@pytest.mark.parametrize("rounds", [0, 3])
def test_histograms_come_from_the_last_evaluation(tmp_path, monkeypatch, rounds):
    # the final state's similarity statistics are computed once: by the last
    # evaluation, or by write_cell_outputs when no round was evaluated
    calls = []
    real = evaluation.embedding_similarity_stats
    monkeypatch.setattr(
        evaluation, "embedding_similarity_stats", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    spec = tiny_spec(tmp_path / "out", fed=replace(tiny_spec().fed, rounds=rounds), modes=["fedgc"])
    cell = spec.grid()[0]
    dataset = make_dataset(spec, cell_config(spec, cell))
    result = run_cell(spec, cell, dataset)
    cell_dir = experiments.write_cell_outputs(spec, result, dataset)
    assert len(result.metrics) == (2 if rounds else 0)
    assert len(calls) == max(1, len(result.metrics))
    fresh = real(result.server.embeddings)
    for side, counts in (("cross", fresh.cross_hist), ("within", fresh.within_hist)):
        with open(f"{cell_dir}/similarity_{side}.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(count) for _, count in rows] == counts.tolist()


def test_run_experiment_bitwise_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        spec = tiny_spec(tmp_path / name, modes=["fedgc"])
        run_experiment(spec)
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
    assert run_experiment(spec) == 2
    with open(tmp_path / "bad" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["mode"] for row in rows] == ["fedpe", "centralized"]
    for row in rows:
        assert row["status"] == DIVERGED
        stopped = reached.get(row["mode"], 0)
        assert 0 < stopped < spec.fed.rounds
        assert int(row["rounds_completed"]) == stopped


# ---------------------------------------------------------------- check suite


def test_verification_suite_smoke():
    rows = verification_suite(seed=1, instances=2)
    assert len(rows) == 14
    names = [r.name for r in rows]
    assert len(set(names)) == 14
    for row in rows:
        assert row.passed, f"{row.name}: {row.max_err} > {row.tol}"
        assert row.max_err <= row.tol
