"""Config parsing, grid expansion, cell training, outputs, and the check suite."""

import csv
import json
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from fedgc import data as datasets
from fedgc import evaluation, experiments, federation
from fedgc.experiments import (
    DIVERGED,
    OK,
    Cell,
    ExperimentSpec,
    apply_overrides,
    cell_config,
    compute_round_metrics,
    default_spec,
    grid_problems,
    make_dataset,
    make_partition,
    parse_config,
    partition_problems,
    run_cell,
    run_experiment,
    train_centralized,
    train_federated,
    validate_config,
    verification_suite,
)
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
        correct_all_heads = no

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
    assert spec.fed.local_steps is None and spec.fed.correct_all_heads is False
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


def test_grid_problems_flags_zero_lambda_only_for_correction_modes():
    assert grid_problems(["fedpe"], [1.0], [0.0], ["balanced"]) == []
    bad = grid_problems(["fedgc"], [1.0], [0.0], ["balanced"])
    assert any("lambda > 0" in p for p in bad)
    # the per-mode axis is named in the message when it is the culprit
    bad = grid_problems(["fedcos"], [1.0], [1.0], ["balanced"], {"fedcos": [0.0]})
    assert any("lambdas_fedcos" in p for p in bad)
    # a clean per-mode axis rescues a zero in the shared one
    assert grid_problems(["fedgc"], [1.0], [0.0], ["balanced"], {"fedgc": [5.0]}) == []


def test_partition_problems():
    assert partition_problems(["balanced"], 3, 32, 0.25, 2)
    assert partition_problems(["balanced"], 4, 32, 0.25, 2) == []
    assert partition_problems(["lognormal"], 1, 32, 0.25, 2)
    assert partition_problems(["lognormal"], 40, 32, 0.25, 2)
    assert any("rounds to zero" in p for p in partition_problems(["shared"], 4, 32, 0.01, 2))
    assert partition_problems(["shared"], 4, 32, 0.25, 9)


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
    spec = default_spec()
    assert spec.fed.validate() == []
    assert grid_problems(spec.modes, spec.fractions, spec.lambdas, spec.partitions, spec.mode_lambdas) == []
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
    fresh = real(result.server.embeddings, class_of=result.server.class_of)
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
