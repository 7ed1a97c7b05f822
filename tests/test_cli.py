"""Command-line interface: subcommands, overrides, and exit codes."""

import csv
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import golden

from fedgc import cli, evaluation, experiments, federation, gradcheck, nn
from fedgc.regularizers import RegGrad, StackedEmbeddings


TINY_CFG = """
    [data]
    num_classes = 4
    samples_per_class = 8
    input_dim = 4

    [federation]
    num_clients = 2
    eta = 0.05
    rounds = 2
    hidden_dim = 8
    embedding_dim = 4
    seed = 3

    [grid]
    modes = fedpe
    lambdas = 1

    [run]
    eval_every = 2
    out_dir = {out}
"""


def write_tiny(tmp_path, **fmt):
    fmt.setdefault("out", str(tmp_path / "out"))
    path = tmp_path / "tiny.cfg"
    path.write_text(textwrap.dedent(TINY_CFG).format(**fmt))
    return path


def test_validate_ok(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert cli.main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_problems_with_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nmodes = warp\nfractions = 2\n")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "warp" in err and "fractions" in err


def test_validate_rejects_a_group_larger_than_a_class(tmp_path, capsys):
    # 8 samples per class leave 6 training rows, too few for groups of 7
    path = write_tiny(tmp_path)
    text = path.read_text().replace("num_clients = 2", "num_clients = 8")
    text = text.replace("modes = fedpe", "modes = fedpe\npartitions = shared")
    path.write_text(text.replace("num_classes = 4", "num_classes = 16") + "group_size = 7\n")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "[run] group_size: need <= 6 training rows per class, got 7" in err


def test_validate_accepts_fedcos_on_a_shared_partition(tmp_path, capsys):
    # both penalties take their pairs from one ownership rule, so the cosine
    # penalty leaves the copies of a shared identity together too
    path = write_tiny(tmp_path)
    text = path.read_text().replace("num_clients = 2", "num_clients = 4")
    text = text.replace("modes = fedpe", "modes = fedpe, fedcos\npartitions = shared")
    path.write_text(text.replace("num_classes = 4", "num_classes = 8"))
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["run", str(path), "--mode", "fedcos"]) == 0
    assert "fedcos_f1_l1_shared: ok" in capsys.readouterr().out


def test_validate_rejects_the_removed_correct_all_heads_key(tmp_path, capsys):
    # the server correction always moves the whole stacked matrix; the old
    # opt-out is no config key any more
    path = write_tiny(tmp_path)
    text = path.read_text().replace("seed = 3", "seed = 3\ncorrect_all_heads = no")
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 1
    assert "[federation] correct_all_heads: unknown key" in capsys.readouterr().err


def test_validate_and_run_reject_the_removed_fedpe_fixed_mode(tmp_path, capsys):
    # every local run trains backbone and head; frozen heads are no mode any more
    path = write_tiny(tmp_path)
    assert cli.main(["run", str(path), "--mode", "fedpe_fixed"]) == 1
    assert "[grid] modes: unknown mode 'fedpe_fixed'" in capsys.readouterr().err
    path.write_text(path.read_text().replace("modes = fedpe", "modes = fedpe, fedpe_fixed"))
    assert cli.main(["validate", str(path)]) == 1
    assert "[grid] modes: unknown mode 'fedpe_fixed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("class_center_scale", "-1"), ("class_center_scale", "nan"),
    ("class_center_scale", "inf"), ("cluster_std", "inf"),
])
def test_validate_rejects_a_bad_data_scale(tmp_path, capsys, key, value):
    # a negative scale crashed numpy only when the run drew the data; a NaN or
    # infinite one validated and then diverged every cell at round 0
    path = write_tiny(tmp_path)
    path.write_text(path.read_text().replace("input_dim = 4", f"input_dim = 4\n{key} = {value}"))
    assert cli.main(["validate", str(path)]) == 1
    assert f"[data] {key}: need in [0, inf)" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, refusal", [
    ("lambdas = 1", "lambdas = inf", "[grid] lambdas: need in [0, inf), got inf"),
    ("eta = 0.05", "eta = inf", "[federation] eta: need in (0, inf), got inf"),
    ("seed = 3", "seed = 3\nweight_decay = inf", "[federation] weight_decay: need in [0, inf), got inf"),
    ("seed = 3", "seed = 3\nloss = cosface\nloss_scale = inf",
     "[federation] loss_scale: need in (0, inf), got inf"),
    ("seed = 3", "seed = 3\nloss = cosface\nloss_margin = inf",
     "[federation] loss_margin: need in [0, inf), got inf"),
])
def test_validate_rejects_an_infinite_hyperparameter(tmp_path, capsys, old, new, refusal):
    # on configs/default.cfg each validated, and then the fedgc cell diverged
    # at round 1 (lambdas) or every cell at round 0 (the others)
    path = write_tiny(tmp_path)
    path.write_text(path.read_text().replace(old, new))
    assert cli.main(["validate", str(path)]) == 1
    assert f"config error: {refusal}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key", ["class_center_scale", "cluster_std"])
def test_run_refuses_a_data_scale_whose_draws_overflow(tmp_path, capsys, key, command):
    # 1e308 is a valid scale, but some of its draws overflow float64; the run
    # reported every cell diverged at round 0 and exited 2, and validate,
    # which drew no data, said ok
    path = write_tiny(tmp_path)
    path.write_text(path.read_text().replace("input_dim = 4", f"input_dim = 4\n{key} = 1e308"))
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert f"config error: [data] {key}: draws overflow float64 at 1e+308" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_run_and_validate_draw_one_read_only_dataset(tmp_path, monkeypatch, command):
    # both commands draw the data through one path; one read-only dataset
    # serves every cell of a run's grid
    made = []
    real = experiments.make_dataset
    monkeypatch.setattr(experiments, "make_dataset", lambda *a: made.append(real(*a)) or made[-1])
    path = write_tiny(tmp_path)
    path.write_text(path.read_text().replace("modes = fedpe", "modes = fedpe, centralized"))
    assert cli.main([command, str(path)]) == 0
    assert len(made) == 1
    assert (tmp_path / "out" / "summary.csv").exists() == (command == "run")
    ds = made[0]
    for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y, ds.centers,
              ds.pairs.idx_a, ds.pairs.idx_b, ds.pairs.same):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_all_zero_data_is_refused_at_parse_time(tmp_path, capsys, command):
    # both scales 0 make every sample the zero vector: the run reported every
    # CosFace cell diverged at round 0, and every softmax cell ok at 0.5
    path = write_tiny(tmp_path)
    path.write_text(path.read_text().replace(
        "input_dim = 4", "input_dim = 4\ncluster_std = 0\nclass_center_scale = 0"))
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: [data] cluster_std: need > 0 when class_center_scale = 0" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_one_identity_per_client_is_refused_at_parse_time(tmp_path, capsys, command):
    # every client of this grid holds one identity, so its local loss is
    # constant; fedpe, fedcos and fedgc validated and then trained nothing
    path = tmp_path / "one.cfg"
    text = (golden.CONFIG_DIR / "default.cfg").read_text()
    path.write_text(text.replace("num_clients = 8", "num_clients = 32").replace(
        "out_dir = runs/default", f"out_dir = {tmp_path / 'out'}"))
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: [grid] partitions: balanced gives each of the 32 clients one identity" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, override", [("validate", []), ("run", []), ("run", ["--seed", "-1"])])
def test_a_negative_seed_is_refused_at_parse_time(tmp_path, capsys, command, override):
    # numpy's SeedSequence raised "expected non-negative integer" from data.generate
    path = write_tiny(tmp_path)
    if not override:
        path.write_text(path.read_text().replace("seed = 3", "seed = -1"))
    assert cli.main([command, str(path), *override]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: [federation] seed: need >= 0, got -1\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]


def test_run_trains_and_writes_outputs(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fedpe_f1_l1_balanced: ok" in out
    assert (tmp_path / "out" / "summary.csv").exists()


def test_run_overrides_change_the_grid(tmp_path, capsys):
    path = write_tiny(tmp_path)
    code = cli.main(
        ["run", str(path), "--mode", "fedgc", "--lambda", "2.5",
         "--fraction", "0.5", "--seed", "9", "--out", str(tmp_path / "o2")]
    )
    assert code == 0
    assert "fedgc_f0.5_l2.5_balanced: ok" in capsys.readouterr().out
    assert (tmp_path / "o2" / "fedgc_f0.5_l2.5_balanced" / "metrics.jsonl").exists()


def test_run_rejects_bad_override(tmp_path, capsys):
    path = write_tiny(tmp_path)
    assert cli.main(["run", str(path), "--mode", "fedgc", "--lambda", "0"]) == 1
    assert "lambda > 0" in capsys.readouterr().err


def test_run_missing_config_exits_1(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_reruns_byte_identical(tmp_path):
    # every file by relative path and bytes: a timestamp or a timing side file
    # in a cell directory would differ between the two runs
    trees = []
    for name in ("r1", "r2"):
        path = write_tiny(tmp_path, out=str(tmp_path / name))
        assert cli.main(["run", str(path)]) == 0
        trees.append(golden.output_digests(tmp_path / name))
    assert "fedpe_f1_l1_balanced/checkpoint/head_001.fgc" in trees[0]
    assert "fedpe_f1_l1_balanced/test_features.fgc" in trees[0]
    assert trees[0] == trees[1]


def test_traced_functions_are_called_as_the_grid_implies(tmp_path, monkeypatch):
    # an outside tracer wraps these by name in every fedgc module that holds
    # them and checks each one's call count against what the config implies
    traced = {"federation": ("client_update", "correction_step"),
              "experiments": ("compute_round_metrics",)}
    calls = Counter()

    def counting(name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            calls[name, signature.bind(*args, **kwargs).arguments["cfg"].mode] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for module, names in traced.items():
        for name in names:
            fn = getattr(importlib.import_module(f"fedgc.{module}"), name)
            wrappers[id(fn)] = fn, counting(name, fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "fedgc" or mod_name.startswith("fedgc."):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(module, attr, hit[1])

    path = write_tiny(tmp_path)
    text = path.read_text().replace("num_clients = 2", "num_clients = 4")
    text = text.replace("num_classes = 4", "num_classes = 8").replace("rounds = 2", "rounds = 5")
    path.write_text(text.replace("modes = fedpe", "modes = fedpe, fedgc, fedcos, centralized\nfractions = 0.5"))
    assert cli.main(["run", str(path)]) == 0
    # 5 rounds of ceil(0.5 * 4) = 2 clients; eval_every = 2 evaluates rounds 2, 4 and 5
    for mode in ("fedpe", "fedgc", "fedcos", "centralized"):
        assert calls["client_update", mode] == (0 if mode == "centralized" else 5 * 2), mode
        assert calls["correction_step", mode] == (5 if mode in ("fedgc", "fedcos") else 0), mode
        assert calls["compute_round_metrics", mode] == 3, mode


def assert_outputs_prove_themselves(config, out_dir):
    """Check a `fedgc run --seed 0` output tree against itself and the config alone.

    Each summary.csv row matches its cell's last metrics row. In each ok
    cell, the data regenerated from the config, the regenerated partition
    and the checkpoint give that metrics row byte for byte, the histograms
    and the test features bit for bit, and the manifest's clients and
    shared groups are the partition's.
    """
    spec, problems = experiments.parse_config(config)
    assert not problems
    spec = replace(spec, fed=replace(spec.fed, seed=0))
    dataset = experiments.make_dataset(spec, spec.fed)
    with open(out_dir / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [(r["mode"], float(r["fraction"]), float(r["lambda"]), r["partition"]) for r in summary] == [
        (c.mode, c.fraction, c.lam, c.partition) for c in spec.grid()
    ]
    for row, cell in zip(summary, spec.grid()):
        cell_dir = out_dir / cell.name
        lines = (cell_dir / "metrics.jsonl").read_text().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        finals = [last.get("verification_accuracy", math.nan), last.get("cross_client_max_cos", math.nan)]
        assert [row["final_accuracy"], row["final_cross_client_max_cos"]] == [repr(v) for v in finals]
        if row["status"] != experiments.OK:
            continue
        cfg = experiments.cell_config(spec, cell)
        if cfg.mode == "centralized":
            clients = [federation.build_centralized(dataset, cfg)[1]]
        else:
            clients = experiments.make_partition(dataset, cell.partition, spec, cfg)
        theta, heads, manifest = federation.load_checkpoint(cell_dir / "checkpoint")
        assert int(row["rounds_completed"]) == manifest["round"] == last["round"] == cfg.rounds
        assert manifest["clients"] == [
            {"id": cl.client_id, "num_classes": len(cl.classes), "classes": list(map(int, cl.classes)),
             "n_samples": cl.n_samples} for cl in clients
        ]
        holders = {}
        for cl in clients:
            for cls in cl.classes:
                holders.setdefault(int(cls), []).append(cl.client_id)
        assert sorted(manifest["shared_groups"]) == sorted([c, ks] for c, ks in holders.items() if len(ks) > 1)
        emb = StackedEmbeddings(
            np.concatenate([heads[cl.client_id] for cl in clients], axis=1),
            np.concatenate([[cl.client_id] * len(cl.classes) for cl in clients]),
            class_of=np.concatenate([cl.classes for cl in clients]),
        )
        server = federation.ServerState(theta, emb, manifest["round"])
        again = experiments.compute_round_metrics(server, clients, cfg, dataset, last["mean_local_loss"])
        assert json.dumps(asdict(again), sort_keys=True) == lines[-1]
        for side, counts in zip(("cross", "within"), evaluation.similarity_histograms(emb)):
            with open(cell_dir / f"similarity_{side}.csv", newline="") as fh:
                hist = list(csv.reader(fh))[1:]
            edges = evaluation.SIMILARITY_EDGES[:-1]
            assert hist == [[repr(float(e)), str(int(n))] for e, n in zip(edges, counts)]
        features, labels = nn.read_tensors(cell_dir / "test_features.fgc")
        assert nn.forward(theta, dataset.test_x).tobytes() == features.tobytes()
        assert labels.tobytes() == dataset.test_y.astype(np.float64).tobytes()


@pytest.mark.parametrize("preset", golden.OUTPUT_PRESETS)
def test_golden_digests_of_every_file_a_preset_run_writes(preset, tmp_path):
    """summary.csv, and per cell metrics.jsonl, the checkpoint, the histograms
    and the test features, consistent with one another and with the config,
    and byte for byte as recorded in golden.json."""
    assert golden.run_preset(preset, tmp_path) == 0
    assert_outputs_prove_themselves(golden.CONFIG_DIR / f"{preset}.cfg", tmp_path)
    want = golden.recorded("outputs")[preset]
    moved = golden.moved(want, golden.output_digests(tmp_path))
    assert not moved, f"{len(moved)} of {len(want)} files moved, first: {moved[:5]}"


def test_a_rerun_with_fewer_clients_leaves_no_stale_heads(tmp_path):
    path = write_tiny(tmp_path)
    # 8 identities, so that each of 4 clients holds two
    path.write_text(path.read_text().replace("num_classes = 4", "num_classes = 8"))
    checkpoint = tmp_path / "out" / "fedpe_f1_l1_balanced" / "checkpoint"
    for clients, heads in ((4, 4), (2, 2)):
        path.write_text(re.sub(r"num_clients = \d+", f"num_clients = {clients}", path.read_text()))
        assert cli.main(["run", str(path)]) == 0
        assert sorted(p.name for p in checkpoint.glob("head_*.fgc")) == [
            f"head_{k:03d}.fgc" for k in range(heads)
        ]


def test_run_exit_2_when_all_cells_diverge(tmp_path, capsys):
    path = tmp_path / "explode.cfg"
    path.write_text(
        textwrap.dedent(TINY_CFG).format(out=str(tmp_path / "boom")).replace(
            "eta = 0.05", "eta = 1e6"
        ).replace("rounds = 2", "rounds = 6")
    )
    assert cli.main(["run", str(path)]) == 2
    assert "diverged" in capsys.readouterr().out


def test_a_diverged_rerun_removes_the_stale_ok_outputs(tmp_path, capsys):
    path = write_tiny(tmp_path)
    cell = tmp_path / "out" / "fedpe_f1_l1_balanced"
    assert cli.main(["run", str(path)]) == 0
    stale = ["checkpoint", "similarity_cross.csv", "similarity_within.csv", "test_features.fgc"]
    assert all((cell / name).exists() for name in stale)
    # the same cell into the same directory, now diverging
    path.write_text(
        path.read_text().replace("eta = 0.05", "eta = 1e6").replace("rounds = 2", "rounds = 6")
    )
    assert cli.main(["run", str(path)]) == 2
    assert "fedpe_f1_l1_balanced: diverged" in capsys.readouterr().out
    assert [p.name for p in cell.iterdir()] == ["metrics.jsonl"]
    assert "diverged" in (tmp_path / "out" / "summary.csv").read_text()


def test_gradcheck_passes_with_exit_0(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "14/14 checks passed" in out
    assert "FAIL" not in out


def test_gradcheck_refuses_a_negative_seed_before_any_check_runs(monkeypatch, capsys):
    monkeypatch.setattr(gradcheck, "_fd", lambda *args, **kwargs: pytest.fail("a check ran"))
    assert cli.main(["gradcheck", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: seed: need >= 0, got -1\n"
    assert captured.out == ""


def test_gradcheck_exit_3_on_failure(monkeypatch, capsys):
    rows = [gradcheck.CheckRow("synthetic failure", 1.0, 1e-6, False)]
    monkeypatch.setattr(gradcheck, "verification_suite", lambda seed=0: rows)
    assert cli.main(["gradcheck"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 checks passed" in out


def test_a_nan_row_fails_the_suite_and_the_cli(monkeypatch, capsys):
    # the row's hand-written max dropped NaN: an all-NaN direct evaluation passed at 0.0
    def nan_naive(emb):
        return RegGrad(float("nan"), np.full(emb.W.shape, np.nan))

    monkeypatch.setattr(gradcheck, "softmax_reg_naive", nan_naive)
    rows = {r.name: r for r in gradcheck.verification_suite(seed=1, instances=2)}
    row = rows["stable vs direct regularizer evaluation"]
    assert math.isnan(row.max_err) and row.passed is False
    assert sum(not r.passed for r in rows.values()) == 1
    assert cli.main(["gradcheck"]) == 3
    out = capsys.readouterr().out
    assert re.search(r"stable vs direct regularizer evaluation +max_err=nan .*FAIL", out)
    assert "13/14 checks passed" in out


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import fedgc
from fedgc import cli, gradcheck
assert cli.main(["validate", "configs/default.cfg"]) == 0
rows = gradcheck.verification_suite(seed=1, instances=2)
assert len(rows) == 14 and all(r.passed for r in rows), rows
"""


def test_runtime_runs_without_scipy():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY],
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "configs/default.cfg: ok" in proc.stdout


def test_python_dash_m_fedgc_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "fedgc", "validate", "configs/default.cfg"],
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "configs/default.cfg: ok" in proc.stdout


LAZY_GRADCHECK = """
import sys
import fedgc.cli
assert "fedgc.gradcheck" not in sys.modules, "importing the cli loaded the gradcheck suite"
assert fedgc.cli.main(["run", sys.argv[1]]) == 0
assert "fedgc.gradcheck" not in sys.modules, "fedgc run loaded the gradcheck suite"
sys.exit(fedgc.cli.main(["gradcheck"]))
"""


def test_only_gradcheck_loads_the_gradcheck_suite(tmp_path):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_GRADCHECK, str(write_tiny(tmp_path))],
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "14/14 checks passed" in proc.stdout


BARE_IMPORT = """
import os
import sys
import fedgc
loaded = sorted(name for name in sys.modules if name.startswith("fedgc."))
assert not loaded, f"import fedgc loaded {loaded}"
print(os.path.realpath(fedgc.__file__))
"""


def test_package_root_imports_no_submodule():
    # perfbench/workload.py times a bare `import fedgc` and checks that
    # fedgc.__file__ lies under src/, so the root stays a regular package
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", BARE_IMPORT],
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    path = Path(proc.stdout.strip())
    assert path.is_file() and path == (root / "src" / "fedgc" / "__init__.py").resolve()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main([])
