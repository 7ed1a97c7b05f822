"""Command-line interface: subcommands, overrides, and exit codes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fedgc import cli, gradcheck


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


def test_validate_rejects_the_removed_correct_all_heads_key(tmp_path, capsys):
    # the server correction always moves the whole stacked matrix; the old
    # opt-out is no config key any more
    path = write_tiny(tmp_path)
    text = path.read_text().replace("seed = 3", "seed = 3\ncorrect_all_heads = no")
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 1
    assert "[federation] correct_all_heads: unknown key" in capsys.readouterr().err


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
    blobs = []
    for name in ("r1", "r2"):
        path = write_tiny(tmp_path, out=str(tmp_path / name))
        assert cli.main(["run", str(path)]) == 0
        cell = tmp_path / name / "fedpe_f1_l1_balanced"
        blobs.append((cell / "metrics.jsonl").read_bytes() + (tmp_path / name / "summary.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_run_exit_2_when_all_cells_diverge(tmp_path, capsys):
    path = tmp_path / "explode.cfg"
    path.write_text(
        textwrap.dedent(TINY_CFG).format(out=str(tmp_path / "boom")).replace(
            "eta = 0.05", "eta = 1e6"
        ).replace("rounds = 2", "rounds = 6")
    )
    assert cli.main(["run", str(path)]) == 2
    assert "diverged" in capsys.readouterr().out


def test_gradcheck_passes_with_exit_0(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "14/14 checks passed" in out
    assert "FAIL" not in out


def test_gradcheck_exit_3_on_failure(monkeypatch, capsys):
    rows = [gradcheck.CheckRow("synthetic failure", 1.0, 1e-6, False)]
    monkeypatch.setattr(gradcheck, "verification_suite", lambda seed=0: rows)
    assert cli.main(["gradcheck"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 checks passed" in out


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


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main([])
