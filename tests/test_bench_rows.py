"""bench/rows.py writes a run whose every row carries its timing, memory and fault fields,
and which records the line count of the source it timed."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "rows.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROW_FIELDS = {"stack", "call", "C", "clients", "d", "median_s", "q1_s", "q3_s", "repeats",
              "tracemalloc_peak_mib", "minor_faults"}
CALLS = ["softmax_reg", "softmax_value", "cosine_reg", "embedding_similarity_stats",
         "similarity_histograms"]


def load_rows(monkeypatch):
    """Import the script as a module; the thread variables and sys.path it sets are undone."""
    for key in THREAD_VARS:  # the script pins these at import; monkeypatch restores them
        monkeypatch.setenv(key, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_rows", SCRIPT)
    rows = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rows)
    assert set(rows.THREAD_ENV) == set(THREAD_VARS)
    return rows


def test_rows_script_writes_every_field_for_a_tiny_stack(tmp_path, monkeypatch):
    rows = load_rows(monkeypatch)
    monkeypatch.setattr(rows, "SIZES", (48,))
    monkeypatch.setattr(rows, "DENSE_MEET", 16)
    monkeypatch.setattr(rows, "REPEATS", 1)
    out = tmp_path / "bench.json"
    for label in ("first", "second"):
        assert rows.main(["--out", str(out), "--label", label]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["runs"]) == ["first", "second"]  # a second label merges, not overwrites
    run = doc["runs"]["second"]
    assert {"git_rev", "nproc", "blas", "threads", "src_lines"} <= set(run)
    # the fedgc/*.py of the default --src, this checkout's src/
    package = SCRIPT.parent.parent / "src" / "fedgc"
    assert run["src_lines"] == sum(p.read_bytes().count(b"\n") for p in package.glob("*.py")) > 0
    assert run["threads"]["OMP_NUM_THREADS"] == "1" and run["nproc"] >= 1
    assert run["blas"]["name"]
    stacks = ["plain_C48", "shared_C48", "dense_meet_16"]
    assert [(r["stack"], r["call"]) for r in run["rows"]] == [(s, c) for s in stacks for c in CALLS]
    for row in run["rows"]:
        assert set(row) == ROW_FIELDS, row
        assert row["repeats"] == 1
        assert 0.0 < row["q1_s"] <= row["median_s"] <= row["q3_s"]
        assert row["tracemalloc_peak_mib"] > 0.0 and row["minor_faults"] >= 0
    assert {r["stack"]: r["C"] for r in run["rows"]} == {
        "plain_C48": 48, "shared_C48": 48, "dense_meet_16": 28
    }
