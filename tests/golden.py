"""Golden digests: what the program writes, pinned byte for byte in tests/golden.json.

The tests hash the runs the acceptance fixtures already make (every cell of
the default, participation and lambda_sweep presets over five seeds), each
demo's stdout and every file `fedgc run` writes for the partition and shared
presets at seed 0, and compare the sha256 digests with the recorded ones.
The `verification_suite` rows are recorded whole, by name, each float as
float.hex, so a moved row is named. A change that moves one bit of any of
them fails here, so a change meant to keep the outputs has to prove it; a
change that moves them on purpose records the file again and names what moved.

The last bit of a float depends on the numpy build and on the BLAS kernel,
so the file is keyed by both; under another key the tests skip and name the
mismatch. To record it, from the repository root:

    PYTHONPATH=src python3 tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().with_name("golden.json")
PRESETS = ("default", "participation", "lambda_sweep")
# presets whose whole `fedgc run` output tree is digested, at seed 0
OUTPUT_PRESETS = ("partition", "shared")
CONFIG_DIR = GOLDEN.parent.parent / "configs"


def platform_key() -> dict:
    """The numpy version and the OpenBLAS build and core the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas.get("openblas configuration", "")}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_bytes(arrays) -> bytes:
    """Shapes and little-endian float64 bytes of each array, in order."""
    out = []
    for a in arrays:
        a = np.asarray(a, dtype="<f8")
        out.append(repr(a.shape).encode() + a.tobytes())
    return b"".join(out)


def cell_digests(preset: str, rows) -> dict:
    """One entry per (seed, cell) of collect()'s rows: the metrics rows as
    metrics.jsonl writes them, the final backbone and the final stacked head."""
    out = {}
    for cell, seed, result in rows:
        lines = "".join(json.dumps(asdict(m), sort_keys=True) + "\n" for m in result.metrics)
        out[f"{preset}/seed{seed}/{cell.name}"] = {
            "metrics": sha(lines.encode()),
            "theta": sha(array_bytes(result.server.theta.to_list())),
            "embeddings": sha(array_bytes([result.server.embeddings.W])),
        }
    return out


def suite_rows(rows) -> dict:
    """The verification_suite rows by name: position, error and tolerance (exact, as float.hex), verdict."""
    return {
        r.name: {"row": i, "max_err": float(r.max_err).hex(), "tol": float(r.tol).hex(), "passed": r.passed}
        for i, r in enumerate(rows)
    }


def run_preset(preset: str, out_dir) -> int:
    """`fedgc run configs/<preset>.cfg --seed 0 --out out_dir`; returns its exit code."""
    from fedgc import cli

    return cli.main(["run", str(CONFIG_DIR / f"{preset}.cfg"), "--seed", "0", "--out", str(out_dir)])


def output_digests(out_dir) -> dict:
    """The sha256 of every file under out_dir, keyed by its relative path."""
    root = Path(out_dir)
    return {
        path.relative_to(root).as_posix(): sha(path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def recorded(section: str):
    """A section of golden.json; skips the test when it was recorded under another key."""
    golden = json.loads(GOLDEN.read_text())
    here = platform_key()
    if golden["key"] != here:
        pytest.skip(f"golden.json was recorded under {golden['key']}, this is {here}")
    return golden[section]


def moved(want: dict, got: dict) -> list[str]:
    """The keys whose digests differ, or that only one side has."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def record() -> None:
    """Run everything the digests cover and write golden.json."""
    import test_acceptance
    import test_demos
    from fedgc.gradcheck import verification_suite

    cells = {}
    for preset in PRESETS:
        rows, _ = test_acceptance.collect(preset)
        cells.update(cell_digests(preset, rows))
    demos = {}
    for demo in test_demos.DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            demos[demo.name] = sha(test_demos.run_demo(demo, tmp).stdout.encode())
    outputs = {}
    for preset in OUTPUT_PRESETS:
        with tempfile.TemporaryDirectory() as tmp:
            assert run_preset(preset, tmp) == 0, preset
            outputs[preset] = output_digests(tmp)
    golden = {
        "key": platform_key(),
        "cells": cells,
        "verification_suite": suite_rows(verification_suite(seed=0, instances=100)),
        "demos": demos,
        "outputs": outputs,
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
