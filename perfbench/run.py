"""The fedgc benchmark: run one workload as a `fedgc run` grid and report it.

    python3 perfbench/run.py --workload default_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root; fedgc is imported from ./src.  Each repetition
runs the whole grid once in a fresh Python process (perfbench/workload.py),
one process at a time, with BLAS/OpenMP pinned to one thread.  Repetitions
go on until --seconds have passed (at least two of each kind), and every
timing is the median over them.

--trace 0 reports the end-to-end metrics: run_s (the cli call), setup_s
(process launch until the first training round starts) and peak_rss_mb.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of perfbench/layertrace.py, plus the tracing overhead.

Every cell of every repetition is checked: status ok, all rounds done, the
expected number of finite metrics.jsonl rows, final accuracy of at least
ACCURACY_FLOOR, and output files byte-identical to the first repetition.
"attempted" and "failed" in the result count checked cells; their ratio is
the cell error rate.  A traced run also checks that the traced call counts
equal the counts the config implies and repeat exactly between repetitions.
The last line of output is the JSON result; the full record (environment,
per-repetition figures, per-cell output digests) goes to
.perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import layertrace

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_ROOT = ".perfbench_out"
RUN_SECONDS = 30  # measuring time of one invocation, as BENCHMARK.json states
DEADLINE_S = 170.0  # one invocation must end within 180 s
# final pair accuracy every cell must reach; chance is 0.5, and the cells of
# all three workloads scored 0.92-0.99 on seeds 0-2
ACCURACY_FLOOR = 0.8

# name, unit, bound: the share of the parent's median a metric may worsen by.
# On a shared 2-core VM one grid's wall time varies by 5-12% between
# repetitions and the whole machine drifts by up to 25% over half an hour
# (CPU time moves with it); over ten seeds the median run_s of a run spread
# by 4-12% (quartile distance over median), so run_s and setup_s get the
# widest bound.  Peak RSS repeats within 0.5%.
END_TO_END = [
    ("run_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
]


def _per_layer_units() -> list[tuple[str, str]]:
    units = []
    for qual in layertrace.FUNCTIONS:
        units.append((f"{qual}.calls", "count"))
        units.append((f"{qual}.self_s", "s"))
        if qual in layertrace.CONTAINERS:
            units.append((f"{qual}.incl_s", "s"))
    units += [
        ("data.generate.calls_per_cell", "calls/cell"),
        ("regularizers.calls_per_correction", "calls/step"),
        ("evaluation.embedding_similarity_stats.calls_per_eval", "calls/eval"),
        ("federation.client_update.skipped", "count"),
    ]
    units += [(f"{module}.rss_rise_mb", "MB") for module in layertrace.LAYERS]
    units += [("fedgc.import_s", "s"), ("trace.overhead_ratio", "ratio")]
    return units


PER_LAYER = _per_layer_units()

# Shared settings of the generated configs; the workloads vary the rest.
_BASE = {
    "data": {"input_dim": 16, "cluster_std": 1.0, "class_center_scale": 2.0},
    "federation": {
        "eta": 0.03,
        "batch_size": 32,
        "loss": "cosface",
        "momentum": 0.9,
        "weight_decay": 5e-4,
        "hidden_dim": 64,
        "embedding_dim": 32,
    },
}


@dataclass(frozen=True)
class Workload:
    why: str
    preset: str | None = None  # a committed config, run with --seed
    sections: dict | None = None  # or a config the benchmark writes

    def config(self, work_dir: str, seed: int) -> str:
        if self.preset is not None:
            return self.preset
        path = os.path.join(work_dir, "workload.cfg")
        with open(path, "w") as fh:
            for section in ("data", "federation", "grid", "run"):
                values = {**_BASE.get(section, {}), **self.sections.get(section, {})}
                if section == "federation":
                    values["seed"] = seed
                fh.write(f"[{section}]\n")
                fh.writelines(f"{key} = {value}\n" for key, value in values.items())
                fh.write("\n")
        return path


WORKLOADS = {
    "default_grid": Workload(
        why="configs/default.cfg as users run it: 4 modes, 8 clients x 4 classes, C=32, "
        "200 rounds; local SGD (nn, losses, client_update) dominates",
        preset="configs/default.cfg",
    ),
    "many_identities": Workload(
        why="C=2048 over 64 clients, 1/4 participation, fedgc+fedcos, 10 rounds, eval every 5; "
        "dense CxC penalties, similarity stats and threshold sweep dominate time and RSS",
        sections={
            "data": {"num_classes": 2048, "samples_per_class": 8, "pairs_per_class": 1},
            "federation": {"num_clients": 64, "rounds": 10},
            "grid": {
                "modes": "fedgc, fedcos",
                "fractions": 0.25,
                "lambdas": 50,
                "lambdas_fedcos": 1.0,
                "partitions": "balanced",
            },
            "run": {"eval_every": 5},
        },
    ),
    "shared_identities": Workload(
        why="C=512 over 32 clients, 1/2 participation, 40 rounds, fedgc on shared vs lognormal "
        "partitions; masked penalty, duplicate-column merge and the plain-path control",
        sections={
            "data": {"num_classes": 512, "samples_per_class": 8, "pairs_per_class": 2},
            "federation": {"num_clients": 32, "rounds": 40},
            "grid": {
                "modes": "fedgc",
                "fractions": 0.5,
                "lambdas": 50,
                "partitions": "shared, lognormal",
            },
            "run": {"eval_every": 10, "share_fraction": 0.25, "group_size": 2},
        },
    ),
}


# ---------------------------------------------------------------------------
# what the config implies, derived here rather than by fedgc so the checks
# do not trust the code they check


@dataclass(frozen=True)
class Cell:
    mode: str
    fraction: float
    lam: float
    partition: str

    @property
    def name(self) -> str:
        return f"{self.mode}_f{self.fraction:g}_l{self.lam:g}_{self.partition}"


@dataclass(frozen=True)
class Grid:
    cells: list
    rounds: int
    num_clients: int
    evaluations: int  # metrics rows per cell

    @classmethod
    def from_config(cls, path: str) -> "Grid":
        parser = configparser.ConfigParser(interpolation=None)
        with open(path) as fh:
            parser.read_file(fh)
        grid = parser["grid"]

        def names(raw):
            return [part.strip() for part in raw.split(",") if part.strip()]

        cells = [
            Cell(mode, float(f), float(lam), part)
            for mode in names(grid["modes"])
            for f in names(grid.get("fractions", "1.0"))
            for lam in names(grid.get(f"lambdas_{mode}", grid["lambdas"]))
            for part in names(grid.get("partitions", "balanced"))
        ]
        rounds = parser.getint("federation", "rounds")
        eval_every = parser.getint("run", "eval_every", fallback=10)
        evaluations = sum(1 for r in range(rounds) if (r + 1) % eval_every == 0 or r + 1 == rounds)
        return cls(cells, rounds, parser.getint("federation", "num_clients"), evaluations)

    def expected_calls(self) -> dict[str, int]:
        """Traced call counts the grid implies."""
        federated = [c for c in self.cells if c.mode != "centralized"]
        return {
            "federation.client_update": sum(
                self.rounds * max(1, math.ceil(c.fraction * self.num_clients)) for c in federated
            ),
            "federation.correction_step": self.rounds
            * sum(c.mode in ("fedgc", "fedcos") for c in self.cells),
            "experiments.compute_round_metrics": self.evaluations * len(self.cells),
        }


# ---------------------------------------------------------------------------
# correctness of one repetition's outputs


def _digest_cell(cell_dir: str, summary_row: list[str]) -> str:
    h = hashlib.sha256(",".join(summary_row).encode())
    for base, dirs, files in sorted(os.walk(cell_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(b"\0" + os.path.relpath(path, cell_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_outputs(grid: Grid, out_dir: str, floor: float) -> tuple[dict, dict]:
    """Per-cell output digests and per-cell problems (empty list = cell passes)."""
    rows = {}
    summary = os.path.join(out_dir, "summary.csv")
    if os.path.exists(summary):
        with open(summary, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                cell = Cell(row[0], float(row[1]), float(row[2]), row[3])
                rows[cell.name] = row
    digests, problems = {}, {}
    for cell in grid.cells:
        found = problems[cell.name] = []
        row = rows.pop(cell.name, None)
        if row is None:
            found.append("no summary.csv row")
            continue
        status, rounds_done, accuracy = row[4], int(row[5]), float(row[6])
        if status != "ok":
            found.append(f"status {status}")
        if rounds_done != grid.rounds:
            found.append(f"{rounds_done} of {grid.rounds} rounds")
        if not accuracy >= floor:
            found.append(f"final accuracy {accuracy} below {floor}")
        cell_dir = os.path.join(out_dir, cell.name)
        try:
            with open(os.path.join(cell_dir, "metrics.jsonl")) as fh:
                metrics = [json.loads(line) for line in fh]
        except (OSError, ValueError) as exc:
            found.append(f"metrics.jsonl unreadable: {exc}")
            continue
        if len(metrics) != grid.evaluations:
            found.append(f"{len(metrics)} metrics rows, expected {grid.evaluations}")
        if not all(math.isfinite(v) for m in metrics for v in m.values()):
            found.append("non-finite value in metrics.jsonl")
        digests[cell.name] = _digest_cell(cell_dir, row)
    for name in rows:
        problems[name] = ["cell not in the configured grid"]
    return digests, problems


# ---------------------------------------------------------------------------
# running


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def _run_child(args: list[str], deadline: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run perfbench/workload.py to completion; returns (launch instant, process)."""
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "workload.py"), *args]
    launch = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return launch, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    workload = WORKLOADS[name]
    deadline = started + DEADLINE_S
    os.makedirs(OUT_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_ROOT)
    try:
        config = workload.config(work, seed)
        config_text = _read(config)
        grid = Grid.from_config(config)
        reps, all_problems = [], []
        attempted = failed = 0
        reference: dict | None = None
        begin = time.monotonic()
        min_reps = 4 if trace else 2
        while len(reps) < min_reps or time.monotonic() - begin < seconds:
            last = reps[-1]["wall_s"] if reps else 0.0
            if len(reps) >= min_reps and time.monotonic() + 1.5 * last > deadline:
                break
            index = len(reps)
            traced = trace and index % 2 == 1
            out = os.path.join(work, f"rep{index}")
            result_path = os.path.join(work, f"rep{index}.json")
            spans_path = os.path.join(work, f"rep{index}.spans")
            args = [config, str(seed), out, result_path] + ([spans_path] if traced else [])
            t0 = time.monotonic()
            launch, proc = _run_child(args, deadline)
            wall = time.monotonic() - t0
            attempted += len(grid.cells)
            if proc.returncode != 0:
                # a crash fails every cell of the grid; later repetitions would repeat it
                failed += len(grid.cells)
                tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
                all_problems.append(f"rep{index}: exit code {proc.returncode}: {tail[0]}")
                print(proc.stderr, file=sys.stderr)
                break
            with open(result_path) as fh:
                rep = json.load(fh)
            if rep["first_round_at"] is None:
                raise RuntimeError(f"{name} repetition {index} never started a training round")
            rep.update(traced=traced, wall_s=wall, setup_s=rep["first_round_at"] - launch)
            digests, problems = check_outputs(grid, out, ACCURACY_FLOOR)
            if reference is None:
                reference = digests
            for cell, digest in digests.items():
                if digest != reference.get(cell):
                    problems[cell].append("outputs differ from repetition 0 of this seed")
            failed += sum(bool(p) for p in problems.values())
            all_problems += [f"rep{index} {cell}: {p}" for cell, ps in problems.items() for p in ps]
            if traced:
                rep["layers"] = layertrace.summarize(spans_path)
            reps.append(rep)
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not any(r["traced"] == trace for r in reps):
        raise RuntimeError(f"{name}: no repetition completed:\n" + "\n".join(all_problems))
    if trace:
        metrics, count_problems = _layer_metrics(reps, grid)
        all_problems += count_problems
        units = PER_LAYER
    else:
        metrics = {
            "run_s": statistics.median([r["run_s"] for r in reps]),
            "setup_s": statistics.median([r["setup_s"] for r in reps]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        }
        units = [(n, u) for n, u, _ in END_TO_END]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "config": config_text,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "output_digests": reference,
        "attempted": attempted,
        "failed": failed,
        "problems": all_problems,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
        "layer_shares": _layer_shares(reps) if trace else None,
    }


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _layer_metrics(reps: list[dict], grid: Grid) -> tuple[dict, list[str]]:
    traced = [r["layers"] for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    calls = traced[0]["calls"]
    problems = []
    if any(t["calls"] != calls for t in traced[1:]):
        problems.append("traced call counts differ between repetitions of one seed")
    for fn, expected in grid.expected_calls().items():
        if calls[fn] != expected:
            problems.append(f"{fn}: traced {calls[fn]} calls, config implies {expected}")

    metrics = {}
    for qual in layertrace.FUNCTIONS:
        metrics[f"{qual}.calls"] = calls[qual]
        metrics[f"{qual}.self_s"] = statistics.median([t["self_s"][qual] for t in traced])
        if qual in layertrace.CONTAINERS:
            metrics[f"{qual}.incl_s"] = statistics.median([t["incl_s"][qual] for t in traced])
    reg_calls = sum(calls[fn] for fn in layertrace.REGULARIZERS)
    metrics["data.generate.calls_per_cell"] = calls["data.generate"] / len(grid.cells)
    metrics["regularizers.calls_per_correction"] = reg_calls / max(
        1, calls["federation.correction_step"]
    )
    metrics["evaluation.embedding_similarity_stats.calls_per_eval"] = calls[
        "evaluation.embedding_similarity_stats"
    ] / max(1, calls["experiments.compute_round_metrics"])
    metrics["federation.client_update.skipped"] = traced[0]["returned_none"][
        "federation.client_update"
    ]
    for module in layertrace.LAYERS:
        metrics[f"{module}.rss_rise_mb"] = statistics.median([t["rss_rise_mb"][module] for t in traced])
    metrics["fedgc.import_s"] = statistics.median([r["import_s"] for r in reps])
    metrics["trace.overhead_ratio"] = statistics.median(
        [r["run_s"] for r in reps if r["traced"]]
    ) / statistics.median([r["run_s"] for r in plain])
    return metrics, problems


def _layer_shares(reps: list[dict]) -> dict:
    """Median share of the traced cli time spent in each module's own code."""
    shares: dict[str, list[float]] = {}
    for rep in reps:
        if not rep["traced"]:
            continue
        layers = rep["layers"]
        total = layers["incl_s"]["cli.main"]
        by_module: dict[str, float] = {}
        for qual, self_s in layers["self_s"].items():
            module = qual.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + self_s
        by_module["local_sgd"] = (
            by_module["nn"] + by_module["losses"] + layers["self_s"]["federation.client_update"]
        )
        for key, value in by_module.items():
            shares.setdefault(key, []).append(value / total)
    return {key: statistics.median(values) for key, values in shares.items()}


def environment(root: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    revision = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            revision = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(root, "src", "fedgc"))):
        if name.endswith(".py"):
            src.update(name.encode() + b"\0" + _read(os.path.join(root, "src", "fedgc", name)).encode())
    return {
        "git_revision": revision,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "platform": platform.platform(),
    }


def _report(record: dict) -> None:
    for name, metric in record["metrics"].items():
        print(f"{record['workload']}  {name} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(
        f"{record['workload']}  cell_error_rate = {failed / attempted:.6g} share "
        f"({failed} of {attempted} checked cells failed)"
    )
    for cell, digest in (record["output_digests"] or {}).items():
        print(f"{record['workload']}  output sha256 {cell} {digest}")
    for key, share in sorted((record["layer_shares"] or {}).items()):
        print(f"{record['workload']}  share of traced time in {key}: {share:.1%}")
    for problem in record["problems"]:
        print(f"{record['workload']}  FAILED {problem}", file=sys.stderr)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json from the tables in this file and exit",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if args.write_benchmark_json:
        with open("BENCHMARK.json", "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(root, "src", "fedgc", "cli.py")):
        print("no fedgc source tree at ./src/fedgc; run from the repository root", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    env = environment(root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        # one import first, so every timed process finds bytecode and a warm file cache
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import fedgc"],
            env=_child_env(), check=True, timeout=60,
        )
        for name in names:
            begin = started if len(names) == 1 else time.monotonic()
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), begin))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(env, sort_keys=True))
    results_dir = os.path.join(OUT_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    for record in records:
        _report(record)
        path = os.path.join(
            results_dir, f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w") as fh:
            json.dump({"environment": env, **record}, fh, indent=1, sort_keys=True)
    single = len(records) == 1
    metrics = {
        (name if single else f"{r['workload']}.{name}"): metric
        for r in records
        for name, metric in r["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(not r["problems"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
