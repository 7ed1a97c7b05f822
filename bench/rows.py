"""Timed rows for the server's C x C sweeps, merged into one JSON file.

    python3 bench/rows.py --out BENCH.json --label change
    python3 bench/rows.py --out BENCH.json --label parent --src ../parent/src

Imports fedgc from --src (default: this checkout's src) and times, in this
process and on stacks built from pinned seeds, the calls the server makes
over every pair of stacked columns: softmax_reg, the value-only softmax pass
a metrics row takes, cosine_reg, embedding_similarity_stats and
similarity_histograms. Columns are normalized, as under a margin loss.

The stacks are d = 32 with 16 columns per client, at each C in SIZES, plain
(one identity per column) and shared (a fifth of the columns are second
copies of identities held by two clients), plus the dense-meet stack: 2
clients holding 3/4 of DENSE_MEET identities jointly (C = 3,584).

Each row records the median and quartiles of REPEATS timed calls, the
repeat count, the tracemalloc peak of one more call and the median minor
page faults per call. The run records the git rev of --src, the line count
of its fedgc/*.py (src_lines), nproc, the BLAS library and the thread
environment, and is stored under runs[--label], so a parent checkout and a
change can be timed into one file. BLAS runs on one thread: the thread
variables are pinned before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

D = 32
PER_CLIENT = 16
SEED = 0
SIZES = (256, 1024, 4096, 16384)
DENSE_MEET = 2048  # identities of the dense-meet stack
REPEATS = 5


def plain_stack(regularizers, c: int):
    """C columns of 16 per client, one identity per column."""
    rng = np.random.default_rng([SEED, c])
    w = rng.normal(0.0, 1.0 / np.sqrt(D), size=(D, c))
    return regularizers.StackedEmbeddings(w, np.arange(c) // PER_CLIENT)


def held_stack(regularizers, clients: int, identities: int, shared: int):
    """Identities 0..shared-1 on two distinct random clients, the rest dealt round-robin.

    Columns are ordered by client, then identity.
    """
    rng = np.random.default_rng([SEED, clients, identities, shared])
    groups = np.array([rng.choice(clients, size=2, replace=False) for _ in range(shared)])
    exclusive = np.arange(shared, identities)
    client_of = np.r_[groups.ravel(), exclusive % clients]
    class_of = np.r_[np.arange(shared).repeat(2), exclusive]
    order = np.lexsort((class_of, client_of))
    w = rng.normal(0.0, 1.0 / np.sqrt(D), size=(D, order.size))
    return regularizers.StackedEmbeddings(w, client_of[order], class_of[order])


def stacks(regularizers):
    """(name, stack) for every size, plain then shared, then the dense-meet stack."""
    for c in SIZES:
        yield f"plain_C{c}", plain_stack(regularizers, c)
        shared = c // 5
        yield f"shared_C{c}", held_stack(regularizers, max(2, c // PER_CLIENT), c - shared, shared)
    yield f"dense_meet_{DENSE_MEET}", held_stack(regularizers, 2, DENSE_MEET, 3 * DENSE_MEET // 4)


def calls(regularizers, evaluation) -> dict:
    """The timed calls by row name; each takes a stack."""
    return {
        "softmax_reg": lambda emb: regularizers.softmax_reg(emb, normalize_columns=True),
        "softmax_value": lambda emb: regularizers.softmax_value(emb, normalize_columns=True),
        "cosine_reg": lambda emb: regularizers.cosine_reg(emb, normalize_columns=True),
        "embedding_similarity_stats": evaluation.embedding_similarity_stats,
        "similarity_histograms": evaluation.similarity_histograms,
    }


def measure(call, emb) -> dict:
    """One tracemalloc-traced call (which also warms up), then REPEATS timed calls."""
    tracemalloc.start()
    try:
        call(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times, faults = [], []
    for _ in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call(emb)
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
    return {
        "median_s": median,
        "q1_s": q1,
        "q3_s": q3,
        "repeats": REPEATS,
        "tracemalloc_peak_mib": peak / 2**20,
        "minor_faults": statistics.median(faults),
    }


def environment(src: str) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", ".")),
        # counted as `wc -l` counts
        "src_lines": sum(p.read_bytes().count(b"\n") for p in pathlib.Path(src, "fedgc").glob("*.py")),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to create or merge into")
    parser.add_argument("--label", required=True, help="the key this run is stored under")
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from fedgc import evaluation, regularizers

    if not os.path.abspath(regularizers.__file__).startswith(src + os.sep):
        parser.error(f"imported fedgc from {regularizers.__file__}, not from {src}")
    timed = calls(regularizers, evaluation)
    rows = []
    for name, emb in stacks(regularizers):
        for call_name, call in timed.items():
            row = {"stack": name, "call": call_name, "C": emb.num_columns,
                   "clients": emb.num_clients, "d": D}
            row.update(measure(call, emb))
            rows.append(row)
            print(f"{name:>18} {call_name:>27} {row['median_s'] * 1e3:10.2f} ms "
                  f"{row['tracemalloc_peak_mib']:9.2f} MiB", flush=True)

    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"command": "python3 bench/rows.py", "runs": {}}
    doc["runs"][args.label] = {**environment(src), "seed": SEED, "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
