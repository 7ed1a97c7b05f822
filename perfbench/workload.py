"""One workload process: run a `fedgc run` grid once and report what it cost.

    python3 perfbench/workload.py CONFIG SEED OUT RESULT [SPANS]

Started by perfbench/run.py, once per repetition, from the repository root.
Imports fedgc from ./src, calls ``fedgc.cli.main(["run", CONFIG, "--seed",
SEED, "--out", OUT])`` and writes RESULT as JSON: the cli exit code, the
``import fedgc`` time, the wall time of the cli call, the CLOCK_MONOTONIC
instant the first training round started (the parent subtracts its launch
instant from it) and the process peak RSS.  With SPANS given the package is
traced by layertrace.Tracer and the spans are written to SPANS at the end.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _mark_first_round(federation, marks: dict) -> None:
    """Record when the first training round starts, then get out of the way."""
    entries = [n for n in ("run_round", "centralized_train") if hasattr(federation, n)]
    originals = {name: getattr(federation, name) for name in entries}

    def hook(name):
        def first_call(*args, **kwargs):
            marks.setdefault("first_round_at", time.monotonic())
            for n, fn in originals.items():
                setattr(federation, n, fn)
            return originals[name](*args, **kwargs)

        return first_call

    for name in entries:
        setattr(federation, name, hook(name))


def main(argv: list[str]) -> int:
    config, seed, out, result_path = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    src = os.path.abspath("src")
    sys.path.insert(0, src)

    start = time.monotonic()
    import fedgc

    import_s = time.monotonic() - start
    if not os.path.abspath(fedgc.__file__).startswith(src + os.sep):
        print(f"imported fedgc from {fedgc.__file__}, not from {src}", file=sys.stderr)
        return 1
    from fedgc import cli, federation

    tracer = None
    if spans_path is not None:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {}
    _mark_first_round(federation, marks)

    start = time.monotonic()
    code = cli.main(["run", config, "--seed", seed, "--out", out])
    run_s = time.monotonic() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "exit_code": code,
                "import_s": import_s,
                "run_s": run_s,
                "first_round_at": marks.get("first_round_at"),
                "peak_rss_mb": peak_kb / 1024.0,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
