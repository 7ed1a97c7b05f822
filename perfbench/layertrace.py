"""Per-layer tracing of the fedgc package from outside the program.

The layers are the package's modules.  `Tracer.install` wraps the public
functions listed in LAYERS and rebinds every name that holds one of them in
every loaded ``fedgc`` module, so calls made through a by-name import
(``federation`` imports ``batch_loss_and_grad`` and ``softmax_reg``,
``experiments`` imports ``softmax_reg`` and ``cosine_reg``) are traced too.

Each call records one span: the wrapped function, the span that was open
when it started, start and end time, the rise of the process high-water mark
(ru_maxrss) while it was the innermost open span, and whether it returned
None.  Spans stay in memory until `write`; `summarize` turns a written span
file into per-function and per-module totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

LAYERS = {
    "data": ("generate", "partition_balanced", "partition_lognormal", "partition_shared"),
    "nn": ("forward", "backward", "sgd_step", "write_tensors"),
    "losses": ("batch_loss_and_grad",),
    "regularizers": ("softmax_reg", "masked_softmax_reg", "cosine_reg"),
    "federation": (
        "build_federation",
        "client_update",
        "aggregate_theta",
        "merge_shared_identities",
        "correction_step",
        "combined_objective",
        "centralized_train",
        "run_round",
        "save_checkpoint",
    ),
    "evaluation": (
        "verification_accuracy",
        "best_threshold_accuracy",
        "embedding_similarity_stats",
        "mean_anchor_feature_distance",
    ),
    "experiments": (
        "parse_config",
        "make_dataset",
        "make_partition",
        "compute_round_metrics",
        "write_cell_outputs",
        "write_summary",
    ),
    # the root span: its self time is everything the wrapped functions leave
    # out (argument parsing, the grid loop, run_cell, train_federated)
    "cli": ("main",),
}
FUNCTIONS = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
# functions that call other wrapped functions, so inclusive time differs from self time
CONTAINERS = (
    "federation.client_update",
    "federation.run_round",
    "federation.correction_step",
    "federation.centralized_train",
    "experiments.compute_round_metrics",
)
REGULARIZERS = tuple(f"regularizers.{fn}" for fn in LAYERS["regularizers"])

_FIELDS = ("fn", "parent", "start", "end", "rss_kb", "none")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans for the wrapped fedgc functions of one process."""

    def __init__(self):
        self.spans: list[list] = []  # one [fn, parent, start, end, rss_kb, none] per call
        self._stack: list[int] = []
        self._last_rss = _maxrss_kb()

    def _charge_rss(self) -> None:
        # a rise since the last span boundary happened inside the innermost open span
        rss = _maxrss_kb()
        if rss > self._last_rss:
            if self._stack:
                self.spans[self._stack[-1]][4] += rss - self._last_rss
            self._last_rss = rss

    def _wrap(self, index: int, fn):
        spans, stack, charge = self.spans, self._stack, self._charge_rss
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            charge()
            span = [index, stack[-1] if stack else -1, 0.0, 0.0, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                charge()
                stack.pop()
            span[5] = result is None
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in FUNCTIONS and rebind every name that holds one.

        A function the package no longer defines is skipped and reads as 0 calls.
        """
        wrapped = {}
        for index, qual in enumerate(FUNCTIONS):
            module, name = qual.split(".")
            original = getattr(importlib.import_module(f"fedgc.{module}"), name, None)
            if original is not None:
                wrapped[id(original)] = (original, self._wrap(index, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fedgc" and not mod_name.startswith("fedgc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"functions": FUNCTIONS, "fields": _FIELDS}) + "\n")
            fh.writelines(
                f"{fn} {parent} {start!r} {end!r} {rss} {int(none)}\n"
                for fn, parent, start, end, rss, none in self.spans
            )


def summarize(path) -> dict:
    """Per-function calls, self and inclusive seconds, and per-module RSS rise.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest, so the children never overlap.
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = [line.split() for line in fh]
    names = header["functions"]
    n = len(names)
    calls, incl, child, returned_none = [0] * n, [0.0] * n, [0.0] * n, [0] * n
    rss_kb: dict[str, int] = {}
    fns = [int(r[0]) for r in rows]
    durations = [float(r[3]) - float(r[2]) for r in rows]
    for fn, row, dur in zip(fns, rows, durations):
        calls[fn] += 1
        incl[fn] += dur
        parent = int(row[1])
        if parent >= 0:
            child[fns[parent]] += dur
        returned_none[fn] += row[5] == "1"
        module = names[fn].split(".")[0]
        rss_kb[module] = rss_kb.get(module, 0) + int(row[4])
    return {
        "calls": dict(zip(names, calls)),
        "incl_s": dict(zip(names, incl)),
        "self_s": {name: incl[i] - child[i] for i, name in enumerate(names)},
        "returned_none": dict(zip(names, returned_none)),
        "rss_rise_mb": {module: rss_kb.get(module, 0) / 1024.0 for module in LAYERS},
    }
