"""Synthetic identity datasets and federated partitioning schemes.

Gaussian identity clusters stand in for a face dataset: class centers are
drawn once from a seeded normal, samples are center + isotropic noise. The
default center scale (5x the cluster std) keeps the pooled problem solvable
but leaves enough ambiguity for cross-client embedding collisions to show up
in a plain private-head run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check


@dataclass
class SyntheticSpec:
    num_classes: int = 32
    samples_per_class: int = 25
    input_dim: int = 16
    cluster_std: float = 1.0
    class_center_scale: float = 5.0
    pairs_per_class: int = 10
    seed: int = 0

    def __post_init__(self):
        check(self, [
            ("num_classes", self.num_classes >= 2, f"need >= 2, got {self.num_classes}"),
            # a quarter of the samples go to test and positive pairs need two
            # distinct test samples of the same class
            ("samples_per_class", self.samples_per_class >= 8,
             f"need >= 8, got {self.samples_per_class}"),
            ("input_dim", self.input_dim >= 1, f"need >= 1, got {self.input_dim}"),
            ("cluster_std", 0.0 <= self.cluster_std < np.inf,
             f"need in [0, inf), got {self.cluster_std}"),
            ("class_center_scale", 0.0 <= self.class_center_scale < np.inf,
             f"need in [0, inf), got {self.class_center_scale}"),
            ("cluster_std", self.cluster_std != 0.0 or self.class_center_scale != 0.0,
             "need > 0 when class_center_scale = 0, or every sample is the zero vector"),
            ("pairs_per_class", self.pairs_per_class >= 1, f"need >= 1, got {self.pairs_per_class}"),
            ("seed", self.seed >= 0, f"need >= 0, got {self.seed}"),
        ])


@dataclass
class VerificationPairs:
    """Index pairs into a held-out sample block, plus same-identity flags."""

    idx_a: np.ndarray
    idx_b: np.ndarray
    same: np.ndarray

    def __len__(self) -> int:
        return len(self.same)


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    centers: np.ndarray
    pairs: VerificationPairs

    @property
    def num_classes(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]


def split_rows(samples_per_class: int) -> tuple[int, int]:
    """Rows per class in the (train, test) split: a quarter, rounded down, is test."""
    n_test = samples_per_class // 4
    return samples_per_class - n_test, n_test


def generate(spec: SyntheticSpec) -> Dataset:
    """Seeded dataset with a disjoint train/test split and verification pairs.

    Pairs come from the test block only: spec.pairs_per_class * C positive
    pairs (same class, distinct samples) and as many negative pairs. Draws
    past float64's range raise ConfigError naming the scale behind them.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    c, spc, dim = spec.num_classes, spec.samples_per_class, spec.input_dim
    centers = rng.normal(0.0, spec.class_center_scale, size=(c, dim))

    n_train, n_test = split_rows(spc)

    per_class = rng.normal(0.0, spec.cluster_std, size=(c, spc, dim))
    centers_ok, noise_ok = np.isfinite(centers).all(), np.isfinite(per_class).all()
    # each class's centre added in place to its noise rows: the same sums as
    # centre + noise, without two more arrays of every sample
    with np.errstate(over="ignore", invalid="ignore"):
        per_class += centers[:, None, :]
    # a finite scale can still draw past float64's range. Past finite centres only
    # noise of 1e292 or more (half float64's largest ulp) takes a sample there
    noise_ok &= not centers_ok or np.isfinite(per_class).all()
    check(spec, [(name, ok, f"draws overflow float64 at {getattr(spec, name):g}")
                 for name, ok in (("class_center_scale", centers_ok), ("cluster_std", noise_ok))])
    train_x = per_class[:, :n_train, :].reshape(c * n_train, dim)
    train_y = np.repeat(np.arange(c), n_train)
    test_x = per_class[:, n_train:, :].reshape(c * n_test, dim)
    test_y = np.repeat(np.arange(c), n_test)

    pairs = _sample_pairs(test_y, spec.pairs_per_class * c, rng)
    return Dataset(train_x, train_y, test_x, test_y, centers, pairs)


def _class_order(labels: np.ndarray, num_classes: int) -> tuple[np.ndarray, list[int]]:
    """One stable argsort: order[starts[c]:starts[c + 1]] is np.flatnonzero(labels == c)."""
    order = np.argsort(labels, kind="stable")
    return order, np.searchsorted(labels[order], np.arange(num_classes + 1)).tolist()


def _sample_pairs(labels: np.ndarray, n_each: int, rng: np.random.Generator) -> VerificationPairs:
    """n_each positive, then n_each negative pairs, from one rng.integers call.

    It makes a per-pair loop's draws, in order, from the same stream: a class
    and choice(rows, 2, replace=False) per positive, choice(C, 2, replace=False)
    and two choice(rows) per negative. Equal rows per class fix every bound.
    """
    counts = np.bincount(labels)
    if counts.min() != counts.max():
        raise ValueError(
            f"need the same rows in every class, got counts {np.unique(counts).tolist()}"
        )
    c, n = len(counts), int(counts[0])
    rows = np.argsort(labels, kind="stable").reshape(c, n)
    bounds = np.r_[np.tile([c, n - 1, n, 2], n_each), np.tile([c - 1, c, 2, n, n], n_each)]
    pos, neg = np.split(rng.integers(0, bounds), [4 * n_each])
    cls, *pos_pair = pos.reshape(n_each, 4).T
    *neg_classes, row_a, row_b = neg.reshape(n_each, 5).T
    a, b = _floyd_pair(*pos_pair, n)
    ca, cb = _floyd_pair(*neg_classes, c)
    return VerificationPairs(
        np.concatenate([rows[cls, a], rows[ca, row_a]]),
        np.concatenate([rows[cls, b], rows[cb, row_b]]),
        np.repeat([True, False], n_each),
    )


def _floyd_pair(first, second, swap, m):
    """Generator.choice(m, 2, replace=False) from its draws in [0, m-1), [0, m), [0, 2).

    Floyd's rule: a repeated second draw takes m-1. The shuffle's draw of 0 swaps.
    """
    second = np.where(second == first, m - 1, second)
    return np.where(swap == 0, second, first), np.where(swap == 0, first, second)


@dataclass(frozen=True)
class ClientData:
    """One client's shard; local label j means global class `classes[j]`.

    The one shard rule, applied once when the shard is made: x is (n, dim)
    float64 and y_local holds n int64 labels in [0, len(classes)). The shard
    keeps read-only views of both, so the check cannot go stale through it.
    """

    client_id: int
    classes: list[int]
    x: np.ndarray
    y_local: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).view()
        y = np.asarray(self.y_local, dtype=np.int64).view()
        if x.ndim != 2:
            raise ValueError(f"need an (n, dim) shard, got shape {x.shape}")
        if y.shape != (len(x),):
            raise ValueError(f"labels of shape {y.shape} for {len(x)} rows")
        if np.count_nonzero((y < 0) | (y >= len(self.classes))):
            raise ValueError(f"label out of range for {len(self.classes)} classes")
        for name, a in (("x", x), ("y_local", y)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_samples(self) -> int:
        return len(self.y_local)


def _build_clients(
    dataset: Dataset, holders: dict[int, tuple[int, ...]], num_clients: int
) -> list[ClientData]:
    """Per-client shards from class -> the ids of its holders, ascending.

    A class's rows are split among its g holders as np.array_split does:
    the first len % g shares are one row longer.
    """
    order, starts = _class_order(dataset.train_y, dataset.num_classes)
    shards: list[dict[int, np.ndarray]] = [{} for _ in range(num_clients)]
    for cls, hs in holders.items():
        start = starts[cls]
        share, longer = divmod(starts[cls + 1] - start, len(hs))
        for k in hs:
            stop = start + share + (longer > 0)
            shards[k][cls] = order[start:stop]
            start = stop
            longer -= 1
    clients = []
    for k, shard in enumerate(shards):
        classes = sorted(shard)
        if classes:
            rows = [shard[cls] for cls in classes]
            x = dataset.train_x.take(np.concatenate(rows), axis=0)
            y = np.repeat(np.arange(len(classes), dtype=np.int64), [len(r) for r in rows])
        else:
            x, y = np.empty((0, dataset.input_dim)), np.empty(0, dtype=np.int64)
        clients.append(ClientData(k, classes, x, y))
    return clients


def partition_problems(
    scheme: str, num_classes: int, num_clients: int, share_fraction, group_size, train_rows
) -> list[tuple[str, str]]:
    """Why `scheme` cannot split num_classes over num_clients, as (argument, reason) pairs.

    The one statement of the partition feasibility rules: the partition
    functions raise on them, and experiments.ExperimentSpec reports them for
    a grid before anything runs. share_fraction, group_size and train_rows
    (training rows per class) are read by the shared scheme only.
    """
    if scheme == "balanced":
        if num_clients >= 1 and num_classes % num_clients == 0:
            return []
        return [("num_clients", f"balanced needs num_clients ({num_clients}) "
                 f"to divide num_classes ({num_classes})")]
    if scheme == "lognormal":
        if 2 <= num_clients <= num_classes:
            return []
        return [("num_clients", "lognormal needs 2 <= num_clients <= num_classes, "
                 f"got {num_clients} clients for {num_classes} classes")]
    if scheme == "shared":
        problems = []
        if not 0.0 <= share_fraction < 1.0:
            problems.append(("share_fraction", f"need in [0, 1), got {share_fraction}"))
        if not 2 <= group_size <= num_clients:
            problems.append(
                ("group_size", f"need in [2, num_clients={num_clients}], got {group_size}")
            )
        elif group_size > train_rows:
            # every member of a shared class's group needs a row of that class
            problems.append(
                ("group_size", f"need <= {train_rows} training rows per class, got {group_size}")
            )
        return problems
    return [("scheme", f"unknown scheme {scheme!r}")]


def _require_feasible(problems: list[tuple[str, str]]) -> None:
    if problems:
        raise ValueError("; ".join(f"{name}: {why}" for name, why in problems))


def partition_balanced(dataset: Dataset, num_clients: int) -> list[ClientData]:
    """Contiguous equal-size class blocks; requires num_clients | num_classes."""
    c = dataset.num_classes
    _require_feasible(partition_problems("balanced", c, num_clients, None, None, None))
    per = c // num_clients
    holders = {cls: (cls // per,) for cls in range(c)}
    return _build_clients(dataset, holders, num_clients)


def partition_lognormal(
    dataset: Dataset, num_clients: int, seed: int
) -> list[ClientData]:
    """Unbalanced class counts per client, drawn so that ln(weight) ~ N(0, 1).

    Weights are converted to class counts by largest-remainder rounding with
    every client keeping at least one class; classes are dealt out in a
    seeded shuffled order.
    """
    c = dataset.num_classes
    _require_feasible(partition_problems("lognormal", c, num_clients, None, None, None))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x109]))
    weights = np.exp(rng.normal(0.0, 1.0, size=num_clients))
    counts = _largest_remainder(weights / weights.sum() * c, c, minimum=1)
    order = rng.permutation(c)
    holders: dict[int, tuple[int, ...]] = {}
    start = 0
    for k, cnt in enumerate(counts):
        for cls in order[start : start + cnt]:
            holders[int(cls)] = (k,)
        start += cnt
    return _build_clients(dataset, holders, num_clients)


def _largest_remainder(target: np.ndarray, total: int, minimum: int) -> np.ndarray:
    floors = np.maximum(np.floor(target).astype(int), minimum)
    while floors.sum() > total:
        floors[np.argmax(floors)] -= 1
    remainder = total - floors.sum()
    if remainder > 0:
        frac = target - np.floor(target)
        for i in np.argsort(-frac)[:remainder]:
            floors[i] += 1
    return floors


def partition_shared(
    dataset: Dataset,
    num_clients: int,
    share_fraction: float,
    seed: int,
    group_size: int = 2,
) -> list[ClientData]:
    """Duplicate a fraction of classes across small client groups.

    Each shared class is held by a random group of `group_size` clients, its
    training samples split evenly among them; remaining classes are exclusive
    and dealt round-robin.
    """
    c = dataset.num_classes
    train_rows = int(np.bincount(dataset.train_y, minlength=c).min())
    _require_feasible(
        partition_problems("shared", c, num_clients, share_fraction, group_size, train_rows)
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5AE]))
    n_shared = int(round(share_fraction * c))
    order = rng.permutation(c)
    shared_classes = sorted(int(x) for x in order[:n_shared])

    holders: dict[int, tuple[int, ...]] = {}
    for cls in shared_classes:
        group = np.sort(rng.choice(num_clients, size=group_size, replace=False))
        holders[cls] = tuple(int(g) for g in group)

    shared = set(shared_classes)
    exclusive = [cls for cls in range(c) if cls not in shared]
    for i, cls in enumerate(exclusive):
        holders[cls] = (i % num_clients,)

    return _build_clients(dataset, holders, num_clients)
