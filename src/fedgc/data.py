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
    seed: int = 0

    def __post_init__(self):
        check(self, [
            ("num_classes", self.num_classes >= 2, f"need >= 2, got {self.num_classes}"),
            # a quarter of the samples go to test and positive pairs need two
            # distinct test samples of the same class
            ("samples_per_class", self.samples_per_class >= 8,
             f"need >= 8, got {self.samples_per_class}"),
            ("input_dim", self.input_dim >= 1, f"need >= 1, got {self.input_dim}"),
            ("cluster_std", self.cluster_std >= 0.0, f"need >= 0, got {self.cluster_std}"),
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


def generate(spec: SyntheticSpec, pairs_per_class: int = 10) -> Dataset:
    """Seeded dataset with a disjoint train/test split and verification pairs.

    Pairs come from the test block only: pairs_per_class * C positive pairs
    (same class, distinct samples) and as many negative pairs.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    c, spc, dim = spec.num_classes, spec.samples_per_class, spec.input_dim
    centers = rng.normal(0.0, spec.class_center_scale, size=(c, dim))

    n_train, n_test = split_rows(spc)

    labels = np.repeat(np.arange(c), spc)
    samples = centers[labels] + rng.normal(0.0, spec.cluster_std, size=(c * spc, dim))
    per_class = samples.reshape(c, spc, dim)
    train_x = per_class[:, :n_train, :].reshape(c * n_train, dim)
    train_y = np.repeat(np.arange(c), n_train)
    test_x = per_class[:, n_train:, :].reshape(c * n_test, dim)
    test_y = np.repeat(np.arange(c), n_test)

    pairs = _sample_pairs(test_y, pairs_per_class * c, rng)
    return Dataset(train_x, train_y, test_x, test_y, centers, pairs)


def _rows_by_class(labels: np.ndarray, num_classes: int) -> list[np.ndarray]:
    """np.flatnonzero(labels == cls) for every cls < num_classes, from one stable argsort."""
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(num_classes + 1))
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _sample_pairs(labels: np.ndarray, n_each: int, rng: np.random.Generator) -> VerificationPairs:
    by_class = _rows_by_class(labels, labels.max() + 1)
    classes = len(by_class)
    idx_a, idx_b, same = [], [], []
    for _ in range(n_each):
        cls = rng.integers(classes)
        a, b = rng.choice(by_class[cls], size=2, replace=False)
        idx_a.append(a)
        idx_b.append(b)
        same.append(True)
    for _ in range(n_each):
        ca, cb = rng.choice(classes, size=2, replace=False)
        idx_a.append(rng.choice(by_class[ca]))
        idx_b.append(rng.choice(by_class[cb]))
        same.append(False)
    return VerificationPairs(np.array(idx_a), np.array(idx_b), np.array(same))


@dataclass
class PartitionSpec:
    num_clients: int
    assignment: dict[int, tuple[int, ...]]  # class -> clients holding it
    counts: np.ndarray                      # per-client sample counts n_k
    scheme: str


@dataclass
class ClientData:
    """One client's shard; local label j means global class `classes[j]`."""

    client_id: int
    classes: list[int]
    x: np.ndarray
    y_local: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.y_local)

    @property
    def y_global(self) -> np.ndarray:
        return np.asarray(self.classes)[self.y_local]


def _build_clients(
    dataset: Dataset,
    holders: dict[int, tuple[int, ...]],
    splits: dict[int, dict[int, np.ndarray]],
    num_clients: int,
) -> list[ClientData]:
    """Assemble per-client shards from class->clients and per-class index splits."""
    class_lists: list[list[int]] = [[] for _ in range(num_clients)]
    for cls, hs in holders.items():
        for k in hs:
            class_lists[k].append(cls)
    clients = []
    for k in range(num_clients):
        classes = sorted(class_lists[k])
        if classes:
            rows = [splits[cls][k] for cls in classes]
            x = dataset.train_x.take(np.concatenate(rows), axis=0)
            y = np.repeat(np.arange(len(classes), dtype=np.int64), [len(r) for r in rows])
        else:
            x, y = np.empty((0, dataset.input_dim)), np.empty(0, dtype=np.int64)
        clients.append(ClientData(k, classes, x, y))
    return clients


def _exclusive_splits(dataset: Dataset, holders: dict[int, tuple[int, ...]]):
    by_class = _rows_by_class(dataset.train_y, dataset.num_classes)
    return {cls: {hs[0]: by_class[cls]} for cls, hs in holders.items()}


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


def partition_balanced(dataset: Dataset, num_clients: int) -> tuple[PartitionSpec, list[ClientData]]:
    """Contiguous equal-size class blocks; requires num_clients | num_classes."""
    c = dataset.num_classes
    _require_feasible(partition_problems("balanced", c, num_clients, None, None, None))
    per = c // num_clients
    holders = {cls: (cls // per,) for cls in range(c)}
    clients = _build_clients(dataset, holders, _exclusive_splits(dataset, holders), num_clients)
    counts = np.array([cl.n_samples for cl in clients])
    return PartitionSpec(num_clients, holders, counts, "balanced"), clients


def partition_lognormal(
    dataset: Dataset, num_clients: int, seed: int
) -> tuple[PartitionSpec, list[ClientData]]:
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
    clients = _build_clients(dataset, holders, _exclusive_splits(dataset, holders), num_clients)
    n_k = np.array([cl.n_samples for cl in clients])
    return PartitionSpec(num_clients, holders, n_k, "lognormal"), clients


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
) -> tuple[PartitionSpec, list[ClientData]]:
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

    by_class = _rows_by_class(dataset.train_y, c)
    holders: dict[int, tuple[int, ...]] = {}
    splits: dict[int, dict[int, np.ndarray]] = {}
    for cls in shared_classes:
        group = tuple(int(g) for g in np.sort(rng.choice(num_clients, size=group_size, replace=False)))
        holders[cls] = group
        chunks = np.array_split(by_class[cls], group_size)
        splits[cls] = {k: chunk for k, chunk in zip(group, chunks)}

    shared = set(shared_classes)
    exclusive = [cls for cls in range(c) if cls not in shared]
    for i, cls in enumerate(exclusive):
        k = i % num_clients
        holders[cls] = (k,)
        splits[cls] = {k: by_class[cls]}

    clients = _build_clients(dataset, holders, splits, num_clients)
    n_k = np.array([cl.n_samples for cl in clients])
    return PartitionSpec(num_clients, holders, n_k, "shared"), clients
