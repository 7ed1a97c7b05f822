"""Synthetic datasets: seeding, splits, pairs, and the three partition schemes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgc.config import ConfigError
from fedgc.data import (
    ClientData,
    Dataset,
    SyntheticSpec,
    VerificationPairs,
    _largest_remainder,
    _sample_pairs,
    generate,
    partition_balanced,
    partition_lognormal,
    partition_problems,
    partition_shared,
    split_rows,
)


def small_spec(**kw):
    base = dict(num_classes=8, samples_per_class=12, input_dim=5, seed=3)
    base.update(kw)
    return SyntheticSpec(**base)


def holders_of(clients) -> dict[int, tuple[int, ...]]:
    """class -> the ids of the clients that hold it, ascending."""
    out: dict[int, list[int]] = {}
    for cl in clients:
        for cls in cl.classes:
            out.setdefault(cls, []).append(cl.client_id)
    return {cls: tuple(ks) for cls, ks in out.items()}


def global_labels(cl) -> np.ndarray:
    """A shard's labels as global class ids."""
    return np.asarray(cl.classes)[cl.y_local]


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(num_classes=1)
    with pytest.raises(ValueError):
        SyntheticSpec(samples_per_class=1)
    with pytest.raises(ValueError):
        SyntheticSpec(input_dim=0)
    with pytest.raises(ValueError):
        SyntheticSpec(cluster_std=-0.1)
    # both scales must be finite and non-negative, NaN included
    for name in ("cluster_std", "class_center_scale"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name}: need in \\[0, inf\\)"):
                SyntheticSpec(**{name: bad})
    # either scale may be 0, not both: every sample would be the zero vector
    SyntheticSpec(cluster_std=0.0)
    SyntheticSpec(class_center_scale=0.0)
    with pytest.raises(ConfigError) as exc:
        SyntheticSpec(cluster_std=0.0, class_center_scale=0.0)
    assert [name for name, _ in exc.value.problems] == ["cluster_std"]
    with pytest.raises(ValueError):
        SyntheticSpec(pairs_per_class=0)
    # numpy's SeedSequence would refuse it only when the data is drawn
    with pytest.raises(ConfigError, match="^seed: need >= 0, got -1$"):
        SyntheticSpec(seed=-1)


def test_generate_rejects_too_few_samples_per_class():
    with pytest.raises(ValueError, match="samples_per_class"):
        generate(small_spec(samples_per_class=7))


@pytest.mark.parametrize("center, std, named", [
    (1e308, 1.0, ["class_center_scale"]),
    (5.0, 1e308, ["cluster_std"]),
    (1e308, 1e308, ["class_center_scale", "cluster_std"]),
    # at seed 0 every centre and every noise draw is finite, but some sums are not
    (4e307, 4e307, ["cluster_std"]),
])
def test_generate_refuses_draws_that_overflow(center, std, named):
    # finite scales pass the spec's rules, but their draws can leave float64's range
    with pytest.raises(ConfigError) as info:
        generate(SyntheticSpec(class_center_scale=center, cluster_std=std, seed=0))
    assert [name for name, _ in info.value.problems] == named


def test_generate_is_deterministic_in_seed():
    a = generate(small_spec())
    b = generate(small_spec())
    np.testing.assert_array_equal(a.train_x, b.train_x)
    np.testing.assert_array_equal(a.test_x, b.test_x)
    np.testing.assert_array_equal(a.pairs.idx_a, b.pairs.idx_a)
    c = generate(small_spec(seed=4))
    assert not np.array_equal(a.train_x, c.train_x)


def old_generate_samples(spec):
    """The rows generate drew before it added the centres in place: centres[labels] + noise."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    c, spc, dim = spec.num_classes, spec.samples_per_class, spec.input_dim
    centers = rng.normal(0.0, spec.class_center_scale, size=(c, dim))
    labels = np.repeat(np.arange(c), spc)
    samples = centers[labels] + rng.normal(0.0, spec.cluster_std, size=(c * spc, dim))
    n_train, n_test = split_rows(spc)
    per_class = samples.reshape(c, spc, dim)
    train_x = per_class[:, :n_train, :].reshape(c * n_train, dim)
    test_x = per_class[:, n_train:, :].reshape(c * n_test, dim)
    return centers, train_x, test_x, rng


@pytest.mark.parametrize("spec", [small_spec(), SyntheticSpec(37, 11, 7, cluster_std=0.3, seed=9)])
def test_generate_keeps_the_bits_of_centre_plus_noise(spec):
    # noise + centre is the same IEEE sum as centre + noise, and the rng draws
    # the noise in the same order, so the pairs that follow are the same too
    ds = generate(replace(spec, pairs_per_class=3))
    centers, train_x, test_x, rng = old_generate_samples(spec)
    for got, want in ((ds.centers, centers), (ds.train_x, train_x), (ds.test_x, test_x)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    pairs = _sample_pairs(ds.test_y, 3 * spec.num_classes, rng)
    for f in ("idx_a", "idx_b", "same"):
        np.testing.assert_array_equal(getattr(ds.pairs, f), getattr(pairs, f))


def test_split_shapes_and_labels():
    ds = generate(small_spec())
    # 12 per class: 3 to test, 9 to train
    assert ds.train_x.shape == (8 * 9, 5)
    assert ds.test_x.shape == (8 * 3, 5)
    assert ds.centers.shape == (8, 5)
    np.testing.assert_array_equal(np.bincount(ds.train_y), np.full(8, 9))
    np.testing.assert_array_equal(np.bincount(ds.test_y), np.full(8, 3))
    assert ds.num_classes == 8 and ds.input_dim == 5


def test_samples_cluster_around_their_centers():
    ds = generate(small_spec(samples_per_class=200, class_center_scale=20.0))
    for cls in range(ds.num_classes):
        mean = ds.train_x[ds.train_y == cls].mean(axis=0)
        # noise is unit std, so the class mean sits well inside 1 of the center
        assert np.linalg.norm(mean - ds.centers[cls]) < 1.0


def test_pair_properties():
    ds = generate(small_spec(pairs_per_class=6))
    p = ds.pairs
    assert len(p) == 2 * 6 * 8
    assert p.same[: len(p) // 2].all() and not p.same[len(p) // 2 :].any()
    ya, yb = ds.test_y[p.idx_a], ds.test_y[p.idx_b]
    # positives: same class but never the same sample; negatives: different class
    pos = p.same
    assert (ya[pos] == yb[pos]).all()
    assert (p.idx_a[pos] != p.idx_b[pos]).all()
    assert (ya[~pos] != yb[~pos]).all()


def test_balanced_partition_contiguous_blocks():
    ds = generate(small_spec())
    clients = partition_balanced(ds, 4)
    assert [cl.classes for cl in clients] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    np.testing.assert_array_equal([cl.n_samples for cl in clients], np.full(4, 2 * 9))
    for cl in clients:
        # local labels index into cl.classes, and shard rows are real train rows
        assert set(np.unique(cl.y_local)) <= set(range(len(cl.classes)))
        for row, g in zip(cl.x, global_labels(cl)):
            assert g in cl.classes
    with pytest.raises(ValueError):
        partition_balanced(ds, 3)


def test_local_to_global_label_mapping_preserves_rows():
    ds = generate(small_spec())
    clients = partition_balanced(ds, 2)
    # every (row, global label) in the shards appears in the training set
    seen = 0
    for cl in clients:
        for row, g in zip(cl.x, global_labels(cl)):
            matches = np.flatnonzero((ds.train_y == g) & (ds.train_x == row).all(axis=1))
            assert len(matches) == 1
            seen += 1
    assert seen == len(ds.train_y)


def test_client_data_checks_its_shard_when_made():
    # the one shard rule: (n, dim) float64 rows and n int64 labels in
    # [0, len(classes)), checked once and then frozen read-only
    cl = partition_balanced(generate(small_spec()), 2)[0]
    assert cl.x.dtype == np.float64 and cl.y_local.dtype == np.int64
    for label in (len(cl.classes), -1):
        y = cl.y_local.copy()
        y[3] = label
        with pytest.raises(ValueError, match="label out of range"):
            replace(cl, y_local=y)
    with pytest.raises(ValueError, match="need an \\(n, dim\\) shard"):
        replace(cl, x=cl.x[:, 0])
    with pytest.raises(ValueError, match="labels of shape"):
        replace(cl, y_local=cl.y_local[:-1])
    empty = replace(cl, x=np.empty((0, 5)), y_local=np.empty(0, dtype=np.int64))
    assert empty.n_samples == 0 and empty.x.shape == (0, 5)
    for a in (cl.x, cl.y_local):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    # the shard's views are read-only; the caller's arrays are left as they were
    x, y = np.zeros((4, 2)), np.zeros(4, dtype=np.int64)
    shard = ClientData(0, [7], x, y)
    assert x.flags.writeable and y.flags.writeable
    assert np.shares_memory(shard.x, x) and np.shares_memory(shard.y_local, y)


def test_lognormal_partition_covers_all_classes_exactly_once():
    ds = generate(small_spec(num_classes=12))
    clients = partition_lognormal(ds, 4, seed=0)
    held = sorted(cls for cl in clients for cls in cl.classes)
    assert held == list(range(12))  # exclusive and exhaustive
    assert all(len(cl.classes) >= 1 for cl in clients)
    assert sum(cl.n_samples for cl in clients) == len(ds.train_y)
    # deterministic in seed, and genuinely unbalanced for this seed
    assert holders_of(partition_lognormal(ds, 4, seed=0)) == holders_of(clients)
    sizes = sorted(len(cl.classes) for cl in clients)
    assert sizes[0] < sizes[-1]


def test_lognormal_partition_validation():
    ds = generate(small_spec())
    with pytest.raises(ValueError):
        partition_lognormal(ds, 1, seed=0)
    with pytest.raises(ValueError):
        partition_lognormal(ds, 9, seed=0)


def test_shared_partition_duplicates_and_splits_samples():
    ds = generate(small_spec(num_classes=16, samples_per_class=16))
    clients = partition_shared(ds, 4, share_fraction=0.25, seed=1, group_size=2)
    holders = holders_of(clients)
    groups = {cls: hs for cls, hs in holders.items() if len(hs) > 1}
    assert len(groups) == 4  # round(0.25 * 16)
    shared = set(groups)
    for cls, group in groups.items():
        assert len(group) == 2 and group == tuple(sorted(group))
        # the class's train samples are split (not copied) among the group
        n_total = (ds.train_y == cls).sum()
        per_holder = [(global_labels(clients[k]) == cls).sum() for k in group]
        assert sum(per_holder) == n_total
        assert all(n > 0 for n in per_holder)
    for cls in set(range(16)) - shared:
        assert len(holders[cls]) == 1
    # nothing lost: per-client counts sum to the train set size
    assert sum(cl.n_samples for cl in clients) == len(ds.train_y)


def test_shared_partition_zero_fraction_has_no_groups():
    ds = generate(small_spec())
    holders = holders_of(partition_shared(ds, 4, share_fraction=0.0, seed=0))
    assert all(len(hs) == 1 for hs in holders.values())
    held = sorted(cls for cls, hs in holders.items() for _ in hs)
    assert held == list(range(8))


def test_shared_partition_validation():
    ds = generate(small_spec())
    with pytest.raises(ValueError):
        partition_shared(ds, 4, share_fraction=1.0, seed=0)
    with pytest.raises(ValueError):
        partition_shared(ds, 4, share_fraction=0.25, seed=0, group_size=5)
    with pytest.raises(ValueError):
        partition_shared(ds, 4, share_fraction=0.25, seed=0, group_size=1)


def test_shared_partition_rejects_groups_larger_than_a_class():
    # 8 samples per class leave 6 training rows: a group of 8 would leave two
    # members with no row of the shared class
    ds = generate(SyntheticSpec(16, 8, 3))
    with pytest.raises(ValueError, match="group_size: need <= 6 training rows per class"):
        partition_shared(ds, 8, 0.25, 0, group_size=8)
    clients = partition_shared(ds, 8, 0.25, 0, group_size=6)
    groups = [(cls, hs) for cls, hs in holders_of(clients).items() if len(hs) > 1]
    assert len(groups) == 4
    for cls, group in groups:
        assert all((global_labels(clients[k]) == cls).sum() == 1 for k in group)


def row_id_dataset(num_classes: int, rows_per_class: int) -> Dataset:
    """A dataset whose single input feature is the training row's own index."""
    n = num_classes * rows_per_class
    train_y = np.repeat(np.arange(num_classes), rows_per_class)
    none = np.array([], dtype=np.int64)
    return Dataset(
        train_x=np.arange(n, dtype=np.float64)[:, None],
        train_y=train_y,
        test_x=np.zeros((0, 1)),
        test_y=none,
        centers=np.zeros((num_classes, 1)),
        pairs=VerificationPairs(none, none, np.array([], dtype=bool)),
    )


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(["balanced", "lognormal", "shared"]),
    num_clients=st.integers(2, 6),
    classes_per_client=st.integers(1, 4),
    rows_per_class=st.integers(1, 9),
    share_fraction=st.floats(0.0, 0.95),
    group_size=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_every_partition_holds_each_training_row_exactly_once(
    scheme, num_clients, classes_per_client, rows_per_class, share_fraction, group_size, seed
):
    num_classes = num_clients * classes_per_client
    group_size = min(group_size, num_clients)
    ds = row_id_dataset(num_classes, rows_per_class)
    if scheme == "balanced":
        clients = partition_balanced(ds, num_clients)
    elif scheme == "lognormal":
        clients = partition_lognormal(ds, num_clients, seed)
    elif group_size > rows_per_class:
        # a group member would hold no row of a shared class
        with pytest.raises(ValueError, match="group_size"):
            partition_shared(ds, num_clients, share_fraction, seed, group_size)
        return
    else:
        clients = partition_shared(ds, num_clients, share_fraction, seed, group_size)
    rows = np.concatenate([cl.x[:, 0] for cl in clients]).astype(np.int64)
    # every row once: a shared class's rows are split among its group, not copied
    np.testing.assert_array_equal(np.sort(rows), np.arange(len(ds.train_y)))
    labels = np.concatenate([global_labels(cl) for cl in clients])
    np.testing.assert_array_equal(ds.train_y[rows], labels)
    assert [cl.client_id for cl in clients] == list(range(num_clients))


def test_partition_problems_name_the_argument():
    assert partition_problems("balanced", 32, 4, None, None, None) == []
    assert [n for n, _ in partition_problems("balanced", 32, 3, None, None, None)] == ["num_clients"]
    assert [n for n, _ in partition_problems("balanced", 32, 0, None, None, None)] == ["num_clients"]
    assert [n for n, _ in partition_problems("lognormal", 32, 40, None, None, None)] == ["num_clients"]
    assert [n for n, _ in partition_problems("shared", 32, 4, 1.0, 5, 18)] == ["share_fraction", "group_size"]
    assert partition_problems("shared", 32, 4, 0.0, 2, 18) == []
    assert [n for n, _ in partition_problems("shared", 32, 4, 0.25, 4, 3)] == ["group_size"]
    assert [n for n, _ in partition_problems("striped", 32, 4, 0.25, 2, 18)] == ["scheme"]


# ---------------------------------------------------------------- per-class scans as oracles
# The loops the data layer used before it grouped rows by class with one
# stable argsort: one flatnonzero scan of the labels per class, one gather
# per (client, class), and a few Generator calls per verification pair. They
# fix the bytes the faster code must reproduce.


def scan_sample_pairs(labels, n_each, rng):
    by_class = [np.flatnonzero(labels == cls) for cls in range(labels.max() + 1)]
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
    return VerificationPairs(
        np.array(idx_a, dtype=np.int64), np.array(idx_b, dtype=np.int64), np.array(same, dtype=bool)
    )


def scan_build_clients(dataset, holders, splits, num_clients):
    class_lists = [[] for _ in range(num_clients)]
    for cls, hs in holders.items():
        for k in hs:
            class_lists[k].append(cls)
    clients = []
    for k in range(num_clients):
        classes = sorted(class_lists[k])
        xs, ys = [], []
        for local, cls in enumerate(classes):
            idx = splits[cls][k]
            xs.append(dataset.train_x[idx])
            ys.append(np.full(len(idx), local, dtype=np.int64))
        x = np.concatenate(xs) if xs else np.empty((0, dataset.input_dim))
        y = np.concatenate(ys) if ys else np.empty(0, dtype=np.int64)
        clients.append(ClientData(k, classes, x, y))
    return clients


def scan_partition(dataset, scheme, num_clients, seed, share_fraction=0.0, group_size=2):
    c = dataset.num_classes
    holders, splits = {}, {}
    if scheme == "balanced":
        per = c // num_clients
        holders = {cls: (cls // per,) for cls in range(c)}
    elif scheme == "lognormal":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x109]))
        weights = np.exp(rng.normal(0.0, 1.0, size=num_clients))
        counts = _largest_remainder(weights / weights.sum() * c, c, minimum=1)
        order = rng.permutation(c)
        start = 0
        for k, cnt in enumerate(counts):
            for cls in order[start : start + cnt]:
                holders[int(cls)] = (k,)
            start += cnt
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5AE]))
        n_shared = int(round(share_fraction * c))
        order = rng.permutation(c)
        shared_classes = sorted(int(x) for x in order[:n_shared])
        for cls in shared_classes:
            group = tuple(int(g) for g in np.sort(rng.choice(num_clients, size=group_size, replace=False)))
            holders[cls] = group
            idx = np.flatnonzero(dataset.train_y == cls)
            splits[cls] = dict(zip(group, np.array_split(idx, group_size)))
        exclusive = [cls for cls in range(c) if cls not in set(shared_classes)]
        for i, cls in enumerate(exclusive):
            holders[cls] = (i % num_clients,)
    for cls, hs in holders.items():
        if len(hs) == 1:
            splits[cls] = {hs[0]: np.flatnonzero(dataset.train_y == cls)}
    return holders, scan_build_clients(dataset, holders, splits, num_clients)


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    scheme=st.sampled_from(["balanced", "lognormal", "shared"]),
    num_clients=st.integers(2, 7),
    classes_per_client=st.integers(1, 4),
    rows_per_class=st.integers(2, 9),
    share_fraction=st.floats(0.0, 0.95),
    group_size=st.integers(2, 7),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_partitions_are_bytewise_the_per_class_scans(
    scheme, num_clients, classes_per_client, rows_per_class, share_fraction, group_size,
    shuffled, seed,
):
    # a hand-built dataset, its training rows optionally shuffled so that
    # train_y is not sorted by class
    num_classes = num_clients * classes_per_client
    group_size = min(group_size, num_clients, rows_per_class)
    rng = np.random.default_rng(seed)
    n = num_classes * rows_per_class
    order = rng.permutation(n) if shuffled else np.arange(n)
    none = np.array([], dtype=np.int64)
    ds = Dataset(
        train_x=rng.normal(size=(n, 3))[order],
        train_y=np.repeat(np.arange(num_classes), rows_per_class)[order],
        test_x=np.zeros((0, 3)),
        test_y=none,
        centers=np.zeros((num_classes, 3)),
        pairs=VerificationPairs(none, none, np.array([], dtype=bool)),
    )
    if scheme == "balanced":
        got = partition_balanced(ds, num_clients)
    elif scheme == "lognormal":
        got = partition_lognormal(ds, num_clients, seed)
    else:
        got = partition_shared(ds, num_clients, share_fraction, seed, group_size)
    holders, want = scan_partition(ds, scheme, num_clients, seed, share_fraction, group_size)
    assert holders_of(got) == holders
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.client_id, a.classes) == (b.client_id, b.classes)
        assert_same_array(a.x, b.x)
        assert_same_array(a.y_local, b.y_local)


@settings(max_examples=40, deadline=None)
@given(
    num_classes=st.integers(2, 12),
    rows_per_class=st.integers(2, 6),
    n_each=st.integers(0, 30),
    seed=st.integers(0, 2**16),
)
def test_sample_pairs_is_bytewise_the_per_class_scan(num_classes, rows_per_class, n_each, seed):
    # unsorted labels: the pairs index rows, so row order within a class matters
    labels = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(num_classes), rows_per_class)
    )
    assert_same_pairs_and_stream(labels, n_each, seed + 1)


def assert_same_pairs_and_stream(labels, n_each, seed):
    # the same pairs, and the generator left where the loop leaves it
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_pairs(labels, n_each, rng_got)
    want = scan_sample_pairs(labels, n_each, rng_want)
    for a, b in [(got.idx_a, want.idx_a), (got.idx_b, want.idx_b), (got.same, want.same)]:
        assert_same_array(a, b)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("num_classes, rows_per_class, pairs_per_class", [
    (2048, 2, 1),  # many_identities
    (512, 2, 2),  # shared_identities
    (32, 6, 10),  # configs/default.cfg
    # two rows: Floyd's first draw has range 0 and takes nothing from the stream
    (3, 2, 40),
])
def test_sample_pairs_matches_the_scan_at_workload_shapes(num_classes, rows_per_class, pairs_per_class):
    labels = np.random.default_rng(num_classes).permutation(
        np.repeat(np.arange(num_classes), rows_per_class)
    )
    assert_same_pairs_and_stream(labels, pairs_per_class * num_classes, seed=5)


def test_sample_pairs_needs_equal_rows_per_class():
    # every draw's range is fixed before the one call, so every class needs n rows
    with pytest.raises(ValueError, match="same rows in every class, got counts \\[2, 3\\]"):
        _sample_pairs(np.array([0, 0, 1, 1, 1]), 3, np.random.default_rng(0))
    empty = _sample_pairs(np.array([0, 0, 1, 1]), 0, np.random.default_rng(0))
    assert (empty.idx_a.dtype, empty.idx_b.dtype, empty.same.dtype) == (np.int64, np.int64, bool)
    assert len(empty) == 0

