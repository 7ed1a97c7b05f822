"""Cross-client separation regularizers on the stacked class-embedding matrix.

The softmax regularizer treats every class embedding in turn as a frozen
anchor and penalizes, softmax-style, how strongly the embeddings of *other*
clients point at it:

    sum over anchors a of  log(1 + sum_{w cross-client} exp(w.T a - a.T a))

Because the anchor occurrences are stop-gradients, the gradient on a column w
is a softmax-weighted sum of the anchors of other clients; a column receives
exactly zero gradient from its own anchor term. Similar embeddings get
exponentially larger pushes, which is what makes this a hard-example-mining
variant of the plain cosine (dot-product) regularizer.

Values are computed in the shifted log-sum-exp form above; the naive
direct-exponential form (gradcheck.softmax_reg_naive) serves only as a
small-scale cross-check because exp(|w|^2) overflows quickly for
unnormalized embeddings.

Nothing here holds a dense C x C array. The softmax penalty streams the
anchors in blocks: each block's scores against every column, their
log-sum-exp and their softmax weights live in one (B, C) buffer, with B set
by a fixed element budget. Each anchor's term is independent, so blocking
changes only the summation order. Both penalties separate two columns iff
their owner sets, the clients holding a column of their identity
(class_of), are disjoint. _ownership numbers the owner sets, the clients
first and then one per identity several clients hold, and lists the pairs
of sets that meet by a join on clients. The softmax penalty writes -inf
into each block by flat index, at the columns of the sets meeting each
anchor's set, built block by block. The cosine penalty is a closed form
over per-set column sums. Both take O(d C + C B + meet pairs) memory.
With nothing shared the meet list is one pair per client; when a few
clients hold most identities jointly, nearly every pair of owner sets
meets and the list approaches S^2 pairs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .losses import NonFiniteError


@dataclass
class StackedEmbeddings:
    """All client heads side by side: W is (d, C), client_of maps column -> client.

    class_of maps column -> identity and defaults to one identity per column;
    columns of different clients that name the same identity are copies of
    one shared class.
    """

    W: np.ndarray
    client_of: np.ndarray
    class_of: np.ndarray | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.client_of = np.asarray(self.client_of, dtype=np.int64)
        if self.W.ndim != 2:
            raise ValueError("W must be 2-D (d, C)")
        if self.client_of.shape != (self.W.shape[1],):
            raise ValueError("client_of must assign every column to one client")
        if self.class_of is None:
            self.class_of = np.arange(self.W.shape[1])
        self.class_of = np.asarray(self.class_of, dtype=np.int64)
        if self.class_of.shape != (self.W.shape[1],):
            raise ValueError("class_of must name one identity per column")

    @property
    def num_clients(self) -> int:
        return int(self.client_of.max()) + 1 if self.client_of.size else 0

    @property
    def num_columns(self) -> int:
        return self.W.shape[1]

    def shared_columns(self) -> list[np.ndarray]:
        """Ascending column indices of every identity held more than once, by identity."""
        order = np.argsort(self.class_of, kind="stable")
        ids = self.class_of[order]
        repeats = ids[1:] == ids[:-1]
        if not repeats.any():
            return []
        held_more = np.r_[repeats, False] | np.r_[False, repeats]  # sorted runs of length > 1
        order, ids = order[held_more], ids[held_more]
        return np.split(order, np.flatnonzero(ids[1:] != ids[:-1]) + 1)

    def copy(self) -> "StackedEmbeddings":
        return StackedEmbeddings(self.W.copy(), self.client_of.copy(), self.class_of.copy())


@dataclass
class RegGrad:
    value: float
    grad: np.ndarray  # (d, C), same layout as the stacked matrix


# Elements in one block of pair scores: 4 MiB of float64 per temporary, so a
# pass over all C x C pairs holds O(C * B) memory instead of O(C^2).
_BLOCK_ELEMENTS = 1 << 19


def _blocks(count: int, width: int) -> list[slice]:
    """Cut `count` rows into slices of at most _BLOCK_ELEMENTS / width rows."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _ownership(emb: StackedEmbeddings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner-set id of every column, and the pairs of owner sets that meet.

    Sets 0..K-1 are the single clients in client order; every identity that
    more than one client holds adds one set, the clients holding it. Two sets
    meet when some client belongs to both, so every set meets itself. The
    pairs (meets[i], met[i]) list each meeting pair once, in row-major order.
    Columns u and v may be separated iff their sets do not meet. The last set
    always holds a column, so there are set_of.max() + 1 sets.
    """
    clients = _distinct(emb.client_of)
    client = np.searchsorted(clients, emb.client_of)
    k = clients.size
    ids = np.sort(emb.class_of)
    if not (ids[1:] == ids[:-1]).any():
        return client, np.arange(k), np.arange(k)
    ids, ident = np.unique(emb.class_of, return_inverse=True)
    # an identity is held by several clients iff it has several (identity, client) pairs
    held = np.bincount(_distinct(ident * k + client) // k, minlength=ids.size) > 1
    shared = held[ident]
    set_of = np.where(shared, k - 1 + np.cumsum(held)[ident], client)
    s = k + int(held.sum())
    # distinct (client, set) memberships, sorted by client
    member, sets = np.divmod(
        _distinct(np.r_[np.arange(k), client[shared]] * s + np.r_[np.arange(k), set_of[shared]]), s
    )
    # join the memberships on the client: the sets one client belongs to all
    # meet. A pair comes up once per client its two sets share, so the join
    # holds at most (most clients holding one identity) x (meet pairs) keys
    size = np.bincount(member, minlength=k)
    first = size.cumsum() - size
    pairs = sets.repeat(size[member]) * s
    pairs += sets[_ranges(first[member], size[member])]
    meets, met = np.divmod(_distinct(pairs), s)
    return set_of, meets, met


def _distinct(x: np.ndarray) -> np.ndarray:
    """np.unique(x) for an integer array, by a sort.

    numpy >= 2.3 finds integer uniques with a hash table, which is 3-15x
    slower than this at 2k to 300k elements.
    """
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _meeting_index(
    set_of: np.ndarray, size: np.ndarray, meets: np.ndarray, met: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """The flat indices of the meeting pairs in a block of (anchor, column) scores.

    size[t] is the number of columns in owner set t. The function returned
    takes the owner sets of a block's B anchors and gives, row by row, the
    indices into the row-major (B, C) block of every column whose set meets
    the anchor's set: the sets in set order, each set's columns ascending.
    It builds them per block, so they take O(C B) memory, never O(S C).
    """
    c = set_of.size
    by_set = set_of.argsort(kind="stable")  # the columns of every set, one set after another
    first = size.cumsum() - size
    # the sets meeting set t are met[start[t] : start[t] + degree[t]], holding count[t] columns
    degree = np.bincount(meets, minlength=size.size)
    start = degree.cumsum() - degree
    count = np.bincount(meets, size[met], minlength=size.size).astype(np.intp)

    def index(sets: np.ndarray) -> np.ndarray:
        meeting = met[_ranges(start[sets], degree[sets])]
        flat = by_set[_ranges(first[meeting], size[meeting])]
        flat += np.arange(0, sets.size * c, c).repeat(count[sets])
        return flat

    return index


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i] + arange(lengths[i]) for every i, concatenated in order."""
    out = (starts - lengths.cumsum() + lengths).repeat(lengths)
    out += np.arange(out.size)
    return out


def _columns(emb: StackedEmbeddings, normalize_columns: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The columns, divided by their norms under normalize_columns, and those norms (else None)."""
    w = emb.W
    if not np.isfinite(w).all():
        raise NonFiniteError("non-finite entry in stacked embeddings")
    if not normalize_columns:
        return w, None
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0.0):
        raise NonFiniteError("zero-norm column cannot be normalized")
    return w / norms, norms


def _chain_normalization(w_hat: np.ndarray, norms: np.ndarray, grad_n: np.ndarray) -> np.ndarray:
    # d(w/|w|)/dw applied column-wise: (g - (w_hat . g) w_hat) / |w|
    return (grad_n - w_hat * (w_hat * grad_n).sum(axis=0)) / norms


def softmax_reg(emb: StackedEmbeddings, normalize_columns: bool = False) -> RegGrad:
    """Softmax regularizer value and stop-gradient-aware gradient.

    A column is a negative for an anchor only when their owner sets are
    disjoint, so copies of one shared identity are never pushed apart.
    """
    a_mat, norms = _columns(emb, normalize_columns)
    c = emb.num_columns
    set_of, meets, met = _ownership(emb)
    meeting = _meeting_index(set_of, np.bincount(set_of), meets, met)
    value = 0.0
    grad_n = np.zeros_like(a_mat)
    blocks = _blocks(c, c)
    buffer = np.empty(blocks[0].stop * c if blocks else 0)  # the scores of every block
    for blk in blocks:
        cols = np.arange(blk.start, blk.stop)
        block = a_mat[:, cols]
        # exponent of every negative w against each anchor a, shifted by the self term
        scores = np.matmul(block.T, a_mat, out=buffer[: cols.size * c].reshape(cols.size, c))
        scores -= scores[np.arange(cols.size), cols][:, None]
        # -inf at the pairs whose owner sets meet
        buffer[meeting(set_of[blk])] = -np.inf
        # log(1 + sum exp(...)) with the self term's exp(0) folded in; 0 if no negatives
        top = np.maximum(scores.max(axis=1), 0.0)
        if top.any():  # normalized columns nearly always give top == 0.0, and x - 0.0 == x
            scores -= top[:, None]
        np.exp(scores, out=scores)
        denom = scores.sum(axis=1) + np.exp(-top)
        value += float((top + np.log(denom)).sum())
        scores /= denom[:, None]
        grad_n += block @ scores  # grad[:, w] = sum_a weight[a, w] * anchor_a
    grad = grad_n if norms is None else _chain_normalization(a_mat, norms, grad_n)
    return RegGrad(value, grad)


def cosine_reg(emb: StackedEmbeddings, normalize_columns: bool = False) -> RegGrad:
    """Sum of cross-client pairwise dot products (each pair counted twice).

    No stop-gradient here: the gradient on a column is twice the sum of all
    columns whose owner set is disjoint from its own, each with equal
    weight, so copies of one shared identity are never pushed apart.

    Evaluated in closed form from column sums: with S the sum of all columns,
    P_t the sum over owner set t and N_t the sum of P over every set meeting
    t, value = S.S - sum_t P_t.N_t, and column v of set t gets 2 (S - N_t).
    """
    a_mat, norms = _columns(emb, normalize_columns)
    set_of, meets, met = _ownership(emb)
    d, s = a_mat.shape[0], int(set_of.max(initial=-1)) + 1
    # per-set column sums, accumulated in column order
    bins = (set_of[:, None] * d + np.arange(d)).ravel()
    own = np.bincount(bins, a_mat.T.ravel(), s * d).reshape(s, d)
    # sums over the sets meeting each set; with nothing shared, each set alone
    pair_bins = (meets[:, None] * d + np.arange(d)).ravel()
    near = np.bincount(pair_bins, own[met].ravel(), s * d).reshape(s, d)
    total = a_mat.sum(axis=1)
    value = float(total @ total - (near * own).sum())
    far = (total - near[set_of]).T
    grad_n = far + far
    grad = grad_n if norms is None else _chain_normalization(a_mat, norms, grad_n)
    return RegGrad(value, grad)
