"""Clusterings of a pool, cluster-stratified estimators, and clustering ERM.

A clustering assigns each item a cluster id in 1..k (empty ids allowed).
The pair predicate is "same cluster".  The estimator builder walks clusters
in decreasing-size order; every item samples q partners with repetition from
its own cluster (weight (|V_i|-1)/q) and from each strictly smaller-ordered
cluster (weight 2|V_j|/q), with exhaustive unit/double-weight fallbacks when
a source has at most q candidates.  For q >= n the estimator is exact.
"""

from __future__ import annotations

import csv
import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    Params,
    PoolMismatchError,
    RegretEstimator,
    pair_estimator,
    stratum_sample,
    weighted_mismatch_argmin,
)
from .seeding import derive_rng

__all__ = [
    "Clustering",
    "sample_size_q",
    "build_clustering_estimator",
    "exact_erm",
    "exact_erm_with_value",
    "exact_min_error",
    "local_search_erm",
    "random_clustering",
    "all_assignments",
    "count_assignments",
    "enumerate_partitions_class",
    "save_clustering",
    "load_clustering",
]

_EXACT_ERM_MAX_N = 12
_EXACT_ERM_MAX_K = 4


class Clustering:
    """Assignment of items 0..n-1 to cluster ids 1..k."""

    __slots__ = ("assign", "k")

    def __init__(self, assign, k: Optional[int] = None):
        assign = np.asarray(assign, dtype=np.int32)
        if len(assign) < 2:
            raise ValueError("clustering needs at least 2 items")
        if k is None:
            k = int(assign.max())
        if assign.min() < 1 or assign.max() > k:
            raise ValueError(f"cluster ids must lie in 1..{k}")
        self.assign = assign
        self.k = int(k)

    @property
    def n_items(self) -> int:
        return len(self.assign)

    def pair_values(self, us, vs) -> np.ndarray:
        return (self.assign[us] == self.assign[vs]).astype(np.uint8)

    def cluster_sizes(self) -> np.ndarray:
        """Sizes indexed by cluster id - 1."""
        return np.bincount(self.assign, minlength=self.k + 1)[1:]

    def clusters_by_size(self) -> list[int]:
        """Nonempty cluster ids, largest first, ties to the smaller id."""
        sizes = self.cluster_sizes()
        ids = [cid for cid in range(1, self.k + 1) if sizes[cid - 1] > 0]
        return sorted(ids, key=lambda cid: (-int(sizes[cid - 1]), cid))

    def members(self, cid: int) -> np.ndarray:
        return np.flatnonzero(self.assign == cid).astype(np.int32)

    def canonical(self) -> "Clustering":
        """Clusters renumbered 1, 2, ... by first occurrence."""
        mapping: dict[int, int] = {}
        out = np.empty_like(self.assign)
        for i, cid in enumerate(self.assign.tolist()):
            out[i] = mapping.setdefault(cid, len(mapping) + 1)
        return Clustering(out, self.k)

    def distance_to(self, other: "Clustering") -> float:
        """Pair-disagreement distance through the intersection-size table."""
        if other.n_items != self.n_items:
            raise PoolMismatchError("clusterings have different item counts")
        table = np.zeros((self.k, other.k), dtype=np.int64)
        np.add.at(table, (self.assign - 1, other.assign - 1), 1)
        rows = table.sum(axis=1)
        split = int((table * (rows[:, None] - table)).sum())
        cols = table.sum(axis=0)
        merged = int((cols * cols - (table * table).sum(axis=0)).sum())
        n = self.n_items
        return (split + merged) / (n * (n - 1))

    def __eq__(self, other):
        return (
            isinstance(other, Clustering)
            and np.array_equal(
                self.canonical().assign, other.canonical().assign
            )
        )

    def __hash__(self):
        return hash(self.canonical().assign.tobytes())

    def __repr__(self):
        return f"Clustering(assign={self.assign.tolist()}, k={self.k})"


def random_clustering(n: int, k: int, rng: np.random.Generator) -> Clustering:
    return Clustering(rng.integers(1, k + 1, size=n), k)


def sample_size_q(n: int, k: int, epsilon: float, c2: float = 1.0) -> int:
    """Per-source sample count: max(1, ceil(c2 * max(k^2/eps^2, k/eps^3) * log2 n))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    body = max(epsilon**-2 * k**2, epsilon**-3 * k)
    return max(1, math.ceil(c2 * body * math.log2(n)))


def build_clustering_estimator(
    pivot: Clustering,
    oracle,
    params: Params,
    *,
    q: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> RegretEstimator:
    """Cluster-stratified regret estimator around a pivot clustering.

    Sampling order is fixed (clusters by decreasing size, items ascending,
    own cluster before cross clusters), so the result depends only on the
    provided stream.
    """
    n = pivot.n_items
    if oracle.n != n:
        raise PoolMismatchError("oracle and pivot item counts differ")
    if oracle.mode != "clustering":
        raise ValueError("clustering estimator needs a clustering-mode oracle")
    if q is None:
        q = sample_size_q(n, pivot.k, params.epsilon, params.c2)
    if rng is None:
        rng = derive_rng(params.master_seed, "clustering-build")
    ordered = pivot.clusters_by_size()
    members = {cid: np.sort(pivot.members(cid)) for cid in ordered}
    draws = []
    for ci, cid in enumerate(ordered):
        group = members[cid]
        later = [members[other] for other in ordered[ci + 1 :]]
        for u in group.tolist():
            draws.append((u, *stratum_sample(group[group != u], q, rng)))
            for other in later:
                sample, w_num = stratum_sample(other, q, rng)
                draws.append((u, sample, 2 * w_num))
    return pair_estimator(pivot, oracle, draws, q)


# -- enumeration of partitions into at most k blocks ---------------------------


@lru_cache(maxsize=None)
def count_assignments(n: int, k: int) -> int:
    """Number of partitions of n items into at most k nonempty blocks."""
    # S(n, j) by the standard recurrence, summed over j <= k
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = table[i - 1][j - 1] + j * table[i - 1][j]
    return sum(table[n][1 : k + 1])


_ASSIGNMENT_CACHE: dict[tuple[int, int], np.ndarray] = {}


def all_assignments(n: int, k: int) -> np.ndarray:
    """All canonical assignments (first-occurrence labels 1..k), lex order.

    Rows are restricted-growth strings shifted to 1-based ids, so the row
    order is the lexicographic order on canonical assignment arrays.
    """
    if n < 2 or n > _EXACT_ERM_MAX_N or k < 1 or k > _EXACT_ERM_MAX_K:
        raise ValueError(
            f"exact enumeration supports 2 <= n <= {_EXACT_ERM_MAX_N} and "
            f"1 <= k <= {_EXACT_ERM_MAX_K}; use local_search_erm for larger pools"
        )
    key = (n, k)
    cached = _ASSIGNMENT_CACHE.get(key)
    if cached is not None:
        return cached

    def rgs():
        a = [0] * n

        def rec(i: int, used: int):
            if i == n:
                yield from a
                return
            for v in range(min(used + 1, k)):
                a[i] = v
                yield from rec(i + 1, max(used, v + 1))

        yield from rec(0, 0)

    count = count_assignments(n, k)
    flat = np.fromiter(rgs(), dtype=np.int8, count=count * n)
    cached = flat.reshape(count, n) + np.int8(1)
    _ASSIGNMENT_CACHE[key] = cached
    return cached


def exact_erm_with_value(est: RegretEstimator, start=None, *, rng=None, k: Optional[int] = None):
    """Global estimator minimizer over all <=k-partitions, plus its value.

    Ties resolve to the lexicographically smallest canonical assignment.
    """
    k = k if k is not None else est.pivot.k
    assigns = all_assignments(est.n_items, k)
    row, _ = weighted_mismatch_argmin(
        assigns, lambda block: block[:, est.us] == block[:, est.vs], est.labels, est.weight_num
    )
    clu = Clustering(assigns[row], k)
    return clu, est.evaluate(clu)


def exact_erm(est: RegretEstimator, start=None, *, rng=None, k: Optional[int] = None) -> Clustering:
    return exact_erm_with_value(est, start, rng=rng, k=k)[0]


def exact_min_error(oracle, k: int) -> tuple[float, Clustering]:
    """(min err over all <=k-partitions, first lexicographic argmin)."""
    from .core import Pool

    n = oracle.n
    us, vs = Pool(n).all_pairs()
    labels = oracle.verification_labels(us, vs)
    assigns = all_assignments(n, k)
    row, val = weighted_mismatch_argmin(
        assigns, lambda block: block[:, us] == block[:, vs], labels, np.ones(len(us), np.int64)
    )
    return val / Pool(n).pair_count, Clustering(assigns[row], k)


# -- local search --------------------------------------------------------------


class _GainTable:
    """Exact integer gain table over the pair samples of an estimator.

    cost[u, c] is the total weight of u's samples that would be mismatched
    if u sat in cluster c, the others staying put (Kernighan and Lin, 1970).
    A sample (u, v, w, y) adds w*y to every entry of both rows and
    w*(1 - 2y) at the column of the partner's cluster, so moving an item
    changes only its partners' rows, and a move's objective change is a
    read of O(1) entries.  `assign` is updated in place.
    """

    __slots__ = ("assign", "cost", "partners", "signed", "bounds")

    def __init__(self, est: RegretEstimator, assign: np.ndarray, k: int):
        n = est.n_items
        ends = np.concatenate([est.us, est.vs])
        order = np.argsort(ends, kind="stable")
        ends = ends[order]
        weight = np.concatenate([est.weight_num] * 2)[order]
        label = np.concatenate([est.labels] * 2)[order].astype(np.int64)
        self.partners = np.concatenate([est.vs, est.us])[order]
        self.signed = weight * (1 - 2 * label)
        self.bounds = np.searchsorted(ends, np.arange(n + 1))
        self.assign = assign
        base = np.zeros(n, dtype=np.int64)
        np.add.at(base, ends, weight * label)
        self.cost = np.repeat(base[:, None], k + 1, axis=1)
        np.add.at(self.cost, (ends, assign[self.partners]), self.signed)

    def _edges(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.bounds[item], self.bounds[item + 1]
        return self.partners[lo:hi], self.signed[lo:hi]

    def move(self, item: int, cid: int) -> None:
        """Put `item` in cluster `cid` and update its partners' rows."""
        partners, signed = self._edges(item)
        np.add.at(self.cost, (partners, self.assign[item]), -signed)
        np.add.at(self.cost, (partners, cid), signed)
        self.assign[item] = cid

    def pair_weights(self, a: int) -> np.ndarray:
        """Sum of w*(1 - 2y) over the samples on each pair {a, b}, indexed by b."""
        out = np.zeros(len(self.assign), dtype=np.int64)
        np.add.at(out, *self._edges(a))
        return out

    def swap_deltas(self, a: int, lo: int, pair_w: np.ndarray) -> np.ndarray:
        """Objective change of swapping a with each b >= lo in another cluster.

        The two row differences each count the samples on {a, b} once with
        b (resp. a) unmoved; those samples keep their value, as a and b stay
        in different clusters, hence the correction.
        """
        ca = self.assign[a]
        cb = self.assign[lo:]
        rows = np.arange(lo, len(self.assign))
        return (
            self.cost[a, cb] - self.cost[a, ca]
            + self.cost[rows, ca] - self.cost[rows, cb]
            - 2 * pair_w[lo:]
        )


def _reassign_pass(table: _GainTable) -> tuple[int, bool]:
    """One item-major first-improvement sweep of single reassignments."""
    gained = 0
    moved = False
    assign = table.assign
    for u in range(len(assign)):
        row = table.cost[u, 1:]
        delta = row - row[assign[u] - 1]
        c = int(np.argmin(delta))
        if delta[c] < 0:
            table.move(u, c + 1)
            gained += int(delta[c])
            moved = True
    return gained, moved


def _swap_pass(table: _GainTable) -> tuple[int, bool]:
    """First-improvement sweep over cross-cluster item swaps in lex order."""
    gained = 0
    moved = False
    assign = table.assign
    n = len(assign)
    for a in range(n - 1):
        pair_w = table.pair_weights(a)
        lo = a + 1
        while lo < n:
            delta = table.swap_deltas(a, lo, pair_w)
            hits = np.flatnonzero((assign[lo:] != assign[a]) & (delta < 0))
            if len(hits) == 0:
                break
            b = lo + int(hits[0])
            ca, cb = int(assign[a]), int(assign[b])
            table.move(a, cb)
            table.move(b, ca)
            gained += int(delta[hits[0]])
            moved = True
            lo = b + 1
    return gained, moved


def local_search_erm(
    est: RegretEstimator,
    start: Clustering,
    *,
    restarts: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> Clustering:
    """Reassignment plus swap local search, best of `restarts` seeded starts.

    Each restart alternates first-improvement reassignment sweeps with
    cross-cluster swap sweeps until neither improves; moves are scored from
    one gain table per restart.  Restart 0 starts from `start`, so the
    result never evaluates worse than it.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if rng is None:
        rng = derive_rng(0, "local-search")
    k = start.k
    n = est.n_items
    best: tuple[int, np.ndarray] | None = None
    for r in range(restarts):
        assign = (start.assign if r == 0 else random_clustering(n, k, rng).assign).copy()
        obj = est.evaluate_int(Clustering(assign, k))
        table = _GainTable(est, assign, k)
        while True:
            gained, moved_a = _reassign_pass(table)
            obj += gained
            gained, moved_b = _swap_pass(table)
            obj += gained
            if not (moved_a or moved_b):
                break
        if best is None or obj < best[0]:
            best = (obj, assign.copy())
    return Clustering(best[1], k)


# -- enumeration as a finite class ---------------------------------------------


def enumerate_partitions_class(n: int, k: int):
    """Every <=k-partition of n items as a finite class over the pair pool."""
    from .core import Pool
    from .generic import FiniteClass

    assigns = all_assignments(n, k)
    us, vs = Pool(n).all_pairs()
    labels = (assigns[:, us] == assigns[:, vs]).astype(np.uint8)
    pairs = np.stack([us, vs], axis=1)
    return FiniteClass(labels, instance_pairs=pairs, n_items=n)


# -- persistence ----------------------------------------------------------------


def save_clustering(clu: Clustering, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item", "cluster"])
        for item, cid in enumerate(clu.assign.tolist()):
            writer.writerow([item, cid])


def load_clustering(path: str, k: Optional[int] = None) -> Clustering:
    seen: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["item", "cluster"]:
            raise ValueError(f"{path} must start with an 'item,cluster' header")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                item, cid = int(row[0]), int(row[1])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed row {row!r}") from exc
            if item in seen:
                raise ValueError(f"{path}: item {item} listed twice")
            seen[item] = cid
    n = len(seen)
    if n < 2 or sorted(seen) != list(range(n)):
        raise ValueError(f"{path}: items must be exactly 0..n-1")
    assign = np.array([seen[i] for i in range(n)], dtype=np.int32)
    return Clustering(assign, k)
