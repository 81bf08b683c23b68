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


def _touching(est: RegretEstimator, item: int):
    idx = est.per_item_index[item]
    partners = np.where(est.us[idx] == item, est.vs[idx], est.us[idx])
    return idx, partners


def _reassign_pass(est, assign: np.ndarray, k: int) -> tuple[int, bool]:
    """One item-major first-improvement sweep of single reassignments."""
    gained = 0
    moved = False
    for u in range(len(assign)):
        idx, partners = _touching(est, u)
        if len(idx) == 0:
            continue
        w = est.weight_num[idx]
        y = est.labels[idx]
        pa = assign[partners]
        w0 = np.zeros(k + 1, dtype=np.int64)
        w1 = np.zeros(k + 1, dtype=np.int64)
        np.add.at(w0, pa[y == 0], w[y == 0])
        np.add.at(w1, pa[y == 1], w[y == 1])
        total_one = int(w[y == 1].sum())
        cost = w0[1:] + (total_one - w1[1:])
        delta = cost - cost[assign[u] - 1]
        c = int(np.argmin(delta))
        if delta[c] < 0:
            assign[u] = c + 1
            gained += int(delta[c])
            moved = True
    return gained, moved


def _swap_delta(est, assign: np.ndarray, a: int, b: int) -> int:
    idx = np.union1d(est.per_item_index[a], est.per_item_index[b])
    if len(idx) == 0:
        return 0
    us = est.us[idx]
    vs = est.vs[idx]
    w = est.weight_num[idx]
    y = est.labels[idx].astype(np.int64)
    swapped = assign.copy()
    swapped[[a, b]] = assign[[b, a]]
    old = (assign[us] == assign[vs]).astype(np.int64)
    new = (swapped[us] == swapped[vs]).astype(np.int64)
    return int(w @ ((new != y).astype(np.int64) - (old != y).astype(np.int64)))


def _swap_pass(est, assign: np.ndarray) -> tuple[int, bool]:
    """First-improvement sweep over cross-cluster item swaps in lex order."""
    gained = 0
    moved = False
    n = len(assign)
    for a in range(n):
        for b in range(a + 1, n):
            if assign[a] == assign[b]:
                continue
            delta = _swap_delta(est, assign, a, b)
            if delta < 0:
                assign[[a, b]] = assign[[b, a]]
                gained += delta
                moved = True
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
    cross-cluster swap sweeps until neither improves.  Restart 0 starts from
    `start`, so the result never evaluates worse than it.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if rng is None:
        rng = derive_rng(0, "local-search")
    k = start.k
    n = est.n_items
    best: tuple[int, int, np.ndarray] | None = None
    for r in range(restarts):
        assign = (start.assign if r == 0 else random_clustering(n, k, rng).assign).copy()
        obj = est.evaluate_int(Clustering(assign, k))
        while True:
            gained, moved_a = _reassign_pass(est, assign, k)
            obj += gained
            gained, moved_b = _swap_pass(est, assign)
            obj += gained
            if not (moved_a or moved_b):
                break
        if best is None or obj < best[0]:
            best = (obj, r, assign.copy())
    return Clustering(best[2], k)


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
