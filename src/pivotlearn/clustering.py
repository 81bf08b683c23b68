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

from . import core
from .core import (
    Params,
    PoolMismatchError,
    RegretEstimator,
    csv_header,
    csv_rows,
    integer_array,
    is_integer,
    items_in_order,
    packed_argmin,
    pair_coefficients,
    pair_estimator,
    pair_table,
    sample_size,
    segment_offsets,
    stratum_draws,
    unordered_verification_labels,
    upper_pairs,
)
from .seeding import derive_rng

__all__ = [
    "Clustering",
    "sample_size_q",
    "build_clustering_estimator",
    "exact_erm",
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
_MAX_K = 2**31 - 1  # cluster ids are stored as int32
_NO_SWAP = np.iinfo(np.int64).max  # swap_deltas entry of a pair that is no candidate


def _ids_in_use(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct values ascending, each entry's index among them, their counts).

    The work grows with len(values), never with the largest value.
    """
    ids = np.unique(values)
    index = np.searchsorted(ids, values)
    return ids, index, np.bincount(index)


class Clustering:
    """Assignment of items 0..n-1 to cluster ids 1..k."""

    __slots__ = ("assign", "k")

    def __init__(self, assign, k: Optional[int] = None):
        assign = integer_array(assign)
        if len(assign) < 2:
            raise ValueError("clustering needs at least 2 items")
        if k is None:
            k = int(assign.max())
        if not is_integer(k) or not 1 <= k <= _MAX_K:
            raise ValueError(f"k must be an integer in 1..2**31 - 1, got {k!r}")
        if assign.min() < 1 or assign.max() > k:
            raise ValueError(f"cluster ids must lie in 1..{k}")
        self.assign = assign.astype(np.int32, copy=False)
        self.k = int(k)

    @property
    def n_items(self) -> int:
        return len(self.assign)

    def pair_values(self, us, vs) -> np.ndarray:
        return (self.assign[us] == self.assign[vs]).view(np.uint8)

    def clusters_by_size(self) -> list[int]:
        """Nonempty cluster ids, largest first, ties to the smaller id."""
        ids, _, sizes = _ids_in_use(self.assign)
        return ids[np.argsort(-sizes, kind="stable")].tolist()

    def canonical(self) -> "Clustering":
        """Clusters renumbered 1, 2, ... by first occurrence."""
        mapping: dict[int, int] = {}
        out = np.empty_like(self.assign)
        for i, cid in enumerate(self.assign.tolist()):
            out[i] = mapping.setdefault(cid, len(mapping) + 1)
        return Clustering(out, self.k)

    def distance_to(self, other: "Clustering") -> float:
        """Pair-disagreement distance from cluster and intersection sizes.

        A pair split by one clustering but not the other is counted once
        per side: sum(rows**2) + sum(cols**2) - 2*sum(cells**2) over the
        intersection table, whose rows and columns are the ids in use.
        """
        if other.n_items != self.n_items:
            raise PoolMismatchError("clusterings have different item counts")
        _, a, rows = _ids_in_use(self.assign)
        _, b, cols = _ids_in_use(other.assign)
        cells = _ids_in_use(a * len(cols) + b)[2]
        disagree = int(rows @ rows) + int(cols @ cols) - 2 * int(cells @ cells)
        n = self.n_items
        return disagree / (n * (n - 1))

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
    return sample_size(
        "q", lambda: c2 * max(epsilon**-2 * k**2, epsilon**-3 * k) * math.log2(n)
    )


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
    # clusters in use, largest first and ties to the smaller id, as clusters_by_size
    _, cluster, sizes = _ids_in_use(pivot.assign)
    ordered = np.argsort(-sizes, kind="stable")
    rank = np.empty(len(ordered), dtype=np.int64)
    rank[ordered] = np.arange(len(ordered))
    items = np.argsort(rank[cluster], kind="stable")  # clusters in order, ids ascending
    sizes = sizes[ordered]
    start = sizes.cumsum() - sizes  # where each cluster begins in `items`
    # each item's strata: its own cluster, itself left out, then every later cluster
    own = rank[cluster[items]]
    n_strata = len(ordered) - own
    later = segment_offsets(n_strata)  # 0 for the own cluster, then 1, 2, ... clusters on
    src = own.repeat(n_strata) + later
    count, offset, w_num = stratum_draws(sizes[src] - (later == 0), q, rng)
    cross = later.repeat(count) > 0
    at = np.arange(n).repeat(n_strata).repeat(count)  # u's place in `items`, per sample
    pos = start[src].repeat(count) + offset
    pos += ~cross & (pos >= at)  # step past u itself
    # a cross-cluster draw stands for both orientations: twice its weight
    return pair_estimator(pivot, oracle, items[at], items[pos], w_num << cross, q)


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


@lru_cache(maxsize=None)
def all_assignments(n: int, k: int) -> np.ndarray:
    """All canonical assignments (first-occurrence labels 1..k), lex order.

    Rows are restricted-growth strings shifted to 1-based ids, so the row
    order is the lexicographic order on canonical assignment arrays.  They
    are built one item at a time: each row fans out to every label it uses
    and one new label below k, in increasing order, which keeps the rows in
    lex order.  The table is cached per (n, k) and read-only.
    """
    if n < 2 or n > _EXACT_ERM_MAX_N or k < 1 or k > _EXACT_ERM_MAX_K:
        raise ValueError(
            f"exact enumeration supports 2 <= n <= {_EXACT_ERM_MAX_N} and "
            f"1 <= k <= {_EXACT_ERM_MAX_K}; use local_search_erm for larger pools"
        )
    table = np.zeros((count_assignments(n, k), n), dtype=np.int8)  # item 0 takes label 0
    used = np.ones(1, dtype=np.int8)  # labels in use by each row built so far
    for i in range(1, n):
        fan = np.minimum(used, k - 1) + 1  # a row's children take labels 0..fan-1
        ends = np.cumsum(fan, dtype=np.int32)  # int32: at most 700,075 rows
        label = (np.arange(ends[-1], dtype=np.int32) - (ends - fan).repeat(fan)).astype(np.int8)
        table[: len(label), :i] = table[: len(used), :i].repeat(fan, axis=0)
        table[: len(label), i] = label
        used = np.maximum(used.repeat(fan), label + 1)
    table += 1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _pair_table(n: int, k: int) -> np.ndarray:
    """Packed "same cluster" table of all_assignments(n, k), cached and read-only."""
    table = pair_table(all_assignments(n, k), oriented=False)
    table.flags.writeable = False
    return table


def _exact_argmin(n: int, k: int, us, vs, labels, weight_num) -> tuple[Clustering, int]:
    """First canonical assignment in lex order of least weighted mismatch, and that mismatch."""
    coef, base = pair_coefficients(n, us, vs, labels, weight_num, oriented=False)
    row, value = packed_argmin(_pair_table(n, k), coef, base)
    return Clustering(all_assignments(n, k)[row], k), value


def exact_erm(est: RegretEstimator, start=None, *, rng=None, k: Optional[int] = None) -> Clustering:
    """Global estimator minimizer over all <=k-partitions.

    Ties resolve to the lexicographically smallest canonical assignment.
    """
    k = k if k is not None else est.pivot.k
    return _exact_argmin(est.n_items, k, est.us, est.vs, est.labels, est.weight_num)[0]


def exact_min_error(oracle, k: int) -> tuple[float, Clustering]:
    """(min err over all <=k-partitions, first lexicographic argmin)."""
    from .core import Pool

    n = oracle.n
    us, vs = upper_pairs(n)
    labels = unordered_verification_labels(oracle, us, vs)
    clu, half = _exact_argmin(n, k, us, vs, labels, np.ones(len(us), np.int64))
    return 2 * half / Pool(n).pair_count, clu


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

    __slots__ = (
        "assign", "cost", "partners", "signed", "bounds", "index",
        "upper_ends", "upper_partners", "upper_weight", "upper_bounds",
    )

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
        self.index = np.arange(n)
        self.assign = assign
        base = np.zeros(n, dtype=np.int64)
        np.add.at(base, ends, weight * label)
        self.cost = np.repeat(base[:, None], k + 1, axis=1)
        # flat cells u * (k + 1) + c: a 1-D add.at is several times faster than a 2-D one
        cells = ends * (k + 1)
        cells += assign[self.partners]
        np.add.at(self.cost.reshape(-1), cells, self.signed)
        # each sample once more, at its smaller item, for the swap correction
        upper = self.partners > ends
        self.upper_ends = ends[upper]
        self.upper_partners = self.partners[upper]
        self.upper_weight = 2 * self.signed[upper]
        self.upper_bounds = np.searchsorted(self.upper_ends, np.arange(n + 1))

    def move(self, item: int, cid: int) -> None:
        """Put `item` in cluster `cid` and update its partners' rows."""
        lo, hi = self.bounds[item], self.bounds[item + 1]
        cells = self.partners[lo:hi] * self.cost.shape[1]  # flat cells of the partners' rows
        signed = self.signed[lo:hi]
        flat = self.cost.reshape(-1)
        np.subtract.at(flat, cells + self.assign[item], signed)
        np.add.at(flat, cells + cid, signed)
        self.assign[item] = cid

    def reassign_deltas(self, start: int, stop: int) -> np.ndarray:
        """Objective change of moving each u in start..stop-1 to each cluster 1..k."""
        cost, assign = self.cost, self.assign
        if stop - start == 1:
            return cost[start:stop, 1:] - cost[start, assign[start]]
        current = cost[self.index[start:stop], assign[start:stop]]
        return cost[start:stop, 1:] - current[:, None]

    def swap_deltas(self, start: int, stop: int, lo: int) -> np.ndarray:
        """Objective change of swapping each a in start..stop-1 with each b >= lo.

        A (rows, n - lo) block; an entry with b <= a or b in a's cluster
        is no candidate and reads the int64 maximum.  Every row is scored
        from lo, so a block of several rows starts at lo = start + 1.  The
        two row differences each count the samples on {a, b} once with b
        (resp. a) unmoved; those samples keep their value, as a and b stay
        in different clusters, hence the correction.
        """
        cost, assign = self.cost, self.assign
        ca, cb = assign[start:stop], assign[lo:]
        first, last = self.upper_bounds[start], self.upper_bounds[stop]
        at = self.upper_partners[first:last] - lo
        weight = self.upper_weight[first:last]
        delta = cost[start:stop].take(cb, axis=1)  # C order, for the flat correction
        if stop - start == 1:  # one own entry to read, no triangle to mask
            delta -= cost[start, ca[0]]
            delta += cost[lo:, ca[0]]
            delta -= cost[self.index[lo:], cb]
            skip = cb == ca[0]
            if lo > start + 1:  # resuming after a swap: partners before lo drop out
                keep = at >= 0
                at, weight = at[keep], weight[keep]
        else:
            current = cost[self.index[start:], assign[start:]]
            delta -= current[: stop - start, None]
            delta += cost[lo:, ca].T
            delta -= current[lo - start :]
            at += (self.upper_ends[first:last] - start) * len(cb)
            skip = (ca[:, None] == cb) | (self.index[lo:] <= self.index[start:stop, None])
        np.subtract.at(delta.reshape(-1), at, weight)
        np.putmask(delta, skip, _NO_SWAP)
        return delta


# Both passes score a block of rows against the table in one call.  Nothing
# moves between the scoring and the block's first improving entry, so every
# entry before it is rejected exactly as a one-at-a-time scan would; the
# move is made there and the next block starts after it.  A block is one
# row after a move and doubles after a block without one, up to
# core._SCAN_BLOCK_PAIRS entries.


def _reassign_pass(table: _GainTable) -> tuple[int, bool]:
    """One item-major first-improvement sweep of single reassignments."""
    gained = 0
    moved = False
    n, width = table.cost.shape[0], table.cost.shape[1] - 1
    most = max(1, core._SCAN_BLOCK_PAIRS // width)
    start, height = 0, 1
    while start < n:
        stop = min(n, start + height)
        delta = table.reassign_deltas(start, stop)
        row, c = divmod(int(delta.argmin()), width)
        if delta[row, c] >= 0:
            start, height = stop, min(2 * height, most)
            continue
        if row:  # an earlier row of the block may improve by less
            row = int((delta[: row + 1] < 0).argmax()) // width
            c = int(delta[row].argmin())
        # argmin takes the first minimum: ties go to the smallest cluster id
        table.move(start + row, c + 1)
        gained += int(delta[row, c])
        moved = True
        start, height = start + row + 1, 1
    return gained, moved


def _swap_pass(table: _GainTable) -> tuple[int, bool]:
    """First-improvement sweep over cross-cluster item swaps in lex order."""
    gained = 0
    moved = False
    assign = table.assign
    n = len(assign)
    a, lo, height = 0, 1, 1
    while a < n - 1:
        if lo == n:  # a was just swapped with the last item
            a, lo = a + 1, a + 2
            continue
        width = n - lo
        stop = min(n - 1, a + min(height, max(1, core._SCAN_BLOCK_PAIRS // width)))
        delta = table.swap_deltas(a, stop, lo)
        better = delta < 0
        first = int(better.argmax())
        row, col = divmod(first, width)
        if not better[row, col]:
            a, lo, height = stop, stop + 1, 2 * height
            continue
        a += row
        b = lo + col
        ca, cb = int(assign[a]), int(assign[b])
        table.move(a, cb)
        table.move(b, ca)
        gained += int(delta[row, col])
        moved = True
        lo, height = b + 1, 1
    return gained, moved


def local_search_erm(
    est: RegretEstimator,
    start: Clustering,
    *,
    restarts: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> Clustering:
    """Single-item reassignment plus swap local search, best of `restarts` seeded starts.

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
        csv_header(reader, ("item", "cluster"), f"{path} must start with an 'item,cluster' header")
        for _, (item, cid) in csv_rows(path, reader, lambda row: (int(row[0]), int(row[1]))):
            if item in seen:
                raise ValueError(f"{path}: item {item} listed twice")
            seen[item] = cid
    return Clustering(np.array(items_in_order(path, seen), dtype=np.int32), k)
