"""Clusterings of a pool, cluster-stratified estimators, and clustering ERM.

A clustering assigns each item a cluster id in 1..k (empty ids allowed).
The pair predicate is "same cluster".  The estimator builder walks clusters
in decreasing-size order; every item samples q partners with repetition from
its own cluster (weight (|V_i|-1)/q) and from each strictly smaller-ordered
cluster (weight 2|V_j|/q), with exhaustive unit/double-weight fallbacks when
a source has at most q candidates.  For q >= n the estimator is exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from . import core
from .core import (
    RESTARTS,
    Params,
    PoolMismatchError,
    RegretEstimator,
    best_of_restarts,
    index_dtype,
    integer_ids,
    is_integer,
    packed_argmin,
    pair_coefficients,
    pair_min_error,
    pair_rows,
    pair_table,
    sample_size,
    segment_offsets,
    stratum_draws,
)
from .generic import pair_class

__all__ = [
    "Clustering",
    "sample_size_q",
    "build_clustering_estimator",
    "exact_erm",
    "exact_min_error",
    "local_search_erm",
    "random_clustering",
    "all_assignments",
    "enumerate_partitions_class",
]

_EXACT_ERM_MAX_N = 12
_EXACT_ERM_MAX_K = 4
_MAX_K = 2**31 - 1  # cluster ids are stored as int32


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
        assign = integer_ids(assign, "assign", ndim=1)
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

    def pair_values(self, us, vs) -> np.ndarray:  # take: fast with narrow ids
        us, vs = np.asarray(us), np.asarray(vs)
        if us.dtype.kind == "b" or vs.dtype.kind == "b":  # take would read them as 1 and 0
            raise ValueError("pair ids must be integers, not bools")
        return (self.assign.take(us) == self.assign.take(vs)).view(np.uint8)

    def to_dict(self) -> dict:
        return {"kind": "clustering", "assign": self.assign.tolist(), "k": self.k}

    def clusters_by_size(self) -> list[int]:
        """Nonempty cluster ids, largest first, ties to the smaller id."""
        ids, _, sizes = _ids_in_use(self.assign)
        return ids[np.argsort(-sizes, kind="stable")].tolist()

    def canonical(self) -> "Clustering":
        """Clusters renumbered 1, 2, ... by first occurrence."""
        _, first, index = np.unique(self.assign, return_index=True, return_inverse=True)
        place = np.argsort(np.argsort(first))  # each distinct id's rank by first occurrence
        return Clustering(place[index.reshape(-1)] + 1, self.k)

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
    rng: np.random.Generator,
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
    # clusters in use, largest first and ties to the smaller id, as clusters_by_size
    _, cluster, sizes = _ids_in_use(pivot.assign)
    ordered = np.argsort(-sizes, kind="stable")
    rank = np.argsort(ordered)
    # clusters in order, ids ascending, as the sample ids' narrow dtype
    items = np.argsort(rank[cluster], kind="stable").astype(index_dtype(n))
    sizes = sizes[ordered]
    start = sizes.cumsum() - sizes  # where each cluster begins in `items`
    # each item's strata: its own cluster, itself left out, then every later cluster
    own = np.arange(len(sizes)).repeat(sizes)
    n_strata = len(ordered) - own
    later = segment_offsets(n_strata)  # 0 for the own cluster, then 1, 2, ... clusters on
    src = own.repeat(n_strata) + later
    count, offset, w_num = stratum_draws(sizes[src] - (later == 0), q, rng)
    cross = later.repeat(count) > 0
    at = np.arange(n).repeat(n_strata).repeat(count)  # u's place in `items`, per sample
    pos = start[src].repeat(count) + offset
    pos += ~cross & (pos >= at)  # step past u itself
    us, vs = items[at], items[pos]
    # a cross-cluster draw stands for both orientations: twice its weight, in
    # a dtype that holds twice the largest numerator
    w_num = w_num.astype(np.min_scalar_type(2 * int(w_num.max(initial=0))), copy=False)
    return RegretEstimator(pivot, us, vs, w_num << cross, q, oracle.query_many(us, vs))


# -- enumeration of partitions into at most k blocks ---------------------------


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
    table = np.zeros((1, n), dtype=np.int8)  # item 0 takes label 0
    used = np.ones(1, dtype=np.int8)  # labels in use by each row built so far
    for i in range(1, n):
        fan = np.minimum(used, k - 1) + 1  # a row's children take labels 0..fan-1
        ends = np.cumsum(fan, dtype=np.int32)  # int32: at most 700,075 rows
        label = (np.arange(ends[-1], dtype=np.int32) - (ends - fan).repeat(fan)).astype(np.int8)
        table = table.repeat(fan, axis=0)
        table[:, i] = label
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


def exact_erm(est: RegretEstimator, start=None, *, rng=None) -> Clustering:
    """Global estimator minimizer over all <=k-partitions, k = est.pivot.k.

    Ties resolve to the lexicographically smallest canonical assignment.
    """
    return _exact_argmin(est.n_items, est.pivot.k, est.us, est.vs, est.labels, est.weight_num)[0]


def exact_min_error(oracle, k: int) -> tuple[float, Clustering]:
    """(min err over all <=k-partitions, first lexicographic argmin), by core.pair_min_error."""
    return pair_min_error(oracle, lambda n, *sample: _exact_argmin(n, k, *sample))


# -- local search --------------------------------------------------------------


class _GainTable:
    """Exact integer gain table over the pair samples of an estimator.

    cost[u, c] is the change in u's mismatched sample weight if u left its
    cluster for cluster c, coming from a cluster of its own, the others
    staying put (Kernighan and Lin, 1970).  It sums the weights of
    core.pair_rows over u's partners in c, so column 0, which is never a
    cluster id, stays 0, and every read of the table is a difference
    within one row.  Row u lists each partner once: moving an item changes
    its partners' rows by plain indexed updates, and a move's objective
    change is a read of O(1) entries.  `assign` is updated in place;
    reset() starts over from another assignment on the same rows.
    """

    __slots__ = (
        "assign", "cost", "flat", "index", "row_cells", "bounds", "signed",
        "partners", "pair_hi", "pair_twice", "pair_bounds",
    )

    def __init__(self, est: RegretEstimator, assign: np.ndarray, k: int):
        n = est.n_items
        self.partners, self.signed, self.bounds = pair_rows(est, oriented=False)
        self.index = np.arange(n, dtype=index_dtype(n))  # narrow: a cheaper b > a mask
        self.row_cells = np.arange(n) * (k + 1)
        self.cost = np.zeros((n, k + 1), dtype=self.signed.dtype)  # pair_rows' bound covers it
        self.flat = self.cost.reshape(-1)
        # the merged pairs, by smaller item, for the swap correction
        as_lo = self.partners > self.index.repeat(np.diff(self.bounds))
        self.pair_hi, self.pair_twice = self.partners[as_lo], 2 * self.signed[as_lo]
        lows = np.add.reduceat(as_lo, self.bounds[:-1], dtype=np.intp)  # pairs per smaller item
        self.pair_bounds = np.append(0, lows.cumsum())
        del as_lo
        self.reset(assign)

    def reset(self, assign: np.ndarray) -> None:
        """Fill the table for `assign`, which it then updates in place."""
        self.assign = assign
        self.cost.fill(0)
        cells = self.row_cells.repeat(np.diff(self.bounds))
        cells += assign[self.partners]
        np.add.at(self.flat, cells, self.signed)

    def move(self, item: int, cid: int) -> None:
        """Put `item` in cluster `cid` and update its partners' rows."""
        lo, hi = self.bounds[item], self.bounds[item + 1]
        partners, signed = self.partners[lo:hi], self.signed[lo:hi]
        self.cost[:, self.assign[item]][partners] -= signed  # a column view: 1-d indexing
        self.cost[:, cid][partners] += signed
        self.assign[item] = cid

    def reassign_deltas(self, start: int, stop: int) -> np.ndarray:
        """Objective change of moving each u in start..stop-1 to each cluster 1..k."""
        cost, assign = self.cost, self.assign
        if stop - start == 1:
            return cost[start:stop, 1:] - cost[start, assign[start]]
        current = self.flat[self.row_cells[start:stop] + assign[start:stop]]
        return cost[start:stop, 1:] - current[:, None]

    def swap_scores(self, start: int, stop: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """(better, score) of swapping each a in start..stop-1 with each b >= lo.

        Both are (rows, n - lo) blocks, or 1-D rows when stop = start + 1.
        The swap changes the objective by score - cost[a, assign[a]], and
        `better` marks where that is negative for b > a in another cluster.
        Every row is scored from lo, so a block of several rows starts at
        lo = start + 1.  The two row differences each count the pair {a, b}
        once with b (resp. a) unmoved; its samples keep their value, as a
        and b stay in different clusters, hence the correction.
        """
        cost, assign = self.cost, self.assign
        cb = assign[lo:]
        first, last = self.pair_bounds[start], self.pair_bounds[stop]
        at = self.pair_hi[first:last] - lo
        twice = self.pair_twice[first:last]
        current = self.flat[self.row_cells[lo:] + cb]
        if stop - start == 1:
            ca = assign[start]
            score = cost[start].take(cb)
            score += cost[lo:, ca]
            score -= current
            if lo > start + 1:  # resuming after a swap: partners before lo drop out
                keep = at >= 0
                at, twice = at[keep], twice[keep]
            score[at] -= twice
            better = score < cost[start, ca]
            better &= cb != ca
            return better, score
        ca = assign[start:stop]
        score = cost[start:stop].take(cb, axis=1)  # C order, for the flat correction
        score += cost[lo:, ca].T
        score -= current
        bounds = self.pair_bounds[start:stop + 1]  # each pair to its row of the flat block
        at += np.arange(0, score.size, len(cb)).repeat(bounds[1:] - bounds[:-1])
        score.reshape(-1)[at] -= twice
        better = score < self.flat[self.row_cells[start:stop] + ca][:, None]
        better &= ca[:, None] != cb
        better &= self.index[lo:] > self.index[start:stop, None]
        return better, score


# Both passes score a block of rows against the table in one call.  Nothing
# moves between the scoring and the block's first improving entry, so every
# entry before it is rejected exactly as a one-at-a-time scan would; the
# move is made there and the next block starts after it.  A block is one
# row after a move and doubles after a block without one, up to
# core._SCAN_BLOCK_PAIRS entries.


def _reassign_pass(table: _GainTable) -> bool:
    """One item-major first-improvement sweep of single reassignments; whether it moved."""
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
        moved = True
        start, height = start + row + 1, 1
    return moved


def _swap_pass(table: _GainTable) -> bool:
    """First-improvement sweep over cross-cluster item swaps in lex order; whether it moved."""
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
        better, _ = table.swap_scores(a, stop, lo)
        first = int(better.argmax())  # the first candidate in (a, b) lex order
        if not better.item(first):
            a, lo, height = stop, stop + 1, 2 * height
            continue
        row, col = divmod(first, width)
        a += row
        b = lo + col
        ca, cb = int(assign[a]), int(assign[b])
        table.move(a, cb)
        table.move(b, ca)
        moved = True
        lo, height = b + 1, 1
    return moved


def local_search_erm(
    est: RegretEstimator,
    start: Clustering,
    *,
    restarts: int = RESTARTS,
    rng: Optional[np.random.Generator] = None,
) -> Clustering:
    """Single-item reassignment plus swap local search, best of `restarts` seeded starts.

    Each restart alternates first-improvement reassignment sweeps with
    cross-cluster swap sweeps until neither improves; moves are scored from
    one gain table, built once and reset for each restart.  Restart 0
    starts from `start`, so the result never evaluates worse than it.
    Optima are scored only to choose among restarts (core.best_of_restarts).
    """
    k = start.k
    table = _GainTable(est, start.assign.copy(), k)

    def climb(h: Clustering) -> Clustering:
        if h is not start:  # restart 0 climbs on the table as built
            table.reset(h.assign.copy())
        while _reassign_pass(table) | _swap_pass(table):  # | runs both passes every round
            pass
        return Clustering(table.assign, k)

    return best_of_restarts(
        est, start, restarts, rng, lambda rng: random_clustering(est.n_items, k, rng), climb
    )


# -- enumeration as a finite class ---------------------------------------------


def enumerate_partitions_class(n: int, k: int):
    """Every <=k-partition of n items as a finite class over the pair pool."""
    return pair_class(all_assignments(n, k), oriented=False)
