"""Permutations over a pool, pairwise-preference estimators, and ranking ERM.

The estimator builder keeps every pair whose positions under the pivot are
closer than p, then stratifies the remaining pairs into geometric distance
bands and samples p pairs per band with repetition, weighting each draw by
band size over p.  Bands no larger than p are taken whole at unit weight, so
for p >= n the estimator degenerates to the exact regret.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Params,
    PoolMismatchError,
    RegretEstimator,
    pair_estimator,
    stratum_sample,
    unordered_verification_labels,
    weighted_mismatch_argmin,
)
from .seeding import derive_rng

__all__ = [
    "Permutation",
    "count_inversions",
    "kendall_distance",
    "footrule_distance",
    "sample_size_p",
    "BandPlan",
    "band_plan",
    "build_ranking_estimator",
    "exact_erm",
    "exact_erm_with_value",
    "exact_min_error",
    "local_search_erm",
    "random_permutation",
    "all_rank_arrays",
    "permutations_to_class",
    "enumerate_sn_class",
    "save_permutation",
    "load_permutation",
]

_EXACT_ERM_MAX_N = 10


class Permutation:
    """Total order on items 0..n-1, stored as a rank array (positions 1..n)."""

    __slots__ = ("rank", "_order")

    def __init__(self, rank):
        rank = np.asarray(rank, dtype=np.int32)
        n = len(rank)
        if n < 2:
            raise ValueError("permutation needs at least 2 items")
        if sorted(rank.tolist()) != list(range(1, n + 1)):
            raise ValueError("rank array must be a permutation of 1..n")
        self.rank = rank
        self._order = None

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(1, n + 1))

    @classmethod
    def from_order(cls, items) -> "Permutation":
        items = np.asarray(items, dtype=np.int64)
        rank = np.empty(len(items), dtype=np.int32)
        rank[items] = np.arange(1, len(items) + 1)
        return cls(rank)

    @property
    def n_items(self) -> int:
        return len(self.rank)

    @property
    def order(self) -> np.ndarray:
        """Items listed from rank 1 to rank n."""
        if self._order is None:
            order = np.empty(self.n_items, dtype=np.int32)
            order[self.rank - 1] = np.arange(self.n_items, dtype=np.int32)
            self._order = order
        return self._order

    def pair_values(self, us, vs) -> np.ndarray:
        return (self.rank[us] < self.rank[vs]).astype(np.uint8)

    def distance_to(self, other: "Permutation") -> float:
        return kendall_distance(self, other)

    def move(self, item: int, position: int) -> "Permutation":
        """New permutation with `item` moved to 1-based `position`."""
        order = np.delete(self.order, self.rank[item] - 1)
        order = np.insert(order, position - 1, item)
        return Permutation.from_order(order)

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.rank, other.rank)

    def __hash__(self):
        return hash(self.rank.tobytes())

    def __repr__(self):
        return f"Permutation(rank={self.rank.tolist()})"


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation.from_order(rng.permutation(n))


def count_inversions(seq) -> int:
    """Out-of-order pair count of a sequence, via merge sort in O(n log n)."""
    arr = list(seq)

    def sort(lo: int, hi: int) -> int:
        if hi - lo <= 1:
            return 0
        mid = (lo + hi) // 2
        inv = sort(lo, mid) + sort(mid, hi)
        merged = []
        i, j = lo, mid
        while i < mid and j < hi:
            if arr[i] <= arr[j]:
                merged.append(arr[i])
                i += 1
            else:
                merged.append(arr[j])
                j += 1
                inv += mid - i
        merged.extend(arr[i:mid])
        merged.extend(arr[j:hi])
        arr[lo:hi] = merged
        return inv

    return sort(0, len(arr))


def kendall_distance(p1: Permutation, p2: Permutation) -> float:
    """Fraction of ordered pairs the two permutations order differently."""
    if p1.n_items != p2.n_items:
        raise PoolMismatchError("permutations have different item counts")
    n = p1.n_items
    seq = p2.rank[p1.order]
    return 2.0 * count_inversions(seq.tolist()) / (n * (n - 1))


def footrule_distance(p1: Permutation, p2: Permutation) -> int:
    """Spearman footrule: total absolute rank displacement (raw count)."""
    if p1.n_items != p2.n_items:
        raise PoolMismatchError("permutations have different item counts")
    return int(np.abs(p1.rank.astype(np.int64) - p2.rank.astype(np.int64)).sum())


def sample_size_p(n: int, epsilon: float, c1: float = 1.0) -> int:
    """Per-band sample count: max(1, ceil(c1 * eps^-3 * log2(n)^3))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return max(1, math.ceil(c1 * epsilon**-3 * math.log2(n) ** 3))


@dataclass(frozen=True)
class BandPlan:
    """Near sets and geometric distance bands induced by a pivot and p.

    The near set of u holds the items at pivot-rank distance 1..p-1 from u;
    band i holds those at distance 2^i*p..2^(i+1)*p-1.  Items are listed by
    pivot rank, the side before u first.
    """

    pivot: Permutation
    p: int

    @property
    def n_items(self) -> int:
        return self.pivot.n_items

    @property
    def n_bands(self) -> int:
        """Band indices run 0..ceil(log2 n), most of the top ones empty."""
        return math.ceil(math.log2(self.n_items)) + 1

    def _ring(self, u: int, lo_gap: int, hi_gap: int) -> np.ndarray:
        pos = int(self.pivot.rank[u]) - 1
        order = self.pivot.order
        left = order[max(0, pos - hi_gap) : max(0, pos - lo_gap + 1)]
        return np.concatenate([left, order[pos + lo_gap : pos + hi_gap + 1]])

    def near_items(self, u: int) -> np.ndarray:
        return self._ring(u, 1, self.p - 1)

    def band_items(self, u: int, i: int) -> np.ndarray:
        return self._ring(u, (1 << i) * self.p, (1 << (i + 1)) * self.p - 1)

    def band_size(self, u: int, i: int) -> int:
        return len(self.band_items(u, i))


def band_plan(pivot: Permutation, p: int) -> BandPlan:
    if p < 1:
        raise ValueError("p must be at least 1")
    return BandPlan(pivot, p)


def build_ranking_estimator(
    pivot: Permutation,
    oracle,
    params: Params,
    *,
    p: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> RegretEstimator:
    """Band-sampled regret estimator around a pivot permutation.

    Pairs closer than p under the pivot enter deterministically at weight 1;
    each nonempty band contributes p draws with repetition at weight
    band_size / p (or all its pairs at weight 1 when band_size <= p).
    Sampling is sequential over items, so the result depends only on the
    provided stream, never on scheduling.
    """
    n = pivot.n_items
    if oracle.n != n:
        raise PoolMismatchError("oracle and pivot item counts differ")
    if oracle.mode != "ranking":
        raise ValueError("ranking estimator needs a ranking-mode oracle")
    if p is None:
        p = sample_size_p(n, params.epsilon, params.c1)
    if rng is None:
        rng = derive_rng(params.master_seed, "ranking-build")
    plan = band_plan(pivot, p)
    draws = []
    for u in range(n):
        draws.append((u, plan.near_items(u), p))
        for i in range(plan.n_bands):
            band = plan.band_items(u, i)
            if len(band) == 0:
                break  # bands only move further out, so every later one is empty too
            draws.append((u, *stratum_sample(band, p, rng)))
    return pair_estimator(pivot, oracle, draws, p)


# -- exact ERM by lexicographic enumeration ----------------------------------

_RANK_ARRAY_CACHE: dict[int, np.ndarray] = {}


def all_rank_arrays(n: int) -> np.ndarray:
    """All n! rank arrays, rows in lexicographic order, cached per n."""
    if n < 2 or n > _EXACT_ERM_MAX_N:
        raise ValueError(
            f"exact enumeration supports 2 <= n <= {_EXACT_ERM_MAX_N}; "
            "use local_search_erm for larger pools"
        )
    cached = _RANK_ARRAY_CACHE.get(n)
    if cached is None:
        count = math.factorial(n)
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.permutations(range(1, n + 1))),
            dtype=np.int8,
            count=count * n,
        )
        cached = flat.reshape(count, n)
        _RANK_ARRAY_CACHE[n] = cached
    return cached


def exact_erm_with_value(est: RegretEstimator, start=None, *, rng=None):
    """Global estimator minimizer over all permutations, plus its objective.

    Ties resolve to the lexicographically smallest rank array because the
    enumeration is lexicographic and the scan keeps the first minimum.
    """
    ranks = all_rank_arrays(est.n_items)
    row, _ = weighted_mismatch_argmin(
        ranks, lambda block: block[:, est.us] < block[:, est.vs], est.labels, est.weight_num
    )
    perm = Permutation(ranks[row])
    return perm, est.evaluate(perm)


def exact_erm(est: RegretEstimator, start=None, *, rng=None) -> Permutation:
    return exact_erm_with_value(est, start, rng=rng)[0]


def exact_min_error(oracle) -> tuple[float, Permutation]:
    """(min err over all permutations, its first lexicographic argmin).

    Reads the full label table (verification counter), so it measures the
    best achievable error, not an estimate.
    """
    from .core import Pool

    n = oracle.n
    us, vs = np.triu_indices(n, k=1)
    labels = unordered_verification_labels(oracle, us, vs)
    ranks = all_rank_arrays(n)
    row, half = weighted_mismatch_argmin(
        ranks, lambda block: block[:, us] < block[:, vs], labels, np.ones(len(us), np.int64)
    )
    return 2 * half / Pool(n).pair_count, Permutation(ranks[row])


# -- local search ERM ---------------------------------------------------------


def _insertion_csr(est: RegretEstimator):
    """Per-item partner/delta arrays for insertion moves.

    For each sample (a, b, y, w), moving endpoint u past its partner flips
    the predicate; the objective change of "u after partner" minus "u before
    partner" is +w when y says u should win and -w otherwise.
    """
    s = np.sign(2 * est.labels.astype(np.int64) - 1)
    endpoints = np.concatenate([est.us, est.vs])
    partners = np.concatenate([est.vs, est.us])
    deltas = np.concatenate([est.weight_num * s, -est.weight_num * s])
    order = np.argsort(endpoints, kind="stable")
    endpoints = endpoints[order]
    partners = partners[order].astype(np.int64)
    deltas = deltas[order]
    bounds = np.searchsorted(endpoints, np.arange(est.n_items + 1))
    return partners, deltas, bounds


def _climb(est, start: Permutation, partners, deltas, bounds) -> tuple[Permutation, int]:
    n = est.n_items
    order = start.order.astype(np.int64).copy()
    rank0 = np.empty(n, dtype=np.int64)
    rank0[order] = np.arange(n)
    obj = est.evaluate_int(start)
    moved = True
    while moved:
        moved = False
        for u in range(n):
            lo, hi = bounds[u], bounds[u + 1]
            if lo == hi:
                continue
            g = np.zeros(n, dtype=np.int64)
            np.add.at(g, rank0[partners[lo:hi]], deltas[lo:hi])
            prefix = np.cumsum(g)
            i = rank0[u]
            move_val = np.zeros(n, dtype=np.int64)
            if i + 1 < n:
                move_val[i + 1 :] = prefix[i + 1 :] - prefix[i]
            if i > 0:
                left_prefix = np.concatenate([[0], prefix[: i - 1]]) if i > 1 else np.array([0])
                move_val[:i] = left_prefix - prefix[i - 1]
            j = int(np.argmin(move_val))
            if move_val[j] < 0:
                order = np.insert(np.delete(order, i), j, u)
                rank0[order] = np.arange(n)
                obj += int(move_val[j])
                moved = True
    return Permutation.from_order(order), obj


def local_search_erm(
    est: RegretEstimator,
    start: Permutation,
    *,
    restarts: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> Permutation:
    """First-improvement insertion search, best of `restarts` seeded starts.

    Items are scanned in id order; the first item with an improving insertion
    is moved to its best target (ties to the smallest position).  Restart 0
    starts from `start`, the rest from stream-seeded random permutations, so
    the result never evaluates worse than the start.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if rng is None:
        rng = derive_rng(0, "local-search")
    partners, deltas, bounds = _insertion_csr(est)
    best: tuple[int, int, Permutation] | None = None
    for r in range(restarts):
        h0 = start if r == 0 else random_permutation(est.n_items, rng)
        h_opt, obj = _climb(est, h0, partners, deltas, bounds)
        if best is None or obj < best[0]:
            best = (obj, r, h_opt)
    return best[2]


# -- enumeration as a finite class -------------------------------------------


def permutations_to_class(perms: list[Permutation]):
    """FiniteClass over the ordered-pair pool induced by a list of permutations."""
    from .core import Pool
    from .generic import FiniteClass

    n = perms[0].n_items
    us, vs = Pool(n).all_pairs()
    ranks = np.stack([p.rank for p in perms])
    labels = (ranks[:, us] < ranks[:, vs]).astype(np.uint8)
    pairs = np.stack([us, vs], axis=1)
    return FiniteClass(labels, instance_pairs=pairs, n_items=n)


def enumerate_sn_class(n: int):
    """Every permutation of n items as a finite class over the pair pool."""
    if n > 8:
        raise ValueError("full S_n enumeration as a class is capped at n = 8")
    ranks = all_rank_arrays(n)
    return permutations_to_class([Permutation(r) for r in ranks])


# -- persistence ----------------------------------------------------------------


def save_permutation(perm: Permutation, path: str) -> None:
    """Single CSV row: item ids from rank 1 to rank n."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(perm.order.tolist())


def load_permutation(path: str) -> Permutation:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) != 1:
        raise ValueError(f"{path} must hold exactly one row of item ids in rank order")
    try:
        items = [int(c) for c in rows[0]]
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer item id") from exc
    if sorted(items) != list(range(len(items))):
        raise ValueError(f"{path}: row must list each item 0..n-1 exactly once")
    return Permutation.from_order(items)
