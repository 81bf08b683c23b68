"""Permutations over a pool, pairwise-preference estimators, and ranking ERM.

The estimator builder keeps every pair whose positions under the pivot are
closer than p, then stratifies the remaining pairs into geometric distance
bands and samples p pairs per band with repetition, weighting each draw by
band size over p.  Bands no larger than p are taken whole at unit weight, so
for p >= n the estimator degenerates to the exact regret.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional

import numpy as np

from .core import (
    RESTARTS,
    Params,
    PoolMismatchError,
    RegretEstimator,
    best_of_restarts,
    index_dtype,
    integer_ids,
    is_integer,
    pair_coefficients,
    pair_min_error,
    pair_rows,
    sample_size,
    stratum_draws,
    upper_pairs,
)
from .generic import pair_class

__all__ = [
    "Permutation",
    "count_inversions",
    "kendall_distance",
    "footrule_distance",
    "sample_size_p",
    "ring_bounds",
    "build_ranking_estimator",
    "exact_erm",
    "exact_min_error",
    "local_search_erm",
    "random_permutation",
    "all_rank_arrays",
    "enumerate_sn_class",
]

_ENUMERATION_MAX_N = 10
_EXACT_ERM_MAX_N = 14  # the tie-break key reaches n**n, and 14**14 < 2**63
_SN_CLASS_MAX_N = 8  # largest n whose n! permutations enumerate_sn_class lists
_NEVER = np.iinfo(np.int64).max  # key of a DP candidate that does not tie the best


class Permutation:
    """Total order on items 0..n-1, stored as a rank array (positions 1..n)."""

    __slots__ = ("rank", "_order")

    def __init__(self, rank):
        rank = integer_ids(rank, "rank", ndim=1)
        n = len(rank)
        if n < 2:
            raise ValueError("permutation needs at least 2 items")
        if sorted(rank.tolist()) != list(range(1, n + 1)):
            raise ValueError("rank array must be a permutation of 1..n")
        self.rank = rank.astype(np.int32)
        self._order = None

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(1, n + 1))

    @classmethod
    def from_order(cls, items) -> "Permutation":
        """Permutation listing `items` from rank 1 to rank n; the order is kept as given."""
        items = integer_ids(items, "items", ndim=1)
        n = len(items)
        if n < 2:
            raise ValueError("permutation needs at least 2 items")
        if sorted(items.tolist()) != list(range(n)):
            raise ValueError("order must list each item 0..n-1 exactly once")
        perm = cls.__new__(cls)  # a valid order is a valid rank array: no second check
        perm.rank = np.empty(n, dtype=np.int32)
        perm.rank[items] = np.arange(1, n + 1, dtype=np.int32)
        perm._order = items.astype(np.int32)
        return perm

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

    def pair_values(self, us, vs) -> np.ndarray:  # take: fast with narrow ids
        us, vs = np.asarray(us), np.asarray(vs)
        if us.dtype.kind == "b" or vs.dtype.kind == "b":  # take would read them as 1 and 0
            raise ValueError("pair ids must be integers, not bools")
        return (self.rank.take(us) < self.rank.take(vs)).view(np.uint8)

    def distance_to(self, other: "Permutation") -> float:
        return kendall_distance(self, other)

    def to_dict(self) -> dict:
        return {"kind": "permutation", "rank": self.rank.tolist()}

    def move(self, item: int, position: int) -> "Permutation":
        """New permutation with `item` (0..n-1) moved to 1-based `position` (1..n)."""
        n = self.n_items
        if not (is_integer(item) and 0 <= item < n):
            raise ValueError(f"item must be an integer in 0..{n - 1}, got {item!r}")
        if not (is_integer(position) and 1 <= position <= n):
            raise ValueError(f"position must be an integer in 1..{n}, got {position!r}")
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
    """Out-of-order pair count of a sequence, by a bottom-up merge count.

    A bare iterator has no len() and is refused.  Values are ranked densely
    first, ties kept.  At width w every w-run is sorted, so the left runs'
    (run pair, value) keys form one sorted array, and a right value's larger
    left partners are the (j + 1) * w left keys of pairs 0..j, j its own
    pair, less those at or below its key.
    """
    values = np.unique(np.asarray(seq).reshape(len(seq)), return_inverse=True)[1].reshape(-1)
    idx, total, w = np.arange(len(values)), 0, 1
    while w < len(values):
        pair, right = idx // (2 * w), idx % (2 * w) >= w
        keys = pair * len(values) + values  # dense ranks lie in 0..n-1
        below = np.searchsorted(keys[~right], keys[right], "right")
        total += int(w * (pair[right] + 1).sum() - below.sum())
        values = np.sort(keys) - pair * len(values)
        w *= 2
    return total


def kendall_distance(p1: Permutation, p2: Permutation) -> float:
    """Fraction of ordered pairs the two permutations order differently."""
    if p1.n_items != p2.n_items:
        raise PoolMismatchError("permutations have different item counts")
    n = p1.n_items
    return 2.0 * count_inversions(p2.rank[p1.order]) / (n * (n - 1))


def footrule_distance(p1: Permutation, p2: Permutation) -> int:
    """Spearman footrule: total absolute rank displacement (raw count)."""
    if p1.n_items != p2.n_items:
        raise PoolMismatchError("permutations have different item counts")
    return int(np.abs(p1.rank.astype(np.int64) - p2.rank.astype(np.int64)).sum())


def sample_size_p(n: int, epsilon: float, c1: float = 1.0) -> int:
    """Per-band sample count: max(1, ceil(c1 * eps^-3 * log2(n)^3))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return sample_size("p", lambda: c1 * epsilon**-3 * math.log2(n) ** 3)


def ring_bounds(pivot: Permutation, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) pivot positions of every item's rings, each of shape (n, ceil(log2 n) + 2, 2).

    Ring 0 is the near set, the items at pivot-rank distance 1..p-1, and
    ring i + 1 is band i, those at distance 2^i*p..2^(i+1)*p-1; band indices
    run 0..ceil(log2 n), most of the top ones empty.  Arm 0 is the slice
    order[lo:hi] before the item in pivot order and arm 1 the slice after
    it, both clipped to the pool, so every arm has hi >= lo, and arm 1
    starts at or after arm 0's end.  Both are C-contiguous, in
    index_dtype(n + 1), the narrowest dtype holding positions 0..n.
    """
    if not is_integer(p) or p < 1:
        raise ValueError(f"p must be an integer >= 1, got {p!r}")
    n = pivot.n_items
    rank = pivot.rank.astype(np.int64)[:, None, None]
    bounds = np.add(rank, _ring_offsets(p, math.ceil(math.log2(n)) + 1), order="C")
    np.maximum(bounds, 0, out=bounds)
    np.minimum(bounds, n, out=bounds)
    bounds = bounds.astype(index_dtype(n + 1))
    return bounds[0], bounds[1]


@functools.lru_cache(maxsize=256)
def _ring_offsets(p: int, n_bands: int) -> np.ndarray:
    """(2, 1, n_bands + 1, 2) steps from a pivot rank to its rings' lo and hi positions.

    Ring r spans pivot-rank gaps inner[r]..outer[r]: arm 0 is positions
    rank-1-outer .. rank-inner (hi exclusive), arm 1 rank-1+inner .. rank+outer.
    """
    edges = p << np.arange(n_bands + 1)
    inner = np.concatenate([[1], edges[:-1]])  # least pivot-rank gap of each ring
    outer = edges - 1  # greatest
    steps = np.array([[-outer - 1, inner - 1], [-inner, outer]]).transpose(0, 2, 1)[:, None]
    steps.flags.writeable = False
    return steps


def build_ranking_estimator(
    pivot: Permutation,
    oracle,
    params: Params,
    *,
    p: Optional[int] = None,
    rng: np.random.Generator,
) -> RegretEstimator:
    """Band-sampled regret estimator around a pivot permutation.

    Pairs closer than p under the pivot enter deterministically at weight 1;
    each nonempty band contributes p draws with repetition at weight
    band_size / p (or all its pairs at weight 1 when band_size <= p).
    Draws are taken in one call, in (item, band) order, so the result
    depends only on the caller's stream, never on scheduling.  Positions,
    sample ids and weight numerators are held in the narrowest dtype that
    holds them; only the draws themselves are int64.
    """
    n = pivot.n_items
    if oracle.n != n:
        raise PoolMismatchError("oracle and pivot item counts differ")
    if oracle.mode != "ranking":
        raise ValueError("ranking estimator needs a ranking-mode oracle")
    if p is None:
        p = sample_size_p(n, params.epsilon, params.c1)
    lo, hi = ring_bounds(pivot, p)
    near = np.arange(hi.shape[0] * hi.shape[1]) % hi.shape[1] == 0  # ring 0, always whole
    lo, hi = lo.reshape(-1, 2), hi.reshape(-1, 2)
    arm = hi - lo
    gap = lo[:, 1] - hi[:, 0]  # positions between the two arms
    lo = lo[:, 0]
    del hi
    # offset of each sample within its ring's items, left arm first
    count, offset, w_num = stratum_draws(arm.sum(axis=1, dtype=np.int64), p, rng, whole=near)
    spot = offset.astype(lo.dtype, copy=False)  # below the ring's size, so below n
    del offset
    right = spot >= arm[:, 0].repeat(count)
    spot += lo.repeat(count)
    np.add(spot, gap.repeat(count), out=spot, where=right)
    del lo, arm, gap, right  # dead before the labels are hashed
    ids = index_dtype(n)
    vs = pivot.order.astype(ids).take(spot)
    del spot
    us = np.arange(n, dtype=ids).repeat(count.reshape(n, -1).sum(axis=1))
    return RegretEstimator(pivot, us, vs, w_num, p, oracle.query_many(us, vs))


# -- exact ERM by subset dynamic programming --------------------------------


@functools.lru_cache(maxsize=None)
def _subset_layers(n: int):
    """Index layout of the subset DP over n items, shared by every call at that n.

    Returns (place, layers).  place[v] = n**(n-1-v) is item v's tie-break
    digit weight.  layers[k-2] covers the subsets T of size k >= 2, in
    numeric order, as (C(n, k), k) arrays over each T's members v
    ascending: the slot of T - v in layer k-1, the flat index (T - v) * n + v
    into the (2**n, n) ahead table, and the key step (k-1) * place[v].
    Arrays are read-only because every caller shares them.
    """
    size = 1 << n
    count = np.bitwise_count(np.arange(size))  # members of each subset
    by_count = np.argsort(count, kind="stable")
    starts = np.searchsorted(count[by_count], np.arange(n + 2))
    slot = np.empty(size, dtype=np.int64)
    slot[by_count] = np.arange(size) - starts[count[by_count]]
    place = np.int64(n) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    layers = []
    for k in range(2, n + 1):
        sets = by_count[starts[k] : starts[k + 1]]
        row, v = np.nonzero(sets[:, None] >> np.arange(n) & 1)  # k members per row, ascending
        prev = sets[row] ^ (1 << v)
        layers.append(tuple(a.reshape(-1, k) for a in (slot[prev], prev * n + v, (k - 1) * place[v])))
    for array in (place, *itertools.chain.from_iterable(layers)):
        array.flags.writeable = False
    return place, layers


def _exact_argmin(n: int, us, vs, labels, weight_num) -> tuple[Permutation, int]:
    """First rank array in lex order of least weighted mismatch, and that mismatch.

    Held-Karp recursion over the set S of items placed first: F(S + v) is
    the least F(S) + ahead[S, v], where ahead[S, v] sums the cost C[u, v]
    of u before v over u in S (C[u, v] is the oriented pair coefficient for
    u < v and 0 otherwise).  Each state also carries a tie-break key:
    placing v after |S| items adds |S| * n**(n-1-v), so a full order's key
    is its rank array read as base-n digits (rank - 1) with item 0 most
    significant.  Keeping the least (cost, key) pair per state therefore
    yields the first minimizer in all_rank_arrays order, with its rank
    array decoded from the key.
    """
    if n < 2 or n > _EXACT_ERM_MAX_N:
        raise ValueError(
            f"exact ranking ERM supports 2 <= n <= {_EXACT_ERM_MAX_N}; "
            "use local_search_erm for larger pools"
        )
    coef, base = pair_coefficients(n, us, vs, labels, weight_num, oriented=True)
    place, layers = _subset_layers(n)
    cost = np.zeros((n, n), dtype=np.int64)
    cost[upper_pairs(n)] = coef
    ahead = np.zeros((1 << n, n), dtype=np.int64)
    for b in range(n):
        np.add(ahead[: 1 << b], cost[b], out=ahead[1 << b : 2 << b])
    ahead = ahead.reshape(-1)
    best = key = np.zeros(n, dtype=np.int64)  # singletons: nothing ahead, key step 0
    for slot, flat, step in layers:
        cand = best[slot]
        cand += ahead[flat]
        best = cand.min(axis=1)
        key = (key[slot] + step).min(axis=1, where=cand == best[:, None], initial=_NEVER)
    return Permutation(key[0] // place % n + 1), base + int(best[0])


def exact_erm(est: RegretEstimator, start=None, *, rng=None) -> Permutation:
    """Global estimator minimizer over all permutations.

    Ties resolve to the lexicographically smallest rank array.
    """
    return _exact_argmin(est.n_items, est.us, est.vs, est.labels, est.weight_num)[0]


def exact_min_error(oracle) -> tuple[float, Permutation]:
    """(min err over all permutations, its first lexicographic argmin), by core.pair_min_error."""
    return pair_min_error(oracle, _exact_argmin)


# -- local search ERM ---------------------------------------------------------


def _climb(start: Permutation, partners, deltas, bounds) -> Permutation:
    """First-improvement insertion climb from `start` to a local optimum.

    Item u is scored over its own row only: with the row sorted by current
    rank, the objective of putting u after the first k partners is the sum
    of the first k partner deltas, so u's best slot is the first minimum,
    either the front or right after one partner.  u's own slot, at delta 0,
    sits where u stands, so the prefix sum there is the objective of the
    current position.  Moving an item that is not u's partner changes
    neither those sums nor which slot is first, so u stays settled (no
    improving move) until one of its partners moves; a moved item is
    settled, since it sits at its first minimum.  Moves shift only the span
    of order/rank0 between the old and new position.  Ranks are held in the
    narrowest unsigned dtype, so each row's stable sort is a radix sort.
    """
    n = start.n_items
    order = start.order.astype(np.int64)
    positions = np.arange(n, dtype=index_dtype(n))
    rank0 = np.empty_like(positions)
    rank0[order] = positions
    settled = np.diff(bounds) == 1  # no partners: nothing to gain
    moved = True
    while moved:
        moved = False
        for u in range(n):
            if settled[u]:
                continue
            settled[u] = True
            lo, hi = bounds[u], bounds[u + 1]
            mine = partners[lo:hi]
            ranks = rank0[mine]
            by_rank = ranks.argsort(kind="stable")
            # without dtype= numpy widens int32 sums to int64, half again slower
            prefix = np.add.accumulate(deltas[lo:hi][by_rank], dtype=deltas.dtype)
            k = prefix.argmin()
            best = min(prefix.item(k), 0)
            gain = best - prefix.item(by_rank.argmin())  # u's own slot is row entry 0
            if gain >= 0:
                continue
            i = rank0.item(u)
            if best == 0:
                j = 0
            else:
                x = ranks.item(by_rank.item(k))
                j = x + 1 if x < i else x
            if j < i:
                order[j + 1 : i + 1] = order[j:i]
                order[j] = u
                rank0[order[j : i + 1]] = positions[j : i + 1]
            else:
                order[i:j] = order[i + 1 : j + 1]
                order[j] = u
                rank0[order[i : j + 1]] = positions[i : j + 1]
            settled[mine] = False
            settled[u] = True  # mine holds u itself
            moved = True
    return Permutation.from_order(order)


def local_search_erm(
    est: RegretEstimator,
    start: Permutation,
    *,
    restarts: int = RESTARTS,
    rng: Optional[np.random.Generator] = None,
) -> Permutation:
    """First-improvement insertion search, best of `restarts` seeded starts.

    Items are scanned in id order; the first item with an improving insertion
    is moved to its best target (ties to the smallest position).  Restart 0
    starts from `start`, the rest from stream-seeded random permutations, so
    the result never evaluates worse than the start.  Each item is scored
    over its merged partner list only (samples on one pair summed into one
    delta), and its result is cached until it or one of its partners moves.
    Optima are scored only to choose among restarts (core.best_of_restarts).
    """
    partners, deltas, bounds = pair_rows(est, oriented=True)
    return best_of_restarts(
        est, start, restarts, rng, lambda rng: random_permutation(est.n_items, rng),
        lambda h: _climb(h, partners, deltas, bounds),
    )


# -- enumeration as a finite class -------------------------------------------

@functools.lru_cache(maxsize=None)
def all_rank_arrays(n: int) -> np.ndarray:
    """All n! rank arrays, rows in lexicographic order, cached per n and read-only."""
    if n < 2 or n > _ENUMERATION_MAX_N:
        raise ValueError(
            f"exact enumeration supports 2 <= n <= {_ENUMERATION_MAX_N}; "
            "use local_search_erm for larger pools"
        )
    count = math.factorial(n)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(1, n + 1))),
        dtype=np.int8,
        count=count * n,
    )
    flat.flags.writeable = False
    return flat.reshape(count, n)


def enumerate_sn_class(n: int):
    """Every permutation of n items as a finite class over the pair pool."""
    if n > _SN_CLASS_MAX_N:
        raise ValueError(f"full S_n enumeration as a class is capped at n = {_SN_CLASS_MAX_N}")
    return pair_class(all_rank_arrays(n), oriented=True)
