"""Permutations over a pool, pairwise-preference estimators, and ranking ERM.

The estimator builder keeps every pair whose positions under the pivot are
closer than p, then stratifies the remaining pairs into geometric distance
bands and samples p pairs per band with repetition, weighting each draw by
band size over p.  Bands no larger than p are taken whole at unit weight, so
for p >= n the estimator degenerates to the exact regret.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    Params,
    PoolMismatchError,
    RegretEstimator,
    index_dtype,
    integer_array,
    is_integer,
    pair_coefficients,
    pair_estimator,
    sample_size,
    stratum_draws,
    unordered_verification_labels,
    upper_pairs,
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
    "exact_min_error",
    "local_search_erm",
    "random_permutation",
    "all_rank_arrays",
    "permutations_to_class",
    "enumerate_sn_class",
    "save_permutation",
    "load_permutation",
]

_ENUMERATION_MAX_N = 10
_EXACT_ERM_MAX_N = 14  # the tie-break key reaches n**n, and 14**14 < 2**63
_SN_CLASS_MAX_N = 8  # largest n whose n! permutations enumerate_sn_class lists
_NEVER = np.iinfo(np.int64).max  # key of a DP candidate that does not tie the best


class Permutation:
    """Total order on items 0..n-1, stored as a rank array (positions 1..n)."""

    __slots__ = ("rank", "_order")

    def __init__(self, rank):
        rank = integer_array(rank)
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
        items = integer_array(items)
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

    def pair_values(self, us, vs) -> np.ndarray:
        return (self.rank[us] < self.rank[vs]).view(np.uint8)

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
    return sample_size("p", lambda: c1 * epsilon**-3 * math.log2(n) ** 3)


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

    @cached_property
    def ring_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) pivot positions of every item's rings, each of shape (n, n_bands + 1, 2).

        Ring 0 is the near set and ring i + 1 is band i.  Arm 0 is the slice
        order[lo:hi] before the item in pivot order and arm 1 the slice after
        it, both clipped to the pool, so every arm has hi >= lo.  Both are
        C-contiguous.
        """
        rank = self.pivot.rank.astype(np.int64)[:, None, None]
        bounds = np.add(rank, _ring_offsets(self.p, self.n_bands), order="C")
        np.maximum(bounds, 0, out=bounds)
        np.minimum(bounds, self.n_items, out=bounds)
        return bounds[0], bounds[1]

    def _ring(self, u: int, ring: int) -> np.ndarray:
        (l0, l1), (h0, h1) = (b[u, ring] for b in self.ring_bounds)
        order = self.pivot.order
        return np.concatenate([order[l0:h0], order[l1:h1]])

    def near_items(self, u: int) -> np.ndarray:
        return self._ring(u, 0)

    def band_items(self, u: int, i: int) -> np.ndarray:
        if i < 0:
            raise ValueError("band index must be non-negative")
        if i >= self.n_bands:
            return self.pivot.order[:0]  # gaps of at least n*p: always empty
        return self._ring(u, i + 1)

    def band_size(self, u: int, i: int) -> int:
        return len(self.band_items(u, i))


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


def band_plan(pivot: Permutation, p: int) -> BandPlan:
    if not is_integer(p) or p < 1:
        raise ValueError(f"p must be an integer >= 1, got {p!r}")
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
    Draws are taken in one call, in (item, band) order, so the result
    depends only on the provided stream, never on scheduling.
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
    lo, hi = band_plan(pivot, p).ring_bounds
    lo = lo.reshape(-1, 2)
    arm = hi.reshape(-1, 2) - lo
    near = np.arange(len(arm)) % hi.shape[1] == 0  # ring 0, which always enters whole
    del hi
    # offset of each sample within its ring's items, left arm first
    count, offset, w_num = stratum_draws(arm.sum(axis=1), p, rng, whole=near)
    left = arm[:, 0].repeat(count)
    spot = np.where(
        offset < left, lo[:, 0].repeat(count) + offset, lo[:, 1].repeat(count) + offset - left
    )
    del lo, arm, left, offset  # dead before the labels are hashed
    vs = pivot.order.astype(np.int64)[spot]
    del spot
    us = np.arange(n).repeat(count.reshape(n, -1).sum(axis=1))
    return pair_estimator(pivot, oracle, us, vs, w_num, p)


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
    count = np.zeros(size, dtype=np.int64)  # popcount of each subset
    for b in range(n):
        count[1 << b : 2 << b] = count[: 1 << b] + 1
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
    """(min err over all permutations, its first lexicographic argmin).

    Reads the full label table (verification counter), so it measures the
    best achievable error, not an estimate.
    """
    from .core import Pool

    n = oracle.n
    us, vs = upper_pairs(n)
    labels = unordered_verification_labels(oracle, us, vs)
    perm, half = _exact_argmin(n, us, vs, labels, np.ones(len(us), np.int64))
    return 2 * half / Pool(n).pair_count, perm


# -- local search ERM ---------------------------------------------------------


def _insertion_csr(est: RegretEstimator):
    """Per-item merged partner/delta arrays for insertion moves, as CSR.

    For each sample (a, b, y, w), moving endpoint u from before its partner
    to after it changes the objective by +w when y says u should win and -w
    otherwise.  All samples on one unordered pair {lo, hi} are merged into
    one exact int64 delta for lo (hi's is its negation); a pair whose delta
    sums to 0 changes no insertion objective and is dropped.  Merging before
    mirroring sorts each sample once, not once per endpoint.  Row u starts
    with u itself at delta 0, so a row of length 1 means u has no partners;
    the other partners come in no particular order, which the climb does not
    need: it sorts each row by its (distinct) ranks.
    """
    n = est.n_items
    w = est.weight_num * (2 * est.labels.astype(np.int64) - 1)
    np.negative(w, out=w, where=est.us > est.vs)  # the delta for the pair's lower id
    keys = np.minimum(est.us, est.vs)
    keys *= n
    keys += np.maximum(est.us, est.vs)
    by_key = np.argsort(keys)
    keys, w = keys[by_key], w[by_key]
    del by_key
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    w = np.add.reduceat(w, first)
    keep = w != 0
    keys = keys[first[keep]]
    w = w[keep]
    del first, keep
    # ids are below n, so the narrow dtype holds them exactly.  Narrow ids make
    # room for the stable sort's index buffer, and partners are permuted
    # narrow and widened last, so the peak holds one wide array fewer.
    dtype = index_dtype(n)
    lo, hi = keys // n, keys % n
    del keys
    lo, hi = lo.astype(dtype), hi.astype(dtype)
    ids = np.arange(n, dtype=dtype)
    items = np.concatenate([ids, lo, hi])
    ends = np.bincount(items, minlength=n).cumsum().tolist()
    by_item = np.argsort(items, kind="stable")  # keeps each item's self slot first
    del items
    deltas = np.concatenate([np.zeros(n, dtype=np.int64), w, -w])
    del w
    deltas = deltas[by_item]
    partners = np.concatenate([ids, hi, lo])[by_item]
    del lo, hi, by_item
    partners = partners.astype(np.int64)  # int64 index arrays gather fastest
    return partners, deltas, [0, *ends]


def _climb(est, start: Permutation, partners, deltas, bounds) -> tuple[Permutation, int]:
    """First-improvement insertion climb from `start`; returns (local optimum, evaluate_int).

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
    n = est.n_items
    order = start.order.astype(np.int64)
    positions = np.arange(n, dtype=index_dtype(n))
    rank0 = np.empty_like(positions)
    rank0[order] = positions
    obj = est.evaluate_int(start)
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
            prefix = np.add.accumulate(deltas[lo:hi][by_rank])
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
            obj += gain
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
    the result never evaluates worse than the start.  Each item is scored
    over its merged partner list only (samples on one pair summed into one
    delta), and its result is cached until it or one of its partners moves.
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
    if n > _SN_CLASS_MAX_N:
        raise ValueError(f"full S_n enumeration as a class is capped at n = {_SN_CLASS_MAX_N}")
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
