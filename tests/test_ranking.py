import hashlib
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import NoiseSpec, Params, RegretEstimator, make_ranking_oracle, regret
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.core import all_pairs, index_dtype, pair_rows, stratum_draws, upper_pairs
from pivotlearn.oracles import LabelOracle
from pivotlearn.seeding import derive_rng


# brute-force reference implementations, kept deliberately dumb
def _regret_scan(pivot, h, oracle):
    us, vs = all_pairs(pivot.n_items)
    y = oracle.verification_labels(us, vs)
    return (np.mean(h.pair_values(us, vs) != y)
            - np.mean(pivot.pair_values(us, vs) != y))


# ------------------------------------------------------------- permutations

def test_permutation_basics():
    p = rk.Permutation([2, 1, 3])
    assert p.n_items == 3
    assert p.order.tolist() == [1, 0, 2]
    assert rk.Permutation.from_order([1, 0, 2]) == p
    assert rk.Permutation.identity(4).rank.tolist() == [1, 2, 3, 4]


def test_permutation_validation():
    with pytest.raises(ValueError):
        rk.Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        rk.Permutation([0, 1, 2])  # ranks are 1-based


@pytest.mark.parametrize("kind, values", [
    ("rank", [1.7, 2.2, 3.9]),
    ("order", [0.5, 1.5, 2.2]),
    ("rank", [True, 2]),
    ("rank", np.array([1, 2, 2**32 + 3])),  # would wrap to [1, 2, 3] in int32
    ("order", [-1, 0, 1]),  # would index from the end
    ("order", [0, 0, 1]),
])
def test_permutation_refuses_non_integer_or_out_of_range(kind, values):
    make = rk.Permutation if kind == "rank" else rk.Permutation.from_order
    with pytest.raises(ValueError):
        make(values)


@given(st.integers(2, 40), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_from_order_keeps_the_order_and_matches_the_rank_constructor(n, seed):
    order = derive_rng(seed, "order").permutation(n)
    p = rk.Permutation.from_order(order)
    assert p.order.tolist() == order.tolist()
    assert p == rk.Permutation(p.rank) and p.rank.dtype == np.int32
    order[0] = order[1]  # the caller's array is not the permutation's
    assert p.order.tolist() != order.tolist()


def test_from_order_refuses_a_single_item():
    with pytest.raises(ValueError, match="at least 2 items"):
        rk.Permutation.from_order([0])


def _ring_bounds_reference(pivot, p):
    n = pivot.n_items
    edges = p << np.arange(math.ceil(math.log2(n)) + 2)
    inner = np.concatenate([[1], edges[:-1]])
    outer = edges - 1
    pos = pivot.rank.astype(np.int64)[:, None, None] - 1
    lo = np.minimum(np.maximum(pos + np.array([-outer, inner]).T, 0), n)
    hi = np.minimum(np.maximum(pos + np.array([1 - inner, outer + 1]).T, 0), n)
    return lo, hi


@given(st.integers(2, 70), st.integers(1, 80), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_ring_bounds_match_reference(n, p, seed):
    pivot = rk.random_permutation(n, derive_rng(seed, "ring"))
    lo, hi = rk.ring_bounds(pivot, p)
    want_lo, want_hi = _ring_bounds_reference(pivot, p)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert lo.flags.c_contiguous and hi.flags.c_contiguous


def test_pair_values_definition():
    p = rk.Permutation([2, 1, 3])
    us = np.array([0, 1, 0])
    vs = np.array([1, 0, 2])
    # value 1 iff u precedes v
    assert p.pair_values(us, vs).tolist() == [0, 1, 1]


def test_move_semantics():
    p = rk.Permutation.from_order([3, 0, 2, 1])
    q = p.move(1, 1)  # item 1 to the front
    assert q.order.tolist() == [1, 3, 0, 2]
    r = p.move(3, 4)  # item 3 to the back
    assert r.order.tolist() == [0, 2, 1, 3]
    assert p.order.tolist() == [3, 0, 2, 1]  # original untouched


@pytest.mark.parametrize("item, position, name", [
    (0, 0, "position"), (0, -1, "position"), (0, 5, "position"), (0, 2.0, "position"),
    (-1, 1, "item"), (4, 1, "item"), (True, 2, "item"), (np.float64(1), 2, "item"),
])
def test_move_refuses_an_item_or_position_outside_its_range(item, position, name):
    """Positions 0 and -1 are not read from the end, and no bad argument reaches numpy."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer in "):
        rk.Permutation.identity(4).move(item, position)


def test_move_takes_numpy_integers():
    assert rk.Permutation.identity(4).move(np.int64(3), np.uint8(1)).order.tolist() == [3, 0, 1, 2]


@given(st.integers(2, 60), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_inversions_match_quadratic_scan(n, seed):
    assert verify._inversions_match_scan(n, seed) is None


def _merge_sort_inversions(seq) -> int:
    """Reference: the recursive list merge sort count_inversions replaced."""
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


@given(st.lists(st.integers(-3, 3), max_size=70)
       | st.lists(st.integers(-(2**63), 2**63 - 1), max_size=70))
@settings(max_examples=200, deadline=None)
def test_inversions_match_merge_sort_reference_with_ties(seq):
    # ties are not inversions; the first strategy repeats values almost everywhere
    want = _merge_sort_inversions(seq)
    assert rk.count_inversions(seq) == want
    assert rk.count_inversions(np.array(seq, dtype=np.int64)) == want


@pytest.mark.parametrize("seq, want", [([], 0), ([5], 0), ([2, 2], 0), ([2, 1], 1),
                                       ([3, 1, 2, 1], 4), ([0, 0, 0, 0, 0], 0)])
def test_inversions_small_inputs(seq, want):
    assert rk.count_inversions(seq) == _merge_sort_inversions(seq) == want


def test_inversions_refuse_what_is_not_a_sequence():
    # np.asarray would wrap an iterator or a scalar as one element and count 0
    for bad in (iter([2, 1]), 7):
        with pytest.raises(TypeError):
            rk.count_inversions(bad)


def test_kendall_distance_at_scale_matches_merge_sort_reference():
    rng = derive_rng(0, "kendall-scale")
    p1, p2 = rk.random_permutation(5000, rng), rk.random_permutation(5000, rng)
    want = _merge_sort_inversions(p2.rank[p1.order].tolist())
    assert rk.kendall_distance(p1, p2) == 2.0 * want / (5000 * 4999)


def test_kendall_frozen_adjacent_swap():
    # n=4, one adjacent swap: 2 discordant ordered pairs out of 12
    p1 = rk.Permutation([1, 2, 3, 4])
    p2 = rk.Permutation([2, 1, 3, 4])
    assert rk.kendall_distance(p1, p2) == pytest.approx(1 / 6)
    assert rk.footrule_distance(p1, p2) == 2


def test_kendall_extremes():
    p = rk.Permutation([1, 2, 3, 4, 5])
    assert rk.kendall_distance(p, p) == 0.0
    rev = rk.Permutation([5, 4, 3, 2, 1])
    assert rk.kendall_distance(p, rev) == 1.0


@given(st.integers(2, 30), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_kendall_matches_pair_scan(n, seed):
    # the inversion property also holds the Kendall distance to the scan's discordant pairs
    assert verify._inversions_match_scan(n, seed) is None


@given(st.integers(2, 200), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_footrule_sandwich(n, seed):
    assert verify._footrule_sandwich(n, seed) is None


# --------------------------------------------------------------- band plans

def test_sample_size_p_frozen():
    assert rk.sample_size_p(1024, 0.2, 1.0) == 125000
    assert rk.sample_size_p(1024, 0.2, 1e-3) == 125
    assert rk.sample_size_p(2, 0.9, 1e-6) == 1  # floor clamp


def test_ring_bounds_frozen_example():
    # identity pivot over 10 items, p=3, inspected at the rank-5 item (position 4)
    lo, hi = rk.ring_bounds(rk.Permutation.identity(10), 3)
    assert lo.shape == hi.shape == (10, 6, 2)  # the near set and bands 0..4
    assert lo[4, 0].tolist() == [2, 5] and hi[4, 0].tolist() == [4, 7]  # near: 2, 3 | 5, 6
    assert lo[4, 1].tolist() == [0, 7] and hi[4, 1].tolist() == [2, 10]  # band 0: 0, 1 | 7, 8, 9
    assert (lo[4, 2:] == hi[4, 2:]).all()  # bands 1..4 are empty
    for p in (0, 1.5, True):
        with pytest.raises(ValueError, match="p must be an integer"):
            rk.ring_bounds(rk.Permutation.identity(10), p)


@given(st.integers(2, 200), st.integers(1, 40), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_band_plan_partitions_everything(n, p, seed):
    assert verify._band_partition(n, p, seed) is None


def test_band_gaps_form_geometric_ladder():
    # the partition property checks every band's gap range, at every item
    for seed in range(3):
        assert verify._band_partition(64, 3, seed) is None


# ---------------------------------------------------------------- estimator

def _loop_build(pivot, oracle, p, rng):
    """Reference builder: a per-(item, band) loop with its own gap slicing.

    Near set whole at weight p, then each band until the first empty one:
    whole at weight p when it has at most p items, else p draws with
    repetition at weight len(band).  Returns (us, vs, w_num, labels).
    """
    n = pivot.n_items
    order = pivot.order

    def ring(u, lo_gap, hi_gap):
        pos = int(pivot.rank[u]) - 1
        left = order[max(0, pos - hi_gap) : max(0, pos - lo_gap + 1)]
        return np.concatenate([left, order[pos + lo_gap : pos + hi_gap + 1]])

    us, vs, w_num = [], [], []
    for u in range(n):
        strata = [(ring(u, 1, p - 1), p)]
        for i in range(math.ceil(math.log2(n)) + 1):
            band = ring(u, (1 << i) * p, (1 << (i + 1)) * p - 1)
            if len(band) == 0:
                break
            if len(band) <= p:
                strata.append((band, p))
            else:
                strata.append((band[rng.integers(0, len(band), size=p)], len(band)))
        for items, w in strata:
            us += [u] * len(items)
            vs += items.tolist()
            w_num += [w] * len(items)
    us, vs = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    return us, vs, np.array(w_num, dtype=np.int64), oracle.query_many(us, vs)


# p >= n (all exact), n = 2, n not a power of two, pools where middle
# items have bands clipped on both sides, and pools around 256 items, where
# positions 0..n and then ids leave uint8
_BUILD_GRID = [(2, 1), (2, 3), (5, 5), (6, 11), (8, 2), (13, 2), (37, 3), (64, 1), (100, 7),
               (255, 3), (256, 3), (257, 3)]


@pytest.mark.parametrize("n, p", _BUILD_GRID)
@pytest.mark.parametrize("seed", [0, 1])
def test_build_matches_loop_reference(n, p, seed):
    truth = rk.random_permutation(n, derive_rng(seed, "t"))
    noise = NoiseSpec(kind="uniform_flip", eta=0.2)
    pivot = rk.random_permutation(n, derive_rng(seed, "p"))
    rng, ref_rng = derive_rng(seed, "b"), derive_rng(seed, "b")
    est = rk.build_ranking_estimator(pivot, make_ranking_oracle(truth, noise, seed=seed),
                                     Params(epsilon=0.2), p=p, rng=rng)
    us, vs, w_num, labels = _loop_build(pivot, make_ranking_oracle(truth, noise, seed=seed),
                                        p, ref_rng)
    np.testing.assert_array_equal(est.us, us)
    np.testing.assert_array_equal(est.vs, vs)
    np.testing.assert_array_equal(est.weight_num, w_num)
    np.testing.assert_array_equal(est.labels, labels)
    assert est.weight_denom == p
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)  # same stream left


@pytest.mark.parametrize("n", [65_535, 65_536])
def test_build_positions_narrow_exactly_past_16_bits(n):
    """Positions 0..n leave uint16 at n = 65,536.  The build's samples are
    the same draws placed with int64 positions from the reference ring bounds."""
    oracle, pivot = _fixture(n, 7)
    est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.3), p=1,
                                     rng=derive_rng(7, "b"))
    lo, hi = (b.reshape(-1, 2) for b in _ring_bounds_reference(pivot, 1))
    arm = hi - lo
    near = np.arange(len(arm)) % (len(arm) // n) == 0
    count, offset, w_num = stratum_draws(arm.sum(axis=1), 1, derive_rng(7, "b"), whole=near)
    left = arm[:, 0].repeat(count)
    spot = np.where(offset < left, lo[:, 0].repeat(count) + offset,
                    lo[:, 1].repeat(count) + offset - left)
    assert est.us.dtype == est.vs.dtype == index_dtype(n)
    np.testing.assert_array_equal(est.us, np.arange(n).repeat(count.reshape(n, -1).sum(axis=1)))
    np.testing.assert_array_equal(est.vs, pivot.order.astype(np.int64)[spot])
    np.testing.assert_array_equal(est.weight_num, w_num)


def test_build_and_rows_traced_peak_on_the_scale_config():
    """One build plus its insertion rows on ranking-scale's config (n = 3200,
    seed 0, first iteration) peak at about 13.4 MiB traced.  With int64 sample
    ids, oracle keys and build temporaries and the mirrored row sort, they
    peaked at about 19.7 MiB."""
    n = 3200
    params = Params(epsilon=0.3, c1=1.3e-4, iterations=2, master_seed=0)
    truth = rk.random_permutation(n, derive_rng(0, "ground-truth"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.1), seed=0)
    pivot = rk.Permutation.identity(n)  # built untraced: its checks make Python lists
    p = rk.sample_size_p(n, params.epsilon, params.c1)
    tracemalloc.start()
    try:
        est = rk.build_ranking_estimator(pivot, oracle, params, p=p, rng=derive_rng(0, "build", 1))
        partners, _, _ = pair_rows(est, oriented=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.n_samples, len(partners)) == (267_920, 453_010)
    assert peak < 17 * 2**20


def test_scale_config_weights_take_the_narrowest_exact_dtype():
    """On the same config, numerators (the largest is 1,153) are uint16 and
    the rows' weights int32, and one build plus its rows peaks at about
    10.2 MiB traced.  With int64 numerators, offsets, ledger lookups and row
    weights it peaked at about 13.4 MiB."""
    n = 3200
    params = Params(epsilon=0.3, c1=1.3e-4, iterations=2, master_seed=0)
    truth = rk.random_permutation(n, derive_rng(0, "ground-truth"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.1), seed=0)
    pivot = rk.Permutation.identity(n)
    p = rk.sample_size_p(n, params.epsilon, params.c1)
    tracemalloc.start()
    try:
        est = rk.build_ranking_estimator(pivot, oracle, params, p=p, rng=derive_rng(0, "build", 1))
        _, deltas, _ = pair_rows(est, oriented=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.weight_num.itemsize == 2 and est.weight_num.max() == 1153
    assert deltas.itemsize == 4
    assert peak < 11.5 * 2**20


def _fixture(n, seed, eta=0.2):
    truth = rk.random_permutation(n, derive_rng(seed, "t"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=eta), seed=seed)
    pivot = rk.random_permutation(n, derive_rng(seed, "p"))
    return oracle, pivot


def test_build_exhaustive_is_exact():
    assert verify._exhaustive(n=6, k=None, eta=0.2, seed=31) is None


def test_build_unbiased_at_small_p():
    assert verify._unbiased(n=8, k=None, size=2, eta=0.15, seed=3, builds=3000, targets=5) is None


def _pivot_adversarial_oracle(pivot, p: int, seed: int) -> LabelOracle:
    """Labels that agree with the pivot within rank distance p and beyond it are a
    seeded coin per pair, kept skew-symmetric."""
    n = pivot.n_items
    us, vs = upper_pairs(n)
    coin = derive_rng(seed, "coin").integers(0, 2, size=len(us))
    near = np.abs(pivot.rank[us] - pivot.rank[vs]) <= p
    upper = np.where(near, pivot.rank[us] < pivot.rank[vs], coin).astype(np.uint8)
    table = np.zeros((n, n), np.uint8)
    table[us, vs], table[vs, us] = upper, 1 - upper
    return LabelOracle("ranking", noise=NoiseSpec(kind="adversarial_file", path="adversarial.csv"),
                       seed=seed, label_table=table)


def test_build_exact_and_unbiased_under_pivot_adversarial_labels():
    """Exactness and unbiasedness hold whatever the labels, also where no ranking fits."""
    seed = 5
    pivot = rk.random_permutation(8, derive_rng(seed, "pivot"))
    oracle = _pivot_adversarial_oracle(pivot, p=2, seed=seed)
    assert rk.exact_min_error(oracle)[0] > 0
    assert verify._exhaustive_on(oracle, pivot, seed) is None
    assert verify._unbiased_on(oracle, pivot, size=2, seed=seed, builds=1500, targets=5) is None


def _intransitive_table(n: int, seed: int) -> np.ndarray:
    """A seeded ranking's labels with a rock-paper-scissors cycle planted on each
    consecutive triad (a, b, c) of its order: a beats b, b beats c, and c beats a."""
    truth = rk.random_permutation(n, derive_rng(seed, "truth"))
    table = (truth.rank[:, None] < truth.rank[None, :]).astype(np.uint8)
    for t in range(0, n - 2, 3):
        a, c = truth.order[t], truth.order[t + 2]
        table[a, c], table[c, a] = 0, 1
    return table


def _tournament_table(n: int, seed: int) -> np.ndarray:
    """A seeded coin per unordered pair, kept skew-symmetric."""
    us, vs = upper_pairs(n)
    coin = derive_rng(seed, "coin").integers(0, 2, size=len(us)).astype(np.uint8)
    table = np.zeros((n, n), np.uint8)
    table[us, vs], table[vs, us] = coin, 1 - coin
    return table


@pytest.mark.parametrize("family", [_intransitive_table, _tournament_table])
def test_build_exact_and_unbiased_under_labels_no_ranking_fits(family):
    """Exactness and unbiasedness hold for intransitive and random-tournament labels."""
    seed = 7
    oracle = LabelOracle("ranking", noise=NoiseSpec(kind="adversarial_file", path="family.csv"),
                         seed=seed, label_table=family(8, seed))
    pivot = rk.random_permutation(8, derive_rng(seed, "pivot"))
    assert rk.exact_min_error(oracle)[0] > 0
    assert verify._exhaustive_on(oracle, pivot, seed) is None
    assert verify._unbiased_on(oracle, pivot, size=2, seed=seed, builds=1500, targets=5) is None


def test_build_deterministic_given_rng_stream():
    n = 9
    oracle, pivot = _fixture(n, 33)
    a = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=3, rng=derive_rng(1, "x"))
    b = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=3, rng=derive_rng(1, "x"))
    assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)
    assert np.array_equal(a.weight_num, b.weight_num)


def test_build_uses_formula_p_by_default():
    n = 16
    oracle, pivot = _fixture(n, 34)
    params = Params(epsilon=0.5, c1=1e-3)
    est = rk.build_ranking_estimator(pivot, oracle, params, rng=derive_rng(34, "build"))
    assert est.weight_denom == rk.sample_size_p(n, 0.5, 1e-3)


def test_query_count_within_construction_cap():
    assert verify._query_cap(n=40, k=None, size=3, seed=35) is None


# ----------------------------------------------------------------- the ERMs

def test_all_rank_arrays_lexicographic():
    arrs = rk.all_rank_arrays(3)
    assert arrs.shape == (6, 3)
    assert arrs[0].tolist() == [1, 2, 3]
    assert arrs[-1].tolist() == [3, 2, 1]
    assert len(rk.all_rank_arrays(7)) == 5040


def test_all_rank_arrays_read_only():
    arrs = rk.all_rank_arrays(4)
    with pytest.raises(ValueError):
        arrs[0, 0] = 2
    with pytest.raises(ValueError):
        arrs[0][0] = 2
    assert arrs is rk.all_rank_arrays(4)
    assert arrs[0].tolist() == [1, 2, 3, 4]


def test_all_rank_arrays_cap():
    with pytest.raises(ValueError, match="local_search_erm"):
        rk.all_rank_arrays(11)


def test_exact_erm_matches_brute_force():
    n = 6
    oracle, pivot = _fixture(n, 36)
    est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=2,
                                     rng=derive_rng(36, "b"))
    best = rk.exact_erm(est)
    val = est.evaluate(best)
    brute = min(est.evaluate(rk.Permutation(a)) for a in rk.all_rank_arrays(n))
    assert val == pytest.approx(brute, abs=1e-15)
    assert est.evaluate(best) == pytest.approx(brute, abs=1e-15)


def test_exact_min_error_finds_truth_when_noiseless():
    n = 5
    truth = rk.random_permutation(n, derive_rng(38, "t"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="none"), seed=38)
    nu, best = rk.exact_min_error(oracle)
    assert nu == 0.0
    assert best == truth


def test_local_search_matches_exact_on_small_instances():
    for seed in range(6):
        n = 7
        oracle, pivot = _fixture(n, 40 + seed)
        est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=3,
                                         rng=derive_rng(seed, "b"))
        exact_val = est.evaluate(rk.exact_erm(est))
        found = rk.local_search_erm(est, pivot, restarts=20, rng=derive_rng(seed, "ls"))
        assert est.evaluate(found) == pytest.approx(exact_val, abs=1e-12)


def test_local_search_never_worse_than_start():
    n = 30
    oracle, pivot = _fixture(n, 50)
    est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.3), p=3,
                                     rng=derive_rng(50, "b"))
    found = rk.local_search_erm(est, pivot, restarts=3, rng=derive_rng(50, "ls"))
    assert est.evaluate_int(found) <= est.evaluate_int(pivot)


def _dense_climb(est, start):
    """Reference climb: per item, an n-vector of insertion values over all positions."""
    s = np.sign(2 * est.labels.astype(np.int64) - 1)
    endpoints = np.concatenate([est.us, est.vs])
    by_item = np.argsort(endpoints, kind="stable")
    partners = np.concatenate([est.vs, est.us])[by_item]
    deltas = np.concatenate([est.weight_num * s, -est.weight_num * s])[by_item]
    bounds = np.searchsorted(endpoints[by_item], np.arange(est.n_items + 1))
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
    return rk.Permutation.from_order(order), obj


@given(st.integers(2, 14), st.integers(1, 40), st.integers(1, 80), st.integers(1, 3),
       st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_sparse_climb_matches_dense_reference(n, pairs, m, wmax, seed):
    """Random estimators with repeated and mirrored samples and small weights
    (so merged deltas cancel and slot values tie) climb exactly like the dense
    reference, whose tracked objective is evaluate_int of the result."""
    rng = derive_rng(seed, "climb")
    pool_u = rng.integers(0, n, size=pairs)
    pool_v = (pool_u + rng.integers(1, n, size=pairs)) % n
    pick = rng.integers(0, pairs, size=m)
    flip = rng.integers(0, 2, size=m).astype(bool)
    us = np.where(flip, pool_v[pick], pool_u[pick])
    vs = np.where(flip, pool_u[pick], pool_v[pick])
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    pivot = rk.random_permutation(n, rng)
    est = RegretEstimator(pivot, us, vs, rng.integers(1, wmax + 1, size=m), wmax, labels)
    start = rk.random_permutation(n, rng)
    found = rk._climb(start, *pair_rows(est, oriented=True))
    ref, ref_obj = _dense_climb(est, start)
    assert found == ref
    assert ref_obj == est.evaluate_int(found)


@given(st.integers(2, 14), st.integers(1, 60), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_climb_from_the_pivot_skips_its_evaluation(n, m, wmax, seed):
    """A climb evaluates no hypothesis, from est.pivot or from any other
    start, and still ends where the dense reference does."""
    rng = derive_rng(seed, "pivot-climb")
    us = rng.integers(0, n, size=m)
    vs = (us + rng.integers(1, n, size=m)) % n
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    est = RegretEstimator(rk.random_permutation(n, rng), us, vs,
                          rng.integers(1, wmax + 1, size=m), wmax, labels)
    rows = pair_rows(est, oriented=True)
    calls = []
    est.evaluate_int = lambda h, f=est.evaluate_int: calls.append(h) or f(h)
    starts = (est.pivot, rk.random_permutation(n, rng))
    found = [rk._climb(start, *rows) for start in starts]
    assert calls == []
    for start, h in zip(starts, found):
        ref, ref_obj = _dense_climb(est, start)
        assert h == ref
        assert ref_obj == est.evaluate_int(h)
    assert est.evaluate_int(found[0]) <= 0


def test_sparse_climb_matches_dense_reference_past_16_bit_ranks():
    """At n = 70,000 ranks need more than 16 bits.  About 200 samples on items
    that start around rank 2**16 climb exactly like the dense reference."""
    n, m = 70_000, 200
    rng = derive_rng(3, "wide-climb")
    start = rk.random_permutation(n, rng)
    pool = start.order[rng.choice(np.arange(60_000, n), size=40, replace=False)]
    pick = rng.integers(0, 40, size=m)
    us = pool[pick]
    vs = pool[(pick + rng.integers(1, 40, size=m)) % 40]
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    pivot = rk.random_permutation(n, rng)
    est = RegretEstimator(pivot, us, vs, rng.integers(1, 4, size=m), 3, labels)
    found = rk._climb(start, *pair_rows(est, oriented=True))
    ref, ref_obj = _dense_climb(est, start)
    assert found == ref
    assert ref_obj == est.evaluate_int(found) < est.evaluate_int(start)
    assert (found.rank[pool] > 2**16).any() and (found.rank[pool] <= 2**16).any()


@pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
def test_rows_and_climb_exact_at_id_dtype_boundaries(n):
    """Ids leave uint8 past 256 items and uint16 past 65,536.  200 samples on
    40 items, the top ids among them, merge into the reference rows (summed
    as Python ints) and climb like the dense reference fed int64 ids; the
    rows' partners stay int64, and their weights, far under the bound, are
    int32."""
    m = 200
    rng = derive_rng(n, "boundary-climb")
    pool = np.concatenate([[0, n - 2, n - 1], rng.choice(np.arange(1, n - 2), 37, replace=False)])
    pick = rng.integers(0, 40, size=m)
    us = pool[pick]
    vs = pool[(pick + rng.integers(1, 40, size=m)) % 40]
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    pivot, start = rk.random_permutation(n, rng), rk.random_permutation(n, rng)
    est = RegretEstimator(pivot, us, vs, rng.integers(1, 4, size=m), 3, labels)
    assert est.us.dtype == index_dtype(n)
    partners, deltas, bounds = pair_rows(est, oriented=True)
    assert (partners.dtype, deltas.dtype) == (np.int64, np.int32)
    rows = _merged_rows(est)
    assert np.diff(bounds).tolist() == [1 + len(row) for row in rows]
    for u in pool.tolist():
        row = slice(bounds[u], bounds[u + 1])
        assert partners[row][0] == u and deltas[row][0] == 0
        assert sorted(zip(partners[row][1:].tolist(), deltas[row][1:].tolist())) == rows[u]
    wide = SimpleNamespace(n_items=n, us=us.astype(np.int64), vs=vs.astype(np.int64),
                           labels=labels, weight_num=est.weight_num, evaluate_int=est.evaluate_int)
    found = rk._climb(start, partners, deltas, bounds)
    ref, ref_obj = _dense_climb(wide, start)
    assert found == ref
    assert ref_obj == est.evaluate_int(found) < est.evaluate_int(start)


def _merged_rows(est):
    """Reference partner rows: each unordered pair's sample deltas summed one by
    one, zero sums dropped, then listed from both endpoints as sorted
    (partner, delta) pairs."""
    sums = {}
    for a, b, y, w in zip(est.us.tolist(), est.vs.tolist(), est.labels.tolist(),
                          est.weight_num.tolist()):
        delta = w if y else -w  # for a, moving from before b to after it
        key = (min(a, b), max(a, b))
        sums[key] = sums.get(key, 0) + (delta if a < b else -delta)
    rows = [[] for _ in range(est.n_items)]
    for (lo, hi), delta in sums.items():
        if delta:
            rows[lo].append((hi, delta))
            rows[hi].append((lo, -delta))
    return [sorted(row) for row in rows]


@given(st.integers(2, 600), st.integers(2, 12), st.integers(1, 40), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_insertion_rows_hold_self_then_merged_partners(n, active, m, seed):
    """Every row starts with its own item at delta 0, then holds exactly the
    merged (partner, delta) multiset.  Samples touch only a few ids spread over
    the pool (so most items have no partners, and ids pass 255), and a random
    subset is mirrored with its label, which cancels it."""
    rng = derive_rng(seed, "rows")
    ids = rng.choice(n, size=min(active, n), replace=False)
    pick = rng.integers(0, len(ids), size=m)
    us = ids[pick]
    vs = ids[(pick + rng.integers(1, len(ids), size=m)) % len(ids)]
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    weights = rng.integers(1, 3, size=m)
    mirror = rng.integers(0, 2, size=m).astype(bool)
    us, vs = np.concatenate([us, vs[mirror]]), np.concatenate([vs, us[mirror]])
    labels = np.concatenate([labels, labels[mirror]])
    weights = np.concatenate([weights, weights[mirror]])
    pivot = rk.Permutation.identity(n)
    est = RegretEstimator(pivot, us, vs, weights, 2, labels)
    partners, deltas, bounds = pair_rows(est, oriented=True)
    assert len(bounds) == n + 1 and bounds[-1] == len(partners) == len(deltas)
    for u, ref in enumerate(_merged_rows(est)):
        row = slice(bounds[u], bounds[u + 1])
        assert partners[row][:1].tolist() == [u] and deltas[row][0] == 0
        assert sorted(zip(partners[row][1:].tolist(), deltas[row][1:].tolist())) == ref


# Returned rank arrays of local search over a grid of pool sizes, starts,
# restarts, seeds and noise levels.  The "identity" start is the harness's
# first iteration, where consecutive ids are near-set partners; "random"
# builds around and starts from a random pivot.  The digests were taken from
# the dense per-item climb; a rewrite of the climb must keep every returned
# permutation byte-identical.
_LS_GOLDEN_DIGESTS = {
    (9, "identity"): "6794b18d14579a82a2eb24a62675c4b4bc405b904e66dcb05efa7895c0f57346",
    (9, "random"): "037184389f4d193dc9934a8d39b4f27954bcebbdbdfe6767e0f6443b51f33291",
    (40, "identity"): "f347836b6ddee7afcd2c54365a5de0aa704795c77f5b28c02b5a78d551d7f083",
    (40, "random"): "ac4fd2b5311a78da36546b658bfae66a507eee218ea4b9821a6589a73e5037c6",
    (150, "identity"): "43f505f43a3ae13c78101d43e603fc0a3860474902786e0eb52ec1f056d8fdd5",
    (150, "random"): "ba82f97d3a0a72ac00bad261386e48a8b82b9076ba03f4c32ddb2ad23bb07695",
    # past 256 items the climb's ranks no longer fit in a byte
    (400, "identity"): "44bd817f1cf83faf18609fc9e2c13738e00fc3398908d66fad4076bd9751f492",
    (400, "random"): "33a765e3a053d302c672df5d74007bc77282d9d04d84fe5d7fc6194d9ebd5fea",
}


def _ls_grid_digest(n, start):
    digest = hashlib.sha256()
    for restarts, seed, eta in itertools.product((1, 3), (0, 1), (0.1, 0.3)):
        oracle, pivot = _fixture(n, 600 + seed, eta=eta)
        if start == "identity":
            pivot = rk.Permutation.identity(n)
        est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.3), p=3,
                                         rng=derive_rng(seed, "b"))
        found = rk.local_search_erm(est, pivot, restarts=restarts,
                                    rng=derive_rng(seed, "ls"))
        digest.update(found.rank.astype(np.int32).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n, start", list(_LS_GOLDEN_DIGESTS))
def test_local_search_golden(n, start):
    assert _ls_grid_digest(n, start) == _LS_GOLDEN_DIGESTS[n, start]


def test_regret_helper_agrees_with_scan():
    n = 6
    oracle, pivot = _fixture(n, 51)
    h = rk.random_permutation(n, derive_rng(51, "h"))
    assert regret(pivot, h, oracle) == pytest.approx(_regret_scan(pivot, h, oracle))


def test_enumerate_sn_class_shape():
    cls = rk.enumerate_sn_class(4)
    assert len(cls) == 24
    assert cls.pool_size == 12
