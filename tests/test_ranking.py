import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import NoiseSpec, Params, Pool, RegretEstimator, make_ranking_oracle, regret
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.seeding import derive_rng


# brute-force reference implementations, kept deliberately dumb
def _regret_scan(pivot, h, oracle):
    us, vs = Pool(pivot.n_items).all_pairs()
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


def _ring_bounds_reference(plan):
    edges = plan.p << np.arange(plan.n_bands + 1)
    inner = np.concatenate([[1], edges[:-1]])
    outer = edges - 1
    pos = plan.pivot.rank.astype(np.int64)[:, None, None] - 1
    n = plan.n_items
    lo = np.minimum(np.maximum(pos + np.array([-outer, inner]).T, 0), n)
    hi = np.minimum(np.maximum(pos + np.array([1 - inner, outer + 1]).T, 0), n)
    return lo, hi


@given(st.integers(2, 70), st.integers(1, 80), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_ring_bounds_match_reference(n, p, seed):
    plan = rk.band_plan(rk.random_permutation(n, derive_rng(seed, "ring")), p)
    lo, hi = plan.ring_bounds
    want_lo, want_hi = _ring_bounds_reference(plan)
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


@given(st.integers(2, 60), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_inversions_match_quadratic_scan(n, seed):
    assert verify._inversions_match_scan(n, seed) is None


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


def test_band_plan_frozen_example():
    # identity pivot over 10 items, p=3, inspected at the rank-5 item
    plan = rk.band_plan(rk.Permutation.identity(10), 3)
    u = 4  # item at position 5
    assert sorted(plan.near_items(u).tolist()) == [2, 3, 5, 6]
    assert sorted(plan.band_items(u, 0).tolist()) == [0, 1, 7, 8, 9]
    assert plan.band_size(u, 1) == 0
    assert plan.band_size(u, plan.n_bands + 2) == 0  # past the last band
    with pytest.raises(ValueError):
        plan.band_items(u, -1)


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


# p >= n (all exact), n = 2, n not a power of two, and pools where middle
# items have bands clipped on both sides
_BUILD_GRID = [(2, 1), (2, 3), (5, 5), (6, 11), (8, 2), (13, 2), (37, 3), (64, 1), (100, 7)]


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


def _fixture(n, seed, eta=0.2):
    truth = rk.random_permutation(n, derive_rng(seed, "t"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=eta), seed=seed)
    pivot = rk.random_permutation(n, derive_rng(seed, "p"))
    return oracle, pivot


def test_build_exhaustive_is_exact():
    assert verify._exhaustive(n=6, k=None, eta=0.2, seed=31) is None


def test_build_unbiased_at_small_p():
    assert verify._unbiased(n=8, k=None, size=2, eta=0.15, seed=3, builds=3000, targets=5) is None


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
    est = rk.build_ranking_estimator(pivot, oracle, params)
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
    reference, and the returned objective is evaluate_int of the result."""
    rng = derive_rng(seed, "climb")
    pool_u = rng.integers(0, n, size=pairs)
    pool_v = (pool_u + rng.integers(1, n, size=pairs)) % n
    pick = rng.integers(0, pairs, size=m)
    flip = rng.integers(0, 2, size=m).astype(bool)
    us = np.where(flip, pool_v[pick], pool_u[pick])
    vs = np.where(flip, pool_u[pick], pool_v[pick])
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    pivot = rk.random_permutation(n, rng)
    est = RegretEstimator(pivot, us, vs, rng.integers(1, wmax + 1, size=m), wmax, labels,
                          pivot.pair_values(us, vs) != labels, n * (n - 1), n)
    start = rk.random_permutation(n, rng)
    found, obj = rk._climb(est, start, *rk._insertion_csr(est))
    ref, ref_obj = _dense_climb(est, start)
    assert found == ref
    assert obj == ref_obj == est.evaluate_int(found)


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
    est = RegretEstimator(pivot, us, vs, rng.integers(1, 4, size=m), 3, labels,
                          pivot.pair_values(us, vs) != labels, n * (n - 1), n)
    found, obj = rk._climb(est, start, *rk._insertion_csr(est))
    ref, ref_obj = _dense_climb(est, start)
    assert found == ref
    assert obj == ref_obj == est.evaluate_int(found) < est.evaluate_int(start)
    assert (found.rank[pool] > 2**16).any() and (found.rank[pool] <= 2**16).any()


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
    est = RegretEstimator(pivot, us, vs, weights, 2, labels,
                          pivot.pair_values(us, vs) != labels, n * (n - 1), n)
    partners, deltas, bounds = rk._insertion_csr(est)
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


# -------------------------------------------------------------- persistence

def test_permutation_roundtrip(tmp_path):
    p = rk.Permutation.from_order([4, 0, 3, 1, 2])
    path = str(tmp_path / "perm.csv")
    rk.save_permutation(p, path)
    assert rk.load_permutation(path) == p


def test_load_permutation_rejects_bad_ids(tmp_path):
    path = tmp_path / "perm.csv"
    path.write_text("0,1,1\n")
    with pytest.raises(ValueError):
        rk.load_permutation(str(path))


def test_enumerate_sn_class_shape():
    cls = rk.enumerate_sn_class(4)
    assert len(cls) == 24
    assert cls.pool_size == 12
    assert cls.n_items == 4
