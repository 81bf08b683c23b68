import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import NoiseSpec, Params, Pool, RegretEstimator, make_ranking_oracle, regret
from pivotlearn import ranking as rk
from pivotlearn.seeding import derive_rng


# brute-force reference implementations, kept deliberately dumb
def _inversions_quadratic(seq):
    seq = list(seq)
    return sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])


def _kendall_scan(p1, p2):
    n = p1.n_items
    bad = 0
    for u in range(n):
        for v in range(n):
            if u != v and (p1.rank[u] < p1.rank[v]) != (p2.rank[u] < p2.rank[v]):
                bad += 1
    return bad / (n * (n - 1))


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


@given(st.integers(2, 40), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_inversions_match_quadratic_scan(n, seed):
    rng = derive_rng(seed, "inv")
    seq = rng.permutation(n)
    assert rk.count_inversions(seq) == _inversions_quadratic(seq)


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
    rng = derive_rng(seed, "kd")
    p1 = rk.random_permutation(n, rng)
    p2 = rk.random_permutation(n, rng)
    assert rk.kendall_distance(p1, p2) == pytest.approx(_kendall_scan(p1, p2))


@given(st.integers(2, 200), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_footrule_sandwich(n, seed):
    """Inversions <= footrule <= 2 * inversions, always."""
    rng = derive_rng(seed, "dg")
    p1 = rk.random_permutation(n, rng)
    p2 = rk.random_permutation(n, rng)
    inv = round(rk.kendall_distance(p1, p2) * n * (n - 1) / 2)
    foot = rk.footrule_distance(p1, p2)
    assert inv <= foot <= 2 * inv


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


def test_band_plan_partitions_everything():
    for n, p in ((8, 2), (30, 3), (157, 5)):
        plan = rk.band_plan(rk.random_permutation(n, derive_rng(n, "bp")), p)
        for u in range(n):
            seen = list(plan.near_items(u))
            for i in range(plan.n_bands):
                seen.extend(plan.band_items(u, i))
            assert sorted(seen) == sorted(set(seen)), "overlapping bands"
            assert sorted(seen) == [x for x in range(n) if x != u]


def test_band_gaps_form_geometric_ladder():
    plan = rk.band_plan(rk.Permutation.identity(64), 3)
    pos = plan.pivot.rank[10]
    for i in range(plan.n_bands):
        for item in plan.band_items(10, i):
            gap = abs(int(plan.pivot.rank[item]) - int(pos))
            assert 3 * 2**i <= gap < 3 * 2 ** (i + 1)


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
    n = 6
    oracle, pivot = _fixture(n, 31)
    est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=n)
    for arr in rk.all_rank_arrays(n):
        h = rk.Permutation(arr)
        assert abs(est.evaluate(h) - _regret_scan(pivot, h, oracle)) < 1e-12


def test_build_unbiased_at_small_p():
    n = 8
    oracle, pivot = _fixture(n, 32)
    h = rk.random_permutation(n, derive_rng(32, "h"))
    target = _regret_scan(pivot, h, oracle)
    vals = [rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=2,
                                       rng=derive_rng(32, "b", b)).evaluate(h)
            for b in range(3000)]
    vals = np.asarray(vals)
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= max(4 * stderr, 1e-12)


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
    n, p = 40, 3
    oracle, pivot = _fixture(n, 35)
    rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=p, rng=derive_rng(35, "b"))
    cap = n * (2 * p + p * (int(np.ceil(np.log2(n))) + 1))
    assert oracle.counters.distinct_labeled <= cap


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
