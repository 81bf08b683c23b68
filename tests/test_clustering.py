import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import NoiseSpec, Params, Pool, Reassignment, make_clustering_oracle
from pivotlearn import clustering as clu
from pivotlearn.seeding import derive_rng


def _distance_scan(c1, c2):
    n = c1.n_items
    bad = 0
    for u in range(n):
        for v in range(n):
            if u != v and (c1.assign[u] == c1.assign[v]) != (c2.assign[u] == c2.assign[v]):
                bad += 1
    return bad / (n * (n - 1))


def _regret_scan(pivot, h, oracle):
    us, vs = Pool(pivot.n_items).all_pairs()
    y = oracle.verification_labels(us, vs)
    return (np.mean(h.pair_values(us, vs) != y)
            - np.mean(pivot.pair_values(us, vs) != y))


def _stirling_2nd(n, k):
    # dumb recursive reference, n small
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * _stirling_2nd(n - 1, k) + _stirling_2nd(n - 1, k - 1)


# ------------------------------------------------------------------- basics

def test_clustering_basics():
    c = clu.Clustering([1, 2, 1, 3], 3)
    assert c.n_items == 4
    assert c.k == 3
    assert c.cluster_sizes().tolist() == [2, 1, 1]
    assert c.members(1).tolist() == [0, 2]
    assert c.clusters_by_size() == [1, 2, 3]


def test_clustering_validation():
    with pytest.raises(ValueError):
        clu.Clustering([0, 1], 2)  # ids are 1-based
    with pytest.raises(ValueError):
        clu.Clustering([1, 4], 3)  # id beyond k


def test_pair_values_same_cluster_indicator():
    c = clu.Clustering([1, 1, 2], 2)
    us = np.array([0, 0, 1])
    vs = np.array([1, 2, 2])
    assert c.pair_values(us, vs).tolist() == [1, 0, 0]


def test_clusters_by_size_tie_break():
    c = clu.Clustering([1, 2, 2, 3, 3], 3)  # sizes 1, 2, 2
    assert c.clusters_by_size() == [2, 3, 1]  # decreasing size, ties by id


def test_canonical_relabeling():
    a = clu.Clustering([2, 2, 1, 3], 3)
    b = clu.Clustering([1, 1, 3, 2], 3)
    assert a.canonical().assign.tolist() == [1, 1, 2, 3]
    assert a == b  # equality is relabeling-invariant
    assert hash(a) == hash(b)
    assert a != clu.Clustering([1, 2, 1, 3], 3)


@given(st.integers(2, 12), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_distance_matches_pair_scan(n, k, seed):
    rng = derive_rng(seed, "cd")
    c1 = clu.random_clustering(n, k, rng)
    c2 = clu.random_clustering(n, k, rng)
    assert c1.distance_to(c2) == pytest.approx(_distance_scan(c1, c2))


def test_distance_relabel_invariant():
    a = clu.Clustering([1, 1, 2, 3], 3)
    b = clu.Clustering([3, 3, 1, 2], 3)  # same partition
    assert a.distance_to(b) == 0.0


# ------------------------------------------------------------- sample sizes

def test_sample_size_q_frozen():
    assert clu.sample_size_q(256, 3, 0.2, 1.0) == 3000
    assert clu.sample_size_q(4, 2, 0.9, 1e-9) == 1  # floor clamp


def test_sample_size_q_regime_switch():
    # eps^-2 k^2 dominates for k >= 1/eps: max(4*100, 8*10) * log2(16) = 1600
    assert clu.sample_size_q(16, 10, 0.5, 1.0) == 1600
    # small k flips to the eps^-3 k term: max(4*4, 8*2) * 4 = 64
    assert clu.sample_size_q(16, 2, 0.5, 1.0) == 64


# ---------------------------------------------------------------- estimator

def _fixture(n, k, seed, eta=0.2):
    truth = clu.random_clustering(n, k, derive_rng(seed, "t"))
    oracle = make_clustering_oracle(truth, NoiseSpec(kind="uniform_flip", eta=eta), seed=seed)
    pivot = clu.random_clustering(n, k, derive_rng(seed, "p"))
    return oracle, pivot


def test_build_exhaustive_is_exact():
    n, k = 7, 3
    oracle, pivot = _fixture(n, k, 61)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.2), q=n)
    for assign in clu.all_assignments(n, k):
        h = clu.Clustering(assign, k)
        assert abs(est.evaluate(h) - _regret_scan(pivot, h, oracle)) < 1e-12


def test_build_unbiased_at_small_q():
    n, k = 8, 3
    oracle, pivot = _fixture(n, k, 62)
    h = clu.random_clustering(n, k, derive_rng(62, "h"))
    target = _regret_scan(pivot, h, oracle)
    vals = [clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.2), q=2,
                                           rng=derive_rng(62, "b", b)).evaluate(h)
            for b in range(3000)]
    vals = np.asarray(vals)
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= max(4 * stderr, 1e-12)


def test_build_query_cap():
    n, k, q = 20, 4, 5
    oracle, pivot = _fixture(n, k, 63)
    clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.2), q=q,
                                   rng=derive_rng(63, "b"))
    assert oracle.counters.distinct_labeled <= n * k * q


def test_build_uses_formula_q_by_default():
    n, k = 12, 3
    oracle, pivot = _fixture(n, k, 64)
    params = Params(epsilon=0.5, c2=1e-2)
    est = clu.build_clustering_estimator(pivot, oracle, params)
    assert est.weight_denom == clu.sample_size_q(n, k, 0.5, 1e-2)


def test_sample_weights_by_source():
    """Cluster sizes 4/3/2 at q=2 pin every weight numerator exactly.

    Within-cluster: sampled draws carry |V|-1, exhaustive draws carry q.
    Cross-cluster: sampled draws carry 2|V_j|, exhaustive draws carry 2q.
    """
    n, k, q = 9, 3, 2
    truth = clu.random_clustering(n, k, derive_rng(65, "t"))
    oracle = make_clustering_oracle(truth, NoiseSpec(kind="none"), seed=65)
    pivot = clu.Clustering([1, 1, 1, 1, 2, 2, 2, 3, 3], k)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.2), q=q,
                                         rng=derive_rng(65, "b"))
    same = pivot.assign[est.us] == pivot.assign[est.vs]
    assert set(est.weight_num[same].tolist()) == {3, 2}   # size-4 sampled, rest exhaustive
    assert set(est.weight_num[~same].tolist()) == {6, 4}  # |V_2|=3 sampled, |V_3|=2 exhaustive


# -------------------------------------------------------------- enumeration

def test_count_assignments_frozen():
    assert clu.count_assignments(8, 3) == 1094
    assert clu.count_assignments(9, 3) == 3281
    assert clu.count_assignments(4, 2) == 8  # 1 + 7 partitions into <=2 blocks


def test_count_assignments_matches_stirling_sum():
    for n in range(1, 9):
        for k in range(1, 4):
            want = sum(_stirling_2nd(n, j) for j in range(1, k + 1))
            assert clu.count_assignments(n, k) == want, (n, k)


def test_all_assignments_properties():
    arrs = clu.all_assignments(6, 3)
    assert len(arrs) == clu.count_assignments(6, 3)
    # canonical restricted-growth labeling: first item in cluster 1,
    # new ids introduced in order
    for a in arrs:
        assert a[0] == 1
        assert a.max() <= 3
        seen = 0
        for x in a:
            assert x <= seen + 1
            seen = max(seen, x)
    # lexicographic order, no duplicates
    keys = [tuple(a.tolist()) for a in arrs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_all_assignments_cap():
    with pytest.raises(ValueError, match="local_search_erm"):
        clu.all_assignments(13, 3)


def test_exact_erm_matches_brute_force():
    n, k = 6, 3
    oracle, pivot = _fixture(n, k, 66)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.2), q=2,
                                         rng=derive_rng(66, "b"))
    best, val = clu.exact_erm_with_value(est)
    brute = min(est.evaluate(clu.Clustering(a, k)) for a in clu.all_assignments(n, k))
    assert val == pytest.approx(brute, abs=1e-15)
    assert est.evaluate(best) == pytest.approx(brute, abs=1e-15)


def test_exact_min_error_recovers_noiseless_truth():
    n, k = 7, 3
    truth = clu.random_clustering(n, k, derive_rng(67, "t"))
    oracle = make_clustering_oracle(truth, NoiseSpec(kind="none"), seed=67)
    nu, best = clu.exact_min_error(oracle, k)
    assert nu == 0.0
    assert best == truth


def test_local_search_matches_exact_on_small_instances():
    for seed in range(6):
        n, k = 7, 3
        oracle, pivot = _fixture(n, k, 70 + seed)
        est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.2), q=3,
                                             rng=derive_rng(seed, "b"))
        _, exact_val = clu.exact_erm_with_value(est)
        found = clu.local_search_erm(est, pivot, restarts=20, rng=derive_rng(seed, "ls"))
        assert est.evaluate(found) == pytest.approx(exact_val, abs=1e-12)


def test_local_search_never_worse_than_start():
    n, k = 25, 4
    oracle, pivot = _fixture(n, k, 77)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.3), q=4,
                                         rng=derive_rng(77, "b"))
    found = clu.local_search_erm(est, pivot, restarts=3, rng=derive_rng(77, "ls"))
    assert est.evaluate_int(found) <= est.evaluate_int(pivot)


@given(st.integers(3, 20), st.integers(2, 5), st.integers(1, 6), st.integers(0, 10_000),
       st.lists(st.tuples(st.booleans(), st.integers(0, 999), st.integers(0, 999)),
                max_size=25))
@settings(max_examples=60, deadline=None)
def test_gain_table_tracks_moves(n, k, q, seed, moves):
    """Incremental gain-table updates match a rebuild, and its deltas match evaluate_int."""
    oracle, pivot = _fixture(n, k, seed, eta=0.3)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.3), q=q,
                                         rng=derive_rng(seed, "b"))
    assign = clu.random_clustering(n, k, derive_rng(seed, "h")).assign.copy()
    table = clu._GainTable(est, assign, k)
    for is_swap, x, y in moves:
        before = est.evaluate_int(clu.Clustering(assign, k))
        if is_swap:
            a, b = sorted((x % n, y % n))
            if assign[a] == assign[b]:
                continue
            delta = int(table.swap_deltas(a, b, table.pair_weights(a))[0])
            ca, cb = int(assign[a]), int(assign[b])
            table.move(a, cb)
            table.move(b, ca)
        else:
            u, cid = x % n, y % k + 1
            delta = int(table.cost[u, cid] - table.cost[u, assign[u]])
            h = clu.Clustering(assign.copy(), k)
            assert delta == est.evaluate_delta_int(h, Reassignment(u, cid))
            table.move(u, cid)
        assert delta == est.evaluate_int(clu.Clustering(assign, k)) - before
        np.testing.assert_array_equal(table.cost, clu._GainTable(est, assign.copy(), k).cost)


# Returned assignments of local search over a grid of pool sizes, cluster
# counts, restarts, seeds and noise levels.  The digests were taken from the
# per-pair swap scan before the gain table replaced it; a rewrite of the
# search must keep every returned assignment byte-identical.
_LS_GOLDEN_DIGESTS = {
    (13, 2): "d6f252dba872e2265d713e2db7572e14e27d7c209af92d9c111170ea988162c1",
    (13, 3): "6c4a10034568d55e32d7440cbc98df5fb302e5620dd9679c78c7935a4b249880",
    (13, 4): "ac089a1730e5a0a3437d44ed768b6293c9d16f2174496fd2acc75d940b252ea8",
    (13, 6): "233fd9305a3b34f149b11efbee6551bd3db5925de51bc222443ce850819dfaff",
    (40, 2): "84669f5fd1882c910d3dfe7dc28ac6050b08afa4a41754874c216f1115ac3921",
    (40, 3): "b0e588e8ed0c560c6c020e331addce110ff73d3a07836e44a8c7cd70c961a5ea",
    (40, 4): "12a7995ff9ac92b3fa536441d58687c5d502152d5c200cebdd87ab6951dd900a",
    (40, 6): "2f5bd2d1b91ca20e75052582792edf29ca74dd572527e5b2cbc3bc0cb2cb364a",
    (90, 2): "bdc5ac3b7a69f7c0af304d59f8d10c21d823b6cd877f10489cf15929025fcfa6",
    (90, 3): "5f64a790cd477c84165056dc727a2510a46eb2d4835ccaac2acd6cf20869a323",
    (90, 4): "3cd28e2d2ca52ba73532ab918f4928438ba18589d6b4fcb063613a31db2dd361",
    (90, 6): "0443f33804b19551cd8ff797d6b4ce4da3fdc666b19b4f22616b6ca85abee596",
}


def _ls_grid_digest(n, k):
    digest = hashlib.sha256()
    for restarts, seed, eta in itertools.product((1, 3), (0, 1), (0.1, 0.3)):
        oracle, pivot = _fixture(n, k, 500 + seed, eta=eta)
        est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.3), q=5,
                                             rng=derive_rng(seed, "b"))
        found = clu.local_search_erm(est, pivot, restarts=restarts,
                                     rng=derive_rng(seed, "ls"))
        digest.update(found.assign.astype(np.int32).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n, k", list(_LS_GOLDEN_DIGESTS))
def test_local_search_golden(n, k):
    assert _ls_grid_digest(n, k) == _LS_GOLDEN_DIGESTS[n, k]


def test_enumerate_partitions_class():
    cls = clu.enumerate_partitions_class(5, 2)
    assert len(cls) == clu.count_assignments(5, 2)
    assert cls.pool_size == 20


# -------------------------------------------------------------- persistence

def test_clustering_roundtrip(tmp_path):
    c = clu.Clustering([2, 1, 2, 3, 1], 3)
    path = str(tmp_path / "clu.csv")
    clu.save_clustering(c, path)
    assert clu.load_clustering(path) == c
    assert clu.load_clustering(path, k=4).k == 4


def test_load_clustering_rejects_gaps(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("item,cluster\n0,1\n2,1\n")
    with pytest.raises(ValueError):
        clu.load_clustering(str(path))
