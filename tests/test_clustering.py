import hashlib
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pivotlearn.core
from pivotlearn import NoiseSpec, Params, make_clustering_oracle
from pivotlearn import clustering as clu
from pivotlearn import verify
from pivotlearn.seeding import derive_rng


def _distance_scan(c1, c2):
    n = c1.n_items
    bad = 0
    for u in range(n):
        for v in range(n):
            if u != v and (c1.assign[u] == c1.assign[v]) != (c2.assign[u] == c2.assign[v]):
                bad += 1
    return bad / (n * (n - 1))


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
    assert c.clusters_by_size() == [1, 2, 3]


def test_clustering_validation():
    with pytest.raises(ValueError):
        clu.Clustering([0, 1], 2)  # ids are 1-based
    with pytest.raises(ValueError):
        clu.Clustering([1, 4], 3)  # id beyond k


@pytest.mark.parametrize("assign, k", [
    ([1.7, 2.2, 1.1], 2),  # would truncate to [1, 2, 1]
    ([True, 2, 1], 2),
    (np.array([1, 2, 2**32 + 1]), 2),  # would wrap to [1, 2, 1] in int32
    ([1, 2, 1], 2.7),  # would become k = 2
])
def test_clustering_refuses_non_integer_or_out_of_range(assign, k):
    with pytest.raises(ValueError):
        clu.Clustering(assign, k)


def test_pair_values_same_cluster_indicator():
    c = clu.Clustering([1, 1, 2], 2)
    us = np.array([0, 0, 1])
    vs = np.array([1, 2, 2])
    assert c.pair_values(us, vs).tolist() == [1, 0, 0]


def test_clusters_by_size_tie_break():
    c = clu.Clustering([1, 2, 2, 3, 3], 3)  # sizes 1, 2, 2
    assert c.clusters_by_size() == [2, 3, 1]  # decreasing size, ties by id


def test_work_scales_with_clusters_in_use_not_k():
    import time

    k = 2**31 - 1
    huge, tight = clu.Clustering([7, 9, 7, 3], k), clu.Clustering([7, 9, 7, 3])  # k = 9
    far = clu.Clustering([k, k, 1, 5], k)
    oracle = make_clustering_oracle(clu.Clustering([1, 1, 2, 2]), NoiseSpec(kind="none"), seed=0)
    t0 = time.perf_counter()
    assert huge.clusters_by_size() == tight.clusters_by_size() == [7, 3, 9]
    assert huge.distance_to(far) == tight.distance_to(far) == _distance_scan(huge, far) == 4 / 12
    built = [clu.build_clustering_estimator(c, oracle, Params(epsilon=0.3), q=2,
                                            rng=derive_rng(0, "k")) for c in (huge, tight)]
    assert time.perf_counter() - t0 < 1.0  # a table over 1..k would take seconds or fail
    for name in ("us", "vs", "weight_num", "labels", "pivot_costs"):
        assert np.array_equal(getattr(built[0], name), getattr(built[1], name))


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
    assert verify._distance_matches_scan(n, k, seed) is None


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
    assert verify._exhaustive(n=7, k=3, eta=0.2, seed=61) is None


def test_build_unbiased_at_small_q():
    assert verify._unbiased(n=8, k=3, size=2, eta=0.15, seed=17, builds=3000, targets=5) is None


def test_build_query_cap():
    assert verify._query_cap(n=20, k=4, size=5, seed=63) is None


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


def _loop_build(pivot, oracle, q, rng):
    """Reference builder: a per-(item, source cluster) loop.

    Clusters by decreasing size, items ascending within each; every item
    takes its own cluster (itself left out), then each later cluster.  A
    source of at most q members enters whole at numerator q, a larger one
    gives q draws with repetition at numerator |source|; cross-cluster
    numerators are doubled.  Returns (us, vs, w_num, labels).
    """
    members = [np.flatnonzero(pivot.assign == cid) for cid in pivot.clusters_by_size()]
    us, vs, w_num = [], [], []
    for ci, group in enumerate(members):
        for u in group.tolist():
            for j, source in enumerate(members[ci:]):
                if j == 0:
                    source = source[source != u]
                if len(source) <= q:
                    sample, w = source, q
                else:
                    sample, w = source[rng.integers(0, len(source), size=q)], len(source)
                us += [u] * len(sample)
                vs += sample.tolist()
                w_num += [w if j == 0 else 2 * w] * len(sample)
    us, vs = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    return us, vs, np.array(w_num, dtype=np.int64), oracle.query_many(us, vs)


# n = 2, singleton clusters, an empty cluster id, k = 1, q >= n (exhaustive)
# and q = 1
_BUILD_GRID = [
    ([1, 1], 1, 1), ([1, 2], 2, 1), ([1, 2, 3, 4, 5, 6, 7], 7, 2),
    ([2, 2, 1, 1, 3, 5, 5, 5], 5, 1), (8, 3, 1), (10, 4, 10), (13, 2, 20),
    (37, 5, 3), (60, 1, 7), (100, 6, 7), (200, 4, 14),
]


@pytest.mark.parametrize("shape, k, q", _BUILD_GRID)
@pytest.mark.parametrize("seed", [0, 1])
def test_build_matches_loop_reference(shape, k, q, seed):
    if isinstance(shape, int):
        pivot = clu.random_clustering(shape, k, derive_rng(seed, "p"))
    else:
        pivot = clu.Clustering(shape, k)
    n = pivot.n_items
    truth = clu.random_clustering(n, k, derive_rng(seed, "t"))
    noise = NoiseSpec(kind="uniform_flip", eta=0.2)
    rng, ref_rng = derive_rng(seed, "b"), derive_rng(seed, "b")
    est = clu.build_clustering_estimator(pivot, make_clustering_oracle(truth, noise, seed=seed),
                                         Params(epsilon=0.2), q=q, rng=rng)
    us, vs, w_num, labels = _loop_build(pivot, make_clustering_oracle(truth, noise, seed=seed),
                                        q, ref_rng)
    np.testing.assert_array_equal(est.us, us)
    np.testing.assert_array_equal(est.vs, vs)
    np.testing.assert_array_equal(est.weight_num, w_num)
    np.testing.assert_array_equal(est.labels, labels)
    np.testing.assert_array_equal(est.pivot_costs, pivot.pair_values(us, vs) != labels)
    assert est.weight_denom == q
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)  # same stream left


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


def _reference_assignments(n, k):
    """The recursive restricted-growth generator that all_assignments replaced."""
    def rgs():
        a = [0] * n

        def rec(i, used):
            if i == n:
                yield from a
                return
            for v in range(min(used + 1, k)):
                a[i] = v
                yield from rec(i + 1, max(used, v + 1))

        yield from rec(0, 0)

    count = clu.count_assignments(n, k)
    return np.fromiter(rgs(), dtype=np.int8, count=count * n).reshape(count, n) + np.int8(1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_all_assignments_match_reference(k):
    for n in range(2, 11):
        got, want = clu.all_assignments(n, k), _reference_assignments(n, k)
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want), (n, k)


@pytest.mark.parametrize("n, k", [(11, 4), (12, 3), (12, 4)])
def test_all_assignments_large_are_canonical_and_increasing(n, k):
    # the reference generator takes seconds here, so check the defining properties
    rows = clu.all_assignments(n, k).astype(np.int64)
    assert rows.shape == (clu.count_assignments(n, k), n)
    assert (rows[:, 0] == 1).all() and rows.max() <= k
    seen = np.maximum.accumulate(rows, axis=1)
    assert (rows[:, 1:] <= seen[:, :-1] + 1).all()  # each new id is one above the last
    keys = rows @ (k ** np.arange(n - 1, -1, -1))  # base-k digits, item 0 most significant
    assert (np.diff(keys) > 0).all()


def test_all_assignments_peak_memory():
    clu.all_assignments.cache_clear()
    tracemalloc.start()
    try:
        table = clu.all_assignments(12, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 700075 * 12
    assert peak <= 3 * table.nbytes


def test_exact_tables_are_read_only():
    rows = clu.all_assignments(5, 3)
    with pytest.raises(ValueError):
        rows[0, 1] = 2
    with pytest.raises(ValueError):
        rows[0][1] = 2
    with pytest.raises(ValueError):
        clu._pair_table(5, 3)[0, 0] = 0
    assert rows is clu.all_assignments(5, 3)
    assert rows[0].tolist() == [1, 1, 1, 1, 1]


def test_all_assignments_cap():
    with pytest.raises(ValueError, match="local_search_erm"):
        clu.all_assignments(13, 3)


def test_exact_erm_matches_brute_force():
    n, k = 6, 3
    oracle, pivot = _fixture(n, k, 66)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.2), q=2,
                                         rng=derive_rng(66, "b"))
    best = clu.exact_erm(est)
    val = est.evaluate(best)
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
        exact_val = est.evaluate(clu.exact_erm(est))
        found = clu.local_search_erm(est, pivot, restarts=20, rng=derive_rng(seed, "ls"))
        assert est.evaluate(found) == pytest.approx(exact_val, abs=1e-12)


def test_local_search_never_worse_than_start():
    n, k = 25, 4
    oracle, pivot = _fixture(n, k, 77)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.3), q=4,
                                         rng=derive_rng(77, "b"))
    found = clu.local_search_erm(est, pivot, restarts=3, rng=derive_rng(77, "ls"))
    assert est.evaluate_int(found) <= est.evaluate_int(pivot)


# Per-sample references: each sample on its own, none merged with another.

def _reference_cost(samples, assign, k):
    """cost[u, c] summed sample by sample with np.add.at."""
    cost = np.zeros((samples.n_items, k + 1), dtype=np.int64)
    w, y = samples.weight_num, samples.labels.astype(np.int64)
    for u, v in ((samples.us, samples.vs), (samples.vs, samples.us)):
        np.add.at(cost, u, (w * y)[:, None])
        np.add.at(cost, (u, assign[v]), w * (1 - 2 * y))
    return cost


def _objective(samples, assign):
    """Total weight of the samples that `assign` mismatches."""
    same = assign[samples.us] == assign[samples.vs]
    return int(samples.weight_num @ (same != samples.labels.astype(bool)))


def _loop_pair_weights(samples, a):
    """Sum of w*(1 - 2y) over the samples on each pair {a, b}, indexed by b."""
    out = np.zeros(samples.n_items, dtype=np.int64)
    signed = samples.weight_num * (1 - 2 * samples.labels.astype(np.int64))
    for u, v in ((samples.us, samples.vs), (samples.vs, samples.us)):
        mine = u == a
        np.add.at(out, v[mine], signed[mine])
    return out


def _loop_swap_deltas(table, a, lo, pair_w):
    """Objective change of swapping a with each b >= lo (same-cluster b included)."""
    ca = table.assign[a]
    cb = table.assign[lo:]
    rows = np.arange(lo, len(table.assign))
    return (table.cost[a, cb] - table.cost[a, ca]
            + table.cost[rows, ca] - table.cost[rows, cb]
            - 2 * pair_w[lo:])


# Reference passes: the one-row-at-a-time scans the block scans replaced.

def _loop_reassign_pass(table):
    gained = 0
    moved = False
    assign = table.assign
    for u in range(len(assign)):
        row = table.cost[u, 1:]
        delta = row - row[assign[u] - 1]
        c = int(np.argmin(delta))
        if delta[c] < 0:
            table.move(u, c + 1)
            gained += int(delta[c])
            moved = True
    return gained, moved


def _loop_swap_pass(table, samples):
    gained = 0
    moved = False
    assign = table.assign
    n = len(assign)
    for a in range(n - 1):
        pair_w = _loop_pair_weights(samples, a)
        lo = a + 1
        while lo < n:
            delta = _loop_swap_deltas(table, a, lo, pair_w)
            hits = np.flatnonzero((assign[lo:] != assign[a]) & (delta < 0))
            if len(hits) == 0:
                break
            b = lo + int(hits[0])
            ca, cb = int(assign[a]), int(assign[b])
            table.move(a, cb)
            table.move(b, ca)
            gained += int(delta[hits[0]])
            moved = True
            lo = b + 1
    return gained, moved


@st.composite
def _search_cases(draw):
    """(samples, start assignment, k) for a gain table, stress cases included.

    The samples come from a real estimator, or there are none.  Extra
    samples may repeat the pair {0, 1}, or replace every sample on the
    pair {n - 2, n - 1} by ones whose signed weights cancel to 0, and all
    weights may be redrawn up to 2**40.  The start is random, restricted to
    a few ids (the rest stay empty), or all singletons (k = n).
    """
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    oracle, pivot = _fixture(n, k, seed, eta=draw(st.floats(0, 0.5, exclude_max=True)))
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.3),
                                         q=draw(st.integers(1, 50)), rng=derive_rng(seed, "b"))
    rng = derive_rng(seed, "case")
    us, vs, labels, weight = est.us, est.vs, est.labels, est.weight_num
    if draw(st.integers(0, 9)) == 0:  # no samples at all
        us = vs = weight = np.zeros(0, dtype=np.int64)
        labels = np.zeros(0, dtype=np.uint8)
    else:
        repeats = draw(st.integers(0, 8))
        us = np.concatenate([us, np.zeros(repeats, dtype=np.int64)])
        vs = np.concatenate([vs, np.ones(repeats, dtype=np.int64)])
        labels = np.concatenate([labels, rng.integers(0, 2, repeats).astype(np.uint8)])
        weight = np.concatenate([weight, rng.integers(1, 2 * n, repeats)])
        if draw(st.booleans()):
            weight = rng.integers(1, 2**40 + 1, len(us))
        cancel = draw(st.integers(0, 3))
        if cancel:  # (x, y, w, 0) and (y, x, w, 1) per weight: the pair sums to 0
            x, y = n - 2, n - 1
            off = np.minimum(us, vs) == x
            off &= np.maximum(us, vs) == y
            w = rng.integers(1, 2 * n, cancel).repeat(2)
            us = np.concatenate([us[~off], np.tile([x, y], cancel)])
            vs = np.concatenate([vs[~off], np.tile([y, x], cancel)])
            labels = np.concatenate([labels[~off], np.tile(np.uint8([0, 1]), cancel)])
            weight = np.concatenate([weight[~off], w])
    samples = SimpleNamespace(n_items=n, us=us, vs=vs, labels=labels, weight_num=weight)
    start = draw(st.sampled_from(["random", "few ids", "singletons"]))
    if start == "singletons":
        return samples, np.arange(1, n + 1), n
    ids = np.arange(1, k + 1)
    if start == "few ids":
        ids = rng.choice(ids, size=rng.integers(1, k + 1), replace=False)
    return samples, rng.choice(ids, size=n), k


@given(_search_cases(),
       st.lists(st.tuples(st.booleans(), st.integers(0, 999), st.integers(0, 999)),
                max_size=25))
@settings(max_examples=80, deadline=None)
def test_gain_table_tracks_moves(case, moves):
    """Moves and swaps keep the merged table equal to a per-sample reference,
    and their table deltas are the objective's change."""
    samples, assign, k = case
    n = len(assign)
    table = clu._GainTable(samples, assign, k)
    assert table.signed.all()  # a pair whose samples cancel is dropped
    np.testing.assert_array_equal(table.cost, _reference_cost(samples, assign, k))
    for is_swap, x, y in moves:
        before = _objective(samples, assign)
        if is_swap:
            a, b = sorted((x % n, y % n))
            if assign[a] == assign[b]:
                continue
            delta = int(_loop_swap_deltas(table, a, b, _loop_pair_weights(samples, a))[0])
            better, score = table.swap_scores(a, a + 1, b)
            assert score.item(0) - table.cost.item(a, assign[a]) == delta
            assert better.item(0) == (delta < 0)
            ca, cb = int(assign[a]), int(assign[b])
            table.move(a, cb)
            table.move(b, ca)
        else:
            u, cid = x % n, y % k + 1
            delta = int(table.cost[u, cid] - table.cost[u, assign[u]])
            table.move(u, cid)
        assert delta == _objective(samples, assign) - before
        np.testing.assert_array_equal(table.cost, _reference_cost(samples, assign, k))


def test_gain_table_refuses_a_self_pair():
    samples = SimpleNamespace(n_items=3, us=np.array([0, 2]), vs=np.array([1, 2]),
                              labels=np.uint8([1, 0]), weight_num=np.array([1, 1]))
    with pytest.raises(ValueError, match="two distinct items"):
        clu._GainTable(samples, np.array([1, 1, 2]), 2)


@pytest.mark.parametrize("cap", [None, 6])
@given(_search_cases())
@settings(max_examples=150, deadline=None)
def test_block_passes_match_loop_reference(cap, case):
    """Block passes make the one-row scans' moves: same gains, assignment and table.

    With the block cap at a few entries, small pools also run multi-block
    scans and the drop back to one row after a move.
    """
    samples, assign, k = case
    table = clu._GainTable(samples, assign.copy(), k)
    ref = clu._GainTable(samples, assign.copy(), k)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(pivotlearn.core, "_SCAN_BLOCK_PAIRS", cap)
        for _ in range(3):
            for block_pass, loop_pass in ((clu._reassign_pass, _loop_reassign_pass),
                                          (clu._swap_pass,
                                           lambda t: _loop_swap_pass(t, samples))):
                assert block_pass(table) == loop_pass(ref)
                np.testing.assert_array_equal(table.assign, ref.assign)
                np.testing.assert_array_equal(table.cost, ref.cost)
    np.testing.assert_array_equal(table.cost, _reference_cost(samples, table.assign, k))


# Returned assignments of local search over a grid of pool sizes, cluster
# counts, restarts, seeds and noise levels.  The digests were taken from the
# per-pair swap scan before the gain table replaced it, (300, 4) from the
# one-row gain-table scans before the block scans replaced them, and
# (2000, 6) from the per-sample gain table before its rows were merged per
# pair; a rewrite of the search must keep every returned assignment
# byte-identical.
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
    (300, 4): "62bfdc5899178ba58e9277a9f46924fb8a2605a4da49e57903d230a89e7f664f",
    (2000, 6): "78f7d4a8b08eb871488eeb4c862ba8a83cb2367cb78ae288e6549e543bc2b01d",
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
