"""Exact minimizers against the predicate scan they replaced.

Clustering, planar orders and finite classes score packed 0/1 tables;
ranking runs a subset DP, checked here against the packed kernel.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import (
    InstanceOracle,
    NoiseSpec,
    Params,
    make_clustering_oracle,
    make_ranking_oracle,
)
from pivotlearn import clustering as clu
from pivotlearn import generic as gen
from pivotlearn import geometric as geo
from pivotlearn import ranking as rk
from pivotlearn.core import (
    column_coefficients,
    pack_columns,
    packed_argmin,
    pair_coefficients,
    pair_table,
)
from pivotlearn.oracles import load_oracle
from pivotlearn.seeding import derive_rng


def _predicate_argmin(rows, predicate, labels, weight_num):
    """Reference: (index, value) of the first row with the least weighted label mismatch.

    predicate(block) maps a block of rows to their 0/1 predictions on the
    samples; a row's value is the total weight of the samples it mismatches.
    Blocks of 65536 rows, float64 sums (exact below 2**53), first minimum wins.
    """
    labels = np.asarray(labels, dtype=np.uint8)
    w = np.asarray(weight_num, dtype=np.float64)
    chunk = max(1024, min(1 << 16, 8_000_000 // max(1, len(labels))))
    best_val, best_row = math.inf, 0
    for start in range(0, len(rows), chunk):
        values = (predicate(rows[start : start + chunk]) != labels).astype(np.float64) @ w
        idx = int(np.argmin(values))
        if values[idx] < best_val:
            best_val, best_row = float(values[idx]), start + idx
    return best_row, int(best_val)


def _before(us, vs):
    return lambda block: block[:, us] < block[:, vs]


def _together(us, vs):
    return lambda block: block[:, us] == block[:, vs]


def _kernel(rows, us, vs, labels, weight_num, oriented):
    n = rows.shape[1]
    coef, base = pair_coefficients(n, us, vs, labels, weight_num, oriented)
    return packed_argmin(pair_table(rows, oriented), coef, base)


# ------------------------------------------------- estimators from the builders

@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", [0, 1])
def test_ranking_exact_erm_matches_predicate_scan(n, seed):
    truth = rk.random_permutation(n, derive_rng(seed, "t"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=seed)
    pivot = rk.random_permutation(n, derive_rng(seed, "p"))
    ranks = rk.all_rank_arrays(n)
    for p in (1, 2, n):
        est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.3), p=p,
                                         rng=derive_rng(seed, "b", p))
        row, value = _predicate_argmin(ranks, _before(est.us, est.vs), est.labels, est.weight_num)
        perm = rk.exact_erm(est)
        assert perm == rk.Permutation(ranks[row])
        # the estimate is the least mismatch less the pivot's, at the estimator's scale
        at_pivot = _predicate_argmin(pivot.rank[None], _before(est.us, est.vs), est.labels,
                                     est.weight_num)[1]
        assert est.evaluate(perm) == (value - at_pivot) * est.scale
        assert rk._exact_argmin(n, est.us, est.vs, est.labels, est.weight_num)[1] == value


_CLUSTER_GRID = [(n, k) for n in (2, 3, 5, 7, 9) for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("n, k", _CLUSTER_GRID)
def test_clustering_exact_erm_matches_predicate_scan(n, k):
    truth = clu.random_clustering(n, k, derive_rng(n, k, "t"))
    oracle = make_clustering_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=n + k)
    pivot = clu.random_clustering(n, k, derive_rng(n, k, "p"))
    assigns = clu.all_assignments(n, k)
    for q in (1, 2, n):
        est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.3), q=q,
                                             rng=derive_rng(n, k, "b", q))
        row, value = _predicate_argmin(assigns, _together(est.us, est.vs), est.labels,
                                       est.weight_num)
        best = clu.exact_erm(est, k=k)
        assert best.assign.tolist() == assigns[row].tolist()
        at_pivot = _predicate_argmin(pivot.assign[None], _together(est.us, est.vs), est.labels,
                                     est.weight_num)[1]
        assert est.evaluate(best) == (value - at_pivot) * est.scale
        assert clu._exact_argmin(n, k, est.us, est.vs, est.labels, est.weight_num)[1] == value


def _adversarial_oracle(tmp_path, mode, n, seed):
    """Oracle over arbitrary per-pair labels, read back through load_oracle."""
    iu, iv = np.triu_indices(n, k=1)
    labels = derive_rng(seed, "adversarial").integers(0, 2, len(iu))
    path = tmp_path / f"{mode}-{n}.csv"
    rows = "".join(f"{u},{v},{y}\n" for u, v, y in zip(iu, iv, labels))
    path.write_text("u,v,label\n" + rows)
    return load_oracle(str(path), mode=mode, n=n)


_RANKING_NOISE = [
    NoiseSpec(kind="none"),
    NoiseSpec(kind="uniform_flip", eta=0.3),
    NoiseSpec(kind="distance_decay", rho=1.0, scale=0.8),
    "adversarial_file",
]


@pytest.mark.parametrize("noise", _RANKING_NOISE, ids=lambda s: getattr(s, "kind", s))
@pytest.mark.parametrize("n", [2, 4, 7])
def test_ranking_exact_min_error_matches_predicate_scan(tmp_path, noise, n):
    if noise == "adversarial_file":
        oracle = _adversarial_oracle(tmp_path, "ranking", n, seed=n)
    else:
        truth = rk.random_permutation(n, derive_rng(n, "t"))
        oracle = make_ranking_oracle(truth, noise, seed=n)
    us, vs = np.triu_indices(n, k=1)
    labels = oracle.verification_labels(us, vs)
    ranks = rk.all_rank_arrays(n)
    row, half = _predicate_argmin(ranks, _before(us, vs), labels, np.ones(len(us), np.int64))
    nu, best = rk.exact_min_error(oracle)
    assert best == rk.Permutation(ranks[row])
    assert nu == 2 * half / (n * (n - 1))


@pytest.mark.parametrize("noise", _RANKING_NOISE[:2] + _RANKING_NOISE[3:],
                         ids=lambda s: getattr(s, "kind", s))
@pytest.mark.parametrize("n, k", [(2, 1), (5, 2), (8, 3), (9, 4)])
def test_clustering_exact_min_error_matches_predicate_scan(tmp_path, noise, n, k):
    if noise == "adversarial_file":
        oracle = _adversarial_oracle(tmp_path, "clustering", n, seed=n + k)
    else:
        truth = clu.random_clustering(n, k, derive_rng(n, k, "t"))
        oracle = make_clustering_oracle(truth, noise, seed=n + k)
    us, vs = np.triu_indices(n, k=1)
    labels = oracle.verification_labels(us, vs)
    assigns = clu.all_assignments(n, k)
    row, half = _predicate_argmin(assigns, _together(us, vs), labels, np.ones(len(us), np.int64))
    nu, best = clu.exact_min_error(oracle, k)
    assert best.assign.tolist() == assigns[row].tolist()
    assert nu == 2 * half / (n * (n - 1))


@pytest.mark.parametrize("seed", range(4))
def test_geometric_erm_matches_predicate_scan(seed):
    n = 9
    feats = geo.random_features(n, 2, derive_rng(seed, "f"))
    orders, _ = geo.enumerate_orders_2d(feats)
    oracle = make_ranking_oracle(orders[-1], NoiseSpec(kind="uniform_flip", eta=0.2), seed=seed)
    ranks = np.stack([o.rank for o in orders])
    for p in (1, 3):
        est = rk.build_ranking_estimator(orders[0], oracle, Params(epsilon=0.3), p=p,
                                         rng=derive_rng(seed, "b", p))
        row, _ = _predicate_argmin(ranks, _before(est.us, est.vs), est.labels, est.weight_num)
        assert geo.geometric_erm_2d(est, feats) == orders[row]


@pytest.mark.parametrize("family, pool", [("thresholds", 7), ("intervals", 9),
                                          ("intervals", 16), ("random", 12)])
@pytest.mark.parametrize("m", [1, 3, 50])
def test_class_argmin_matches_predicate_scan(family, pool, m):
    if family == "random":
        raw = derive_rng(pool, m, "class").integers(0, 2, (60, pool))
        cls = gen.FiniteClass(np.unique(raw, axis=0))
    else:
        cls = getattr(gen, f"{family}_class")(pool)
    truth = cls.labels[len(cls) // 2] ^ (derive_rng(pool, m, "flip").random(pool) < 0.2)
    est = gen.build_generic_estimator(cls, 0, InstanceOracle(truth), Params(epsilon=0.3, mu=0.1),
                                      m=m, rng=derive_rng(pool, m, "b"))
    row, value = _predicate_argmin(cls.labels, lambda block: block[:, est.us], est.labels,
                                   est.weight_num)
    idx, est_value = gen.class_argmin(cls, est)
    assert idx == row
    assert est_value == est.evaluate(cls.labels[row])
    coef, base = column_coefficients(est.us, est.labels, est.weight_num, cls.pool_size)
    assert packed_argmin(pack_columns(cls.labels), coef, base) == (row, value)


# -------------------------------------------------- synthetic, tie-heavy samples

@st.composite
def _samples(draw, max_n=6):
    """Pair samples with repeats, both orientations, self pairs and zero or equal weights."""
    n = draw(st.integers(2, max_n))
    size = draw(st.integers(0, 30))
    item = st.integers(0, n - 1)
    us = np.array(draw(st.lists(item, min_size=size, max_size=size)), dtype=np.int64)
    vs = np.array(draw(st.lists(item, min_size=size, max_size=size)), dtype=np.int64)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    weights = draw(st.sampled_from(["zero", "equal", "small", "wide"]))
    if weights == "zero":
        w = np.zeros(size, dtype=np.int64)
    elif weights == "equal":
        w = np.full(size, draw(st.integers(1, 5)), dtype=np.int64)
    else:
        top = 3 if weights == "small" else 2**40
        w = np.array(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)),
                     dtype=np.int64)
    return n, us, vs, labels.astype(np.uint8), w


@given(_samples())
@settings(max_examples=150, deadline=None)
def test_ranking_kernel_matches_predicate_scan_on_synthetic_samples(case):
    n, us, vs, labels, w = case
    ranks = rk.all_rank_arrays(n)
    assert _kernel(ranks, us, vs, labels, w, oriented=True) == _predicate_argmin(
        ranks, _before(us, vs), labels, w)


@given(_samples(max_n=8))
@settings(max_examples=150, deadline=None)
def test_ranking_dp_matches_packed_kernel_on_synthetic_samples(case):
    n, us, vs, labels, w = case
    ranks = rk.all_rank_arrays(n)
    row, value = _kernel(ranks, us, vs, labels, w, oriented=True)
    assert rk._exact_argmin(n, us, vs, labels, w) == (rk.Permutation(ranks[row]), value)


@pytest.mark.parametrize("n", range(11, 15))
def test_ranking_dp_beyond_enumeration_beats_every_local_search_start(n):
    truth = rk.random_permutation(n, derive_rng(n, "t"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.3), seed=n)
    est = rk.build_ranking_estimator(rk.Permutation.identity(n), oracle, Params(epsilon=0.3),
                                     p=2, rng=derive_rng(n, "b"))
    perm, value = rk._exact_argmin(n, est.us, est.vs, est.labels, est.weight_num)
    # value is the weighted mismatch; evaluate_int subtracts the pivot's
    assert est.evaluate_int(perm) == value - int(est.weight_num @ est.pivot_costs)
    best = est.evaluate_int(perm)
    starts = [rk.Permutation.identity(n), truth] + [
        rk.random_permutation(n, derive_rng(n, "s", i)) for i in range(6)
    ]
    for start in starts:
        found = rk.local_search_erm(est, start, restarts=1)
        assert est.evaluate_int(found) >= best


def test_ranking_dp_empty_sample_gives_identity():
    none = np.array([], dtype=np.int64)
    assert rk._exact_argmin(14, none, none, none, none) == (rk.Permutation.identity(14), 0)


@pytest.mark.parametrize("n", [15, 40])
def test_ranking_dp_refuses_large_pools_before_allocating(n):
    us, vs = np.triu_indices(n, k=1)
    est = rk.build_ranking_estimator(
        rk.Permutation.identity(n), make_ranking_oracle(rk.Permutation.identity(n), seed=0),
        Params(epsilon=0.3), p=1, rng=derive_rng(n, "b"))
    for call in (lambda: rk.exact_erm(est),
                 lambda: rk._exact_argmin(n, us, vs, np.ones(len(us)), np.ones(len(us)))):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exact ranking ERM supports 2 <= n <= 14"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@given(_samples(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_clustering_kernel_matches_predicate_scan_on_synthetic_samples(case, k):
    n, us, vs, labels, w = case
    assigns = clu.all_assignments(n, k)
    assert _kernel(assigns, us, vs, labels, w, oriented=False) == _predicate_argmin(
        assigns, _together(us, vs), labels, w)


def test_repeated_samples_on_one_pair_cancel_exactly():
    # (0, 1) with label 1 and (1, 0) with label 0 agree, (0, 1) with label 0
    # disagrees: every ranking mismatches weight 5, so the first row wins
    us, vs = np.array([0, 1, 0]), np.array([1, 0, 1])
    labels = np.array([1, 0, 0], dtype=np.uint8)
    w = np.array([2, 3, 5])
    ranks = rk.all_rank_arrays(3)
    assert _kernel(ranks, us, vs, labels, w, oriented=True) == (0, 5)
    # the same samples in favour of 1 before 0
    w = np.array([2, 3, 6])
    row, value = _kernel(ranks, us, vs, labels, w, oriented=True)
    assert (row, value) == _predicate_argmin(ranks, _before(us, vs), labels, w)
    assert ranks[row][1] < ranks[row][0] and value == 5


def test_ties_across_row_blocks_go_to_the_first_row():
    ranks = rk.all_rank_arrays(8)  # 40320 rows: more than one block
    none = np.array([], dtype=np.int64)
    assert _kernel(ranks, none, none, none, none, oriented=True) == (0, 0)
    # half of all rank arrays put 7 before 6 at no cost; the first is row 1
    one = np.array([1])
    assert _kernel(ranks, [7], [6], one, one, oriented=True) == (1, 0)
    assert _predicate_argmin(ranks, _before([7], [6]), one, one) == (1, 0)


@given(_samples(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_predicate_scan_in_small_blocks(case, k):
    import pivotlearn.core

    n, us, vs, labels, w = case
    for rows, predicate, oriented in ((rk.all_rank_arrays(n), _before, True),
                                      (clu.all_assignments(n, k), _together, False)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pivotlearn.core, "_TABLE_BLOCK_ROWS", 7)
            found = _kernel(rows, us, vs, labels, w, oriented)
        assert found == _predicate_argmin(rows, predicate(us, vs), labels, w)


# ------------------------------------------------------------------------ memory

def test_rank_pair_table_n10_memory_is_bounded():
    ranks = rk.all_rank_arrays(10)  # cached: built once per process
    us, vs = np.triu_indices(10, k=1)
    truth = int(derive_rng(5, "mem").integers(len(ranks)))
    labels = (ranks[truth][us] < ranks[truth][vs]).astype(np.uint8)
    tracemalloc.start()
    try:
        table = pair_table(ranks, oriented=True)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        coef, base = pair_coefficients(10, us, vs, labels, np.ones(len(us), np.int64), True)
        found = packed_argmin(table, coef, base)
        use_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert found == (truth, 0)
    assert table.nbytes == 6 * math.factorial(10)  # 45 pair bits in 6 bytes per row
    # the scan it replaced held 65536 x 45 float64 cells (23.6 MB) per block
    # beside its rank gathers; the 163 MB unpacked table never exists whole
    assert build_peak < table.nbytes + 8 * 2**20
    assert use_peak < 2 * 2**20


def test_ranking_dp_n14_memory_is_bounded():
    n = 14
    truth = rk.random_permutation(n, derive_rng(14, "mem"))
    us, vs = np.triu_indices(n, k=1)
    labels = truth.pair_values(us, vs)
    rk._subset_layers.cache_clear()  # measure a cold call, layout included
    tracemalloc.start()
    try:
        found = rk._exact_argmin(n, us, vs, labels, np.ones(len(us), np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == (truth, 0)
    # the (2**14, 14) int64 ahead table is 1.8 MiB and the cached layout
    # about 4 MiB; the 14! rank arrays the enumeration would need are 1.2 TB
    assert peak < 8 * 2**20
