import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pivotlearn
from pivotlearn import core
from pivotlearn import (
    BudgetExceededError,
    ErmFailedError,
    InstanceOracle,
    NoiseSpec,
    Params,
    Pool,
    PoolMismatchError,
    RegretEstimator,
    distance,
    make_clustering_oracle,
    make_ranking_oracle,
    regret,
    run_erm_iteration,
    true_error,
)
from pivotlearn import clustering as clu
from pivotlearn import generic as gen
from pivotlearn import geometric as geo
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.core import MAX_SAMPLE_SIZE, sample_size
from pivotlearn.oracles import load_oracle, save_oracle
from pivotlearn.seeding import derive_rng


@pytest.mark.parametrize("module", ["pivotlearn"] + [
    f"pivotlearn.{m.name}" for m in pkgutil.iter_modules(pivotlearn.__path__)
    if m.name != "__main__"
])
def test_public_names_resolve_once(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [n for n in names if not hasattr(mod, n)] == []


def test_pool_all_pairs():
    us, vs = Pool(4).all_pairs()
    pairs = set(zip(us.tolist(), vs.tolist()))
    assert len(pairs) == 12  # n(n-1) ordered, no self pairs
    assert (0, 0) not in pairs
    assert (1, 3) in pairs and (3, 1) in pairs
    assert Pool(4).pair_count == 12


def test_pool_rejects_tiny():
    with pytest.raises(ValueError):
        Pool(1)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(epsilon=0.0)
    with pytest.raises(ValueError):
        Params(epsilon=1.0)
    with pytest.raises(ValueError):
        Params(epsilon=0.2, mu=0.0)
    with pytest.raises(ValueError):
        Params(epsilon=0.2, mu=1.5)
    with pytest.raises(ValueError):
        Params(epsilon=0.2, delta=1.0)
    with pytest.raises(ValueError):
        Params(epsilon=0.2, iterations=0)
    with pytest.raises(ValueError):
        Params(epsilon=0.2, c1=0.0)


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_params_refuse_non_finite_constants(name, value):
    with pytest.raises(ValueError, match=name):
        Params(epsilon=0.2, **{name: value})


@pytest.mark.parametrize("name, size", [
    ("p", lambda eps, c: rk.sample_size_p(10, eps, c)),
    ("q", lambda eps, c: clu.sample_size_q(10, 3, eps, c)),
    ("m", lambda eps, c: gen.sample_size_m(2.0, 1, eps, 0.01, 0.1, c)),
])
@pytest.mark.parametrize("eps, c", [
    (1e-120, 1.0),  # eps**-3 overflows a float
    (0.2, 1e300),  # finite, but far past any drawable size
    (0.2, 1e7),  # past 2**31 with no float overflow
    (0.2, float("inf")),
    (0.2, float("nan")),
])
def test_sample_sizes_refuse_non_finite_or_huge(name, size, eps, c):
    with pytest.raises(ValueError, match=f"sample size {name} "):
        size(eps, c)


def test_sample_size_cap_is_inclusive():
    assert sample_size("p", lambda: MAX_SAMPLE_SIZE - 0.5) == MAX_SAMPLE_SIZE
    assert sample_size("p", lambda: -3.0) == 1
    with pytest.raises(ValueError):
        sample_size("p", lambda: MAX_SAMPLE_SIZE + 0.5)


def test_params_resolved_mu_and_overrides():
    p = Params(epsilon=0.2)
    assert p.resolved_mu(56) == 1.0 / 56
    assert p.with_overrides(mu=0.25).resolved_mu(56) == 0.25
    assert p.with_overrides(epsilon=0.3).epsilon == 0.3
    assert p.epsilon == 0.2  # original untouched


# ------------------------------------------------------------------- strata

@pytest.mark.parametrize("q", [1, 2, 3, 7])
def test_one_draw_matches_sequential_draws(q):
    """stratum_draws equals one q-draw call per drawn stratum, in stratum order."""
    sizes = np.array([1, 0, 2, 5, 9, 0, 100, 3, 12, 2**31 + 5, 2**40], dtype=np.int64)
    whole = np.zeros(len(sizes), dtype=bool)
    whole[[4, 8]] = True  # sizes 9 and 12 enter whole even when over q
    seq, one = derive_rng(q, "draw"), derive_rng(q, "draw")
    count, offset, w_num = core.stratum_draws(sizes, q, one, whole=whole)
    parts, weights = [], []
    for size, flag in zip(sizes.tolist(), whole):
        if flag or size <= q:
            parts.append(np.arange(size))
            weights += [q] * size
        else:
            parts.append(seq.integers(0, size, size=q))
            weights += [size] * q
    np.testing.assert_array_equal(count, [len(part) for part in parts])
    np.testing.assert_array_equal(offset, np.concatenate(parts))
    np.testing.assert_array_equal(w_num, weights)
    count, offset, _ = core.stratum_draws(sizes[sizes <= q], q, one)
    np.testing.assert_array_equal(offset, core.segment_offsets(count))  # no draw consumed
    assert one.integers(0, 2**62) == seq.integers(0, 2**62)


@pytest.mark.parametrize("task", ["ranking", "clustering", "generic"])
@pytest.mark.parametrize("size", [0, -1, 2.5, True])
def test_builders_refuse_bad_stratum_size(task, size):
    """p, q and m must be integers >= 1; the check comes before any label."""
    params = Params(epsilon=0.2, mu=0.1)
    perm = rk.Permutation.identity(12)
    clus = clu.Clustering([1, 1, 2, 2, 3, 1], 3)
    cls = gen.thresholds_class(20)
    oracles = {"ranking": make_ranking_oracle(perm), "clustering": make_clustering_oracle(clus),
               "generic": InstanceOracle(cls.labels[5])}
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        if task == "ranking":
            rk.build_ranking_estimator(perm, oracles[task], params, p=size)
        elif task == "clustering":
            clu.build_clustering_estimator(clus, oracles[task], params, q=size)
        else:
            gen.build_generic_estimator(cls, 5, oracles[task], params, m=size)
    assert oracles[task].counters.raw_calls == 0


# ---------------------------------------------------------------- estimator

def _tiny_estimator():
    """Hand-built 3-sample estimator over a 4-item pair pool."""
    pivot = rk.Permutation([1, 2, 3, 4])
    us = np.array([0, 2, 1])
    vs = np.array([1, 3, 0])
    labels = np.array([1, 0, 0], dtype=np.uint8)
    w = np.array([2, 1, 2], dtype=np.int64)
    # pivot predicts 1,1,0 on the samples; costs = prediction != label
    costs = np.array([0, 1, 0], dtype=np.uint8)
    return RegretEstimator(
        pivot=pivot, us=us, vs=vs, labels=labels,
        weight_num=w, weight_denom=2, pivot_costs=costs,
        measure_count=12, n_items=4,
    )


@given(st.integers(2, 12), st.none() | st.integers(1, 4), st.integers(1, 12),
       st.sampled_from([0.0, 0.2]), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_estimator_pivot_evaluates_to_zero(n, k, size, eta, seed):
    assert verify._pivot_zero(n, k, size, eta, seed) is None


def test_estimator_matches_hand_computation():
    est = _tiny_estimator()
    h = rk.Permutation([2, 1, 3, 4])  # swaps items 0 and 1
    # pivot costs: pairs (0,1),(2,3),(1,0) labeled 1,0,0 -> pivot predicts 1,1,0
    # pivot disagreement on samples: [0,1,0] -> pivot_int = 0*2+1*1+0*2 = 1
    # h predicts (0,1)->0, (2,3)->1, (1,0)->1 -> costs [1,1,1]
    # h_int = 2+1+2 = 5; value = (5-1)/(12*2)
    assert est.evaluate_int(h) == 4
    assert est.evaluate(h) == 4 / 24


def test_estimator_scale_property():
    est = _tiny_estimator()
    assert est.scale == 1.0 / (12 * 2)
    assert est.n_samples == 3
    assert est.is_pair_mode


def test_estimator_rejects_shape_mismatch():
    pivot = rk.Permutation([1, 2, 3, 4])
    with pytest.raises(ValueError):
        RegretEstimator(
            pivot=pivot, us=np.array([0]), vs=np.array([1, 2]),
            labels=np.array([1], dtype=np.uint8),
            weight_num=np.array([1], dtype=np.int64),
            weight_denom=1, pivot_costs=np.array([0], dtype=np.uint8),
            measure_count=12, n_items=4,
        )


def test_estimator_rejects_self_pairs():
    pivot = rk.Permutation([1, 2, 3, 4])
    with pytest.raises(ValueError):
        RegretEstimator(
            pivot=pivot, us=np.array([2]), vs=np.array([2]),
            labels=np.array([1], dtype=np.uint8),
            weight_num=np.array([1], dtype=np.int64),
            weight_denom=1, pivot_costs=np.array([0], dtype=np.uint8),
            measure_count=12, n_items=4,
        )


# ---------------------------------------------------------------- distances

def test_distance_dispatch():
    p1 = rk.Permutation([1, 2, 3])
    p2 = rk.Permutation([2, 1, 3])
    assert distance(p1, p2) == p1.distance_to(p2)
    c1 = clu.Clustering([1, 1, 2], 2)
    c2 = clu.Clustering([1, 2, 2], 2)
    assert distance(c1, c2) == c1.distance_to(c2)


def test_distance_pool_mismatch_and_cross_type():
    with pytest.raises(PoolMismatchError):
        distance(rk.Permutation([1, 2]), clu.Clustering([1, 1, 2], 2))
    # mixed hypothesis kinds on the same pool fall back to the generic
    # pair scan: perm predicts [1,0], one-cluster clustering [1,1]
    assert distance(rk.Permutation([1, 2]), clu.Clustering([1, 1], 1)) == 0.5


# ------------------------------------------------------- error/regret oracle

_ERROR_ORACLES = [
    ("ranking", NoiseSpec(kind="none"), False),
    ("ranking", NoiseSpec(kind="uniform_flip", eta=0.3), False),
    ("ranking", NoiseSpec(kind="distance_decay", rho=0.7, scale=0.6), False),
    ("clustering", NoiseSpec(kind="none"), False),
    ("clustering", NoiseSpec(kind="uniform_flip", eta=0.3), False),
    ("ranking", NoiseSpec(kind="uniform_flip", eta=0.2), True),
    ("clustering", NoiseSpec(kind="uniform_flip", eta=0.2), True),
]


# n = 400 has 79,800 unordered pairs, more than one scan block
@pytest.mark.parametrize("n", [2, 3, 400])
@pytest.mark.parametrize("mode,noise,table", _ERROR_ORACLES,
                         ids=[f"{m}-{s.kind}{'-table' if t else ''}" for m, s, t in _ERROR_ORACLES])
def test_true_error_against_direct_scan(mode, noise, table, n, tmp_path):
    rng = derive_rng(9, "err", mode, n)
    if mode == "ranking":
        oracle = make_ranking_oracle(rk.random_permutation(n, rng), noise, seed=9)
        h = rk.random_permutation(n, rng)
    else:
        oracle = make_clustering_oracle(clu.random_clustering(n, 3, rng), noise, seed=9)
        h = clu.random_clustering(n, 3, rng)
    if table:
        path = str(tmp_path / "labels.csv")
        save_oracle(oracle, path)
        oracle = load_oracle(path)
    us, vs = Pool(n).all_pairs()
    mismatches = np.count_nonzero(oracle.verification_labels(us, vs) != h.pair_values(us, vs))
    ref = float(mismatches) / Pool(n).pair_count
    for _ in range(2):
        reads = oracle.counters.verification_reads
        assert true_error(h, oracle) == ref
        # one read per ordered pair, whichever way the scan walks the table
        assert oracle.counters.verification_reads - reads == n * (n - 1)
    # verification reads never touch the labeled-query counters
    assert oracle.counters.distinct_labeled == 0
    assert oracle.counters.raw_calls == 0


def test_true_error_memory_is_flat_in_n():
    import tracemalloc

    n = 2000
    rng = derive_rng(3, "err-mem")
    oracle = make_ranking_oracle(rk.random_permutation(n, rng),
                                 NoiseSpec(kind="uniform_flip", eta=0.1), seed=3)
    h = rk.random_permutation(n, rng)
    tracemalloc.start()
    try:
        true_error(h, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an ordered-pair scan holds several arrays of n*(n-1) ~ 4e6 entries
    assert peak < 16 * 2**20


def test_true_error_refuses_budget_capped_oracle():
    truth = rk.Permutation([1, 2, 3, 4])
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="none"), seed=0, budget=5)
    with pytest.raises(ValueError):
        true_error(truth, oracle)


def _scan_fixture(mode, n, seed):
    """An unbudgeted noisy oracle and three random hypotheses on n items."""
    rng = derive_rng(seed, "batch", mode, n)
    noise = NoiseSpec(kind="uniform_flip", eta=0.2)
    if mode == "ranking":
        oracle = make_ranking_oracle(rk.random_permutation(n, rng), noise, seed=seed)
        return oracle, [rk.random_permutation(n, rng) for _ in range(3)]
    oracle = make_clustering_oracle(clu.random_clustering(n, 3, rng), noise, seed=seed)
    return oracle, [clu.random_clustering(n, 3, rng) for _ in range(3)]


# n = 400 spans two scan blocks
@pytest.mark.parametrize("mode", ["ranking", "clustering"])
@pytest.mark.parametrize("n", [2, 7, 400])
def test_batched_true_error_equals_separate_scans(mode, n):
    oracle, hs = _scan_fixture(mode, n, 31)
    singles = [true_error(h, oracle) for h in hs]
    for batch in (hs, tuple(hs), [hs[1], hs[0], hs[1], hs[2], hs[1]], hs[2:]):
        reads = oracle.counters.verification_reads
        errs = true_error(batch, oracle)
        assert isinstance(errs, list)
        assert errs == [singles[hs.index(h)] for h in batch]
        assert oracle.counters.verification_reads - reads == len(batch) * n * (n - 1)
    assert oracle.counters.distinct_labeled == oracle.counters.raw_calls == 0


def test_batched_true_error_empty_and_refusals():
    oracle, hs = _scan_fixture("ranking", 6, 32)
    reads = []
    read = oracle.verification_labels
    oracle.verification_labels = lambda us, vs: reads.append(len(us)) or read(us, vs)
    assert true_error([], oracle) == []
    assert true_error((), oracle) == []
    assert reads == [] and oracle.counters.verification_reads == 0
    with pytest.raises(PoolMismatchError):
        true_error([hs[0], rk.Permutation.identity(7), hs[1]], oracle)
    assert oracle.counters.verification_reads == 0
    capped = make_ranking_oracle(hs[0], NoiseSpec(kind="none"), seed=0, budget=5)
    for batch in ([hs[0]], []):
        with pytest.raises(ValueError, match="budget"):
            true_error(batch, capped)
    assert capped.counters.verification_reads == 0


def test_regret_is_error_difference():
    n = 5
    rng = derive_rng(11, "reg")
    truth = rk.random_permutation(n, rng)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.1), seed=11)
    a = rk.random_permutation(n, rng)
    b = rk.random_permutation(n, rng)
    assert regret(a, b, oracle) == pytest.approx(true_error(b, oracle) - true_error(a, oracle))


@pytest.mark.parametrize("mode", ["ranking", "clustering"])
def test_regret_equals_two_separate_scans(mode):
    n = 9
    oracle, hs = _scan_fixture(mode, n, 33)
    errs = [true_error(h, oracle) for h in hs]
    assert len(set(errs)) > 1  # the differences below are not all zero
    for i, a in enumerate(hs):
        for j, b in enumerate(hs):
            reads = oracle.counters.verification_reads
            assert regret(a, b, oracle) == errs[j] - errs[i]
            assert oracle.counters.verification_reads - reads == 2 * n * (n - 1)


# ------------------------------------------------------------- the iteration

def _ranking_setup(n, seed, eta=0.1, budget=None):
    truth = rk.random_permutation(n, derive_rng(seed, "t"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=eta),
                                 seed=seed, budget=budget)
    return oracle


def test_run_erm_iteration_row_shape():
    n = 6
    oracle = _ranking_setup(n, 21)
    params = Params(epsilon=0.25, iterations=3, master_seed=21)
    traj = run_erm_iteration(
        h0=rk.Permutation.identity(n), oracle=oracle, params=params,
        builder=lambda h, orc, prm, rng=None: rk.build_ranking_estimator(h, orc, prm, p=2, rng=rng),
        erm=lambda est, start, rng=None: rk.exact_erm(est, start, rng=rng),
    )
    assert traj.status == "completed"
    assert [r.iteration for r in traj.rows] == [0, 1, 2, 3]
    assert traj.rows[0].distinct_queries == 0
    assert traj.rows[0].estimator_value is None
    cums = [r.cumulative_queries for r in traj.rows]
    assert cums == sorted(cums)
    assert traj.final_hypothesis.n_items == n


def test_run_erm_iteration_wall_ms_excludes_error_scan(monkeypatch):
    import time

    from pivotlearn import core

    scan = core.true_error

    def slow_true_error(h, oracle):
        time.sleep(0.3)
        return scan(h, oracle)

    monkeypatch.setattr(core, "true_error", slow_true_error)
    n = 6
    traj = run_erm_iteration(
        h0=rk.Permutation.identity(n), oracle=_ranking_setup(n, 21),
        params=Params(epsilon=0.25, iterations=2, master_seed=21),
        builder=lambda h, orc, prm, rng=None: rk.build_ranking_estimator(h, orc, prm, p=2, rng=rng),
        erm=lambda est, start, rng=None: rk.exact_erm(est, start, rng=rng),
    )
    assert all(r.err is not None for r in traj.rows)
    assert all(0.0 < r.wall_ms < 300.0 for r in traj.rows[1:])


def test_run_erm_iteration_deterministic():
    n = 6

    def build(h, orc, prm, rng=None):
        return rk.build_ranking_estimator(h, orc, prm, p=2, rng=rng)

    def erm(est, start, rng=None):
        return rk.exact_erm(est, start, rng=rng)

    runs = []
    for _ in range(2):
        oracle = _ranking_setup(n, 22)
        traj = run_erm_iteration(
            h0=rk.Permutation.identity(n), oracle=oracle,
            params=Params(epsilon=0.25, iterations=3, master_seed=22),
            builder=build, erm=erm,
        )
        runs.append([(r.err, r.distinct_queries, r.cumulative_queries) for r in traj.rows])
    assert runs[0] == runs[1]


def test_run_erm_iteration_budget_exhaustion():
    # unbudgeted, this run labels 25 distinct pairs in iteration 1 and 3 more
    # in iteration 2, so a budget of 26 admits the first batch only
    n = 8
    oracle = _ranking_setup(n, 23, budget=26)
    params = Params(epsilon=0.2, iterations=4, master_seed=23)
    traj = run_erm_iteration(
        h0=rk.Permutation.identity(n), oracle=oracle, params=params,
        builder=lambda h, orc, prm, rng=None: rk.build_ranking_estimator(h, orc, prm, p=2, rng=rng),
        erm=lambda est, start, rng=None: rk.exact_erm(est, start, rng=rng),
    )
    assert traj.status == "budget_exhausted"
    assert [r.iteration for r in traj.rows] == [0, 1]  # keeps the rows it managed to finish
    assert all(r.err is None for r in traj.rows)  # a budgeted oracle records no errors
    spent = sum(r.distinct_queries for r in traj.rows)
    assert spent == oracle.counters.distinct_labeled == traj.rows[-1].cumulative_queries == 25
    assert spent <= oracle.budget


def test_run_erm_iteration_wraps_erm_failure():
    n = 5
    oracle = _ranking_setup(n, 24)

    calls = []

    def bad_erm(est, start, rng=None):
        calls.append(start)
        if len(calls) == 2:
            raise RuntimeError("solver blew up")
        return rk.exact_erm(est, start, rng=rng)

    with pytest.raises(ErmFailedError) as exc:
        run_erm_iteration(
            h0=rk.Permutation.identity(n), oracle=oracle,
            params=Params(epsilon=0.2, iterations=3, master_seed=24),
            builder=lambda h, orc, prm, rng=None: rk.build_ranking_estimator(h, orc, prm, p=2, rng=rng),
            erm=bad_erm,
        )
    traj = exc.value.trajectory
    assert traj.status == "erm_failed"
    assert [r.iteration for r in traj.rows] == [0, 1]  # partial trajectory attached
    # the errors were filled in before the raise
    assert [r.err for r in traj.rows] == [true_error(r.hypothesis, oracle) for r in traj.rows]


def test_run_erm_iteration_keeps_one_estimator_alive():
    """Iteration i's estimator is freed (by refcount) before iteration i+1's build."""
    import weakref

    n = 40
    refs = []

    def builder(h, orc, prm, rng=None):
        assert all(ref() is None for ref in refs)
        est = rk.build_ranking_estimator(h, orc, prm, p=3, rng=rng)
        refs.append(weakref.ref(est))
        return est

    traj = run_erm_iteration(
        h0=rk.Permutation.identity(n), oracle=_ranking_setup(n, 27, eta=0.2),
        params=Params(epsilon=0.25, iterations=4, master_seed=27), builder=builder,
        erm=lambda est, start, rng=None: rk.local_search_erm(est, start, restarts=1, rng=rng),
    )
    assert len(refs) == 4 and all(ref() is None for ref in refs)
    assert all(r.estimator_value is not None for r in traj.rows[1:])


def _reference_erm_loop(h0, oracle, params, builder, erm):
    """The iteration with one true_error scan per row, right after its ERM step."""
    rows = [(0, h0, true_error(h0, oracle), None, 0, oracle.counters.distinct_labeled)]
    h = h0
    for i in range(1, params.iterations + 1):
        before = oracle.counters.distinct_labeled
        est = builder(h, oracle, params, rng=derive_rng(params.master_seed, "build", i))
        h = erm(est, h, rng=derive_rng(params.master_seed, "erm", i))
        spent = oracle.counters.distinct_labeled - before
        rows.append((i, h, true_error(h, oracle), est.evaluate(h), spent,
                     oracle.counters.distinct_labeled))
    return rows


@pytest.mark.parametrize("task", ["ranking", "clustering"])
def test_run_erm_iteration_matches_per_row_scans(task):
    n, seed = 7, 26
    params = Params(epsilon=0.25, iterations=3, master_seed=seed)
    if task == "ranking":
        h0 = rk.Permutation.identity(n)
        setup = lambda: _ranking_setup(n, seed, eta=0.2)  # noqa: E731
        builder = lambda h, orc, prm, rng=None: rk.build_ranking_estimator(h, orc, prm, p=2, rng=rng)  # noqa: E731
        erm = rk.exact_erm
    else:
        h0 = clu.Clustering(np.ones(n, dtype=np.int64), 3)
        truth = clu.random_clustering(n, 3, derive_rng(seed, "t"))
        setup = lambda: make_clustering_oracle(  # noqa: E731
            truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=seed)
        builder = lambda h, orc, prm, rng=None: clu.build_clustering_estimator(h, orc, prm, q=2, rng=rng)  # noqa: E731
        erm = clu.exact_erm
    ref_oracle, oracle = setup(), setup()
    ref = _reference_erm_loop(h0, ref_oracle, params, builder, erm)
    traj = run_erm_iteration(h0, oracle, params, builder, erm)
    got = [(r.iteration, r.hypothesis, r.err, r.estimator_value, r.distinct_queries,
            r.cumulative_queries) for r in traj.rows]
    assert [(row[0],) + row[2:] for row in got] == [(row[0],) + row[2:] for row in ref]
    assert [distance(a[1], b[1]) for a, b in zip(got, ref)] == [0.0] * len(ref)
    assert oracle.counters == ref_oracle.counters
    assert oracle.counters.verification_reads == len(ref) * n * (n - 1)


def test_budget_error_propagates_from_oracle():
    oracle = _ranking_setup(6, 25, budget=3)
    with pytest.raises(BudgetExceededError):
        oracle.query_many(np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]))


@pytest.mark.parametrize("task", ["ranking", "clustering", "generic", "geometric"])
def test_exact_erm_first_minimizer_tie_break(task):
    """With an empty sample every hypothesis ties at 0; the first row wins."""
    empty = dict(
        us=np.array([], dtype=np.int64), labels=np.array([], dtype=np.uint8),
        weight_num=np.array([], dtype=np.int64), weight_denom=1,
        pivot_costs=np.array([], dtype=np.uint8),
    )
    if task == "generic":
        cls = gen.thresholds_class(6)
        est = RegretEstimator(cls.labels[3], vs=None, measure_count=6, n_items=6, **empty)
        assert gen.class_argmin(cls, est) == (0, 0.0)
        return
    pair = dict(vs=np.array([], dtype=np.int64), **empty)
    if task == "ranking":
        # 9! rows span several enumeration blocks, so the tie crosses blocks
        pivot = rk.Permutation(np.arange(9, 0, -1))
        est = RegretEstimator(pivot, measure_count=72, n_items=9, **pair)
        assert rk.exact_erm(est).rank.tolist() == list(range(1, 10))
    elif task == "clustering":
        pivot = clu.Clustering([1, 2, 3, 1, 2], 3)
        est = RegretEstimator(pivot, measure_count=20, n_items=5, **pair)
        assert clu.exact_erm(est).assign.tolist() == [1] * 5
    else:
        feats = geo.random_features(6, 2, derive_rng(3, "tie"))
        orders, _ = geo.enumerate_orders_2d(feats)
        est = RegretEstimator(orders[-1], measure_count=30, n_items=6, **pair)
        assert geo.geometric_erm_2d(est, feats) == orders[0]
