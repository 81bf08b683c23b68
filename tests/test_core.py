import importlib
import pkgutil
import sys
from dataclasses import replace
from types import SimpleNamespace

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
from pivotlearn.core import MAX_SAMPLE_SIZE, ParamError, all_pairs, sample_size
from pivotlearn.oracles import load_oracle, save_oracle
from pivotlearn.seeding import LazyRng, derive_rng
from test_clustering import _reference_cost


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
    us, vs = all_pairs(4)
    pairs = set(zip(us.tolist(), vs.tolist()))
    assert len(pairs) == 12  # n(n-1) ordered, no self pairs
    assert (0, 0) not in pairs
    assert (1, 3) in pairs and (3, 1) in pairs


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


@pytest.mark.parametrize("name", ["mu", "c1", "c2", "c3"])
def test_params_refuse_a_bool_for_a_number(name):
    # True compares as 1, which these ranges admit, and a record would say true
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        Params(**{"epsilon": 0.2, name: True})


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
    assert replace(p, mu=0.25).resolved_mu(56) == 0.25
    assert replace(p, epsilon=0.3).epsilon == 0.3
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


@pytest.mark.parametrize("sizes, q, offsets, numerators", [
    ([3, 200], 5, np.uint8, np.uint8),
    ([3, 256, 257], 5, np.uint16, np.uint16),
    ([3, 300, 70_000], 5, np.uint32, np.uint32),
    ([2, 3], 300, np.uint8, np.uint16),  # every stratum whole, at numerator q
    ([0, 0], 1, np.uint8, np.uint8),
])
def test_stratum_draws_hold_offsets_and_numerators_narrow(sizes, q, offsets, numerators):
    """Offsets take index_dtype of the largest stratum, numerators the
    narrowest unsigned dtype holding the largest one."""
    count, offset, w_num = core.stratum_draws(np.array(sizes), q, derive_rng(q, "narrow"))
    assert (offset.dtype, w_num.dtype) == (np.dtype(offsets), np.dtype(numerators))
    assert len(offset) == len(w_num) == count.sum()


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
    rng = derive_rng(0, "build")
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        if task == "ranking":
            rk.build_ranking_estimator(perm, oracles[task], params, p=size, rng=rng)
        elif task == "clustering":
            clu.build_clustering_estimator(clus, oracles[task], params, q=size, rng=rng)
        else:
            gen.build_generic_estimator(cls, 5, oracles[task], params, m=size, rng=rng)
    assert oracles[task].counters.raw_calls == 0


# ---------------------------------------------------------------- estimator

def _tiny_estimator():
    """Hand-built 3-sample estimator over a 4-item pair pool."""
    pivot = rk.Permutation([1, 2, 3, 4])
    us = np.array([0, 2, 1])
    vs = np.array([1, 3, 0])
    labels = np.array([1, 0, 0], dtype=np.uint8)
    w = np.array([2, 1, 2], dtype=np.int64)
    return RegretEstimator(pivot=pivot, us=us, vs=vs, labels=labels, weight_num=w, weight_denom=2)


@given(st.integers(2, 12), st.none() | st.integers(1, 4), st.integers(1, 12),
       st.sampled_from([0.0, 0.2]), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_estimator_pivot_evaluates_to_zero(n, k, size, eta, seed):
    assert verify._pivot_zero(n, k, size, eta, seed) is None


def test_estimator_matches_hand_computation():
    est = _tiny_estimator()
    # pivot predicts 1,1,0 on the samples; costs = prediction != label
    assert (est.pivot.pair_values(est.us, est.vs) != est.labels).tolist() == [0, 1, 0]
    h = rk.Permutation([2, 1, 3, 4])  # swaps items 0 and 1
    # pivot costs: pairs (0,1),(2,3),(1,0) labeled 1,0,0 -> pivot predicts 1,1,0
    # pivot disagreement on samples: [0,1,0] -> pivot_int = 0*2+1*1+0*2 = 1
    # h predicts (0,1)->0, (2,3)->1, (1,0)->1 -> costs [1,1,1]
    # h_int = 2+1+2 = 5; value = (5-1)/(12*2)
    assert est.evaluate_int(h) == 4
    assert est.evaluate(h) == 4 / 24
    assert (est._mismatch_int(est.pivot), est.evaluate_int(est.pivot)) == (1, 0)


def test_estimator_scale_property():
    est = _tiny_estimator()
    assert est.scale == 1.0 / (12 * 2)
    assert est.n_samples == 3
    assert est.vs is not None


def test_estimator_rejects_shape_mismatch():
    pivot = rk.Permutation([1, 2, 3, 4])
    with pytest.raises(ValueError):
        RegretEstimator(
            pivot=pivot, us=np.array([0]), vs=np.array([1, 2]),
            labels=np.array([1], dtype=np.uint8),
            weight_num=np.array([1], dtype=np.int64),
            weight_denom=1,
        )


def test_estimator_rejects_self_pairs():
    pivot = rk.Permutation([1, 2, 3, 4])
    with pytest.raises(ValueError):
        RegretEstimator(
            pivot=pivot, us=np.array([2]), vs=np.array([2]),
            labels=np.array([1], dtype=np.uint8),
            weight_num=np.array([1], dtype=np.int64),
            weight_denom=1,
        )



def _pair_sample(n, m, seed):
    """m int64 pairs over n items that include both end ids, 0 and n - 1."""
    rng = derive_rng(seed, "ids", n)
    us = rng.integers(0, n, size=m)
    vs = (us + rng.integers(1, n, size=m)) % n
    us[:2], vs[:2] = [0, n - 1], [n - 1, 0]
    return us, vs, rng


# ids switch dtype at these pool sizes: uint8 up to 256, uint16 up to 65,536, then uint32
_ID_BOUNDARIES = [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]


@pytest.mark.parametrize("n, dtype", _ID_BOUNDARIES)
def test_estimator_ids_narrow_exactly_at_dtype_boundaries(n, dtype):
    """Pair ids over n items and instance ids over a pool of n are held in
    index_dtype of the pool and evaluate as int64 ids do."""
    us, vs, rng = _pair_sample(n, 40, 0)
    w = rng.integers(1, 2**40, size=len(us))
    labels = rng.integers(0, 2, size=len(us)).astype(np.uint8)
    pivot, h = rk.random_permutation(n, rng), rk.random_permutation(n, rng)
    costs = pivot.pair_values(us, vs) ^ labels
    est = RegretEstimator(pivot, us, vs, w, 3, labels)
    assert est.us.dtype == est.vs.dtype == dtype
    want = int(w @ (h.pair_values(us, vs) != labels)) - int(w @ costs)
    assert est.evaluate_int(h) == want
    # indexed mode: instance ids over a pool of n
    row, truth = rng.integers(0, 2, size=n).astype(np.uint8), rng.integers(0, 2, size=n)
    idx = np.concatenate([[0, n - 1], rng.integers(0, n, size=38)])
    est = RegretEstimator(row, idx, None, w, 3, truth[idx])
    assert est.us.dtype == dtype and est.vs is None
    values = rng.integers(0, 2, size=n)
    assert est.evaluate_int(values) == int(w @ (values[idx] != truth[idx])) - int(w @ (row[idx] != truth[idx]))


@pytest.mark.parametrize("us, vs, name", [
    ([-1, 0], [2, 1], "us"), ([0, 7], [2, 1], "us"), ([0, 1], [2, 4], "vs"),
    ([0, 1], [2, -3], "vs"), ([0.0, 1.0], [2, 3], "us"),
])
def test_estimator_refuses_ids_outside_the_pool(us, vs, name):
    """-1 would read as item 3 (or as 65,535 once narrowed); 7 would fail later with an IndexError."""
    with pytest.raises(ValueError, match=name):
        RegretEstimator(rk.Permutation.identity(4), us=us, vs=vs, weight_num=[1, 1],
                        weight_denom=1, labels=[0, 1])


def test_estimator_refuses_an_instance_id_outside_the_pool():
    """Indexed-mode ids range over the pivot's len(pivot) instances."""
    with pytest.raises(ValueError, match="us"):
        RegretEstimator(np.zeros(6, np.uint8), us=[0, 6], vs=None, weight_num=[1, 1],
                        weight_denom=1, labels=[0, 1])
    at_256 = RegretEstimator(np.zeros(257, np.uint8), us=[256], vs=None, weight_num=[1],
                             weight_denom=1, labels=[0])
    assert at_256.us.tolist() == [256] and at_256.us.dtype == np.uint16


@given(st.integers(2, 12), st.integers(0, 30), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_hand_built_estimator_evaluates_its_pivot_to_zero(n, m, pair_mode, seed):
    """The pivot's side of every sample follows from the pivot and the labels,
    so any labels leave the pivot at exactly 0, in both modes."""
    rng = derive_rng(seed, "hand-built")
    w = rng.integers(1, 2**40, size=m)
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    if pair_mode:
        us = rng.integers(0, n, size=m)
        vs = (us + rng.integers(1, n, size=m)) % n
        if rng.integers(2):
            pivot = rk.random_permutation(n, rng)
        else:
            pivot = clu.random_clustering(n, 3, rng)
        est = RegretEstimator(pivot, us, vs, w, int(rng.integers(1, 9)), labels)
        assert est.measure_count == n * (n - 1)
    else:
        pivot = rng.integers(0, 2, size=n).astype(np.uint8)
        est = RegretEstimator(pivot, rng.integers(0, n, size=m), None, w, 3, labels)
        assert est.measure_count == n
    assert est.n_items == n
    assert (est.evaluate_int(pivot), est.evaluate(pivot)) == (0, 0.0)


def test_three_item_example_evaluates_its_pivot_to_zero():
    pivot = rk.Permutation.identity(3)
    est = RegretEstimator(pivot, [0, 1], [1, 2], [1, 1], 1, [1, 0])
    assert (pivot.pair_values(est.us, est.vs) != est.labels).tolist() == [0, 1]
    assert est.evaluate(pivot) == 0.0


@pytest.mark.parametrize("us, vs, weights", [
    ([0, 1], [1, 2], [2**62, 2**62]),
    ([0], [1], np.array([2**63], dtype=np.uint64)),
    ([0, 1], [1, 2], np.array([2**63 - 1, 1], dtype=np.uint64)),
], ids=["int64-pair", "uint64-2**63", "uint64-total"])
def test_estimator_refuses_weights_whose_total_passes_int64(us, vs, weights):
    """Sums over the weights are int64, so a total past 2**63 - 1 is refused:
    two weights of 2**62 would read -2**63 at the pivot and +2**63 at the
    reversed order, where -2**63 is exact."""
    with pytest.raises(ValueError, match=r"total at most 2\*\*63 - 1"):
        RegretEstimator(rk.Permutation.identity(3), us, vs, weights, 1, [0] * len(us))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_estimator_is_exact_at_a_weight_total_of_int64_max(dtype):
    pivot = rk.Permutation.identity(3)
    est = RegretEstimator(pivot, [0, 1], [1, 2], np.array([2**62, 2**62 - 1], dtype), 1, [0, 0])
    assert est.evaluate_int(pivot) == 0
    assert est.evaluate_int(rk.Permutation([3, 2, 1])) == -(2**63 - 1)


@pytest.mark.parametrize("labels, want", [([1, 1], 120_000), ([0, 0], -120_000)])
def test_narrow_weights_sum_exactly_past_their_dtype(labels, want):
    """Weights stay in the dtype they come in, and their sums are int64: a
    plain uint16 @ uint8 product would read 2 x 60000 as 54464."""
    pivot = rk.Permutation.identity(3)
    est = RegretEstimator(pivot, [0, 1], [1, 2], np.array([60_000] * 2, np.uint16), 1, labels)
    assert est.weight_num.dtype == np.uint16
    assert est.evaluate_int(rk.Permutation([3, 2, 1])) == want


@pytest.mark.parametrize("build, name", [
    (lambda: RegretEstimator(rk.Permutation.identity(3), [0, 1], [1, 2], [1.5, 2.7], 1, [1, 0]),
     "weight_num"),
    (lambda: RegretEstimator(rk.Permutation.identity(3), [0, 1], [1, 2], [1, 1], 2.5, [1, 0]),
     "weight_denom"),
    (lambda: RegretEstimator(rk.Permutation.identity(3), [0, 1], [1, 2], [1, 1], True, [1, 0]),
     "weight_denom"),
    (lambda: RegretEstimator(rk.Permutation.identity(3), [0, 1], [1, 2], [1, 1], 0, [1, 0]),
     "weight_denom"),
    (lambda: RegretEstimator(rk.Permutation.identity(3), [0, 1], [1, 2], [1, 1], 1, [1, 2]),
     "labels"),
    (lambda: RegretEstimator(np.zeros(4, np.uint8), [0, 1], None, [1, 1], 1, [0.5, 1]), "labels"),
    (lambda: gen.FiniteClass([[0.5, 1], [1, 0]]), "labels"),
    (lambda: gen.FiniteClass([[1.7, 0], [0, 1]]), "labels"),
    (lambda: InstanceOracle([0, 1, 2]), "labels"),
], ids=["float-weights", "float-denom", "bool-denom", "zero-denom", "label-2", "label-half",
        "class-half", "class-1.7", "instance-label-2"])
def test_estimator_and_class_refuse_what_they_would_truncate(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def _true_among_int_reads():
    perm = rk.Permutation.identity(4)
    oracle = make_ranking_oracle(perm, NoiseSpec(kind="none"), seed=0)
    instances = InstanceOracle(np.array([0, 1, 1, 0], np.uint8))
    return {
        "label-query": lambda: oracle.query_many([2, True], [1, 0]),
        "verification-flat": lambda: oracle.verification_labels([2, True], [1, 0]),
        "verification-outer": lambda: oracle.verification_labels([[0], [True]], [[2, 3]]),
        "instance-query": lambda: instances.query_many([True, 2]),
        "estimator-us": lambda: RegretEstimator(perm, [0, True], [2, 3], [1, 1], 1, [1, 0]),
        "estimator-vs": lambda: RegretEstimator(perm, [0, 2], [True, 3], [1, 1], 1, [1, 0]),
        "estimator-weights": lambda: RegretEstimator(perm, [0, 2], [1, 3], [2, True], 1, [1, 0]),
        "indexed-us": lambda: RegretEstimator(np.zeros(4, np.uint8), [0, True], None, [1, 1], 1,
                                              [1, 0]),
        "rank": lambda: rk.Permutation([1, True, 3]),
        "order": lambda: rk.Permutation.from_order([0, True, 2]),
        "assign": lambda: clu.Clustering([2, True, 1], 2),
    }


@pytest.mark.parametrize("name", list(_true_among_int_reads()))
def test_a_true_among_int_ids_is_refused_not_read_as_1(name):
    """A Python list upcasts True to 1; every id and weight is refused element by element."""
    with pytest.raises(ValueError, match="integers"):
        _true_among_int_reads()[name]()


@pytest.mark.parametrize("make, values", [
    (rk.Permutation, [[1, 2], [3, 4]]),
    (rk.Permutation, np.array([[2, 1]])),
    (rk.Permutation.from_order, [[0, 1, 2]]),
    (rk.Permutation.from_order, np.int64(0)),
    (clu.Clustering, [[1, 2], [2, 1]]),
    (clu.Clustering, np.array(3)),
], ids=["rank-nested", "rank-2d", "order-nested", "order-scalar", "assign-nested",
        "assign-0d"])
def test_permutations_and_clusterings_refuse_what_is_not_1d(make, values):
    with pytest.raises(ValueError, match="1-d"):
        make(values)


def _merged_pairs(samples, oriented):
    """Per-sample dict merge: {(lo, hi): summed weight of the higher id's entry}."""
    sums = {}
    for u, v, y, w in zip(samples.us.tolist(), samples.vs.tolist(), samples.labels.tolist(),
                          samples.weight_num.tolist()):
        lo, hi = min(u, v), max(u, v)
        bit = y ^ (oriented and u > v)  # "lo before hi" or "same cluster"
        sums[lo, hi] = sums.get((lo, hi), 0) + (-w if bit else w)
    return {pair: w for pair, w in sums.items() if w}


@pytest.mark.parametrize("oriented", [True, False])
@given(st.integers(2, 300), st.integers(2, 10), st.integers(0, 40), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_pair_rows_match_a_per_sample_merge(oriented, n, active, m, seed):
    """Row u is u at weight 0, then its pairs as the lower id, then as the
    higher id, each in ascending partner order.  Samples repeat, come in both
    orientations, and may weigh 0; pairs whose weights cancel are dropped."""
    rng = derive_rng(seed, "pair-rows")
    ids = rng.choice(n, size=min(active, n), replace=False)
    pick = rng.integers(0, len(ids), size=m)
    us, vs = ids[pick], ids[(pick + rng.integers(1, len(ids), size=m)) % len(ids)]
    labels = rng.integers(0, 2, size=m).astype(np.uint8)
    weights = rng.integers(0, 3, size=m)
    mirror = rng.integers(0, 2, size=m).astype(bool)  # reversed, saying the opposite: it cancels
    us, vs = np.concatenate([us, vs[mirror]]), np.concatenate([vs, us[mirror]])
    labels = np.concatenate([labels, labels[mirror] ^ (not oriented)])
    weights = np.concatenate([weights, weights[mirror]])
    samples = SimpleNamespace(n_items=n, us=us.astype(core.index_dtype(n)),
                              vs=vs.astype(core.index_dtype(n)), labels=labels, weight_num=weights)
    partners, weights, bounds = core.pair_rows(samples, oriented)
    assert (partners.dtype, weights.dtype) == (np.int64, np.int32)  # weights far under the bound
    _assert_rows_are_the_merge(samples, oriented, partners, weights, bounds)


def _assert_rows_are_the_merge(samples, oriented, partners, weights, bounds):
    """Row u is u at weight 0, then the merged pairs with u as the lower id,
    then as the higher id, each in ascending partner order."""
    n = samples.n_items
    merged = _merged_pairs(samples, oriented)
    want = [[(u, 0)] for u in range(n)]
    for (lo, hi), w in sorted(merged.items()):
        want[lo].append((hi, -w if oriented else w))
    for (lo, hi), w in sorted(merged.items(), key=lambda item: item[0][::-1]):
        want[hi].append((lo, w))
    assert bounds[0] == 0 and len(bounds) == n + 1
    got = [list(zip(partners[a:b].tolist(), weights[a:b].tolist()))
           for a, b in zip(bounds, bounds[1:])]
    assert got == want


_ROW_LIMIT = 2**31 // 8  # the per-item total sample weight at which rows widen to int64


@pytest.mark.parametrize("oriented", [True, False])
@given(st.integers(3, 30), st.integers(0, 30), st.integers(-3, 2), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_row_weights_are_int32_exactly_when_the_bound_allows(oriented, n, m, edge, seed):
    """One heavy sample on pair (0, 1) puts the largest per-item total sample
    weight at 2**28 + edge, on either side of where eight times it reaches
    2**31.  Rows are int32 exactly below that, hold the per-sample int64
    merge either way, and read as int64 rows would: the climb makes the same
    moves on them widened, and the gain table equals its per-sample
    reference."""
    rng = derive_rng(seed, "row-dtype")
    us = rng.integers(0, n, size=m)
    vs = (us + rng.integers(1, n, size=m)) % n
    weights = rng.integers(1, 1000, size=m)
    light = [int(weights[(us == item) | (vs == item)].sum()) for item in (0, 1)]
    us, vs = np.append(us, 0), np.append(vs, 1)
    weights = np.append(weights, _ROW_LIMIT + edge - max(light))
    labels = rng.integers(0, 2, size=m + 1).astype(np.uint8)
    k = 3
    pivot = rk.random_permutation(n, rng) if oriented else clu.random_clustering(n, k, rng)
    est = RegretEstimator(pivot, us, vs, weights, 7, labels)
    partners, row_weights, bounds = core.pair_rows(est, oriented)
    assert row_weights.dtype == (np.int32 if edge < 0 else np.int64)
    _assert_rows_are_the_merge(est, oriented, partners, row_weights, bounds)
    if oriented:
        start = rk.random_permutation(n, rng)
        found = rk._climb(start, partners, row_weights, bounds)
        assert found == rk._climb(start, partners, row_weights.astype(np.int64), bounds)
    else:
        table = clu._GainTable(est, pivot.assign.copy(), k)
        np.testing.assert_array_equal(table.cost, _reference_cost(est, pivot.assign, k))

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
    # two kinds are not compared, even on one pool
    with pytest.raises(PoolMismatchError):
        distance(rk.Permutation([1, 2]), clu.Clustering([1, 1], 1))


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
    us, vs = all_pairs(n)
    mismatches = np.count_nonzero(oracle.verification_labels(us, vs) != h.pair_values(us, vs))
    ref = float(mismatches) / (n * (n - 1))
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


def test_true_error_scan_peak_is_under_three_mib():
    """Outer blocks hash labels without per-pair id arrays or gathers by them;
    a scan of 3 hypotheses at n = 2000 peaks well under 3 MiB."""
    import tracemalloc

    oracle, hs = _scan_fixture("ranking", 2000, 35)
    tracemalloc.start()
    try:
        true_error(hs, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_true_error_scan_tail_ids_are_narrow():
    """The scan's last triangle, up to 2**16 pairs, holds its ids in
    index_dtype(n): two hypotheses at n = 3200 peak under 1 MiB traced,
    where int64 tail ids took about 1.4 MiB."""
    import tracemalloc

    n = 3200
    oracle, hs = _scan_fixture("ranking", n, 36)
    *_, (us, vs) = core._unordered_pair_blocks(n)
    assert us.dtype == vs.dtype == core.index_dtype(n) and us.size > 2**15
    tracemalloc.start()
    try:
        true_error(hs[:2], oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("mode", ["ranking", "clustering"])
@pytest.mark.parametrize("cap", [7, 64])
@pytest.mark.parametrize("n", [2, 3, 40, 257])
def test_true_error_scan_blocks_stay_under_the_cap(mode, cap, n, monkeypatch):
    """With the block cap at a few pairs, the scan still reads each pair u < v
    once, in reads of at most cap pairs, and charges a full scan per hypothesis."""
    oracle, hs = _scan_fixture(mode, n, 34)
    us, vs = all_pairs(n)
    labels = oracle.verification_labels(us, vs)
    ref = [float(np.count_nonzero(labels != h.pair_values(us, vs))) / (n * (n - 1))
           for h in hs]
    sizes, keys = [], []
    read = oracle.verification_labels

    def spy(u, v):
        out = read(u, v)
        sizes.append(out.size)
        keys.append((np.asarray(u, dtype=np.int64) * n + np.asarray(v)).ravel())
        assert (np.asarray(u) < np.asarray(v)).all()
        return out

    monkeypatch.setattr(oracle, "verification_labels", spy)
    monkeypatch.setattr(core, "_SCAN_BLOCK_PAIRS", cap)
    reads = oracle.counters.verification_reads
    assert true_error(hs, oracle) == ref
    assert oracle.counters.verification_reads - reads == len(hs) * n * (n - 1)
    assert max(sizes) <= max(cap, 1)
    lo, hi = np.triu_indices(n, 1)
    np.testing.assert_array_equal(np.sort(np.concatenate(keys)), lo * n + hi)


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


def test_hypotheses_of_the_other_kind_are_refused():
    """A clustering scored on ranking labels, or the reverse, is refused before any read."""
    n = 6
    truth = rk.random_permutation(n, derive_rng(0, "t"))
    c = clu.random_clustering(n, 2, derive_rng(0, "c"))
    identity = rk.Permutation.identity(n)
    ranking_oracle = make_ranking_oracle(truth, NoiseSpec(), seed=0)
    clustering_oracle = make_clustering_oracle(c, NoiseSpec(), seed=0)
    est = rk.build_ranking_estimator(identity, ranking_oracle, Params(epsilon=0.2), p=2,
                                     rng=derive_rng(0, "build"))
    calls = [
        lambda: true_error(c, ranking_oracle),
        lambda: true_error([identity, c], ranking_oracle),
        lambda: regret(identity, c, ranking_oracle),
        lambda: true_error(identity, clustering_oracle),
        lambda: est.evaluate(c),
        lambda: est.evaluate_int(c),
    ]
    for call in calls:
        with pytest.raises(PoolMismatchError):
            call()
    assert ranking_oracle.counters.verification_reads == 0
    assert clustering_oracle.counters.verification_reads == 0


@pytest.mark.parametrize("h", [rk.Permutation([3, 1, 2, 4]), clu.Clustering([1, 2, 1, 2], 2)])
def test_pair_values_refuse_bool_ids(h):
    """take would read True and False as items 1 and 0."""
    ids, flags = np.array([0, 1]), np.array([True, False])
    for us, vs in ((flags, ~flags), (flags, ids[::-1]), (ids, [False, True])):
        with pytest.raises(ValueError, match="bools"):
            h.pair_values(us, vs)
    assert h.pair_values(ids, ids[::-1]).tolist() == h.pair_values([0, 1], [1, 0]).tolist()


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


def test_class_loop_stops_at_the_budget_with_the_errors_of_its_rows():
    # unbudgeted, iteration 1 labels 10 instances and iteration 2 one more;
    # the class table's errors need no label, so both kept rows carry them
    cls = gen.thresholds_class(12)
    errors = (cls.labels != cls.labels[7]).mean(axis=1)
    params = Params(epsilon=0.3, iterations=4, master_seed=2)
    traj = core._erm_loop(
        0, InstanceOracle(cls.labels[7], budget=10), params,
        lambda h, orc, prm, rng=None: gen.build_generic_estimator(cls, h, orc, prm, m=3, rng=rng),
        lambda est, start, rng=None: gen.class_argmin(cls, est),
        lambda h: cls.labels[h], lambda hs: errors[hs].tolist(),
    )
    assert traj.status == "budget_exhausted"
    assert [(r.iteration, r.hypothesis, r.distinct_queries) for r in traj.rows] == [
        (0, 0, 0), (1, 7, 10)]
    assert [r.err for r in traj.rows] == [errors[0], 0.0]


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


@pytest.mark.parametrize("task", ["ranking", "clustering"])
def test_local_search_reads_its_stream_only_past_one_restart(task):
    """run_erm_iteration hands the search a LazyRng: one restart never derives
    it, and three read exactly the stream derive_rng would give."""
    n, seed = 30, 8
    noise = NoiseSpec(kind="uniform_flip", eta=0.2)
    if task == "ranking":
        truth, start = (rk.random_permutation(n, derive_rng(seed, tag)) for tag in "tp")
        est = rk.build_ranking_estimator(start, make_ranking_oracle(truth, noise, seed=seed),
                                         Params(epsilon=0.3), p=2, rng=derive_rng(seed, "b"))
        search = rk.local_search_erm
    else:
        truth, start = (clu.random_clustering(n, 3, derive_rng(seed, tag)) for tag in "tp")
        est = clu.build_clustering_estimator(start, make_clustering_oracle(truth, noise, seed=seed),
                                             Params(epsilon=0.3), q=2, rng=derive_rng(seed, "b"))
        search = clu.local_search_erm
    lazy = LazyRng(seed, "erm", 1)
    search(est, start, restarts=1, rng=lazy)
    assert lazy._rng is None
    found = search(est, start, restarts=3, rng=LazyRng(seed, "erm", 1))
    assert found == search(est, start, restarts=3, rng=derive_rng(seed, "erm", 1))


def _spied_search(task):
    """(estimator, its local search, a random start, calls) of a small run.

    est.evaluate_int is wrapped to append each (hypothesis, value) it
    returns to calls.
    """
    n, seed = 30, 8
    noise = NoiseSpec(kind="uniform_flip", eta=0.2)
    if task == "ranking":
        truth, pivot, other = (rk.random_permutation(n, derive_rng(seed, tag)) for tag in "tpo")
        est = rk.build_ranking_estimator(pivot, make_ranking_oracle(truth, noise, seed=seed),
                                         Params(epsilon=0.3), p=2, rng=derive_rng(seed, "b"))
        search = rk.local_search_erm
    else:
        truth, pivot, other = (clu.random_clustering(n, 3, derive_rng(seed, tag)) for tag in "tpo")
        est = clu.build_clustering_estimator(pivot, make_clustering_oracle(truth, noise, seed=seed),
                                             Params(epsilon=0.3), q=2, rng=derive_rng(seed, "b"))
        search = clu.local_search_erm
    calls = []
    est.evaluate_int = lambda h, f=est.evaluate_int: calls.append((h, f(h))) or calls[-1][1]
    return est, search, other, calls


@pytest.mark.parametrize("task", ["ranking", "clustering"])
def test_one_restart_search_scores_nothing(task):
    """One restart returns its optimum unscored, from the pivot and from a random start."""
    est, search, other, calls = _spied_search(task)
    for start in (est.pivot, other):
        search(est, start, restarts=1)
    assert calls == []


@pytest.mark.parametrize("task", ["ranking", "clustering"])
@pytest.mark.parametrize("restarts", [2, 5])
def test_restarts_score_each_optimum_once(task, restarts):
    """k > 1 restarts score k optima, once each, and return the first of least value."""
    est, search, _, calls = _spied_search(task)
    found = search(est, est.pivot, restarts=restarts, rng=derive_rng(8, "ls"))
    assert len(calls) == restarts
    values = [value for _, value in calls]
    assert found is calls[values.index(min(values))][0]


def test_best_of_restarts_takes_the_first_least_optimum():
    """Optima scored 3, 1, 1, 2 give the second; one restart scores nothing."""
    values = {"a": 3, "b": 1, "c": 1, "d": 2}
    calls = []
    est = SimpleNamespace(evaluate_int=lambda h: calls.append(h) or values[h])
    starts = iter("bcd")
    climb = lambda h: h  # noqa: E731  every start is its own optimum
    assert core.best_of_restarts(est, "a", 4, None, lambda rng: next(starts), climb) == "b"
    assert calls == list("abcd")
    assert core.best_of_restarts(est, "c", 1, None, None, climb) == "c"
    assert calls == list("abcd")


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
    )
    if task == "generic":
        cls = gen.thresholds_class(6)
        est = RegretEstimator(cls.labels[3], vs=None, **empty)
        assert gen.class_argmin(cls, est) == 0
        return
    pair = dict(vs=np.array([], dtype=np.int64), **empty)
    if task == "ranking":
        # 9! rows span several enumeration blocks, so the tie crosses blocks
        pivot = rk.Permutation(np.arange(9, 0, -1))
        est = RegretEstimator(pivot, **pair)
        assert rk.exact_erm(est).rank.tolist() == list(range(1, 10))
    elif task == "clustering":
        pivot = clu.Clustering([1, 2, 3, 1, 2], 3)
        est = RegretEstimator(pivot, **pair)
        assert clu.exact_erm(est).assign.tolist() == [1] * 5
    else:
        feats = geo.random_features(6, derive_rng(3, "tie"))
        orders, _ = geo.enumerate_orders_2d(feats)
        est = RegretEstimator(orders[-1], **pair)
        assert geo.geometric_erm_2d(est, feats) == orders[0]


@pytest.mark.parametrize("pivot", [rk.Permutation([3, 1, 4, 2]), clu.Clustering([1, 2, 1, 2], 2)])
def test_estimator_refuses_a_self_pair_among_distinct_pairs(pivot):
    """Every pair kernel and the gain table rely on this refusal: none checks for u == v."""
    with pytest.raises(ValueError, match="self pairs are outside the pool"):
        RegretEstimator(pivot, np.array([0, 1, 3]), np.array([1, 3, 3]), np.array([2, 2, 2]),
                        2, np.array([1, 0, 1], dtype=np.uint8))


@pytest.mark.parametrize("mu", [5e-324, 1e-310, np.nextafter(1 / sys.float_info.max, 0)])
def test_params_refuse_a_mu_whose_reciprocal_is_not_finite(mu):
    with pytest.raises(ParamError) as exc:
        Params(epsilon=0.2, mu=mu)
    assert exc.value.field == "mu"


@pytest.mark.parametrize("mu", [1e-308, 2.3e-308, np.nextafter(1 / sys.float_info.max, 1)])
def test_params_keep_a_tiny_mu_whose_reciprocal_is_finite(mu):
    assert Params(epsilon=0.2, mu=mu).mu == mu


def _pairs_once(n, cap):
    """Keys of every pair the scan yields, each block checked against the cap."""
    keys = []
    for us, vs in core._unordered_pair_blocks(n):
        us, vs = np.broadcast_arrays(us, vs)
        assert 0 < us.size <= cap and (us < vs).all()
        keys.append((us.astype(np.int64) * n + vs).ravel())  # ids may be narrower than keys
    keys = np.sort(np.concatenate(keys))
    lo, hi = np.triu_indices(n, 1)
    np.testing.assert_array_equal(keys, lo * n + hi)  # every pair, none twice


@pytest.mark.parametrize("n", [361, 362, 363, 364])
def test_scan_blocks_yield_every_pair_once_within_the_cap(n):
    _pairs_once(n, core._SCAN_BLOCK_PAIRS)
    blocks = list(core._unordered_pair_blocks(n))
    if n * (n - 1) // 2 <= core._SCAN_BLOCK_PAIRS:  # the whole triangle as one 1-d batch
        assert len(blocks) == 1 and blocks[0][0].ndim == 1


@pytest.mark.parametrize("n, cap", [(20, 8), (20, 19), (30, 40), (9, 1), (2, 1)])
def test_scan_blocks_chunk_rows_longer_than_the_cap(monkeypatch, n, cap):
    monkeypatch.setattr(core, "_SCAN_BLOCK_PAIRS", cap)
    _pairs_once(n, cap)
    if n - 1 > cap:  # the first row is longer than a block: it goes in column chunks
        us, vs = next(core._unordered_pair_blocks(n))
        assert us.shape == (1, 1) and vs.shape == (1, cap)
