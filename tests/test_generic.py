import hashlib
import math
from itertools import combinations

import numpy as np
import pytest

from pivotlearn import InstanceOracle, Params, PoolMismatchError
from pivotlearn import generic as gen
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.seeding import derive_rng


def _brute_theta(cls, pivot, r_floor):
    """Reference: scan every realized radius directly."""
    dists = cls.distances(pivot)
    best = 0.0
    for r in np.unique(dists):
        r_eff = max(float(r), r_floor)
        members = np.flatnonzero(dists <= r + 1e-15)
        cols = cls.labels[members]
        dis = np.mean(np.any(cols != cols[0], axis=0))
        best = max(best, dis / r_eff)
    return best


# ------------------------------------------------------------------ classes

def test_finite_class_validation():
    gen.FiniteClass(np.array([[0, 1], [1, 1]], dtype=np.uint8))
    with pytest.raises(ValueError):
        gen.FiniteClass(np.array([[0, 1], [0, 1]], dtype=np.uint8))  # duplicates
    with pytest.raises(ValueError):
        gen.FiniteClass(np.array([[0, 2]], dtype=np.uint8))  # not binary


def test_thresholds_class_shape():
    cls = gen.thresholds_class(4)
    assert len(cls) == 5
    assert cls.pool_size == 4
    # monotone step rows, one per threshold position
    assert cls.labels.tolist() == [
        [1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]]


def test_intervals_class_shape():
    cls = gen.intervals_class(4)
    # empty + all [a, b]: 1 + 10
    assert len(cls) == 11
    ones = cls.labels.sum(axis=1)
    assert ones.min() == 0
    # every nonempty row is contiguous
    for row in cls.labels:
        on = np.flatnonzero(row)
        if on.size:
            assert np.all(np.diff(on) == 1)


@pytest.mark.parametrize("pool", range(2, 10))
def test_intervals_class_matches_the_double_loop(pool):
    """Reference: the empty row, then [a, b] for a ascending and b ascending within a."""
    x = np.arange(pool)
    rows = [np.zeros(pool, dtype=np.uint8)]
    for a in range(pool):
        for b in range(a, pool):
            rows.append(((x >= a) & (x <= b)).astype(np.uint8))
    cls = gen.intervals_class(pool)
    assert cls.labels.dtype == np.uint8
    assert np.array_equal(cls.labels, np.stack(rows))


def test_distances_hamming():
    cls = gen.thresholds_class(10)
    d = cls.distances(0)
    assert d[0] == 0.0
    assert d[5] == pytest.approx(0.5)
    assert d[10] == pytest.approx(1.0)
    assert np.array_equal(cls.distance_counts(3),
                          (cls.labels != cls.labels[3]).sum(axis=1))


# ------------------------------------------------------- balls and regions

def test_ball_radius_zero_and_one():
    cls = gen.thresholds_class(10)
    assert gen.ball(cls, 4, 0.0).tolist() == [4]
    assert len(gen.ball(cls, 4, 1.0)) == len(cls)
    assert gen.disagreement_region(cls, np.array([4])).size == 0


@pytest.mark.parametrize("pivot", [-1, "len", 2.5, True])
def test_pivot_indices_are_checked(pivot):
    """A pivot is an integer row index in 0..len - 1: no wrap, truncation or bool."""
    cls = gen.thresholds_class(10)
    pivot = len(cls) if pivot == "len" else pivot
    gen.disagreement_coefficient(cls, 1, 0.1)  # a cached row-1 value True must not reach
    oracle = InstanceOracle(cls.labels[0])
    params, rng = Params(epsilon=0.2, mu=0.1), derive_rng(0, "build")
    calls = [
        lambda: gen.ball(cls, pivot, 0.1),
        lambda: cls.distances(pivot),
        lambda: gen.disagreement_coefficient(cls, pivot, 0.1),
        lambda: gen.annulus_plan(cls, pivot, 0.5),
        lambda: gen.class_sample_size(cls, pivot, params),
        lambda: gen.build_generic_estimator(cls, pivot, oracle, params, rng=rng),
        lambda: gen.build_generic_estimator(cls, pivot, oracle, params, m=3, rng=rng),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="pivot must be an integer"):
            call()
    assert oracle.counters.raw_calls == 0


def test_ball_thresholds_straddle():
    """Radius 0.2 on a 10-point pool keeps thresholds within 2 positions."""
    cls = gen.thresholds_class(10)
    b = gen.ball(cls, 5, 0.2)
    assert sorted(b.tolist()) == [3, 4, 5, 6, 7]
    region = gen.disagreement_region(cls, b)
    # straddled points sit between the extreme thresholds
    assert sorted(region.tolist()) == [3, 4, 5, 6]
    assert gen.disagreement_measure(cls, b) == pytest.approx(0.4)


def test_disagreement_region_brute_force():
    cls = gen.intervals_class(8)
    rng = derive_rng(1, "dis")
    idx = rng.choice(len(cls), size=6, replace=False)
    cols = cls.labels[idx]
    want = np.flatnonzero(np.any(cols != cols[0], axis=0))
    assert np.array_equal(gen.disagreement_region(cls, idx), want)


# -------------------------------------------------------------------- theta

def test_theta_singleton_is_zero():
    cls = gen.FiniteClass(np.array([[0, 1, 0]], dtype=np.uint8))
    assert gen.disagreement_coefficient(cls, 0, 1 / 3) == 0.0


def test_theta_thresholds_bounded():
    cls = gen.thresholds_class(40)
    for pivot in (0, 10, 20, 40):
        theta = gen.disagreement_coefficient(cls, pivot, 1 / 40)
        assert theta <= 2 + 0.2, pivot


def test_theta_matches_brute_scan():
    for cls in (gen.thresholds_class(12), gen.intervals_class(7)):
        for pivot in range(0, len(cls), 3):
            got = gen.disagreement_coefficient(cls, pivot, 1 / cls.pool_size)
            want = _brute_theta(cls, pivot, 1 / cls.pool_size)
            assert got == pytest.approx(want), (cls.pool_size, pivot)


def _loop_theta(cls, pivot_idx, r_floor):
    """Reference: the per-radius loop _disagreement_coefficient replaced."""
    sorted_counts, split = gen._nested_balls(cls, pivot_idx)
    pool = cls.pool_size
    best = 0.0
    for end in np.flatnonzero(np.diff(sorted_counts, append=np.iinfo(np.int64).max) > 0):
        r = max(sorted_counts[end] / pool, r_floor)
        measure = int(np.bitwise_count(split[end]).sum()) / pool
        best = max(best, measure / r)
    return best


@pytest.mark.parametrize("family", ["thresholds", "intervals", "permutations"])
@pytest.mark.parametrize("floor_atoms", [1, 3, 17, 10**6])
def test_theta_equals_loop_reference_bit_for_bit(family, floor_atoms):
    if family == "permutations":
        cls = rk.enumerate_sn_class(5)
    else:
        cls = getattr(gen, f"{family}_class")(14)
    r_floor = min(1.0, floor_atoms / cls.pool_size)
    for pivot in range(0, len(cls), max(1, len(cls) // 12)):
        got = gen._disagreement_coefficient(cls, pivot, r_floor)
        assert type(got) is float
        assert got == _loop_theta(cls, pivot, r_floor), (pivot, r_floor)


def test_uniform_theta_takes_max():
    cls = gen.intervals_class(9)
    theta, pivot = gen.uniform_disagreement_coefficient(cls, 1 / 9)
    per = [gen.disagreement_coefficient(cls, i, 1 / 9) for i in range(len(cls))]
    assert theta == pytest.approx(max(per))
    assert per[pivot] == pytest.approx(theta)


@pytest.mark.parametrize("r_floor", [float("nan"), float("inf"), 0.0, -0.5])
def test_theta_refuses_a_floor_that_is_not_positive_and_finite(r_floor):
    cls = gen.thresholds_class(9)
    with pytest.raises(ValueError, match="r_floor must be positive and finite"):
        gen.disagreement_coefficient(cls, 0, r_floor)
    with pytest.raises(ValueError, match="r_floor must be positive and finite"):
        gen.uniform_disagreement_coefficient(cls, r_floor)


def test_intervals_blow_up_past_thresholds():
    """At tiny radius floor the empty interval sees everything: theta ~ pool."""
    pool = 20
    thr = gen.thresholds_class(pool)
    ivl = gen.intervals_class(pool)
    t_thr, _ = gen.uniform_disagreement_coefficient(thr, 1 / pool)
    t_ivl, _ = gen.uniform_disagreement_coefficient(ivl, 1 / pool)
    assert t_ivl > t_thr


def test_permutation_class_theta_scales_linearly():
    for n in (5, 6):
        cls = rk.enumerate_sn_class(n)
        theta, _ = gen.uniform_disagreement_coefficient(cls, 1.0 / (n * (n - 1)))
        assert theta >= n / 4, n


# ------------------------------------------------------------------ formula

def test_sample_size_m_frozen():
    assert gen.sample_size_m(2.0, 1, 0.2, 0.01, 0.1, 1.0) == 353
    assert gen.sample_size_m(2.0, 1, 0.2, 0.01, 0.1, 1e-9) == 1  # floor clamp


def test_sample_size_m_epsilon_scaling():
    m1 = gen.sample_size_m(2.0, 1, 0.2, 0.01, 0.1, 1.0)
    m2 = gen.sample_size_m(2.0, 1, 0.1, 0.01, 0.1, 1.0)
    assert m2 in (4 * m1 - 3, 4 * m1 - 2, 4 * m1 - 1, 4 * m1, 4 * m1 + 1)


def test_sample_size_m_rejects_bad_ranges():
    with pytest.raises(ValueError):
        gen.sample_size_m(0.5, 1, 0.2, 0.01, 0.1)  # theta below 1
    with pytest.raises(ValueError):
        gen.sample_size_m(2.0, 0, 0.2, 0.01, 0.1)  # vc below 1
    with pytest.raises(ValueError):
        gen.sample_size_m(2.0, 1, 0.2, 1.5, 0.1)  # mu out of range


def test_vc_dimension_known_classes():
    assert gen.vc_dimension(gen.thresholds_class(12)) == 1
    assert gen.vc_dimension(gen.intervals_class(10)) == 2


def _vc_loop(cls, cap=4):
    """Reference: one subset at a time, stopping at the first shattered one."""
    cap = min(cap, 4, cls.pool_size)
    result = 0
    for d in range(1, cap + 1):
        weights = 1 << np.arange(d)
        if not any(
            len(np.unique(cls.labels[:, subset].astype(np.int64) @ weights)) == 1 << d
            for subset in combinations(range(cls.pool_size), d)
        ):
            return result
        result = d
    return result


def _random_class(pool, rows, seed):
    raw = derive_rng(seed, "vc-class").integers(0, 2, (rows, pool))
    return gen.FiniteClass(np.unique(raw, axis=0))


_VC_CLASSES = {
    **{f"thresholds-{p}": (gen.thresholds_class, p) for p in (2, 3, 9, 40)},
    **{f"intervals-{p}": (gen.intervals_class, p) for p in (2, 3, 7, 16)},
    **{f"random-{p}-{r}-{s}": (lambda p, r=r, s=s: _random_class(p, r, s), p)
       for p, r in ((3, 8), (4, 10), (5, 12), (7, 14), (6, 40), (8, 64), (10, 200), (40, 30))
       for s in (0, 1)},
}


@pytest.mark.parametrize("name", list(_VC_CLASSES))
def test_vc_dimension_matches_subset_loop(name):
    family, pool = _VC_CLASSES[name]
    cls = family(pool)
    for cap in range(0, 7):
        assert gen.vc_dimension(cls, cap) == _vc_loop(cls, cap), cap


@pytest.mark.parametrize("name", list(_VC_CLASSES)[::3])
def test_vc_dimension_matches_subset_loop_across_blocks(monkeypatch, name):
    monkeypatch.setattr(gen, "_VC_BLOCK_CELLS", 256)  # a few subsets per block
    family, pool = _VC_CLASSES[name]
    cls = gen.FiniteClass(family(pool).labels)  # a fresh class: nothing derived yet
    assert gen.vc_dimension(cls) == _vc_loop(cls)


def test_thresholds_class_is_shared_and_derives_once(monkeypatch):
    calls = []
    for name in ("_shattered_dimension", "_disagreement_coefficient"):
        original = getattr(gen, name)
        monkeypatch.setattr(gen, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    gen.thresholds_class.cache_clear()  # a class no earlier test has derived anything for
    cls = gen.thresholds_class(17)
    assert gen.thresholds_class(17) is cls
    fresh = gen.FiniteClass(cls.labels)
    for _ in range(3):
        assert gen.vc_dimension(cls) == gen.vc_dimension(fresh) == 1
        assert gen.disagreement_coefficient(cls, 0, 0.1) == gen.disagreement_coefficient(
            fresh, 0, 0.1)
    # once per class and argument, however often asked
    assert sorted(calls) == ["_disagreement_coefficient"] * 2 + ["_shattered_dimension"] * 2
    assert gen.vc_dimension(cls, 0) == 0 and len(calls) == 5  # another cap is another entry
    with pytest.raises(ValueError):
        cls.labels[0, 0] = 1  # shared, so read-only


def test_vc_dimension_refuses_pools_past_the_cap():
    cls = gen.thresholds_class(41)
    with pytest.raises(ValueError, match="capped at pool size 40"):
        gen.vc_dimension(cls)


# ------------------------------------------------------------------- annuli

def test_annulus_plan_structure():
    # disjointness, cover and mass of the annuli are the verify `annuli` suite's
    cls = gen.thresholds_class(32)
    for mu in (1.0, 0.5, 0.11, 0.03):
        want_levels = 0 if mu >= 1.0 else int(np.ceil(np.log2(1.0 / mu)))
        assert len(gen.annulus_plan(cls, 16, mu)) == want_levels + 1


def _loop_annuli(cls, pivot_idx, mu):
    """Reference: the shell loop annulus_plan ran before it returned a tuple."""
    levels = 0 if mu >= 1 else int(np.ceil(np.log2(1.0 / mu)))
    sorted_counts, split = gen._nested_balls(cls, pivot_idx)
    radii = [gen._count_radius(cls, mu * (1 << i)) for i in range(levels + 1)]
    prev = np.zeros(cls.pool_size, dtype=bool)
    annuli = []
    for end in np.searchsorted(sorted_counts, radii, side="right").tolist():
        mask = np.unpackbits(split[end - 1], count=cls.pool_size, bitorder="little").view(bool)
        annuli.append(np.flatnonzero(mask & ~prev).astype(np.int64))
        prev = mask
    return annuli


@pytest.mark.parametrize("family, pool", [("thresholds", 32), ("intervals", 12),
                                          ("thresholds", 2)])
@pytest.mark.parametrize("mu", [1.0, 0.5, 0.25, 0.11, 0.03, 1e-3])
def test_annulus_plan_shells_equal_loop_reference(family, pool, mu):
    cls = getattr(gen, f"{family}_class")(pool)
    for pivot in range(0, len(cls), max(1, len(cls) // 7)):
        got, want = gen.annulus_plan(cls, pivot, mu), _loop_annuli(cls, pivot, mu)
        assert isinstance(got, tuple) and len(got) == len(want)
        for shell, ref in zip(got, want):
            assert shell.dtype == np.int64
            np.testing.assert_array_equal(shell, ref)


# ---------------------------------------------------------------- estimator

def test_build_exhaustive_fallback_exact():
    assert verify._generic_exhaustive(pool=40, pivot=10, truth=25, flip=0.15, seed=2) is None


def _loop_build(cls, pivot_idx, oracle, mu, m, rng):
    """Reference builder: one loop over the annuli, in order.

    An annulus of at most m instances enters whole at numerator m, a larger
    one gives m draws with repetition at numerator |annulus|.  Returns
    (instances, w_num, labels).
    """
    instances, w_num = [], []
    for shell in gen.annulus_plan(cls, pivot_idx, mu):
        if len(shell) <= m:
            sample, w = shell, m
        else:
            sample, w = shell[rng.integers(0, len(shell), size=m)], len(shell)
        instances += sample.tolist()
        w_num += [w] * len(sample)
    instances = np.array(instances, dtype=np.int64)
    return instances, np.array(w_num, dtype=np.int64), oracle.query_many(instances)


@pytest.mark.parametrize("family, pool, pivot, mu", [
    ("thresholds", 40, 13, 0.05), ("thresholds", 9, 0, 1.0), ("intervals", 24, 40, 0.02),
])
@pytest.mark.parametrize("m", [1, 2, 4, 100])
def test_build_matches_loop_reference(family, pool, pivot, mu, m):
    cls = getattr(gen, f"{family}_class")(pool)
    labels = cls.labels[len(cls) // 2] ^ (derive_rng(m, "y").random(pool) < 0.2).astype(np.uint8)
    rng, ref_rng = derive_rng(m, "b"), derive_rng(m, "b")
    est = gen.build_generic_estimator(cls, pivot, InstanceOracle(labels),
                                      Params(epsilon=0.2, mu=mu), m=m, rng=rng)
    instances, w_num, ref_labels = _loop_build(cls, pivot, InstanceOracle(labels), mu, m, ref_rng)
    np.testing.assert_array_equal(est.us, instances)
    np.testing.assert_array_equal(est.weight_num, w_num)
    np.testing.assert_array_equal(est.labels, ref_labels)
    for h in (cls.labels[pivot], cls.labels[0]):  # the reference's sums, less the pivot's
        ref = w_num @ ((h[instances] != ref_labels).astype(np.int64)
                       - (cls.labels[pivot][instances] != ref_labels))
        assert est.evaluate_int(h) == ref
    assert est.weight_denom == m
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)  # same stream left


def test_build_requires_instance_oracle():
    cls = gen.thresholds_class(8)
    with pytest.raises(TypeError, match="InstanceOracle"):
        gen.build_generic_estimator(cls, 0, object(), Params(epsilon=0.2),
                                    rng=derive_rng(0, "build"))


def test_build_query_budget_cap():
    assert verify._generic_query_cap(family="intervals", pool=30, pivot=7, m=5, mu=0.1) is None


def test_estimator_contract_with_formula_m():
    """|f - reg| <= eps*(dist + mu) for every hypothesis, in most trials."""
    assert verify._generic_contract(pool=40, pivot=13, truth=28, flip=0.1, epsilon=0.2,
                                    mu=0.05, delta=0.1, trials=40, seed=0) is None


def test_class_argmin_matches_scan():
    cls = gen.intervals_class(10)
    labels = cls.labels[20]
    oracle = InstanceOracle(labels)
    est = gen.build_generic_estimator(cls, 5, oracle, Params(epsilon=0.2, mu=0.2), m=8,
                                      rng=derive_rng(3, "b"))
    idx = gen.class_argmin(cls, est)
    vals = [est.evaluate(cls.labels[i]) for i in range(len(cls))]
    assert est.evaluate(cls.labels[idx]) == pytest.approx(min(vals), abs=1e-15)
    assert idx == int(np.argmin(vals))


@pytest.mark.parametrize("seed", range(6))
def test_class_argmin_matches_unpacked_reference_on_one_class(seed):
    """Several estimators against one class: the packed columns, built once,
    agree with the plain weighted-mismatch product every time."""
    rng = derive_rng(seed, "argmin-class")
    pool = int(rng.integers(3, 30))
    cls = gen.FiniteClass(np.unique(rng.integers(0, 2, (50, pool)), axis=0))
    packed = cls.packed_columns
    for b in range(4):
        truth = cls.labels[b % len(cls)] ^ (rng.random(pool) < 0.2).astype(np.uint8)
        est = gen.build_generic_estimator(cls, b % len(cls), InstanceOracle(truth),
                                          Params(epsilon=0.3, mu=0.1), m=int(rng.integers(1, 20)),
                                          rng=derive_rng(seed, "b", b))
        mismatch = (cls.labels[:, est.us] != est.labels).astype(np.int64) @ est.weight_num
        row = int(np.argmin(mismatch))
        assert gen.class_argmin(cls, est) == row
    assert cls.packed_columns is packed


def test_finite_class_labels_are_a_read_only_copy():
    raw = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
    cls = gen.FiniteClass(raw)
    raw[0, 0] = 1  # the caller's array stays writable and does not reach the class
    assert cls.labels[0].tolist() == [0, 1, 1]
    for arr in (cls.labels, cls.packed_columns):
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    with pytest.raises(ValueError):
        cls.labels[1][0] = 1
    with pytest.raises(AttributeError):
        cls.labels = raw
    assert cls.labels[:, 0].tolist() == [0, 1, 1]


def test_class_argmin_rejects_pair_mode():
    from pivotlearn import NoiseSpec, make_ranking_oracle
    from pivotlearn import ranking as rk

    truth = rk.random_permutation(5, derive_rng(4, "t"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="none"), seed=4)
    pivot = rk.Permutation.identity(5)
    est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.2), p=2,
                                     rng=derive_rng(4, "b"))
    with pytest.raises(ValueError):
        gen.class_argmin(rk.enumerate_sn_class(5), est)


# -------------------------------------------------------------- persistence

def test_class_csv_roundtrip(tmp_path):
    cls = gen.intervals_class(6)
    path = str(tmp_path / "class.csv")
    gen.save_class_csv(cls, path)
    loaded = gen.load_class_csv(path)
    assert np.array_equal(loaded.labels, cls.labels)


def test_class_csv_bytes_golden(tmp_path):
    path = tmp_path / "class.csv"
    gen.save_class_csv(gen.intervals_class(6), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "517650291e6aacd3a0f093215f548b67e9d1a0dd1b4705a5298e0dd6bea70e73")


def test_load_class_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0\n1,1\n")
    with pytest.raises(ValueError):
        gen.load_class_csv(str(path))


# ------------------------------------------- column-packed class against row bytes

def _row_reference(cls, pivot):
    """(distance counts, nearest-first order, unpacked prefix disagreement rows) from
    big-endian row bytes, the layout FiniteClass read its rows from before."""
    rows = np.packbits(cls.labels, axis=1)
    counts = np.bitwise_count(rows ^ rows[pivot]).sum(axis=1)
    order = np.argsort(counts, kind="stable")
    split = np.bitwise_or.accumulate(rows[order], axis=0)
    split ^= np.bitwise_and.accumulate(rows[order], axis=0)
    return rows, counts, order, np.unpackbits(split, axis=1, count=cls.pool_size).view(bool)


_CLASSES = {"thresholds": lambda: gen.thresholds_class(13),
            "intervals": lambda: gen.intervals_class(9),
            "permutations": lambda: rk.enumerate_sn_class(5)}


@pytest.mark.parametrize("family", list(_CLASSES))
def test_column_packed_class_reads_as_the_row_bytes(family):
    cls = _CLASSES[family]()
    rng = derive_rng(5, family)
    for pivot in rng.choice(len(cls), size=min(len(cls), 6), replace=False).tolist():
        rows, counts, order, prefixes = _row_reference(cls, pivot)
        np.testing.assert_array_equal(cls.distance_counts(pivot), counts)
        got_counts, split = gen._nested_balls(cls, pivot)
        np.testing.assert_array_equal(got_counts, counts[order])
        unpacked = np.unpackbits(split, axis=1, count=cls.pool_size, bitorder="little")
        np.testing.assert_array_equal(unpacked.view(bool), prefixes)
        for mu in (1.0, 0.3, 0.07, 1e-3):
            levels = 0 if mu >= 1 else math.ceil(math.log2(1 / mu))
            radii = [gen._count_radius(cls, mu * 2**i) for i in range(levels + 1)]
            masks = prefixes[np.searchsorted(counts[order], radii, side="right") - 1]
            want = [np.flatnonzero(m & ~prev) for m, prev in
                    zip(masks, [np.zeros(cls.pool_size, bool), *masks[:-1]])]
            got = gen.annulus_plan(cls, pivot, mu)
            assert [s.tolist() for s in got] == [s.tolist() for s in want]
    for size in (0, 1, 2, 5, len(cls)):
        idx = rng.choice(len(cls), size=size, replace=False)
        sub = np.packbits(cls.labels, axis=1)[idx]
        bits = np.bitwise_or.reduce(sub, axis=0) & ~np.bitwise_and.reduce(sub, axis=0, initial=255)
        want = np.unpackbits(bits, count=cls.pool_size).astype(bool)
        np.testing.assert_array_equal(gen.disagreement_region(cls, idx), np.flatnonzero(want))
        assert gen.disagreement_measure(cls, idx) == want.sum() / cls.pool_size


def test_mu_without_a_finite_reciprocal_is_refused_and_a_tiny_one_plans_every_shell():
    cls = gen.thresholds_class(8)
    with pytest.raises(ValueError, match="finite reciprocal"):
        gen.annulus_plan(cls, 0, 5e-324)
    with pytest.raises(ValueError, match="finite reciprocal"):
        gen.sample_size_m(2.0, 1, 0.3, 5e-324, 0.1)
    shells = gen.annulus_plan(cls, 0, 1e-308)  # radii mu * 2**i past 2**1023
    assert len(shells) == math.ceil(math.log2(1e308)) + 1
    assert sorted(np.concatenate(shells).tolist()) == list(range(8))


# ------------------------------------------------- refusals of a foreign pool or label

def _thresholds_estimator():
    cls = gen.thresholds_class(10)
    oracle = InstanceOracle(cls.labels[4])
    est = gen.build_generic_estimator(cls, 2, oracle, Params(epsilon=0.3), m=10,
                                      rng=derive_rng(0, "b"))
    return cls, est


@pytest.mark.parametrize("one", [0.7, 2, -1], ids=["fraction", "two", "minus-one"])
def test_indexed_estimator_refuses_a_label_vector_that_is_not_zero_one(one):
    """A 1 replaced by 0.7, 2 or -1 is refused, not truncated or wrapped to 0, 2 or 255."""
    cls, est = _thresholds_estimator()
    row = cls.labels[7].astype(np.int64)
    assert est.evaluate_int(row) == est.evaluate_int(cls.labels[7])
    bad = np.where(row == 1, one, row)
    with pytest.raises(ValueError, match="label vector must be 0 or 1"):
        est.evaluate_int(bad)


@pytest.mark.parametrize("pool", [8, 12])
def test_class_argmin_refuses_a_class_of_another_pool_size(pool):
    _, est = _thresholds_estimator()
    with pytest.raises(PoolMismatchError, match=f"class pool {pool}"):
        gen.class_argmin(gen.thresholds_class(pool), est)
