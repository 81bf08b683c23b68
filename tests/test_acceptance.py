"""Acceptance gate: end-to-end checks of the estimator and driver stack.

Each test is one numbered criterion with its tolerance and wall-clock budget
baked in.  The conftest hook prints a one-line verdict per criterion after
the run.  Budgets are generous for this hardware; the point is catching
complexity regressions, not benchmarking.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from pivotlearn import (
    ExperimentConfig,
    InstanceOracle,
    NoiseSpec,
    Params,
    make_clustering_oracle,
    make_ranking_oracle,
    run,
    run_erm_iteration,
    sweep,
    true_error,
)
from pivotlearn import clustering as clu
from pivotlearn import generic as gn
from pivotlearn import geometric as geo
from pivotlearn import ranking as rk
from pivotlearn.core import all_pairs
from pivotlearn.seeding import derive_rng


def _regret_table_ranking(est, oracle, rank_rows):
    """(estimate, exact regret) for every rank array, via the public API."""
    pivot_err = true_error(est.pivot, oracle)
    f = np.empty(len(rank_rows))
    reg = np.empty(len(rank_rows))
    for i, row in enumerate(rank_rows):
        h = rk.Permutation(row)
        f[i] = est.evaluate(h)
        reg[i] = true_error(h, oracle) - pivot_err
    return f, reg


# --------------------------------------------------------------- criterion 1

def test_criterion_01_ranking_estimator_exact_when_bands_exhaustive(note):
    """With the per-band budget >= n every band is included wholesale, so the
    estimate must equal the true regret for every permutation."""
    t0 = time.perf_counter()
    n = 7
    truth = rk.random_permutation(n, derive_rng(11, "truth"))
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.3), seed=11)
    pivot = rk.random_permutation(n, derive_rng(11, "pivot"))
    est = rk.build_ranking_estimator(
        pivot, oracle, Params(epsilon=0.2), p=n, rng=derive_rng(11, "build")
    )
    f, reg = _regret_table_ranking(est, oracle, rk.all_rank_arrays(n))
    worst = float(np.max(np.abs(f - reg)))
    elapsed = time.perf_counter() - t0
    note(f"max |estimate - regret| {worst:.2e} over 5040 permutations, {elapsed:.1f}s")
    assert len(f) == 5040
    assert worst <= 1e-12
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 2

def test_criterion_02_clustering_estimator_exact_when_sampling_exhaustive(note):
    worst = 0.0
    counts = []
    t0 = time.perf_counter()
    for n, seed in ((8, 21), (9, 22)):
        k = 3
        truth = clu.random_clustering(n, k, derive_rng(seed, "truth"))
        oracle = make_clustering_oracle(
            truth, NoiseSpec(kind="uniform_flip", eta=0.3), seed=seed
        )
        pivot = clu.random_clustering(n, k, derive_rng(seed, "pivot"))
        est = clu.build_clustering_estimator(
            pivot, oracle, Params(epsilon=0.2), q=n, rng=derive_rng(seed, "build")
        )
        pivot_err = true_error(pivot, oracle)
        rows = clu.all_assignments(n, k)
        counts.append(len(rows))
        for row in rows:
            h = clu.Clustering(row, k)
            gap = abs(est.evaluate(h) - (true_error(h, oracle) - pivot_err))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    note(f"max gap {worst:.2e} over {counts} partitions, {elapsed:.1f}s")
    assert counts == [1094, 3281]
    assert worst <= 1e-12
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 3

def _mean_estimate_gap(task: str, master_seed: int, n_builds: int):
    """Monte Carlo mean of the estimate vs exact regret for 20 fixed targets.

    Returns (|mean - regret|, stderr) per target.  The per-build evaluation
    gathers the precomputed cost-difference columns at the sampled pair ids,
    which keeps 1e5 builds affordable.
    """
    n = 8
    us_pool, vs_pool = all_pairs(n)
    pos = np.full((n, n), -1, dtype=np.int64)
    pos[us_pool, vs_pool] = np.arange(n * (n - 1))

    rng = derive_rng(master_seed, "setup")
    if task == "ranking":
        truth = rk.random_permutation(n, rng)
        oracle = make_ranking_oracle(
            truth, NoiseSpec(kind="uniform_flip", eta=0.3), seed=master_seed
        )
        pivot = rk.random_permutation(n, rng)
        targets = [rk.random_permutation(n, rng) for _ in range(20)]

        def build(b):
            return rk.build_ranking_estimator(
                pivot, oracle, Params(epsilon=0.3), p=2,
                rng=derive_rng(master_seed, "build", b),
            )
    else:
        truth = clu.random_clustering(n, 3, rng)
        oracle = make_clustering_oracle(
            truth, NoiseSpec(kind="uniform_flip", eta=0.3), seed=master_seed
        )
        pivot = clu.random_clustering(n, 3, rng)
        targets = [clu.random_clustering(n, 3, rng) for _ in range(20)]

        def build(b):
            return clu.build_clustering_estimator(
                pivot, oracle, Params(epsilon=0.3), q=2,
                rng=derive_rng(master_seed, "build", b),
            )

    labels_pool = oracle.verification_labels(us_pool, vs_pool)
    pivot_cost = (pivot.pair_values(us_pool, vs_pool) != labels_pool).astype(np.int64)
    diff = np.stack(
        [
            (h.pair_values(us_pool, vs_pool) != labels_pool).astype(np.int64) - pivot_cost
            for h in targets
        ]
    )
    reg = np.array([true_error(h, oracle) - true_error(pivot, oracle) for h in targets])

    s1 = np.zeros(20)
    s2 = np.zeros(20)
    for b in range(n_builds):
        est = build(b)
        ids = pos[est.us, est.vs]
        fb = (diff[:, ids] @ est.weight_num) * est.scale
        s1 += fb
        s2 += fb * fb
    mean = s1 / n_builds
    var = np.maximum(s2 / n_builds - mean * mean, 0.0)
    stderr = np.sqrt(var / (n_builds - 1))
    return np.abs(mean - reg), stderr


def test_criterion_03_estimator_mean_matches_regret(note):
    """Sampled builds must be unbiased: the empirical mean over 1e5 builds
    stays within 3 standard errors of the exact regret for each target."""
    t0 = time.perf_counter()
    builds = 100_000
    zmax = 0.0
    for task, seed in (("ranking", 33), ("clustering", 34)):
        gap, stderr = _mean_estimate_gap(task, seed, builds)
        assert np.all(gap <= 3.0 * stderr), f"{task}: z={np.max(gap / stderr):.2f}"
        zmax = max(zmax, float(np.max(gap / np.where(stderr > 0, stderr, np.inf))))
    elapsed = time.perf_counter() - t0
    note(f"worst z-score {zmax:.2f} over 2x20 targets x {builds} builds, {elapsed:.0f}s")
    assert elapsed < 120.0


# --------------------------------------------------------------- criterion 4

def test_criterion_04_annulus_estimator_within_smoothness_envelope(note):
    """Threshold rules over a 40-instance pool: the built estimate must sit
    inside eps*(distance + mu) of the true regret for every rule, in at
    least 90 of 100 seeded trials."""
    t0 = time.perf_counter()
    cls = gn.thresholds_class(40)
    params = Params(epsilon=0.2, mu=0.01, delta=0.1, c3=1.0)
    good = 0
    m_seen = set()
    for s in range(100):
        truth_idx = int(derive_rng(s, "truth").integers(len(cls)))
        labels = cls.labels[truth_idx].copy()
        flips = derive_rng(s, "noise").random(cls.pool_size) < 0.1
        labels = labels ^ flips.astype(np.uint8)
        oracle = InstanceOracle(labels)
        pivot_idx = int(derive_rng(s, "pivot").integers(len(cls)))
        est = gn.build_generic_estimator(
            cls, pivot_idx, oracle, params, rng=derive_rng(s, "build")
        )
        m_seen.add(est.weight_denom)
        table = oracle.verification_labels()
        errs = (cls.labels != table).mean(axis=1)
        reg = errs - errs[pivot_idx]
        f = np.array([est.evaluate(cls.labels[j]) for j in range(len(cls))])
        envelope = params.epsilon * (cls.distances(pivot_idx) + params.mu)
        if np.all(np.abs(f - reg) <= envelope + 1e-12):
            good += 1
    elapsed = time.perf_counter() - t0
    note(f"{good}/100 seeds inside the envelope, m={sorted(m_seen)}, {elapsed:.1f}s")
    assert good >= 90
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 5

def test_criterion_05_iterated_minimization_converges(note):
    """Five rounds of build-then-minimize on 9 items with 10% label noise:
    the median excess error must at least halve, and most seeds must land
    within 1.5x the best achievable error plus two pool atoms."""
    t0 = time.perf_counter()
    n, pool = 9, 9 * 8
    initial, final, near_opt = [], [], []
    for s in range(50):
        truth = rk.random_permutation(n, derive_rng(s, "truth"))
        oracle = make_ranking_oracle(
            truth, NoiseSpec(kind="uniform_flip", eta=0.1), seed=s
        )
        nu, _ = rk.exact_min_error(oracle)
        h0 = rk.random_permutation(n, derive_rng(s, "start"))
        params = Params(epsilon=0.2, iterations=5, master_seed=s)

        def builder(h, oracle, params, rng):
            return rk.build_ranking_estimator(h, oracle, params, p=4, rng=rng)

        traj = run_erm_iteration(h0, oracle, params, builder, rk.exact_erm)
        err_t = true_error(traj.final_hypothesis, oracle)
        initial.append(true_error(h0, oracle) - nu)
        final.append(err_t - nu)
        near_opt.append(err_t <= 1.5 * nu + 2.0 / pool)
    med_initial = float(np.median(initial))
    med_final = float(np.median(final))
    frac = float(np.mean(near_opt))
    elapsed = time.perf_counter() - t0
    note(
        f"median excess {med_initial:.3f} -> {med_final:.3f}, "
        f"{frac:.0%} seeds near-optimal, {elapsed:.0f}s"
    )
    assert med_final <= 0.5 * med_initial
    assert frac >= 0.80
    assert elapsed < 300.0


# --------------------------------------------------------------- criterion 6

def test_criterion_06_query_growth_near_linear(note):
    """Distinct labels per build must stay under the n * polylog budget at
    every sweep point, and grow far slower than the quadratic pool."""
    t0 = time.perf_counter()
    eps, c1 = 0.3, 1.3e-4
    template = ExperimentConfig(
        task="ranking",
        n=200,
        params=Params(epsilon=eps, c1=c1, iterations=2, master_seed=606),
        erm="local_search",
    )
    records, _ = sweep(template, "n", [200, 400, 800, 1600], workers=4)
    max_per_build = {}
    for rec in records:
        n = rec.config.n
        bound = c1 * eps**-3 * n * math.log2(n) ** 3 * (math.ceil(math.log2(n)) + 3)
        per_build = [row.distinct_queries for row in rec.trajectory.rows[1:]]
        assert per_build and max(per_build) <= bound, f"n={n}: {max(per_build)} > {bound:.0f}"
        max_per_build[n] = max(per_build)
        if n == 200:
            assert rec.task_info["p"] < n / 4
    ratio = max_per_build[1600] / max_per_build[200]
    elapsed = time.perf_counter() - t0
    note(
        f"per-build max {[max_per_build[n] for n in (200, 400, 800, 1600)]}, "
        f"1600/200 ratio {ratio:.1f} <= 24, {elapsed:.0f}s"
    )
    assert ratio <= 24.0
    assert elapsed < 600.0


# --------------------------------------------------------------- criterion 7

def test_criterion_07_disagreement_coefficients(note):
    """Threshold rules stay constant-bounded; full permutation classes grow
    linearly; small clustering balls already disagree everywhere."""
    t0 = time.perf_counter()
    th, _ = gn.uniform_disagreement_coefficient(gn.thresholds_class(40))
    assert th <= 2.2

    perm_thetas = {}
    for n in (5, 6, 7):
        theta, _ = gn.uniform_disagreement_coefficient(rk.enumerate_sn_class(n))
        perm_thetas[n] = float(theta)
        assert theta >= n / 4

    cls = clu.enumerate_partitions_class(8, 3)
    r = 4 * (8 - 1) / (8 * 7)  # 0.5
    for idx in range(len(cls)):
        measure = gn.disagreement_measure(cls, gn.ball(cls, idx, r))
        assert measure == 1.0, f"pivot {idx}: measure {measure}"
    elapsed = time.perf_counter() - t0
    note(
        f"thresholds {th:.2f}, permutations {perm_thetas}, "
        f"all {len(cls)} clustering balls saturated, {elapsed:.0f}s"
    )
    assert elapsed < 300.0


# --------------------------------------------------------------- criterion 8

def test_criterion_08_planar_orders_enumeration_and_bounds(note):
    t0 = time.perf_counter()
    draws = {6: 7, 8: 7, 10: 6}  # 20 total
    checked = 0
    worst_ratio = 0.0
    for n, reps in draws.items():
        for t in range(reps):
            feats = geo.random_features(n, derive_rng(800 + n, "draw", t))
            orders, _ = geo.enumerate_orders_2d(feats)
            assert len(orders) <= n * (n - 1)

            pick = derive_rng(800 + n, "pick", t)
            truth = orders[int(pick.integers(len(orders)))]
            oracle = make_ranking_oracle(
                truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=1000 + 10 * n + t
            )
            pivot = orders[int(pick.integers(len(orders)))]
            est = rk.build_ranking_estimator(
                pivot, oracle, Params(epsilon=0.3), p=3, rng=derive_rng(800 + n, "b", t)
            )
            best = geo.geometric_erm_2d(est, feats)
            assert est.evaluate_int(best) == min(est.evaluate_int(o) for o in orders)

            radii = sorted({rk.kendall_distance(pivot, o) for o in orders} - {0.0})
            reports = geo.verify_disagreement_bound(feats, pivot, radii)
            for rep in reports:
                assert rep["ratio"] <= 8 * n
                worst_ratio = max(worst_ratio, rep["ratio"] / n)
            checked += 1
    elapsed = time.perf_counter() - t0
    note(f"{checked} draws, worst measure/(r*n) {worst_ratio:.2f} <= 8, {elapsed:.0f}s")
    assert checked == 20
    assert elapsed < 120.0


# --------------------------------------------------------------- criterion 9

def test_criterion_09_inversions_footrule_sandwich(note):
    """Displacement distance is sandwiched by one and two times the inversion
    count, on ten thousand random permutation pairs."""
    t0 = time.perf_counter()
    rng = derive_rng(909, "sandwich")
    for _ in range(10_000):
        n = int(rng.integers(2, 201))
        p1 = rk.random_permutation(n, rng)
        p2 = rk.random_permutation(n, rng)
        inv = rk.count_inversions(p2.rank[p1.order].tolist())
        foot = rk.footrule_distance(p1, p2)
        assert inv <= foot <= 2 * inv
    elapsed = time.perf_counter() - t0
    note(f"10000 pairs, n up to 200, {elapsed:.0f}s")


# -------------------------------------------------------------- criterion 10

def _tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "timings.json"
    }


def test_criterion_10_artifacts_deterministic_across_workers(note, tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        task="clustering",
        n=12,
        k=3,
        params=Params(epsilon=0.3, iterations=2, master_seed=77),
        erm="local_search",
    )
    run(cfg, str(tmp_path / "run-a"))
    run(cfg, str(tmp_path / "run-b"))
    assert _tree_bytes(tmp_path / "run-a") == _tree_bytes(tmp_path / "run-b")

    template = ExperimentConfig(
        task="ranking",
        n=8,
        params=Params(epsilon=0.3, iterations=2, master_seed=78),
        erm="local_search",
    )
    sweep(template, "n", [8, 10, 12], workers=1, out_dir=str(tmp_path / "sw-1"))
    sweep(template, "n", [8, 10, 12], workers=8, out_dir=str(tmp_path / "sw-8"))
    one, eight = _tree_bytes(tmp_path / "sw-1"), _tree_bytes(tmp_path / "sw-8")
    assert one == eight
    elapsed = time.perf_counter() - t0
    note(f"{len(one)} sweep files byte-identical at 1 vs 8 workers, {elapsed:.0f}s")
