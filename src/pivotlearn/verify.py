"""Named verification suites: fast, seeded property checks for every module.

Each suite returns per-property results with a counterexample string on
failure.  The CLI `verify` subcommand runs them by name; the full registry
runs in well under a minute.  These are sanity gates, not the test suite —
pytest carries the heavy acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering as clu
from . import generic as gen
from . import geometric as geo
from . import ranking as rk
from .core import Params, Pool, distance, regret
from .harness import ExperimentConfig, run_experiment, sweep
from .oracles import (
    InstanceOracle,
    NoiseSpec,
    make_clustering_oracle,
    make_ranking_oracle,
)
from .seeding import derive_rng

__all__ = ["PropertyResult", "SuiteReport", "SUITES", "run_suite", "run_all"]


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _check(results: list, name: str, ok: bool, detail: str = ""):
    results.append(PropertyResult(name, bool(ok), "" if ok else detail))


# -- ranking --------------------------------------------------------------------


def _suite_band_partition() -> list:
    results = []
    rng = derive_rng(7, "verify", "bands")
    for n, p in ((8, 2), (30, 3), (157, 5), (1000, 11)):
        pivot = rk.random_permutation(n, rng)
        plan = rk.band_plan(pivot, p)
        ok = True
        detail = ""
        for u in range(n):
            seen = [plan.near_items(u)]
            for i in range(plan.n_bands):
                items = plan.band_items(u, i)
                gaps = np.abs(pivot.rank[items] - pivot.rank[u])
                lo, hi = (1 << i) * p, (1 << (i + 1)) * p
                if len(items) and (gaps.min() < lo or gaps.max() >= hi):
                    ok, detail = False, f"n={n} p={p} u={u} band {i} breaks its gap range"
                seen.append(items)
            union = np.concatenate(seen)
            others = np.setdiff1d(np.arange(n), [u])
            if len(union) != len(others) or not np.array_equal(np.sort(union), others):
                ok, detail = False, f"n={n} p={p} u={u}: near+bands do not partition V\\{{u}}"
                break
        _check(results, f"partition n={n} p={p}", ok, detail)
    return results


def _suite_rank_distances() -> list:
    results = []
    rng = derive_rng(7, "verify", "distances")
    ok_dg, ok_match, detail = True, True, ""
    for _ in range(300):
        n = int(rng.integers(2, 60))
        p1, p2 = rk.random_permutation(n, rng), rk.random_permutation(n, rng)
        inv = round(rk.kendall_distance(p1, p2) * n * (n - 1) / 2)
        foot = rk.footrule_distance(p1, p2)
        if not (inv <= foot <= 2 * inv):
            ok_dg, detail = False, f"n={n}: inv={inv} foot={foot}"
        seq = p2.rank[p1.order]
        brute = sum(
            1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j]
        )
        if brute != inv:
            ok_match, detail = False, f"n={n}: merge-sort {inv} vs brute {brute}"
    _check(results, "footrule sandwich", ok_dg, detail)
    _check(results, "inversion count vs quadratic scan", ok_match, detail)
    return results


def _ranking_fixture(n: int, eta: float, seed: int):
    truth = rk.random_permutation(n, derive_rng(seed, "truth"))
    noise = NoiseSpec(kind="uniform_flip", eta=eta) if eta else NoiseSpec()
    return make_ranking_oracle(truth, noise, seed=seed)


def _suite_exactness_ranking() -> list:
    results = []
    n = 6
    oracle = _ranking_fixture(n, 0.2, 11)
    pivot = rk.random_permutation(n, derive_rng(11, "pivot"))
    params = Params(epsilon=0.2, master_seed=11)
    est = rk.build_ranking_estimator(pivot, oracle, params, p=n)
    worst = 0.0
    for rank in rk.all_rank_arrays(n):
        h = rk.Permutation(rank)
        worst = max(worst, abs(est.evaluate(h) - regret(pivot, h, oracle)))
    _check(results, "exhaustive mode matches regret", worst <= 1e-12, f"max gap {worst}")
    _check(results, "pivot evaluates to zero", est.evaluate(pivot) == 0.0)
    return results


def _suite_unbiasedness_ranking() -> list:
    results = []
    n, p, builds = 8, 2, 1500
    oracle = _ranking_fixture(n, 0.15, 3)
    pivot = rk.random_permutation(n, derive_rng(3, "pivot"))
    params = Params(epsilon=0.2, master_seed=3)
    rng = derive_rng(3, "verify", "unbias")
    targets = [rk.random_permutation(n, rng) for _ in range(5)]
    sums = np.zeros(5)
    squares = np.zeros(5)
    for b in range(builds):
        est = rk.build_ranking_estimator(pivot, oracle, params, p=p, rng=derive_rng(3, "b", b))
        vals = np.array([est.evaluate(t) for t in targets])
        sums += vals
        squares += vals**2
    means = sums / builds
    stderr = np.sqrt(np.maximum(squares / builds - means**2, 0) / builds)
    ok, detail = True, ""
    for i, t in enumerate(targets):
        gap = abs(means[i] - regret(pivot, t, oracle))
        tol = max(4 * stderr[i], 1e-12)
        if gap > tol:
            ok, detail = False, f"target {i}: |mean-reg| {gap:.3e} > {tol:.3e}"
    _check(results, f"mean over {builds} builds matches regret", ok, detail)
    return results


def _suite_query_bounds() -> list:
    results = []
    params = Params(epsilon=0.2, master_seed=5)
    n, p = 64, 3
    oracle = _ranking_fixture(n, 0.1, 5)
    rk.build_ranking_estimator(
        rk.random_permutation(n, derive_rng(5, "pivot")), oracle, params, p=p
    )
    got = oracle.counters.distinct_labeled
    cap = n * (2 * p + p * (int(np.ceil(np.log2(n))) + 1))
    _check(
        results,
        "ranking distinct pairs under construction cap",
        got <= min(cap, n * (n - 1)),
        f"{got} > {cap}",
    )
    nc, kc, q = 40, 3, 4
    truth = clu.random_clustering(nc, kc, derive_rng(5, "ctruth"))
    coracle = make_clustering_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.1), seed=5)
    clu.build_clustering_estimator(
        clu.random_clustering(nc, kc, derive_rng(5, "cpivot")), coracle, params, q=q
    )
    got_c = coracle.counters.distinct_labeled
    _check(
        results,
        "clustering distinct pairs under n*k*q",
        got_c <= min(nc * kc * q, nc * (nc - 1)),
        f"{got_c} > {nc * kc * q}",
    )
    cls = gen.thresholds_class(30)
    labels = cls.labels[12]
    ioracle = InstanceOracle(labels)
    m = 4
    gparams = Params(epsilon=0.2, mu=0.05, master_seed=5)
    gen.build_generic_estimator(cls, 12, ioracle, gparams, m=m)
    levels = int(np.ceil(np.log2(1 / 0.05)))
    _check(
        results,
        "generic labeled instances under m*(levels+1)",
        ioracle.counters.distinct_labeled <= m * (levels + 1),
        f"{ioracle.counters.distinct_labeled} > {m * (levels + 1)}",
    )
    return results


# -- clustering -------------------------------------------------------------------


def _suite_exactness_clustering() -> list:
    results = []
    n, k = 7, 3
    truth = clu.random_clustering(n, k, derive_rng(13, "truth"))
    oracle = make_clustering_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=13)
    pivot = clu.random_clustering(n, k, derive_rng(13, "pivot"))
    params = Params(epsilon=0.2, master_seed=13)
    est = clu.build_clustering_estimator(pivot, oracle, params, q=n)
    worst = 0.0
    for assign in clu.all_assignments(n, k):
        h = clu.Clustering(assign, k)
        worst = max(worst, abs(est.evaluate(h) - regret(pivot, h, oracle)))
    _check(results, "exhaustive mode matches regret", worst <= 1e-12, f"max gap {worst}")
    return results


def _suite_unbiasedness_clustering() -> list:
    results = []
    n, k, q, builds = 8, 3, 2, 1500
    truth = clu.random_clustering(n, k, derive_rng(17, "truth"))
    oracle = make_clustering_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.15), seed=17)
    pivot = clu.random_clustering(n, k, derive_rng(17, "pivot"))
    params = Params(epsilon=0.2, master_seed=17)
    rng = derive_rng(17, "verify", "unbias")
    targets = [clu.random_clustering(n, k, rng) for _ in range(5)]
    sums = np.zeros(5)
    squares = np.zeros(5)
    for b in range(builds):
        est = clu.build_clustering_estimator(pivot, oracle, params, q=q, rng=derive_rng(17, "b", b))
        vals = np.array([est.evaluate(t) for t in targets])
        sums += vals
        squares += vals**2
    means = sums / builds
    stderr = np.sqrt(np.maximum(squares / builds - means**2, 0) / builds)
    ok, detail = True, ""
    for i, t in enumerate(targets):
        gap = abs(means[i] - regret(pivot, t, oracle))
        tol = max(4 * stderr[i], 1e-12)
        if gap > tol:
            ok, detail = False, f"target {i}: |mean-reg| {gap:.3e} > {tol:.3e}"
    _check(results, f"mean over {builds} builds matches regret", ok, detail)
    return results


def _suite_canonicalization() -> list:
    results = []
    rng = derive_rng(19, "verify", "canon")
    ok_eq, ok_dist, detail = True, True, ""
    for _ in range(200):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(2, 5))
        a = clu.random_clustering(n, k, rng)
        relabel = rng.permutation(k) + 1
        b = clu.Clustering(relabel[a.assign - 1], k)
        if a != b or hash(a) != hash(b):
            ok_eq, detail = False, f"relabelled partition compared unequal (n={n}, k={k})"
        other = clu.random_clustering(n, k, rng)
        us, vs = Pool(n).all_pairs()
        brute = float(np.mean(a.pair_values(us, vs) != other.pair_values(us, vs)))
        table = a.distance_to(other)
        if abs(brute - table) > 1e-12:
            ok_dist, detail = False, f"decomposition {table} vs scan {brute} (n={n}, k={k})"
    _check(results, "relabeling-invariant equality", ok_eq, detail)
    _check(results, "intersection-table distance equals pair scan", ok_dist, detail)
    return results


# -- shared estimator properties ---------------------------------------------------


def _suite_pseudometric() -> list:
    results = []
    rng = derive_rng(23, "verify", "metric")
    ok, detail = True, ""
    for _ in range(120):
        n = int(rng.integers(3, 10))
        trio = [rk.random_permutation(n, rng) for _ in range(3)]
        trio_c = [clu.random_clustering(n, 3, rng) for _ in range(3)]
        for a, b, c in (trio, trio_c):
            dab, dba = distance(a, b), distance(b, a)
            if abs(dab - dba) > 1e-12 or distance(a, a) != 0.0:
                ok, detail = False, "symmetry or identity failed"
            if dab > distance(a, c) + distance(c, b) + 1e-12:
                ok, detail = False, f"triangle inequality failed at n={n}"
    _check(results, "identity, symmetry, triangle inequality", ok, detail)
    return results


def _suite_delta_consistency() -> list:
    """Move scores read from the local-search tables match full evaluation."""
    results = []
    rng = derive_rng(29, "verify", "delta")
    ok_r, ok_c, detail = True, True, ""
    for trial in range(60):
        n = int(rng.integers(4, 10))
        oracle = _ranking_fixture(n, 0.2, 1000 + trial)
        pivot = rk.random_permutation(n, rng)
        est = rk.build_ranking_estimator(
            pivot, oracle, Params(epsilon=0.3, master_seed=trial), p=2, rng=rng
        )
        partners, deltas, bounds = rk._insertion_csr(est)
        h = rk.random_permutation(n, rng)
        base = est.evaluate_int(h)
        for u in range(n):
            # at slot j, u sits after exactly its partners ranked below j once u is lifted out
            mine = slice(bounds[u], bounds[u + 1])
            lifted = h.rank[partners[mine]] - (h.rank[partners[mine]] > h.rank[u])
            at = [int(deltas[mine][lifted < j].sum()) for j in range(1, n + 1)]
            read = [value - at[h.rank[u] - 1] for value in at]
            direct = [est.evaluate_int(h.move(u, j)) - base for j in range(1, n + 1)]
            if read != direct:
                ok_r, detail = False, f"ranking trial {trial}, item {u}"
    for trial in range(60):
        n, k = int(rng.integers(4, 10)), 3
        truth = clu.random_clustering(n, k, rng)
        oracle = make_clustering_oracle(
            truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=2000 + trial
        )
        pivot = clu.random_clustering(n, k, rng)
        est = clu.build_clustering_estimator(
            pivot, oracle, Params(epsilon=0.3, master_seed=trial), q=2, rng=rng
        )
        assign = clu.random_clustering(n, k, rng).assign.copy()
        table = clu._GainTable(est, assign, k)
        for step in range(2):  # before and after one incremental table update
            base = est.evaluate_int(clu.Clustering(assign, k))
            for u, c in np.ndindex(n, k):
                moved = np.where(np.arange(n) == u, c + 1, assign)
                direct = est.evaluate_int(clu.Clustering(moved, k)) - base
                read = int(table.cost[u, c + 1] - table.cost[u, assign[u]])
                if read != direct:
                    ok_c, detail = False, f"clustering trial {trial}, step {step}, move {(u, c + 1)}"
            table.move(int(rng.integers(n)), int(rng.integers(1, k + 1)))
    _check(results, "insertion deltas match full evaluation", ok_r, detail)
    _check(results, "reassignment deltas match full evaluation", ok_c, detail)
    return results


def _suite_oracle_symmetry() -> list:
    results = []
    rng = derive_rng(31, "verify", "oracle")
    ok_rank, ok_clu, detail = True, True, ""
    for trial in range(40):
        n = int(rng.integers(3, 20))
        noise = (
            NoiseSpec(),
            NoiseSpec(kind="uniform_flip", eta=0.3),
            NoiseSpec(kind="distance_decay", rho=1.5, scale=0.4),
        )[trial % 3]
        oracle = make_ranking_oracle(rk.random_permutation(n, rng), noise, seed=trial)
        us, vs = Pool(n).all_pairs()
        y = oracle.verification_labels(us, vs)
        yt = oracle.verification_labels(vs, us)
        if np.any(y + yt != 1):
            ok_rank, detail = False, f"ranking skew-symmetry broken (trial {trial})"
        coracle = make_clustering_oracle(
            clu.random_clustering(n, 3, rng),
            NoiseSpec(kind="uniform_flip", eta=0.3),
            seed=trial,
        )
        yc = coracle.verification_labels(us, vs)
        yct = coracle.verification_labels(vs, us)
        if np.any(yc != yct):
            ok_clu, detail = False, f"clustering symmetry broken (trial {trial})"
    _check(results, "ranking labels skew-symmetric under all noise kinds", ok_rank, detail)
    _check(results, "clustering labels symmetric", ok_clu, detail)
    return results


def _suite_determinism() -> list:
    results = []
    config = ExperimentConfig(
        task="ranking",
        n=8,
        params=Params(epsilon=0.25, iterations=2, master_seed=99),
        noise=NoiseSpec(kind="uniform_flip", eta=0.1),
        erm="exact",
    )
    a = run_experiment(config).to_dict()
    b = run_experiment(config).to_dict()
    _check(results, "repeated run records identical", a == b)
    template = config.with_overrides(erm="local_search", restarts=3)
    _, s1 = sweep(template, "n", [6, 8, 10], workers=1)
    _, s8 = sweep(template, "n", [6, 8, 10], workers=8)
    _check(results, "sweep summaries identical at 1 and 8 workers", s1 == s8)
    return results


# -- generic / geometric -----------------------------------------------------------


def _suite_annuli() -> list:
    results = []
    rng = derive_rng(37, "verify", "annuli")
    ok_disjoint, ok_union, ok_mass, detail = True, True, True, ""
    for trial in range(30):
        cls = gen.thresholds_class(int(rng.integers(5, 40))) if trial % 2 else gen.intervals_class(
            int(rng.integers(4, 12))
        )
        pivot = int(rng.integers(len(cls)))
        mu = float(rng.choice([1.0, 0.5, 0.11, 0.03]))
        plan = gen.annulus_plan(cls, pivot, mu)
        combined = np.concatenate(plan.annuli)
        if len(np.unique(combined)) != len(combined):
            ok_disjoint, detail = False, f"trial {trial}: annuli overlap"
        top = gen.disagreement_region(cls, gen.ball(cls, pivot, mu * (1 << plan.levels)))
        if not np.array_equal(np.sort(combined), top):
            ok_union, detail = False, f"trial {trial}: union is not the top ball's region"
        if sum(plan.measures) > 1 + 1e-12:
            ok_mass, detail = False, f"trial {trial}: measures sum past 1"
    _check(results, "annuli disjoint", ok_disjoint, detail)
    _check(results, "annuli union covers the top ball's disagreements", ok_union, detail)
    _check(results, "annulus measures sum to at most 1", ok_mass, detail)
    return results


def _suite_exactness_generic() -> list:
    results = []
    cls = gen.thresholds_class(40)
    rng = derive_rng(41, "verify", "generic")
    labels = cls.labels[17] ^ (rng.random(40) < 0.2).astype(np.uint8)
    oracle = InstanceOracle(labels)
    pivot = 9
    params = Params(epsilon=0.2, mu=0.05, master_seed=41)
    est = gen.build_generic_estimator(cls, pivot, oracle, params, m=cls.pool_size)
    truth = oracle.verification_labels()
    err = (cls.labels != truth).mean(axis=1)
    worst = max(
        abs(est.evaluate(cls.labels[i]) - (err[i] - err[pivot])) for i in range(len(cls))
    )
    _check(results, "exhaustive fallback matches regret on the class", worst <= 1e-12, f"{worst}")
    return results


def _suite_estimator_contract_generic() -> list:
    """The approximation inequality at formula sample sizes, across seeds."""
    results = []
    cls = gen.thresholds_class(40)
    pivot = 20
    epsilon, mu, delta = 0.2, 0.01, 0.1
    theta = max(1.0, gen.disagreement_coefficient(cls, pivot, mu))
    m = gen.sample_size_m(theta, max(1, gen.vc_dimension(cls)), epsilon, mu, delta)
    hits = 0
    trials = 60
    truth_rng = derive_rng(43, "truth")
    labels = cls.labels[pivot] ^ (truth_rng.random(40) < 0.15).astype(np.uint8)
    err = (cls.labels != labels).mean(axis=1)
    dists = cls.distances(pivot)
    params = Params(epsilon=epsilon, mu=mu, delta=delta, master_seed=43)
    for seed in range(trials):
        oracle = InstanceOracle(labels)
        est = gen.build_generic_estimator(
            cls, pivot, oracle, params, m=m, rng=derive_rng(43, "s", seed)
        )
        ok = all(
            abs(est.evaluate(cls.labels[i]) - (err[i] - err[pivot]))
            <= epsilon * (dists[i] + mu) + 1e-12
            for i in range(len(cls))
        )
        hits += ok
    _check(
        results,
        f"approximation inequality holds in {hits}/{trials} seeds (need >= {int(0.9 * trials)})",
        hits >= int(0.9 * trials),
        f"only {hits}",
    )
    return results


def _suite_geometric_bound() -> list:
    results = []
    rng = derive_rng(47, "verify", "geom")
    ok_count, ok_adj, ok_bound, ok_round, detail = True, True, True, True, ""
    for trial in range(10):
        n = int(rng.integers(4, 9))
        features = geo.random_features(n, 2, rng)
        orders, angles = geo.enumerate_orders_2d(features)
        if len(orders) > n * (n - 1):
            ok_count, detail = False, f"trial {trial}: {len(orders)} orders"
        for perm, angle in zip(orders, angles):
            w = np.array([np.cos(angle), np.sin(angle)])
            if geo.induced_permutation(w, features) != perm:
                ok_round, detail = False, f"trial {trial}: witness does not reproduce order"
        for a, b in zip(orders, orders[1:]):
            inv = round(rk.kendall_distance(a, b) * n * (n - 1) / 2)
            if inv != 1:
                ok_adj, detail = False, f"trial {trial}: adjacent orders differ by {inv} pairs"
        pivot = orders[int(rng.integers(len(orders)))]
        radii = [0.0] + [i / (n * (n - 1) / 2) for i in range(1, 6)]
        try:
            geo.verify_disagreement_bound(features, pivot, radii)
        except geo.DisagreementBoundError as exc:
            ok_bound, detail = False, f"trial {trial}: {exc}"
    _check(results, "order count within n(n-1)", ok_count, detail)
    _check(results, "witness directions reproduce their orders", ok_round, detail)
    _check(results, "adjacent cells differ by one inversion", ok_adj, detail)
    _check(results, "disagreement measure within 8rn", ok_bound, detail)
    return results


SUITES = {
    "band-partition": _suite_band_partition,
    "rank-distances": _suite_rank_distances,
    "exactness-ranking": _suite_exactness_ranking,
    "exactness-clustering": _suite_exactness_clustering,
    "exactness-generic": _suite_exactness_generic,
    "unbiasedness-ranking": _suite_unbiasedness_ranking,
    "unbiasedness-clustering": _suite_unbiasedness_clustering,
    "estimator-contract-generic": _suite_estimator_contract_generic,
    "canonicalization": _suite_canonicalization,
    "pseudometric": _suite_pseudometric,
    "delta-consistency": _suite_delta_consistency,
    "oracle-symmetry": _suite_oracle_symmetry,
    "query-bounds": _suite_query_bounds,
    "annuli": _suite_annuli,
    "geometric-bound": _suite_geometric_bound,
    "determinism": _suite_determinism,
}


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SuiteReport(name, SUITES[name]())


def run_all() -> list:
    return [run_suite(name) for name in SUITES]
