"""Named property suites: the one home of every property check.

Each property is a function over explicit inputs (sizes, seeds, build
counts) that returns None, or a counterexample string.  A suite lists its
properties with the fixed inputs `pivotlearn verify` runs; pytest runs the
same functions at those inputs and at larger or hypothesis-drawn ones
(`tests/test_cli.py::test_verify_suite_passes`).
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import clustering as clu
from . import generic as gen
from . import geometric as geo
from . import ranking as rk
from .core import Params, Pool, distance
from .harness import _TASKS, ExperimentConfig, run_experiment, sweep, write_run
from .oracles import InstanceOracle, NoiseSpec, make_clustering_oracle, make_ranking_oracle
from .seeding import derive_rng

__all__ = ["PropertyResult", "SuiteReport", "SUITES", "run_suite"]


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


@dataclass(frozen=True)
class _Property:
    name: str
    check: Callable  # (**case) -> None, or a counterexample string
    cases: tuple  # the input dicts `pivotlearn verify` runs


def _trials(tag: str, count: int, **ranges) -> list:
    """`count` cases with seeds 0.., each size drawn from its [lo, hi) by a seeded stream."""
    rng = derive_rng(7, "verify", tag)
    columns = {name: rng.integers(*bounds, size=count).tolist() for name, bounds in ranges.items()}
    return [{**{name: c[i] for name, c in columns.items()}, "seed": i} for i in range(count)]


# -- ranking and clustering estimators ----------------------------------------------


def _pair_case(n: int, k, eta: float, seed: int):
    """(oracle, pivot, draw) of a seeded ranking fixture (k None) or clustering into k."""
    if k is None:
        draw, make = (lambda rng: rk.random_permutation(n, rng)), make_ranking_oracle
    else:
        draw, make = (lambda rng: clu.random_clustering(n, k, rng)), make_clustering_oracle
    noise = NoiseSpec(kind="uniform_flip", eta=eta) if eta else NoiseSpec()
    oracle = make(draw(derive_rng(seed, "truth")), noise, seed=seed)
    return oracle, draw(derive_rng(seed, "pivot")), draw


def _build(pivot, oracle, size: int, seed: int, **kw):
    """The ranking builder at p = size, or the clustering builder at q = size."""
    params = Params(epsilon=0.2, master_seed=seed)
    if isinstance(pivot, rk.Permutation):
        return rk.build_ranking_estimator(pivot, oracle, params, p=size, **kw)
    return clu.build_clustering_estimator(pivot, oracle, params, q=size, **kw)


def _regrets(pivot, oracle, hypotheses) -> np.ndarray:
    """err(h) - err(pivot) per hypothesis, by a direct scan of every ordered pair."""
    us, vs = Pool(pivot.n_items).all_pairs()
    y = oracle.verification_labels(us, vs)
    base = np.mean(pivot.pair_values(us, vs) != y)
    return np.array([np.mean(h.pair_values(us, vs) != y) - base for h in hypotheses])


def _exhaustive(n: int, k, eta: float, seed: int):
    """Sampled whole (p or q = n), the estimate is the regret of every hypothesis."""
    oracle, pivot, _ = _pair_case(n, k, eta, seed)
    if k is None:
        hs = [rk.Permutation(rank) for rank in rk.all_rank_arrays(n)]
    else:
        hs = [clu.Clustering(assign, k) for assign in clu.all_assignments(n, k)]
    est = _build(pivot, oracle, n, seed)
    gap = np.max(np.abs([est.evaluate(h) for h in hs] - _regrets(pivot, oracle, hs)))
    return None if gap <= 1e-12 else f"n={n} k={k} seed={seed}: |estimate - regret| {gap:.3e}"


def _pivot_zero(n: int, k, size: int, eta: float, seed: int):
    oracle, pivot, _ = _pair_case(n, k, eta, seed)
    est = _build(pivot, oracle, size, seed)
    values = est.evaluate(pivot), est.evaluate_int(pivot)
    return None if values == (0.0, 0) else f"n={n} k={k} size={size}: pivot evaluates to {values}"


def _unbiased(n: int, k, size: int, eta: float, seed: int, builds: int, targets: int):
    """Over `builds` builds the mean estimate sits within 4 standard errors of each regret."""
    oracle, pivot, draw = _pair_case(n, k, eta, seed)
    rng = derive_rng(seed, "verify", "unbias")
    hs = [draw(rng) for _ in range(targets)]
    values = np.array([
        [est.evaluate(h) for h in hs]
        for est in (_build(pivot, oracle, size, seed, rng=derive_rng(seed, "b", b))
                    for b in range(builds))
    ])
    gaps = np.abs(values.mean(axis=0) - _regrets(pivot, oracle, hs))
    tols = np.maximum(4 * values.std(axis=0) / np.sqrt(builds), 1e-12)
    for i in np.flatnonzero(gaps > tols):
        return f"target {i}: |mean - regret| {gaps[i]:.3e} > {tols[i]:.3e} over {builds} builds"


def _query_cap(n: int, k, size: int, seed: int):
    """Distinct labels of one build: ranking n(2p + p(ceil log2 n + 1)), clustering nkq."""
    oracle, pivot, _ = _pair_case(n, k, 0.1, seed)
    _build(pivot, oracle, size, seed, rng=derive_rng(seed, "b"))
    got = oracle.counters.distinct_labeled
    ranking_cap = n * (2 * size + size * (int(np.ceil(np.log2(n))) + 1))
    cap = min(ranking_cap if k is None else n * k * size, n * (n - 1))
    return None if got <= cap else f"n={n} k={k} size={size}: {got} > {cap}"


def _band_partition(n: int, p: int, seed: int):
    """Near set and bands partition V minus u, and band i holds the gaps [2^i p, 2^(i+1) p)."""
    pivot = rk.random_permutation(n, derive_rng(seed, "verify", "bands", n, p))
    plan = rk.band_plan(pivot, p)
    for u in range(n):
        seen = [plan.near_items(u)]
        for i in range(plan.n_bands):
            items = plan.band_items(u, i)
            gaps = np.abs(pivot.rank[items] - pivot.rank[u])
            if len(items) and (gaps.min() < p << i or gaps.max() >= p << (i + 1)):
                return f"n={n} p={p} u={u}: band {i} breaks its gap range"
            seen.append(items)
        if not np.array_equal(np.sort(np.concatenate(seen)), np.delete(np.arange(n), u)):
            return f"n={n} p={p} u={u}: near+bands do not partition V\\{{u}}"


def _two_rankings(n: int, seed: int):
    rng = derive_rng(seed, "verify", "distances")
    return rk.random_permutation(n, rng), rk.random_permutation(n, rng)


def _footrule_sandwich(n: int, seed: int):
    p1, p2 = _two_rankings(n, seed)
    inv = round(rk.kendall_distance(p1, p2) * n * (n - 1) / 2)
    foot = rk.footrule_distance(p1, p2)
    return None if inv <= foot <= 2 * inv else f"n={n} seed={seed}: inv={inv} foot={foot}"


def _inversions_match_scan(n: int, seed: int):
    """count_inversions, and the Kendall distance as a fraction of ordered pairs, match
    a quadratic scan for discordant pairs."""
    p1, p2 = _two_rankings(n, seed)
    seq = p2.rank[p1.order]
    scan = sum(int(np.count_nonzero(seq[i + 1 :] < seq[i])) for i in range(n))
    merged, kendall = rk.count_inversions(seq), rk.kendall_distance(p1, p2)
    ok = merged == scan and abs(kendall - 2 * scan / (n * (n - 1))) <= 1e-12
    return None if ok else f"n={n} seed={seed}: scan {scan}, merge sort {merged}, kendall {kendall}"


def _relabel_invariant(n: int, k: int, seed: int):
    rng = derive_rng(seed, "verify", "canon")
    a = clu.random_clustering(n, k, rng)
    b = clu.Clustering((rng.permutation(k) + 1)[a.assign - 1], k)
    ok = a == b and hash(a) == hash(b)
    return None if ok else f"relabelled partition compared unequal (n={n}, k={k}, seed={seed})"


def _distance_matches_scan(n: int, k: int, seed: int):
    rng = derive_rng(seed, "verify", "canon")
    a, b = clu.random_clustering(n, k, rng), clu.random_clustering(n, k, rng)
    us, vs = Pool(n).all_pairs()
    scan = float(np.mean(a.pair_values(us, vs) != b.pair_values(us, vs)))
    table = a.distance_to(b)
    return None if abs(scan - table) <= 1e-12 else f"n={n} k={k}: table {table} vs scan {scan}"


def _pseudometric(n: int, seed: int):
    rng = derive_rng(seed, "verify", "metric")
    for make in (lambda: rk.random_permutation(n, rng), lambda: clu.random_clustering(n, 3, rng)):
        a, b, c = make(), make(), make()
        if distance(a, a) != 0.0 or abs(distance(a, b) - distance(b, a)) > 1e-12:
            return f"symmetry or identity failed at n={n} seed={seed}"
        if distance(a, b) > distance(a, c) + distance(c, b) + 1e-12:
            return f"triangle inequality failed at n={n} seed={seed}"


def _insertion_deltas(n: int, seed: int):
    """Insertion scores read from the climb's rows match full evaluation."""
    rng = derive_rng(seed, "verify", "delta")
    oracle = _pair_case(n, None, 0.2, 1000 + seed)[0]
    pivot, h = rk.random_permutation(n, rng), rk.random_permutation(n, rng)
    est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.3), p=2, rng=rng)
    partners, deltas, bounds = rk._insertion_csr(est)
    base = est.evaluate_int(h)
    for u in range(n):
        # at slot j, u sits after exactly its partners ranked below j once u is lifted out
        mine = slice(bounds[u], bounds[u + 1])
        lifted = h.rank[partners[mine]] - (h.rank[partners[mine]] > h.rank[u])
        at = [int(deltas[mine][lifted < j].sum()) for j in range(1, n + 1)]
        read = [value - at[h.rank[u] - 1] for value in at]
        if read != [est.evaluate_int(h.move(u, j)) - base for j in range(1, n + 1)]:
            return f"n={n} seed={seed}: item {u}"


def _reassignment_deltas(n: int, k: int, seed: int):
    """Reassignment scores read from the gain table match full evaluation,
    before and after one incremental table update."""
    rng = derive_rng(seed, "verify", "delta")
    oracle = _pair_case(n, k, 0.2, 2000 + seed)[0]
    pivot = clu.random_clustering(n, k, rng)
    est = clu.build_clustering_estimator(pivot, oracle, Params(epsilon=0.3), q=2, rng=rng)
    assign = clu.random_clustering(n, k, rng).assign.copy()
    table = clu._GainTable(est, assign, k)
    for step in range(2):
        base = est.evaluate_int(clu.Clustering(assign, k))
        for u, c in np.ndindex(n, k):
            moved = np.where(np.arange(n) == u, c + 1, assign)
            direct = est.evaluate_int(clu.Clustering(moved, k)) - base
            if table.cost[u, c + 1] - table.cost[u, assign[u]] != direct:
                return f"n={n} k={k} seed={seed}: step {step}, move {(u, c + 1)}"
        table.move(int(rng.integers(n)), int(rng.integers(1, k + 1)))


def _labels_symmetric(n: int, k, seed: int):
    """Ranking labels (k None) are skew-symmetric under every noise kind; clustering
    labels are symmetric under every noise kind clustering takes."""
    rng = derive_rng(seed, "verify", "oracle")
    noises = [NoiseSpec(), NoiseSpec(kind="uniform_flip", eta=0.3)]
    if k is None:
        truth, make = rk.random_permutation(n, rng), make_ranking_oracle
        noises.append(NoiseSpec(kind="distance_decay", rho=1.5, scale=0.4))
    else:
        truth, make = clu.random_clustering(n, k, rng), make_clustering_oracle
    us, vs = Pool(n).all_pairs()
    for noise in noises:
        oracle = make(truth, noise, seed=seed)
        y, back = oracle.verification_labels(us, vs), oracle.verification_labels(vs, us)
        broken = np.any(y + back != 1) if k is None else np.any(y != back)
        if broken:
            return f"{noise.kind} labels break symmetry (n={n}, k={k}, seed={seed})"


# -- generic / geometric -----------------------------------------------------------


def _generic_labels(cls, truth: int, flip: float, *tags) -> np.ndarray:
    return cls.labels[truth] ^ (derive_rng(*tags).random(cls.pool_size) < flip).astype(np.uint8)


def _generic_exhaustive(pool: int, pivot: int, truth: int, flip: float, seed: int):
    """With m = pool every annulus enters whole: the estimate is the regret on the class."""
    cls = gen.thresholds_class(pool)
    labels = _generic_labels(cls, truth, flip, seed, "verify", "generic")
    params = Params(epsilon=0.2, mu=0.05, master_seed=seed)
    est = gen.build_generic_estimator(cls, pivot, InstanceOracle(labels), params, m=pool)
    err = (cls.labels != labels).mean(axis=1)
    gaps = np.abs([est.evaluate(row) for row in cls.labels] - (err - err[pivot]))
    if gaps.max() > 1e-12 or gaps[pivot] != 0.0:
        return f"pool={pool} pivot={pivot}: max |estimate - regret| {gaps.max():.3e}"


def _generic_contract(pool: int, pivot: int, truth: int, flip: float, epsilon: float,
                      mu: float, delta: float, trials: int, seed: int):
    """|estimate - regret| <= epsilon (dist + mu) on every rule at the formula m,
    in at least 90% of trials, each with its own noisy labels."""
    cls = gen.thresholds_class(pool)
    bound = epsilon * (cls.distances(pivot) + mu) + 1e-12
    params = Params(epsilon=epsilon, mu=mu, delta=delta, master_seed=seed)
    hits = 0
    for s in range(trials):
        labels = _generic_labels(cls, truth, flip, seed, "truth", s)
        err = (cls.labels != labels).mean(axis=1)
        est = gen.build_generic_estimator(cls, pivot, InstanceOracle(labels), params,
                                          rng=derive_rng(seed, "s", s))
        values = np.array([est.evaluate(row) for row in cls.labels])
        hits += bool(np.all(np.abs(values - (err - err[pivot])) <= bound))
    need = int(0.9 * trials)
    return None if hits >= need else f"only {hits}/{trials} trials, need {need}"


def _generic_query_cap(family: str, pool: int, pivot: int, m: int, mu: float):
    cls = getattr(gen, f"{family}_class")(pool)
    oracle = InstanceOracle(cls.labels[pivot])
    gen.build_generic_estimator(cls, pivot, oracle, Params(epsilon=0.2, mu=mu), m=m)
    got, cap = oracle.counters.distinct_labeled, m * (int(np.ceil(np.log2(1 / mu))) + 1)
    return None if got <= cap else f"{family} pool={pool}: {got} > {cap}"


def _annuli(family: str, pool: int, mu: float, seed: int):
    cls = getattr(gen, f"{family}_class")(pool)
    pivot = int(derive_rng(seed, "verify", "annuli").integers(len(cls)))
    plan = gen.annulus_plan(cls, pivot, mu)
    return cls, pivot, plan, np.concatenate(plan.annuli)


def _annuli_disjoint(**case):
    combined = _annuli(**case)[3]
    return None if len(np.unique(combined)) == len(combined) else f"{case}: annuli overlap"


def _annuli_cover(**case):
    cls, pivot, plan, combined = _annuli(**case)
    top = gen.disagreement_region(cls, gen.ball(cls, pivot, case["mu"] * (1 << plan.levels)))
    ok = np.array_equal(np.sort(combined), top)
    return None if ok else f"{case}: union is not the top ball's region"


def _annuli_mass(**case):
    return None if sum(_annuli(**case)[2].measures) <= 1 + 1e-12 else f"{case}: mass past 1"


def _planar(n: int, seed: int):
    features = geo.random_features(n, 2, derive_rng(seed, "verify", "geom"))
    return (features, *geo.enumerate_orders_2d(features))


def _order_count(n: int, seed: int):
    """At most n(n-1) orders, and no order twice."""
    orders = _planar(n, seed)[1]
    distinct = len({tuple(o.rank.tolist()) for o in orders})
    ok = len(orders) <= n * (n - 1) and distinct == len(orders)
    return None if ok else f"n={n} seed={seed}: {len(orders)} orders, {distinct} distinct"


def _witnesses_reproduce(n: int, seed: int):
    features, orders, angles = _planar(n, seed)
    for perm, angle in zip(orders, angles):
        if geo.induced_permutation(np.array([np.cos(angle), np.sin(angle)]), features) != perm:
            return f"n={n} seed={seed}: the witness at {angle} does not reproduce its order"


def _adjacent_cells(n: int, seed: int):
    """Consecutive orders around the circle, last and first included, differ by one pair."""
    orders = _planar(n, seed)[1]
    for a, b in zip(orders, orders[1:] + orders[:1]):
        inv = round(rk.kendall_distance(a, b) * n * (n - 1) / 2)
        if inv != 1:
            return f"n={n} seed={seed}: adjacent orders differ by {inv} pairs"


def _disagreement_bound(n: int, seed: int):
    features, orders, _ = _planar(n, seed)
    radii = [0.0] + [i / (n * (n - 1) / 2) for i in range(1, 6)]
    try:
        geo.verify_disagreement_bound(features, orders[seed % len(orders)], radii)
    except geo.DisagreementBoundError as exc:
        return f"n={n} seed={seed}: {exc}"


# -- whole runs ----------------------------------------------------------------------


def _artifacts(config: ExperimentConfig) -> tuple:
    with tempfile.TemporaryDirectory() as out:
        paths = write_run(run_experiment(config), out)
        return tuple(pathlib.Path(paths[name]).read_bytes() for name in ("record", "trajectory"))


def _rerun_identical(config: ExperimentConfig):
    same = _artifacts(config) == _artifacts(config)
    return None if same else f"{config.task} n={config.n}: a rerun wrote other artifact bytes"


def _sweep_identical(config: ExperimentConfig, axis: str, values, workers: int):
    """A sweep's records and summary at `workers` workers are those of a serial sweep."""
    (one, s1), (many, sw) = (sweep(config, axis, values, workers=w) for w in (1, workers))
    same = s1 == sw and [r.to_dict() for r in one] == [r.to_dict() for r in many]
    return None if same else f"{config.task} {axis} sweep differs at 1 and {workers} workers"


def _run_invariants(config: ExperimentConfig):
    record = run_experiment(config)
    label = f"{config.task} n={config.n} seed={config.params.master_seed}"
    if record.trajectory.status != "completed":
        return f"{label}: status {record.trajectory.status!r}"
    spent = sum(row.distinct_queries for row in record.trajectory.rows)
    if spent != record.counters["distinct_labeled"]:
        return f"{label}: rows spend {spent} labels, counters {record.counters['distinct_labeled']}"
    floor = 0.0 if record.nu is None else record.nu - 1e-12
    for row in record.trajectory.rows:
        if row.err is not None and not floor <= row.err <= 1.0:
            return f"{label}: iteration {row.iteration} error {row.err} outside [nu={record.nu}, 1]"


def _stress(config: ExperimentConfig, epsilons: tuple):
    """One small config end to end: its run's invariants, a rerun, and a sweep on two workers."""
    return (_run_invariants(config) or _rerun_identical(config)
            or _sweep_identical(config, "epsilon", epsilons, 2))


_STRESS_SIZES = {"ranking": dict(n=7, force_p=2), "clustering": dict(n=8, k=3, force_q=2),
                 "geometric": dict(n=7, force_p=2), "generic": dict(n=20, force_m=3)}
_STRESS_NOISE = NoiseSpec(), NoiseSpec("uniform_flip", eta=0.2), NoiseSpec("distance_decay")
_STRESS = [  # each task with every noise kind but a label file and every ERM it takes
    dict(config=ExperimentConfig(task=task, noise=noise, erm=erm, **sizes,
                                 params=Params(epsilon=0.3, iterations=2, master_seed=i)),
         epsilons=(0.3, 0.45))
    for i, (task, sizes) in enumerate(_STRESS_SIZES.items())
    for noise in _STRESS_NOISE if noise.kind in _TASKS[task].noise for erm in _TASKS[task].erms
]


_RUN = ExperimentConfig(task="ranking", n=8, noise=NoiseSpec(kind="uniform_flip", eta=0.1),
                        params=Params(epsilon=0.25, iterations=2, master_seed=99))
_PAIRS, _CANON = _trials("distances", 300, n=(2, 60)), _trials("canon", 200, n=(3, 12), k=(2, 5))
_GEOMETRY = _trials("geom", 10, n=(4, 9))
_ANNULI = [  # thresholds over 5..39 instances, intervals over 4..11
    dict(case, family="thresholds", mu=(1.0, 0.5, 0.11, 0.03)[i % 4]) if i % 2 else
    dict(case, family="intervals", pool=4 + case["pool"] % 8, mu=(1.0, 0.5, 0.11, 0.03)[i % 4])
    for i, case in enumerate(_trials("annuli", 30, pool=(5, 40)))
]


def _suites(*entries) -> dict:
    suites = {}
    for suite, name, check, cases in entries:
        suites.setdefault(suite, []).append(_Property(name, check, tuple(cases)))
    return suites


SUITES = _suites(  # (suite, property, check, the inputs `pivotlearn verify` runs)
    *(("band-partition", f"partition n={n} p={p}", _band_partition, [dict(n=n, p=p, seed=7)])
      for n, p in ((8, 2), (30, 3), (157, 5), (1000, 11))),
    ("rank-distances", "footrule sandwich", _footrule_sandwich, _PAIRS),
    ("rank-distances", "inversion count vs quadratic scan", _inversions_match_scan, _PAIRS),
    ("exactness-ranking", "exhaustive mode matches regret", _exhaustive,
     [dict(n=6, k=None, eta=0.2, seed=11)]),
    ("exactness-ranking", "pivot evaluates to zero", _pivot_zero,
     [dict(n=6, k=None, size=6, eta=0.2, seed=11)]),
    ("exactness-clustering", "exhaustive mode matches regret", _exhaustive,
     [dict(n=7, k=3, eta=0.2, seed=13)]),
    ("exactness-generic", "exhaustive fallback matches regret on the class", _generic_exhaustive,
     [dict(pool=40, pivot=9, truth=17, flip=0.2, seed=41)]),
    ("unbiasedness-ranking", "mean over 1500 builds matches regret", _unbiased,
     [dict(n=8, k=None, size=2, eta=0.15, seed=3, builds=1500, targets=5)]),
    ("unbiasedness-clustering", "mean over 1500 builds matches regret", _unbiased,
     [dict(n=8, k=3, size=2, eta=0.15, seed=17, builds=1500, targets=5)]),
    ("estimator-contract-generic", "approximation inequality holds in at least 54/60 seeds",
     _generic_contract, [dict(pool=40, pivot=20, truth=20, flip=0.15, epsilon=0.2, mu=0.01,
                              delta=0.1, trials=60, seed=43)]),
    ("canonicalization", "relabeling-invariant equality", _relabel_invariant, _CANON),
    ("canonicalization", "intersection-table distance equals pair scan", _distance_matches_scan,
     _CANON),
    ("pseudometric", "identity, symmetry, triangle inequality", _pseudometric,
     _trials("metric", 120, n=(3, 10))),
    ("delta-consistency", "insertion deltas match full evaluation", _insertion_deltas,
     _trials("delta", 60, n=(4, 10))),
    ("delta-consistency", "reassignment deltas match full evaluation", _reassignment_deltas,
     _trials("delta", 60, n=(4, 10), k=(3, 4))),
    ("oracle-symmetry", "ranking labels skew-symmetric under all noise kinds", _labels_symmetric,
     [{**c, "k": None} for c in _trials("oracle", 40, n=(3, 20))]),
    ("oracle-symmetry", "clustering labels symmetric", _labels_symmetric,
     _trials("oracle", 40, n=(3, 20), k=(3, 4))),
    ("query-bounds", "ranking distinct pairs under construction cap", _query_cap,
     [dict(n=64, k=None, size=3, seed=5)]),
    ("query-bounds", "clustering distinct pairs under n*k*q", _query_cap,
     [dict(n=40, k=3, size=4, seed=5)]),
    ("query-bounds", "generic labeled instances under m*(levels+1)", _generic_query_cap,
     [dict(family="thresholds", pool=30, pivot=12, m=4, mu=0.05)]),
    ("annuli", "annuli disjoint", _annuli_disjoint, _ANNULI),
    ("annuli", "annuli union covers the top ball's disagreements", _annuli_cover, _ANNULI),
    ("annuli", "annulus measures sum to at most 1", _annuli_mass, _ANNULI),
    ("geometric-bound", "order count within n(n-1)", _order_count, _GEOMETRY),
    ("geometric-bound", "witness directions reproduce their orders", _witnesses_reproduce,
     _GEOMETRY),
    ("geometric-bound", "adjacent cells differ by one inversion", _adjacent_cells, _GEOMETRY),
    ("geometric-bound", "disagreement measure within 8rn", _disagreement_bound, _GEOMETRY),
    ("determinism", "repeated run records identical", _rerun_identical, [dict(config=_RUN)]),
    ("determinism", "sweep summaries identical at 1 and 8 workers", _sweep_identical,
     [dict(config=_RUN.with_overrides(erm="local_search", restarts=3), axis="n",
           values=(6, 8, 10), workers=8)]),
    ("stress", "small runs complete, account for their labels, keep errors in [nu, 1] and "
               "repeat across reruns and workers", _stress, _STRESS),
)


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    results = []
    for prop in SUITES[name]:
        problem = next(filter(None, (prop.check(**case) for case in prop.cases)), None)
        results.append(PropertyResult(prop.name, problem is None, problem or ""))
    return SuiteReport(name, results)
