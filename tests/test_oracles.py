import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import (
    BudgetExceededError,
    InstanceOracle,
    NoiseSpec,
    PairInstanceOracle,
    Pool,
    make_clustering_oracle,
    make_ranking_oracle,
)
from pivotlearn import clustering as clu
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.oracles import OracleFormatError, distinct_count, load_oracle, save_oracle
from pivotlearn.seeding import derive_rng, pair_uniform


def _perm(n, seed):
    return rk.random_permutation(n, derive_rng(seed, "perm"))


def test_noise_spec_validation():
    NoiseSpec(kind="none")
    NoiseSpec(kind="uniform_flip", eta=0.3)
    with pytest.raises(ValueError):
        NoiseSpec(kind="uniform_flip", eta=0.6)  # flips past 1/2 invert the truth
    with pytest.raises(ValueError):
        NoiseSpec(kind="banana")
    with pytest.raises(ValueError):
        NoiseSpec(kind="distance_decay", rho=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(kind="adversarial_file")  # needs a path


def test_noise_spec_roundtrip():
    spec = NoiseSpec(kind="distance_decay", rho=0.5, scale=0.3)
    assert NoiseSpec.from_dict(spec.to_dict()) == spec


def test_noiseless_ranking_labels_follow_truth():
    n = 6
    truth = _perm(n, 1)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="none"), seed=1)
    us, vs = Pool(n).all_pairs()
    assert np.array_equal(oracle.query_many(us, vs), truth.pair_values(us, vs))
    assert oracle.ground_truth_error() == 0.0


def test_ranking_labels_skew_symmetric():
    """label(u,v) + label(v,u) = 1 under every noise kind."""
    assert verify._labels_symmetric(n=7, k=None, seed=2) is None


def test_clustering_labels_symmetric():
    assert verify._labels_symmetric(n=7, k=3, seed=3) is None


def test_uniform_flip_rate():
    n = 60
    truth = _perm(n, 4)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=4)
    us, vs = Pool(n).all_pairs()
    flips = np.mean(oracle.verification_labels(us, vs) != truth.pair_values(us, vs))
    assert abs(flips - 0.2) < 0.02
    assert oracle.ground_truth_error() == pytest.approx(flips)


def test_labels_are_deterministic_per_pair():
    n = 8
    truth = _perm(n, 5)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.4), seed=5)
    us = np.array([0, 3, 5])
    vs = np.array([1, 2, 6])
    first = oracle.query_many(us, vs)
    for _ in range(3):
        assert np.array_equal(oracle.query_many(us, vs), first)


def test_counters_track_distinct_and_raw():
    n = 6
    oracle = make_ranking_oracle(_perm(n, 6), NoiseSpec(kind="none"), seed=6)
    us = np.array([0, 0, 1, 0])
    vs = np.array([1, 2, 0, 1])
    oracle.query_many(us, vs)
    # (0,1), (0,2), (1,0) -> 2 distinct unordered pairs, 4 raw calls
    assert oracle.counters.raw_calls == 4
    assert oracle.counters.distinct_labeled == 2
    # (2,0) repeats the unordered pair {0,2}; only (0,3) is new
    oracle.query_many(np.array([2, 0]), np.array([0, 3]))
    assert oracle.counters.distinct_labeled == 3
    assert oracle.counters.raw_calls == 6


def test_budget_check_is_atomic():
    """A rejected batch must not consume any budget or mark pairs seen."""
    n = 8
    oracle = make_ranking_oracle(_perm(n, 7), NoiseSpec(kind="none"), seed=7, budget=3)
    with pytest.raises(BudgetExceededError):
        oracle.query_many(np.arange(4), np.arange(4) + 4)
    assert oracle.counters.distinct_labeled == 0
    oracle.query_many(np.arange(3), np.arange(3) + 4)  # still fits
    assert oracle.counters.distinct_labeled == 3
    # repeats of seen pairs are free
    oracle.query_many(np.arange(3), np.arange(3) + 4)
    assert oracle.counters.distinct_labeled == 3
    with pytest.raises(BudgetExceededError):
        oracle.query_many(np.array([6]), np.array([7]))


def _seen_pairs(oracle):
    lo, hi = np.divmod(oracle._seen, oracle.n)
    return set(zip(lo.tolist(), hi.tolist()))


def _assert_seen_keys_valid(oracle):
    """The seen set is strictly increasing keys lo*n + hi with lo < hi < n."""
    keys = oracle._seen
    assert keys.dtype == np.int64
    assert np.all(np.diff(keys) > 0)
    lo, hi = np.divmod(keys, oracle.n)
    assert np.all((0 <= lo) & (lo < hi) & (hi < oracle.n))


@given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 10_000),
       st.lists(st.tuples(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                                   min_size=1, max_size=10),
                          st.integers(0, 10)),
                max_size=6))
@settings(max_examples=100, deadline=None)
def test_query_many_batches_are_atomic(n, budget, seed, batches):
    """Batches with duplicate and reversed pairs under a budget: a rejected
    batch leaves the counters and the seen set as they were; an accepted one
    adds exactly its new unordered pairs and len(us) raw calls."""
    oracle = make_ranking_oracle(_perm(n, seed), NoiseSpec(kind="uniform_flip", eta=0.2),
                                 seed=seed, budget=budget)
    for raw, mirrored in batches:
        pairs = [(u % n, v % n) for u, v in raw if u % n != v % n]
        pairs += [(v, u) for u, v in pairs[:mirrored]]
        if not pairs:
            continue
        us = np.array([u for u, _ in pairs])
        vs = np.array([v for _, v in pairs])
        before, seen = oracle.counters.snapshot(), _seen_pairs(oracle)
        new = {(min(u, v), max(u, v)) for u, v in pairs} - seen
        if before.distinct_labeled + len(new) > budget:
            with pytest.raises(BudgetExceededError):
                oracle.query_many(us, vs)
            assert oracle.counters == before
            assert _seen_pairs(oracle) == seen
            continue
        assert len(oracle.query_many(us, vs)) == len(us)
        assert oracle.counters.distinct_labeled == before.distinct_labeled + len(new)
        assert oracle.counters.raw_calls == before.raw_calls + len(us)
        assert oracle.counters.verification_reads == before.verification_reads
        assert _seen_pairs(oracle) == seen | new
        _assert_seen_keys_valid(oracle)


def test_seen_set_memory_follows_the_labels():
    """A dense n x n seen table would request 2.5 GB here."""
    n = 50_000
    truth = rk.Permutation.identity(n)  # built untraced: its checks make Python lists
    rng = derive_rng(14, "big")
    us = rng.integers(0, n, 1000)
    vs = (us + rng.integers(1, n, 1000)) % n
    tracemalloc.start()
    try:
        oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.1), seed=14)
        oracle.query_many(us, vs)
        oracle.query_many(vs, us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle.counters.distinct_labeled == len(_seen_pairs(oracle)) <= 1000
    _assert_seen_keys_valid(oracle)
    assert peak < 2 * 2**20


# 2**16 pairs is one label-hashing block: one pair past it, and three whole blocks
_BLOCK_BATCHES = [2**16 + 1, 3 * 2**16]


def _label_oracles(tmp_path):
    """(name, oracle, pair-by-pair label function) for every way labels are made."""
    n, seed = 300, 15
    truth = _perm(n, seed)
    ranking = lambda noise: make_ranking_oracle(truth, noise, seed=seed)  # noqa: E731
    clusters = clu.random_clustering(n, 4, derive_rng(seed, "t"))
    eta = 0.2
    decay = NoiseSpec(kind="distance_decay", rho=0.8, scale=0.7)

    def decay_flip(u, v):
        gap = abs(int(truth.rank[u]) - int(truth.rank[v]))
        return float(pair_uniform(seed, u, v)) < min(1.0, decay.scale * gap**-decay.rho)

    small = make_ranking_oracle(_perm(20, seed), NoiseSpec(kind="uniform_flip", eta=eta),
                                seed=seed)
    path = str(tmp_path / "labels.csv")
    save_oracle(small, path)
    table = small.full_table()
    return [
        ("ranking-uniform_flip", ranking(NoiseSpec(kind="uniform_flip", eta=eta)),
         lambda u, v: (truth.rank[u] < truth.rank[v]) ^ (float(pair_uniform(seed, u, v)) < eta)),
        ("ranking-distance_decay", ranking(decay),
         lambda u, v: (truth.rank[u] < truth.rank[v]) ^ decay_flip(u, v)),
        ("clustering", make_clustering_oracle(clusters, NoiseSpec(kind="uniform_flip", eta=eta),
                                              seed=seed),
         lambda u, v: (clusters.assign[u] == clusters.assign[v])
         ^ (float(pair_uniform(seed, u, v)) < eta)),
        ("label_table", load_oracle(path), lambda u, v: table[u, v]),
    ]


def _random_pairs(n, size, seed):
    rng = derive_rng(seed, "pairs", n, size)
    us = rng.integers(0, n, size)
    return us, (us + rng.integers(1, n, size)) % n


@pytest.mark.parametrize("size", _BLOCK_BATCHES)
def test_labels_of_a_multi_block_batch_match_pair_by_pair(size, tmp_path):
    """Each pair near a block edge, and every 61st, against its own scalar label."""
    near_edges = (np.arange(0, size + 2**16, 2**16)[:, None] + [-2, -1, 0, 1]).ravel()
    check = np.unique(np.concatenate([np.arange(0, size, 61), near_edges]))
    check = check[(check >= 0) & (check < size)]
    for name, oracle, label in _label_oracles(tmp_path):
        us, vs = _random_pairs(oracle.n, size, 16)
        got = oracle.query_many(us, vs)
        assert got.shape == (size,) and got.dtype == np.uint8, name
        ref = [int(label(int(us[i]), int(vs[i]))) for i in check]
        assert got[check].tolist() == ref, name
        # the whole batch against labels made in small batches
        small = np.concatenate([oracle.verification_labels(us[i:i + 999], vs[i:i + 999])
                                for i in range(0, size, 999)])
        assert np.array_equal(got, small), name


def test_label_hashing_memory_is_flat_in_batch_size():
    """2**20 pairs: unblocked, the hashing would hold several 8 MB uint64 arrays at once."""
    oracle = make_ranking_oracle(_perm(3000, 19), NoiseSpec(kind="uniform_flip", eta=0.1), seed=19)
    us, vs = _random_pairs(oracle.n, 2**20, 19)
    tracemalloc.start()
    try:
        labels = oracle.verification_labels(us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 2**20
    assert peak < 8 * 2**20


def test_rejected_multi_block_batch_changes_nothing():
    n = 2000
    oracle = make_ranking_oracle(_perm(n, 17), NoiseSpec(kind="uniform_flip", eta=0.1),
                                 seed=17, budget=2**15)
    us, vs = _random_pairs(n, 1000, 17)
    oracle.query_many(us, vs)
    before, seen = oracle.counters.snapshot(), oracle._seen.copy()
    big_us, big_vs = _random_pairs(n, 2**16 + 1, 18)
    with pytest.raises(BudgetExceededError):
        oracle.query_many(big_us, big_vs)
    assert oracle.counters == before
    assert np.array_equal(oracle._seen, seen)


@pytest.mark.parametrize("keys", [
    [],
    [5],
    [7] * 9,
    [-3, -3, 0, 2**40, 2**40, -3],
    derive_rng(4, "keys").integers(0, 50, 300).tolist(),
    derive_rng(5, "keys").integers(-2**62, 2**62, 1000).tolist(),
], ids=["empty", "one", "all-duplicate", "mixed", "random-dense", "random-wide"])
def test_distinct_count_matches_set(keys):
    assert distinct_count(np.array(keys, dtype=np.int64)) == len(set(keys))


def _instance_seen(oracle):
    return set(np.flatnonzero(oracle._seen).tolist())


@given(st.integers(1, 12), st.integers(0, 15),
       st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=12), max_size=6))
@settings(max_examples=100, deadline=None)
def test_instance_query_many_batches_are_atomic(pool, budget, batches):
    """Instance batches with duplicates under a budget: a rejected batch
    leaves the counters and the seen set as they were; an accepted one adds
    exactly its new instances and len(idx) raw calls."""
    oracle = InstanceOracle(np.arange(pool) % 2, budget=budget)
    for raw in batches:
        idx = np.array([i % pool for i in raw])
        before, seen = oracle.counters.snapshot(), _instance_seen(oracle)
        new = set(idx.tolist()) - seen
        if before.distinct_labeled + len(new) > budget:
            with pytest.raises(BudgetExceededError) as exc:
                oracle.query_many(idx)
            assert exc.value.requested == len(new)
            assert oracle.counters == before
            assert _instance_seen(oracle) == seen
            continue
        assert np.array_equal(oracle.query_many(idx), idx % 2)
        assert oracle.counters.distinct_labeled == before.distinct_labeled + len(new)
        assert oracle.counters.raw_calls == before.raw_calls + len(idx)
        assert _instance_seen(oracle) == seen | new


@pytest.mark.parametrize("us, vs, message", [
    ([0, 1], [1], "same shape"),
    ([0, 2], [1, 2], "must be distinct"),
    ([0, -1], [1, 2], "out of range"),
    ([0, 1], [1, 5], "out of range"),
    ([5, 1], [1, 2], "out of range"),
    ([0, 1], [-2, 2], "out of range"),
    # a self pair and an out-of-range index in one batch: the self pair is named
    ([3, 0], [3, 9], "must be distinct"),
    ([0, 3], [9, 3], "must be distinct"),
])
def test_pair_queries_refuse_bad_batches_in_order(us, vs, message):
    oracle = make_ranking_oracle(_perm(5, 11), NoiseSpec(kind="uniform_flip", eta=0.1), seed=11)
    for read in (oracle.query_many, oracle.verification_labels):
        with pytest.raises(ValueError, match=message):
            read(np.array(us), np.array(vs))
    assert oracle.counters == type(oracle.counters)()


def test_pair_queries_accept_an_empty_batch():
    oracle = make_ranking_oracle(_perm(5, 12), NoiseSpec(kind="none"), seed=12, budget=0)
    empty = np.array([], dtype=np.int64)
    assert len(oracle.query_many(empty, empty)) == 0
    assert oracle.counters.distinct_labeled == oracle.counters.raw_calls == 0


def test_verification_is_uncapped_and_counted_separately():
    n = 6
    oracle = make_ranking_oracle(_perm(n, 8), NoiseSpec(kind="none"), seed=8, budget=1)
    us, vs = Pool(n).all_pairs()
    oracle.verification_labels(us, vs)
    assert oracle.counters.distinct_labeled == 0
    assert oracle.counters.verification_reads == len(us)


def test_full_table_matches_queries():
    n = 5
    truth = _perm(n, 9)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.3), seed=9)
    table = oracle.full_table()
    us, vs = Pool(n).all_pairs()
    assert np.array_equal(table[us, vs], oracle.verification_labels(us, vs))


# ------------------------------------------------------------ instance mode

def test_instance_oracle_semantics():
    labels = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    orc = InstanceOracle(labels, budget=4)
    got = orc.query_many(np.array([0, 2, 0]))
    assert np.array_equal(got, [1, 1, 1])
    assert orc.counters.distinct_labeled == 2
    with pytest.raises(BudgetExceededError):
        orc.query_many(np.array([1, 3, 4]))
    assert orc.counters.distinct_labeled == 2
    assert orc.pool_size == 5


def test_instance_oracle_verification_charges_reads():
    orc = InstanceOracle(np.array([0, 1], dtype=np.uint8))
    out = orc.verification_labels()
    assert np.array_equal(out, [0, 1])
    assert orc.counters.verification_reads == 2
    assert orc.counters.distinct_labeled == 0


def test_pair_instance_adapter():
    n = 5
    truth = _perm(n, 10)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="none"), seed=10)
    us, vs = Pool(n).all_pairs()
    pairs = np.stack([us, vs], axis=1)
    adapter = PairInstanceOracle(oracle, pairs)
    assert adapter.pool_size == n * (n - 1)
    idx = np.array([0, 7, 3])
    assert np.array_equal(adapter.query_many(idx),
                          oracle.verification_labels(us[idx], vs[idx]))
    assert oracle.counters.distinct_labeled > 0  # adapter spends the shared budget


@pytest.mark.parametrize("idx", [[-1], [20], [0, 3, 20]])
def test_instance_oracles_refuse_out_of_range_indices(idx):
    oracle = make_ranking_oracle(_perm(5, 10), NoiseSpec(kind="none"), seed=10)
    us, vs = Pool(5).all_pairs()
    for orc in (InstanceOracle(np.zeros(20, dtype=np.uint8)),
                PairInstanceOracle(oracle, np.stack([us, vs], axis=1))):
        with pytest.raises(ValueError, match="instance index out of range"):
            orc.query_many(np.array(idx))
        assert orc.counters.distinct_labeled == orc.counters.raw_calls == 0


@pytest.mark.parametrize("labels", [[0, 2, 1], [0, -1], [0.5, 1], [256, 0]])
def test_instance_oracle_refuses_non_binary_labels(labels):
    with pytest.raises(ValueError, match="0 or 1"):
        InstanceOracle(np.array(labels))


# ------------------------------------------------------------- persistence

def test_save_load_roundtrip(tmp_path):
    n = 7
    truth = _perm(n, 11)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.25), seed=11)
    csv_path = str(tmp_path / "labels.csv")
    sidecar = save_oracle(oracle, csv_path)
    loaded = load_oracle(csv_path)
    us, vs = Pool(n).all_pairs()
    assert np.array_equal(loaded.verification_labels(us, vs),
                          oracle.verification_labels(us, vs))
    meta = json.loads(open(sidecar).read())
    assert meta["n"] == n
    assert meta["mode"] == "ranking"


def test_loaded_oracle_reports_realized_error(tmp_path):
    n = 6
    truth = _perm(n, 12)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=12)
    path = str(tmp_path / "o.csv")
    save_oracle(oracle, path)
    loaded = load_oracle(path)
    assert loaded.noise.kind == "adversarial_file"
    assert loaded.ground_truth_error() is None  # truth not stored, only labels


def test_load_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,v,label\n0,1,1\n0,2,1\n1,2,0\n")
    sidecar = tmp_path / "bad.csv.json"
    sidecar.write_text(json.dumps({"mode": "ranking", "n": 3}))
    # mutate one mirror entry: ranking file stores u<v rows, loader must
    # reject a duplicate row that contradicts an existing one
    path.write_text("u,v,label\n0,1,1\n0,1,0\n1,2,0\n0,2,1\n")
    with pytest.raises(OracleFormatError) as exc:
        load_oracle(str(path))
    assert "0" in str(exc.value) and "1" in str(exc.value)  # names the pair


def test_load_rejects_missing_pairs(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("u,v,label\n0,1,1\n0,2,1\n")  # (1,2) absent
    sidecar = tmp_path / "gap.csv.json"
    sidecar.write_text(json.dumps({"mode": "ranking", "n": 3}))
    with pytest.raises(OracleFormatError):
        load_oracle(str(path))


def test_load_names_a_missing_pair_among_enough_rows(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("u,v,label\n0,1,1\n1,0,0\n0,2,1\n")  # 3 rows, (1,2) absent
    with pytest.raises(OracleFormatError, match=r"pair \(1, 2\) is missing"):
        load_oracle(str(path), mode="ranking")


def test_load_counts_rows_before_allocating(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("u,v,label\n0,4999,1\n")  # implies n = 5000, one pair of 12.5M
    tracemalloc.start()
    try:
        with pytest.raises(OracleFormatError, match="pair rows"):
            load_oracle(str(path), mode="ranking")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_clustering_oracle_roundtrip(tmp_path):
    n = 6
    truth = clu.random_clustering(n, 3, derive_rng(13, "t"))
    oracle = make_clustering_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.1), seed=13)
    path = str(tmp_path / "c.csv")
    save_oracle(oracle, path)
    loaded = load_oracle(path)
    us, vs = Pool(n).all_pairs()
    assert np.array_equal(loaded.verification_labels(us, vs),
                          oracle.verification_labels(us, vs))
