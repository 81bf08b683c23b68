import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import (
    BudgetExceededError,
    InstanceOracle,
    NoiseSpec,
    load_class_csv,
    make_clustering_oracle,
    make_ranking_oracle,
    true_error,
)
from pivotlearn import clustering as clu
from pivotlearn import oracles
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.core import all_pairs, index_dtype, upper_pairs
from pivotlearn.oracles import LabelOracle, OracleFormatError, load_oracle, save_oracle
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


_NOT_FINITE = {"1e400": 10**400, "None": None, "list": [0.1], "True": True, "str": "x",
               "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("name", ["eta", "rho", "scale"])
@pytest.mark.parametrize("value", list(_NOT_FINITE.values()), ids=list(_NOT_FINITE))
def test_noise_spec_refuses_a_non_finite_number_by_name(name, value):
    with pytest.raises(ValueError) as exc:
        NoiseSpec(kind="uniform_flip", **{name: value})
    assert exc.value.field == name
    assert str(exc.value) == f"{name} must be a finite number, got {value!r}"


@pytest.mark.parametrize("value", [np.float16(0.25), np.float32(0.25), np.float64(0.25),
                                   np.int64(0), np.uint8(0), 0, 0.25])
def test_noise_spec_takes_numpy_numbers_without_a_warning(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = NoiseSpec(kind="uniform_flip", eta=value)
    assert type(spec.eta) is float and spec.eta == float(value)


def test_noise_spec_roundtrip():
    spec = NoiseSpec(kind="distance_decay", rho=0.5, scale=0.3)
    assert NoiseSpec(**asdict(spec)) == spec


def test_noiseless_ranking_labels_follow_truth():
    n = 6
    truth = _perm(n, 1)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="none"), seed=1)
    us, vs = all_pairs(n)
    assert np.array_equal(oracle.query_many(us, vs), truth.pair_values(us, vs))
    assert true_error(truth, oracle) == 0.0


def test_ranking_labels_skew_symmetric():
    """label(u,v) + label(v,u) = 1 under every noise kind."""
    assert verify._labels_symmetric(n=7, k=None, seed=2) is None


def test_clustering_labels_symmetric():
    assert verify._labels_symmetric(n=7, k=3, seed=3) is None


def test_uniform_flip_rate():
    n = 60
    truth = _perm(n, 4)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=4)
    us, vs = all_pairs(n)
    flips = np.mean(oracle.verification_labels(us, vs) != truth.pair_values(us, vs))
    assert abs(flips - 0.2) < 0.02
    assert true_error(truth, oracle) == pytest.approx(flips)


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
    """The seen set is strictly increasing keys lo*n + hi with lo < hi < n, in index_dtype(n*n)."""
    keys = oracle._seen
    assert keys.dtype == index_dtype(oracle.n * oracle.n)
    assert np.all(keys[1:] > keys[:-1])
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
        before, seen = replace(oracle.counters), _seen_pairs(oracle)
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


# (n, id dtype, key dtype): ids switch dtype past 256 and 65,536 items, keys
# lo*n + hi past 16 and 32 bits
_KEY_BOUNDARIES = [
    (256, np.uint8, np.uint16), (257, np.uint16, np.uint32),
    (65_536, np.uint16, np.uint32), (65_537, np.uint32, np.uint64),
]


@pytest.mark.parametrize("n, ids, keys", _KEY_BOUNDARIES)
def test_seen_keys_narrow_exactly_at_dtype_boundaries(n, ids, keys):
    """Narrow and int64 ids of the same pairs, the top ids among them, give
    the same labels, counts and seen pairs, held in index_dtype(n*n)."""
    rng = derive_rng(n, "keys")
    us = np.concatenate([[n - 1, 0, n - 2], rng.integers(0, n, size=37)])
    vs = (us + rng.integers(1, n, size=len(us))) % n
    truth = rk.random_permutation(n, rng)
    narrow, wide = (make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.3), seed=n)
                    for _ in range(2))
    got = narrow.query_many(us.astype(ids), vs.astype(ids))
    np.testing.assert_array_equal(got, wide.query_many(us, vs))
    np.testing.assert_array_equal(got, wide.verification_labels(us, vs))
    assert narrow._seen.dtype == wide._seen.dtype == keys
    np.testing.assert_array_equal(narrow._seen, wide._seen)
    pairs = {(min(u, v), max(u, v)) for u, v in zip(us.tolist(), vs.tolist())}
    assert _seen_pairs(narrow) == pairs
    assert narrow.counters.distinct_labeled == len(pairs)
    _assert_seen_keys_valid(narrow)


def test_seen_keys_past_32_bits():
    """At n = 70,000, n*n passes 2**32: the top pairs, queried twice and
    mirrored, count once each and decode from uint64 keys."""
    n = 70_000
    oracle = make_ranking_oracle(rk.Permutation.identity(n), NoiseSpec(), seed=0)
    top = np.arange(n - 6, n)
    us, vs = top[:-1].repeat(2), top[1:].repeat(2)
    oracle.query_many(us, vs)
    assert oracle.counters.distinct_labeled == 5
    oracle.query_many(vs, us)
    oracle.query_many(np.uint32([n - 1]), np.uint32([0]))
    assert oracle.counters.distinct_labeled == 6
    assert oracle._seen.dtype == np.uint64 and int(oracle._seen[-1]) > 2**32
    assert _seen_pairs(oracle) == {(0, n - 1), *zip(top[:-1].tolist(), top[1:].tolist())}
    _assert_seen_keys_valid(oracle)


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

    small_truth = _perm(20, seed)
    small = make_ranking_oracle(small_truth, NoiseSpec(kind="uniform_flip", eta=eta), seed=seed)
    path = str(tmp_path / "labels.csv")
    save_oracle(small, path)
    return [
        ("ranking-uniform_flip", ranking(NoiseSpec(kind="uniform_flip", eta=eta)),
         lambda u, v: (truth.rank[u] < truth.rank[v]) ^ (float(pair_uniform(seed, u, v)) < eta)),
        ("ranking-distance_decay", ranking(decay),
         lambda u, v: (truth.rank[u] < truth.rank[v]) ^ decay_flip(u, v)),
        ("clustering", make_clustering_oracle(clusters, NoiseSpec(kind="uniform_flip", eta=eta),
                                              seed=seed),
         lambda u, v: (clusters.assign[u] == clusters.assign[v])
         ^ (float(pair_uniform(seed, u, v)) < eta)),
        ("label_table", load_oracle(path),
         lambda u, v: (small_truth.rank[u] < small_truth.rank[v])
         ^ (float(pair_uniform(seed, u, v)) < eta)),
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
    before, seen = replace(oracle.counters), oracle._seen.copy()
    big_us, big_vs = _random_pairs(n, 2**16 + 1, 18)
    with pytest.raises(BudgetExceededError):
        oracle.query_many(big_us, big_vs)
    assert oracle.counters == before
    assert np.array_equal(oracle._seen, seen)


def _instance_seen(oracle):
    return set(oracle._seen.tolist())


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
        before, seen = replace(oracle.counters), _instance_seen(oracle)
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


@pytest.mark.parametrize("us, vs, message", [
    ([[0], [2]], [[1, 2, 3]], "must be distinct"),  # a self pair inside the block
    ([[0], [5]], [[1, 2]], "out of range"),
    ([[0], [1]], [[2, -1]], "out of range"),
    ([[0.0], [1.0]], [[2, 3]], "integer"),
    ([[0, 1], [2, 3], [4, 0]], [[1, 2, 3, 4], [3, 4, 0, 2]], "same shape"),  # (R, 2) x (2, C)
    ([[0, 1]], [[2], [3]], "same shape"),  # (1, C) x (R, 1): the outer form turned over
    ([[0], [1]], [2, 3, 4], "same shape"),
    ([[4], [1]], [[0, 4]], "must be distinct"),  # at the largest row id and column id
    ([[1], [3]], [[3, 9]], "must be distinct"),  # at the largest row id and least column id
])
def test_outer_blocks_refuse_bad_batches(us, vs, message):
    oracle = make_ranking_oracle(_perm(5, 11), NoiseSpec(kind="uniform_flip", eta=0.1), seed=11)
    with pytest.raises(ValueError, match=message):
        oracle.verification_labels(np.array(us), np.array(vs))
    assert oracle.counters == type(oracle.counters)()


def test_query_many_refuses_the_outer_form():
    """Ledger keys are per pair, so a labeled query names every pair itself."""
    oracle = make_ranking_oracle(_perm(5, 11), NoiseSpec(kind="none"), seed=11)
    with pytest.raises(ValueError, match="same shape"):
        oracle.query_many(np.array([[0], [1]]), np.array([[2, 3, 4]]))
    assert oracle.counters == type(oracle.counters)()
    assert oracle.verification_labels(np.array([[0], [1]]), np.array([[2, 3, 4]])).shape == (2, 3)


_OUTER_NOISES = [
    ("ranking", NoiseSpec(kind="none")),
    ("ranking", NoiseSpec(kind="uniform_flip", eta=0.3)),
    ("ranking", NoiseSpec(kind="distance_decay", rho=0.7, scale=0.6)),
    ("clustering", NoiseSpec(kind="none")),
    ("clustering", NoiseSpec(kind="uniform_flip", eta=0.3)),
]


@pytest.mark.parametrize("cap", [None, 5])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_outer_block_labels_match_pair_by_pair(cap, data):
    """(R, 1) ids against (1, C) ids read the labels of each pair on its own,
    hashed under every noise kind or read from a label table; with the block
    cap at a few pairs, in row runs and column chunks."""
    n = data.draw(st.integers(2, 16), label="n")
    mode, noise = data.draw(st.sampled_from(_OUTER_NOISES), label="oracle")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    ids = data.draw(st.permutations(range(n)), label="ids")
    rows = data.draw(st.integers(1, n - 1), label="rows")
    cols = data.draw(st.integers(1, n - rows), label="cols")
    us, vs = np.array(ids[:rows])[:, None], np.array(ids[rows:rows + cols])[None, :]
    rng = derive_rng(seed, "outer")
    if mode == "ranking":
        hashed = make_ranking_oracle(rk.random_permutation(n, rng), noise, seed=seed)
    else:
        hashed = make_clustering_oracle(clu.random_clustering(n, 3, rng), noise, seed=seed)
    table = np.zeros((n, n), np.uint8)
    off = ~np.eye(n, dtype=bool)
    table[off] = hashed.verification_labels(*np.nonzero(off))
    tabled = LabelOracle(mode, seed=seed, label_table=table,
                         noise=NoiseSpec(kind="adversarial_file", path="labels.csv"))
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(oracles, "_HASH_BLOCK_PAIRS", cap)
        for oracle in (hashed, tabled):
            reads = oracle.counters.verification_reads
            got = oracle.verification_labels(us, vs)
            assert got.shape == (rows, cols) and got.dtype == np.uint8
            assert oracle.counters.verification_reads - reads == rows * cols
            ref = [[int(oracle.verification_labels(np.array([u]), np.array([v]))[0])
                    for v in vs[0].tolist()] for u in us[:, 0].tolist()]
            assert got.tolist() == ref


def test_pair_queries_accept_an_empty_batch():
    oracle = make_ranking_oracle(_perm(5, 12), NoiseSpec(kind="none"), seed=12, budget=0)
    empty = np.array([], dtype=np.int64)
    assert len(oracle.query_many(empty, empty)) == 0
    assert oracle.counters.distinct_labeled == oracle.counters.raw_calls == 0


def test_verification_is_uncapped_and_counted_separately():
    n = 6
    oracle = make_ranking_oracle(_perm(n, 8), NoiseSpec(kind="none"), seed=8, budget=1)
    us, vs = all_pairs(n)
    oracle.verification_labels(us, vs)
    assert oracle.counters.distinct_labeled == 0
    assert oracle.counters.verification_reads == len(us)


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


@pytest.mark.parametrize("idx", [[-1], [20], [0, 3, 20]])
def test_instance_oracles_refuse_out_of_range_indices(idx):
    orc = InstanceOracle(np.zeros(20, dtype=np.uint8))
    with pytest.raises(ValueError, match="instance index out of range"):
        orc.query_many(np.array(idx))
    assert orc.counters.distinct_labeled == orc.counters.raw_calls == 0


def test_pair_counters_count_every_pair_of_a_2d_batch():
    n = 6
    oracle = make_ranking_oracle(_perm(n, 13), NoiseSpec(kind="uniform_flip", eta=0.2), seed=13)
    us = np.array([[0, 1, 2], [0, 3, 4]])
    vs = np.array([[1, 2, 3], [1, 5, 0]])  # (0, 1) twice, (0, 4) once: 5 distinct of 6
    labels = oracle.query_many(us, vs)
    assert labels.shape == (2, 3)
    assert np.array_equal(labels, oracle.verification_labels(us, vs))
    assert oracle.counters.raw_calls == 6
    assert oracle.counters.distinct_labeled == 5
    assert oracle.counters.verification_reads == 6


def test_instance_counters_count_every_index_of_a_2d_batch():
    orc = InstanceOracle(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
    got = orc.query_many(np.array([[0, 2], [2, 4]]))
    assert np.array_equal(got, [[1, 1], [1, 0]])
    assert orc.counters.raw_calls == 4
    assert orc.counters.distinct_labeled == 3
    assert orc._seen.dtype == index_dtype(orc.pool_size)
    assert orc._seen.tolist() == [0, 2, 4]  # the ledger: sorted unique keys


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
    us, vs = all_pairs(n)
    assert np.array_equal(loaded.verification_labels(us, vs),
                          oracle.verification_labels(us, vs))
    meta = json.loads(Path(sidecar).read_text())
    assert meta["n"] == n
    assert meta["mode"] == "ranking"


def test_save_charges_one_full_scan(tmp_path):
    """Writing the table reads each ordered pair once: n*(n-1), as every full scan is charged;
    the sidecar's ground-truth error is a second scan."""
    n = 6
    oracle = make_ranking_oracle(_perm(n, 14), NoiseSpec(kind="uniform_flip", eta=0.2), seed=14)
    path = str(tmp_path / "o.csv")
    save_oracle(oracle, path)
    assert oracle.counters == type(oracle.counters)(verification_reads=2 * n * (n - 1))
    loaded = load_oracle(path)  # no ground truth, so only the table is read
    save_oracle(loaded, str(tmp_path / "again.csv"))
    assert loaded.counters.verification_reads == n * (n - 1)


def test_loaded_oracle_reports_realized_error(tmp_path):
    n = 6
    truth = _perm(n, 12)
    oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.2), seed=12)
    path = str(tmp_path / "o.csv")
    save_oracle(oracle, path)
    loaded = load_oracle(path)
    assert loaded.noise.kind == "adversarial_file"
    again = str(tmp_path / "again.csv")  # truth not stored, only labels
    save_oracle(loaded, again)
    assert json.loads(Path(again + ".json").read_text())["ground_truth_error"] is None


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
    us, vs = all_pairs(n)
    assert np.array_equal(loaded.verification_labels(us, vs),
                          oracle.verification_labels(us, vs))



def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# (mode, oracle maker, sha256 of the CSV, sha256 of the sidecar): the bytes save_oracle writes
_SAVED_GOLDENS = [
    ("ranking", lambda: make_ranking_oracle(
        rk.random_permutation(41, derive_rng(21, "perm")),
        NoiseSpec(kind="uniform_flip", eta=0.2), seed=21),
     "616de8b96bb8092868ba56a3121800df98e21e9fe8608030a22f55be6a19d5ad",
     "ca21b2e198308bdc7f607a2fd14bdd15902da7b15056a09f244fafe9e76c42d0"),
    ("clustering", lambda: make_clustering_oracle(
        clu.random_clustering(39, 4, derive_rng(22, "t")),
        NoiseSpec(kind="uniform_flip", eta=0.15), seed=22),
     "69059303f984276e09a6dfef297dc7d97800e4d4862f093f69be9d443ef6af89",
     "7a3c226b2e6dc183bdddd45fcca3e471ca1d8694bf00313b5b52c977de0fd647"),
]


@pytest.mark.parametrize("mode, make, csv_digest, sidecar_digest", _SAVED_GOLDENS,
                         ids=[case[0] for case in _SAVED_GOLDENS])
def test_saved_oracle_bytes_golden(mode, make, csv_digest, sidecar_digest, tmp_path):
    path = str(tmp_path / f"{mode}.csv")
    sidecar = save_oracle(make(), path)
    assert (_sha256(path), _sha256(sidecar)) == (csv_digest, sidecar_digest)


def test_save_memory_is_flat_in_the_pair_count(tmp_path):
    """n = 800 has 319,600 pairs: the whole triangle as id arrays or as Python
    lists takes tens of MiB, one row of it a few KiB.  Most of the peak left
    is the sidecar's error scan, in blocks of 2**16 pairs."""
    oracle = make_ranking_oracle(_perm(800, 23), NoiseSpec(kind="uniform_flip", eta=0.1), seed=23)
    path = str(tmp_path / "wide.csv")
    tracemalloc.start()
    try:
        save_oracle(oracle, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_save_and_load_leave_no_pair_triangle_cached(tmp_path):
    upper_pairs.cache_clear()
    oracle = make_ranking_oracle(_perm(400, 24), NoiseSpec(kind="uniform_flip", eta=0.1), seed=24)
    path = str(tmp_path / "o.csv")
    save_oracle(oracle, path)
    load_oracle(path)
    assert upper_pairs.cache_info().currsize == 0

def _load_with_sidecar_n(csv_path, n, **kwargs):
    """load_oracle of a file whose sidecar fixes n and nothing else."""
    with open(csv_path + ".json", "w") as fh:
        json.dump({"n": n}, fh)
    return load_oracle(csv_path, **kwargs)


_LOADER_CASES = {
    # name: (loader, file text, keyword arguments, error type, message pattern)
    "oracle-bad-header": (load_oracle, "u,x,label\n0,1,1\n", {"mode": "ranking"},
                          OracleFormatError, r"must start with a 'u,v,label' header"),
    "oracle-empty": (load_oracle, "", {"mode": "ranking"}, OracleFormatError, r"is empty"),
    "oracle-malformed-row": (load_oracle, "u,v,label\n0,1,1\n0,x,1\n", {"mode": "ranking"},
                             OracleFormatError, r"\.csv:3: malformed row \['0', 'x', '1'\]"),
    "oracle-label-2": (load_oracle, "u,v,label\n0,1,2\n", {"mode": "ranking"},
                       OracleFormatError, r"\.csv:2: label must be 0 or 1"),
    "oracle-id-past-64-bits": (load_oracle, "u,v,label\n0,1,1\n0,99999999999999999999,1\n",
                               {"mode": "ranking"}, OracleFormatError, r"\.csv:3: id past 64 bits"),
    "oracle-header-only": (load_oracle, "u,v,label\n", {"mode": "ranking"},
                           OracleFormatError, r"holds no pair rows"),
    "oracle-self-pair": (load_oracle, "u,v,label\n0,1,1\n1,1,0\n", {"mode": "ranking"},
                         OracleFormatError, r"invalid pair \(1, 1\) for n=2"),
    "oracle-id-past-n": (_load_with_sidecar_n, "u,v,label\n0,1,1\n0,2,1\n",
                         {"mode": "ranking", "n": 2},
                         OracleFormatError, r"invalid pair \(0, 2\) for n=2"),
    "oracle-unknown-mode": (load_oracle, "u,v,label\n0,1,1\n", {},
                            OracleFormatError, r"oracle mode unknown"),
    "oracle-skew-symmetry": (load_oracle, "u,v,label\n0,1,1\n1,0,1\n", {"mode": "ranking"},
                             OracleFormatError, r"pair \(1, 0\) violates skew-symmetry"),
    "oracle-symmetry": (load_oracle, "u,v,label\n0,1,1\n1,0,0\n", {"mode": "clustering"},
                        OracleFormatError, r"pair \(1, 0\) violates symmetry"),
    "oracle-repeat-conflict": (load_oracle, "u,v,label\n0,1,1\n0,1,0\n0,2,1\n1,2,1\n",
                               {"mode": "ranking"}, OracleFormatError,
                               r"pair \(0, 1\) given twice with conflicting labels"),
    "oracle-repeat-conflict-clustering": (load_oracle, "u,v,label\n0,1,1\n0,1,0\n",
                                          {"mode": "clustering"}, OracleFormatError,
                                          r"pair \(0, 1\) given twice with conflicting labels"),
    "oracle-missing-pair": (load_oracle, "u,v,label\n0,1,1\n1,0,0\n0,2,1\n", {"mode": "ranking"},
                            OracleFormatError, r"pair \(1, 2\) is missing from"),
    "class-non-integer": (load_class_csv, "0,1\n0,x\n", {},
                          ValueError, r"\.csv:2: non-integer cell"),
    "class-label-2": (load_class_csv, "0,2\n", {}, ValueError, r"\.csv:1: labels must be 0 or 1"),
    "class-ragged": (load_class_csv, "0,1,0\n1,1\n", {}, ValueError, r"\.csv:2: ragged row"),
    "class-no-rows": (load_class_csv, "\n", {}, ValueError, r"\.csv: no hypothesis rows"),
}


@pytest.mark.parametrize("case", list(_LOADER_CASES))
def test_loaders_name_what_is_wrong(case, tmp_path):
    """Each malformed file is refused with its own message, naming the line or pair at fault."""
    loader, text, kwargs, error, message = _LOADER_CASES[case]
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(error, match=message):
        loader(str(path), **kwargs)


@pytest.mark.parametrize("text, kwargs, message", [
    ("0,1,1\n1,0,1\n0,1,0\n", {"mode": "ranking"}, r"pair \(1, 0\) violates skew-symmetry"),
    ("0,1,1\n0,1,0\n1,0,1\n", {"mode": "ranking"}, r"pair \(0, 1\) given twice"),
    ("0,1,1\n1,0,0\n2,2,0\n0,1,1\n1,0,0\n", {"mode": "clustering", "n": 2},
     r"pair \(1, 0\) violates symmetry"),
    ("0,1,1\n3,3,0\n1,0,1\n", {"mode": "ranking", "n": 2}, r"invalid pair \(3, 3\) for n=2"),
    ("0,2,1\n1,2,0\n2,1,1\n0,1,1\n2,1,0\n", {"mode": "ranking"},
     r"pair \(2, 1\) given twice"),
], ids=["symmetry-then-repeat", "repeat-then-symmetry", "symmetry-then-invalid",
        "invalid-then-symmetry", "mirror-then-repeat"])
def test_load_names_the_first_faulty_row(text, kwargs, message, tmp_path):
    """A file with several faults is refused for the one on its earliest row.

    An "n" in kwargs is written to the file's sidecar, the one place a
    loaded n comes from besides the file's own ids.
    """
    path = tmp_path / "in.csv"
    path.write_text("u,v,label\n" + text)
    kwargs = dict(kwargs)
    n = kwargs.pop("n", None)
    with pytest.raises(OracleFormatError, match=message):
        if n is None:
            load_oracle(str(path), **kwargs)
        else:
            _load_with_sidecar_n(str(path), n, **kwargs)


@pytest.mark.parametrize("sidecar, kwargs, message", [
    ({"mode": "ranking", "n": 3}, {"mode": "clustering"},
     r"mode 'ranking' does not match mode='clustering'"),
    ([1, 2], {"mode": "ranking"}, r"sidecar must be a JSON object"),
    ({"n": 0}, {"mode": "ranking"}, r"n must be an integer >= 2, got 0"),
    ({"n": 2.5}, {"mode": "ranking"}, r"n must be an integer >= 2, got 2\.5"),
    ({"n": True}, {"mode": "ranking"}, r"n must be an integer >= 2, got True"),
    ({"n": -3}, {"mode": "ranking"}, r"n must be an integer >= 2, got -3"),
    ({"seed": 1.7}, {"mode": "ranking"}, r"seed must be an integer, got 1\.7"),
    ({"seed": "abc"}, {"mode": "ranking"}, r"seed must be an integer, got 'abc'"),
    ({"mode": "ranking", "seed": None}, {}, r"seed must be an integer, got None"),
], ids=["mode-mismatch", "list", "n-0", "n-float", "n-bool", "n-negative", "seed-float",
        "seed-string", "seed-null"])
def test_load_refuses_a_sidecar_it_cannot_trust(sidecar, kwargs, message, tmp_path):
    """Each refusal names the sidecar and the field; the rows themselves are sound."""
    path = tmp_path / "in.csv"
    path.write_text("u,v,label\n0,1,1\n0,2,1\n1,2,0\n")
    (tmp_path / "in.csv.json").write_text(json.dumps(sidecar))
    with pytest.raises(OracleFormatError, match=r"in\.csv\.json: " + message):
        load_oracle(str(path), **kwargs)


@pytest.mark.parametrize("raw", [b"{oops", b"", b'{"n": 3', b'{"mode": "\xff"}'],
                         ids=["bad-key", "empty", "truncated", "not-utf8"])
def test_load_names_a_sidecar_that_is_not_json(raw, tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("u,v,label\n0,1,1\n0,2,1\n1,2,0\n")
    (tmp_path / "in.csv.json").write_bytes(raw)
    with pytest.raises(OracleFormatError, match=r"in\.csv\.json: sidecar is not JSON: "):
        load_oracle(str(path), mode="ranking")


def _load_outcome(path, mode):
    try:
        loaded = load_oracle(path, mode=mode)
    except OracleFormatError as exc:
        return str(exc)
    return loaded.n, loaded._table.tobytes()


# ids and labels mostly, so many files load; then cells that int() and numpy's
# reader take differently or refuse
_CELLS = st.sampled_from(["0", "1", "2", "0", "1", "2", "-1", "+1", " 1", "1\t", "00", "-0",
                          "", " ", "1.0", "1e0", "x", "1_0", "99999999999999999999",
                          "\u0661", "\u01fe", "1\x1c", "\"1\"", "#1"])


def _refuse(*args, **kwargs):
    raise ValueError("bulk reader off")


@given(st.lists(st.lists(_CELLS, min_size=2, max_size=4), max_size=9),
       st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["ranking", "clustering"]))
@settings(max_examples=300, deadline=None)
def test_bulk_parse_agrees_with_the_row_reader(tmp_path_factory, rows, newline, mode):
    """numpy's bulk reader and the row-by-row reader load the same table, or
    refuse the file with the same message, whatever its cells."""
    path = str(tmp_path_factory.mktemp("bulk") / "in.csv")
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(["u,v,label"] + [",".join(row) for row in rows]) + newline)
    bulk = _load_outcome(path, mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _refuse)  # every body goes row by row
        assert _load_outcome(path, mode) == bulk


def test_saved_oracle_loads_without_the_row_reader(tmp_path, monkeypatch):
    n = 40
    oracle = make_ranking_oracle(_perm(n, 16), NoiseSpec(kind="uniform_flip", eta=0.2), seed=16)
    path = str(tmp_path / "o.csv")
    save_oracle(oracle, path)
    monkeypatch.setattr(oracles, "csv_rows", None)  # a call would raise TypeError
    loaded = load_oracle(path)
    us, vs = all_pairs(n)
    assert np.array_equal(loaded.verification_labels(us, vs), oracle.verification_labels(us, vs))


@pytest.mark.parametrize("ids", [np.array([1.7, 0.2]), np.array([True, False])],
                         ids=["float", "bool"])
@pytest.mark.parametrize("kind", ["pair", "instance"])
def test_oracles_refuse_non_integer_ids(kind, ids):
    """Ids are never truncated or read as 0/1: a non-integer id array is refused, uncharged;
    an empty batch of any dtype is still an empty batch."""
    other = np.array([2, 3])
    if kind == "pair":
        oracle = make_ranking_oracle(_perm(5, 15), NoiseSpec(kind="none"), seed=15)
        reads = [lambda: oracle.query_many(ids, other), lambda: oracle.query_many(other, ids),
                 lambda: oracle.verification_labels(ids, other)]
        empty = lambda: oracle.query_many(np.array([]), np.array([]))
    else:
        oracle = InstanceOracle(np.array([0, 1, 1, 0], np.uint8))
        reads = [lambda: oracle.query_many(ids)]
        empty = lambda: oracle.query_many(np.array([]))
    for read in reads:
        with pytest.raises(ValueError, match="integer"):
            read()
    assert len(empty()) == 0
    assert oracle.counters == type(oracle.counters)()


def _table_and_truth(mode, n=5):
    rng = derive_rng(3, "sources")
    truth = rk.random_permutation(n, rng) if mode == "ranking" else clu.random_clustering(n, 2, rng)
    table = np.zeros((n, n), np.uint8)
    off = ~np.eye(n, dtype=bool)
    table[off] = truth.pair_values(*np.nonzero(off))
    return truth, table


@pytest.mark.parametrize("mode", ["ranking", "clustering"])
@pytest.mark.parametrize("sources, kind, message", [
    ((), "none", "one label source"),
    (("ground_truth", "label_table"), "adversarial_file", "one label source"),
    (("ground_truth",), "adversarial_file", "adversarial_file noise needs a label_table"),
    (("label_table",), "none", "none noise takes no label_table"),
    (("label_table",), "uniform_flip", "uniform_flip noise takes no label_table"),
])
def test_label_oracle_refuses_a_mismatched_label_source(mode, sources, kind, message):
    truth, table = _table_and_truth(mode)
    given = {"ground_truth": truth, "label_table": table}
    noise = NoiseSpec(kind=kind, eta=0.1, path="labels.csv")
    with pytest.raises(ValueError, match=message):
        LabelOracle(mode, noise=noise, seed=0, **{s: given[s] for s in sources})
    if sources == ("ground_truth",):  # refused at construction, not at the first query
        make = make_ranking_oracle if mode == "ranking" else make_clustering_oracle
        with pytest.raises(ValueError, match=message):
            make(truth, noise)


@pytest.mark.parametrize("mode, truth, values", [
    ("ranking", clu.Clustering([1, 2, 1]), "rank"),
    ("clustering", rk.Permutation([2, 1, 3]), "assign"),
])
def test_label_oracle_refuses_a_truth_of_the_other_kind(mode, truth, values):
    """A truth without the mode's per-item array is refused by name, not labelled."""
    with pytest.raises(ValueError, match=f"a {mode} oracle needs a ground truth with a {values}"):
        LabelOracle(mode, noise=NoiseSpec(), seed=0, ground_truth=truth)


@pytest.mark.parametrize("mode", ["ranking", "clustering"])
def test_label_oracle_takes_n_from_its_one_source(mode):
    truth, table = _table_and_truth(mode, n=7)
    for oracle in (LabelOracle(mode, noise=NoiseSpec(), seed=0, ground_truth=truth),
                   LabelOracle(mode, noise=NoiseSpec(kind="adversarial_file", path="t.csv"),
                               seed=0, label_table=table)):
        us, vs = np.nonzero(~np.eye(7, dtype=bool))
        assert oracle.n == 7
        assert oracle.verification_labels(us, vs).tolist() == table[us, vs].tolist()


def test_budgeted_save_writes_both_files_as_the_unbudgeted_one(tmp_path):
    """The sidecar's error is scored on the read that writes the rows, so a budget never
    stops it; verification reads are never budgeted."""
    n = 6
    noise = NoiseSpec(kind="uniform_flip", eta=0.2)
    written = []
    for budget, name in ((None, "free"), (5, "capped")):
        oracle = make_ranking_oracle(_perm(n, 14), noise, seed=14, budget=budget)
        path = tmp_path / f"{name}.csv"
        sidecar = save_oracle(oracle, str(path))
        assert oracle.counters.verification_reads == 2 * n * (n - 1)
        written.append((path.read_bytes(), json.loads(Path(sidecar).read_text())))
    assert written[0] == written[1]
    truth = make_ranking_oracle(_perm(n, 14), noise, seed=14)
    assert written[1][1]["ground_truth_error"] == true_error(_perm(n, 14), truth)


@pytest.mark.parametrize("seed", [1.5, True, "7", -1, 2**64, 2**64 + 1, None],
                         ids=["float", "bool", "string", "negative", "2**64", "2**64+1", "none"])
def test_label_oracle_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in 0\.\.2\*\*64 - 1"):
        make_ranking_oracle(_perm(4, 1), NoiseSpec(kind="uniform_flip", eta=0.1), seed=seed)


def test_label_oracle_takes_every_64_bit_seed():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)):
        assert make_ranking_oracle(_perm(4, 1), seed=seed).seed == int(seed)


def _table_oracle(mode, table):
    return LabelOracle(mode, seed=0, label_table=table,
                       noise=NoiseSpec(kind="adversarial_file", path="labels.csv"))


@pytest.mark.parametrize("mode, table, message", [
    ("ranking", np.full((3, 4), 7, np.uint8), r"label_table must be 0 or 1"),
    ("ranking", np.zeros((3, 4), np.uint8), r"label_table must be n x n, got shape \(3, 4\)"),
    ("clustering", np.zeros(4, np.uint8), r"label_table must be n x n"),
    ("ranking", 1 - np.eye(5, dtype=np.uint8), r"label_table must be skew-symmetric"),
    ("ranking", np.zeros((5, 5), np.uint8), r"label_table must be skew-symmetric"),
    ("clustering", np.triu(np.ones((4, 4), np.uint8), 1), r"label_table must be symmetric"),
], ids=["sevens", "not-square", "flat", "ranking-all-ones", "ranking-all-zeros", "clustering-upper"])
def test_label_oracle_refuses_a_table_no_oracle_could_answer(mode, table, message):
    with pytest.raises(ValueError, match=message):
        _table_oracle(mode, table)


def test_load_refuses_a_sidecar_seed_outside_64_bits(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("u,v,label\n0,1,1\n0,2,1\n1,2,0\n")
    for seed in (-1, 2**64):
        (tmp_path / "in.csv.json").write_text(json.dumps({"mode": "ranking", "seed": seed}))
        with pytest.raises(OracleFormatError,
                           match=rf"in\.csv\.json: seed must be in 0\.\.2\*\*64 - 1, got {seed}"):
            load_oracle(str(path))
