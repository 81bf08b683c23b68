import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import seeding
from pivotlearn.seeding import derive_rng, derive_seed_seq, pair_uniform, tag_to_int


def test_tag_to_int_stable():
    # frozen: hashes must never change between releases or runs
    assert tag_to_int("build") == tag_to_int("build")
    assert tag_to_int("build") != tag_to_int("erm")
    assert tag_to_int(7) == 7


def test_derive_rng_repeatable():
    a = derive_rng(42, "build", 3).integers(0, 2**63, size=8)
    b = derive_rng(42, "build", 3).integers(0, 2**63, size=8)
    assert np.array_equal(a, b)


def test_derive_rng_streams_differ():
    a = derive_rng(42, "build", 3).integers(0, 2**63, size=4)
    b = derive_rng(42, "build", 4).integers(0, 2**63, size=4)
    c = derive_rng(43, "build", 3).integers(0, 2**63, size=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_seq_is_seed_sequence():
    ss = derive_seed_seq(0, "x")
    assert isinstance(ss, np.random.SeedSequence)
    assert ss.generate_state(1)[0] == derive_seed_seq(0, "x").generate_state(1)[0]


@pytest.mark.parametrize("seed, tags", [
    (0, ()), (0, ("x",)), (2**32 - 1, (2**32, 2**64 - 1, 0)), (2**64 + 5, ("build", 3)),
    (-1, (-2, "erm", 2**40)), (7, (np.int64(9), True)),
])
def test_derive_seed_seq_matches_int_list_entropy(seed, tags):
    """The pre-split uint32 words give the state of the plain list of 64-bit ints."""
    entropy = [seed & (2**64 - 1)] + [tag_to_int(t) for t in tags]
    want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    assert np.array_equal(derive_seed_seq(seed, *tags).generate_state(4, np.uint64), want)


def test_lazy_rng_derives_its_stream_on_first_use(monkeypatch):
    import pivotlearn.seeding as seeding

    calls = []
    monkeypatch.setattr(seeding, "derive_rng",
                        lambda *a, f=seeding.derive_rng: calls.append(a) or f(*a))
    lazy = seeding.LazyRng(42, "erm", 3)
    assert calls == []
    first = lazy.integers(0, 2**63, size=4)
    assert calls == [(42, "erm", 3)]
    assert np.array_equal(first, derive_rng(42, "erm", 3).integers(0, 2**63, size=4))
    lazy.permutation(5)
    assert len(calls) == 1  # one stream, read on from where it stopped


@given(st.integers(0, 2**31), st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_pair_uniform_symmetric(seed, u, v):
    x = pair_uniform(seed, u, v)
    y = pair_uniform(seed, v, u)
    assert x == y
    assert 0.0 <= x < 1.0


def test_pair_uniform_vectorized_matches_scalar():
    us = np.array([0, 1, 2, 9])
    vs = np.array([5, 4, 3, 0])
    vec = pair_uniform(123, us, vs)
    for i in range(4):
        assert vec[i] == pair_uniform(123, int(us[i]), int(vs[i]))


def test_pair_uniform_roughly_uniform():
    """Crude distribution check: mean near 1/2, no mass outside [0,1)."""
    n = 200
    us, vs = np.meshgrid(np.arange(n), np.arange(n))
    keep = us < vs
    x = pair_uniform(7, us[keep], vs[keep])
    assert abs(x.mean() - 0.5) < 0.01
    assert x.min() >= 0.0 and x.max() < 1.0


def test_pair_uniform_seed_sensitivity():
    x = pair_uniform(1, 3, 4)
    y = pair_uniform(2, 3, 4)
    assert x != y


def test_non_int_tags_hash_via_string_form():
    assert tag_to_int(3.5) == tag_to_int("3.5")
    assert tag_to_int(3.5) != tag_to_int(3)


def _reference_hash(seed, u, v):
    """The out-of-place splitmix64 hash the in-place one replaced, as uint64."""
    def mix64(x):
        z = (x + np.uint64(0x9E3779B97F4A7C15)) & ~np.uint64(0)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    u = np.asarray(u, dtype=np.uint64)
    v = np.asarray(v, dtype=np.uint64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    with np.errstate(over="ignore"):
        key = mix64((lo << np.uint64(32)) ^ hi)
        return mix64(key ^ np.uint64(tag_to_int(seed)))


def _reference_pair_uniform(seed, u, v):
    return (_reference_hash(seed, u, v) >> np.uint64(11)).astype(np.float64) * (2.0**-53)


_NEAR_2_32 = [2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1]


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("u, v", [
    (3, 9),                                         # Python scalars
    (np.int64(2**32 - 1), np.uint64(2**32)),        # numpy scalars near 2**32
    (np.array(5), np.array(2)),                     # 0-d
    (np.arange(12), np.arange(12)[::-1] + 2**32 - 6),   # 1-d, ids near 2**32
    (np.arange(12).reshape(3, 4), np.arange(12).reshape(3, 4).T.reshape(3, 4)),  # 2-d
    (np.arange(3)[:, None], np.array(_NEAR_2_32)),  # broadcast (3, 1) x (4,)
    (np.arange(12).reshape(4, 3).T, np.ones((3, 4), dtype=np.int64)),  # Fortran order
    (np.array(_NEAR_2_32), 1),                      # broadcast against a scalar
    (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),  # empty
])
def test_pair_uniform_matches_reference(seed, u, v):
    got = pair_uniform(seed, u, v)
    want = _reference_pair_uniform(seed, u, v)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(got, want)
    if np.ndim(want) == 0:
        assert type(got) is np.float64


_BELOW_INPUTS = {
    "scalar": (3, 9),
    "1-d": (np.arange(40), np.arange(40)[::-1] + 3),
    "ordered-outer": (np.arange(5)[:, None], np.arange(5, 3200)[None, :]),
    "unordered-outer": (np.arange(3000, 3005)[:, None], np.arange(0, 2000)[None, :]),
    "overlapping-outer": (np.arange(100, 110)[:, None], np.arange(95, 1600)[None, :]),
}


def _exact_thresholds(seed):
    """x * 2**-53 for the value of a pair whose hash has its low 11 bits clear, so
    the value sits exactly on the integer threshold, with its float neighbours."""
    z = _reference_hash(seed, *_BELOW_INPUTS["ordered-outer"]).reshape(-1)
    x = int(z[(z & np.uint64(2047)) == 0][0] >> np.uint64(11))
    t = x * 2.0**-53
    return [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("case", list(_BELOW_INPUTS))
def test_pair_uniform_below_matches_the_float_compare(seed, case):
    """below=t returns value < t bit for bit, for thresholds on both sides of
    (0, 1), between and on the value grid, and nan."""
    u, v = _BELOW_INPUTS[case]
    values = pair_uniform(seed, u, v)
    thresholds = [-1.0, 0.0, 0.1, 0.3, 1.0, 1.5, np.inf, np.nan, *_exact_thresholds(seed)]
    for t in thresholds:
        got = pair_uniform(seed, u, v, below=t)
        want = values < t
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want, err_msg=f"below={t!r}")
    if case == "ordered-outer":  # the exact thresholds split equal and next values
        _, t, above = _exact_thresholds(seed)
        assert (values == t).any() and not pair_uniform(seed, u, v, below=t)[values == t].any()
        assert pair_uniform(seed, u, v, below=above)[values == t].all()


@pytest.mark.parametrize("u, v", [
    (np.arange(5)[:, None], np.arange(5, 3200)[None, :]),
    (np.arange(2**32 - 3, 2**32 - 1)[:, None], np.arange(2**32 - 1, 2**32 + 2)[None, :]),
    (np.arange(3, dtype=np.uint16)[:, None], np.arange(3, 9, dtype=np.uint16)[None, :]),
    (np.array([[-3], [-1]]), np.arange(0, 4)[None, :]),
    (np.arange(10, 15)[:, None], np.arange(0, 20)[None, :]),  # overlapping: the min/max path
])
def test_ordered_outer_key_equals_the_min_max_key(u, v):
    want = (np.minimum(u, v).astype(np.uint64) << np.uint64(32)) ^ np.maximum(u, v).astype(np.uint64)
    got = seeding._pair_keys(u, v)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)
