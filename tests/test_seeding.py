import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _reference_pair_uniform(seed, u, v):
    """The out-of-place splitmix64 hash the in-place one replaced."""
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
        h = mix64(key ^ np.uint64(tag_to_int(seed)))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0**-53)


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
