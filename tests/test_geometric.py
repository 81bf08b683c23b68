import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotlearn import NoiseSpec, Params, make_ranking_oracle
from pivotlearn import geometric as geo
from pivotlearn import ranking as rk
from pivotlearn import verify
from pivotlearn.seeding import derive_rng


def test_feature_set_validation():
    geo.FeatureSet(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        geo.FeatureSet(np.array([[0.0, 1.0]]))  # one item is not a ranking problem
    with pytest.raises(ValueError):
        geo.FeatureSet(np.array([[np.nan, 1.0], [1.0, 0.0]]))


def test_induced_permutation_simple():
    feats = geo.FeatureSet(np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0]]))
    p = geo.induced_permutation(np.array([1.0, 0.0]), feats)
    # scores 0, 2, 1: item 1 first, then 2, then 0
    assert p.order.tolist() == [1, 2, 0]


def test_induced_permutation_rejects_ties():
    feats = geo.FeatureSet(np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(geo.DegenerateGeometryError) as exc:
        geo.induced_permutation(np.array([1.0, 0.0]), feats)  # items 0,1 tie at 0
    assert exc.value.pair == (0, 1)


def _reference_orders_2d(features):
    """The per-direction sweep enumerate_orders_2d replaced: one induced_permutation per arc."""
    pairs, normals = geo._pair_normals(features)
    base = np.arctan2(normals[:, 1], normals[:, 0])
    crossings = np.concatenate([base + math.pi / 2, base + 3 * math.pi / 2]) % (2 * math.pi)
    pair_of = np.concatenate([np.arange(len(pairs))] * 2)
    sort = np.argsort(crossings, kind="stable")
    crossings = crossings[sort]
    pair_of = pair_of[sort]
    close = np.flatnonzero(np.diff(crossings) < 1e-12)
    for t in close:
        a, b = pair_of[t], pair_of[t + 1]
        if a != b and normals[a, 0] * normals[b, 1] == normals[a, 1] * normals[b, 0]:
            raise geo.DegenerateGeometryError(
                f"pairs {tuple(pairs[a])} and {tuple(pairs[b])} induce the same hyperplane",
                tuple(pairs[a]),
            )
    mids = (crossings + np.roll(crossings, -1)) / 2
    mids[-1] = ((crossings[-1] + crossings[0] + 2 * math.pi) / 2) % (2 * math.pi)
    orders, angles, seen = [], [], set()
    for angle in sorted(mids.tolist()):
        perm = geo.induced_permutation(np.array([math.cos(angle), math.sin(angle)]), features)
        if perm.rank.tobytes() not in seen:
            seen.add(perm.rank.tobytes())
            orders.append(perm)
            angles.append(angle)
    return orders, np.array(angles)


def _outcome(enumerate_fn, vectors):
    """(orders, angles) as lists, or (error message, pair) for a degenerate input."""
    try:
        orders, angles = enumerate_fn(geo.FeatureSet(vectors))
    except geo.DegenerateGeometryError as exc:
        return "degenerate", str(exc), exc.pair
    return [o.rank.tolist() for o in orders], angles.tolist()


_DEGENERATE = [
    [[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]],  # shared vector
    [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],  # collinear: coincident hyperplanes
    [[0.0, 0.0], [1e-300, 1e-300], [1.0, 0.0], [0.0, 1.0]],  # scores tie at an arc midpoint
    [[0.0, 0.0], [5e-324, 0.0], [1.0, 1.0]],
    # ties at several midpoints, on different pairs: the first in angle order wins
    [[1e-300, 1e-300], [2.0, 3.0], [1.0, -5e-324], [1e-300, 3.0], [5e-324, 2.0]],
]


@pytest.mark.parametrize("n", [3, 8, 14])
def test_enumeration_matches_per_direction_reference(n):
    for seed in range(200):
        vectors = derive_rng(seed, n, "ref").standard_normal((n, 2))
        assert _outcome(geo.enumerate_orders_2d, vectors) == _outcome(_reference_orders_2d, vectors)


@pytest.mark.parametrize("vectors", _DEGENERATE)
def test_enumeration_matches_reference_on_degenerate_inputs(vectors):
    found = _outcome(geo.enumerate_orders_2d, np.array(vectors))
    assert found[0] == "degenerate"
    assert found == _outcome(_reference_orders_2d, np.array(vectors))


def test_degenerate_enumeration_raises_every_time():
    feats = geo.FeatureSet(np.array(_DEGENERATE[2]))
    for _ in range(2):
        with pytest.raises(geo.DegenerateGeometryError, match="equally"):
            geo.enumerate_orders_2d(feats)
    with pytest.raises(geo.DegenerateGeometryError, match="equally"):
        geo.geometric_erm_2d(None, feats)


def test_feature_vectors_are_a_read_only_copy():
    raw = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 3.0]])
    feats = geo.FeatureSet(raw)
    raw[0, 0] = 9.0
    assert feats.vectors[0, 0] == 0.0
    with pytest.raises(ValueError):
        feats.vectors[0, 0] = 9.0
    with pytest.raises(AttributeError):
        feats.vectors = raw


def test_mutating_enumeration_results_leaves_the_next_call_intact():
    feats = geo.random_features(6, 2, derive_rng(11, "f"))
    orders, angles = geo.enumerate_orders_2d(feats)
    expected = ([o.rank.tolist() for o in orders], angles.tolist())
    orders.reverse()
    orders.pop()
    angles[:] = 0.0
    again, again_angles = geo.enumerate_orders_2d(feats)
    assert ([o.rank.tolist() for o in again], again_angles.tolist()) == expected


def test_enumerate_orders_three_points():
    # generic triangle: all 6 orders of 3 items are realizable
    feats = geo.FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
    orders, angles = geo.enumerate_orders_2d(feats)
    assert len(orders) == 6
    assert len(angles) == 6
    assert len({tuple(o.rank.tolist()) for o in orders}) == 6


_PLANAR = given(st.integers(3, 12), st.integers(0, 10_000))


@_PLANAR
@settings(max_examples=10, deadline=None)
def test_enumerate_orders_count_bound_and_uniqueness(n, seed):
    assert verify._order_count(n, seed) is None


@_PLANAR
@settings(max_examples=10, deadline=None)
def test_enumerated_witnesses_reproduce_orders(n, seed):
    assert verify._witnesses_reproduce(n, seed) is None


@_PLANAR
@settings(max_examples=10, deadline=None)
def test_adjacent_orders_differ_by_one_swap(n, seed):
    # last to first included: the orders close a circle of directions
    assert verify._adjacent_cells(n, seed) is None


def test_enumerate_rejects_duplicate_points():
    feats = geo.FeatureSet(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(geo.DegenerateGeometryError):
        geo.enumerate_orders_2d(feats)


def test_enumerate_rejects_collinear_points():
    feats = geo.FeatureSet(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))  # collinear
    with pytest.raises(geo.DegenerateGeometryError):
        geo.enumerate_orders_2d(feats)


def test_disagreement_bound_report():
    feats = geo.random_features(8, 2, derive_rng(5, "f"))
    orders, _ = geo.enumerate_orders_2d(feats)
    radii = [0.0, 1 / 56, 3 / 56, 0.25, 1.0]
    report = geo.verify_disagreement_bound(feats, orders[0], radii)
    assert [r["radius"] for r in report] == radii
    for row in report:
        assert row["dis_measure"] <= row["bound"] + 1e-12
        assert row["ball_size"] >= 1
        if row["radius"] > 0:
            assert row["ratio"] == pytest.approx(row["dis_measure"] / row["radius"])
        assert row["ratio"] <= 8 * 8 + 1e-9


def test_disagreement_bound_rejects_foreign_pivot():
    feats = geo.random_features(6, 2, derive_rng(6, "f"))
    stranger = rk.Permutation.identity(6)
    orders, _ = geo.enumerate_orders_2d(feats)
    if all(o != stranger for o in orders):
        with pytest.raises(geo.DegenerateGeometryError):
            geo.verify_disagreement_bound(feats, stranger, [0.1])


def test_geometric_erm_matches_cell_scan():
    for seed in range(5):
        n = 7
        feats = geo.random_features(n, 2, derive_rng(seed, "f"))
        orders, angles = geo.enumerate_orders_2d(feats)
        truth = orders[int(derive_rng(seed, "pick").integers(len(orders)))]
        oracle = make_ranking_oracle(truth, NoiseSpec(kind="uniform_flip", eta=0.1),
                                     seed=seed)
        pivot = orders[0]
        est = rk.build_ranking_estimator(pivot, oracle, Params(epsilon=0.25), p=3,
                                         rng=derive_rng(seed, "b"))
        best = geo.geometric_erm_2d(est, feats)
        vals = [est.evaluate_int(o) for o in orders]
        assert est.evaluate_int(best) == min(vals)
        # smallest witness angle wins ties
        first = int(np.flatnonzero(np.array(vals) == min(vals))[0])
        assert best == orders[first]


def test_features_roundtrip(tmp_path):
    feats = geo.random_features(5, 3, derive_rng(9, "f"))
    path = str(tmp_path / "feats.csv")
    geo.save_features(feats, path)
    loaded = geo.load_features(path)
    assert np.allclose(loaded.vectors, feats.vectors)
    assert loaded.d == 3


def test_load_features_rejects_missing_items(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("item,x1,x2\n0,0.5,1.0\n2,1.0,0.0\n")
    with pytest.raises(ValueError):
        geo.load_features(str(path))
