"""Feature-embedded items and the orders induced by linear score directions.

A direction w orders items by decreasing inner product.  In the plane the
realizable orders are exactly the angular cells cut out of the unit circle by
the pair-difference normals, so they can be enumerated by an angular sweep:
at most n(n-1) orders, against n! unrestricted ones.  ERM over this class
evaluates the estimator on every enumerated order.
"""

from __future__ import annotations

import csv
import math
from typing import Optional

import numpy as np

from .core import (
    RegretEstimator,
    csv_header,
    csv_rows,
    items_in_order,
    packed_argmin,
    pair_coefficients,
    pair_table,
)
from .ranking import Permutation, kendall_distance

__all__ = [
    "FeatureSet",
    "DegenerateGeometryError",
    "DisagreementBoundError",
    "induced_permutation",
    "enumerate_orders_2d",
    "verify_disagreement_bound",
    "geometric_erm_2d",
    "random_features",
    "save_features",
    "load_features",
]


class DegenerateGeometryError(ValueError):
    """A direction ties two items, or two pair hyperplanes coincide."""

    def __init__(self, message: str, pair: Optional[tuple] = None):
        super().__init__(message)
        self.pair = pair


class DisagreementBoundError(AssertionError):
    """A measured disagreement region exceeded the 8rn bound."""


class FeatureSet:
    """One real feature vector per item, held as a read-only copy.

    The planar order class is computed once per feature set, on the first
    enumeration that succeeds, and cached here as (orders, angles, packed
    pair table); the vectors are read-only so the cache cannot go stale.
    """

    __slots__ = ("_vectors", "_planar")

    def __init__(self, vectors):
        vectors = np.array(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 2 or vectors.shape[1] < 1:
            raise ValueError("vectors must be a (n >= 2, d >= 1) array")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("feature vectors must be finite")
        vectors.flags.writeable = False
        self._vectors = vectors
        self._planar = None

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def n_items(self) -> int:
        return self._vectors.shape[0]

    @property
    def d(self) -> int:
        return self._vectors.shape[1]


def random_features(n: int, d: int, rng: np.random.Generator) -> FeatureSet:
    return FeatureSet(rng.standard_normal((n, d)))


def induced_permutation(w, features: FeatureSet) -> Permutation:
    """Items sorted by decreasing <w, vector>; errors on an exact score tie."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (features.d,):
        raise ValueError(f"direction must have shape ({features.d},)")
    scores = features.vectors @ w
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ties = np.flatnonzero(ranked[:-1] == ranked[1:])
    if len(ties):
        t = int(ties[0])
        pair = (int(order[t]), int(order[t + 1]))
        raise DegenerateGeometryError(
            f"direction scores items {pair[0]} and {pair[1]} equally", pair
        )
    return Permutation.from_order(order)


def _pair_normals(features: FeatureSet):
    """(pairs, normals): difference vectors for all unordered item pairs."""
    n = features.n_items
    iu, iv = np.triu_indices(n, k=1)
    normals = features.vectors[iu] - features.vectors[iv]
    zero = np.flatnonzero((normals == 0).all(axis=1))
    if len(zero):
        z = int(zero[0])
        pair = (int(iu[z]), int(iv[z]))
        raise DegenerateGeometryError(
            f"items {pair[0]} and {pair[1]} share a feature vector", pair
        )
    return np.stack([iu, iv], axis=1), normals


def _planar_class(features: FeatureSet) -> tuple[list[Permutation], np.ndarray, np.ndarray]:
    """(orders, witness angles, packed oriented pair table), cached on the feature set.

    Walks the circle of directions: each unordered pair contributes the two
    angles where its difference hyperplane is crossed, and each arc between
    consecutive crossing angles is one realizable order.  Every arc midpoint
    is scored in one product and sorted in one stable argsort; a tie raises
    for the first midpoint in angle order, as induced_permutation would.
    """
    if features._planar is not None:
        return features._planar
    if features.d != 2:
        raise ValueError("angular enumeration is defined for d = 2")
    pairs, normals = _pair_normals(features)
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
            raise DegenerateGeometryError(
                f"pairs {tuple(pairs[a])} and {tuple(pairs[b])} induce the same hyperplane",
                tuple(pairs[a]),
            )
    mids = (crossings + np.roll(crossings, -1)) / 2
    mids[-1] = ((crossings[-1] + crossings[0] + 2 * math.pi) / 2) % (2 * math.pi)
    angles = np.sort(mids)
    directions = np.array([[math.cos(a) for a in angles.tolist()],
                           [math.sin(a) for a in angles.tolist()]])
    scores = features.vectors @ directions  # (n, midpoints)
    order = np.argsort(-scores, axis=0, kind="stable")
    ranked = np.take_along_axis(scores, order, axis=0)
    ties = ranked[:-1] == ranked[1:]
    if ties.any():
        col = int(np.flatnonzero(ties.any(axis=0))[0])
        t = int(np.flatnonzero(ties[:, col])[0])
        pair = (int(order[t, col]), int(order[t + 1, col]))
        raise DegenerateGeometryError(
            f"direction scores items {pair[0]} and {pair[1]} equally", pair
        )
    first = np.sort(np.unique(order.T, axis=0, return_index=True)[1])
    ranks = np.argsort(order[:, first].T, axis=1) + 1  # each distinct order's rank array
    angles = angles[first]
    angles.flags.writeable = False
    features._planar = ([Permutation(r) for r in ranks], angles, pair_table(ranks, oriented=True))
    return features._planar


def enumerate_orders_2d(features: FeatureSet) -> tuple[list[Permutation], np.ndarray]:
    """All orders a planar direction can induce, with witness angles.

    Returns the orders sorted by their smallest witness angle, plus those
    angles; at most n(n-1) orders.  Both are fresh copies of the class
    cached on the feature set.
    """
    orders, angles, _ = _planar_class(features)
    return list(orders), angles.copy()


def verify_disagreement_bound(
    features: FeatureSet, pivot: Permutation, radii
) -> list[dict]:
    """Measure dis(ball(pivot, r)) inside the enumerated class for each r.

    Raises DisagreementBoundError if any measure exceeds 8*r*n, and
    DegenerateGeometryError if the pivot is not realizable by the features.
    Returns one record per radius with the ball size, measure, and ratio.
    """
    orders, _, _ = _planar_class(features)
    n = features.n_items
    if not any(np.array_equal(o.rank, pivot.rank) for o in orders):
        raise DegenerateGeometryError("pivot order is not realizable by these features")
    pool = n * (n - 1)
    dists = np.array([kendall_distance(pivot, o) for o in orders])
    ranks = np.stack([o.rank for o in orders]).astype(np.int64)
    iu, iv = np.triu_indices(n, k=1)
    before = ranks[:, iu] < ranks[:, iv]
    report = []
    for r in radii:
        if r < 0:
            raise ValueError("radii must be >= 0")
        members = dists <= r + 1e-12
        sub = before[members]
        split = np.any(sub, axis=0) & ~np.all(sub, axis=0)
        measure = 2.0 * int(split.sum()) / pool
        bound = 8.0 * r * n
        if measure > bound + 1e-12:
            raise DisagreementBoundError(
                f"dis measure {measure:.6f} exceeds 8rn = {bound:.6f} at r = {r}"
            )
        report.append(
            {
                "radius": float(r),
                "ball_size": int(members.sum()),
                "dis_measure": measure,
                "bound": bound,
                "ratio": (measure / r) if r > 0 else 0.0,
            }
        )
    return report


def geometric_erm_2d(est: RegretEstimator, features: FeatureSet) -> Permutation:
    """Exact estimator minimizer over the enumerated planar orders.

    Ties resolve to the order with the smallest witness angle.
    """
    orders, _, table = _planar_class(features)
    coef, base = pair_coefficients(
        features.n_items, est.us, est.vs, est.labels, est.weight_num, oriented=True
    )
    return orders[packed_argmin(table, coef, base)[0]]


# -- persistence ----------------------------------------------------------------


def save_features(features: FeatureSet, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item"] + [f"x{i + 1}" for i in range(features.d)])
        for item, row in enumerate(features.vectors):
            writer.writerow([item] + [repr(float(c)) for c in row])


def load_features(path: str) -> FeatureSet:
    rows: dict[int, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = csv_header(reader, ("item",), f"{path} must start with an 'item,x1,...' header")
        d = len(header) - 1
        if d < 1:
            raise ValueError(f"{path}: no coordinate columns")
        parse = lambda row: (int(row[0]), [float(c) for c in row[1 : d + 1]])
        for line_no, (item, coords) in csv_rows(path, reader, parse):
            if len(coords) != d or item in rows:
                raise ValueError(f"{path}:{line_no}: bad or duplicate item row")
            rows[item] = coords
    return FeatureSet(np.array(items_in_order(path, rows)))
