"""Finite label classes over an abstract pool: balls, disagreement regions,
disagreement coefficients, and the annulus-stratified regret estimator.

Hypotheses are explicit 0/1 label vectors.  Everything here is computed by
enumeration over packed bitvectors; the module exists to verify estimator
properties at desk scale, not to scale.
"""

from __future__ import annotations

import csv
import functools
import math
from itertools import combinations
from typing import Optional

import numpy as np

from .core import (
    Params,
    PoolMismatchError,
    RegretEstimator,
    all_pairs,
    column_coefficients,
    csv_rows,
    is_integer,
    is_smoothing_floor,
    pack_columns,
    packed_argmin,
    sample_size,
    stratum_draws,
    zero_one,
)

__all__ = [
    "FiniteClass",
    "pair_class",
    "ball",
    "disagreement_region",
    "disagreement_measure",
    "disagreement_coefficient",
    "uniform_disagreement_coefficient",
    "vc_dimension",
    "sample_size_m",
    "class_sample_size",
    "annulus_plan",
    "build_generic_estimator",
    "class_argmin",
    "thresholds_class",
    "intervals_class",
    "save_class_csv",
    "load_class_csv",
]

_VC_POOL_CAP = 40
_VC_DIM_CAP = 4


class FiniteClass:
    """Explicit hypothesis class: one 0/1 label row per hypothesis.

    The labels are copied, packed once and read-only, so the packed form
    never goes stale, and neither do the class-wide quantities kept in
    `_derived` (vc_dimension per cap, disagreement_coefficient per pivot and
    floor), each computed on first request.  Threads that race on an entry
    each compute the same deterministic value, so no lock is needed.
    """

    def __init__(self, labels):
        labels = np.array(zero_one(labels, "labels"), order="C")
        if labels.ndim != 2 or labels.shape[0] < 1 or labels.shape[1] < 1:
            raise ValueError("labels must be a nonempty 2-D 0/1 array")
        self.packed_columns = pack_columns(labels)  # byte g of row r at [g, r], little bit order
        if np.unique(self.packed_columns, axis=1).shape[1] != len(labels):
            raise ValueError("hypotheses must be distinct")
        for arr in (labels, self.packed_columns):
            arr.flags.writeable = False
        self._labels = labels
        self._derived: dict = {}

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def pool_size(self) -> int:
        return self.labels.shape[1]

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def _pivot_row(self, pivot_idx) -> int:
        """pivot_idx as an int, refused unless it is an integer (not a bool) in 0..len - 1."""
        if not (is_integer(pivot_idx) and 0 <= pivot_idx < len(self)):
            raise ValueError(f"pivot must be an integer in 0..{len(self) - 1}, got {pivot_idx!r}")
        return int(pivot_idx)

    def distance_counts(self, pivot_idx: int) -> np.ndarray:
        """Hamming distance (instance count) from one row to every row."""
        diff = self.packed_columns ^ self.packed_columns[:, self._pivot_row(pivot_idx), None]
        return np.bitwise_count(diff).sum(axis=0, dtype=np.int64)

    def distances(self, pivot_idx: int) -> np.ndarray:
        return self.distance_counts(pivot_idx) / self.pool_size


def pair_class(rows: np.ndarray, oriented: bool) -> FiniteClass:
    """FiniteClass over the ordered-pair pool with one hypothesis per row of an (h, n) table.

    Pair (u, v) reads rows[:, u] < rows[:, v] when `oriented` (rank arrays),
    else rows[:, u] == rows[:, v] (cluster assignments).
    """
    us, vs = all_pairs(rows.shape[1])
    a, b = rows[:, us], rows[:, vs]
    return FiniteClass(a < b if oriented else a == b)


def _count_radius(cls: FiniteClass, r: float) -> int:
    # float radii come in as k/pool_size; the epsilon absorbs that round-trip
    if r < 0:
        raise ValueError("radius must be >= 0")
    return int(math.floor(r * cls.pool_size + 1e-9))


def ball(cls: FiniteClass, pivot_idx: int, r: float) -> np.ndarray:
    """Indices of hypotheses within distance r of the pivot row."""
    return np.flatnonzero(cls.distance_counts(pivot_idx) <= _count_radius(cls, r))


def _disagreement_bits(cls: FiniteClass, indices) -> np.ndarray:
    """Packed pool bits of the instances where the rows `indices` are not unanimous."""
    sub = cls.packed_columns[:, np.asarray(indices, dtype=np.int64)]
    # OR ^ AND, as AND lies within OR; over no rows AND is all ones, so no bit is set
    return np.bitwise_or.reduce(sub, axis=1) & ~np.bitwise_and.reduce(sub, axis=1, initial=255)


def disagreement_region(cls: FiniteClass, indices) -> np.ndarray:
    """Pool indices of the instances where the rows `indices` are not unanimous."""
    bits = _disagreement_bits(cls, indices)
    return np.flatnonzero(np.unpackbits(bits, count=cls.pool_size, bitorder="little"))


def disagreement_measure(cls: FiniteClass, indices) -> float:
    return int(np.bitwise_count(_disagreement_bits(cls, indices)).sum()) / cls.pool_size


def disagreement_coefficient(
    cls: FiniteClass, pivot_idx: int, r_floor: Optional[float] = None
) -> float:
    """max over radii r >= r_floor of measure(dis(ball(pivot, r))) / r.

    The sup over continuous radii is attained at realized distances, so only
    those (plus r_floor itself) are scanned.  Default floor is one pool atom.
    """
    if r_floor is None:
        r_floor = 1.0 / cls.pool_size
    if not (r_floor > 0 and math.isfinite(r_floor)):  # nan compares False, inf scans no radius
        raise ValueError(f"r_floor must be positive and finite, got {r_floor!r}")
    key = ("theta", cls._pivot_row(pivot_idx), float(r_floor))
    if key not in cls._derived:
        cls._derived[key] = _disagreement_coefficient(cls, *key[1:])
    return cls._derived[key]


def _nested_balls(cls: FiniteClass, pivot_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """(distance counts ascending, packed disagreement bits of every nearest-first prefix).

    Row j of the bits is the disagreement region of the j + 1 rows nearest
    the pivot (ties to the smaller index), so the ball of count radius R is
    the prefix of searchsorted(counts, R, "right") rows.
    """
    counts = cls.distance_counts(pivot_idx)
    order = np.argsort(counts, kind="stable")
    sub = cls.packed_columns.T[order]
    split = np.bitwise_or.accumulate(sub, axis=0)
    split ^= np.bitwise_and.accumulate(sub, axis=0)
    return counts[order], split


def _disagreement_coefficient(cls: FiniteClass, pivot_idx: int, r_floor: float) -> float:
    sorted_counts, split = _nested_balls(cls, pivot_idx)
    # last ball index per distinct count; each candidate radius is either a
    # realized distance above the floor or the floor itself
    ends = np.searchsorted(sorted_counts, np.unique(sorted_counts), "right") - 1
    radii = np.maximum(sorted_counts[ends] / cls.pool_size, r_floor)
    measures = np.bitwise_count(split[ends]).sum(axis=1) / cls.pool_size
    return float((measures / radii).max())


def uniform_disagreement_coefficient(
    cls: FiniteClass, r_floor: Optional[float] = None
) -> tuple[float, int]:
    """(max over pivots of the disagreement coefficient, the first pivot attaining it)."""
    thetas = [disagreement_coefficient(cls, idx, r_floor) for idx in range(len(cls))]
    best_idx = max(range(len(cls)), key=thetas.__getitem__)
    return thetas[best_idx], best_idx


# Subsets per shattering block: one block's label gather holds about this
# many (hypothesis, subset, point) cells.
_VC_BLOCK_CELLS = 1 << 20


def vc_dimension(cls: FiniteClass, cap: int = _VC_DIM_CAP) -> int:
    """Largest d <= cap such that some d-subset of the pool is shattered.

    Each layer scores blocks of d-subsets at once: a hypothesis's code on a
    subset is its labels there read as d bits, each subset ORs 1 << code
    over the hypotheses into a mask (2**d <= 16 bits, as d <= _VC_DIM_CAP),
    and a full mask means all 2**d codes occur.
    """
    if cls.pool_size > _VC_POOL_CAP:
        raise ValueError(f"shattering search is capped at pool size {_VC_POOL_CAP}")
    cap = min(cap, _VC_DIM_CAP, cls.pool_size)
    key = ("vc", cap)
    if key not in cls._derived:
        cls._derived[key] = _shattered_dimension(cls, cap)
    return cls._derived[key]


def _shattered_dimension(cls: FiniteClass, cap: int) -> int:
    result = 0
    for d in range(1, cap + 1):
        subsets = np.array(list(combinations(range(cls.pool_size), d)))
        step = max(1, _VC_BLOCK_CELLS // (len(cls) * d))
        for start in range(0, len(subsets), step):
            block = subsets[start : start + step]
            codes = np.zeros((len(cls), len(block)), dtype=np.uint8)
            for j in range(d):
                codes |= cls.labels[:, block[:, j]] << j
            present = np.bitwise_or.reduce(np.left_shift(np.uint16(1), codes), axis=0)
            if (present == (1 << (1 << d)) - 1).any():
                break
        else:
            return result
        result = d
    return result


def sample_size_m(
    theta: float,
    d: int,
    epsilon: float,
    mu: float,
    delta: float,
    c3: float = 1.0,
) -> int:
    """Per-annulus sample count from the coefficient/dimension/confidence mix."""
    if theta < 1:
        raise ValueError("theta must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not is_smoothing_floor(mu):
        raise ValueError("mu must be in (0, 1] with a finite reciprocal")
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    body = d * math.log2(max(theta, 2.0)) + math.log2(
        (1.0 / delta) * math.log2(max(1.0 / mu, 2.0))
    )
    return sample_size("m", lambda: c3 * epsilon**-2 * theta * body)


def class_sample_size(cls: FiniteClass, pivot_idx: int, params: Params) -> tuple[int, float, int]:
    """(m, theta, d): sample_size_m at the class's theta at pivot_idx and dimension, both >= 1."""
    mu = params.resolved_mu(cls.pool_size)
    theta = max(1.0, disagreement_coefficient(cls, pivot_idx, mu))
    d = max(1, vc_dimension(cls))
    return sample_size_m(theta, d, params.epsilon, mu, params.delta, params.c3), theta, d


def annulus_plan(cls: FiniteClass, pivot_idx: int, mu: float) -> tuple:
    """Disjoint instance shells around a pivot, by doubling ball radii.

    Shell 0 is the disagreement region of the radius-mu ball; shell i adds
    what the radius mu*2^i ball disagrees on beyond shell i - 1, up to the
    first radius at or past 1: ceil(log2(1/mu)) + 1 shells in all.
    """
    if not is_smoothing_floor(mu):
        raise ValueError("mu must be in (0, 1] with a finite reciprocal")
    levels = 0 if mu >= 1 else math.ceil(math.log2(1.0 / mu))
    sorted_counts, split = _nested_balls(cls, pivot_idx)
    radii = [_count_radius(cls, math.ldexp(mu, i)) for i in range(levels + 1)]  # mu * 2**i
    # every ball holds the pivot, so each prefix is at least one row long
    ends = np.searchsorted(sorted_counts, radii, side="right") - 1
    masks = np.unpackbits(split[ends], axis=1, count=cls.pool_size, bitorder="little").view(bool)
    masks[1:] &= ~masks[:-1]  # the regions nest: a shell is its region less the previous one
    return tuple(np.flatnonzero(shell) for shell in masks)


def build_generic_estimator(
    cls: FiniteClass,
    pivot_idx: int,
    oracle,
    params: Params,
    *,
    m: Optional[int] = None,
    rng: np.random.Generator,
) -> RegretEstimator:
    """Annulus-stratified estimator around cls.labels[pivot_idx].

    Each nonempty annulus contributes m uniform draws with repetition at
    weight |annulus|/m, or all of its instances at weight 1 when it has at
    most m.  Total labeled instances <= m * (levels + 1).  When m is not
    forced it comes from sample_size_m with the class's own coefficient and
    shattering dimension.
    """
    pool = cls.pool_size
    if not hasattr(oracle, "pool_size"):
        raise TypeError("generic builder needs an instance-pool oracle (InstanceOracle)")
    if oracle.pool_size != pool:
        raise PoolMismatchError("oracle pool size does not match the class")
    mu = params.resolved_mu(pool)
    if m is None:
        m = class_sample_size(cls, pivot_idx, params)[0]
    shells = annulus_plan(cls, pivot_idx, mu)
    sizes = np.array([len(shell) for shell in shells])
    count, offset, w_num = stratum_draws(sizes, m, rng)
    instances = np.concatenate(shells)[(sizes.cumsum() - sizes).repeat(count) + offset]
    return RegretEstimator(cls.labels[pivot_idx], instances, None, w_num, m,
                           oracle.query_many(instances))


def class_argmin(cls: FiniteClass, est: RegretEstimator) -> int:
    """Row index of the estimator minimizer over the class.

    Ties resolve to the smallest row index.
    """
    if est.vs is not None:
        raise ValueError("class_argmin expects an indexed-mode estimator")
    if est.measure_count != cls.pool_size:
        raise PoolMismatchError(
            f"estimator pool of {est.measure_count} does not match class pool {cls.pool_size}")
    coef, base = column_coefficients(est.us, est.labels, est.weight_num, cls.pool_size)
    return packed_argmin(cls.packed_columns, coef, base)[0]


# -- synthetic classes ----------------------------------------------------------


@functools.lru_cache(maxsize=8)
def thresholds_class(pool_size: int) -> FiniteClass:
    """pool_size+1 hypotheses 1[x >= t] over collinear points 0..pool_size-1.

    One shared, read-only class per pool size (the last few sizes asked
    for), so its derived quantities are computed once per size.
    """
    if pool_size < 2:
        raise ValueError("pool_size must be >= 2")
    x = np.arange(pool_size)
    t = np.arange(pool_size + 1)
    return FiniteClass((x[None, :] >= t[:, None]).astype(np.uint8))


def intervals_class(pool_size: int) -> FiniteClass:
    """The empty hypothesis plus every 1[a <= x <= b] over 0..pool_size-1."""
    if pool_size < 2:
        raise ValueError("pool_size must be >= 2")
    a, b = np.triu_indices(pool_size)  # a ascending, then b ascending from a
    x = np.arange(pool_size)
    rows = (x >= a[:, None]) & (x <= b[:, None])
    return FiniteClass(np.vstack([np.zeros(pool_size, bool), rows]))


# -- persistence ----------------------------------------------------------------


def save_class_csv(cls: FiniteClass, path: str) -> None:
    """One headerless CSV row per hypothesis: its 0/1 label on each pool instance."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(cls.labels.tolist())


def load_class_csv(path: str) -> FiniteClass:
    """The class save_class_csv wrote; a non-0/1 cell or a ragged row is refused by line."""
    rows = []
    with open(path, newline="") as fh:
        parse = lambda row: [int(c) for c in row]
        for line_no, values in csv_rows(path, csv.reader(fh), parse, malformed="non-integer cell"):
            if any(v not in (0, 1) for v in values):
                raise ValueError(f"{path}:{line_no}: labels must be 0 or 1")
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}:{line_no}: ragged row")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no hypothesis rows")
    return FiniteClass(np.array(rows, dtype=np.uint8))
