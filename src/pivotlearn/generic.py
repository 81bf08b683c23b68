"""Finite label classes over an abstract pool: balls, disagreement regions,
disagreement coefficients, and the annulus-stratified regret estimator.

Hypotheses are explicit 0/1 label vectors.  Everything here is computed by
enumeration over packed bitvectors; the module exists to verify estimator
properties at desk scale, not to scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .core import (
    Params,
    PoolMismatchError,
    RegretEstimator,
    column_coefficients,
    csv_rows,
    pack_columns,
    packed_argmin,
    sample_size,
    stratum_draws,
)
from .seeding import derive_rng

__all__ = [
    "FiniteClass",
    "AnnulusPlan",
    "ball",
    "disagreement_region",
    "disagreement_mask",
    "disagreement_measure",
    "disagreement_coefficient",
    "uniform_disagreement_coefficient",
    "vc_dimension",
    "sample_size_m",
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

    instance_pairs optionally maps pool index -> (u, v) when the pool is a
    pair pool, which lets pair oracles answer instance queries.  The labels
    are copied, packed once and read-only, so the packed forms never go
    stale.
    """

    def __init__(self, labels, instance_pairs=None, n_items: Optional[int] = None):
        labels = np.array(labels, dtype=np.uint8, order="C")
        if labels.ndim != 2 or labels.shape[0] < 1 or labels.shape[1] < 1:
            raise ValueError("labels must be a nonempty 2-D 0/1 array")
        if labels.max(initial=0) > 1:
            raise ValueError("labels must be 0/1")
        # rows as big-endian bytes for distances; columns as pack_columns for class_argmin
        self.packed = np.packbits(labels, axis=1)
        if len(np.unique(self.packed, axis=0)) != len(labels):
            raise ValueError("hypotheses must be distinct")
        self.packed_columns = pack_columns(labels)
        for arr in (labels, self.packed, self.packed_columns):
            arr.flags.writeable = False
        self._labels = labels
        self.instance_pairs = (
            None if instance_pairs is None else np.asarray(instance_pairs, dtype=np.int32)
        )
        if self.instance_pairs is not None and self.instance_pairs.shape != (
            labels.shape[1],
            2,
        ):
            raise ValueError("instance_pairs must be (pool_size, 2)")
        self.n_items = n_items

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def pool_size(self) -> int:
        return self.labels.shape[1]

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def hypothesis(self, idx: int) -> np.ndarray:
        return self.labels[idx]

    def distance_counts(self, pivot_idx: int) -> np.ndarray:
        """Hamming distance (instance count) from one row to every row."""
        diff = self.packed ^ self.packed[pivot_idx]
        return np.bitwise_count(diff).sum(axis=1).astype(np.int64)

    def distances(self, pivot_idx: int) -> np.ndarray:
        return self.distance_counts(pivot_idx) / self.pool_size

    def index_of(self, values) -> int:
        values = np.asarray(values, dtype=np.uint8)
        hits = np.flatnonzero((self.labels == values).all(axis=1))
        if len(hits) == 0:
            raise ValueError("hypothesis is not a member of the class")
        return int(hits[0])


def _count_radius(cls: FiniteClass, r: float) -> int:
    # float radii come in as k/pool_size; the epsilon absorbs that round-trip
    if r < 0:
        raise ValueError("radius must be >= 0")
    return int(math.floor(r * cls.pool_size + 1e-9))


def ball(cls: FiniteClass, pivot_idx: int, r: float) -> np.ndarray:
    """Indices of hypotheses within distance r of the pivot row."""
    return np.flatnonzero(cls.distance_counts(pivot_idx) <= _count_radius(cls, r))


def disagreement_mask(cls: FiniteClass, indices) -> np.ndarray:
    """Boolean pool mask of instances where the subset is not unanimous."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        return np.zeros(cls.pool_size, dtype=bool)
    sub = cls.packed[indices]
    any_one = np.bitwise_or.reduce(sub, axis=0)
    all_one = np.bitwise_and.reduce(sub, axis=0)
    bits = np.unpackbits(any_one ^ all_one, count=cls.pool_size)
    return bits.astype(bool)


def disagreement_region(cls: FiniteClass, indices) -> np.ndarray:
    return np.flatnonzero(disagreement_mask(cls, indices))


def disagreement_measure(cls: FiniteClass, indices) -> float:
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        return 0.0
    sub = cls.packed[indices]
    bits = np.bitwise_or.reduce(sub, axis=0) ^ np.bitwise_and.reduce(sub, axis=0)
    return int(np.bitwise_count(bits).sum()) / cls.pool_size


def disagreement_coefficient(
    cls: FiniteClass, pivot_idx: int, r_floor: Optional[float] = None
) -> float:
    """max over radii r >= r_floor of measure(dis(ball(pivot, r))) / r.

    The sup over continuous radii is attained at realized distances, so only
    those (plus r_floor itself) are scanned.  Default floor is one pool atom.
    """
    if r_floor is None:
        r_floor = 1.0 / cls.pool_size
    if r_floor <= 0:
        raise ValueError("r_floor must be positive")
    counts = cls.distance_counts(pivot_idx)
    order = np.argsort(counts, kind="stable")
    sub = cls.packed[order]
    any_one = np.bitwise_or.accumulate(sub, axis=0)
    all_one = np.bitwise_and.accumulate(sub, axis=0)
    sorted_counts = counts[order]
    pool = cls.pool_size
    best = 0.0
    # last ball index per distinct count; each candidate radius is either a
    # realized distance above the floor or the floor itself
    for end in np.flatnonzero(np.diff(np.append(sorted_counts, np.iinfo(np.int64).max)) > 0):
        r = max(sorted_counts[end] / pool, r_floor)
        measure = int(np.bitwise_count(any_one[end] ^ all_one[end]).sum()) / pool
        best = max(best, measure / r)
    return best


def uniform_disagreement_coefficient(
    cls: FiniteClass, r_floor: Optional[float] = None
) -> tuple[float, int]:
    """(max over pivots of the disagreement coefficient, attaining pivot)."""
    best, best_idx = 0.0, 0
    for idx in range(len(cls)):
        theta = disagreement_coefficient(cls, idx, r_floor)
        if theta > best:
            best, best_idx = theta, idx
    return best, best_idx


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
    if not (0 < mu <= 1):
        raise ValueError("mu must be in (0, 1]")
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    body = d * math.log2(max(theta, 2.0)) + math.log2(
        (1.0 / delta) * math.log2(max(1.0 / mu, 2.0))
    )
    return sample_size("m", lambda: c3 * epsilon**-2 * theta * body)


@dataclass(frozen=True)
class AnnulusPlan:
    """Disjoint instance shells around a pivot, by doubling ball radii.

    annuli[0] is the disagreement region of the radius-mu ball; annuli[i]
    adds what the radius mu*2^i ball disagrees on beyond the previous shell.
    measures[i] is the instance measure of annuli[i].
    """

    pivot_idx: int
    mu: float
    levels: int
    annuli: tuple
    measures: tuple

    @property
    def covered(self) -> np.ndarray:
        return np.concatenate([a for a in self.annuli]) if self.annuli else np.array([], int)


def annulus_plan(cls: FiniteClass, pivot_idx: int, mu: float) -> AnnulusPlan:
    if not (0 < mu <= 1):
        raise ValueError("mu must be in (0, 1]")
    levels = 0 if mu >= 1 else math.ceil(math.log2(1.0 / mu))
    prev = np.zeros(cls.pool_size, dtype=bool)
    annuli, measures = [], []
    for i in range(levels + 1):
        mask = disagreement_mask(cls, ball(cls, pivot_idx, mu * (1 << i)))
        shell = mask & ~prev
        annuli.append(np.flatnonzero(shell).astype(np.int64))
        measures.append(len(annuli[-1]) / cls.pool_size)
        prev = mask
    return AnnulusPlan(pivot_idx, mu, levels, tuple(annuli), tuple(measures))


def build_generic_estimator(
    cls: FiniteClass,
    pivot_idx: int,
    oracle,
    params: Params,
    *,
    m: Optional[int] = None,
    theta: Optional[float] = None,
    d: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
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
        raise TypeError(
            "generic builder needs an instance-pool oracle "
            "(InstanceOracle, or a pair oracle wrapped in PairInstanceOracle)"
        )
    if oracle.pool_size != pool:
        raise PoolMismatchError("oracle pool size does not match the class")
    mu = params.resolved_mu(pool)
    if m is None:
        if theta is None:
            theta = max(1.0, disagreement_coefficient(cls, pivot_idx, mu))
        if d is None:
            d = max(1, vc_dimension(cls))
        m = sample_size_m(theta, d, params.epsilon, mu, params.delta, params.c3)
    if rng is None:
        rng = derive_rng(params.master_seed, "generic-build")
    plan = annulus_plan(cls, pivot_idx, mu)
    sizes = np.array([len(shell) for shell in plan.annuli])
    count, offset, w_num = stratum_draws(sizes, m, rng)
    instances = plan.covered[(sizes.cumsum() - sizes).repeat(count) + offset]
    labels = oracle.query_many(instances)
    pivot_row = cls.labels[pivot_idx]
    pivot_costs = (pivot_row[instances] != labels).astype(np.uint8)
    return RegretEstimator(
        pivot_row,
        instances,
        None,
        w_num,
        m,
        labels,
        pivot_costs,
        measure_count=pool,
        n_items=cls.n_items if cls.n_items is not None else pool,
    )


def class_argmin(cls: FiniteClass, est: RegretEstimator) -> tuple[int, float]:
    """(row index of the estimator minimizer over the class, its value).

    Ties resolve to the smallest row index.
    """
    if est.is_pair_mode:
        raise ValueError("class_argmin expects an indexed-mode estimator")
    coef, base = column_coefficients(est.us, est.labels, est.weight_num, cls.pool_size)
    idx, _ = packed_argmin(cls.packed_columns, coef, base)
    return idx, est.evaluate(cls.labels[idx])


# -- synthetic classes ----------------------------------------------------------


def thresholds_class(pool_size: int) -> FiniteClass:
    """pool_size+1 hypotheses 1[x >= t] over collinear points 0..pool_size-1."""
    if pool_size < 2:
        raise ValueError("pool_size must be >= 2")
    x = np.arange(pool_size)
    t = np.arange(pool_size + 1)
    return FiniteClass((x[None, :] >= t[:, None]).astype(np.uint8))


def intervals_class(pool_size: int) -> FiniteClass:
    """The empty hypothesis plus every 1[a <= x <= b] over 0..pool_size-1."""
    if pool_size < 2:
        raise ValueError("pool_size must be >= 2")
    rows = [np.zeros(pool_size, dtype=np.uint8)]
    x = np.arange(pool_size)
    for a in range(pool_size):
        for b in range(a, pool_size):
            rows.append(((x >= a) & (x <= b)).astype(np.uint8))
    return FiniteClass(np.stack(rows))


# -- persistence ----------------------------------------------------------------


def save_class_csv(cls: FiniteClass, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in cls.labels:
            writer.writerow(row.tolist())


def load_class_csv(path: str) -> FiniteClass:
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
