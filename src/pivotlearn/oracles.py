"""Label oracles: frozen ground truth plus noise, query accounting, persistence.

An oracle answers pair queries Y(u, v) in one of two modes.  Ranking mode is
skew-symmetric (Y(u,v) = 1 - Y(v,u)): the label says "u is preferred to v".
Clustering mode is symmetric: the label says "u and v belong together".
Noise is frozen at construction through a counter-based hash of the pair, so
the oracle is a pure function and never needs to memoize answers.

Counters:

* distinct_labeled  - unordered pairs labeled at least once (the label
  complexity that the budget caps),
* raw_calls         - every query call, repeats included,
* verification_reads - full-table reads used by true_error and friends,
  charged separately and never counted against the budget.  A full scan
  is charged n*(n-1), one per ordered pair, even where it reads each
  unordered pair once and lets it stand for both orientations
  (core.unordered_verification_labels).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _SCAN_BLOCK_PAIRS, csv_header, csv_rows
from .seeding import pair_uniform

__all__ = [
    "NoiseSpec",
    "QueryCounters",
    "BudgetExceededError",
    "OracleFormatError",
    "LabelOracle",
    "InstanceOracle",
    "PairInstanceOracle",
    "make_ranking_oracle",
    "make_clustering_oracle",
    "save_oracle",
    "load_oracle",
]

_NOISE_KINDS = ("none", "uniform_flip", "distance_decay", "adversarial_file")


def distinct_count(keys: np.ndarray) -> int:
    """Number of distinct values in a 1-d array: sort, then count the steps.

    InstanceOracle counts with it; LabelOracle sorts its batch keys itself,
    because the same sort also feeds its seen-set lookup.
    """
    if len(keys) == 0:
        return 0
    return int(np.count_nonzero(np.diff(np.sort(keys)))) + 1


class BudgetExceededError(RuntimeError):
    """A query would push distinct labeled pairs past the budget.

    The failed call consumes nothing; `counters` is the snapshot at failure
    and `requested` the number of new distinct pairs the call asked for.
    """

    def __init__(self, message: str, counters: "QueryCounters", requested: int):
        super().__init__(message)
        self.counters = counters
        self.requested = requested


class OracleFormatError(ValueError):
    """A persisted oracle file is incomplete or inconsistent."""


@dataclass(frozen=True)
class NoiseSpec:
    """How labels deviate from the ground truth.

    uniform_flip flips each unordered pair independently with probability
    eta.  distance_decay (ranking only) flips pair (u, v) with probability
    min(1, scale * |rank(u) - rank(v)| ** -rho).  adversarial_file takes the
    labels verbatim from a CSV, see load_oracle.
    """

    kind: str = "none"
    eta: float = 0.0
    rho: float = 1.0
    scale: float = 0.5
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {_NOISE_KINDS}")
        if self.kind == "uniform_flip" and not (0.0 <= self.eta < 0.5):
            raise ValueError(f"uniform_flip needs eta in [0, 0.5), got {self.eta}")
        if self.kind == "distance_decay":
            if self.rho <= 0:
                raise ValueError("distance_decay needs rho > 0")
            if self.scale <= 0:
                raise ValueError("distance_decay needs scale > 0")
        if self.kind == "adversarial_file" and not self.path:
            raise ValueError("adversarial_file needs a path")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eta": self.eta,
            "rho": self.rho,
            "scale": self.scale,
            "path": self.path,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSpec":
        if not isinstance(d.get("path"), (str, type(None))):
            raise ValueError(f"path must be a path string, got {d['path']!r}")
        return cls(
            kind=d.get("kind", "none"),
            eta=float(d.get("eta", 0.0)),
            rho=float(d.get("rho", 1.0)),
            scale=float(d.get("scale", 0.5)),
            path=d.get("path"),
        )


@dataclass
class QueryCounters:
    distinct_labeled: int = 0
    raw_calls: int = 0
    verification_reads: int = 0

    def snapshot(self) -> "QueryCounters":
        return QueryCounters(self.distinct_labeled, self.raw_calls, self.verification_reads)

    def to_dict(self) -> dict:
        return {
            "distinct_labeled": self.distinct_labeled,
            "raw_calls": self.raw_calls,
            "verification_reads": self.verification_reads,
        }


class LabelOracle:
    """Pair-label oracle over n items.

    Labels come either from a (ground truth, noise, seed) triple or from an
    explicit label table.  Query accounting and the optional budget on
    distinct labeled pairs live here.  The labeled pairs are kept as a
    sorted array of unique keys lo*n + hi (lo < hi), so memory follows the
    labels a run spends, not the n*n pairs it could ask for.
    """

    def __init__(
        self,
        mode: str,
        n: int,
        *,
        base_values: np.ndarray,
        noise: NoiseSpec,
        seed: int,
        ground_truth=None,
        label_table: Optional[np.ndarray] = None,
        budget: Optional[int] = None,
    ):
        if mode not in ("ranking", "clustering"):
            raise ValueError(f"mode must be 'ranking' or 'clustering', got {mode!r}")
        if n < 2:
            raise ValueError("oracle needs at least 2 items")
        if noise.kind == "distance_decay" and mode != "ranking":
            raise ValueError("distance_decay noise is defined for ranking oracles only")
        self.mode = mode
        self.n = int(n)
        self.noise = noise
        self.seed = int(seed)
        self.ground_truth = ground_truth
        self.budget = budget
        self.counters = QueryCounters()
        self._base = base_values  # per-item helper values, interpretation per mode
        self._table = label_table
        self._seen = np.empty(0, dtype=np.int64)  # sorted unique keys lo*n + hi

    # -- label computation (pure, no accounting) ---------------------------

    def _labels_pure(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("query arrays must have the same shape")
        if (us == vs).any():
            raise ValueError("pairs must be distinct (u != v)")
        # read as uint64 a negative id lies past every valid one: one max per side checks both ends
        if max(us.view(np.uint64).max(initial=0), vs.view(np.uint64).max(initial=0)) >= self.n:
            raise ValueError("pair index out of range")
        if self._table is not None:
            return self._table[us, vs]
        if us.size <= _SCAN_BLOCK_PAIRS:
            return self._hashed_labels(us, vs)
        # larger batches go in blocks, so the hashing temporaries stay a few megabytes
        flat_us, flat_vs = us.reshape(-1), vs.reshape(-1)
        labels = np.empty(us.size, dtype=np.uint8)
        for start in range(0, us.size, _SCAN_BLOCK_PAIRS):
            block = slice(start, start + _SCAN_BLOCK_PAIRS)
            labels[block] = self._hashed_labels(flat_us[block], flat_vs[block])
        return labels.reshape(us.shape)

    def _hashed_labels(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Base label of each pair under the ground truth, xor its frozen noise flip, as uint8."""
        if self.mode == "ranking":
            labels = self._base[us] < self._base[vs]
        else:
            labels = self._base[us] == self._base[vs]
        kind = self.noise.kind
        if kind != "none":
            unif = pair_uniform(self.seed, us, vs)
            if kind == "uniform_flip":
                labels ^= unif < self.noise.eta
            elif kind == "distance_decay":
                gap = np.abs(self._base[us] - self._base[vs]).astype(np.float64)
                labels ^= unif < np.minimum(1.0, self.noise.scale * gap**-self.noise.rho)
            else:
                raise AssertionError(f"unreachable noise kind {kind}")
        return labels.view(np.uint8)

    # -- counted access -----------------------------------------------------

    def query(self, u: int, v: int) -> int:
        return int(self.query_many(np.array([u]), np.array([v]))[0])

    def query_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Labels for a batch of pairs, with budget/accounting semantics.

        The batch is atomic: if the new distinct pairs it contains would
        exceed the budget, BudgetExceededError is raised and no counter or
        cache state changes.  One sort of the batch keys both drops its
        repeats and feeds the lookup in the seen set; the new keys are then
        merged into it in one linear pass.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        labels = self._labels_pure(us, vs)
        keys = np.minimum(us, vs).reshape(-1)
        keys *= self.n
        keys += np.maximum(us, vs).reshape(-1)
        keys.sort()
        seen = self._seen
        at = np.searchsorted(seen, keys)
        fresh = seen.take(at, mode="clip") != keys if len(seen) else np.ones(len(keys), bool)
        n_new = int(np.count_nonzero(fresh))
        if n_new:
            fresh[1:] &= keys[1:] != keys[:-1]  # a repeat within the batch is not new again
            n_new = int(np.count_nonzero(fresh))
        if self.budget is not None and self.counters.distinct_labeled + n_new > self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} distinct pairs would be exceeded "
                f"({self.counters.distinct_labeled} used, {n_new} new requested)",
                self.counters.snapshot(),
                n_new,
            )
        if n_new:
            merged = np.concatenate([seen, keys[fresh]])
            merged.sort(kind="stable")  # a timsort of two sorted runs: one linear merge
            self._seen = merged
        self.counters.distinct_labeled += n_new
        self.counters.raw_calls += len(us)
        return labels

    def verification_labels(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Uncapped read for ground-truth evaluation; charged to verification_reads."""
        labels = self._labels_pure(us, vs)
        self.counters.verification_reads += len(labels)
        return labels

    def full_table(self) -> np.ndarray:
        """n x n label matrix (diagonal zero), charged to verification_reads."""
        from .core import Pool

        us, vs = Pool(self.n).all_pairs()
        table = np.zeros((self.n, self.n), dtype=np.uint8)
        table[us, vs] = self.verification_labels(us, vs)
        return table

    def ground_truth_error(self) -> Optional[float]:
        """err of the generating hypothesis (the realized noise rate)."""
        if self.ground_truth is None:
            return None
        from .core import true_error

        return true_error(self.ground_truth, self)


def _instance_indices(idx, pool_size: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if np.any((idx < 0) | (idx >= pool_size)):
        raise ValueError("instance index out of range")
    return idx


class InstanceOracle:
    """Label oracle over an abstract finite pool (one label per instance)."""

    def __init__(self, labels: np.ndarray, *, budget: Optional[int] = None):
        labels = np.asarray(labels)
        if np.any((labels != 0) & (labels != 1)):
            raise ValueError("instance labels must be 0 or 1")
        self.labels = labels.astype(np.uint8)
        self.pool_size = len(self.labels)
        self.budget = budget
        self.counters = QueryCounters()
        self._seen = np.zeros(self.pool_size, dtype=bool)

    def query_many(self, idx: np.ndarray) -> np.ndarray:
        idx = _instance_indices(idx, self.pool_size)
        n_new = distinct_count(idx[~self._seen[idx]])
        if self.budget is not None and self.counters.distinct_labeled + n_new > self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} distinct instances would be exceeded",
                self.counters.snapshot(),
                n_new,
            )
        self._seen[idx] = True
        self.counters.distinct_labeled += n_new
        self.counters.raw_calls += len(idx)
        return self.labels[idx]

    def verification_labels(self) -> np.ndarray:
        self.counters.verification_reads += self.pool_size
        return self.labels.copy()


class PairInstanceOracle:
    """Adapter: a pair oracle viewed as an instance oracle over listed pairs."""

    def __init__(self, oracle: LabelOracle, instance_pairs: np.ndarray):
        self.oracle = oracle
        self.pairs = np.asarray(instance_pairs, dtype=np.int64)
        self.pool_size = len(self.pairs)

    @property
    def budget(self):
        return self.oracle.budget

    @property
    def counters(self):
        return self.oracle.counters

    def query_many(self, idx: np.ndarray) -> np.ndarray:
        idx = _instance_indices(idx, self.pool_size)
        return self.oracle.query_many(self.pairs[idx, 0], self.pairs[idx, 1])


def make_ranking_oracle(
    ground_truth,
    noise: NoiseSpec = NoiseSpec(),
    *,
    seed: int = 0,
    budget: Optional[int] = None,
) -> LabelOracle:
    """Oracle preferring u to v when the ground-truth permutation ranks u higher."""
    return LabelOracle(
        "ranking",
        ground_truth.n_items,
        base_values=ground_truth.rank.astype(np.int64),
        noise=noise,
        seed=seed,
        ground_truth=ground_truth,
        budget=budget,
    )


def make_clustering_oracle(
    ground_truth,
    noise: NoiseSpec = NoiseSpec(),
    *,
    seed: int = 0,
    budget: Optional[int] = None,
) -> LabelOracle:
    if noise.kind == "distance_decay":
        raise ValueError("distance_decay noise is defined for ranking oracles only")
    return LabelOracle(
        "clustering",
        ground_truth.n_items,
        base_values=ground_truth.assign.astype(np.int64),
        noise=noise,
        seed=seed,
        ground_truth=ground_truth,
        budget=budget,
    )


# -- persistence -------------------------------------------------------------


def save_oracle(oracle: LabelOracle, csv_path: str, sidecar_path: Optional[str] = None) -> str:
    """Write all unordered pair labels as CSV plus a JSON metadata sidecar.

    Returns the sidecar path.  Writing reads the full table once (charged to
    verification_reads).
    """
    sidecar_path = sidecar_path or csv_path + ".json"
    n = oracle.n
    iu, iv = np.triu_indices(n, k=1)
    labels = oracle.verification_labels(iu, iv)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "label"])
        for u, v, y in zip(iu.tolist(), iv.tolist(), labels.tolist()):
            writer.writerow([u, v, y])
    gt = oracle.ground_truth
    gt_payload = None
    if gt is not None:
        if oracle.mode == "ranking":
            gt_payload = {"kind": "permutation", "rank": gt.rank.tolist()}
        else:
            gt_payload = {"kind": "clustering", "assign": gt.assign.tolist(), "k": gt.k}
    meta = {
        "mode": oracle.mode,
        "n": n,
        "noise": oracle.noise.to_dict(),
        "seed": oracle.seed,
        "ground_truth": gt_payload,
        "ground_truth_error": oracle.ground_truth_error(),
    }
    with open(sidecar_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar_path


def load_oracle(
    csv_path: str,
    *,
    mode: Optional[str] = None,
    n: Optional[int] = None,
    budget: Optional[int] = None,
) -> LabelOracle:
    """Rebuild an oracle from a pair-label CSV (adversarial_file noise kind).

    The CSV must cover every unordered pair.  If both orientations of a pair
    are present they must be consistent with the mode's symmetry; a missing
    or violating pair is rejected by name.
    """
    sidecar_path = csv_path + ".json"
    meta = {}
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            meta = json.load(fh)
    mode = mode or meta.get("mode")
    if mode not in ("ranking", "clustering"):
        raise OracleFormatError("oracle mode unknown: pass mode= or provide the JSON sidecar")
    if os.path.getsize(csv_path) == 0:
        raise OracleFormatError(f"{csv_path} is empty")
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        csv_header(reader, ("u", "v", "label"),
                   f"{csv_path} must start with a 'u,v,label' header", OracleFormatError)
        parse = lambda row: (int(row[0]), int(row[1]), int(row[2]))
        for line_no, (u, v, y) in csv_rows(csv_path, reader, parse, OracleFormatError):
            if y not in (0, 1):
                raise OracleFormatError(f"{csv_path}:{line_no}: label must be 0 or 1")
            rows.append((u, v, y))
    if not rows:
        raise OracleFormatError(f"{csv_path} holds no pair rows")
    n = n or meta.get("n") or (max(max(u, v) for u, v, _ in rows) + 1)
    n = int(n)
    if len(rows) < n * (n - 1) // 2:  # counted before the n x n table is allocated
        raise OracleFormatError(
            f"{csv_path} holds {len(rows)} pair rows; n={n} needs all {n * (n - 1) // 2} pairs"
        )
    table = np.full((n, n), 255, dtype=np.uint8)
    for u, v, y in rows:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise OracleFormatError(f"invalid pair ({u}, {v}) for n={n}")
        mirror = table[v, u]
        if mirror != 255:
            expected = mirror if mode == "clustering" else 1 - mirror
            if y != expected:
                constraint = "symmetry" if mode == "clustering" else "skew-symmetry"
                raise OracleFormatError(f"pair ({u}, {v}) violates {constraint}")
        if table[u, v] != 255 and table[u, v] != y:
            raise OracleFormatError(f"pair ({u}, {v}) given twice with conflicting labels")
        table[u, v] = y
        if table[v, u] == 255:
            table[v, u] = y if mode == "clustering" else 1 - y
    iu, iv = np.triu_indices(n, k=1)
    missing = table[iu, iv] == 255
    if np.any(missing):
        at = int(np.argmax(missing))
        raise OracleFormatError(f"pair ({int(iu[at])}, {int(iv[at])}) is missing from {csv_path}")
    np.fill_diagonal(table, 0)
    noise = NoiseSpec(kind="adversarial_file", path=csv_path)
    return LabelOracle(
        mode,
        n,
        base_values=np.zeros(n, dtype=np.int64),
        noise=noise,
        seed=int(meta.get("seed", 0)),
        ground_truth=None,
        label_table=table,
        budget=budget,
    )
