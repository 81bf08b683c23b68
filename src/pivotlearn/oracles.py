"""Label oracles: frozen ground truth plus noise, query accounting, persistence.

An oracle answers pair queries Y(u, v) in one of two modes.  Ranking mode is
skew-symmetric (Y(u,v) = 1 - Y(v,u)): the label says "u is preferred to v".
Clustering mode is symmetric: the label says "u and v belong together".
Noise is frozen at construction through a counter-based hash of the pair, so
the oracle is a pure function and never needs to memoize answers.

Both oracles keep one ledger: the keys they have labeled, as a sorted array
of unique keys, so memory follows the labels a run spends.  Counters:

* distinct_labeled  - keys labeled at least once (unordered pairs, or pool
  instances; the label complexity that the budget caps),
* raw_calls         - every queried key, repeats included,
* verification_reads - full-table reads used by true_error and friends,
  charged separately and never counted against the budget.  A full scan
  is charged n*(n-1), one per ordered pair, even where it reads each
  unordered pair once and lets it stand for both orientations
  (core.unordered_verification_labels).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import warnings
from array import array
from dataclasses import asdict, dataclass, replace
from typing import ClassVar, Optional

import numpy as np

from .core import (
    _SCAN_BLOCK_PAIRS, MODE_ARRAY, BudgetExceededError, ParamError, csv_rows, index_dtype,
    integer_ids, is_finite_number, is_integer, pair_keys,
    unordered_verification_labels, unsigned_max, zero_one,
)
from .seeding import pair_uniform

__all__ = [
    "NoiseSpec",
    "QueryCounters",
    "BudgetExceededError",
    "OracleFormatError",
    "LabelOracle",
    "InstanceOracle",
    "make_ranking_oracle",
    "make_clustering_oracle",
    "save_oracle",
    "load_oracle",
]

# Pairs per block of label hashing: few enough that a block's 8-byte
# temporaries stay in a core's L2 cache, which a whole scan block of
# core._SCAN_BLOCK_PAIRS pairs overflowed.
_HASH_BLOCK_PAIRS = 1 << 14


class OracleFormatError(ValueError):
    """A persisted oracle file is incomplete or inconsistent."""


@dataclass(frozen=True)
class NoiseSpec:
    """How labels deviate from the ground truth.

    uniform_flip flips each unordered pair independently with probability
    eta.  distance_decay (ranking only) flips pair (u, v) with probability
    min(1, scale * |rank(u) - rank(v)| ** -rho).  adversarial_file takes the
    labels verbatim from a CSV, see load_oracle.  READS names the fields
    besides kind that each kind reads; eta, rho and scale are stored as floats,
    and one that is not a finite number raises ParamError naming it.
    """

    kind: str = "none"
    eta: float = 0.0
    rho: float = 1.0
    scale: float = 0.5
    path: Optional[str] = None

    READS: ClassVar[dict] = {"none": (), "uniform_flip": ("eta",),
                             "distance_decay": ("rho", "scale"), "adversarial_file": ("path",)}

    def __post_init__(self):
        for name in ("eta", "rho", "scale"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ParamError(name, f"must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.kind not in self.READS:
            raise ValueError(f"unknown noise kind {self.kind!r}, not one of {tuple(self.READS)}")
        if not isinstance(self.path, (str, type(None))):
            raise ValueError(f"path must be a path string, got {self.path!r}")
        if self.kind == "uniform_flip" and not (0.0 <= self.eta < 0.5):
            raise ValueError(f"uniform_flip needs eta in [0, 0.5), got {self.eta}")
        if self.kind == "distance_decay":
            if self.rho <= 0:
                raise ValueError("distance_decay needs rho > 0")
            if self.scale <= 0:
                raise ValueError("distance_decay needs scale > 0")
        if self.kind == "adversarial_file" and not self.path:
            raise ValueError("adversarial_file needs a path")


@dataclass
class QueryCounters:
    distinct_labeled: int = 0
    raw_calls: int = 0
    verification_reads: int = 0


class _Ledger:
    """Budget and counters over the keys labeled so far.

    `_seen` holds those keys as a sorted array of unique values in
    `key_dtype`, so memory follows the labels a run spends, not the keys it
    could ask for.
    """

    def __init__(self, budget: Optional[int], key_dtype: np.dtype):
        self.budget = budget
        self.counters = QueryCounters()
        self._seen = np.empty(0, dtype=key_dtype)

    def _charge(self, keys: np.ndarray) -> None:
        """Charge a batch of keys (1-d, in `_seen`'s dtype, sorted here in place).

        The batch is atomic: if its new distinct keys would exceed the
        budget, BudgetExceededError is raised and no counter or ledger state
        changes.  One sort of the batch both drops its repeats and feeds the
        lookup in the ledger, which goes _SCAN_BLOCK_PAIRS keys at a time, so
        its intp positions stay a block long; the new keys are then merged
        into the ledger in one linear pass.
        """
        keys.sort()
        seen = self._seen
        fresh = np.ones(len(keys), bool)
        for start in range(0, len(keys), _SCAN_BLOCK_PAIRS) if len(seen) else ():
            block = keys[start : start + _SCAN_BLOCK_PAIRS]
            at = np.searchsorted(seen, block)
            np.not_equal(seen.take(at, mode="clip"), block, out=fresh[start : start + len(block)])
        n_new = int(np.count_nonzero(fresh))
        if n_new:
            fresh[1:] &= keys[1:] != keys[:-1]  # a repeat within the batch is not new again
            n_new = int(np.count_nonzero(fresh))
        if self.budget is not None and self.counters.distinct_labeled + n_new > self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} distinct labels would be exceeded "
                f"({self.counters.distinct_labeled} used, {n_new} new requested)",
                replace(self.counters),
                n_new,
            )
        if n_new:
            merged = np.concatenate([seen, keys[fresh]])
            merged.sort(kind="stable")  # a timsort of two sorted runs: one linear merge
            self._seen = merged
        self.counters.distinct_labeled += n_new
        self.counters.raw_calls += len(keys)


class LabelOracle(_Ledger):
    """Pair-label oracle over n items.

    Labels come from exactly one source: a ground truth with the mode's
    per-item array (rank, or assign), labelled by its own pair_values under
    `noise` and `seed` (an integer in 0..2**64 - 1), or an explicit n x n
    0/1 label table, (skew-)symmetric off the diagonal as the mode's labels
    are, which goes with adversarial_file noise only.  n is the source's
    item count.  The ledger keys are lo*n + hi (lo < hi) in index_dtype(n*n).
    """

    def __init__(
        self,
        mode: str,
        *,
        noise: NoiseSpec,
        seed: int,
        ground_truth=None,
        label_table: Optional[np.ndarray] = None,
        budget: Optional[int] = None,
    ):
        if mode not in ("ranking", "clustering"):
            raise ValueError(f"mode must be 'ranking' or 'clustering', got {mode!r}")
        if (ground_truth is None) == (label_table is None):
            raise ValueError("an oracle takes one label source: ground_truth or label_table")
        if (label_table is None) == (noise.kind == "adversarial_file"):
            need = "needs a" if label_table is None else "takes no"
            raise ValueError(f"{noise.kind} noise {need} label_table")
        if noise.kind == "distance_decay" and mode != "ranking":
            raise ValueError("distance_decay noise is defined for ranking oracles only")
        values = MODE_ARRAY[mode]
        if ground_truth is not None and not hasattr(ground_truth, values):
            raise ValueError(f"a {mode} oracle needs a ground truth with a {values} array")
        if not (is_integer(seed) and 0 <= seed < 2**64):  # the label hash reads 64 bits
            raise ValueError(f"seed must be an integer in 0..2**64 - 1, got {seed!r}")
        if label_table is not None:
            label_table = zero_one(label_table, "label_table")
            if label_table.ndim != 2 or len(label_table) != label_table.shape[1]:
                raise ValueError(f"label_table must be n x n, got shape {label_table.shape}")
            skew = mode == "ranking"  # off the diagonal, a ranking pair and its mirror differ
            mirror = label_table ^ label_table.T
            np.fill_diagonal(mirror, skew)
            if not (mirror == skew).all():
                raise ValueError(f"label_table must be {'skew-' * skew}symmetric off the diagonal")
        self.mode = mode
        self.n = int(len(label_table) if ground_truth is None else ground_truth.n_items)
        if self.n < 2:
            raise ValueError("oracle needs at least 2 items")
        super().__init__(budget, index_dtype(self.n * self.n))
        self.noise = noise
        self.seed = int(seed)
        self.ground_truth = ground_truth
        self._table = label_table

    # -- label computation (pure, no accounting) ---------------------------

    def _labels_pure(self, us: np.ndarray, vs: np.ndarray, outer: bool = False) -> np.ndarray:
        """Labels of the pairs (us[i], vs[i]), or with `outer` also of every
        (us[r, 0], vs[0, c]) for us of shape (R, 1) and vs of shape (1, C)."""
        us, vs = integer_ids(us, "us"), integer_ids(vs, "vs")
        outer = outer and us.ndim == vs.ndim == 2 and us.shape[1] == vs.shape[0] == 1
        if us.shape != vs.shape and not outer:
            raise ValueError("query arrays must have the same shape")
        if outer:  # on the R + C ids; at once when every u lies below every v, as in a scan
            shared = us.size and vs.size and us.max() >= vs.min() and np.isin(us, vs).any()
        else:
            shared = (us == vs).any()
        if shared:
            raise ValueError("pairs must be distinct (u != v)")
        if max(unsigned_max(us), unsigned_max(vs)) >= self.n:  # negative ids included
            raise ValueError("pair index out of range")
        if self._table is not None:
            return self._table[us, vs]
        shape = (len(us), vs.shape[1]) if outer else us.shape
        if math.prod(shape) <= _HASH_BLOCK_PAIRS:
            return self._hashed_labels(us, vs)
        # larger batches go in blocks, so the hashing temporaries stay in cache
        labels = np.empty(shape, dtype=np.uint8)
        if outer:  # runs of whole rows, or column chunks of a row longer than a block
            width = min(shape[1], _HASH_BLOCK_PAIRS)
            height = _HASH_BLOCK_PAIRS // width
            for r in range(0, shape[0], height):
                for c in range(0, shape[1], width):
                    labels[r:r + height, c:c + width] = self._hashed_labels(
                        us[r:r + height], vs[:, c:c + width])
            return labels
        flat_us, flat_vs, flat = us.reshape(-1), vs.reshape(-1), labels.reshape(-1)
        for start in range(0, us.size, _HASH_BLOCK_PAIRS):
            block = slice(start, start + _HASH_BLOCK_PAIRS)
            flat[block] = self._hashed_labels(flat_us[block], flat_vs[block])
        return labels

    def _hashed_labels(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Ground-truth label of each pair, xor its frozen noise flip, as uint8."""
        labels = self.ground_truth.pair_values(us, vs)
        if self.noise.kind == "uniform_flip":
            labels ^= pair_uniform(self.seed, us, vs, below=self.noise.eta)
        elif self.noise.kind == "distance_decay":
            rank = self.ground_truth.rank
            gap = np.abs(rank.take(us) - rank.take(vs)).astype(np.float64)
            labels ^= pair_uniform(self.seed, us, vs) < np.minimum(
                1.0, self.noise.scale * gap**-self.noise.rho)
        return labels

    # -- counted access -----------------------------------------------------

    def query_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Labels for a batch of pairs, charged to the ledger as one atomic batch.

        Ids keep the caller's integer dtype; keys are built in the ledger's.
        """
        labels = self._labels_pure(us, vs)  # also checks the ids: integers in 0..n-1
        self._charge(pair_keys(np.ravel(us), np.ravel(vs), self.n))
        return labels

    def verification_labels(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Uncapped read for ground-truth evaluation; charged to verification_reads.

        Besides equal shapes, takes the outer form of a scan block: us of
        shape (R, 1) against vs of shape (1, C) reads the (R, C) labels.
        """
        labels = self._labels_pure(us, vs, outer=True)
        self.counters.verification_reads += labels.size
        return labels


class InstanceOracle(_Ledger):
    """Label oracle over an abstract finite pool (one label per instance).

    The ledger keys are the instance indices, in index_dtype(pool_size).
    """

    def __init__(self, labels: np.ndarray, *, budget: Optional[int] = None):
        self.labels = zero_one(labels, "instance labels").copy()
        self.pool_size = len(self.labels)
        super().__init__(budget, index_dtype(self.pool_size))

    def query_many(self, idx: np.ndarray) -> np.ndarray:
        idx = integer_ids(idx, "instance ids")
        if idx.size and unsigned_max(idx) >= self.pool_size:  # negative ids included
            raise ValueError("instance index out of range")
        labels = self.labels[idx]
        self._charge(idx.astype(self._seen.dtype).reshape(-1))
        return labels

    def verification_labels(self) -> np.ndarray:
        self.counters.verification_reads += self.pool_size
        return self.labels.copy()


def make_ranking_oracle(
    ground_truth,
    noise: NoiseSpec = NoiseSpec(),
    *,
    seed: int = 0,
    budget: Optional[int] = None,
) -> LabelOracle:
    """Oracle preferring u to v when the ground-truth permutation ranks u higher."""
    return LabelOracle("ranking", noise=noise, seed=seed, ground_truth=ground_truth, budget=budget)


def make_clustering_oracle(
    ground_truth,
    noise: NoiseSpec = NoiseSpec(),
    *,
    seed: int = 0,
    budget: Optional[int] = None,
) -> LabelOracle:
    """Oracle putting u and v together when the ground-truth clustering does."""
    return LabelOracle("clustering", noise=noise, seed=seed, ground_truth=ground_truth,
                       budget=budget)


# -- persistence -------------------------------------------------------------


def save_oracle(oracle: LabelOracle, csv_path: str) -> str:
    """Write all unordered pair labels as CSV plus a JSON metadata sidecar.

    Returns the sidecar path, csv_path + ".json", where load_oracle reads
    it.  Writing reads the full table once, a row u of pairs (u, v > u) at
    a time, and writes the bytes csv.writer would, CRLF line ends included.
    The ground truth's error is scored on that read, charged as a second scan.
    """
    sidecar_path = csv_path + ".json"
    n = oracle.n
    gt = oracle.ground_truth
    ends = (",0\r\n", ",1\r\n")  # a line's label and end
    mismatches = 0
    with open(csv_path, "w", newline="") as fh:
        fh.write("u,v,label\r\n")
        for u in range(n - 1):
            us, vs = np.full(n - 1 - u, u), np.arange(u + 1, n)
            labels = unordered_verification_labels(oracle, us, vs, scans=1 if gt is None else 2)
            if gt is not None:
                mismatches += int(np.count_nonzero(gt.pair_values(us, vs) != labels))
            head = f"{u},"
            fh.write("".join([f"{head}{v}{ends[y]}" for v, y in zip(vs.tolist(), labels.tolist())]))
    meta = {
        "mode": oracle.mode,
        "n": n,
        "noise": asdict(oracle.noise),
        "seed": oracle.seed,
        "ground_truth": None if gt is None else gt.to_dict(),
        "ground_truth_error": None if gt is None else float(2 * mismatches) / (n * (n - 1)),
    }
    with open(sidecar_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar_path


def _first_fault(us, vs, ys, n: int, mode: str) -> Optional[str]:
    """What is wrong with the first faulty row of a pair-label file, in file order, or None.

    A row is faulty when it is not a pair of distinct ids in 0..n-1, gives
    its pair again with another label, or breaks the mode's (skew-)symmetry
    with its mirror pair.  Every row before the first faulty one agrees with
    the first row given on its pair, so each row is checked against that one.
    """
    invalid = (us == vs) | (np.minimum(us, vs) < 0) | (np.maximum(us, vs) >= n)
    end = int(invalid.argmax()) if invalid.any() else len(us)  # rows before it are pairs
    u, v, y = us[:end], vs[:end], ys[:end].astype(np.uint8)
    rows = np.arange(end, dtype=index_dtype(end + 1))
    first = np.full((n, n), end, dtype=rows.dtype)  # the first row on each pair, or end
    np.minimum.at(first, (u, v), rows)
    conflict = y != y[first[u, v]]
    mirror = np.minimum(first[v, u], rows)  # the first row on the mirror pair, if earlier
    earlier = mirror < rows
    skew = mode == "ranking"  # a ranking pair and its mirror carry opposite labels
    faulty = conflict | (earlier & ((y ^ y[mirror]) != skew))
    if faulty.any():
        row = int(faulty.argmax())
        pair = f"pair ({u[row]}, {v[row]})"
        if conflict[row]:
            return f"{pair} given twice with conflicting labels"
        return f"{pair} violates {'skew-symmetry' if skew else 'symmetry'}"
    if end < len(us):
        return f"invalid pair ({us[end]}, {vs[end]}) for n={n}"
    return None


# The characters of a file body whose cells numpy's reader parses as int() would
_PLAIN_BODY = b"0123456789+-, \t\r\n"


def _pair_cells(csv_path: str) -> np.ndarray:
    """u, v and label of each row of a pair-label file, in file order, as (rows, 3) int64.

    numpy's C reader parses a body of plain integer cells in one pass.  A
    body it refuses or does not take exactly as int() would (other
    characters, a ragged row, an id past 64 bits, a label other than 0 or 1)
    is read again row by row, which names the first faulty line.
    """
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if [c.strip().lower() for c in next(reader, [])[:3]] != ["u", "v", "label"]:
            raise OracleFormatError(f"{csv_path} must start with a 'u,v,label' header")
        chunks = iter(functools.partial(fh.read, 1 << 20), "")  # the body, checked in 1 MiB chunks
        plain = reader.line_num == 1 and all(
            c.isascii() and not c.encode().translate(None, _PLAIN_BODY) for c in chunks)
    if plain:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body warns; the caller refuses it
                cells = np.loadtxt(csv_path, np.int64, delimiter=",", comments=None,
                                   skiprows=1, ndmin=2)
        except ValueError:
            pass
        else:
            if cells.shape[1] == 3 and unsigned_max(cells[:, 2]) <= 1:
                return cells
    cells = array("q")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked above
        parse = lambda row: (int(row[0]), int(row[1]), int(row[2]))
        for line_no, row in csv_rows(csv_path, reader, parse, OracleFormatError):
            if row[2] not in (0, 1):
                raise OracleFormatError(f"{csv_path}:{line_no}: label must be 0 or 1")
            try:
                cells.extend(row)
            except OverflowError:
                raise OracleFormatError(f"{csv_path}:{line_no}: id past 64 bits") from None
    return np.frombuffer(cells, dtype=np.int64).reshape(-1, 3)


def load_oracle(
    csv_path: str,
    *,
    mode: Optional[str] = None,
    budget: Optional[int] = None,
) -> LabelOracle:
    """Rebuild an oracle from a pair-label CSV (adversarial_file noise kind).

    The CSV must cover every unordered pair.  If both orientations of a pair
    are present they must be consistent with the mode's symmetry; a missing
    or violating pair is rejected by name.  A JSON sidecar, if present, must
    be an object whose mode agrees with mode=, whose n is an integer >= 2
    and whose seed is an integer, where given.
    """
    sidecar_path = csv_path + ".json"
    meta = {}
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            try:
                meta = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise OracleFormatError(f"{sidecar_path}: sidecar is not JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise OracleFormatError(f"{sidecar_path}: sidecar must be a JSON object")
        if mode and meta.get("mode", mode) != mode:
            raise OracleFormatError(
                f"{sidecar_path}: mode {meta['mode']!r} does not match mode={mode!r}")
        n, seed = meta.get("n", 2), meta.get("seed", 0)
        if not (is_integer(n) and n >= 2):
            raise OracleFormatError(f"{sidecar_path}: n must be an integer >= 2, got {n!r}")
        if not is_integer(seed):
            raise OracleFormatError(f"{sidecar_path}: seed must be an integer, got {seed!r}")
        if not 0 <= seed < 2**64:
            raise OracleFormatError(f"{sidecar_path}: seed must be in 0..2**64 - 1, got {seed!r}")
    mode = mode or meta.get("mode")
    if mode not in ("ranking", "clustering"):
        raise OracleFormatError("oracle mode unknown: pass mode= or provide the JSON sidecar")
    if os.path.getsize(csv_path) == 0:
        raise OracleFormatError(f"{csv_path} is empty")
    cells = _pair_cells(csv_path)
    if not len(cells):
        raise OracleFormatError(f"{csv_path} holds no pair rows")
    us, vs, ys = cells.T
    n = int(meta.get("n") or max(int(us.max()), int(vs.max())) + 1)
    if len(us) < n * (n - 1) // 2:  # counted before the n x n table is allocated
        raise OracleFormatError(
            f"{csv_path} holds {len(us)} pair rows; n={n} needs all {n * (n - 1) // 2} pairs"
        )
    fault = _first_fault(us, vs, ys, n, mode)
    if fault:
        raise OracleFormatError(fault)
    table = np.full((n, n), 255, dtype=np.uint8)
    table[us, vs] = ys
    table[vs, us] = ys if mode == "clustering" else 1 - ys  # agrees with any mirror row given
    missing = np.triu(table == 255, 1)  # a pair's cells are both filled or both not
    if missing.any():
        u, v = divmod(int(missing.argmax()), n)  # the first in row-major order
        raise OracleFormatError(f"pair ({u}, {v}) is missing from {csv_path}")
    np.fill_diagonal(table, 0)
    noise = NoiseSpec(kind="adversarial_file", path=csv_path)
    return LabelOracle(mode, noise=noise, seed=int(meta.get("seed", 0)), label_table=table,
                       budget=budget)
