"""Instance space, run parameters, regret estimators, and the ERM iteration loop.

The instance space is the set of N = n*(n-1) ordered distinct pairs over n
items, weighted uniformly.  A hypothesis is anything that can score pairs:
permutations (pivotlearn.ranking) answer "is u ranked above v", clusterings
(pivotlearn.clustering) answer "are u and v together".  Finite label classes
(pivotlearn.generic) use plain 0/1 vectors over an abstract pool instead.

A RegretEstimator is a weighted sample of the instance space centred on a
pivot hypothesis.  Its value at h is an unbiased, cheap stand-in for
err(h) - err(pivot).  A builder hands it the pivot, the sampled ids, their
weights and their labels; the pivot's side of every sample, the pool and
the instance measure follow from those.  All costs are accumulated as
exact integer counts and divided once at the end, so evaluation is
reproducible to the bit and the pivot always evaluates to exactly 0.

Both local searches read their moves from pair_rows: the pair samples
merged into one exact weight per unordered pair, one row per item.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .seeding import LazyRng, derive_rng

__all__ = [
    "Params",
    "ParamError",
    "RegretEstimator",
    "Trajectory",
    "TrajectoryRow",
    "ErmFailedError",
    "BudgetExceededError",
    "PoolMismatchError",
    "distance",
    "true_error",
    "regret",
    "run_erm_iteration",
]


class PoolMismatchError(ValueError):
    """Hypothesis and pool (or two hypotheses) disagree on the item count."""


class ParamError(ValueError):
    """A Params or NoiseSpec field refused: `field` names it and `reason` says why."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(f"{field_name} {reason}")
        self.field = field_name
        self.reason = reason


class ErmFailedError(RuntimeError):
    """ERM step failed inside the iteration loop; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


class BudgetExceededError(RuntimeError):
    """A query would push distinct labels past the budget.

    The failed call consumes nothing; `counters` is the snapshot at failure
    and `requested` the number of new distinct labels the call asked for.
    """

    def __init__(self, message: str, counters: "QueryCounters", requested: int):
        super().__init__(message)
        self.counters = counters
        self.requested = requested


def is_integer(value) -> bool:
    """True for Python and NumPy integers; bools and integral floats do not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite Python or NumPy float, or an integer inside the float range; bools do not count."""
    if is_integer(value):  # compared as an int: 10**400 cannot overflow, a NumPy int cannot warn
        return abs(int(value)) <= sys.float_info.max
    return isinstance(value, (float, np.floating)) and math.isfinite(value)


def is_smoothing_floor(mu) -> bool:
    """mu in (0, 1] with a finite reciprocal, so log2(1 / mu) counts annuli."""
    return 0 < mu <= 1 and math.isfinite(1.0 / float(mu))


def python_scalars(obj) -> None:
    """Store each NumPy scalar field of a frozen dataclass as its Python value, which JSON takes."""
    for f in fields(obj):
        if isinstance(getattr(obj, f.name), np.generic):
            object.__setattr__(obj, f.name, getattr(obj, f.name).item())


def csv_rows(path: str, reader, parse, error=ValueError, malformed="malformed row {row!r}"):
    """Yield (line number, parse(row)) for each non-blank row left in a CSV reader.

    A row that parse refuses with ValueError or IndexError raises `error`
    naming the file, the line and `malformed`.
    """
    for row in reader:
        if not row:
            continue
        try:
            value = parse(row)
        except (ValueError, IndexError) as exc:
            raise error(f"{path}:{reader.line_num}: {malformed.format(row=row)}") from exc
        yield reader.line_num, value


_INT64_MAX = 2**63 - 1

# Largest per-stratum sample size a run accepts, forced or computed; a larger
# one could not be drawn in memory, and past 2**63 not even counted in int64.
MAX_SAMPLE_SIZE = 2**31 - 1

# Each pair mode's per-item array; a hypothesis or truth without it is of the other kind.
MODE_ARRAY = {"ranking": "rank", "clustering": "assign"}


def sample_size(name: str, formula: Callable[[], float]) -> int:
    """max(1, ceil(formula())), refusing a value that is not finite or exceeds MAX_SAMPLE_SIZE."""
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not value <= MAX_SAMPLE_SIZE:  # also catches NaN
        raise ValueError(f"sample size {name} = {value!r} must be finite and at most 2**31 - 1")
    return max(1, math.ceil(value))


def all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 arrays (us, vs) enumerating the n*(n-1) ordered distinct pairs once, row by row."""
    us, vs = np.nonzero(~np.eye(n, dtype=bool))
    return us.astype(np.int32), vs.astype(np.int32)


@dataclass(frozen=True)
class Params:
    """Run parameters shared by all estimator builders.

    The approximation guarantees behind the sample-size formulas are proved
    for epsilon below 1/5; the toolkit accepts any epsilon in (0, 1) so the
    scaling experiments can push past that regime.
    """

    epsilon: float
    mu: Optional[float] = None
    delta: float = 0.1
    iterations: int = 3
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        python_scalars(self)
        for name in ("iterations", "master_seed"):
            if not is_integer(getattr(self, name)):
                raise ParamError(name, f"must be an integer, got {getattr(self, name)!r}")
        for name in ("epsilon", "mu", "delta", "c1", "c2", "c3"):  # True would read as 1
            value = getattr(self, name)
            if not (is_integer(value) or isinstance(value, (float, np.floating))
                    or (name == "mu" and value is None)):
                raise ParamError(name, f"must be a number, got {value!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ParamError("epsilon", f"must be in (0, 1), got {self.epsilon}")
        if self.mu is not None and not is_smoothing_floor(self.mu):
            raise ParamError("mu", f"must be in (0, 1] with a finite reciprocal, got {self.mu}")
        if not (0.0 < self.delta < 1.0):
            raise ParamError("delta", f"must be in (0, 1), got {self.delta}")
        if self.iterations < 1:
            raise ParamError("iterations", "must be >= 1")
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value > 0):
                raise ParamError(name, f"must be positive and finite, got {value!r}")
        if not 0 <= self.master_seed < 2**64:  # the streams read its low 64 bits only
            raise ParamError("master_seed", "must be non-negative and below 2**64")

    def resolved_mu(self, measure_count: int) -> float:
        """mu, defaulting to one atom of the instance measure (1/N)."""
        return self.mu if self.mu is not None else 1.0 / measure_count


class RegretEstimator:
    """Weighted sample estimating err(h) - err(pivot).

    Pair mode (vs is an array): samples are ordered pairs over the pivot's
    n items, scored through h.pair_values of an h of the pivot's type; the
    instance space holds n * (n - 1) pairs.  Indexed mode (vs is None): the
    pivot and h are 0/1 label vectors over len(pivot) instances, and
    samples are their indices.
    Sample ids are held in index_dtype of the pool and refused outside it.
    weight_num / weight_denom are exact rational weights: the positive
    integer numerators are kept in the dtype they come in (a builder's are
    the narrowest unsigned dtype that holds them), and every sum over them
    is taken in int64, so their total must be at most 2**63 - 1.  Labels are
    0/1; anything else is refused, never truncated.  Evaluation sums
    integers and applies the single global scale
    1 / (measure_count * weight_denom) at the end.
    """

    def __init__(self, pivot, us, vs: Optional[np.ndarray], weight_num, weight_denom: int, labels):
        self.pivot = pivot
        self.n_items = len(pivot) if vs is None else pivot.n_items
        self.measure_count = self.n_items if vs is None else self.n_items * (self.n_items - 1)
        self.us = sample_ids(us, self.n_items, "us")
        self.vs = None if vs is None else sample_ids(vs, self.n_items, "vs")
        self.weight_num = integer_ids(weight_num, "weight_num")
        if not is_integer(weight_denom) or weight_denom < 1:
            raise ValueError(f"weight_denom must be an integer >= 1, got {weight_denom!r}")
        self.weight_denom = int(weight_denom)
        self.labels = zero_one(labels, "labels")
        if self.weight_num.min(initial=1) <= 0:
            raise ValueError("every sample weight must be positive")
        # int64 sums of positive weights wrap only past their total, which
        # weights below 2**32 cannot reach with at most 2**31 samples
        w = self.weight_num
        if (w.itemsize == 8 or len(w) > 2**31) and int(w.max(initial=0)) * len(w) > _INT64_MAX:
            if int(w.sum(dtype=object)) > _INT64_MAX:
                raise ValueError("sample weights must total at most 2**63 - 1")
        sizes = {len(self.us), len(self.weight_num), len(self.labels)}
        if self.vs is not None:
            sizes.add(len(self.vs))
        if len(sizes) > 1:
            raise ValueError("sample arrays must have equal length")
        if self.vs is not None and (self.us == self.vs).any():
            raise ValueError("self pairs are outside the pool")
        # the pivot's weighted mismatch, by the sum every hypothesis takes
        self._pivot_int = self._mismatch_int(pivot)

    @property
    def n_samples(self) -> int:
        return len(self.us)

    @property
    def scale(self) -> float:
        return 1.0 / (self.measure_count * self.weight_denom)

    def _mismatch_int(self, h) -> int:
        """Weighted count of the samples whose label h mismatches, in int64.

        The sum is taken in blocks of _SCAN_BLOCK_PAIRS samples, so its
        products, like the gathers that score a block, stay a block long.
        A product stays in the weights' dtype, which holds it since a
        mismatch is 0 or 1; a dot product would sum there too, and numpy
        wraps a narrow dtype silently: two uint16 weights of 60000 would sum
        to 54464.
        """
        if self.vs is None:
            values = zero_one(h, "label vector")
            if values.shape != (self.measure_count,):
                raise PoolMismatchError(
                    f"label vector of length {values.shape} does not match pool "
                    f"size {self.measure_count}"
                )
        elif type(h) is not type(self.pivot) or h.n_items != self.n_items:
            raise PoolMismatchError("hypothesis kind or item count does not match the pivot")
        total = 0
        for start in range(0, self.n_samples, _SCAN_BLOCK_PAIRS):
            block = slice(start, start + _SCAN_BLOCK_PAIRS)
            if self.vs is None:
                pred = values[self.us[block]]
            else:
                pred = h.pair_values(self.us[block], self.vs[block])
            miss = (pred != self.labels[block]).view(np.uint8)
            total += int((self.weight_num[block] * miss).sum(dtype=np.int64))
        return total

    def evaluate_int(self, h) -> int:
        """Integer numerator of evaluate(); exact, order-independent."""
        return self._mismatch_int(h) - self._pivot_int

    def evaluate(self, h) -> float:
        return self.evaluate_int(h) * self.scale


# -- exact argmin over an enumerated table of 0/1 columns ---------------------
#
# Every exact minimizer scores rows of a fixed 0/1 table T (a rank array's
# "lo before hi" bits over the unordered pairs, an assignment's "same
# cluster" bits, a class's labels).  A sample with label y and weight w on
# column p is mismatched by row r exactly when T[r, p] != y, which is
# w*y + T[r, p]*w*(1 - 2y): linear in the bits.  So a row's weighted
# mismatch is base + sum_p T[r, p]*coef[p], and the table is packed once.

# Rows per block when packing a table or scoring it, and cells per block when
# packing a wide one: a block's temporaries stay within a few tens of
# megabytes whatever the row and column counts.
_TABLE_BLOCK_ROWS = 1 << 15
_TABLE_BLOCK_CELLS = 1 << 21

# _NIBBLE_BITS[j, b] is bit j of nibble value b (little bit order)
_NIBBLE_BITS = (np.arange(16) >> np.arange(4)[:, None]) & 1


@functools.lru_cache(maxsize=64)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1): every pair lo < hi in column order, cached per n and read-only."""
    pairs = np.triu_indices(n, k=1)
    for array in pairs:
        array.flags.writeable = False
    return pairs


def column_coefficients(columns, labels, weight_num, size: int) -> tuple[np.ndarray, int]:
    """(coef, base) with weighted mismatch = base + T[row] @ coef, in exact int64.

    Sample i sits on column columns[i] with label labels[i] and weight
    weight_num[i], and is mismatched where the bit differs from its label.
    """
    y = np.asarray(labels)
    w = np.asarray(weight_num, dtype=np.int64)
    coef = np.zeros(size, dtype=np.int64)
    np.add.at(coef, np.asarray(columns, dtype=np.intp), np.where(y, -w, w))
    return coef, int(w @ y)


def pair_coefficients(n: int, us, vs, labels, weight_num, oriented: bool) -> tuple[np.ndarray, int]:
    """column_coefficients of pair samples u != v over the unordered pairs of n items.

    Column p is the p-th pair lo < hi in np.triu_indices(n, 1) order, whose
    bit is "lo ranks before hi" when `oriented`, else "lo and hi share a
    cluster".  An oriented sample with u > v reads the bit negated, so it
    counts with the opposite label.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if oriented:
        y = y ^ (us > vs)
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    columns = (2 * n - 3) - lo  # lo * n - lo * (lo + 1) / 2 + hi - lo - 1
    columns *= lo
    columns >>= 1
    columns += hi
    columns -= 1
    return column_coefficients(columns, y, weight_num, n * (n - 1) // 2)


def pack_columns(table) -> np.ndarray:
    """A (rows, P) 0/1 table as (ceil(P/8), rows) uint8: byte g of a row holds bits 8g..8g+7."""
    return np.ascontiguousarray(np.packbits(table, axis=1, bitorder="little").T)


def pair_table(rows: np.ndarray, oriented: bool) -> np.ndarray:
    """pack_columns of each row's pair bits: rows[:, lo] < rows[:, hi] when oriented, else ==.

    Packed in row blocks of at most _TABLE_BLOCK_CELLS pair cells, so neither
    the unpacked table nor a gather of it exists whole, however many pairs.
    """
    lo, hi = upper_pairs(rows.shape[1])
    out = np.empty(((len(lo) + 7) // 8, len(rows)), dtype=np.uint8)
    height = min(_TABLE_BLOCK_ROWS, max(1, _TABLE_BLOCK_CELLS // len(lo)))
    for start in range(0, len(rows), height):
        block = rows[start : start + height]
        bits = block[:, lo] < block[:, hi] if oriented else block[:, lo] == block[:, hi]
        out[:, start : start + len(block)] = pack_columns(bits)
    return out


def packed_argmin(packed: np.ndarray, coef: np.ndarray, base: int) -> tuple[int, int]:
    """(row, value) of the first row minimizing base + T[row] @ coef over a packed table.

    Byte group g gets a 256-entry lookup table of its 8 coefficients'
    subset sums (one per half-byte pair of two 16-entry tables), so a row's
    value is base plus one lookup per group.  All sums are exact int64, so
    ties go to the smallest row.
    """
    groups, n_rows = packed.shape
    padded = np.zeros((groups, 2, 4), dtype=np.int64)
    padded.reshape(-1)[: len(coef)] = coef
    nibbles = padded @ _NIBBLE_BITS  # (groups, 2, 16): subset sums of each half byte
    luts = (nibbles[:, 1, :, None] + nibbles[:, 0, None, :]).reshape(groups, 256)
    best_val, best_row = None, 0
    for start in range(0, n_rows, _TABLE_BLOCK_ROWS):
        block = packed[:, start : start + _TABLE_BLOCK_ROWS]
        values = np.zeros(block.shape[1], dtype=np.int64)
        for lut, byte in zip(luts, block):
            values += lut.take(byte)  # take widens uint8 indices faster than fancy indexing
        idx = int(values.argmin())
        if best_val is None or values[idx] < best_val:
            best_val, best_row = int(values[idx]), start + idx
    return best_row, base + best_val


def segment_offsets(counts: np.ndarray) -> np.ndarray:
    """0..c-1 for each count c, concatenated, in index_dtype of their total plus one."""
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    offsets = np.arange(total, dtype=index_dtype(total + 1))
    offsets -= (ends - counts).astype(offsets.dtype).repeat(counts)
    return offsets


@functools.lru_cache(maxsize=None)
def index_dtype(n: int) -> np.dtype:
    """Narrowest unsigned dtype holding 0..n-1: a stable sort of it is a radix sort up to 2**16."""
    return np.min_scalar_type(n - 1)


def pair_keys(us, vs, n: int) -> np.ndarray:
    """Key lo * n + hi of each pair of ids in 0..n-1, as index_dtype(n * n).

    The smaller id is widened before the product, because numpy wraps array
    overflow silently; the larger id is below n, so adding it is exact
    whatever its dtype.
    """
    keys = np.minimum(us, vs).astype(index_dtype(n * n))
    keys *= n
    np.add(keys, np.maximum(us, vs), out=keys, casting="unsafe")
    return keys


def pair_rows(est, oriented: bool) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(partners, weights, bounds): the pair samples of est merged per unordered pair, as rows.

    Row u, entries bounds[u]:bounds[u + 1], holds u itself at weight 0,
    then its pairs as the lower id in ascending partner order, then its
    pairs as the higher id in ascending partner order.  An entry's weight is
    the exact change in mismatched sample weight when u moves from before
    its partner to after it (`oriented`, ranking) or from apart to together
    with it (otherwise, clustering): all samples on one pair are summed
    into one weight, the lower id's entries negated when `oriented`, and a
    pair whose weight sums to 0 is dropped.  Partners are int64, because
    both searches gather by them.  Weights are int32 when eight times the
    largest per-item total sample weight is below 2**31, which bounds every
    sum either search forms from one or a few rows, and int64 otherwise.
    Merge keys and ids stay narrow while the rows are placed, so keys up to
    16 bits are radix-sorted.
    """
    n = est.n_items
    totals = np.bincount(est.us, est.weight_num, n) + np.bincount(est.vs, est.weight_num, n)
    narrow = 8 * totals.max(initial=0) < 2**31
    keys = pair_keys(est.us, est.vs, n)
    kind = "stable" if keys.itemsize <= 2 else "quicksort"
    by_pair = keys.argsort(kind=kind)
    keys.sort(kind=kind)  # keys[by_pair], without a second key array
    bit = est.labels != (est.us > est.vs) if oriented else est.labels != 0  # the (lo, hi) bit
    bit = bit[by_pair]
    w = est.weight_num[by_pair].astype(np.int32 if narrow else np.int64)
    del by_pair
    np.negative(w, out=w, where=bit)
    del bit
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    w = np.add.reduceat(w, first, dtype=w.dtype)
    lo, hi = np.empty(len(first), index_dtype(n)), np.empty(len(first), index_dtype(n))
    np.divmod(keys[first], n, out=(lo, hi))
    del keys
    keep = w != 0
    lo, hi, w = lo[keep], hi[keep], w[keep]
    del first, keep
    # rows placed by counts: the pairs run in key order, so each lo's pairs
    # come together, and a stable sort (a radix sort up to 2**16 items)
    # groups them by hi
    lo_count, hi_count = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
    sizes = np.stack([np.ones(n, dtype=lo_count.dtype), lo_count, hi_count], axis=1)
    row_len = sizes.sum(axis=1)
    ends = row_len.cumsum()
    role = np.tile(np.arange(3, dtype=np.uint8), n).repeat(sizes.reshape(-1))
    as_lo, as_hi = role == 1, role == 2
    del role
    by_hi = hi.argsort(kind="stable")
    lo_by_hi, w_by_hi = lo[by_hi], w[by_hi]
    del by_hi, lo
    if oriented:
        np.negative(w, out=w)
    weights = np.zeros(ends[-1], dtype=w.dtype)
    weights[as_lo] = w
    weights[as_hi] = w_by_hi
    del w, w_by_hi
    partners = np.empty(ends[-1], dtype=np.int64)
    partners[ends - row_len] = np.arange(n)  # each row's first slot: its own item
    partners[as_lo] = hi
    partners[as_hi] = lo_by_hi
    return partners, weights, [0, *ends.tolist()]


_UNSIGNED = {size: np.dtype(f"u{size}") for size in (1, 2, 4, 8)}


def unsigned_max(ids: np.ndarray) -> int:
    """Largest of integer ids read as unsigned, so a negative id lies past every valid one."""
    if ids.dtype.kind == "i":
        ids = ids.view(_UNSIGNED[ids.itemsize])
    return int(ids.max(initial=0))


def integer_ids(ids, name: str, ndim: Optional[int] = None) -> np.ndarray:
    """ids (or weights) as an array in their own integer dtype, so narrow ids stay narrow.

    Floats and bools are refused with a ValueError rather than truncated:
    an ndarray by its dtype, anything else element by element through an
    object view, so a True among ints is caught before numpy reads it as 1.
    An empty input is an empty int64 array.  ndim, if given, is the number
    of dimensions the ids must have.
    """
    if not isinstance(ids, np.ndarray) and not all(map(is_integer, np.asarray(ids, object).flat)):
        raise ValueError(f"{name} must hold integers")
    ids = np.asarray(ids)
    if ndim is not None and ids.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d integers, got shape {ids.shape}")
    if ids.dtype.kind in "iu":
        return ids
    if ids.size:
        raise ValueError(f"{name} must hold integers, got dtype {ids.dtype}")
    return ids.astype(np.int64)


def zero_one(values, name: str) -> np.ndarray:
    """values as uint8, refusing any entry that is not exactly 0 or 1 rather than truncating it."""
    values = np.asarray(values)
    unsigned = values.dtype.kind in "bu"  # nothing below 0, so one max decides
    if values.max(initial=0) > 1 if unsigned else np.any((values != 0) & (values != 1)):
        raise ValueError(f"{name} must be 0 or 1")
    return values.astype(np.uint8, copy=False)


def sample_ids(ids, pool: int, name: str) -> np.ndarray:
    """Integer ids as index_dtype(pool), refusing any outside [0, pool) with a ValueError."""
    ids = integer_ids(ids, name)
    if ids.size and unsigned_max(ids) >= pool:
        raise ValueError(f"{name} holds a sample id outside the pool [0, {pool})")
    return ids.astype(index_dtype(pool), copy=False)


def stratum_draws(sizes: np.ndarray, q: int, rng: np.random.Generator, whole=None):
    """(count per stratum, offset per sample, weight numerator per sample) against denominator q.

    A stratum of at most q members, or one flagged in `whole`, enters whole:
    offsets 0..size-1, numerator q.  A larger one gets q draws with repetition
    at numerator size, from one rng call over all strata in order, which
    yields what one q-draw call per stratum would.  Offsets are held in
    index_dtype of the largest stratum and numerators in the narrowest
    unsigned dtype that holds the largest one; only the draws are int64.
    """
    if not is_integer(q) or q < 1:
        raise ValueError(f"per-stratum sample size must be an integer >= 1, got {q!r}")
    drawn = sizes > q
    if whole is not None:
        drawn &= ~whole
    count = np.where(drawn, q, sizes)
    offset = segment_offsets(count).astype(index_dtype(int(sizes.max(initial=1))), copy=False)
    offset[drawn.repeat(count)] = rng.integers(0, sizes[drawn].repeat(q))
    num = np.where(drawn, sizes, q)
    return count, offset, num.astype(np.min_scalar_type(int(num.max(initial=0)))).repeat(count)


def distance(h1, h2) -> float:
    """Pair-disagreement pseudometric of two hypotheses of one kind, by their distance_to."""
    n = getattr(h1, "n_items", None)
    if n is None or type(h1) is not type(h2) or h2.n_items != n:
        raise PoolMismatchError("distance takes two hypotheses of one kind on one pool")
    return h1.distance_to(h2)


def unordered_verification_labels(oracle, us, vs, scans: int = 1) -> np.ndarray:
    """Verification labels of pairs u < v, each read charged for both orientations.

    Pair labels and pair hypotheses are symmetric (clustering) or
    skew-symmetric (ranking), so (u, v) and (v, u) are mismatched together
    and a scan over ordered pairs counts exactly twice a scan over unordered
    ones.  verification_reads still grows by two per pair and scan: a full
    scan costs n*(n-1) reads however it is walked, and `scans` hypotheses
    scored on one read cost one scan each.
    """
    labels = oracle.verification_labels(us, vs)
    oracle.counters.verification_reads += (2 * scans - 1) * labels.size
    return labels


def pair_min_error(oracle, argmin) -> tuple[float, object]:
    """(least err over a pair class, its first argmin), from one read of the labels.

    argmin(n, us, vs, labels, weight_num) -> (hypothesis, weighted mismatch)
    scores the pairs u < v at unit weight; by (skew-)symmetry each mismatch
    there stands for two ordered ones.  The labels are read through the
    verification counter, so this is the best achievable error, not an
    estimate.
    """
    n = oracle.n
    us, vs = upper_pairs(n)
    labels = unordered_verification_labels(oracle, us, vs)
    h, half = argmin(n, us, vs, labels, np.ones(len(us), np.int64))
    return 2 * half / (n * (n - 1)), h


RESTARTS = 5  # climbs per local search when a caller names no count


def best_of_restarts(est, start, restarts: int, rng, random_start, climb):
    """The best local optimum of `restarts` climbs, climb(h) -> optimum.

    The first climb starts from `start`, so the result never evaluates
    worse than it; the others from random_start(rng).  One optimum is
    returned unscored; of several, each is scored once by est.evaluate_int
    as it comes, only the best so far is held, and the first least wins.
    rng is read only from the second restart on, so a LazyRng handed to a
    one-restart search is never derived; None is LazyRng(0, "local-search").
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if rng is None:
        rng = LazyRng(0, "local-search")
    optima = (climb(start if r == 0 else random_start(rng)) for r in range(restarts))
    return next(optima) if restarts == 1 else min(optima, key=est.evaluate_int)


# Pairs per block of a true_error scan, of an estimator's sample walk and of
# a clustering local-search pass: enough to amortize per-call numpy overhead,
# few enough that a block's temporaries take a few megabytes.
_SCAN_BLOCK_PAIRS = 1 << 16


def _triangle(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(us, vs) over every pair a <= u < v < b, row by row, in index_dtype(b)."""
    rows = np.arange(a, b, dtype=index_dtype(b))
    counts = b - 1 - rows
    us = rows.repeat(counts)
    vs = us + 1
    vs += segment_offsets(counts)  # below b, whatever dtype the offsets take
    return us, vs


def _unordered_pair_blocks(n: int):
    """Yield (us, vs) over every pair u < v, in blocks of at most _SCAN_BLOCK_PAIRS pairs.

    While the rows left hold more pairs than that, rows a..b-1 go as an
    outer block, the column arange(a, b)[:, None] against the row
    arange(b, n)[None, :], so no per-pair index array is built; a row
    longer than the cap goes in column chunks.  Their inner pairs go as a
    1-d batch, which stays small because a block never takes more than
    half the rows left.  The last triangle goes as one 1-d batch.
    """
    cap = _SCAN_BLOCK_PAIRS
    row = 0
    while (n - row) * (n - row - 1) // 2 > cap:
        height = max(1, min(cap // (n - row), (n - row) // 2))
        stop = row + height
        us = np.arange(row, stop)[:, None]
        width = cap // height
        for col in range(stop, n, width):
            yield us, np.arange(col, min(n, col + width))[None, :]
        if height > 1:
            yield _triangle(row, stop)
        row = stop
    yield _triangle(row, n)


def true_error(h, oracle) -> float | list[float]:
    """err(h): disagreement of h with the oracle over all N ordered pairs.

    Given a list or tuple of hypotheses, returns the list of their errors
    from one pass over the labels, each equal to its own single call and
    charged a full scan.  Walks the unordered pairs in outer blocks, so
    memory stays flat in n; by (skew-)symmetry each mismatch there stands
    for two ordered ones.  Reads the full label table through the
    verification counter; refuses to run against a budget-capped oracle.
    """
    if getattr(oracle, "budget", None) is not None:
        raise ValueError("true_error needs an unrestricted oracle (budget is set)")
    n = oracle.n
    batch = isinstance(h, (list, tuple))
    hs = list(h) if batch else [h]
    values = MODE_ARRAY[oracle.mode]
    if any(not hasattr(g, values) or g.n_items != n for g in hs):
        raise PoolMismatchError(f"true_error scores {oracle.mode} hypotheses over {n} items")
    if not hs:
        return []
    mismatches = [0] * len(hs)
    for us, vs in _unordered_pair_blocks(n):
        labels = unordered_verification_labels(oracle, us, vs, scans=len(hs))
        for j, g in enumerate(hs):
            mismatches[j] += int(np.count_nonzero(g.pair_values(us, vs) != labels))
    errors = [float(2 * m) / (n * (n - 1)) for m in mismatches]
    return errors if batch else errors[0]


def regret(h_pivot, h, oracle) -> float:
    """err(h) - err(h_pivot), computed from one verification pass."""
    err_h, err_pivot = true_error([h, h_pivot], oracle)
    return err_h - err_pivot


@dataclass
class TrajectoryRow:
    iteration: int
    hypothesis: object
    err: Optional[float]
    estimator_value: Optional[float]
    distinct_queries: int
    cumulative_queries: int
    wall_ms: float


@dataclass
class Trajectory:
    rows: list[TrajectoryRow] = field(default_factory=list)
    status: str = "completed"

    @property
    def final_hypothesis(self):
        return self.rows[-1].hypothesis if self.rows else None


BuilderFn = Callable[..., RegretEstimator]
ErmFn = Callable[..., object]


def run_erm_iteration(
    h0,
    oracle,
    params: Params,
    builder: BuilderFn,
    erm: ErmFn,
) -> Trajectory:
    """Iterate estimator construction and ERM for params.iterations rounds.

    Round i builds an estimator pivoted at the current hypothesis and moves
    to the estimator's minimizer.  Per-round distinct query counts are taken
    from the oracle's counters.  On oracle budget exhaustion the loop stops
    with status "budget_exhausted" and the partial trajectory; an ERM failure
    raises ErmFailedError carrying the partial trajectory.  Errors are
    recorded only against an unbudgeted oracle, because true_error refuses a
    budgeted one: one batched scan after the loop, or before ErmFailedError
    is raised, fills every row's err.  A row's wall_ms covers the build and
    the ERM step, not the error scan.  Round i's ERM stream is
    derive_rng(seed, "erm", i), derived only if the ERM reads it (exact
    searches and one-restart local search never do).
    """
    budgeted = getattr(oracle, "budget", None) is not None  # true_error refuses a budgeted oracle
    errors = None if budgeted else lambda hs: true_error(hs, oracle)
    return _erm_loop(h0, oracle, params, builder, erm, lambda h: h, errors)


def _erm_loop(h, oracle, params: Params, builder: BuilderFn, erm: ErmFn, scored, errors):
    """The loop of run_erm_iteration: the estimator evaluates scored(h) for a
    hypothesis h, and errors(hs) reads the errors of a list of hypotheses
    (None where none can be read).  Every exit fills the errors it can read.
    """
    seed = params.master_seed
    traj = Trajectory([TrajectoryRow(0, h, None, None, 0, oracle.counters.distinct_labeled, 0.0)])

    def fill_errors():
        if errors is not None:
            for row, err in zip(traj.rows, errors([row.hypothesis for row in traj.rows])):
                row.err = err

    for i in range(1, params.iterations + 1):
        t0 = time.perf_counter()
        before = oracle.counters.distinct_labeled
        try:
            est = builder(h, oracle, params, rng=derive_rng(seed, "build", i))
        except BudgetExceededError:
            traj.status = "budget_exhausted"
            break
        try:
            h = erm(est, h, rng=LazyRng(seed, "erm", i))
        except Exception as exc:  # noqa: BLE001 - deliberate catch-all at the loop boundary
            traj.status = "erm_failed"
            fill_errors()
            raise ErmFailedError(f"ERM failed at iteration {i}: {exc}", traj) from exc
        total = oracle.counters.distinct_labeled
        wall_ms = (time.perf_counter() - t0) * 1000.0
        value = est.evaluate(scored(h))
        traj.rows.append(TrajectoryRow(i, h, None, value, total - before, total, wall_ms))
        del est  # so only one estimator is alive while the next one is built
    fill_errors()
    return traj
