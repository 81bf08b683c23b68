"""Pool model, run parameters, regret estimators, and the ERM iteration loop.

The instance space is the set of N = n*(n-1) ordered distinct pairs over n
items, weighted uniformly.  A hypothesis is anything that can score pairs:
permutations (pivotlearn.ranking) answer "is u ranked above v", clusterings
(pivotlearn.clustering) answer "are u and v together".  Finite label classes
(pivotlearn.generic) use plain 0/1 vectors over an abstract pool instead.

A RegretEstimator is a weighted sample of the instance space centred on a
pivot hypothesis.  Its value at h is an unbiased, cheap stand-in for
err(h) - err(pivot).  All costs are accumulated as exact integer counts and
divided once at the end, so evaluation is reproducible to the bit and the
pivot always evaluates to exactly 0.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .seeding import LazyRng, derive_rng

__all__ = [
    "Pool",
    "Params",
    "RegretEstimator",
    "Trajectory",
    "TrajectoryRow",
    "ErmFailedError",
    "PoolMismatchError",
    "distance",
    "true_error",
    "regret",
    "run_erm_iteration",
]


class PoolMismatchError(ValueError):
    """Hypothesis and pool (or two hypotheses) disagree on the item count."""


class ErmFailedError(RuntimeError):
    """ERM step failed inside the iteration loop; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


def is_integer(value) -> bool:
    """True for Python and NumPy integers; bools and integral floats do not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def integer_array(values) -> np.ndarray:
    """values as a 1-d integer array; floats and bools are refused, never truncated."""
    arr = np.asarray(values)
    if isinstance(values, np.ndarray):
        exact = arr.dtype.kind in "iu"
    else:
        exact = all(map(is_integer, values))
    if arr.ndim != 1 or not exact:
        raise ValueError("expected a 1-d sequence of integers")
    return arr


def csv_header(reader, names, message: str, error=ValueError) -> list[str]:
    """First row of a CSV reader, which must start with `names` (case and spaces ignored)."""
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header[: len(names)]] != list(names):
        raise error(message)
    return header


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


def items_in_order(path: str, by_item: dict) -> list:
    """Values of by_item in item order; the items must be exactly 0..n-1 with n >= 2."""
    n = len(by_item)
    if n < 2 or sorted(by_item) != list(range(n)):
        raise ValueError(f"{path}: items must be exactly 0..n-1")
    return [by_item[i] for i in range(n)]


# Largest per-stratum sample size a run accepts, forced or computed; a larger
# one could not be drawn in memory, and past 2**63 not even counted in int64.
MAX_SAMPLE_SIZE = 2**31 - 1


def sample_size(name: str, formula: Callable[[], float]) -> int:
    """max(1, ceil(formula())), refusing a value that is not finite or exceeds MAX_SAMPLE_SIZE."""
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not value <= MAX_SAMPLE_SIZE:  # also catches NaN
        raise ValueError(f"sample size {name} = {value!r} must be finite and at most 2**31 - 1")
    return max(1, math.ceil(value))


@dataclass(frozen=True)
class Pool:
    """n items; the instance space is all ordered distinct pairs."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("pool needs at least 2 items")

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1)

    def all_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (us, vs) enumerating every ordered distinct pair once."""
        idx = np.arange(self.n)
        us = np.repeat(idx, self.n - 1)
        grid = np.tile(idx, (self.n, 1))
        vs = grid[~np.eye(self.n, dtype=bool)]
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
        for name in ("iterations", "master_seed"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.mu is not None and not (0.0 < self.mu <= 1.0):
            raise ValueError(f"mu must be in (0, 1], got {self.mu}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")

    def resolved_mu(self, measure_count: int) -> float:
        """mu, defaulting to one atom of the instance measure (1/N)."""
        return self.mu if self.mu is not None else 1.0 / measure_count

    def with_overrides(self, **kw) -> "Params":
        return replace(self, **kw)


class RegretEstimator:
    """Weighted sample estimating err(h) - err(pivot).

    Pair mode (vs is an array): samples are ordered pairs scored through
    h.pair_values.  Indexed mode (vs is None): samples are pool indices and
    h is a 0/1 label vector.  weight_num / weight_denom are exact rational
    weights; evaluation sums integers and applies the single global scale
    1 / (measure_count * weight_denom) at the end.
    """

    def __init__(
        self,
        pivot,
        us: np.ndarray,
        vs: Optional[np.ndarray],
        weight_num: np.ndarray,
        weight_denom: int,
        labels: np.ndarray,
        pivot_costs: np.ndarray,
        measure_count: int,
        n_items: int,
    ):
        self.pivot = pivot
        self.us = np.asarray(us, dtype=np.int64)
        self.vs = None if vs is None else np.asarray(vs, dtype=np.int64)
        self.weight_num = np.asarray(weight_num, dtype=np.int64)
        self.weight_denom = int(weight_denom)
        self.labels = np.asarray(labels, dtype=np.uint8)
        self.pivot_costs = np.asarray(pivot_costs, dtype=np.uint8)
        self.measure_count = int(measure_count)
        self.n_items = int(n_items)
        if self.weight_denom <= 0:
            raise ValueError("weight_denom must be positive")
        if self.weight_num.min(initial=1) <= 0:
            raise ValueError("every sample weight must be positive")
        sizes = {len(self.us), len(self.weight_num), len(self.labels), len(self.pivot_costs)}
        if self.vs is not None:
            sizes.add(len(self.vs))
        if len(sizes) > 1:
            raise ValueError("sample arrays must have equal length")
        if self.vs is not None and (self.us == self.vs).any():
            raise ValueError("self pairs are outside the pool")
        # integer part of the pivot regret, fixed at construction
        self._pivot_int = int(self.weight_num @ self.pivot_costs)

    @property
    def n_samples(self) -> int:
        return len(self.us)

    @property
    def is_pair_mode(self) -> bool:
        return self.vs is not None

    @property
    def scale(self) -> float:
        return 1.0 / (self.measure_count * self.weight_denom)

    def _costs(self, h) -> np.ndarray:
        if self.vs is None:
            values = np.asarray(h, dtype=np.uint8)
            if values.shape != (self.measure_count,):
                raise PoolMismatchError(
                    f"label vector of length {values.shape} does not match pool "
                    f"size {self.measure_count}"
                )
            pred = values[self.us]
        else:
            if getattr(h, "n_items", self.n_items) != self.n_items:
                raise PoolMismatchError("hypothesis item count does not match estimator")
            pred = h.pair_values(self.us, self.vs)
        return (pred != self.labels).astype(np.uint8)

    def evaluate_int(self, h) -> int:
        """Integer numerator of evaluate(); exact, order-independent."""
        costs = self._costs(h).astype(np.int64)
        return int(self.weight_num @ costs) - self._pivot_int

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

# Rows per block when packing a table or scoring it: a block's temporaries
# stay around a few megabytes whatever the row count.
_TABLE_BLOCK_ROWS = 1 << 15

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
    """column_coefficients of pair samples over the unordered pairs of n items.

    Column p is the p-th pair lo < hi in np.triu_indices(n, 1) order, whose
    bit is "lo ranks before hi" when `oriented`, else "lo and hi share a
    cluster".  An oriented sample with u > v reads the bit negated, so it
    counts with the opposite label.  A sample with u == v adds a constant:
    its bit is 0 when oriented (no item ranks before itself) and 1
    otherwise (every item shares its cluster).
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if oriented:
        y = y ^ (us > vs)
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    size = n * (n - 1) // 2
    # lo * n - lo * (lo + 1) / 2 + hi - lo - 1, and one extra column for u == v
    columns = (2 * n - 3) - lo
    columns *= lo
    columns >>= 1
    columns += hi
    columns -= 1
    np.copyto(columns, size, where=lo == hi)
    coef, base = column_coefficients(columns, y, weight_num, size + 1)
    return coef[:size], base + (0 if oriented else int(coef[size]))


def pack_columns(table) -> np.ndarray:
    """A (rows, P) 0/1 table as (ceil(P/8), rows) uint8: byte g of a row holds bits 8g..8g+7."""
    return np.ascontiguousarray(np.packbits(table, axis=1, bitorder="little").T)


def pair_table(rows: np.ndarray, oriented: bool) -> np.ndarray:
    """pack_columns of each row's pair bits: rows[:, lo] < rows[:, hi] when oriented, else ==.

    Packed in row blocks, so the unpacked table never exists whole.
    """
    lo, hi = upper_pairs(rows.shape[1])
    out = np.empty(((len(lo) + 7) // 8, len(rows)), dtype=np.uint8)
    for start in range(0, len(rows), _TABLE_BLOCK_ROWS):
        block = rows[start : start + _TABLE_BLOCK_ROWS]
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
    """0..c-1 for each count c, concatenated."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) - (ends - counts).repeat(counts)


def index_dtype(n: int) -> np.dtype:
    """Narrowest unsigned dtype holding 0..n-1: a stable sort of it is a radix sort up to 2**16."""
    return np.min_scalar_type(n - 1)


def stratum_draws(sizes: np.ndarray, q: int, rng: np.random.Generator, whole=None):
    """(count per stratum, offset per sample, weight numerator per sample) against denominator q.

    A stratum of at most q members, or one flagged in `whole`, enters whole:
    offsets 0..size-1, numerator q.  A larger one gets q draws with repetition
    at numerator size, from one rng call over all strata in order, which
    yields what one q-draw call per stratum would.
    """
    if not is_integer(q) or q < 1:
        raise ValueError(f"per-stratum sample size must be an integer >= 1, got {q!r}")
    drawn = sizes > q
    if whole is not None:
        drawn &= ~whole
    count = np.where(drawn, q, sizes)
    offset = segment_offsets(count)
    offset[drawn.repeat(count)] = rng.integers(0, sizes[drawn].repeat(q))
    return count, offset, np.where(drawn, sizes, q).repeat(count)


def pair_estimator(pivot, oracle, us, vs, w_num, weight_denom: int) -> RegretEstimator:
    """Label sampled pairs in one batch and centre them on a pivot hypothesis.

    Sample i is the pair (us[i], vs[i]) at weight numerator w_num[i], in
    sampling order.
    """
    labels = oracle.query_many(us, vs)
    pivot_costs = pivot.pair_values(us, vs)  # a fresh 0/1 uint8 array
    pivot_costs ^= labels  # 1 where the pivot mismatches the label
    n = pivot.n_items
    return RegretEstimator(
        pivot, us, vs, w_num, weight_denom, labels, pivot_costs,
        measure_count=n * (n - 1), n_items=n,
    )


def distance(h1, h2) -> float:
    """Normalized pair-disagreement pseudometric between two hypotheses."""
    n = getattr(h1, "n_items", None)
    if n is None or getattr(h2, "n_items", None) != n:
        raise PoolMismatchError("hypotheses live on different pools")
    own = getattr(h1, "distance_to", None)
    if own is not None and type(h1) is type(h2):
        return own(h2)
    us, vs = Pool(n).all_pairs()
    diff = h1.pair_values(us, vs) != h2.pair_values(us, vs)
    return float(np.count_nonzero(diff)) / Pool(n).pair_count


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
    oracle.counters.verification_reads += (2 * scans - 1) * len(labels)
    return labels


# Pairs per block of a true_error scan and of an oracle's label hashing:
# enough to amortize per-call numpy overhead, few enough that a block's
# temporaries take a few megabytes.
_SCAN_BLOCK_PAIRS = 1 << 16


def _unordered_pair_blocks(n: int):
    """Yield (us, vs) over every pair u < v, whole rows of about _SCAN_BLOCK_PAIRS pairs."""
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # pairs in rows 0..u
    row = 0
    while row < n - 1:
        done = int(ends[row - 1]) if row else 0
        stop = max(row + 1, int(np.searchsorted(ends, done + _SCAN_BLOCK_PAIRS, side="right")))
        rows = np.arange(row, stop)
        counts = n - 1 - rows
        us = np.repeat(rows, counts)
        yield us, us + 1 + segment_offsets(counts)
        row = stop


def true_error(h, oracle) -> float | list[float]:
    """err(h): disagreement of h with the oracle over all N ordered pairs.

    Given a list or tuple of hypotheses, returns the list of their errors
    from one pass over the labels, each equal to its own single call and
    charged a full scan.  Walks the unordered pairs in row blocks, so memory
    stays flat in n; by (skew-)symmetry each mismatch there stands for two
    ordered ones.  Reads the full label table through the verification
    counter; refuses to run against a budget-capped oracle.
    """
    if getattr(oracle, "budget", None) is not None:
        raise ValueError("true_error needs an unrestricted oracle (budget is set)")
    n = oracle.n
    batch = isinstance(h, (list, tuple))
    hs = list(h) if batch else [h]
    if any(getattr(g, "n_items", n) != n for g in hs):
        raise PoolMismatchError("hypothesis item count does not match oracle")
    if not hs:
        return []
    mismatches = [0] * len(hs)
    for us, vs in _unordered_pair_blocks(n):
        labels = unordered_verification_labels(oracle, us, vs, scans=len(hs))
        for j, g in enumerate(hs):
            mismatches[j] += int(np.count_nonzero(g.pair_values(us, vs) != labels))
    errors = [float(2 * m) / Pool(n).pair_count for m in mismatches]
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
    from .oracles import BudgetExceededError  # local import, no cycle at module load

    record_errors = getattr(oracle, "budget", None) is None
    seed = params.master_seed
    traj = Trajectory()

    def fill_errors():
        if record_errors:
            errs = true_error([row.hypothesis for row in traj.rows], oracle)
            for row, err in zip(traj.rows, errs):
                row.err = err

    cumulative = oracle.counters.distinct_labeled
    traj.rows.append(TrajectoryRow(0, h0, None, None, 0, cumulative, 0.0))
    h = h0
    for i in range(1, params.iterations + 1):
        t0 = time.perf_counter()
        before = oracle.counters.distinct_labeled
        try:
            est = builder(h, oracle, params, rng=derive_rng(seed, "build", i))
        except BudgetExceededError:
            traj.status = "budget_exhausted"
            return traj
        try:
            h_next = erm(est, h, rng=LazyRng(seed, "erm", i))
        except Exception as exc:  # noqa: BLE001 - deliberate catch-all at the loop boundary
            traj.status = "erm_failed"
            fill_errors()
            raise ErmFailedError(f"ERM failed at iteration {i}: {exc}", traj) from exc
        spent = oracle.counters.distinct_labeled - before
        cumulative = oracle.counters.distinct_labeled
        wall_ms = (time.perf_counter() - t0) * 1000.0
        traj.rows.append(
            TrajectoryRow(i, h_next, None, est.evaluate(h_next), spent, cumulative, wall_ms)
        )
        del est  # so only one estimator is alive while the next one is built
        h = h_next
    fill_errors()
    return traj
