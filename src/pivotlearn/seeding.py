"""Deterministic seed derivation and counter-based pair hashing.

Every random decision in the package flows through one of two primitives:

* ``derive_rng(master_seed, *tags)`` builds an independent numpy Generator
  from a master seed and a sequence of task tags.  Identical inputs give an
  identical stream on every platform and under any worker count, because the
  stream never depends on execution order.
* ``pair_uniform(seed, u, v)`` maps an unordered item pair to a uniform
  float in [0, 1) with a splitmix64-style finalizer.  Label noise is frozen
  through this function, so an oracle's answers are a pure function of
  (ground truth, noise spec, seed) no matter when or how often it is asked.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed_seq", "derive_rng", "pair_uniform", "tag_to_int"]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def tag_to_int(tag) -> int:
    """Stable 64-bit integer for a string or integer tag."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed_seq(master_seed: int, *tags) -> np.random.SeedSequence:
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(tag_to_int(t) for t in tags)
    return np.random.SeedSequence(entropy)


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent Generator keyed by (master_seed, tags)."""
    return np.random.Generator(np.random.Philox(derive_seed_seq(master_seed, *tags)))


def _mix64(z: np.ndarray) -> None:
    """splitmix64 finalizer, in place on a uint64 array."""
    z += _GOLDEN
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)


def pair_uniform(seed: int, u, v) -> np.ndarray:
    """Uniform [0, 1) value per unordered pair {u, v}, seed-keyed.

    Accepts scalars or arrays; the result is symmetric in (u, v), a float64
    scalar for scalar inputs and of their broadcast shape otherwise.
    """
    u = np.asarray(u, dtype=np.uint64)
    v = np.asarray(v, dtype=np.uint64)
    lo = np.minimum(u, v)
    z = lo.reshape(-1)  # a fresh flat array, hashed in place
    z <<= _U64(32)
    z ^= np.maximum(u, v).reshape(-1)
    _mix64(z)
    z ^= _U64(tag_to_int(seed))
    _mix64(z)
    z >>= _U64(11)
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out.reshape(lo.shape) if lo.shape else out[0]
