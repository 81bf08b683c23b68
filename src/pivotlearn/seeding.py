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
  ``pair_uniform(seed, u, v, below=t)`` returns value < t, decided on the
  64-bit hash against an integer threshold, without the float conversion;
  an outer block of ids u (R, 1) below ids v (1, C) keys its pairs in one
  broadcast pass.  Both give the bits of the plain call.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

__all__ = ["derive_seed_seq", "derive_rng", "LazyRng", "pair_uniform", "tag_to_int"]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
# shift counts as uint64 scalars, built once instead of on every call
_S11, _S27, _S30, _S31, _S32 = map(_U64, (11, 27, 30, 31, 32))
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF


def tag_to_int(tag) -> int:
    """Stable 64-bit integer for a string or integer tag."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return _string_tag(str(tag))


@functools.lru_cache(maxsize=4096)
def _string_tag(text: str) -> int:
    # a handful of fixed tags recur on every derivation; hash each once
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed_seq(master_seed: int, *tags) -> np.random.SeedSequence:
    """SeedSequence over the entropy [master_seed, tag_to_int(tag) for each tag].

    Each value goes in as the uint32 words SeedSequence itself would split it
    into (least significant first, one word below 2**32), so the state is
    that of the list of ints, without the per-value coercion.
    """
    words = []
    for value in (int(master_seed) & _MASK64, *map(tag_to_int, tags)):
        words.append(value & _MASK32)
        if value > _MASK32:
            words.append(value >> 32)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent Generator keyed by (master_seed, tags)."""
    return np.random.Generator(np.random.Philox(derive_seed_seq(master_seed, *tags)))


class LazyRng:
    """derive_rng(master_seed, *tags), derived on its first use.

    Stands in for a Generator that the callee may never read: an unread
    stream costs nothing, and a read one is exactly the derived stream.
    """

    __slots__ = ("_key", "_rng")

    def __init__(self, master_seed: int, *tags):
        self._key = (master_seed, *tags)
        self._rng = None

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = derive_rng(*self._key)
        return getattr(self._rng, name)


def _mix64(z: np.ndarray) -> None:
    """splitmix64 finalizer, in place on a uint64 array."""
    z += _GOLDEN
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31


def _pair_keys(u, v) -> np.ndarray:
    """(min << 32) ^ max of each pair, as a fresh uint64 array of the broadcast shape.

    An ordered outer block, u a column (R, 1) below every id of a row v
    (1, C), takes its key in one broadcast pass, since there u is the
    lesser id of every pair.
    """
    u, v = np.asarray(u), np.asarray(v)
    if u.ndim == v.ndim == 2 and u.shape[1] == v.shape[0] == 1 and u.size and v.size \
            and u.max() < v.min():
        return (u.astype(np.uint64) << _S32) ^ v.astype(np.uint64)
    z = np.minimum(u, v).astype(np.uint64)
    z <<= _S32
    z ^= np.maximum(u, v).astype(np.uint64)
    return z


def pair_uniform(seed: int, u, v, below=None) -> np.ndarray:
    """Uniform [0, 1) value per unordered pair {u, v}, seed-keyed.

    Accepts scalars or arrays; the result is symmetric in (u, v), a float64
    scalar for scalar inputs and of their broadcast shape otherwise.  With a
    float `below`, returns the bools value < below instead, decided on the
    integer hash: each value is x * 2**-53 for an integer x = z >> 11 of the
    64-bit hash z, so value < below exactly when z < ceil(below * 2**53) << 11.
    """
    z = _pair_keys(u, v)
    shape = z.shape
    z = z.reshape(-1)  # a fresh flat array, hashed in place
    _mix64(z)
    z ^= _U64(tag_to_int(seed))
    _mix64(z)
    if below is None:
        z >>= _S11
        out = z.astype(np.float64)
        out *= 2.0**-53
    elif 0.0 < below < 1.0:  # so 1 <= ceil(below * 2**53) < 2**53
        out = z < _U64(math.ceil(below * 2.0**53) << 11)
    else:  # every value lies below 1 or more, none below 0 or less or below nan
        out = np.full(z.shape, below >= 1.0)
    return out.reshape(shape) if shape else out[0]
