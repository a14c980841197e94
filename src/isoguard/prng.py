"""Deterministic seed derivation and hash-based uniform draws.

Every random decision in the toolkit flows from one 64-bit master seed.
Sub-seeds are derived by hashing (splitmix64) rather than by sharing a
sequential stream, so every tree draws exactly the same numbers
regardless of the order in which trees are built.

Scalar hashes run on plain Python ints masked to 64 bits; arrays run on
numpy uint64, whose array arithmetic wraps silently. Both give the same
bits.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED0 = 0x8B72E0F5E28E3C4D
# 2^-53: maps the top 53 bits of a hash onto [0, 1)
_INV53 = float(2.0 ** -53)


def _mix(z: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2^64)."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def splitmix64(x: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    """splitmix64 finalizer; accepts a uint64 scalar or array."""
    if not isinstance(x, np.ndarray):
        return np.uint64(_mix(int(x)))
    z = x + np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _fold(h: int, part: int | str) -> int:
    if isinstance(part, str):
        for b in part.encode("utf-8"):
            h = _mix(h ^ b)
        return _mix(h ^ len(part))
    return _mix(h ^ (int(part) & _MASK))


def extend_hash(h: int, *parts: int | str) -> int:
    """Continue a fold: ``extend_hash(int(hash64(*a)), *b) == int(hash64(*a, *b))``."""
    for part in parts:
        h = _fold(h, part)
    return h


def extend_hashes(h: int | np.ndarray, ids: np.ndarray, *parts: int) -> np.ndarray:
    """Array form of ``extend_hash(h, i, *parts)`` for every integer ``i`` in ``ids``.

    ``h`` may be a uint64 array that broadcasts against ``ids``: a column of
    hashes gives one row of extended hashes per hash.
    """
    z = splitmix64(np.uint64(h) ^ ids.astype(np.uint64))
    for part in parts:
        z = splitmix64(z ^ np.uint64(int(part) & _MASK))
    return z


def hash64(*parts: int | str) -> np.uint64:
    """Fold integers and short string tags into one uint64 hash."""
    return np.uint64(extend_hash(_SEED0, *parts))


def derive_seed(master: int, *tags: int | str) -> int:
    """Stable sub-seed for a named stage or component."""
    return extend_hash(_SEED0, master, *tags)


def unit_uniforms(base: np.uint64 | np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Hash-derived floats in [0, 1), one per key, independent of key order.

    An array ``base`` broadcasts against ``keys``: a column of bases gives
    one row of draws per base.
    """
    mixed = splitmix64(np.asarray(base, dtype=np.uint64) ^ splitmix64(keys.astype(np.uint64)))
    return (mixed >> np.uint64(11)).astype(np.float64) * _INV53
