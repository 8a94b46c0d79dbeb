"""Counter-based random streams: deterministic per (seed, label, trial).

Stream k is numpy's Philox4x64-10 keyed by (seed, label hash): its block b
is Philox of the counter (b + 1, 0, 0, k) (Salmon, Moraes, Dror & Shaw,
SC'11), its words u the doubles (u >> 11) 2^-53.  trial_rng gives a stream
as a Generator; uniforms gives many as rows, each round one stacked mulhi.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


#: master seeds are the Philox key's first uint64: 0 <= seed < SEED_LIMIT
SEED_LIMIT = 2**64


@functools.lru_cache(maxsize=4096)
def _label_hash(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


def trial_rng(master_seed: int, label: str, trial: int) -> np.random.Generator:
    """Philox stream keyed by (master seed, label hash), counter = trial.

    Streams for different trials are independent, so trials may run in any
    order (or concurrently) without perturbing determinism.
    """
    key = np.array([master_seed, _label_hash(label)], dtype=np.uint64)
    counter = np.array([0, 0, 0, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


#: Philox4x64's round multipliers and key steps, against the stacked words 0 and 2
_MULTIPLIERS = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_KEY_STEPS = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


def _mulhi(a, m):
    """The high words of a * m, uint64 arrays, from 32-bit limbs as in Hacker's
    Delight's mulhu: a1 m1 + hi(u) + hi(a0 m1 + lo(u)), u = a1 m0 + hi(a0 m0)."""
    low, c32 = np.uint64(2**32 - 1), np.uint64(32)
    a0, a1, m0, m1 = a & low, a >> c32, m & low, m >> c32
    u = a1 * m0 + ((a0 * m0) >> c32)
    return a1 * m1 + (u >> c32) + ((a0 * m1 + (u & low)) >> c32)


def uniforms(seed, label, ks, width, start=0):
    """Doubles start .. width - 1 of the streams ks, as a (len(ks), width -
    start) array: row i is trial_rng(seed, label, ks[i]).random(width)[start:]."""
    k, first = np.asarray(ks, dtype=np.uint64)[:, None], start // 4
    b = np.arange(first + 1, -(-width // 4) + 1, dtype=np.uint64) + 0 * k
    # words 0 and 2, then 1 and 3, of the counters (b, 0, 0, k), b - 1 = first, first + 1, ..
    even, odd = np.stack([b, 0 * b]), np.stack([0 * b, k + 0 * b])
    key = np.array([seed, _label_hash(label)], dtype=np.uint64)[:, None, None]
    for _ in range(10):
        even, odd = _mulhi(even, _MULTIPLIERS)[::-1] ^ odd ^ key, (even * _MULTIPLIERS)[::-1]
        key = key + _KEY_STEPS
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(len(k), 4 * b.shape[1])
    return (words[:, start - 4 * first:width - 4 * first] >> np.uint64(11)) * 2.0**-53


class Table:
    """uniforms of the streams ks, each read in order from its cursor at[i]
    (a reader may set it back); a read past the width appends the doubles after it."""

    def __init__(self, seed, label, ks):
        self.stream, self.u = (seed, label, ks), uniforms(seed, label, ks, 16)
        self.at = np.zeros(len(ks), dtype=int)

    def take(self, rows, n):
        """The next n doubles of each stream rows[i] (distinct indices into
        ks), as a (len(rows), n) array."""
        at = self.at[rows]
        w = self.u.shape[1]
        if len(rows) and at.max() + n > w:
            self.u = np.hstack([self.u, uniforms(*self.stream, max(at.max() + n, 2 * w), w)])
        self.at[rows] = at + n
        return self.u[rows[:, None], at[:, None] + np.arange(n)]
