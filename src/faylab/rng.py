"""Counter-based random streams: deterministic per (seed, label, trial).

Stream k is numpy's Philox4x64-10 keyed by (seed, label hash): its block b
is Philox of the counter (b + 1, 0, 0, k) (Salmon, Moraes, Dror & Shaw,
SC'11), each of its 4 words u the double (u >> 11) 2^-53.  trial_rng gives
a stream as a Generator, uniforms the doubles of many as rows of one array.
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


#: Philox4x64's round multipliers and the key's steps between rounds
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a, m):
    """The high and low words of a * m (a uint64 array) from 32-bit limbs."""
    low, c32 = np.uint64(2**32 - 1), np.uint64(32)
    a0, a1, m0, m1 = a & low, a >> c32, np.uint64(m % 2**32), np.uint64(m >> 32)
    mid, cross = a1 * m0, a0 * m1
    carry = ((a0 * m0) >> c32) + (mid & low) + (cross & low)
    return a1 * m1 + (mid >> c32) + (cross >> c32) + (carry >> c32), a * np.uint64(m)


def uniforms(seed, label, ks, width):
    """The first width doubles of the streams ks, as a (len(ks), width)
    array: row i is trial_rng(seed, label, ks[i]).random(width)."""
    k, blocks = np.asarray(ks, dtype=np.uint64)[:, None], -(-width // 4)
    zero = np.zeros_like(k)
    # the counters (b + 1, 0, 0, k) of blocks b = 0, 1, .. of each stream
    x = [np.arange(1, blocks + 1, dtype=np.uint64) + zero, zero, zero, k]
    key = [seed, _label_hash(label)]
    for _ in range(10):
        (h0, l0), (h1, l1) = _mulhilo(x[0], _MULTIPLIERS[0]), _mulhilo(x[2], _MULTIPLIERS[1])
        x = [h1 ^ x[1] ^ np.uint64(key[0]), l1, h0 ^ x[3] ^ np.uint64(key[1]), l0]
        key = [(v + step) % SEED_LIMIT for v, step in zip(key, _KEY_STEPS)]
    words = np.stack(x, axis=-1).reshape(len(k), 4 * blocks)[:, :width]
    return (words >> np.uint64(11)) * 2.0**-53


class Table:
    """uniforms of the streams ks, each read in order from its cursor at[i]
    (a reader may set it back); rows are recomputed wider past their end."""

    def __init__(self, seed, label, ks):
        self.stream, self.u = (seed, label, ks), uniforms(seed, label, ks, 16)
        self.at = np.zeros(len(ks), dtype=int)

    def take(self, rows, n):
        """The next n doubles of each stream rows[i] (distinct indices into
        ks), as a (len(rows), n) array."""
        at = self.at[rows]
        if len(rows) and at.max() + n > self.u.shape[1]:
            self.u = uniforms(*self.stream, max(at.max() + n, 2 * self.u.shape[1]))
        self.at[rows] = at + n
        return self.u[rows[:, None], at[:, None] + np.arange(n)]
