"""Counter-based random streams: deterministic per (seed, label, trial)."""

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
