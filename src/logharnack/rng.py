"""Counter-based random number streams for reproducible parallel runs.

Paths are partitioned into fixed-size blocks; block b of a run draws from
a Philox stream keyed by (master_seed, 0, b).  The partition does
not depend on the worker count, so every reduction over blocks is bitwise
reproducible no matter how the blocks are scheduled.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy >= 2 loads it on first use; every run needs it

__all__ = ["BLOCK_SIZE", "stream", "path_blocks", "derive_seed"]

BLOCK_SIZE = 50_000


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Philox generator keyed by the master seed and an index tuple."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    philox_key = ss.generate_state(2, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=philox_key))


def derive_seed(master_seed: int, *key: int) -> int:
    """A 63-bit seed derived from (master_seed, key) for sub-runs."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def path_blocks(n_paths: int, block_size: int = BLOCK_SIZE):
    """Yield (block_index, lo, hi) covering range(n_paths)."""
    b = 0
    lo = 0
    while lo < n_paths:
        hi = min(lo + block_size, n_paths)
        yield b, lo, hi
        b += 1
        lo = hi
