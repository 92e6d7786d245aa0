"""Counter-based, splittable random streams.

Every stream is a Philox generator keyed by (master seed, label, index).
Streams derived this way are independent of worker scheduling: path index
``i`` always sees the same noise no matter how work is chunked, which is
what makes the Monte Carlo suites bitwise reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "BLOCK_SIZE"]

# Fixed block granularity for batched Monte Carlo.  Results are assembled
# block by block, so worker count never changes the sample.
BLOCK_SIZE = 4096


def _key(seed: int, label: str, index: int) -> int:
    raw = f"{seed}:{label}:{index}".encode()
    return int.from_bytes(hashlib.sha256(raw).digest()[:16], "little")


def stream(seed: int, label: str = "", index: int = 0) -> np.random.Generator:
    """Return the Philox generator for (seed, label, index)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, label, index)))

