"""Uniform column sampling on reproducible streams (README "Determinism").

Every random draw in the package comes from a counter-based Philox
generator keyed by ``(master_seed, stream_id)``, so a draw depends on its
key alone, not on the platform, the run or the thread schedule.  Trial t
uses stream t; ``LANCZOS_SEED`` is reserved for :func:`lanczos_start`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matcore import _stable_dot, check_integer, is_integer

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngSeed:
    """Key of one random stream: (master seed, stream id), both uint64."""

    master_seed: int
    stream_id: int

    def __post_init__(self):
        check_integer("master_seed", self.master_seed, 0, _U64_MAX)
        check_integer("stream_id", self.stream_id, 0, _U64_MAX)


def rng_from(seed: RngSeed) -> np.random.Generator:
    """Philox generator keyed by (master_seed, stream_id)."""
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The top stream id of master seed 0: trial streams are trial indices, and
# instance streams start at 2^63 and grow by one per grid point.
LANCZOS_SEED = RngSeed(0, _U64_MAX)


@functools.lru_cache(maxsize=8)
def lanczos_start(n: int) -> np.ndarray:
    """Unit start vector of length n for the Lanczos error estimate.

    Drawn as normalized Gaussians from the reserved ``LANCZOS_SEED``
    stream and normalised by :func:`matcore._stable_dot`, so it is the
    same for every call with the same n at any BLAS thread count.  It is
    drawn once per n and cached; the returned array is read-only.
    """
    v = rng_from(LANCZOS_SEED).standard_normal(n)
    v = v / math.sqrt(_stable_dot(v, v))
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ColumnSample:
    """An ordered sample of distinct column indices of an n x n matrix."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        check_integer("n", self.n)
        l = len(self.indices)
        if not 1 <= l <= self.n:
            raise ValueError(f"sample size {l} out of range [1, {self.n}]")
        n, seen = self.n, set()
        for idx in self.indices:
            if not is_integer(idx):
                raise ValueError(f"index {idx!r} is not an integer")
            if not 0 <= idx < n:
                raise ValueError(f"index {idx} out of range [0, {n})")
            if idx in seen:
                raise ValueError(f"duplicate index {idx} in sample")
            seen.add(idx)

    @property
    def l(self) -> int:
        return len(self.indices)


def sample_uniform(n: int, l: int, seed: RngSeed) -> ColumnSample:
    """Draw l distinct indices from 0..n-1, uniformly over subsets.

    They are the first l entries of a Fisher-Yates shuffle of ``0..n-1``:
    slot i takes the pool entry at a uniform j in ``[i, n)``.  The l
    positions come from one unbiased ``Generator.integers`` call, which
    reads the stream as l scalar calls in turn would, so the sample depends
    only on the seed.
    """
    check_integer("n", n)
    check_integer("l", l, 1, n, "n")
    pool = list(range(n))
    for i, j in enumerate(rng_from(seed).integers(np.arange(l), n).tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return ColumnSample(n=n, indices=tuple(pool[:l]))
