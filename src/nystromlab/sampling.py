"""Uniform column sampling with reproducible, parallel-safe streams.

Randomness policy
-----------------
Every random draw in the package flows through a counter-based Philox
bit generator keyed by the pair ``(master_seed, stream_id)``.  Philox is a
stateless 64-bit counter/key design, so distinct stream ids give
statistically independent streams and the draw for a given key is
identical across platforms, runs, and thread schedules.  A trial's stream
id is its trial index, which is what makes per-trial records reproducible
in isolation.  One key is reserved: ``LANCZOS_SEED`` draws the start
vector of the Lanczos error estimate (:func:`lanczos_start`), fixed per
``n`` so that the error of an extension depends on nothing but the matrix
and the sample.

Sampling ``l`` of ``n`` columns without replacement is the first ``l``
entries of a Fisher-Yates shuffle of ``0..n-1``: at step ``i`` the pool
entry at a uniform position ``j`` in ``[i, n)`` is swapped into slot ``i``.
Each ``j`` comes from ``Generator.integers``, which is unbiased, so every
size-``l`` subset (in every order) is equally likely.  All ``l`` positions
are drawn in one call with the lower bounds ``0..l-1``; that call reads the
Philox stream exactly as ``l`` scalar calls in turn would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import SymMatrix

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngSeed:
    """Key of one random stream: (master seed, stream id), both uint64."""

    master_seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if not 0 <= int(v) <= _U64_MAX:
                raise ValueError(f"{name} must lie in [0, 2^64), got {v}")


def rng_from(seed: RngSeed) -> np.random.Generator:
    """Philox generator keyed by (master_seed, stream_id)."""
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The top stream id of master seed 0: trial streams are trial indices, and
# instance streams start at 2^63 and grow by one per grid point.
LANCZOS_SEED = RngSeed(0, _U64_MAX)


def lanczos_start(n: int) -> np.ndarray:
    """Unit start vector of length n for the Lanczos error estimate.

    Drawn as normalized Gaussians from the reserved ``LANCZOS_SEED``
    stream, so it is the same for every call with the same n.
    """
    v = rng_from(LANCZOS_SEED).standard_normal(n)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class ColumnSample:
    """An ordered sample of distinct column indices of an n x n matrix."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        l = len(self.indices)
        if not 1 <= l <= self.n:
            raise ValueError(f"sample size {l} out of range [1, {self.n}]")
        seen = set()
        for idx in self.indices:
            if not isinstance(idx, (int, np.integer)) or isinstance(idx, bool):
                raise ValueError(f"index {idx!r} is not an integer")
            if not 0 <= idx < self.n:
                raise ValueError(f"index {idx} out of range [0, {self.n})")
            if idx in seen:
                raise ValueError(f"duplicate index {idx} in sample")
            seen.add(idx)

    @property
    def l(self) -> int:
        return len(self.indices)


def sample_uniform(n: int, l: int, seed: RngSeed) -> ColumnSample:
    """Draw l distinct indices from 0..n-1, uniformly over subsets.

    Deterministic given the seed: the same (master_seed, stream_id) yields
    the same sample on every run and under any thread schedule.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= l <= n:
        raise ValueError(f"sample size l={l} out of range [1, {n}]")
    pool = list(range(n))
    for i, j in enumerate(rng_from(seed).integers(np.arange(l), n).tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return ColumnSample(n=n, indices=tuple(pool[:l]))


def extract_cw(a: SymMatrix, sample: ColumnSample) -> tuple[np.ndarray, SymMatrix]:
    """Gather C = A S (sampled columns) and W = S^T A S (principal block).

    Implemented as index gathers, so the entries of C and W are bit-equal
    to the corresponding entries of A - no arithmetic is applied.  The
    sampled rows are gathered (contiguous in the row-major store) and C is
    their transpose, equal to the sampled columns because ``SymMatrix``
    entries are exactly symmetric.  W is handed to ``SymMatrix`` read-only,
    so it is stored without a copy.
    """
    if sample.n != a.n:
        raise ValueError(f"sample is over n={sample.n} but the matrix has n={a.n}")
    idx = np.array(sample.indices)
    rows = a.entries.take(idx, axis=0)
    w = rows.take(idx, axis=1)
    w.flags.writeable = False
    return rows.T, SymMatrix(w)
