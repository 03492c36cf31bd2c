"""Coherence and the paper's error bounds: the structural bound of one
sample (:func:`deterministic_bound`) and the sample-size rule with its
error level and Chernoff failure tail (README "bounds" and "Trials CSV").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import EPS, SpectralPartition
from .sampling import ColumnSample

# Orthonormality tolerance on ||U^T U - I||_F, which bounds the spectral
# deviation ||U^T U - I||_2 from above.
ORTHONORMAL_TOL = 1e-8


class BoundInapplicableError(ValueError):
    """The deterministic bound needs Omega_1 to have full row rank."""

    def __init__(self, min_eig: float, tol: float):
        self.min_eig = float(min_eig)
        self.tol = float(tol)
        super().__init__(
            f"deterministic bound inapplicable: min eigenvalue of the sampled "
            f"Gram matrix is {min_eig!r} (rank tolerance {tol!r})"
        )


@dataclass(frozen=True)
class BoundReport:
    """Bundle of the probabilistic-analysis quantities for one setting.

    ``prob_bound`` is expressed in units of ``lambda_{k+1}`` when the
    caller passes ``lambda_k1 = 1``.
    """

    k: int
    tau: float
    epsilon: float
    delta: float
    l_required: int
    l: int  # the l the bounds are evaluated at
    prob_bound: float
    chernoff_tail: float


def _orthonormal_deviation(u: np.ndarray) -> float:
    """``||U^T U - I||_F``, with I subtracted in place on the diagonal of
    the Gram matrix: the same roundings as forming ``U^T U - I``."""
    gram = u.T @ u
    gram.flat[:: u.shape[1] + 1] -= 1.0
    return float(np.linalg.norm(gram))


def _check_orthonormal(u: np.ndarray, what: str) -> None:
    """Reject u unless it is n x k, 1 <= k <= n, with orthonormal columns:
    ``||U^T U - I||_F <= ORTHONORMAL_TOL``, which needs no eigensolve.  A
    non-finite deviation (a NaN or inf entry) is rejected.
    """
    if u.ndim != 2:
        raise ValueError(f"{what} must be a 2-d array, got ndim={u.ndim}")
    n, k = u.shape
    if not 1 <= k <= n:
        raise ValueError(f"{what} must have 1 <= k <= n columns, got shape {u.shape}")
    dev = _orthonormal_deviation(u)
    if not dev <= ORTHONORMAL_TOL:
        raise ValueError(
            f"{what} does not have orthonormal columns: "
            f"||U^T U - I||_F = {dev:.3e} exceeds {ORTHONORMAL_TOL:g}"
        )


def coherence(u: np.ndarray) -> float:
    """Coherence of the subspace spanned by the orthonormal columns of u.

    ``mu_0(U) = (n/k) * max_i ||row_i(U)||^2``.  Depends only on the span
    (any orthonormal basis of the same subspace gives the same value) and
    lies in ``[1, n/k]``: 1 for perfectly spread bases, n/k when the
    subspace contains a coordinate axis.
    """
    u = np.asarray(u, dtype=np.float64)
    _check_orthonormal(u, "coherence input")
    n, k = u.shape
    row_norms_sq = np.sum(u * u, axis=1)
    return float(n / k * np.max(row_norms_sq))


def min_eig_gram(u: np.ndarray, sample: ColumnSample) -> float:
    """Smallest eigenvalue of the Gram matrix of the sampled rows of u.

    This is ``lambda_k(U^T S S^T U)``; it is positive exactly when the
    sampled rows of u span all k directions, and ``1 / min_eig_gram`` is
    the squared spectral norm of ``(U^T S)^+``.
    """
    u = np.asarray(u, dtype=np.float64)
    if sample.n != u.shape[0]:
        raise ValueError(f"sample is over n={sample.n} but u has {u.shape[0]} rows")
    rows = u[list(sample.indices), :]
    g = rows.T @ rows
    return float(np.linalg.eigvalsh(g)[0])


def full_rank_tolerance(n: int) -> float:
    """Rank-decision threshold for the sampled Gram matrix: n * eps."""
    return n * EPS


def deterministic_bound(part: SpectralPartition, sample: ColumnSample) -> float:
    """Structural error bound ``||Sigma_2||_2 * (1 + ||Omega_2 Omega_1^+||_2^2)``.

    Valid for any PSD matrix and any sample for which Omega_1 has full row
    rank; dominates the spectral error of the extension built from the
    same sample.  Evaluated in closed form: ``Omega = U^T S`` has
    orthonormal columns, so ``Omega_1^T Omega_1 + Omega_2^T Omega_2 = I``
    and ``||Omega_2 Omega_1^+||_2^2 = 1 / lambda_min(Omega_1 Omega_1^T) - 1``,
    which makes the bound ``||Sigma_2||_2 / min_eig_gram(U_1, S)``.

    Raises BoundInapplicableError when Omega_1 is numerically rank deficient
    (min Gram eigenvalue at or below ``n * eps``): the bound does not apply.
    """
    return _structural_bound(part, min_eig_gram(part.u1, sample))


def _structural_bound(part: SpectralPartition, m: float) -> float:
    """``||Sigma_2||_2 / m`` for ``m = min_eig_gram(U_1, S)``, as
    :func:`deterministic_bound` defines it, for a caller that has m."""
    tol = full_rank_tolerance(part.n)
    if m <= tol:
        raise BoundInapplicableError(m, tol)
    tail = part.eigenvalues[part.k:]
    return (float(np.max(np.abs(tail))) if tail.size else 0.0) / m


def required_samples(k: int, tau: float, delta: float, epsilon: float) -> int:
    """Samples sufficient for the probabilistic guarantee.

    The smallest integer ``l`` with
    ``l >= 2 * tau * k * ln(k / delta) / (1 - epsilon)^2``, floored at 1.
    At ``epsilon = 1/2`` the prefactor is ``8 tau k``.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not tau >= 1.0 - 1e-9:
        raise ValueError(f"tau must be >= 1, got {tau!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    ratio = float(k) / float(delta)  # inf for a tiny delta, whose log is finite
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(k) - math.log(delta)
    value = 2.0 * tau * k * log_ratio / (1.0 - epsilon) ** 2
    return max(1, math.ceil(value))


def probabilistic_bound(lambda_k1: float, n: int, l: int, epsilon: float) -> float:
    """High-probability error level ``lambda_k1 * (1 + n / (epsilon * l))``.

    With ``l`` at least :func:`required_samples`, the spectral error of the
    extension stays below this value with probability above ``1 - delta``.
    At ``epsilon = 1/2`` the factor is ``1 + 2n/l``.  ``lambda_k1`` must be
    finite and >= 0; at 0 the level is 0 even where the factor overflows.
    """
    if not 0.0 <= lambda_k1 < math.inf:
        raise ValueError(f"lambda_k1 must be finite and >= 0, got {lambda_k1!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or not 1 <= l <= n:
        raise ValueError(f"l must be an integer in [1, n={n}], got {l!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if lambda_k1 == 0.0:
        return float(lambda_k1)  # not 0 * inf = nan; keeps the sign of a -0.0
    return float(lambda_k1) * (1.0 + n / (epsilon * l))


def chernoff_tail(k: int, tau: float, l: int, epsilon: float) -> float:
    """Failure-probability bound ``k * exp(-(1-eps)^2 * l / (2 k tau))``.

    Bounds the probability that the sampled rows of the dominant basis
    lose their smallest Gram eigenvalue, i.e. that
    ``lambda_k(U^T S S^T U) <= eps * l / n``.  ``epsilon`` may take the
    closed endpoints: at ``epsilon = 1`` the bound is the trivial ``k``.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not tau >= 1.0 - 1e-9:
        raise ValueError(f"tau must be >= 1, got {tau!r}")
    if not isinstance(l, (int, np.integer)) or l < 1:
        raise ValueError(f"l must be a positive integer, got {l!r}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return k * math.exp(-((1.0 - epsilon) ** 2) * l / (2.0 * k * tau))


def bound_report(
    n: int,
    k: int,
    tau: float,
    epsilon: float,
    delta: float,
    l: int | None = None,
    lambda_k1: float = 1.0,
) -> BoundReport:
    """Assemble the probabilistic quantities for one parameter setting.

    ``l`` defaults to ``min(required_samples(...), n)`` - the formula has
    no n in it and can exceed the matrix size, in which case sampling
    without replacement saturates at full sampling.  A given ``l`` is
    checked as :func:`probabilistic_bound` checks it.  A ``prob_bound`` that
    overflows raises FloatingPointError naming lambda_k1, and epsilon too
    when ``n / (epsilon l)`` overflows on its own.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ValueError(f"k must be an integer in [1, n={n}], got {k!r}")
    if not (1.0 - 1e-9) <= tau <= n / k + 1e-9:
        raise ValueError(f"tau must lie in [1, n/k={n / k:g}], got {tau!r}")
    l_required = required_samples(k, tau, delta, epsilon)
    l = min(l_required, n) if l is None else l
    prob_bound = probabilistic_bound(lambda_k1, n, l, epsilon)
    if not math.isfinite(prob_bound):
        at = f"lambda_k1={lambda_k1!r}"
        if math.isinf(n / (epsilon * l)):
            at += f", epsilon={epsilon!r}"
        raise FloatingPointError(f"prob_bound overflows at {at}")
    return BoundReport(
        k=int(k),
        tau=float(tau),
        epsilon=float(epsilon),
        delta=float(delta),
        l_required=l_required,
        l=l,
        prob_bound=prob_bound,
        chernoff_tail=chernoff_tail(k, tau, l, epsilon),
    )
