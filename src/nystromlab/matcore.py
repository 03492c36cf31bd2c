"""Dense symmetric-matrix primitives.

Everything downstream (column sampling, the Nystrom extension, the error
bounds) is written against the small kernel of operations in this module:
a symmetric eigendecomposition with a fixed descending ordering, a PSD
square root, spectral norms, orthogonal projectors onto column spaces, and
the split of a decomposition into a dominant block and a tail block.

Conventions
-----------
* Matrices are dense float64 arrays.  Symmetric ones travel as
  :class:`SymMatrix`, which enforces exact entrywise symmetry at
  construction time and rejects inputs whose asymmetry exceeds
  ``1e-8 * ||A||_F``.
* Eigenvalues are always reported in non-increasing order.  Ties keep the
  backend's output order, so results are deterministic for a fixed input.
* Rank decisions use the conventional relative cutoff
  ``max(shape) * machine_eps`` measured against the largest singular value.
* Eigenvalues of a nominally PSD matrix that land in
  ``[-1e-10 * lambda_max, 0)`` are treated as zero; anything below that
  window raises :class:`NotPSDError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Constructor-level symmetry tolerance, relative to the Frobenius norm.
ASYMMETRY_REL_TOL = 1e-8

# Negative-eigenvalue clamp window for nominally PSD inputs, relative to
# the largest eigenvalue.
PSD_CLAMP_REL = 1e-10

# Eigenvalue-tie window used to flag degenerate dominant/tail splits.
DEGENERACY_REL_TOL = 1e-12


class NotPSDError(ValueError):
    """A matrix required to be PSD has an eigenvalue below the clamp window."""

    def __init__(self, eigenvalue: float, floor: float):
        self.eigenvalue = float(eigenvalue)
        self.floor = float(floor)
        super().__init__(
            f"matrix is not PSD within tolerance: eigenvalue {eigenvalue!r} "
            f"is below the clamp floor {floor!r}"
        )


class NonConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"symmetric eigensolver did not converge: {detail}")


def _as_array(m) -> np.ndarray:
    """Accept either a plain array or a SymMatrix and return float64 data."""
    if isinstance(m, SymMatrix):
        return m.entries
    a = np.asarray(m, dtype=np.float64)
    return a


class SymMatrix:
    """Dense real symmetric matrix.

    The constructor validates shape and finiteness, rejects inputs whose
    asymmetry exceeds ``ASYMMETRY_REL_TOL * ||A||_F``, and stores the
    symmetrized average ``(A + A^T) / 2`` (exact symmetry: IEEE addition is
    commutative, so ``entries[i, j] == entries[j, i]`` bit for bit).  The
    stored array is frozen; treat instances as immutable values.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=np.float64, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        fro = float(np.linalg.norm(a))
        asym = float(np.linalg.norm(a - a.T))
        if asym > ASYMMETRY_REL_TOL * fro and fro > 0.0:
            raise ValueError(
                f"matrix is not symmetric within tolerance: "
                f"||A - A^T||_F = {asym:.3e} exceeds "
                f"{ASYMMETRY_REL_TOL:g} * ||A||_F = {ASYMMETRY_REL_TOL * fro:.3e}"
            )
        sym = (a + a.T) / 2.0
        sym.flags.writeable = False
        self.entries = sym

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Full symmetric eigendecomposition, eigenvalues non-increasing.

    ``eigenvectors[:, j]`` is the unit eigenvector paired with
    ``eigenvalues[j]``; the column matrix is orthogonal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be sorted in non-increasing order")

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class SpectralPartition:
    """Dominant/tail split of an eigendecomposition at index k.

    ``u1`` holds the k dominant eigenvectors, ``u2`` the remaining n - k;
    ``sigma1`` / ``sigma2`` are the matching eigenvalue blocks.  When the
    eigenvalues at the split are tied within ``DEGENERACY_REL_TOL`` the
    dominant subspace is not uniquely determined and ``degenerate`` is set;
    the split itself still follows the deterministic sort order.
    """

    u1: np.ndarray
    u2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    degenerate: bool

    @property
    def k(self) -> int:
        return self.u1.shape[1]

    @property
    def n(self) -> int:
        return self.u1.shape[0]


def sym_eig(a: SymMatrix) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Backed by LAPACK's symmetric solver; the ascending output is reordered
    with a stable descending sort, so ties keep the backend order and the
    result is deterministic for a fixed input.

    Raises
    ------
    NonConvergenceError
        If the backend solver fails to converge.
    """
    try:
        vals, vecs = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(str(exc)) from exc
    order = np.argsort(-vals, kind="stable")
    return EigenDecomposition(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def clamp_psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Zero out round-off negatives of a nominally PSD spectrum.

    Values in ``[-PSD_CLAMP_REL * lambda_max, 0)`` become 0; anything below
    that raises :class:`NotPSDError` carrying the offending eigenvalue.
    """
    lam_max = float(np.max(vals)) if vals.size else 0.0
    floor = -PSD_CLAMP_REL * max(lam_max, 0.0)
    lam_min = float(np.min(vals)) if vals.size else 0.0
    if lam_min < floor:
        raise NotPSDError(lam_min, floor)
    return np.where(vals < 0.0, 0.0, vals)


def psd_sqrt(a: SymMatrix) -> SymMatrix:
    """Symmetric PSD square root ``A^(1/2)``.

    Shares eigenvectors with ``A``; round-off negatives inside the clamp
    window are treated as zero, anything below raises NotPSDError.
    """
    ed = sym_eig(a)
    vals = clamp_psd_eigenvalues(ed.eigenvalues)
    root = (ed.eigenvectors * np.sqrt(vals)) @ ed.eigenvectors.T
    return SymMatrix(root)


def spectral_norm(m) -> float:
    """Largest singular value of a real matrix.

    Computed as the square root of the largest eigenvalue of the smaller
    Gram matrix (M M^T or M^T M), which keeps the work at
    ``min(shape)``-sized symmetric problems.
    """
    a = _as_array(m)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0.0
    if a.shape[0] <= a.shape[1]:
        g = a @ a.T
    else:
        g = a.T @ a
    lam = float(np.linalg.eigvalsh(g)[-1])
    return float(np.sqrt(max(lam, 0.0)))


def projector(m) -> SymMatrix:
    """Orthogonal projector onto the column space of ``m``.

    The range is determined by the SVD with the standard relative rank
    cutoff ``max(shape) * eps``, so ``projector(M) @ M == M`` up to
    round-off and the projector is exactly symmetric and idempotent to
    working precision.
    """
    a = _as_array(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return SymMatrix(np.zeros((a.shape[0], a.shape[0])))
    keep = s > max(a.shape) * EPS * s[0]
    q = u[:, keep]
    return SymMatrix(q @ q.T)


def partition(ed: EigenDecomposition, k: int) -> SpectralPartition:
    """Split a decomposition into the dominant k block and the tail.

    ``k == n`` is allowed and produces an empty tail block.  A tie between
    the k-th and (k+1)-th eigenvalues (within ``DEGENERACY_REL_TOL``
    relative to ``max(|lambda_1|, 1)``) sets the ``degenerate`` flag.
    """
    n = ed.n
    if not 1 <= k <= n:
        raise ValueError(f"partition index k={k} out of range [1, {n}]")
    vals = ed.eigenvalues
    degenerate = False
    if k < n:
        scale = max(abs(float(vals[0])), 1.0)
        degenerate = float(vals[k - 1] - vals[k]) <= DEGENERACY_REL_TOL * scale
    return SpectralPartition(
        u1=ed.eigenvectors[:, :k],
        u2=ed.eigenvectors[:, k:],
        sigma1=vals[:k].copy(),
        sigma2=vals[k:].copy(),
        degenerate=degenerate,
    )
