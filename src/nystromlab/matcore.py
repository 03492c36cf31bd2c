"""Dense symmetric-matrix primitives.

Everything downstream (column sampling, the Nystrom extension, the error
bounds) is written against the small kernel of operations in this module:
a symmetric eigensolve with a fixed descending ordering (or its
eigenvalues alone), a PSD check, a PSD square root, spectral norms, the
matrix-free Lanczos norm of a low-rank update ``A - C M^T M C^T``,
orthogonal projectors onto column spaces, and :func:`partition`, which
keeps the k dominant eigenvectors ``U_1`` and the whole spectrum.

Conventions
-----------
* Matrices are dense float64 arrays.  Symmetric ones travel as
  :class:`SymMatrix`, which enforces exact entrywise symmetry at
  construction time and rejects inputs whose asymmetry exceeds
  ``1e-8 * ||A||_F``.  An input that already equals its transpose bit
  for bit (a SYRK product ``H @ H.T``, a principal block gathered from a
  SymMatrix, a saved SymMatrix read back) is stored as a read-only copy,
  or as it is when the caller hands it over read-only; any other input
  is stored as its average with its transpose.
* Scale safety: :func:`spectral_norm` always scales its input by the
  power of two that puts ``max |m_ij|`` in ``[0.5, 1)`` before forming a
  Gram matrix, and :class:`SymMatrix` does so when ``||A||_F`` overflows
  or underflows.  Scaling by a power of two is exact and the result is
  scaled back, so extreme input scales such as 1e+-160 give the right
  value.
* Eigenvalues are always reported in non-increasing order.  Ties keep the
  backend's output order, so results are deterministic for a fixed input.
  A solver that fails to converge raises ``np.linalg.LinAlgError``.
* Rank decisions use the conventional relative cutoff
  ``max(shape) * machine_eps`` measured against the largest singular value.
* Eigenvalues of a nominally PSD matrix that land in
  ``[-1e-10 * lambda_max, 0)`` are treated as zero; anything below that
  window raises :class:`NotPSDError`.  :func:`check_psd` decides this
  window for a whole matrix without an eigensolve when a shifted
  Cholesky factorization succeeds, and from the eigenvalues otherwise.
  That Cholesky is blocked by ``CHOLESKY_BLOCK`` columns and runs in
  place, so it holds one n x n scratch array besides the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Constructor-level symmetry tolerance, relative to the Frobenius norm.
ASYMMETRY_REL_TOL = 1e-8

# Negative-eigenvalue clamp window for nominally PSD inputs, relative to
# the largest eigenvalue.
PSD_CLAMP_REL = 1e-10

# Side of the square tiles in which SymMatrix compares A with A^T.
SYMMETRY_TILE = 128

# Column block of the blocked Cholesky in shifted_cholesky_ok.
CHOLESKY_BLOCK = 256

# Lanczos stopping rule of lowrank_residual_norm: Ritz residual relative to
# the Ritz value.
LANCZOS_REL_TOL = 1e-12


class NotPSDError(ValueError):
    """A matrix required to be PSD has an eigenvalue below the clamp window."""

    def __init__(self, eigenvalue: float, floor: float):
        self.eigenvalue = float(eigenvalue)
        self.floor = float(floor)
        super().__init__(
            f"matrix is not PSD within tolerance: eigenvalue {eigenvalue!r} "
            f"is below the clamp floor {floor!r}"
        )


def _scale_exponent(big: float) -> int:
    """The e with ``big * 2**-e`` in ``[0.5, 1)``; 0 unless big is finite and > 0.

    Scaling by ``2**-e`` (``np.ldexp``) is exact, so a value computed on
    scaled data and scaled back by ``2**e`` picks up no rounding from it.
    """
    if big > 0.0 and math.isfinite(big):
        return math.frexp(big)[1]
    return 0


def _bitwise_symmetric(a: np.ndarray) -> bool:
    """True when the square float64 array a equals a.T bit for bit."""
    bits = a.view(np.int64)
    n, t = a.shape[0], SYMMETRY_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            if not np.array_equal(bits[i:i + t, j:j + t], bits[j:j + t, i:i + t].T):
                return False
    return True


class SymMatrix:
    """Dense real symmetric matrix.

    The constructor validates shape and finiteness, rejects inputs whose
    asymmetry exceeds ``ASYMMETRY_REL_TOL * ||A||_F``, and stores the
    symmetrized average ``(A + A^T) / 2`` (exact symmetry: IEEE addition is
    commutative, so ``entries[i, j] == entries[j, i]`` bit for bit).  The
    stored array is frozen; treat instances as immutable values.

    An input equal to its transpose bit for bit is stored with no average
    and no norms: its average is the input itself (``x + x`` and the
    halving are exact, and a pair whose sum overflows is averaged back to
    itself below) and its asymmetry is 0, so the entries and the decision
    are those of the averaging path.  The bitwise comparison (``-0.0``
    differs from ``0.0``) runs over ``SYMMETRY_TILE``-sided tiles, so each
    pair of tiles is read while it is in cache.  Such an input is stored
    as a copy, unless it is a float64 array that is read-only and owns its
    data: a caller that builds a fresh array and freezes it hands it over,
    and it is stored as it is.  A writeable input is never frozen or
    aliased.

    The asymmetry is measured as ``2 ||A - (A + A^T) / 2||_F``, which
    reads the transpose once, in building the stored average.  When
    ``||A||_F`` overflows to inf or underflows to 0 for a nonzero matrix,
    both norms of the check are computed on copies scaled by a power of
    two, and mirrored pairs whose sum overflows are averaged on the scaled
    copy, so the check and the average hold at any scale; inputs with a
    finite, nonzero norm take no extra pass.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if _bitwise_symmetric(a):
            if a.flags.writeable or not a.flags.owndata:
                a = a.copy()
                a.flags.writeable = False
            self.entries = a
            return
        with np.errstate(over="ignore"):  # inf sums and norms are handled below
            sym = (a + a.T) / 2.0
            fro = float(np.linalg.norm(a))
        e = 0
        if fro in (0.0, math.inf):
            e = _scale_exponent(float(np.max(np.abs(a))))
            scaled = np.ldexp(a, -e)
            fro = float(np.linalg.norm(scaled))
            # A mirrored pair can sum past the float64 maximum.  Such a pair
            # is far from subnormal, so its average on the scaled copy is
            # exact; every other entry keeps the unscaled average.
            over = np.isinf(sym)
            if over.any():
                sym[over] = np.ldexp((scaled + scaled.T) / 2.0, e)[over]
        half_asym = a - sym
        with np.errstate(over="ignore"):
            asym = 2.0 * float(np.linalg.norm(np.ldexp(half_asym, -e) if e else half_asym))
        if asym > ASYMMETRY_REL_TOL * fro and fro > 0.0:
            raise ValueError(
                f"matrix is not symmetric within tolerance: "
                f"||A - A^T||_F = {math.ldexp(asym, e):.3e} exceeds "
                f"{ASYMMETRY_REL_TOL:g} * ||A||_F = "
                f"{math.ldexp(ASYMMETRY_REL_TOL * fro, e):.3e}"
            )
        sym.flags.writeable = False
        self.entries = sym

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class SpectralPartition:
    """A spectrum split at k: ``u1`` holds the k dominant eigenvectors
    (n x k) and ``eigenvalues`` the whole non-increasing spectrum, so
    ``eigenvalues[:k]`` is ``Sigma_1`` and ``eigenvalues[k:]`` is
    ``Sigma_2``.  The tail eigenvectors are not kept: the bounds read only
    ``U_1`` and ``||Sigma_2||_2``.
    """

    u1: np.ndarray
    eigenvalues: np.ndarray

    @property
    def k(self) -> int:
        return self.u1.shape[1]

    @property
    def n(self) -> int:
        return self.u1.shape[0]


def sym_eig(a: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a symmetric matrix, eigenvalues
    descending and ``eigenvectors[:, j]`` the unit vector paired with
    ``eigenvalues[j]``.

    Backed by LAPACK's symmetric solver; the ascending output is reordered
    with a stable descending sort, so ties keep the backend order and the
    result is deterministic for a fixed input.
    """
    vals, vecs = np.linalg.eigh(a.entries)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def sym_eigvals(a: SymMatrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, without eigenvectors."""
    return np.linalg.eigvalsh(a.entries)[::-1]


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


def check_psd(a: SymMatrix) -> None:
    """Certify that A is PSD within the clamp window, or raise NotPSDError.

    Runs the blocked Cholesky factorization of :func:`shifted_cholesky_ok`
    on ``A + PSD_CLAMP_REL * max(max_i a_ii, 0) I``, in place on one n x n
    scratch copy.  It succeeds only if every eigenvalue of A exceeds
    ``-PSD_CLAMP_REL * max_i a_ii``, and ``max_i a_ii <= lambda_max``, so
    success certifies the window at about a quarter of the flops of an
    eigensolve (Higham, "Analysis of the Cholesky decomposition of a
    semi-definite matrix", 1990).  When it fails, the eigenvalues decide
    through :func:`clamp_psd_eigenvalues`: NotPSDError names the offending
    eigenvalue, and a PSD matrix that Cholesky rejects through rounding
    (for example one whose entries are near the subnormal range) is
    accepted.
    """
    shift = PSD_CLAMP_REL * max(float(np.max(np.diagonal(a.entries))), 0.0)
    if not shifted_cholesky_ok(a.entries, shift):
        clamp_psd_eigenvalues(sym_eigvals(a))


def shifted_cholesky_ok(m: np.ndarray, shift: float) -> bool:
    """True when a Cholesky factorization of ``m + shift I`` succeeds, which
    certifies that every eigenvalue of the symmetric array m exceeds
    ``-shift``.

    Right-looking and blocked, in place on one copy of m: for each block
    of ``CHOLESKY_BLOCK`` columns, ``np.linalg.cholesky`` factors the
    diagonal block (it reads only its lower triangle), ``np.linalg.solve``
    turns the panel below it into the factor's panel, and one matmul per
    block-strip subtracts the panel product from the trailing lower
    triangle.  Only the copy, one panel and one strip product are live;
    no n x n factor is formed.  A blocked Cholesky has the backward error
    of the unblocked one (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 10), so it certifies the same window.  For
    ``n <= CHOLESKY_BLOCK`` this is one ``np.linalg.cholesky`` of the whole
    shifted copy.
    """
    n, b = m.shape[0], CHOLESKY_BLOCK
    s = m.copy()
    diag = np.arange(n)
    s[diag, diag] += shift
    for j in range(0, n, b):
        e = min(j + b, n)
        try:
            factor = np.linalg.cholesky(s[j:e, j:e])
        except np.linalg.LinAlgError:
            return False
        if e < n:  # solve costs a factorization even with no panel rows
            panel = np.linalg.solve(factor, s[e:, j:e].T).T
        for i in range(e, n, b):
            t = min(i + b, n)
            s[i:t, e:t] -= panel[i - e:t - e] @ panel[:t - e].T
    return True


def psd_sqrt(a: SymMatrix) -> SymMatrix:
    """Symmetric PSD square root ``A^(1/2)``.

    Shares eigenvectors with ``A``; round-off negatives inside the clamp
    window are treated as zero, anything below raises NotPSDError.
    """
    vals, vecs = sym_eig(a)
    root = (vecs * np.sqrt(clamp_psd_eigenvalues(vals))) @ vecs.T
    return SymMatrix(root)


def spectral_norm(m) -> float:
    """Largest singular value of a real matrix.

    Computed as the square root of the largest eigenvalue of the smaller
    Gram matrix (M M^T or M^T M), which keeps the work at
    ``min(shape)``-sized symmetric problems.  M is always first scaled by
    the power of two that puts ``max |m_ij|`` in ``[0.5, 1)``, so the Gram
    matrix neither overflows nor underflows at any input scale, and the
    norm is scaled back.  The scaling is exact and costs one copy of M.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0.0
    e = _scale_exponent(max(float(a.max()), -float(a.min())))
    a = np.ldexp(a, -e)
    if a.shape[0] <= a.shape[1]:
        g = a @ a.T
    else:
        g = a.T @ a
    lam = float(np.linalg.eigvalsh(g)[-1])
    return math.ldexp(math.sqrt(max(lam, 0.0)), e)


def lowrank_residual_norm(
    a: SymMatrix,
    start: np.ndarray,
    c: np.ndarray | None = None,
    index: np.ndarray | None = None,
    m: np.ndarray | None = None,
) -> tuple[float, float]:
    """``||A - C M^T M C^T||_2`` by Lanczos, matrix-free, with its residual bound.

    ``c`` holds the columns ``A[:, index]`` (n x l) and ``m`` is r x l, so
    ``C M^T M C^T`` has rank at most r.  The Nystrom extension passes
    ``M = L^{-1}`` of a pivoted Cholesky ``W_PP = L L^T``, placed at the
    pivot columns P of the sample and zero elsewhere, which makes the
    product ``C_P L^{-T} L^{-1} C_P^T``.  Without ``c`` the operator is A
    and the result is ``||A||_2``.

    Returns ``(theta, r)``: ``theta`` is the Ritz value of largest modulus
    and ``r`` its Ritz residual, so an eigenvalue of the operator lies in
    ``[theta - r, theta + r]`` (Parlett, *The Symmetric Eigenvalue
    Problem*, the residual bound).  The extreme Ritz value does not
    overshoot, so ``[theta, theta + r]`` brackets the norm once the
    Krylov space has found the top eigenvector; a random start does so
    with probability one (Kuczynski and Wozniakowski, SIAM J. Matrix Anal.
    Appl. 1992).

    Lanczos runs on ``x -> s (y - C (M^T (M y[index])))`` with ``y = A x``:
    ``C^T x`` is read from the product with A, so each step costs one
    product with A, one with C and two with M, and no n x r array is
    formed.  ``s`` is the power of two that puts ``s * max_i a_ii`` in
    ``[0.5, 1)`` (``s = 1`` when the diagonal is 0, so for PSD A, which is
    then 0, the result is 0).  For PSD A, ``|a_ij| <= max_i a_ii``, so the
    scaled recurrence stays near 1 at any input scale; ``theta / s`` and
    ``r / s`` are returned.

    ``start`` is the unit start vector.  The basis is fully
    reorthogonalised (two classical Gram-Schmidt passes).  It and the
    tridiagonal T live in arrays that double in size when full, so a step
    copies nothing.  Fixed stopping rule, checked after every step: ``r <=
    LANCZOS_REL_TOL * theta``, or ``r <= n * eps`` (scaled units), or a
    zero next residual ``beta``, or a Krylov dimension of ``n``, at which
    the result is exact.  For a fixed input the result does not depend on
    the caller's thread.
    """
    n = a.n
    e = _scale_exponent(float(np.max(np.diagonal(a.entries))))
    cap = min(n, 16)
    basis = np.empty((cap, n))
    basis[0] = start
    t = np.zeros((cap, cap))
    j = 0  # index of the newest basis vector
    while True:
        y = a.entries @ basis[j]
        if c is not None:
            y -= c @ (m.T @ (m @ y[index]))
        w = np.ldexp(y, -e)
        b = basis[:j + 1]
        h = b @ w
        w -= h @ b
        h2 = b @ w
        w -= h2 @ b
        t[j, j] = h[-1] + h2[-1]
        beta = float(np.linalg.norm(w))
        vals, vecs = np.linalg.eigh(t[:j + 1, :j + 1])
        i = int(np.argmax(np.abs(vals)))
        theta = abs(float(vals[i]))
        r = beta * abs(float(vecs[-1, i]))
        if (r <= LANCZOS_REL_TOL * theta or r <= n * EPS or beta == 0.0
                or j + 1 == n):
            return math.ldexp(theta, e), math.ldexp(r, e)
        j += 1
        if j == cap:
            cap = min(2 * cap, n)
            basis = np.concatenate([basis, np.empty((cap - j, n))])
            t = np.pad(t, (0, cap - j))
        t[j - 1, j] = t[j, j - 1] = beta
        basis[j] = w / beta


def projector(m) -> SymMatrix:
    """Orthogonal projector onto the column space of ``m``.

    The range is determined by the SVD with the standard relative rank
    cutoff ``max(shape) * eps``, so ``projector(M) @ M == M`` up to
    round-off and the projector is exactly symmetric and idempotent to
    working precision.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return SymMatrix(np.zeros((a.shape[0], a.shape[0])))
    keep = s > max(a.shape) * EPS * s[0]
    q = u[:, keep]
    return SymMatrix(q @ q.T)


def partition(a: SymMatrix, k: int) -> SpectralPartition:
    """The spectrum of A split at k, from one eigensolve.

    ``k == n`` is allowed and leaves an empty tail.  ``u1`` is an n x k
    copy, so the n x n eigenvector array is not kept alive.
    """
    if not 1 <= k <= a.n:
        raise ValueError(f"partition index k={k} out of range [1, {a.n}]")
    vals, vecs = sym_eig(a)
    return SpectralPartition(u1=vecs[:, :k].copy(), eigenvalues=vals)
