"""Symmetric-matrix primitives: :class:`SymMatrix`, the PSD certificate
:func:`check_psd`, the Lanczos norm :func:`lowrank_residual_norm` and the
eigensolve :func:`partition` (README "Library quick start").

The extension, :func:`lowrank_residual_norm` and the square-root oracle
read A only through ``n``, ``A @ x``, ``max_diagonal()`` and
``block(rows, cols)``, so :class:`generators.FlatMatrix` serves them too;
only a SymMatrix has dense ``entries``.  Eigenvalues are non-increasing,
ties in the backend's order; a solver that does not converge raises
``np.linalg.LinAlgError``.  Eigenvalues of a nominally PSD matrix in
``[-PSD_CLAMP_REL * lambda_max, 0)`` count as zero; any below raise
:class:`NotPSDError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .generators import FlatMatrix

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

# Side of the tiles in which shifted_cholesky_ok updates the diagonal blocks
# and copies its strict upper triangle back onto the lower one.
TRIANGLE_TILE = 64

# Lanczos stopping rule of lowrank_residual_norm: Ritz residual relative to
# the Ritz value.
LANCZOS_REL_TOL = 1e-12

# Longest BLAS dot product in _stable_dot.  OpenBLAS splits a longer one
# between threads, which moves its bits with the thread count.
DOT_CHUNK = 8192


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


def _stable_dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x . y`` as a sum, in order, of BLAS dots of at most ``DOT_CHUNK``
    elements, so its bits do not depend on the BLAS thread count; up to
    ``DOT_CHUNK`` elements it is the one dot ``x @ y``."""
    s = x[:DOT_CHUNK] @ y[:DOT_CHUNK]
    for i in range(DOT_CHUNK, x.size, DOT_CHUNK):
        s += x[i:i + DOT_CHUNK] @ y[i:i + DOT_CHUNK]
    return float(s)


def _bitwise_symmetric(a: np.ndarray) -> bool:
    """True when the square float64 array a equals a.T bit for bit."""
    bits = a.view(np.int64)
    n, t = a.shape[0], SYMMETRY_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            if not np.array_equal(bits[i:i + t, j:j + t], bits[j:j + t, i:i + t].T):
                return False
    return True


def _tiled_sum_sq(a: np.ndarray, sym: np.ndarray | None, e: int) -> float:
    """``||(a - sym) 2**-e||_F^2`` (sym None: of a alone), summed over
    ``SYMMETRY_TILE``-sided tiles, so that no n x n temporary is formed."""
    n, t = a.shape[0], SYMMETRY_TILE
    total = 0.0
    for i in range(0, n, t):
        for j in range(0, n, t):
            tile = a[i:i + t, j:j + t]
            if sym is not None:
                tile = tile - sym[i:i + t, j:j + t]
            tile = np.ldexp(tile, -e).ravel()
            total += float(tile @ tile)
    return total


class SymMatrix:
    """Dense real symmetric matrix: read-only float64 ``entries`` that own
    their buffer, stored as README "Library quick start" says.

    Raises ValueError unless the input is square, non-empty, finite and
    has ``2 ||A - (A + A^T) / 2||_F <= ASYMMETRY_REL_TOL * ||A||_F``.
    Bitwise symmetry is compared, and the asymmetry norm summed, in
    ``SYMMETRY_TILE``-sided tiles, so an averaged input costs one n x n
    array besides itself.  Where ``||A||_F`` overflows or underflows, the
    check and any mirrored pair whose sum overflows run on entries scaled
    by a power of two, so both hold at any scale.  Only :func:`check_psd`
    lifts the write flag, and it restores the entries bit for bit.
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
            sym = a + a.T
            sym /= 2.0
            fro = float(np.linalg.norm(a))
        e = 0
        if fro in (0.0, math.inf):
            e = _scale_exponent(max(float(np.max(a)), -float(np.min(a))))
            fro = math.sqrt(_tiled_sum_sq(a, None, e))
            # A mirrored pair can sum past the float64 maximum.  Such a pair
            # is far from subnormal, so its average on the scaled entries is
            # exact; every other entry keeps the unscaled average.
            over = np.nonzero(np.isinf(sym))
            if over[0].size:
                pair = np.ldexp(a[over], -e) + np.ldexp(a.T[over], -e)
                sym[over] = np.ldexp(pair / 2.0, e)
        with np.errstate(over="ignore"):
            asym = 2.0 * math.sqrt(_tiled_sum_sq(a, sym, e))
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

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.entries[rows[:, None], cols]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ x

    def max_diagonal(self) -> float:
        return float(np.max(np.diagonal(self.entries)))


@dataclass(frozen=True)
class SpectralPartition:
    """A spectrum split at k: ``u1`` holds the k dominant eigenvectors
    (n x k) and ``eigenvalues`` the whole non-increasing spectrum, so
    ``eigenvalues[k:]`` is ``Sigma_2``; no tail eigenvector is kept.
    """

    u1: np.ndarray
    eigenvalues: np.ndarray

    @property
    def k(self) -> int:
        return self.u1.shape[1]

    @property
    def n(self) -> int:
        return self.u1.shape[0]


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
    """Certify that A is PSD within the clamp window, or raise NotPSDError
    (README "approx").

    A Cholesky of ``A + PSD_CLAMP_REL * max(max_i a_ii, 0) I``
    (:func:`shifted_cholesky_ok`, in place in A's lower triangle) succeeds
    only if every eigenvalue of A exceeds ``-PSD_CLAMP_REL * max_i a_ii``,
    and ``max_i a_ii <= lambda_max`` (Higham, "Analysis of the Cholesky
    decomposition of a semi-definite matrix", 1990).  When it fails, the
    eigenvalues decide (:func:`clamp_psd_eigenvalues`), so a PSD matrix
    that Cholesky rejects through rounding is accepted.  ``a.entries``
    comes back bit for bit and read-only on every exit.
    """
    shift = PSD_CLAMP_REL * max(float(np.max(np.diagonal(a.entries))), 0.0)
    if not shifted_cholesky_ok(a.entries, shift):
        clamp_psd_eigenvalues(np.linalg.eigvalsh(a.entries))


def shifted_cholesky_ok(m: np.ndarray, shift: float) -> bool:
    """True when a Cholesky factorization of ``m + shift I`` succeeds, which
    certifies that every eigenvalue of the exactly symmetric array m
    exceeds ``-shift``.

    Right-looking and blocked over the ``CHOLESKY_BLOCK``-column panels
    ``m[j:, j:j + b]`` of m's own lower triangle: ``np.linalg.cholesky``
    factors the diagonal block (it reads only its lower triangle),
    ``np.linalg.solve`` turns the rest of the panel into the factor's
    panel, written back over it, and one matmul per block-strip subtracts
    the panel product from the trailing lower triangle.  The arithmetic is
    that of the same algorithm run on a full copy of ``m + shift I``; a
    blocked Cholesky has the backward error of the unblocked one (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10), so it
    certifies the same window.  For ``n <= CHOLESKY_BLOCK`` it is one
    ``np.linalg.cholesky``.  The lower triangle is the workspace because
    its column panels hand ``np.linalg.solve`` contiguous right-hand
    sides; the row panels of the upper one would be read at a stride of n.

    As in LAPACK's ``dpotrf``, the other triangle is left alone: the
    updates of a diagonal block skip its strict upper half, so only the
    diagonal is saved.  On every exit, an exception included, the strict
    lower triangle is copied back from the strict upper one and the
    diagonal from its copy, so m comes back bit for bit, with its write
    flag as it was (m must be writeable or own its buffer; no concurrent
    calls on one array).  Besides m it holds one factor panel or strip
    product, about ``n * CHOLESKY_BLOCK`` entries.
    """
    n, b = m.shape[0], CHOLESKY_BLOCK
    d = np.arange(n)
    diag = m[d, d]
    writeable = m.flags.writeable
    m.flags.writeable = True
    try:
        m[d, d] += shift
        s = TRIANGLE_TILE
        lower = np.tri(min(s, n), dtype=bool)
        for j in range(0, n, b):
            e = min(j + b, n)
            try:
                factor = np.linalg.cholesky(m[j:e, j:e])
            except np.linalg.LinAlgError:
                return False
            if e == n:  # solve costs a factorization even with no panel rows
                break
            m[e:, j:e] = np.linalg.solve(factor, m[e:, j:e].T).T
            panel = m[e:, j:e]
            for i in range(e, n, b):
                t = min(i + b, n)
                strip = panel[i - e:t - e] @ panel[:t - e].T  # rows i:t, columns e:t
                for r in range(i, t, s):  # left of the diagonal, then its lower half
                    q = min(r + s, t)
                    m[r:q, e:r] -= strip[r - i:q - i, :r - e]
                    tile = m[r:q, r:q]
                    np.subtract(tile, strip[r - i:q - i, r - e:q - e], out=tile,
                                where=lower[:q - r, :q - r])
                del strip  # before the next strip product is formed
        return True
    finally:
        _mirror_upper(m)
        m[d, d] = diag
        m.flags.writeable = writeable


def _mirror_upper(m: np.ndarray) -> None:
    """Copy the strict upper triangle of the square array m onto its strict
    lower one, in ``TRIANGLE_TILE``-sided tiles, each a transposed copy."""
    n, t = m.shape[0], TRIANGLE_TILE
    below = ~np.tri(min(t, n), dtype=bool).T  # strict lower triangle of a tile
    for i in range(0, n, t):
        tile = m[i:i + t, i:i + t]
        k = tile.shape[0]
        np.copyto(tile, tile.T, where=below[:k, :k])
        for c in range(i + t, n, t):
            m[c:c + t, i:i + t] = m[i:i + t, c:c + t].T


def lowrank_residual_norm(
    a: SymMatrix | FlatMatrix,
    start: np.ndarray,
    index: np.ndarray | None = None,
    m: np.ndarray | None = None,
) -> tuple[float, float]:
    """``||A - C M^T M C^T||_2`` by Lanczos, matrix-free, with its residual bound.

    ``C = A S`` holds the columns ``A[:, index]`` and is applied as ``A (S
    z)``; m is r x l.  Without m the operator is A.  Returns ``(theta,
    r)``, the Ritz value of largest modulus and its Ritz residual, so
    ``[theta, theta + r]`` brackets the norm once the Krylov space has found
    the top eigenvector, which a random start does with probability one
    (Parlett, *The Symmetric Eigenvalue Problem*; Kuczynski and
    Wozniakowski, SIAM J. Matrix Anal. Appl. 1992).  FloatingPointError
    when either is beyond the float64 range.

    ``start`` is the unit start vector.  The recurrence runs on ``A (s
    x)``, s the power of two that puts ``s * A.max_diagonal()`` in ``[0.5,
    1)`` (1 when that is 0), so for PSD A it stays near 1 at any input
    scale, and the basis is fully reorthogonalised (two classical
    Gram-Schmidt passes).  Fixed stopping rule, checked after every step:
    ``r <= LANCZOS_REL_TOL * theta``, ``r <= n * eps`` (scaled units), a
    zero next residual ``beta``, or a Krylov dimension of ``n``.
    For a fixed input the result does not depend on the caller's thread,
    nor, as ``beta`` and the first step's projection are :func:`_stable_dot`
    sums, on the BLAS thread count at any n.
    """
    n = a.n
    e = _scale_exponent(a.max_diagonal())
    cap = min(n, 16)
    basis = np.empty((cap, n))
    basis[0] = start
    t = np.zeros((cap, cap))
    scattered = np.zeros(n)  # S z, for C z = A (S z)
    j = 0  # index of the newest basis vector
    while True:
        w = a @ np.ldexp(basis[j], -e)
        if m is not None:
            scattered[index] = m.T @ (m @ w[index])
            w -= a @ scattered
        b = basis[:j + 1]  # numpy runs a one-row b @ w as one BLAS dot
        h = b @ w if j else np.array([_stable_dot(b[0], w)])
        w -= h @ b
        h2 = b @ w if j else np.array([_stable_dot(b[0], w)])
        w -= h2 @ b
        t[j, j] = h[-1] + h2[-1]
        beta = math.sqrt(_stable_dot(w, w))
        vals, vecs = np.linalg.eigh(t[:j + 1, :j + 1])
        i = int(np.argmax(np.abs(vals)))
        theta = abs(float(vals[i]))
        r = beta * abs(float(vecs[-1, i]))
        if (r <= LANCZOS_REL_TOL * theta or r <= n * EPS or beta == 0.0
                or j + 1 == n):
            try:
                return math.ldexp(theta, e), math.ldexp(r, e)
            except OverflowError:
                raise FloatingPointError(
                    f"the Lanczos norm overflows: {theta!r} * 2**{e} exceeds the float64 range"
                ) from None
        j += 1
        if j == cap:
            cap = min(2 * cap, n)
            basis = np.concatenate([basis, np.empty((cap - j, n))])
            t = np.pad(t, (0, cap - j))
        t[j - 1, j] = t[j, j - 1] = beta
        basis[j] = w / beta


def partition(a: SymMatrix, k: int) -> SpectralPartition:
    """The spectrum of A split at k, from one eigensolve.

    ``k == n`` is allowed and leaves an empty tail.  ``u1`` is an n x k
    copy, so the n x n eigenvector array is not kept alive.
    """
    if not 1 <= k <= a.n:
        raise ValueError(f"partition index k={k} out of range [1, {a.n}]")
    vals, vecs = np.linalg.eigh(a.entries)
    order = np.argsort(-vals, kind="stable")
    return SpectralPartition(u1=vecs[:, order[:k]].copy(), eigenvalues=vals[order])
