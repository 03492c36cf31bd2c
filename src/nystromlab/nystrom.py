"""The column-sampled Nystrom extension of a PSD matrix.

Given a PSD matrix A and a sample S of its columns, the extension is
``A_tilde = C W^+ C^T`` with ``C = A S`` and ``W = S^T A S``.  Because
``W^+`` is PSD whenever W is, the extension is PSD by construction, and it
reproduces A exactly whenever ``rank(W) == rank(A)`` (in particular when
the sample spans the range of A).

W is factored by a pivoted partial Cholesky, ``W_PP = L L^T`` on its
pivot columns P, so the extension is ``C_P L^{-T} L^{-1} C_P^T``; this is
column Nystrom read as a partial Cholesky of A with pivots restricted to
the sample.  Its spectral error is computed matrix-free by Lanczos on
``x -> A x - C_P L^{-T} L^{-1} (A x)_P``
(:func:`matcore.lowrank_residual_norm`), so neither an ``n x n`` matrix
nor the ``n x rank_w`` factor ``Z = C_P L^{-T}`` is formed.  Z is built
only when a caller reads it, as is the PSD diagnostic, which reads the
small ``rank_w x rank_w`` Gram matrix ``Z^T Z``.

The spectral error of the extension admits a second, independent route:
``||A - A_tilde||_2`` equals the squared spectral norm of
``(I - Pi) A^(1/2)`` where Pi is the orthogonal projector onto the column
space of ``A^(1/2) S``.  :func:`sqrt_projection_error` computes that route
so the two can be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (
    EPS,
    PSD_CLAMP_REL,
    SymMatrix,
    clamp_psd_eigenvalues,
    lowrank_residual_norm,
    projector,
    psd_sqrt,
    shifted_cholesky_ok,
    spectral_norm,
    sym_eigvals,
)
from .sampling import ColumnSample, extract_cw, lanczos_start


@dataclass(frozen=True, eq=False)
class NystromResult:
    """One extension in factored form, with its error and diagnostics.

    ``columns`` is C, the sampled columns in index order (n x l), and
    ``linv`` is ``L^{-1}`` of the pivoted Cholesky ``W_PP = L L^T``, placed
    at the pivot columns P of the index-ordered sample and zero elsewhere
    (``rank_w x l``).  The extension is ``C_P W_PP^{-1} C_P^T = Z Z^T``
    with ``Z = C_P L^{-T}``; ``factor`` builds Z (n x ``rank_w``) on first
    read and caches it.  ``rank_w`` is the pivot count.
    ``spectral_error`` is the Lanczos estimate of the norm of ``A - Z Z^T``
    and ``error_residual`` its Ritz residual, so the norm lies in
    ``[spectral_error, spectral_error + error_residual]`` (see
    :func:`matcore.lowrank_residual_norm`).

    ``psd_violation`` is the most negative eigenvalue of ``Z Z^T``, 0.0
    when there is none, a diagnostic for the PSD-preservation guarantee.
    The nonzero spectrum of ``Z Z^T`` is that of ``Z^T Z`` and the other
    ``n - rank_w`` eigenvalues are exactly 0, so it is read from the
    ``rank_w x rank_w`` matrix ``Z^T Z``; it is computed on first access
    and cached.
    """

    sample: ColumnSample
    columns: np.ndarray
    linv: np.ndarray
    spectral_error: float
    error_residual: float

    @property
    def rank_w(self) -> int:
        return self.linv.shape[0]

    @cached_property
    def factor(self) -> np.ndarray:
        return self.columns @ self.linv.T

    @cached_property
    def psd_violation(self) -> float:
        if self.rank_w == 0:
            return 0.0
        return min(float(np.linalg.eigvalsh(self.factor.T @ self.factor)[0]), 0.0)


def _pivoted_cholesky(w: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Pivoted partial Cholesky of the symmetric l x l array w.

    Each step pivots on the largest remaining Schur diagonal, the lowest
    position on a tie, and the loop stops once that diagonal is ``<= tol``.
    Returns ``(g, pivots)``: row j of the r x 2l array g is ``[f_j, m_j]``,
    where ``f_j`` is column j of the factor L (its entries at earlier
    pivots are not zeroed and are never read) and ``m_j`` is row j of
    ``L_P^{-1}``, both over the l positions of w.  The two halves come out
    of one elimination of ``[w[p], e_p]`` against the rows so far, so
    ``L_P^{-1}`` is the forward substitution of ``L_P X = I``.
    """
    l = w.shape[0]
    g = np.zeros((l, 2 * l))
    d = w.diagonal().copy()  # Schur diagonal; -inf marks a pivot
    pivots: list[int] = []
    for j in range(l):
        p = int(d.argmax())
        dp = float(d[p])
        if not dp > tol:
            break
        row = g[j]
        np.matmul(g[:j, p], g[:j], out=row)
        row[:l] -= w[p]
        row[l + p] -= 1.0
        row /= -math.sqrt(dp)  # row = ([w[p], e_p] - g[:j, p] @ g[:j]) / sqrt(dp)
        d -= row[:l] * row[:l]
        d[p] = -math.inf
        pivots.append(p)
    return g[:len(pivots)], pivots


def nystrom_extend(a: SymMatrix, sample: ColumnSample) -> NystromResult:
    """Extend the sampled columns of a PSD matrix to a full PSD matrix.

    Column Nystrom on a sample S is a partial Cholesky of A with its pivots
    restricted to S (Chen, Epperly, Tropp and Webber, "Randomly pivoted
    Cholesky", arXiv:2207.06503).  W is factored by a pivoted partial
    Cholesky that stops once every remaining Schur diagonal is ``<= l *
    eps * max_i w_ii``; its pivots P (``rank_w`` of them) give the
    extension ``C_P W_PP^{-1} C_P^T``.  The factor is computed on the
    sample sorted by index, and pivot ties go to the lowest index, so the
    result does not depend on the order of the sample.

    The non-pivot Schur remainder R bounds W from below, ``lambda_min(W) >=
    min(lambda_min(R), 0)``, so a Cholesky of R shifted by the PSD clamp
    window ``PSD_CLAMP_REL * max_i w_ii`` certifies W, as
    :func:`matcore.check_psd` does for A.  When it fails the eigenvalues of
    W decide: one below the clamp window certifies that A itself is not PSD
    (W is a principal submatrix) and raises :class:`NotPSDError` naming it.

    The error is the scaled Lanczos estimate started from
    :func:`sampling.lanczos_start`, so it depends only on A and the sample
    set; one that is not finite raises :class:`FloatingPointError` rather
    than being reported.  No n x ``rank_w`` array is formed.

    Parameters
    ----------
    a : SymMatrix
        The matrix to approximate; PSD within the clamp tolerance.
    sample : ColumnSample
        Which columns were observed.
    """
    index = np.sort(sample.indices)
    c, w_sym = extract_cw(a, ColumnSample(sample.n, tuple(index.tolist())))
    w = w_sym.entries
    l = sample.l
    w_max = max(float(np.max(w.diagonal())), 0.0)
    g, pivots = _pivoted_cholesky(w, l * EPS * w_max)
    rest = np.ones(l, dtype=bool)
    rest[pivots] = False
    if rest.any():
        f = g[:, :l][:, rest]
        remainder = w[np.ix_(rest, rest)] - f.T @ f
        if not shifted_cholesky_ok(remainder, PSD_CLAMP_REL * w_max):
            clamp_psd_eigenvalues(sym_eigvals(w_sym))  # NotPSDError below the window
    linv = g[:, l:]
    err, resid = lowrank_residual_norm(a, lanczos_start(a.n), c, index, linv)
    if not (math.isfinite(err) and math.isfinite(resid)):
        raise FloatingPointError(f"spectral error overflowed to {err!r}")
    return NystromResult(
        sample=sample,
        columns=c,
        linv=linv,
        spectral_error=err,
        error_residual=resid,
    )


def sqrt_projection_error(a: SymMatrix, sample: ColumnSample) -> float:
    """Spectral error of the extension via the square-root projection route.

    Returns ``||(I - P) A^(1/2)||_2 ** 2`` where P projects onto the column
    space of ``A^(1/2) S``.  Agrees with ``nystrom_extend(...).spectral_error``
    for every PSD A and every sample, which makes it an independent check
    of the extension path.
    """
    root = psd_sqrt(a)
    m = root.entries[:, list(sample.indices)]
    p = projector(m)
    residual = root.entries - p.entries @ root.entries
    return spectral_norm(residual) ** 2
