"""The column-sampled Nystrom extension of a PSD matrix.

Given a PSD matrix A and a sample S of its columns, the extension is
``A_tilde = C W^+ C^T`` with ``C = A S`` and ``W = S^T A S``.  It is PSD
whenever W is, and it reproduces A exactly when ``rank(W) == rank(A)``.
:func:`nystrom_extend` gathers C and W from A, factors W by a pivoted
partial Cholesky and bounds the spectral error by matrix-free Lanczos,
forming no n x n array.

:func:`sqrt_projection_error` is the independent check: the paper's
identity ``||A - A_tilde||_2 = ||(I - P) A^(1/2)||_2^2``, with P the
orthogonal projector onto the range of ``A^(1/2) S``, computed densely
from its own eigensolve of A and SVD of ``A^(1/2) S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .generators import FlatMatrix
from .matcore import (
    EPS,
    PSD_CLAMP_REL,
    SymMatrix,
    _scale_exponent,
    clamp_psd_eigenvalues,
    lowrank_residual_norm,
    shifted_cholesky_ok,
)
from .sampling import ColumnSample, lanczos_start


@dataclass(frozen=True, eq=False)
class NystromResult:
    """One extension in factored form, with its error and diagnostics.

    ``columns`` is C, the sampled columns in index order (n x l), and
    ``linv`` is ``L^{-1}`` of the pivoted Cholesky ``W_PP = L L^T``, placed
    at the pivot columns P and zero elsewhere (``rank_w x l``, ``rank_w``
    the pivot count).  The extension is ``Z Z^T`` with ``Z = C_P L^{-T}``,
    which ``factor`` builds (n x ``rank_w``) on first read.  The norm of
    ``A - Z Z^T`` lies in ``[spectral_error, spectral_error +
    error_residual]`` (see :func:`matcore.lowrank_residual_norm`).

    ``psd_violation`` is the most negative eigenvalue of ``Z Z^T``, 0.0
    when there is none.  It is read on first access from the ``rank_w x
    rank_w`` matrix ``Z^T Z``, which has the same nonzero spectrum.
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


def nystrom_extend(a: SymMatrix | FlatMatrix, sample: ColumnSample) -> NystromResult:
    """Extend the sampled columns of a PSD matrix to a full PSD matrix.

    Column Nystrom on a sample S is a partial Cholesky of A with its pivots
    restricted to S (Chen, Epperly, Tropp and Webber, "Randomly pivoted
    Cholesky", arXiv:2207.06503).  C and W are gathered here, bit for bit,
    from the rows of A at the sample sorted by index.  W is factored by a
    pivoted partial Cholesky that stops once every remaining Schur diagonal
    is ``<= l * eps * max_i w_ii``; its pivots P (``rank_w`` of them) give
    the extension ``C_P W_PP^{-1} C_P^T``.  Pivot ties go to the lowest
    index, so the result does not depend on the order of the sample.

    The non-pivot Schur remainder R bounds W from below, ``lambda_min(W) >=
    min(lambda_min(R), 0)``, so a Cholesky of R shifted by the PSD clamp
    window ``PSD_CLAMP_REL * max_i w_ii`` certifies W, as
    :func:`matcore.check_psd` does for A.  When it fails the eigenvalues of
    W decide: one below the clamp window certifies that A itself is not PSD
    (W is a principal submatrix) and raises :class:`NotPSDError` naming it.

    The error is the scaled Lanczos estimate started from
    :func:`sampling.lanczos_start`, so it depends only on A and the sample
    set; one that is not finite raises :class:`FloatingPointError`.  No n x
    ``rank_w`` array is formed, and A is read only through ``n``,
    ``rows``, ``A @ x`` and ``max_diagonal``, so a
    :class:`generators.FlatMatrix` gives no n x n array either.  A sample
    over another n raises ValueError.
    """
    if sample.n != a.n:
        raise ValueError(f"sample is over n={sample.n} but the matrix has n={a.n}")
    index = np.sort(sample.indices)
    # A is exactly symmetric, so the transpose of its rows is the sampled
    # columns C.
    rows = a.rows(index)
    c, w = rows.T, rows.take(index, axis=1)
    l = sample.l
    w_max = max(float(np.max(w.diagonal())), 0.0)
    g, pivots = _pivoted_cholesky(w, l * EPS * w_max)
    rest = np.ones(l, dtype=bool)
    rest[pivots] = False
    if rest.any():
        f = g[:, :l][:, rest]
        remainder = w[np.ix_(rest, rest)] - f.T @ f
        if not shifted_cholesky_ok(remainder, PSD_CLAMP_REL * w_max):
            clamp_psd_eigenvalues(np.linalg.eigvalsh(w))  # NotPSDError below the window
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
    of the extension path.  ``A^(1/2)`` comes from the eigenpairs of A in
    descending order (a stable sort of ``np.linalg.eigh``), with round-off
    negatives inside the clamp window set to zero (NotPSDError below it);
    P keeps the left singular vectors of ``A^(1/2) S`` above the rank
    cutoff ``max(shape) * eps * sigma_1``.  The norm comes from ``R R^T``,
    R scaled by the power of two that puts ``max |r_ij|`` in ``[0.5, 1)``.
    """
    vals, vecs = np.linalg.eigh(a.entries)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    root = SymMatrix((vecs * np.sqrt(clamp_psd_eigenvalues(vals))) @ vecs.T).entries
    m = root[:, list(sample.indices)]
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    q = u[:, s > max(m.shape) * EPS * s[0]]  # no columns when m is 0
    p = SymMatrix(q @ q.T).entries
    r = root - p @ root
    e = _scale_exponent(max(float(r.max()), -float(r.min())))
    r = np.ldexp(r, -e)
    lam = float(np.linalg.eigvalsh(r @ r.T)[-1])
    return math.ldexp(math.sqrt(max(lam, 0.0)), e) ** 2
