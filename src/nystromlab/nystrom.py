"""The column-sampled Nystrom extension ``A_tilde = C W^+ C^T`` of a PSD
matrix, ``C = A S`` and ``W = S^T A S``, and the square-root route that
checks its error independently (README "Library quick start").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

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

if TYPE_CHECKING:
    from .generators import FlatMatrix

GATHER_ROWS = 32  # rows of W per block of _gather_w


@dataclass(frozen=True, eq=False)
class NystromResult:
    """One extension in factored form, ``A_tilde = Z Z^T`` with ``Z = C_P
    L^{-T}``, with its error bracket and diagnostics.

    ``linv`` is ``L^{-1}`` of the pivoted Cholesky ``W_PP = L L^T``, at the
    pivot columns P and zero elsewhere (``rank_w x l``).  ``columns`` (C,
    n x l, in index order), ``factor`` (Z, n x ``rank_w``) and
    ``psd_violation`` (the most negative eigenvalue of ``Z Z^T``, read from
    ``Z^T Z``; 0.0 when there is none) are computed on first read.  The
    norm of ``A - Z Z^T`` lies in ``[spectral_error, spectral_error +
    error_residual]``.
    """

    sample: ColumnSample
    matrix: SymMatrix | FlatMatrix
    linv: np.ndarray
    spectral_error: float
    error_residual: float

    @property
    def rank_w(self) -> int:
        return self.linv.shape[0]

    @cached_property
    def columns(self) -> np.ndarray:
        # A is exactly symmetric: C is the transpose of the sampled rows
        return self.matrix.block(np.sort(self.sample.indices), np.arange(self.matrix.n)).T

    @cached_property
    def factor(self) -> np.ndarray:
        return self.columns @ self.linv.T

    @cached_property
    def psd_violation(self) -> float:
        if self.rank_w == 0:
            return 0.0
        return min(float(np.linalg.eigvalsh(self.factor.T @ self.factor)[0]), 0.0)


def _pivoted_cholesky(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivoted partial Cholesky of the symmetric W, in place.

    w is l x l', W in its first l columns and zeros after them
    (:func:`_gather_w`).  Each step pivots on the largest remaining Schur
    diagonal, the lowest position on a tie, until it is ``<= tol``.
    Returns ``(h, pivots, rest)``: r x l, the r pivots in order, and W at
    the other positions in index order.  Row j of h is ``f_j``, column j of
    L, at the non-pivots and ``m_j``, row j of ``L_P^{-1}``, at the pivots,
    both from one ``j x l'`` product that eliminates ``[w[p], e_p]``
    against the rows so far.  It overwrites row j of w, whose input row
    moves to the row that pivot p's leaves.  The rest of a step is plain
    elementwise work, with no masks, by three invariants:

    * column p is zeroed in every row after the product (``m_i[p] = 0``
      above row j), so an input row reads +0.0 at the earlier pivots and
      subtracting it leaves the ``m`` entries as they are (``x - 0.0 == x``);
    * the Schur diagonal d stays -inf at the pivots, minus any square;
    * the squares of ``m`` entries may overflow, so overflow is ignored,
      but they only meet that -inf; at the non-pivots ``f_j^2 <= w_cc``.
    """
    l = w.shape[0]
    d = w.diagonal().copy()  # Schur diagonal; -inf marks a pivot
    order = list(range(l))  # row k of w holds input row order[k] for k >= j
    where = list(range(l))  # and input row i is row where[i] of w
    wp, sq = np.empty(l), np.empty(l)
    j = 0
    with np.errstate(over="ignore"):  # only the squares at the pivots overflow
        while j < l:
            p = int(d.argmax())
            dp = float(d[p])
            if not dp > tol:
                break
            k = where[p]
            wp[:] = w[k, :l]
            w[k], order[k] = w[j], order[j]  # the input row at j moves to row k
            where[order[k]] = k
            np.matmul(w[:j, p], w[:j], out=w[j])
            w[:, p] = 0.0
            row = w[j, :l]
            row -= wp
            row[p] = -1.0
            row /= -math.sqrt(dp)  # row = ([w[p], e_p] - h[:j, p] @ h[:j]) / sqrt(dp)
            np.multiply(row, row, out=sq)
            d -= sq
            d[p] = -math.inf
            order[j] = p
            j += 1
    free = np.ones(l, dtype=bool)
    free[order[:j]] = False
    return w[:j, :l], np.array(order[:j], dtype=int), w[np.ix_(np.array(where)[free], free)]


def _gather_w(a: SymMatrix | FlatMatrix, index: np.ndarray) -> np.ndarray:
    """W, bit for bit, in the first l columns of an l x l' array of zeros,
    gathered by ``a.block`` ``GATHER_ROWS`` rows at a time.
    ``l'`` is l rounded up to a multiple of 4, the row block of OpenBLAS's
    gemv kernels, so each position of the ``j x l'`` products runs in the
    kernel's main loop, as in the first half of a ``j x 2l`` one.  The
    array starts on a 64-byte boundary, where those products run fastest."""
    l = len(index)
    lp = -(-l // 4) * 4
    buf = np.zeros(l * lp + 7)
    w = buf[-buf.ctypes.data % 64 // 8:][:l * lp].reshape(l, lp)
    for i in range(0, l, GATHER_ROWS):
        w[i:i + GATHER_ROWS, :l] = a.block(index[i:i + GATHER_ROWS], index)
    return w


def nystrom_extend(a: SymMatrix | FlatMatrix, sample: ColumnSample) -> NystromResult:
    """Extend the sampled columns of a PSD matrix to a full PSD matrix.

    W, gathered at the sample sorted by index, is factored by
    :func:`_pivoted_cholesky` down to ``l * eps * max_i w_ii``; pivot ties
    go to the lowest index, so the result does not depend on the sample's
    order (column Nystrom is a partial Cholesky with pivots in S: Chen,
    Epperly, Tropp and Webber, arXiv:2207.06503).  The non-pivot Schur
    remainder R bounds W from below, ``lambda_min(W) >= min(lambda_min(R),
    0)``, so a Cholesky of R shifted by ``PSD_CLAMP_REL * max_i w_ii``
    certifies W; R is symmetric bit for bit (``f.T @ f`` is one SYRK).
    When it fails, an eigenvalue of W below the window raises
    :class:`NotPSDError`: W is a principal submatrix, so A is not PSD.

    The error is :func:`matcore.lowrank_residual_norm` from
    :func:`sampling.lanczos_start`, so it depends only on A and the sample
    set, and a trial holds ``O(l^2 + n)`` floats besides A.  A non-finite
    error raises FloatingPointError, a sample over another n ValueError.
    """
    if sample.n != a.n:
        raise ValueError(f"sample is over n={sample.n} but the matrix has n={a.n}")
    index = np.sort(sample.indices)
    l = sample.l
    w = _gather_w(a, index)
    w_max = max(float(np.max(w.diagonal())), 0.0)
    linv, pivots, w_rest = _pivoted_cholesky(w, l * EPS * w_max)
    rest = np.ones(l, dtype=bool)
    rest[pivots] = False
    if rest.any():
        f = linv[:, rest]
        if not shifted_cholesky_ok(w_rest - f.T @ f, PSD_CLAMP_REL * w_max):
            # NotPSDError below the window; the factor has consumed w
            clamp_psd_eigenvalues(np.linalg.eigvalsh(_gather_w(a, index)[:, :l]))
        linv[:, rest] = 0.0
    err, resid = lowrank_residual_norm(a, lanczos_start(a.n), index, linv)
    if not (math.isfinite(err) and math.isfinite(resid)):
        raise FloatingPointError(f"spectral error overflowed to {err!r}")
    return NystromResult(
        sample=sample,
        matrix=a,
        linv=linv,
        spectral_error=err,
        error_residual=resid,
    )


def sqrt_projection_error(a: SymMatrix | FlatMatrix, sample: ColumnSample) -> float:
    """``||(I - P) A^(1/2)||_2 ** 2``, P the projector onto the range of
    ``A^(1/2) S``: the spectral error of the extension by a dense route, an
    independent check of :func:`nystrom_extend`.

    ``A^(1/2)`` comes from a stable-sorted ``np.linalg.eigh`` of ``a.block(ar,
    ar)``, ``ar = np.arange(n)``, its spectrum clamped (NotPSDError below the
    window).  P keeps the left singular vectors of ``A^(1/2) S`` above
    ``max(shape) * eps * sigma_1``, and the norm comes from ``R R^T``, R
    scaled by the power of two that puts ``max |r_ij|`` in ``[0.5, 1)``.
    """
    ar = np.arange(a.n)
    vals, vecs = np.linalg.eigh(a.block(ar, ar))
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
