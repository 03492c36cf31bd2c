"""The column-sampled Nystrom extension of a PSD matrix.

Given a PSD matrix A and a sample S of its columns, the extension is
``A_tilde = C W^+ C^T`` with ``C = A S`` and ``W = S^T A S``.  It is PSD
whenever W is, and it reproduces A exactly when ``rank(W) == rank(A)``.
:func:`nystrom_extend` gathers W from A, factors it by a pivoted partial
Cholesky and bounds the spectral error by matrix-free Lanczos, applying
``C z`` as ``A (S z)``, so it forms no n x n array and no C.

:func:`sqrt_projection_error` is the independent check: the paper's
identity ``||A - A_tilde||_2 = ||(I - P) A^(1/2)||_2^2``, with P the
orthogonal projector onto the range of ``A^(1/2) S``, computed densely
from its own eigensolve of A and SVD of ``A^(1/2) S``.
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
    """One extension in factored form, with its error and diagnostics.

    ``columns`` is C, the sampled columns in index order (n x l), gathered
    from ``matrix`` on first read, and ``linv`` is ``L^{-1}`` of the
    pivoted Cholesky ``W_PP = L L^T``, placed at the pivot columns P and
    zero elsewhere (``rank_w x l``, ``rank_w`` the pivot count).  The
    extension is ``Z Z^T`` with ``Z = C_P L^{-T}``, which ``factor`` builds
    (n x ``rank_w``) on first read.  The norm of ``A - Z Z^T`` lies in
    ``[spectral_error, spectral_error + error_residual]`` (see
    :func:`matcore.lowrank_residual_norm`).

    ``psd_violation`` is the most negative eigenvalue of ``Z Z^T``, 0.0
    when there is none.  It is read on first access from the ``rank_w x
    rank_w`` matrix ``Z^T Z``, which has the same nonzero spectrum.
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

    Column Nystrom on a sample S is a partial Cholesky of A with its pivots
    restricted to S (Chen, Epperly, Tropp and Webber, "Randomly pivoted
    Cholesky", arXiv:2207.06503).  W is gathered from A at the sample
    sorted by index, bit for bit.  W is factored by a pivoted partial
    Cholesky that stops once every remaining Schur diagonal is ``<= l * eps
    * max_i w_ii``; its pivots P (``rank_w`` of them) give the extension
    ``C_P W_PP^{-1} C_P^T``.  Pivot ties go to the lowest index, so the
    result does not depend on the order of the sample.

    The non-pivot Schur remainder R bounds W from below, ``lambda_min(W) >=
    min(lambda_min(R), 0)``, so a Cholesky of R shifted by the PSD clamp
    window ``PSD_CLAMP_REL * max_i w_ii`` certifies W, as
    :func:`matcore.check_psd` does for A.  It runs in place on the fresh
    array R, which is symmetric bit for bit (``f.T @ f`` is one SYRK).  When it fails the eigenvalues of
    W decide: one below the clamp window certifies that A itself is not PSD
    (W is a principal submatrix) and raises :class:`NotPSDError` naming it.

    The error is the scaled Lanczos estimate started from
    :func:`sampling.lanczos_start`, so it depends only on A and the sample
    set; one that is not finite raises :class:`FloatingPointError`.  It
    applies ``C z`` as ``A (S z)``, so a trial holds W and the Lanczos
    basis, ``O(l^2 + n)`` floats besides A, and no n x l or n x ``rank_w``
    array.  A sample over another n raises ValueError.
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
    """Spectral error of the extension via the square-root projection route.

    Returns ``||(I - P) A^(1/2)||_2 ** 2`` where P projects onto the column
    space of ``A^(1/2) S``.  Agrees with ``nystrom_extend(...).spectral_error``
    for every PSD A and every sample, which makes it an independent check
    of the extension path.  A is read as ``a.block(ar, ar)``, ``ar =
    np.arange(n)``.  ``A^(1/2)`` comes from the eigenpairs of A in
    descending order (a stable sort of ``np.linalg.eigh``), with round-off
    negatives inside the clamp window set to zero (NotPSDError below it);
    P keeps the left singular vectors of ``A^(1/2) S`` above the rank
    cutoff ``max(shape) * eps * sigma_1``.  The norm comes from ``R R^T``,
    R scaled by the power of two that puts ``max |r_ij|`` in ``[0.5, 1)``.
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
