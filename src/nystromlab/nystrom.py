"""The column-sampled Nystrom extension of a PSD matrix.

Given a PSD matrix A and a sample S of its columns, the extension is
``A_tilde = C W^+ C^T`` with ``C = A S`` and ``W = S^T A S``.  Because
``W^+`` is PSD whenever W is, the extension is PSD by construction, and it
reproduces A exactly whenever ``rank(W) == rank(A)`` (in particular when
the sample spans the range of A).

The extension is kept in factored form, ``A_tilde = Z Z^T`` with Z of
size n x rank(W), and its spectral error ``||A - Z Z^T||_2`` is computed
matrix-free by Lanczos (:func:`matcore.lowrank_residual_norm`), so no
``n x n`` matrix is formed.  The PSD diagnostic reads the small
``rank(W) x rank(W)`` Gram matrix ``Z^T Z``, and only when a caller asks
for it.

The spectral error of the extension admits a second, independent route:
``||A - A_tilde||_2`` equals the squared spectral norm of
``(I - P) A^(1/2)`` where P is the orthogonal projector onto the column
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
    SymMatrix,
    clamp_psd_eigenvalues,
    lowrank_residual_norm,
    projector,
    psd_sqrt,
    spectral_norm,
    sym_eig,
)
from .sampling import ColumnSample, extract_cw, lanczos_start


@dataclass(frozen=True, eq=False)
class NystromResult:
    """One extension in factored form, with its error and diagnostics.

    ``factor`` is Z (n x ``rank_w``), with the extension ``Z Z^T``.
    ``spectral_error`` is the Lanczos estimate of ``||A - Z Z^T||_2`` and
    ``error_residual`` its Ritz residual, so the norm lies in
    ``[spectral_error, spectral_error + error_residual]`` (see
    :func:`matcore.lowrank_residual_norm`).  ``rank_w`` is the numerical
    rank of the sampled block W under the standard cutoff.

    ``psd_violation`` is the most negative eigenvalue of ``Z Z^T``, 0.0
    when there is none, a diagnostic for the PSD-preservation guarantee.
    The nonzero spectrum of ``Z Z^T`` is that of ``Z^T Z`` and the other
    ``n - rank_w`` eigenvalues are exactly 0, so it is read from the
    ``rank_w x rank_w`` matrix ``Z^T Z``; it is computed on first access
    and cached.
    """

    sample: ColumnSample
    factor: np.ndarray
    spectral_error: float
    error_residual: float
    rank_w: int

    @cached_property
    def psd_violation(self) -> float:
        if self.rank_w == 0:
            return 0.0
        return min(float(np.linalg.eigvalsh(self.factor.T @ self.factor)[0]), 0.0)


def nystrom_extend(a: SymMatrix, sample: ColumnSample) -> NystromResult:
    """Extend the sampled columns of a PSD matrix to a full PSD matrix.

    W is pseudoinverted through its eigendecomposition: round-off
    negatives inside the PSD clamp window are zeroed, then eigenvalues
    ``<= l * eps * lambda_max`` are dropped as numerical zeros and the
    rest inverted.  A W eigenvalue below the clamp window certifies that
    A itself is not PSD (W is a principal submatrix), which raises
    :class:`NotPSDError`.  The error is the scaled Lanczos estimate started
    from :func:`sampling.lanczos_start`, so it depends only on A and the
    sample; one that is not finite raises :class:`FloatingPointError`
    rather than being reported.

    Parameters
    ----------
    a : SymMatrix
        The matrix to approximate; PSD within the clamp tolerance.
    sample : ColumnSample
        Which columns were observed.
    """
    c, w = extract_cw(a, sample)
    ed = sym_eig(w)
    vals = clamp_psd_eigenvalues(ed.eigenvalues)  # NotPSDError below the window
    lam_max = float(vals[0]) if vals.size else 0.0
    keep = vals > sample.l * EPS * lam_max
    rank_w = int(np.count_nonzero(keep))
    # Gram form of C W^+ C^T: with Z = C V diag(lambda^(-1/2)) over the kept
    # eigenpairs, the extension is Z Z^T - PSD by construction and free of
    # the round-off amplification a direct product with W^+ would pick up
    # from W's smallest kept eigenvalues.
    z = c @ (ed.eigenvectors[:, keep] / np.sqrt(vals[keep]))
    err, resid = lowrank_residual_norm(a, z, lanczos_start(a.n))
    if not (math.isfinite(err) and math.isfinite(resid)):
        raise FloatingPointError(f"spectral error overflowed to {err!r}")
    return NystromResult(
        sample=sample,
        factor=z,
        spectral_error=err,
        error_residual=resid,
        rank_w=rank_w,
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
