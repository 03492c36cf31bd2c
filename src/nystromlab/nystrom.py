"""The column-sampled Nystrom extension of a PSD matrix.

Given a PSD matrix A and a sample S of its columns, the extension is
``A_tilde = C W^+ C^T`` with ``C = A S`` and ``W = S^T A S``.  Because
``W^+`` is PSD whenever W is, the extension is PSD by construction, and it
reproduces A exactly whenever ``rank(W) == rank(A)`` (in particular when
the sample spans the range of A).

The spectral error of the extension admits a second, independent route:
``||A - A_tilde||_2`` equals the squared spectral norm of
``(I - P) A^(1/2)`` where P is the orthogonal projector onto the column
space of ``A^(1/2) S``.  :func:`sqrt_projection_error` computes that route
so the two can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    EPS,
    SymMatrix,
    clamp_psd_eigenvalues,
    projector,
    psd_sqrt,
    spectral_norm,
    sym_eig,
)
from .sampling import ColumnSample, extract_cw


@dataclass(frozen=True)
class NystromResult:
    """One extension: the sample, the PSD extension, and its diagnostics.

    ``spectral_error`` is ``||A - extension||_2``; ``rank_w`` is the
    numerical rank of the sampled block W under the standard cutoff;
    ``psd_violation`` is the most negative eigenvalue of the extension
    (0.0 when there is none), kept as a diagnostic for the PSD-preservation
    guarantee.
    """

    sample: ColumnSample
    extension: SymMatrix
    spectral_error: float
    rank_w: int
    psd_violation: float


def nystrom_extend(a: SymMatrix, sample: ColumnSample) -> NystromResult:
    """Extend the sampled columns of a PSD matrix to a full PSD matrix.

    W is pseudoinverted through its eigendecomposition: round-off
    negatives inside the PSD clamp window are zeroed, then eigenvalues
    ``<= l * eps * lambda_max`` are dropped as numerical zeros and the
    rest inverted.  A W eigenvalue below the clamp window certifies that
    A itself is not PSD (W is a principal submatrix), which raises
    :class:`NotPSDError`.  A spectral error that overflows to a non-finite
    value raises :class:`FloatingPointError` rather than being reported.

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
    ext = SymMatrix(z @ z.T)
    err = spectral_norm(a.entries - ext.entries)
    if not np.isfinite(err):
        raise FloatingPointError(f"spectral error overflowed to {err!r}")
    ext_min = float(np.linalg.eigvalsh(ext.entries)[0])
    return NystromResult(
        sample=sample,
        extension=ext,
        spectral_error=err,
        rank_w=rank_w,
        psd_violation=min(ext_min, 0.0),
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
