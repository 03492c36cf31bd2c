"""Shared construction helpers and reference oracles for the test suite.

Everything is seeded through numpy's default_rng so the suite is
deterministic end to end; the package's own Philox streams are only used
where a test targets them specifically.  The oracles (``sym_eig``,
``sym_eigvals``, ``spectral_norm``, ``pinv``, ``selection_matrix``,
``extract_cw``, ``omega_matrices``, ``dense_extension``,
``save_matrix_rowwise``, ``sample_uniform_loop``, ``eigh_factor``,
``lanczos_growing``, ``mp_nystrom_error``) spell out the textbook
definitions that the package evaluates in shortcut form;
``davis_kahan_distance`` and ``davis_kahan_bound`` measure the
dominant-subspace perturbation that the acceptance suite checks.
"""

import math

import numpy as np

from nystromlab import (
    ColumnSample,
    NystromResult,
    RngSeed,
    SymMatrix,
    rng_from,
)
from nystromlab.analysis import _check_orthonormal
from nystromlab.matcore import EPS, LANCZOS_REL_TOL, _scale_exponent, clamp_psd_eigenvalues


def gram_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> SymMatrix:
    """Well-conditioned random PSD matrix with entries of order `scale`."""
    g = rng.standard_normal((n, n + 2))
    return SymMatrix(scale * (g @ g.T) / n)


def haar(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x k orthonormal basis (QR with sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    return q * sign


def planted_psd(
    n: int, eigs, rng: np.random.Generator
) -> tuple[SymMatrix, np.ndarray, np.ndarray]:
    """PSD matrix with a prescribed spectrum and Haar eigenbasis.

    Returns (A, U, eigs) with eigs sorted non-increasing.
    """
    lam = np.sort(np.asarray(eigs, dtype=np.float64))[::-1]
    if np.any(lam < 0):
        raise ValueError("helper expects a non-negative spectrum")
    u = haar(n, n, rng)
    return SymMatrix((u * lam) @ u.T), u, lam


def mixed_spectrum_cases(rng: np.random.Generator, n: int):
    """One matrix from each spectrum family used by the acceptance suite.

    Yields (label, SymMatrix): well-conditioned Gram, planted low rank,
    exponential decay, near-singular tail, and small/large scalings.
    """
    yield "gram", gram_psd(n, rng)
    r = int(rng.integers(1, max(2, n // 2)))
    lam = np.zeros(n)
    lam[:r] = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
    yield f"rank-{r}", planted_psd(n, lam, rng)[0]
    lam = 1.5 * np.power(0.5, np.arange(n, dtype=float))
    yield "exp-decay", planted_psd(n, lam, rng)[0]
    lam = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
    lam[-max(1, n // 4):] = 1e-12
    yield "near-singular", planted_psd(n, lam, rng)[0]
    yield "tiny-scale", gram_psd(n, rng, scale=1e-6)
    yield "large-scale", gram_psd(n, rng, scale=1e3)


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


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the relative cutoff max(shape) * eps.

    Singular values ``<= max(shape) * eps * sigma_max`` are treated as zero.
    """
    a = np.asarray(a, dtype=np.float64)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > max(a.shape) * np.finfo(np.float64).eps * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def selection_matrix(sample: ColumnSample) -> np.ndarray:
    """The n x l 0/1 matrix S whose j-th column is e_{indices[j]}."""
    s = np.zeros((sample.n, sample.l))
    s[list(sample.indices), np.arange(sample.l)] = 1.0
    return s


def omega_matrices(
    u: np.ndarray, k: int, sample: ColumnSample
) -> tuple[np.ndarray, np.ndarray]:
    """Omega_1 = U_1^T S and Omega_2 = U_2^T S as row gathers (k x l, (n-k) x l),
    for the full n x n eigenbasis ``u = [U_1, U_2]`` split at k."""
    idx = list(sample.indices)
    return u[idx, :k].T.copy(), u[idx, k:].T.copy()


def dense_extension(res: NystromResult) -> SymMatrix:
    """The extension ``C W^+ C^T`` as a dense matrix, ``Z Z^T`` from its factor."""
    return SymMatrix(res.factor @ res.factor.T)


def save_matrix_rowwise(a: SymMatrix, path) -> None:
    """The matrix file format written entry by entry: ``repr`` of every entry."""
    with open(path, "w") as fh:
        fh.write(f"{a.n}\n")
        for row in a.entries:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


class GapViolatedError(ValueError):
    """The eigenvalue gap needed by the subspace bound is not positive."""

    def __init__(self, gap: float):
        self.gap = float(gap)
        super().__init__(f"eigenvalue gap must be positive, got {gap!r}")


def davis_kahan_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Spectral distance between two subspaces: ``||P_U - P_V||_2``.

    Both arguments are orthonormal bases (n x k).  The value equals the
    sine of the largest principal angle, so it lies in [0, 1]; it is 0
    exactly for equal spans and 1 when some direction of one span is
    orthogonal to all of the other.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    _check_orthonormal(u, "first basis")
    _check_orthonormal(v, "second basis")
    if u.shape != v.shape:
        raise ValueError(f"basis shapes differ: {u.shape} vs {v.shape}")
    return spectral_norm(u @ u.T - v @ v.T)


def davis_kahan_bound(a: SymMatrix, a_tilde: SymMatrix, k: int) -> float:
    """Perturbation bound on the dominant-subspace distance.

    ``||A - A_tilde||_2 / (lambda_k(A) - lambda_{k+1}(A_tilde))``, valid
    when the gap in the denominator is positive; it dominates
    ``davis_kahan_distance`` between the two dominant-k eigenspaces.
    Raises GapViolatedError when ``lambda_k(A) <= lambda_{k+1}(A_tilde)``.
    """
    if a.n != a_tilde.n:
        raise ValueError(f"matrix sizes differ: {a.n} vs {a_tilde.n}")
    if not 1 <= k <= a.n - 1:
        raise ValueError(f"k={k} out of range [1, {a.n - 1}]")
    gap = float(sym_eigvals(a)[k - 1] - sym_eigvals(a_tilde)[k])
    if gap <= 0.0:
        raise GapViolatedError(gap)
    return spectral_norm(a.entries - a_tilde.entries) / gap


def sample_uniform_loop(n: int, l: int, seed: RngSeed) -> tuple[int, ...]:
    """The indices of ``sample_uniform``, one scalar ``integers`` call per swap."""
    rng = rng_from(seed)
    pool = np.arange(n)
    for i in range(l):
        j = int(rng.integers(i, n))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(int(x) for x in pool[:l])


def extract_cw(a: SymMatrix, sample: ColumnSample) -> tuple[np.ndarray, SymMatrix]:
    """C = A S and W = S^T A S as index gathers, in the order of the sample;
    C is the transpose of the sampled rows, as ``nystrom_extend`` takes it."""
    rows = a.entries.take(sample.indices, axis=0)
    return rows.T, SymMatrix(rows.take(sample.indices, axis=1))


def eigh_factor(a: SymMatrix, sample: ColumnSample) -> np.ndarray:
    """Z of the extension through the eigendecomposition of W.

    Round-off negatives inside the PSD clamp window are zeroed, eigenvalues
    ``<= l * eps * lambda_max`` are dropped and ``Z = C V Lambda^(-1/2)``
    over the rest, so ``Z Z^T = C W^+ C^T`` at that cutoff.
    """
    c, w = extract_cw(a, sample)
    vals, vecs = sym_eig(w)
    vals = clamp_psd_eigenvalues(vals)
    lam_max = float(vals[0]) if vals.size else 0.0
    keep = vals > sample.l * EPS * lam_max
    return c @ (vecs[:, keep] / np.sqrt(vals[keep]))


def lanczos_growing(a: SymMatrix, start, c=None, index=None, m=None) -> tuple[float, float]:
    """``matcore.lowrank_residual_norm`` with the basis grown by ``np.vstack``
    and T rebuilt from its diagonals by ``np.diag`` at every step."""
    n = a.n
    e = _scale_exponent(float(np.max(np.diagonal(a.entries))))
    basis = start.reshape(1, n)
    alphas: list[float] = []
    betas: list[float] = []
    while True:
        y = a.entries @ basis[-1]
        if c is not None:
            y -= c @ (m.T @ (m @ y[index]))
        w = np.ldexp(y, -e)
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        alphas.append(float(h[-1] + h2[-1]))
        beta = float(np.linalg.norm(w))
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(t)
        i = int(np.argmax(np.abs(vals)))
        theta = abs(float(vals[i]))
        r = beta * abs(float(vecs[-1, i]))
        if (r <= LANCZOS_REL_TOL * theta or r <= n * EPS or beta == 0.0
                or len(alphas) == n):
            return math.ldexp(theta, e), math.ldexp(r, e)
        betas.append(beta)
        basis = np.vstack([basis, w / beta])


def mp_nystrom_error(a: SymMatrix, sample: ColumnSample, dps: int = 50) -> float:
    """``||A - C W^{-1} C^T||_2`` in ``dps``-digit arithmetic, for invertible W.

    The float64 entries convert exactly; W^{-1} comes from an LU
    factorization and the norm from the eigenvalues of the symmetrized
    residual.
    """
    import mpmath  # the test extra lists it: a missing oracle fails, not skips
    idx = list(sample.indices)
    rows = a.entries.tolist()
    with mpmath.workdps(dps):
        am = mpmath.matrix(rows)
        c = mpmath.matrix([[row[j] for j in idx] for row in rows])
        w = mpmath.matrix([[rows[i][j] for j in idx] for i in idx])
        r = am - c * mpmath.inverse(w) * c.T
        vals = mpmath.eigsy((r + r.T) / 2, eigvals_only=True)
        return float(max(abs(v) for v in vals))
