"""Shared construction helpers and reference oracles for the test suite.

Everything is seeded through numpy's default_rng so the suite is
deterministic end to end; the package's own Philox streams are only used
where a test targets them specifically.  The oracles (``sym_eig``,
``sym_eigvals``, ``spectral_norm``, ``pinv``, ``selection_matrix``, ``dense``,
``extract_cw``, ``omega_matrices``, ``dense_extension``,
``save_matrix_rowwise``, ``sample_uniform_loop``, ``eigh_factor``,
``lanczos_growing``, ``pivoted_cholesky_2l``, ``pivoted_cholesky_masked``,
``shifted_cholesky_in_place``, ``mp_nystrom_error``) spell
out the textbook
definitions that the package evaluates in shortcut form;
``davis_kahan_distance`` and ``davis_kahan_bound`` measure the
dominant-subspace perturbation that the acceptance suite checks.
"""

import math
import tracemalloc

import numpy as np

from nystromlab import (
    ColumnSample,
    NystromResult,
    RngSeed,
    SymMatrix,
    rng_from,
)
from nystromlab.analysis import _check_orthonormal
from nystromlab.generators import _assemble
from nystromlab.matcore import EPS, LANCZOS_REL_TOL, _scale_exponent, clamp_psd_eigenvalues


def gram_psd(n: int, rng: np.random.Generator, scale: float = 1.0) -> SymMatrix:
    """Well-conditioned random PSD matrix with entries of order `scale`."""
    g = rng.standard_normal((n, n + 2))
    return SymMatrix(scale * (g @ g.T) / n)


def haar_householder(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x k orthonormal basis: one Householder QR of an n x k
    Gaussian with the signs of R's diagonal folded into Q.  The package's
    ``generators._haar`` runs this formula up to ``HAAR_BLOCK`` columns and
    block Gram-Schmidt beyond, so this is the reference it is held to."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    return q * sign


def psd_from_spectrum(u: np.ndarray, lambdas: np.ndarray) -> SymMatrix:
    """``U diag(lambdas) U^T`` for an n x n orthogonal U, by the package's
    ``generators._assemble`` on a float64 copy of U, so U is left alone
    and the checks and bits are those of a planted ``low`` instance."""
    return _assemble(np.array(u, dtype=np.float64), lambdas)


def planted_psd(
    n: int, eigs, rng: np.random.Generator
) -> tuple[SymMatrix, np.ndarray, np.ndarray]:
    """PSD matrix with a prescribed spectrum and Haar eigenbasis.

    Returns (A, U, eigs) with eigs sorted non-increasing.
    """
    lam = np.sort(np.asarray(eigs, dtype=np.float64))[::-1]
    if np.any(lam < 0):
        raise ValueError("helper expects a non-negative spectrum")
    u = haar_householder(n, n, rng)
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


def dense(a) -> SymMatrix:
    """A dense copy of A read through ``block``; for a FlatMatrix, which
    has no dense view, its n x n entries ``f[i XOR j]``."""
    ar = np.arange(a.n)
    return SymMatrix(a.block(ar, ar))


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


def lanczos_growing(a: SymMatrix, start, index=None, m=None) -> tuple[float, float]:
    """``matcore.lowrank_residual_norm`` with the basis grown by ``np.vstack``
    and T rebuilt from its diagonals by ``np.diag`` at every step; ``C z``
    is ``A (S z)``, as there."""
    n = a.n
    e = _scale_exponent(float(np.max(np.diagonal(a.entries))))
    basis = start.reshape(1, n)
    alphas: list[float] = []
    betas: list[float] = []
    while True:
        y = a.entries @ basis[-1]
        if m is not None:
            x = np.zeros(n)
            x[index] = m.T @ (m @ y[index])
            y -= a.entries @ x
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


def pivoted_cholesky_2l(w: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """``nystrom._pivoted_cholesky`` with its factor and inverse side by side.

    Row j of the r x 2l array g is ``[f_j, m_j]``: ``f_j`` is column j of
    L over all l positions (its entries at earlier pivots are not zeroed
    and never read) and ``m_j`` is row j of ``L_P^{-1}``.  Each step
    eliminates ``[w[p], e_p]`` against the rows so far with one ``j x 2l``
    product.  w is left as it is.
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


def pivoted_cholesky_masked(w: np.ndarray, tol: float
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``nystrom._pivoted_cholesky`` as it was with masked updates, frozen.

    Same contract and arithmetic; the subtractions and the square run only
    at the free positions (``where=free``), the pivot column is zeroed in
    the rows above j only, and the row permutation is kept in arrays.

    w is l x l', W in its first l columns and zeros after them
    (:func:`_gather_w`).  Each step pivots on the largest remaining Schur
    diagonal, the lowest position on a tie, until it is ``<= tol``.
    Returns ``(h, pivots, rest)``: r x l, the r pivots in order, and W at
    the other positions in index order.  Row j of h is ``f_j``, column j of
    L, at the non-pivots and ``m_j``, row j of ``L_P^{-1}``, at the pivots,
    both from one ``j x l'`` product that eliminates ``[w[p], e_p]``
    against the rows so far.  A column holds ``f`` entries until it
    becomes a pivot, when its earlier entries (that step's coefficients,
    and ``m_i[p] = 0``) are zeroed.  Row j of h overwrites row j of w,
    whose input row moves to the row that pivot p's leaves.  The Schur
    diagonal is updated at the non-pivots only, where ``f_j^2 <= w_cc``
    cannot overflow.
    """
    l = w.shape[0]
    d = w.diagonal().copy()  # Schur diagonal; -inf marks a pivot
    free = np.ones(l, dtype=bool)
    order = np.arange(l)  # row k of w holds input row order[k] for k >= j
    where = np.arange(l)  # and input row i is row where[i] of w
    wp, sq = np.empty(l), np.empty(l)
    j = 0
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
        w[:j, p] = 0.0
        free[p] = False
        row = w[j, :l]
        np.subtract(row, wp, out=row, where=free)
        row[p] = -1.0
        row /= -math.sqrt(dp)  # row = ([w[p], e_p] - h[:j, p] @ h[:j]) / sqrt(dp)
        np.multiply(row, row, out=sq, where=free)
        np.subtract(d, sq, out=d, where=free)
        d[p] = -math.inf
        order[j] = p
        j += 1
    return w[:j, :l], order[:j], w[np.ix_(where[free], free)]


def shifted_cholesky_in_place(m: np.ndarray, shift: float, b: int = 256) -> bool:
    """``matcore.shifted_cholesky_ok`` as the same blocked right-looking
    Cholesky run in place on one full n x n copy of ``m + shift I``."""
    n = m.shape[0]
    s = m.copy()
    diag = np.arange(n)
    s[diag, diag] += shift
    for j in range(0, n, b):
        e = min(j + b, n)
        try:
            factor = np.linalg.cholesky(s[j:e, j:e])
        except np.linalg.LinAlgError:
            return False
        if e < n:
            panel = np.linalg.solve(factor, s[e:, j:e].T).T
        for i in range(e, n, b):
            t = min(i + b, n)
            s[i:t, e:t] -= panel[i - e:t - e] @ panel[:t - e].T
    return True


def traced_peak(f) -> int:
    """The tracemalloc peak of ``f()`` in bytes, above what was allocated
    before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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
