"""Synthetic PSD instances with planted spectrum and planted coherence.

An instance is ``A = U diag(lambdas) U^T`` for an explicitly constructed
orthogonal U, so the dominant subspace, its coherence, and every
eigenvalue are known exactly - which is what lets the Monte-Carlo harness
compare measured errors against the bounds without estimating anything.

The ``low`` and ``spiked`` instances are assembled from their basis by
:func:`psd_from_spectrum` (one SYRK, n^3 work).  The ``flat`` instance
needs no basis product: with the Sylvester-Hadamard basis,
``A[i, j] = f[i XOR j]`` for ``f = H (lambdas / n)``, one fast
Walsh-Hadamard transform, so it is built in O(n^2) and certified by its
dominant block (:func:`planted_instance`).

Coherence plans
---------------
``flat``      columns of the normalized Sylvester-Hadamard matrix; every
              row norm is identical, so the dominant subspace has
              coherence exactly 1 (n must be a power of two).
``low``       Haar-random orthogonal basis; coherence is small but random,
              typically a few multiples of max(k, ln n)/k.
``spiked(m)`` the first m dominant directions are standard basis vectors,
              the rest Haar in their orthogonal complement; the dominant
              subspace then contains a coordinate axis and its coherence
              is exactly n/k, the worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _check_orthonormal, coherence
from .matcore import EPS, SpectralPartition, SymMatrix
from .sampling import RngSeed, rng_from

_SPECTRUM_KINDS = ("exact-rank-k", "exp-decay", "power-law", "custom")
_PLAN_TARGETS = ("flat", "low", "spiked")


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for a non-increasing, non-negative eigenvalue profile.

    kind:
      * ``exact-rank-k``: linear descent ``lambda1 * (k - j + 1) / k`` over
        the top k, exactly zero after - rank k with no ties.
      * ``exp-decay``: ``lambda1 * rate ** (j - 1)``, full rank.
      * ``power-law``: ``lambda1 * j ** (-exponent)``, full rank.
      * ``custom``: explicit values (length n), each finite.

    ``lambda1`` must be finite and > 0.  Only ``exact-rank-k`` can overflow
    (``lambda1 * k`` is formed first); :meth:`eigenvalues` then raises
    FloatingPointError naming lambda1.
    """

    kind: str
    n: int
    k: int
    lambda1: float = 1.0
    rate: float | None = None
    exponent: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _SPECTRUM_KINDS:
            raise ValueError(
                f"unknown spectrum kind {self.kind!r}; expected one of {_SPECTRUM_KINDS}"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must lie in [1, n={self.n}], got {self.k}")
        if self.kind != "custom" and not 0.0 < self.lambda1 < math.inf:
            raise ValueError(f"lambda1 must be finite and > 0, got {self.lambda1!r}")
        if self.kind == "exp-decay":
            if self.rate is None or not 0.0 < self.rate <= 1.0:
                raise ValueError(f"exp-decay needs rate in (0, 1], got {self.rate!r}")
        if self.kind == "power-law":
            if self.exponent is None or not self.exponent > 0.0:
                raise ValueError(
                    f"power-law needs a positive exponent, got {self.exponent!r}"
                )
        if self.kind == "custom":
            if self.values is None or len(self.values) != self.n:
                got = None if self.values is None else len(self.values)
                raise ValueError(f"custom spectrum needs exactly n={self.n} values, got {got}")
            if not all(math.isfinite(v) for v in self.values):
                raise ValueError("custom spectrum values must be finite")

    def eigenvalues(self) -> np.ndarray:
        """Materialize the profile as a length-n non-increasing array."""
        j = np.arange(1, self.n + 1, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow is reported below
            if self.kind == "exact-rank-k":
                vals = np.where(j <= self.k, self.lambda1 * (self.k - j + 1) / self.k, 0.0)
            elif self.kind == "exp-decay":
                vals = self.lambda1 * np.asarray(self.rate) ** (j - 1)
            elif self.kind == "power-law":
                vals = self.lambda1 * j ** (-self.exponent)
            else:
                vals = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError(
                f"the {self.kind} spectrum overflows at lambda1={self.lambda1!r}"
            )
        if np.any(vals < 0.0):
            raise ValueError("spectrum contains a negative eigenvalue")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("spectrum is not non-increasing")
        return vals


@dataclass(frozen=True)
class CoherencePlan:
    """Which orthogonal basis to plant: flat, low (Haar), or spiked(m)."""

    target: str
    m: int = 1

    def __post_init__(self):
        if self.target not in _PLAN_TARGETS:
            raise ValueError(
                f"unknown coherence plan {self.target!r}; expected one of {_PLAN_TARGETS}"
            )
        if self.target == "spiked" and self.m < 1:
            raise ValueError(f"spiked plan needs m >= 1, got {self.m}")


def _haar(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Haar n x k orthonormal basis drawn from the next n*k normals of rng.

    QR of an iid standard normal matrix with the sign of each R diagonal
    folded into the corresponding Q column, which is what makes the
    distribution exactly Haar rather than QR-convention dependent.
    """
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    return q * sign


def random_orthonormal(n: int, k: int, seed: RngSeed) -> np.ndarray:
    """Haar-distributed n x k orthonormal basis on the stream of ``seed``."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return _haar(rng_from(seed), n, k)


def flat_orthonormal(n: int, k: int) -> np.ndarray:
    """First k columns of the normalized Sylvester-Hadamard matrix.

    Every entry is +-1/sqrt(n), so all row norms agree and the coherence of
    the span is exactly 1 for any k.  Deterministic; n must be a power of
    two.
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"flat basis needs n to be a power of two, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    # H_2m = [[H_m, H_m], [H_m, -H_m]], doubled in place from the top-left
    # entry; only the first k columns are kept.  Every entry is
    # +-(1/sqrt(n)), as the division of a +-1 matrix by sqrt(n) rounds.
    h = np.empty((n, k))
    h[0, 0] = 1.0 / np.sqrt(n)
    m = 1
    while m < n:
        c = min(m, k)
        h[m:2 * m, :c] = h[:m, :c]
        if k > m:
            r = min(2 * m, k) - m
            h[:m, m:m + r] = h[:m, :r]
            np.negative(h[:m, :r], out=h[m:2 * m, m:m + r])
        m *= 2
    return h


def psd_from_spectrum(u: np.ndarray, lambdas: np.ndarray) -> SymMatrix:
    """Assemble ``U diag(lambdas) U^T`` from an n x n orthogonal U.

    U is checked by the same test as :func:`~nystromlab.analysis.coherence`
    uses: ``||U^T U - I||_F <= ORTHONORMAL_TOL`` (1e-8), which implies the
    same bound on ``||U^T U - I||_2``.  The eigenvalues must already be
    non-increasing and non-negative; this is a constructor, so nothing is
    clamped here.

    A is formed as ``H H^T`` with ``H = U diag(sqrt(lambdas))``: numpy runs
    a product with its own transpose as one SYRK and mirrors the triangle,
    so A is exactly symmetric, and it is handed over read-only, so
    :class:`SymMatrix` stores it without a copy.
    :func:`planted_instance` uses this for the ``low`` and ``spiked``
    plans; the ``flat`` plan needs no basis product (:func:`_flat_entries`).
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lambdas, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"u must be square orthogonal, got shape {u.shape}")
    n = u.shape[0]
    if lam.shape != (n,):
        raise ValueError(f"lambdas must have shape ({n},), got {lam.shape}")
    _check_orthonormal(u, "u")
    if np.any(lam < 0.0):
        raise ValueError("lambdas must be non-negative")
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("lambdas must be non-increasing")
    h = u * np.sqrt(lam)
    a = h @ h.T
    a.flags.writeable = False
    return SymMatrix(a)


def _flat_entries(lam: np.ndarray) -> np.ndarray:
    """Entries of ``U diag(lam) U^T`` for ``U = flat_orthonormal(n, n)``.

    With ``H[i, j] = (-1)^popcount(i & j)`` (Sylvester order) and
    ``U = H / sqrt(n)``, ``A[i, j] = sum_m H[i, m] H[j, m] lam[m] / n``,
    and ``H[i, m] H[j, m] = H[i XOR j, m]``, so ``A[i, j] = f[i XOR j]``
    with ``f = H (lam / n)``.  ``f`` is one in-place fast Walsh-Hadamard
    transform (``log2 n`` butterfly passes); ``lam / n`` is scaled first,
    so every partial sum is bounded by ``sum(lam) / n <= lam[0]`` and
    cannot overflow.  Row 0 of A is f, and ``A[i + m, j] = A[i, j XOR m]``
    for ``i < m`` (m a power of two), so rows ``m .. 2m-1`` are rows
    ``0 .. m-1`` with their column blocks of width m swapped pairwise.
    ``A[i, j] = A[j, i]`` bit for bit, by construction.  O(n^2) work.
    """
    n = lam.size
    f = lam / n
    h = 1
    while h < n:
        pairs = f.reshape(-1, 2, h)
        top = pairs[:, 0] + pairs[:, 1]
        np.subtract(pairs[:, 0], pairs[:, 1], out=pairs[:, 1])
        pairs[:, 0] = top
        h *= 2
    a = np.empty((n, n))
    a[0] = f
    m = 1
    while m < n:
        src = a[:m].reshape(m, -1, 2, m)
        dst = a[m:2 * m].reshape(m, -1, 2, m)
        dst[:, :, 0] = src[:, :, 1]
        dst[:, :, 1] = src[:, :, 0]
        m *= 2
    return a


def _certify_dominant_block(a: np.ndarray, u1: np.ndarray, lam: np.ndarray) -> None:
    """Raise FloatingPointError unless ``A U_1 = U_1 Sigma_1`` within rounding.

    ``U_1`` is ``flat_orthonormal(n, k)`` and ``Sigma_1 = diag(lam[:k])``,
    as :func:`planted_instance` returns them;
    A is :func:`_flat_entries` of ``lam``.  Cost: ``n^2 k``.

    Tolerance (u = EPS / 2 the unit roundoff, ``L = log2 n``,
    ``s = sum(lam) / n``).  ``U_1 = r H_1`` with ``r = fl(1/sqrt(n))``, and
    the columns of ``H_1`` are exact eigenvectors of the exact A, so the
    exact residual of the computed A is ``dA U_1``.  ``dA[i, j] =
    d[i XOR j]`` for the rounding error d of f, and such a matrix has the
    eigenvalues ``H d``, so ``||dA||_2 <= ||d||_1``.  The transform sums
    each ``f_i`` in a tree of depth L, so ``|d_i| <= L u s`` and
    ``||dA U_1||_F <= ||d||_1 ||U_1||_F <= L u n s sqrt(k)``.  The product
    ``A U_1`` adds at most ``n u sum_j |a_ij| r <= n u n s r`` per entry,
    ``sqrt(k) n u n s`` in norm over its ``n k`` entries, and
    ``U_1 Sigma_1`` adds ``u r lam_m`` per entry, less than ``u n s`` in
    norm.  The sum, ``sqrt(k) (n + L + 1) u n s``, is allowed more than
    twice over, ``sqrt(k) (n + L + 2) EPS n s``, which covers the
    second-order terms.  Subnormal results add at most ``2^-1075`` per
    rounding, ``2 sqrt(k) n^2 2^-1074`` in all.  Both sides are scaled by
    the power of two that puts s in ``[0.5, 1)``, so the check holds at any
    scale; a non-finite A fails it.
    """
    n, k = u1.shape
    s = float(np.sum(lam / n))
    e = math.frexp(s)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite A fails below
        resid = float(np.linalg.norm(np.ldexp(a @ u1 - u1 * lam[:k], -e)))
    tol = math.sqrt(k) * ((n + n.bit_length() + 1) * EPS * n * math.ldexp(s, -e)
                          + 2 * n * n * math.ldexp(math.ulp(0.0), -e))
    if not (math.isfinite(resid) and resid <= tol):
        raise FloatingPointError(
            f"planted flat instance fails its certificate at lambda1={float(lam[0])!r}: "
            f"||A U_1 - U_1 Sigma_1||_F = {math.ldexp(resid, e):.3e} exceeds "
            f"{math.ldexp(tol, e):.3e}"
        )


def _planted_basis(n: int, plan: CoherencePlan, k: int, seed: RngSeed) -> np.ndarray:
    """Full n x n orthogonal matrix realizing the low or spiked plan for U_1."""
    if plan.target == "low":
        return random_orthonormal(n, n, seed)
    # spiked(m): m distinct coordinate axes first, Haar in the complement.
    m = plan.m
    if m > k:
        raise ValueError(f"spiked plan m={m} exceeds k={k}")
    if m >= n:
        raise ValueError(f"spiked plan m={m} must be < n={n}")
    rng = rng_from(seed)
    spikes = [int(x) for x in rng.permutation(n)[:m]]
    spiked = set(spikes)
    rest = [i for i in range(n) if i not in spiked]
    u = np.zeros((n, n))
    u[spikes, np.arange(m)] = 1.0
    u[np.ix_(rest, np.arange(m, n))] = _haar(rng, n - m, n - m)
    return u


def planted_instance(
    spec: SpectrumSpec, plan: CoherencePlan, seed: RngSeed
) -> tuple[SymMatrix, SpectralPartition, float]:
    """Build a PSD instance with known spectrum and known dominant subspace.

    Returns ``(A, partition, tau)`` where the partition holds the planted
    dominant basis at the spec's k and the planted spectrum, and tau is the
    exact coherence of the planted dominant basis.

    ``low`` and ``spiked`` instances come from :func:`psd_from_spectrum`,
    which checks the basis.  The ``flat`` instance is built from the
    spectrum alone by :func:`_flat_entries` (O(n^2)); it multiplies no
    basis, so instead of the n x n Gram check of the basis, its entries
    are certified by ``||A U_1 - U_1 Sigma_1||_F`` against a derived
    rounding bound (:func:`_certify_dominant_block`), and :func:`coherence`
    checks the n x k ``U_1``.  The flat plan builds only ``U_1``, the
    first k columns of ``flat_orthonormal(n, n)``, and its n x n ``A`` is
    the one n x n array it allocates.  A spectrum or instance that
    overflows raises FloatingPointError naming lambda1.
    """
    lam = spec.eigenvalues()
    if plan.target == "flat":
        u1 = flat_orthonormal(spec.n, spec.k)
        entries = _flat_entries(lam)
        _certify_dominant_block(entries, u1, lam)
        entries.flags.writeable = False  # handed over: SymMatrix stores it as is
        a = SymMatrix(entries)
    else:
        u = _planted_basis(spec.n, plan, spec.k, seed)
        a = psd_from_spectrum(u, lam)
        u1 = u[:, :spec.k].copy()
    return a, SpectralPartition(u1, lam), coherence(u1)


def parse_spectrum(text: str, n: int, k: int, lambda1: float = 1.0) -> SpectrumSpec:
    """Parse a CLI spectrum string.

    Grammar: ``exact-rank-k`` | ``exp:RATE`` | ``pow:EXPONENT`` |
    ``custom:v1,v2,...``.
    """
    text = text.strip()
    if text == "exact-rank-k":
        return SpectrumSpec(kind="exact-rank-k", n=n, k=k, lambda1=lambda1)
    if text.startswith("exp:"):
        return SpectrumSpec(
            kind="exp-decay", n=n, k=k, lambda1=lambda1, rate=float(text[4:])
        )
    if text.startswith("pow:"):
        return SpectrumSpec(
            kind="power-law", n=n, k=k, lambda1=lambda1, exponent=float(text[4:])
        )
    if text.startswith("custom:"):
        values = tuple(float(tok) for tok in text[7:].split(",") if tok.strip())
        return SpectrumSpec(kind="custom", n=n, k=k, values=values)
    raise ValueError(
        f"unrecognized spectrum {text!r}; expected 'exact-rank-k', 'exp:RATE', "
        f"'pow:EXPONENT', or 'custom:v1,v2,...'"
    )


def parse_plan(text: str) -> CoherencePlan:
    """Parse a CLI coherence-plan string: ``flat`` | ``low`` | ``spiked:M``."""
    text = text.strip()
    if text in ("flat", "low"):
        return CoherencePlan(target=text)
    if text.startswith("spiked"):
        m = 1
        if ":" in text:
            try:
                m = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"coherence plan {text!r}: M is not an integer") from None
        return CoherencePlan(target="spiked", m=m)
    raise ValueError(
        f"unrecognized coherence plan {text!r}; expected 'flat', 'low', or 'spiked:M'"
    )
