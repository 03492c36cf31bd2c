"""Synthetic PSD instances with planted spectrum and planted coherence.

An instance is ``A = U diag(lambdas) U^T`` for a constructed orthogonal U,
so its dominant subspace, coherence and eigenvalues are known exactly and
the bounds are checked without estimating anything.  README "trials"
describes the spectra, the coherence plans and how each instance is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _check_orthonormal, coherence
from .matcore import EPS, SpectralPartition, SymMatrix, check_integer, check_real
from .sampling import RngSeed, rng_from

_SPECTRUM_KINDS = ("exact-rank-k", "exp-decay", "power-law", "custom")
_PLAN_TARGETS = ("flat", "low", "spiked")

# Column panel of the block Gram-Schmidt Haar basis in _haar.
HAAR_BLOCK = 128


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for a non-increasing, non-negative eigenvalue profile.

    kind:
      * ``exact-rank-k``: linear descent ``lambda1 * (k - j + 1) / k`` over
        the top k, exactly zero after - rank k with no ties.
      * ``exp-decay``: ``lambda1 * rate ** (j - 1)``, full rank.
      * ``power-law``: ``lambda1 * j ** (-exponent)``, full rank.
      * ``custom``: n explicit values, non-negative and non-increasing.

    Each field is checked on construction, by the rule of README "Library
    quick start": ``lambda1`` finite and > 0 (``custom`` ignores it),
    ``rate`` in ``(0, 1]``, ``exponent > 0`` and each value finite.  Only
    ``exact-rank-k`` can overflow (``lambda1 * k`` is formed first);
    :meth:`eigenvalues` then raises FloatingPointError naming lambda1.
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
        check_integer("n", self.n)
        check_integer("k", self.k, 1, self.n, "n")
        if self.kind != "custom":
            check_real("lambda1", self.lambda1, 0.0)
        if self.kind == "exp-decay":
            check_real("rate", self.rate, 0.0, 1.0, "(]")
        if self.kind == "power-law":
            check_real("exponent", self.exponent, 0.0, math.inf, "(]")
        if self.kind == "custom":
            if self.values is None or len(self.values) != self.n:
                got = None if self.values is None else len(self.values)
                raise ValueError(f"custom spectrum needs exactly n={self.n} values, got {got}")
            for i, v in enumerate(self.values):
                check_real(f"values[{i}]", v)
            self.eigenvalues()  # a negative or increasing profile raises here

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
        check_integer("m", self.m)


def check_plan(plan: CoherencePlan, n: int, k: int) -> None:
    """Raise ValueError where plan cannot be planted at dimension n and
    rank k: flat needs a power-of-two n, spiked:M needs M <= k and M < n."""
    if plan.target == "flat" and (n < 1 or n & (n - 1)):
        raise ValueError(f"flat basis needs n to be a power of two, got {n}")
    if plan.target == "spiked" and plan.m > k:
        raise ValueError(f"spiked plan m={plan.m} exceeds k={k}")
    if plan.target == "spiked" and plan.m >= n:
        raise ValueError(f"spiked plan m={plan.m} must be < n={n}")


def _haar(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Haar n x k orthonormal basis drawn from the next n*k normals of rng:
    Q of ``G = Q R`` for the Gaussian G, with R's diagonal made positive.

    Up to ``HAAR_BLOCK`` columns this is one Householder QR.  Wider, G is
    orthonormalised in place, panel by panel, by block Gram-Schmidt run
    twice (BCGS2): a sign-folded Householder R, then a Cholesky QR.  Each
    panel's R is then a product of two upper triangles with positive
    diagonals, so Q is the same factor up to ``O(eps)``, and it holds G plus
    a few n x ``HAAR_BLOCK`` arrays, where one QR of G holds about four copies.
    """
    g = rng.standard_normal((n, k))
    if k <= HAAR_BLOCK:
        q, r = np.linalg.qr(g)
        q *= _positive_signs(r)
        return q
    for j in range(0, k, HAAR_BLOCK):
        panel, done = g[:, j:j + HAAR_BLOCK], g[:, :j]
        panel -= done @ (done.T @ panel)
        r = np.linalg.qr(panel, mode="r")
        r *= _positive_signs(r)[:, None]
        panel[...] = np.linalg.solve(r.T, panel.T).T  # P R^{-1}
        panel -= done @ (done.T @ panel)
        factor = np.linalg.cholesky(panel.T @ panel)
        panel[...] = np.linalg.solve(factor, panel.T).T
    return g


def _positive_signs(r: np.ndarray) -> np.ndarray:
    """The signs of r's diagonal, with +1 for a zero."""
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    return sign


def random_orthonormal(n: int, k: int, seed: RngSeed) -> np.ndarray:
    """Haar-distributed n x k orthonormal basis on the stream of ``seed``."""
    check_integer("n", n)
    check_integer("k", k, 1, n, "n")
    return _haar(rng_from(seed), n, k)


def flat_orthonormal(n: int, k: int) -> np.ndarray:
    """First k columns of the normalized Sylvester-Hadamard matrix.

    Every entry is +-1/sqrt(n), so all row norms agree and the coherence of
    the span is exactly 1 for any k.  Deterministic; n must be a power of
    two.
    """
    check_integer("n", n)
    check_integer("k", k, 1, n, "n")
    check_plan(CoherencePlan("flat"), n, k)
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


def _assemble(u: np.ndarray, lambdas: np.ndarray) -> SymMatrix:
    """``U diag(lambdas) U^T`` for the n x n float64 orthogonal u, which it
    overwrites with ``H = U diag(sqrt(lambdas))``.

    Raises ValueError unless u is square and orthonormal (the check of
    :func:`~nystromlab.analysis.coherence`) and lambdas non-negative and
    non-increasing; nothing is clamped.  A is ``H H^T``, which numpy runs as
    one SYRK, so it is exactly symmetric, and it is handed to
    :class:`SymMatrix` read-only, uncopied.  U, the Gram matrix of its
    check, then H and A are live: at most two n x n arrays at a time."""
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
    u *= np.sqrt(lam)
    a = u @ u.T
    a.flags.writeable = False
    return SymMatrix(a)


def _walsh(v: np.ndarray) -> np.ndarray:
    """Overwrite the length-n v with ``H v``, H the n x n Sylvester-Hadamard
    matrix, and return it: one in-place fast Walsh-Hadamard transform,
    ``log2 n`` butterfly passes of sums and differences."""
    n, h = v.size, 1
    while h < n:
        pairs = v.reshape(-1, 2, h)
        top = pairs[:, 0] + pairs[:, 1]
        np.subtract(pairs[:, 0], pairs[:, 1], out=pairs[:, 1])
        pairs[:, 0] = top
        h *= 2
    return v


class FlatMatrix:
    """The flat instance ``A = H diag(lam) H / n``, kept without its n x n
    entries.

    ``H[i, m] H[j, m] = H[i XOR j, m]`` for ``H[i, j] = (-1)^popcount(i &
    j)``, so ``A[i, j] = f[i XOR j]`` with ``f = H (lam / n)``, one
    :func:`_walsh` whose partial sums are at most ``sum(lam) / n``.
    ``block(rows, cols)`` gathers from f, so ``A[i, j] = A[j, i]`` bit for
    bit.  ``A @ x`` is ``H ((lam / n) * (H x))``, two Walsh-Hadamard
    transforms, and ``max_diagonal()`` is ``f[0]``.

    A transform splits each index as ``i = i_a b + i_b``, ``n = a b`` with
    ``a <= b`` powers of two, so ``H_n = H_a (x) H_b`` and ``H x`` is
    ``H_a X H_b`` for X the a x b reshape of x: two matrix products with
    +-1 entries, O(n (a + b)) work.  Each output sums a terms, then b, so
    (u = EPS / 2, first order) ``|fl(H x) - H x| <= (a + b) u ||x||_1``.
    Hence ``A @ x`` lies within ``(2 (a + b) + 1) u s ||x||_1`` of the
    exact ``H diag(lam / n) H x``, with ``s = sum(lam) / n = A[0, 0]``;
    every partial sum is at most ``n s max|x|``, as in a dense product.

    Memory is ``O(n)``; a dense copy is ``SymMatrix(a.block(ar, ar))``,
    ``ar = np.arange(n)``.  Construction raises ValueError unless n is a
    power of two and lam finite and non-negative, and FloatingPointError
    unless f passes :func:`_certify_spectrum`.
    """

    def __init__(self, lam: np.ndarray):
        n = lam.size
        check_plan(CoherencePlan("flat"), n, 1)
        if not np.all(np.isfinite(lam) & (lam >= 0.0)):
            raise ValueError("lambdas must be finite and non-negative")
        b = 1 << n.bit_length() // 2  # 2^ceil(log2(n) / 2)
        self.n = n
        self.f = _walsh(lam / n)
        self.f.flags.writeable = False
        self._g = lam / n
        self._hb = np.sign(flat_orthonormal(b, b))  # H_b, exactly +-1
        self._ha = self._hb[:n // b, :n // b].copy()  # H_a leads H_b (Sylvester)
        _certify_spectrum(self, lam)

    def hadamard(self, x: np.ndarray) -> np.ndarray:
        """``H x`` for a length-n x, as ``H_a X H_b``."""
        x = x.reshape(len(self._ha), len(self._hb))
        return (self._ha @ x @ self._hb).reshape(self.n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.hadamard(self._g * self.hadamard(x))

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.f[rows[:, None] ^ cols]

    def max_diagonal(self) -> float:
        return float(self.f[0])


def _certify_spectrum(a: FlatMatrix, lam: np.ndarray) -> None:
    """Raise FloatingPointError unless ``H f = lam`` within rounding.

    f is ``a.f`` and ``H f`` is ``a.hadamard(f)``, the transform that
    ``A @ x`` applies, so the rows of A are checked against the spectrum
    that its products apply, in every eigenvalue.  Cost: ``O(n (a + b))``.

    Tolerance (u = EPS / 2 the unit roundoff, ``L = log2 n``, ``s =
    sum(lam) / n``, ``n = a b`` as in :class:`FlatMatrix`).  ``H H = n
    I``, so the exact ``f* = H (lam / n)`` has ``H f* = lam``.  The
    butterfly sums each ``f_i`` in a tree of depth L, so ``d = f - f*``
    has ``|d_i| <= L u s`` and ``|H d|_inf <= ||d||_1 <= L u n s``.  The
    transform adds at most ``(a + b) u ||f||_1 <= (a + b) u n s`` per
    entry.  The sum, ``(a + b + L) u n s``, is allowed more than twice
    over, ``(a + b + L + 1) EPS n s``, which covers the second-order
    terms.  A subnormal ``lam / n`` or butterfly result adds at most
    ``2^-1075`` per rounding, ``(L + 1) n 2^-1075`` after the transform.
    Both sides are scaled by the power of two that puts s in ``[0.5,
    1)``, so ``H f`` cannot overflow and the check holds at any scale;
    scaling a subnormal down adds ``2^-1075`` per entry of f, ``n
    2^-1075`` in all.  A non-finite f fails the check.
    """
    n = a.n
    s = float(np.sum(lam / n))
    e = math.frexp(s)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite f fails below
        hf = a.hadamard(np.ldexp(a.f, -e))
        resid = float(np.max(np.abs(hf - np.ldexp(lam, -e))))
    steps = n.bit_length() - 1
    tol = ((len(a._ha) + len(a._hb) + steps + 1) * EPS * n * math.ldexp(s, -e)
           + n * ((steps + 1) * math.ldexp(math.ulp(0.0), -e) + math.ulp(0.0)))
    if not (math.isfinite(resid) and resid <= tol):
        raise FloatingPointError(
            f"planted flat instance fails its certificate at lambda1={float(lam[0])!r}: "
            f"max |H f - lambda| = {math.ldexp(resid, e):.3e} exceeds "
            f"{math.ldexp(tol, e):.3e}"
        )


def _planted_basis(n: int, plan: CoherencePlan, k: int, seed: RngSeed) -> np.ndarray:
    """Full n x n orthogonal matrix realizing the low or spiked plan for U_1."""
    if plan.target == "low":
        return random_orthonormal(n, n, seed)
    # spiked(m): m distinct coordinate axes first, Haar in the complement.
    check_plan(plan, n, k)
    m = plan.m
    rng = rng_from(seed)
    spikes = [int(x) for x in rng.permutation(n)[:m]]
    spiked = set(spikes)
    rest = [i for i in range(n) if i not in spiked]
    haar = _haar(rng, n - m, n - m)  # before u exists: its work arrays never meet u
    u = np.zeros((n, n))
    u[spikes, np.arange(m)] = 1.0
    u[np.ix_(rest, np.arange(m, n))] = haar
    return u


def plan_basis(n: int, plan: CoherencePlan, k: int, seed: RngSeed) -> np.ndarray:
    """The n x k basis the Chernoff sweep draws for plan: for low an n x k
    Haar draw, not the first k columns of the planted n x n basis."""
    if plan.target == "flat":
        return flat_orthonormal(n, k)
    if plan.target == "low":
        return random_orthonormal(n, k, seed)
    return _planted_basis(n, plan, k, seed)[:, :k]


def planted_instance(
    spec: SpectrumSpec, plan: CoherencePlan, seed: RngSeed
) -> tuple[SymMatrix | FlatMatrix, SpectralPartition, float]:
    """``(A, partition, tau)`` for the spectrum of spec and the dominant
    basis of plan: the partition holds that basis at spec's k and the whole
    spectrum, and tau is its exact coherence.

    For ``low`` and ``spiked``, A is a :class:`SymMatrix` from
    :func:`_assemble` on the drawn basis; for ``flat``, a :class:`FlatMatrix`.
    A spectrum or instance that overflows raises FloatingPointError naming
    lambda1.
    """
    lam = spec.eigenvalues()
    if plan.target == "flat":
        u1 = flat_orthonormal(spec.n, spec.k)
        a = FlatMatrix(lam)
    else:
        u = _planted_basis(spec.n, plan, spec.k, seed)
        u1 = u[:, :spec.k].copy()
        a = _assemble(u, lam)
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


def plan_label(plan: CoherencePlan) -> str:
    """The CLI string of plan, which :func:`parse_plan` reads back."""
    return f"spiked:{plan.m}" if plan.target == "spiked" else plan.target
