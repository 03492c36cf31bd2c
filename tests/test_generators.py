"""Planted-instance construction: bases, spectra, parsing."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromlab import (
    CoherencePlan,
    RngSeed,
    SpectrumSpec,
    coherence,
    flat_orthonormal,
    generators,
    load_matrix,
    matcore,
    nystrom_extend,
    planted_instance,
    psd_from_spectrum,
    random_orthonormal,
    sample_uniform,
    save_matrix,
    sym_eig,
)
from nystromlab.analysis import ORTHONORMAL_TOL, _orthonormal_deviation
from nystromlab.generators import parse_plan, parse_spectrum
from nystromlab.matcore import EPS

from helpers import davis_kahan_distance, dense_extension

# ---------------------------------------------------------------------------
# bases


def test_random_orthonormal_is_orthonormal():
    rng_seeds = [RngSeed(7, t) for t in range(20)]
    for i, seed in enumerate(rng_seeds):
        n = 5 + i
        k = 1 + i % n
        u = random_orthonormal(n, k, seed)
        assert u.shape == (n, k)
        assert np.allclose(u.T @ u, np.eye(k), atol=1e-10), f"seed stream {i}"


def test_random_orthonormal_single_column_unit_norm():
    u = random_orthonormal(9, 1, RngSeed(3, 0))
    assert np.linalg.norm(u[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_random_orthonormal_deterministic():
    a = random_orthonormal(12, 4, RngSeed(42, 5))
    b = random_orthonormal(12, 4, RngSeed(42, 5))
    assert np.array_equal(a, b)
    c = random_orthonormal(12, 4, RngSeed(42, 6))
    assert not np.array_equal(a, c)


def test_random_orthonormal_coherence_stays_low():
    # Haar bases over 200 fixed streams keep coherence far from the
    # spiked worst case n/k and within a few multiples of (k + 2 ln n)/k
    for t in range(200):
        n = 64 + 32 * (t % 3)
        k = 1 + (t % 4)
        u = random_orthonormal(n, k, RngSeed(101, t))
        mu = coherence(u)
        assert mu <= 0.6 * n / k, f"stream {t}: mu={mu}, n={n}, k={k}"
        assert mu <= 3.0 * (k + 2.0 * math.log(n)) / k, f"stream {t}: mu={mu}"


def test_random_orthonormal_validation():
    with pytest.raises(ValueError):
        random_orthonormal(4, 0, RngSeed(0, 0))
    with pytest.raises(ValueError):
        random_orthonormal(4, 5, RngSeed(0, 0))


def test_flat_orthonormal_coherence_exactly_one():
    for n, k in [(2, 1), (8, 3), (16, 4), (64, 8), (256, 4)]:
        u = flat_orthonormal(n, k)
        assert abs(coherence(u) - 1.0) <= 1e-12, f"n={n}, k={k}"
        assert np.allclose(np.abs(u), 1.0 / math.sqrt(n), atol=1e-15)
        assert np.allclose(u.T @ u, np.eye(k), atol=1e-12)


def _flat_by_blocks(n, k):
    """First k columns of the Sylvester-Hadamard matrix, built by np.block."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h[:, :k] / np.sqrt(n)


@pytest.mark.parametrize("n", [2**e for e in range(12)])
def test_flat_orthonormal_bitwise_equal_to_block_build(n):
    ks = range(1, n + 1) if n <= 64 else sorted(
        {1, 2, 3, 5, n // 4 + 1, n // 2 - 1, n // 2, n // 2 + 1, n - 1, n})
    for k in ks:
        u = flat_orthonormal(n, k)
        ref = _flat_by_blocks(n, k)
        assert u.shape == ref.shape and u.tobytes() == ref.tobytes(), f"n={n}, k={k}"


@pytest.mark.parametrize("n", [2**e for e in range(13)])
def test_flat_basis_passes_the_orthonormality_check(n):
    # planted_instance no longer runs the n x n Gram check on the flat
    # basis; this is that check, for every n up to 4096.  Each Gram entry
    # sums n products +-r^2, r = fl(1/sqrt(n)) within 2u of 1/sqrt(n), so in
    # any summation order, with or without fused multiply-add, it is within
    # (n + 4) u of the identity's, and ||U^T U - I||_F <= n (n + 2) EPS.
    # For n = 4^m, r = 2^-m is exact and so is every sum: the closed form
    # sqrt(n) |n fl(r^2) - 1| is then 0.
    dev = _orthonormal_deviation(flat_orthonormal(n, n))
    assert dev <= n * (n + 2) * EPS <= ORTHONORMAL_TOL
    if n.bit_length() % 2 == 1:
        r = 1.0 / math.sqrt(n)
        assert dev == math.sqrt(n) * abs(n * (r * r) - 1.0) == 0.0


def test_flat_orthonormal_requires_power_of_two():
    for bad in (3, 6, 12, 100):
        with pytest.raises(ValueError):
            flat_orthonormal(bad, 1)


# ---------------------------------------------------------------------------
# spectrum specs


def test_exact_rank_k_profile():
    spec = SpectrumSpec(kind="exact-rank-k", n=6, k=3, lambda1=3.0)
    assert np.array_equal(spec.eigenvalues(), [3.0, 2.0, 1.0, 0.0, 0.0, 0.0])


def test_exp_decay_profile():
    spec = SpectrumSpec(kind="exp-decay", n=4, k=2, lambda1=2.0, rate=0.5)
    assert np.allclose(spec.eigenvalues(), [2.0, 1.0, 0.5, 0.25], rtol=1e-15)


def test_power_law_profile():
    spec = SpectrumSpec(kind="power-law", n=3, k=1, lambda1=1.0, exponent=2.0)
    assert np.allclose(spec.eigenvalues(), [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)


def test_custom_profile():
    spec = SpectrumSpec(kind="custom", n=3, k=1, values=(5.0, 1.0, 0.0))
    assert np.array_equal(spec.eigenvalues(), [5.0, 1.0, 0.0])


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SpectrumSpec(kind="gaussian", n=4, k=2)
    with pytest.raises(ValueError):
        SpectrumSpec(kind="exact-rank-k", n=4, k=5)
    with pytest.raises(ValueError):
        SpectrumSpec(kind="exact-rank-k", n=4, k=2, lambda1=0.0)
    with pytest.raises(ValueError):
        SpectrumSpec(kind="exp-decay", n=4, k=2, rate=1.5)
    with pytest.raises(ValueError):
        SpectrumSpec(kind="exp-decay", n=4, k=2)  # missing rate
    with pytest.raises(ValueError):
        SpectrumSpec(kind="power-law", n=4, k=2, exponent=-1.0)
    with pytest.raises(ValueError):
        SpectrumSpec(kind="custom", n=4, k=2, values=(1.0, 0.5))  # wrong length
    with pytest.raises(ValueError):
        SpectrumSpec(kind="custom", n=2, k=1, values=(1.0, -0.5)).eigenvalues()
    with pytest.raises(ValueError):
        SpectrumSpec(kind="custom", n=2, k=1, values=(0.5, 1.0)).eigenvalues()
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda1"):
            SpectrumSpec(kind="exp-decay", n=4, k=2, rate=0.5, lambda1=bad)
        with pytest.raises(ValueError, match="finite"):
            SpectrumSpec(kind="custom", n=2, k=1, values=(bad, 1.0))


def test_spectrum_overflow_names_lambda1():
    # exact-rank-k forms lambda1 * k first; the other kinds stay below lambda1
    with pytest.raises(FloatingPointError, match="lambda1=1e\\+308"):
        SpectrumSpec(kind="exact-rank-k", n=4, k=2, lambda1=1e308).eigenvalues()
    for spec in (SpectrumSpec(kind="exp-decay", n=4, k=2, lambda1=1e308, rate=0.5),
                 SpectrumSpec(kind="power-law", n=4, k=2, lambda1=1e308, exponent=1.0)):
        assert spec.eigenvalues()[0] == 1e308


# ---------------------------------------------------------------------------
# assembly


def test_psd_from_spectrum_diagonal():
    lam = np.array([4.0, 2.0, 1.0])
    a = psd_from_spectrum(np.eye(3), lam)
    assert np.allclose(a.entries, np.diag(lam), atol=1e-15)


def test_psd_from_spectrum_isotropic():
    u = random_orthonormal(5, 5, RngSeed(11, 0))
    a = psd_from_spectrum(u, np.full(5, 3.0))
    assert np.allclose(a.entries, 3.0 * np.eye(5), atol=1e-12)


def test_psd_from_spectrum_round_trip():
    u = random_orthonormal(8, 8, RngSeed(13, 0))
    lam = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.0])
    a = psd_from_spectrum(u, lam)
    assert np.allclose(sym_eig(a)[0], lam, atol=1e-8 * lam[0])


def test_psd_from_spectrum_validation():
    with pytest.raises(ValueError):
        psd_from_spectrum(np.ones((3, 3)), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        psd_from_spectrum(np.eye(3), np.array([1.0, -1.0, -2.0]))
    with pytest.raises(ValueError):
        psd_from_spectrum(np.eye(3), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        psd_from_spectrum(np.eye(3)[:, :2], np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        psd_from_spectrum(np.eye(3), np.array([1.0, 0.5]))


def test_psd_from_spectrum_rejects_nan_basis():
    u = np.eye(3)
    u[0, 0] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        psd_from_spectrum(u, np.ones(3))


def _perturbed_basis(n, k, scale):
    """Orthonormal n x k basis moved so that ||U^T U - I||_F ~ scale * tol.

    ``U (I + t H)`` with H symmetric and ``||H||_F = 1`` has
    ``U^T U - I = 2 t H + t^2 H^2``, so ``t = scale * tol / 2`` puts the
    Frobenius deviation at ``scale * tol`` up to rounding near 1e-15.
    """
    u = random_orthonormal(n, k, RngSeed(31, n))
    g = np.random.default_rng(k).standard_normal((k, k))
    h = (g + g.T) / np.linalg.norm(g + g.T)
    return u @ (np.eye(k) + scale * ORTHONORMAL_TOL / 2.0 * h)


@pytest.mark.parametrize("n,k", [(12, 12), (40, 6)])
def test_orthonormality_check_boundary(n, k):
    lam = np.linspace(1.0, 0.0, n)
    for scale, accept in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
        u = _perturbed_basis(n, k, scale)
        dev = u.T @ u - np.eye(k)
        assert (np.linalg.norm(dev) <= ORTHONORMAL_TOL) == accept
        calls = [lambda: coherence(u)]
        if n == k:
            calls.append(lambda: psd_from_spectrum(u, lam))
        for call in calls:
            if accept:
                call()
                assert np.linalg.norm(dev, 2) <= ORTHONORMAL_TOL
            else:
                with pytest.raises(ValueError, match="orthonormal"):
                    call()


@pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (16, 16), (130, 9)])
def test_orthonormal_deviation_is_bitwise_the_difference_norm(n, k):
    for u in (np.eye(n)[:, :k], random_orthonormal(n, k, RngSeed(4, n)),
              _perturbed_basis(n, k, 0.5)):
        assert _orthonormal_deviation(u) == float(np.linalg.norm(u.T @ u - np.eye(k)))


# ---------------------------------------------------------------------------
# planted instances


def test_planted_exact_rank_tail_is_zero():
    spec = SpectrumSpec(kind="exact-rank-k", n=16, k=4, lambda1=2.0)
    a, part, tau = planted_instance(spec, CoherencePlan(target="flat"), RngSeed(1, 0))
    assert np.array_equal(part.eigenvalues[4:], np.zeros(12))
    assert part.eigenvalues[0] == 2.0
    assert abs(float(sym_eig(a)[0][4])) <= 1e-10
    assert tau == pytest.approx(1.0, abs=1e-12)


@st.composite
def _spectra(draw, kind, n):
    """A SpectrumSpec of the given kind at dimension n."""
    k = draw(st.integers(1, n))
    lambda1 = draw(st.floats(1e-100, 1e100))
    if kind == "exp-decay":
        return SpectrumSpec(kind=kind, n=n, k=k, lambda1=lambda1,
                            rate=draw(st.floats(1e-3, 1.0)))
    if kind == "power-law":
        return SpectrumSpec(kind=kind, n=n, k=k, lambda1=lambda1,
                            exponent=draw(st.floats(1e-3, 8.0)))
    if kind == "custom":
        # n values from a drawn seed and profile keep the example small
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = np.sort(rng.random(n) ** draw(st.floats(0.1, 20.0)))[::-1] * lambda1
        values[n - draw(st.integers(0, n)):] = 0.0  # an exactly zero tail
        return SpectrumSpec(kind=kind, n=n, k=k, values=tuple(values.tolist()))
    return SpectrumSpec(kind=kind, n=n, k=k, lambda1=lambda1)


@pytest.mark.parametrize("kind", ["exact-rank-k", "exp-decay", "power-law", "custom"])
@pytest.mark.parametrize("n", [2**e for e in range(11)])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_flat_instance_agrees_with_basis_product(n, kind, data):
    # The flat A from the transform identity against U diag(lam) U^T by
    # SYRK.  With u = EPS / 2 and s = sum(lam) / n, each entry of the
    # transform is within log2(n) u s of the exact one; each entry of the
    # SYRK is within (n + 8) u s (n-term sums of products carrying the
    # roundings of r, sqrt(lam) and r sqrt(lam)).  The bound allows twice
    # their sum.  The flat A is also symmetric bit for bit.
    spec = data.draw(_spectra(kind, n))
    a, part, _ = planted_instance(spec, CoherencePlan("flat"), RngSeed(0, 0))
    lam = spec.eigenvalues()
    ref = psd_from_spectrum(flat_orthonormal(n, n), lam).entries
    bound = (n + math.log2(n) + 8) * EPS * float(np.sum(lam / n))
    assert float(np.max(np.abs(a.entries - ref))) <= bound
    assert a.entries.tobytes() == a.entries.T.copy().tobytes()
    assert np.array_equal(part.u1, flat_orthonormal(n, spec.k))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(e=st.integers(0, 8), data=st.data())
def test_planted_flat_u1_is_the_leading_block_of_the_full_basis(e, data):
    # the flat plan builds only U_1, with the bits of the full basis'
    # first k columns, and no n x n basis stands behind it
    n = 2**e
    k = data.draw(st.integers(1, n), label="k")
    spec = SpectrumSpec(kind="exp-decay", n=n, k=k, rate=0.5)
    _, part, _ = planted_instance(spec, CoherencePlan("flat"), RngSeed(0, 0))
    assert part.u1.shape == (n, k) and part.u1.flags.owndata
    assert part.u1.tobytes() == flat_orthonormal(n, n)[:, :k].tobytes()


def test_certificate_rejects_a_misordered_block_swap(monkeypatch):
    # a scratch copy of _flat_entries that copies each column block to its
    # own place instead of swapping the pair builds a wrong A, which the
    # certificate of planted_instance refuses
    source = inspect.getsource(generators._flat_entries)
    swap = "dst[:, :, 0] = src[:, :, 1]\n        dst[:, :, 1] = src[:, :, 0]"
    in_place = "dst[:, :, 0] = src[:, :, 0]\n        dst[:, :, 1] = src[:, :, 1]"
    assert source.count(swap) == 1
    namespace = dict(vars(generators))
    exec(source.replace(swap, in_place), namespace)
    spec = SpectrumSpec(kind="exp-decay", n=64, k=4, rate=0.9)
    lam = spec.eigenvalues()
    assert not np.array_equal(namespace["_flat_entries"](lam), generators._flat_entries(lam))
    monkeypatch.setattr(generators, "_flat_entries", namespace["_flat_entries"])
    with pytest.raises(FloatingPointError, match="certificate"):
        planted_instance(spec, CoherencePlan("flat"), RngSeed(0, 0))


def test_planted_spiked_hits_worst_case_coherence():
    spec = SpectrumSpec(kind="exact-rank-k", n=16, k=4)
    _, part, tau = planted_instance(
        spec, CoherencePlan(target="spiked", m=1), RngSeed(2, 0)
    )
    assert tau == pytest.approx(16 / 4, abs=1e-8)
    # exactly one coordinate axis sits inside the dominant subspace
    row_norms = np.sum(part.u1**2, axis=1)
    assert np.max(row_norms) == pytest.approx(1.0, abs=1e-12)


def test_planted_spiked_m_equals_k_pure_axes():
    spec = SpectrumSpec(kind="exact-rank-k", n=12, k=3)
    _, part, tau = planted_instance(
        spec, CoherencePlan(target="spiked", m=3), RngSeed(4, 0)
    )
    assert tau == pytest.approx(12 / 3, abs=1e-10)
    # each dominant column is one-hot
    for j in range(3):
        col = part.u1[:, j]
        assert np.count_nonzero(col) == 1
        assert np.max(np.abs(col)) == 1.0


def test_planted_exp_ratio():
    spec = SpectrumSpec(kind="exp-decay", n=10, k=4, lambda1=1.0, rate=0.5)
    a, part, _ = planted_instance(spec, CoherencePlan(target="low"), RngSeed(5, 0))
    vals, _ = sym_eig(a)
    ratios = vals[1:] / vals[:-1]
    assert np.allclose(ratios, 0.5, atol=1e-9)
    assert part.eigenvalues[4] == pytest.approx(0.5**4, rel=1e-12)


def test_planted_subspace_recovered_by_eigensolver():
    # the planted u1 must agree with what sym_eig finds, whenever the
    # spectral gap is meaningfully open
    for t in range(20):
        n = 8 + (t % 5) * 4
        k = 1 + (t % 3)
        spec = SpectrumSpec(kind="exp-decay", n=n, k=k, lambda1=1.0, rate=0.5)
        a, part, _ = planted_instance(spec, CoherencePlan(target="low"), RngSeed(6, t))
        gap = float(part.eigenvalues[k - 1] - part.eigenvalues[k])
        if gap <= 1e-6 * float(part.eigenvalues[0]):
            continue
        d = davis_kahan_distance(part.u1, sym_eig(a)[1][:, :k])
        assert d <= 1e-7, f"stream {t}: distance {d:.3e} with gap {gap:.3e}"


@pytest.mark.parametrize("target", ["flat", "low", "spiked"])
def test_planted_instance_does_no_eigensolve(target, monkeypatch):
    # Every eigenvalue of a planted instance is known, so building one
    # needs no eigensolve; an n^3 solve here would dominate `prepare`.
    def refuse(*args, **kwargs):
        raise AssertionError("planted_instance called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    spec = SpectrumSpec(kind="exp-decay", n=64, k=4, rate=0.8)
    a, part, tau = planted_instance(spec, CoherencePlan(target=target), RngSeed(5, 0))
    assert a.n == 64 and part.k == 4 and 1.0 - 1e-9 <= tau <= 16.0 + 1e-9
    assert part.u1.shape == (64, 4) and part.u1.flags.owndata


@pytest.mark.parametrize("plan", [CoherencePlan("flat"), CoherencePlan("low"),
                                  CoherencePlan("spiked", m=2)])
def test_exactly_symmetric_sites_are_stored_without_averaging(plan, tmp_path, monkeypatch):
    # planted A (a SYRK product), the W that extract_cw gathers, Z Z^T and a
    # saved matrix read back all equal their transpose bit for bit
    original, seen = matcore._bitwise_symmetric, []

    def spy(a):
        seen.append(original(a))
        return seen[-1]

    monkeypatch.setattr(matcore, "_bitwise_symmetric", spy)
    spec = SpectrumSpec(kind="exp-decay", n=256, k=4, rate=0.9)
    a, _, _ = planted_instance(spec, plan, RngSeed(11, 0))
    assert a.entries.tobytes() == a.entries.T.copy().tobytes()
    res = nystrom_extend(a, sample_uniform(256, 40, RngSeed(11, 1)))
    dense_extension(res)
    save_matrix(a, tmp_path / "a.txt")
    assert load_matrix(tmp_path / "a.txt").entries.tobytes() == a.entries.tobytes()
    assert seen == [True] * 4


def test_planted_deterministic():
    spec = SpectrumSpec(kind="exp-decay", n=8, k=2, rate=0.7)
    plan = CoherencePlan(target="low")
    a1, _, t1 = planted_instance(spec, plan, RngSeed(9, 3))
    a2, _, t2 = planted_instance(spec, plan, RngSeed(9, 3))
    assert np.array_equal(a1.entries, a2.entries)
    assert t1 == t2


def test_spiked_plan_validation():
    spec = SpectrumSpec(kind="exact-rank-k", n=8, k=2)
    with pytest.raises(ValueError):
        planted_instance(spec, CoherencePlan(target="spiked", m=3), RngSeed(0, 0))
    with pytest.raises(ValueError):
        CoherencePlan(target="spiked", m=0)
    with pytest.raises(ValueError):
        CoherencePlan(target="bumpy")


# ---------------------------------------------------------------------------
# parsing


def test_parse_spectrum_grammar():
    s = parse_spectrum("exact-rank-k", n=8, k=2, lambda1=3.0)
    assert s.kind == "exact-rank-k" and s.lambda1 == 3.0
    s = parse_spectrum("exp:0.5", n=8, k=2)
    assert s.kind == "exp-decay" and s.rate == 0.5
    s = parse_spectrum("pow:1.5", n=8, k=2)
    assert s.kind == "power-law" and s.exponent == 1.5
    s = parse_spectrum("custom:3,2,1", n=3, k=1)
    assert s.kind == "custom" and s.values == (3.0, 2.0, 1.0)


def test_parse_spectrum_errors():
    with pytest.raises(ValueError):
        parse_spectrum("gauss", n=4, k=2)
    with pytest.raises(ValueError):
        parse_spectrum("exp:1.5", n=4, k=2)
    with pytest.raises(ValueError):
        parse_spectrum("custom:1,2", n=3, k=1)


def test_parse_plan_grammar():
    assert parse_plan("flat") == CoherencePlan(target="flat")
    assert parse_plan("low") == CoherencePlan(target="low")
    assert parse_plan("spiked") == CoherencePlan(target="spiked", m=1)
    assert parse_plan("spiked:3") == CoherencePlan(target="spiked", m=3)
    with pytest.raises(ValueError):
        parse_plan("speckled")
