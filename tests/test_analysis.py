"""Coherence, error bounds, sample-size rule, tail estimates, subspace distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromlab import (
    BoundInapplicableError,
    ColumnSample,
    RngSeed,
    SpectralPartition,
    SymMatrix,
    bound_report,
    chernoff_tail,
    coherence,
    deterministic_bound,
    flat_orthonormal,
    full_rank_tolerance,
    min_eig_gram,
    nystrom_extend,
    partition,
    probabilistic_bound,
    required_samples,
    sample_uniform,
    spectral_norm,
    sym_eig,
)

from helpers import (
    GapViolatedError, davis_kahan_bound, davis_kahan_distance, dense_extension, gram_psd, haar,
    mixed_spectrum_cases, omega_matrices, pinv, planted_psd,
)

# ---------------------------------------------------------------------------
# coherence


def test_coherence_standard_basis_columns():
    u = np.zeros((4, 2))
    u[0, 0] = 1.0
    u[1, 1] = 1.0
    assert coherence(u) == pytest.approx(4 / 2, abs=1e-12)


def test_coherence_flat_vector():
    u = np.full((4, 1), 0.5)
    assert coherence(u) == pytest.approx(1.0, abs=1e-12)


def test_coherence_hadamard_columns():
    u = flat_orthonormal(8, 3)
    assert coherence(u) == pytest.approx(1.0, abs=1e-12)


def test_coherence_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        coherence(np.ones((3, 2)))


def test_coherence_rejects_nan_basis():
    # ||U^T U - I|| is NaN here, and NaN compares false with any tolerance.
    with pytest.raises(ValueError, match="orthonormal"):
        coherence(np.full((3, 1), np.nan))


def test_coherence_range_and_rotation_invariance():
    rng = np.random.default_rng(23)
    for trial in range(300):
        n = int(rng.integers(2, 24))
        k = int(rng.integers(1, n + 1))
        u = haar(n, k, rng)
        mu = coherence(u)
        assert 1.0 - 1e-9 <= mu <= n / k + 1e-9, f"trial {trial}: mu={mu}, n={n}, k={k}"
        # right-multiplying by any orthogonal q leaves row norms' max unchanged
        q = haar(k, k, rng)
        assert coherence(u @ q) == pytest.approx(mu, rel=1e-9)


# ---------------------------------------------------------------------------
# omega matrices


def test_omega_full_sample_orthonormal_rows():
    rng = np.random.default_rng(31)
    a = gram_psd(8, rng)
    s = ColumnSample(n=8, indices=tuple(range(8)))
    o1, o2 = omega_matrices(sym_eig(a)[1], 3, s)
    assert o1.shape == (3, 8)
    assert o2.shape == (5, 8)
    assert np.allclose(o1 @ o1.T, np.eye(3), atol=1e-10)
    assert np.allclose(o2 @ o2.T, np.eye(5), atol=1e-10)
    assert np.allclose(o1 @ o2.T, np.zeros((3, 5)), atol=1e-10)


def test_omega_is_column_gather():
    rng = np.random.default_rng(33)
    a = gram_psd(9, rng)
    _, vecs = sym_eig(a)
    part = partition(a, 2)
    s = sample_uniform(9, 4, RngSeed(5, 0))
    o1, o2 = omega_matrices(vecs, 2, s)
    idx = np.asarray(s.indices)
    assert np.array_equal(o1, part.u1[idx, :].T)
    assert np.array_equal(o2, vecs[idx, 2:].T)


def test_omega2_norm_at_most_one():
    rng = np.random.default_rng(35)
    for trial in range(40):
        n = int(rng.integers(3, 15))
        k = int(rng.integers(1, n))
        a = gram_psd(n, rng)
        l = int(rng.integers(1, n + 1))
        s = sample_uniform(n, l, RngSeed(6, trial))
        _, o2 = omega_matrices(sym_eig(a)[1], k, s)
        assert spectral_norm(o2) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# deterministic bound


def test_det_bound_zero_tail_is_zero():
    rng = np.random.default_rng(41)
    lam = np.array([3.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    a, _, _ = planted_psd(6, lam, rng)
    part = partition(a, 2)
    s = ColumnSample(n=6, indices=tuple(range(6)))
    assert deterministic_bound(part, s) <= 1e-12


def test_det_bound_full_sample_dominates():
    rng = np.random.default_rng(43)
    a = gram_psd(10, rng)
    part = partition(a, 4)
    s = ColumnSample(n=10, indices=tuple(range(10)))
    b = deterministic_bound(part, s)
    err = nystrom_extend(a, sample_uniform(10, 10, RngSeed(0, 0))).spectral_error
    # full sample: pinv(omega1) has norm 1, so bound = lambda_{k+1} * 2 at most
    assert err <= b + 1e-8


def test_det_bound_dominates_error_when_applicable():
    rng = np.random.default_rng(47)
    checked = 0
    trial = 0
    while checked < 500:
        trial += 1
        n = int(rng.integers(4, 21))
        k = int(rng.integers(1, min(n, 7)))
        a = gram_psd(n, rng)
        part = partition(a, k)
        l = int(rng.integers(k, n + 1))
        s = sample_uniform(n, l, RngSeed(9, trial))
        if min_eig_gram(part.u1, s) <= full_rank_tolerance(n):
            continue
        err = nystrom_extend(a, s).spectral_error
        b = deterministic_bound(part, s)
        assert err <= b + 1e-8 * max(1.0, b), (
            f"trial {trial} (n={n}, k={k}, l={l}): error {err!r} "
            f"exceeds bound {b!r}"
        )
        checked += 1


def test_det_bound_raises_when_omega1_rank_deficient():
    # spiked leading basis missed by the sample: omega1 is all zeros
    u1 = np.zeros((4, 1))
    u1[0, 0] = 1.0
    part = SpectralPartition(u1=u1, eigenvalues=np.array([2.0, 1.0, 0.5, 0.25]))
    s = ColumnSample(n=4, indices=(1, 2))
    with pytest.raises(BoundInapplicableError):
        deterministic_bound(part, s)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 24),
    family=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_det_bound_closed_form_matches_pinv_route(n, family, seed, data):
    rng = np.random.default_rng(seed)
    a = list(mixed_spectrum_cases(rng, n))[family][1]
    k = data.draw(st.integers(1, n - 1), label="k")
    l = data.draw(st.integers(k, n), label="l")
    _, vecs = sym_eig(a)
    part = partition(a, k)
    s = sample_uniform(n, l, RngSeed(seed, 0))
    m = min_eig_gram(part.u1, s)
    if m <= full_rank_tolerance(n):
        with pytest.raises(BoundInapplicableError):
            deterministic_bound(part, s)
        return
    omega1, omega2 = omega_matrices(vecs, k, s)
    sigma2_norm = float(np.max(np.abs(part.eigenvalues[k:])))
    expect = sigma2_norm * (1.0 + spectral_norm(omega2 @ pinv(omega1)) ** 2)
    # eigvalsh leaves an O(n eps) absolute error on the Gram matrix (norm <= 1),
    # which 1 / m amplifies into a relative error of order n eps / m.
    tol = 16 * n * np.finfo(np.float64).eps / m
    assert deterministic_bound(part, s) == pytest.approx(expect, rel=tol, abs=0.0)


# ---------------------------------------------------------------------------
# sample-size rule


def test_required_samples_frozen_values():
    # 2 * 1 * 10 * ln(10/0.5) / (1 - 0.1)^2 = 20 ln 20 / 0.81 = 73.98... -> 74
    assert required_samples(k=10, tau=1.0, epsilon=0.1, delta=0.5) == math.ceil(
        20.0 * math.log(20.0) / 0.81
    )
    assert required_samples(k=10, tau=1.0, epsilon=0.1, delta=0.5) == 74


def test_required_samples_simplified_factor_eight():
    # epsilon = 1/2 collapses the constant to 8 tau k ln(k/delta)
    k, tau, delta = 6, 2.5, 0.05
    expect = math.ceil(8.0 * tau * k * math.log(k / delta))
    assert required_samples(k=k, tau=tau, epsilon=0.5, delta=delta) == expect


def test_required_samples_floor_one():
    # ln(k/delta) = ln(e) = 1 -> 2 * 1 * 1 * 1 / 0.25 = 8
    assert required_samples(k=1, tau=1.0, epsilon=0.5, delta=1.0 / math.e) == 8
    # tiny demand still returns at least one sample
    assert required_samples(k=1, tau=1.0, epsilon=0.999, delta=0.99) >= 1


def test_required_samples_validation():
    with pytest.raises(ValueError):
        required_samples(k=0, tau=1.0, epsilon=0.5, delta=0.05)
    with pytest.raises(ValueError):
        required_samples(k=2, tau=0.5, epsilon=0.5, delta=0.05)
    with pytest.raises(ValueError):
        required_samples(k=2, tau=1.0, epsilon=0.0, delta=0.05)
    with pytest.raises(ValueError):
        required_samples(k=2, tau=1.0, epsilon=1.0, delta=0.05)
    with pytest.raises(ValueError):
        required_samples(k=2, tau=1.0, epsilon=0.5, delta=0.0)
    with pytest.raises(ValueError):
        required_samples(k=2, tau=1.0, epsilon=0.5, delta=1.5)


# ---------------------------------------------------------------------------
# probabilistic bound


def test_probabilistic_bound_frozen_value():
    # 2 * (1 + 100 / (0.5 * 25)) = 2 * 9 = 18
    assert probabilistic_bound(lambda_k1=2.0, n=100, l=25, epsilon=0.5) == 18.0


def test_probabilistic_bound_full_sample_epsilon_half():
    # l = n, epsilon = 1/2: factor 1 + 2 = 3
    assert probabilistic_bound(lambda_k1=1.5, n=64, l=64, epsilon=0.5) == pytest.approx(
        4.5
    )


def test_probabilistic_bound_validation():
    with pytest.raises(ValueError):
        probabilistic_bound(lambda_k1=1.0, n=10, l=0, epsilon=0.5)
    with pytest.raises(ValueError):
        probabilistic_bound(lambda_k1=1.0, n=10, l=11, epsilon=0.5)
    with pytest.raises(ValueError):
        probabilistic_bound(lambda_k1=-1.0, n=10, l=5, epsilon=0.5)
    with pytest.raises(ValueError):
        probabilistic_bound(lambda_k1=1.0, n=10, l=5, epsilon=0.0)


# ---------------------------------------------------------------------------
# tail estimate


def test_chernoff_tail_epsilon_one_gives_k():
    assert chernoff_tail(k=5, tau=2.0, l=10, epsilon=1.0) == 5.0


def test_chernoff_tail_frozen_value():
    # k exp(-(1-eps)^2 l / (2 k tau)) with k=2,tau=1,l=16,eps=0.5: 2 e^{-1}
    assert chernoff_tail(k=2, tau=1.0, l=16, epsilon=0.5) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-15
    )
    assert chernoff_tail(k=2, tau=1.0, l=16, epsilon=0.5) == 0.7357588823428847


def test_chernoff_tail_at_required_samples_meets_delta():
    for k, tau, eps, delta in [
        (4, 1.0, 0.5, 0.05),
        (8, 3.0, 0.25, 0.1),
        (2, 1.5, 0.75, 0.01),
    ]:
        l = required_samples(k=k, tau=tau, epsilon=eps, delta=delta)
        assert chernoff_tail(k=k, tau=tau, l=l, epsilon=eps) <= delta + 1e-12


def test_chernoff_tail_validation():
    with pytest.raises(ValueError):
        chernoff_tail(k=2, tau=1.0, l=0, epsilon=0.5)
    with pytest.raises(ValueError):
        chernoff_tail(k=2, tau=1.0, l=4, epsilon=-0.1)
    with pytest.raises(ValueError):
        chernoff_tail(k=2, tau=1.0, l=4, epsilon=1.1)


# ---------------------------------------------------------------------------
# sampled-gram diagnostics


def test_min_eig_gram_full_sample_is_one():
    rng = np.random.default_rng(53)
    u = haar(9, 3, rng)
    s = ColumnSample(n=9, indices=tuple(range(9)))
    assert min_eig_gram(u, s) == pytest.approx(1.0, abs=1e-10)


def test_min_eig_gram_spiked_miss_is_zero():
    u = np.zeros((5, 1))
    u[0, 0] = 1.0
    s = ColumnSample(n=5, indices=(1, 2, 3))
    assert min_eig_gram(u, s) == pytest.approx(0.0, abs=1e-15)


def test_min_eig_gram_matches_explicit_product():
    rng = np.random.default_rng(57)
    for trial in range(25):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(1, n))
        u = haar(n, k, rng)
        l = int(rng.integers(1, n + 1))
        s = sample_uniform(n, l, RngSeed(12, trial))
        rows = u[np.asarray(s.indices), :]
        expect = float(np.linalg.eigvalsh(rows.T @ rows)[0])
        assert min_eig_gram(u, s) == pytest.approx(expect, rel=1e-10, abs=1e-12)


def _part_with_u1(u1):
    """Minimal partition wrapper: only u1 / n matter to the callee."""
    n, k = u1.shape
    return SpectralPartition(u1=u1, eigenvalues=np.r_[np.linspace(2.0, 1.0, k), np.zeros(n - k)])


def test_pinv_norm_sq_full_sample_is_one():
    rng = np.random.default_rng(61)
    s = ColumnSample(n=7, indices=tuple(range(7)))
    assert 1.0 / min_eig_gram(haar(7, 2, rng), s) == pytest.approx(1.0, rel=1e-9)


def test_pinv_norm_sq_trivial_two_dim():
    # u1 = e0 in R^2, sample hits row 0: omega1 = [1] exactly
    s = ColumnSample(n=2, indices=(0,))
    assert 1.0 / min_eig_gram(np.array([[1.0], [0.0]]), s) == pytest.approx(1.0, abs=1e-12)


def test_pinv_norm_sq_matches_pinv_route():
    rng = np.random.default_rng(63)
    checked = 0
    trial = 0
    while checked < 30:
        trial += 1
        n = int(rng.integers(3, 14))
        k = int(rng.integers(1, min(n, 5)))
        u = haar(n, k, rng)
        l = int(rng.integers(k, n + 1))
        s = sample_uniform(n, l, RngSeed(13, trial))
        if min_eig_gram(u, s) <= full_rank_tolerance(n):
            continue
        omega1 = u[np.asarray(s.indices), :].T
        expect = spectral_norm(pinv(omega1)) ** 2
        got = 1.0 / min_eig_gram(u, s)
        assert got == pytest.approx(expect, rel=1e-8), (
            f"trial {trial}: direct {got!r} vs pinv route {expect!r}"
        )
        checked += 1


def test_pinv_norm_sq_raises_when_rank_deficient():
    u = np.zeros((5, 2))
    u[0, 0] = 1.0
    u[1, 1] = 1.0
    s = ColumnSample(n=5, indices=(2, 3))
    with pytest.raises(BoundInapplicableError):
        deterministic_bound(_part_with_u1(u), s)


# ---------------------------------------------------------------------------
# subspace distance


def test_davis_kahan_distance_same_span_zero():
    rng = np.random.default_rng(71)
    u = haar(6, 2, rng)
    q = haar(2, 2, rng)
    assert davis_kahan_distance(u, u @ q) <= 1e-10


def test_davis_kahan_distance_orthogonal_spans_one():
    e0 = np.array([[1.0], [0.0]])
    e1 = np.array([[0.0], [1.0]])
    assert davis_kahan_distance(e0, e1) == pytest.approx(1.0, abs=1e-12)


def test_davis_kahan_distance_known_angle():
    t = math.pi / 6
    u = np.array([[1.0], [0.0]])
    v = np.array([[math.cos(t)], [math.sin(t)]])
    assert davis_kahan_distance(u, v) == pytest.approx(math.sin(t), abs=1e-12)


def test_davis_kahan_bound_exact_recovery_zero():
    rng = np.random.default_rng(73)
    a = gram_psd(6, rng)
    assert davis_kahan_bound(a, a, k=2) <= 1e-12


def test_davis_kahan_bound_diagonal_case():
    a = SymMatrix(np.diag([3.0, 1.0]))
    a_tilde = SymMatrix(np.diag([3.0, 1.5]))
    # ||A - A~|| = 0.5, gap = lambda_1(A) - lambda_2(A~) = 1.5 -> 1/3
    assert davis_kahan_bound(a, a_tilde, k=1) == pytest.approx(1.0 / 3.0, rel=1e-12)
    u = np.array([[1.0], [0.0]])
    assert davis_kahan_distance(u, u) <= 1.0 / 3.0


def test_davis_kahan_bound_dominates_distance():
    rng = np.random.default_rng(77)
    checked = 0
    trial = 0
    while checked < 60:
        trial += 1
        n = int(rng.integers(4, 16))
        k = int(rng.integers(1, min(n - 1, 5) + 1))
        a = gram_psd(n, rng)
        part = partition(a, k)
        l = int(rng.integers(k + 1, n + 1))
        s = sample_uniform(n, l, RngSeed(14, trial))
        res = nystrom_extend(a, s)
        vals_t, vecs_t = sym_eig(dense_extension(res))
        gap = float(part.eigenvalues[k - 1] - vals_t[k])
        if gap <= 1e-6 * float(part.eigenvalues[0]):
            continue
        try:
            b = davis_kahan_bound(a, dense_extension(res), k=k)
        except GapViolatedError:
            continue
        d = davis_kahan_distance(part.u1, vecs_t[:, :k])
        assert d <= b + 1e-8, (
            f"trial {trial} (n={n}, k={k}, l={l}): distance {d!r} "
            f"exceeds bound {b!r}"
        )
        checked += 1


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_davis_kahan_bound_is_scale_invariant(scale):
    rng = np.random.default_rng(41)
    lam = np.array([4.0, 2.0, 0.5, 0.25, 0.1, 0.05])
    a, _, _ = planted_psd(6, lam, rng)
    a_tilde = dense_extension(nystrom_extend(a, ColumnSample(n=6, indices=(0, 2, 4))))
    want = davis_kahan_bound(a, a_tilde, k=2)
    got = davis_kahan_bound(SymMatrix(scale * a.entries), SymMatrix(scale * a_tilde.entries), k=2)
    assert got == pytest.approx(want, rel=1e-12)


def test_davis_kahan_bound_gap_violated_raises():
    a = SymMatrix(np.diag([2.0, 1.0]))
    a_tilde = SymMatrix(np.diag([2.0, 5.0]))
    with pytest.raises(GapViolatedError):
        davis_kahan_bound(a, a_tilde, k=1)


# ---------------------------------------------------------------------------
# bound report


def test_bound_report_chains_consistently():
    r = bound_report(n=256, k=4, tau=1.0, epsilon=0.5, delta=0.05)
    assert r.l_required == required_samples(k=4, tau=1.0, epsilon=0.5, delta=0.05)
    assert r.l == r.l_required  # below n, so the default l is l_required
    assert r.prob_bound == probabilistic_bound(
        lambda_k1=1.0, n=256, l=r.l_required, epsilon=0.5
    )
    assert r.chernoff_tail == chernoff_tail(
        k=4, tau=1.0, l=r.l_required, epsilon=0.5
    )
    assert r.chernoff_tail <= 0.05 + 1e-12


def test_bound_report_respects_explicit_l():
    r = bound_report(n=100, k=2, tau=1.0, epsilon=0.5, delta=0.1, l=20)
    assert r.l == 20
    # without l, a required count above n saturates at full sampling
    assert bound_report(n=100, k=4, tau=25.0, epsilon=0.5, delta=0.1).l == 100
    assert r.prob_bound == probabilistic_bound(lambda_k1=1.0, n=100, l=20, epsilon=0.5)


def test_bound_report_validation():
    with pytest.raises(ValueError):
        bound_report(n=10, k=0, tau=1.0, epsilon=0.5, delta=0.05)
    with pytest.raises(ValueError):
        bound_report(n=10, k=2, tau=9.0, epsilon=0.5, delta=0.05)  # tau > n/k
    with pytest.raises(ValueError):
        bound_report(n=10, k=2, tau=1.0, epsilon=0.5, delta=0.05, l=0)
    with pytest.raises(ValueError):
        bound_report(n=10, k=2, tau=1.0, epsilon=0.5, delta=0.05, l=11)
