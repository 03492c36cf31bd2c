"""Core primitives: eigendecomposition, sqrt, pinv, norms, projectors."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromlab import (
    NotPSDError,
    SymMatrix,
    partition,
    projector,
    psd_sqrt,
    spectral_norm,
    sym_eig,
    sym_eigvals,
)

from nystromlab import matcore
from nystromlab.matcore import (
    EPS,
    PSD_CLAMP_REL,
    check_psd,
    clamp_psd_eigenvalues,
    lowrank_residual_norm,
)
from nystromlab.sampling import lanczos_start

from helpers import gram_psd, mixed_spectrum_cases, pinv, planted_psd


# ---------------------------------------------------------------------------
# SymMatrix carrier
# ---------------------------------------------------------------------------

def test_symmatrix_symmetrizes_small_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    m = SymMatrix(a)
    assert np.array_equal(m.entries, m.entries.T)
    assert m.entries[0, 1] == pytest.approx(2.0 + 0.5e-12, abs=1e-15)


def test_symmatrix_rejects_gross_asymmetry():
    a = np.array([[1.0, 2.0], [2.001, 3.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        SymMatrix(a)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_symmatrix_asymmetry_check_at_extreme_scales(scale):
    # ||A||_F overflows to inf at 1e160 and underflows to 0 at 1e-170
    a = scale * gram_psd(6, np.random.default_rng(3)).entries
    m = SymMatrix(a)
    assert np.array_equal(m.entries, a)
    bad = a.copy()
    bad[0, 1] *= 1.5
    with pytest.raises(ValueError, match="not symmetric"):
        SymMatrix(bad)


def test_symmatrix_mirrored_pair_summing_past_float_max():
    # 1.5e308 + 1.5e308 overflows although both entries are finite; the
    # subnormal entry must keep its bits through the rescaled branch
    a = np.array([[1.5e308, 1.5e308], [1.5e308, 5e-324]])
    m = SymMatrix(a)
    assert np.array_equal(m.entries, a)
    assert SymMatrix(np.full((2, 2), 1.5e308)).entries[0, 1] == 1.5e308
    bad = np.array([[1.5e308, 1.7e308], [1.0e308, 1.5e308]])
    with pytest.raises(ValueError, match="not symmetric"):
        SymMatrix(bad)


def test_symmatrix_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_symmatrix_entries_are_frozen():
    m = SymMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def _averaged(a) -> np.ndarray:
    """The entries SymMatrix stores for a through the averaging path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(matcore, "_bitwise_symmetric", lambda a: False)
        return SymMatrix(a).entries


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
            1.5e308, -1.5e308, np.finfo(np.float64).max, 1.0, -3.0, 1e-170)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       extra=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
def test_symmatrix_stores_exactly_symmetric_input_as_the_average_would(
        n, seed, extra):
    # Mirrored special values: subnormals, -0.0, pairs whose sum overflows,
    # and n that is rarely a multiple of the tile side.
    rng = np.random.default_rng(seed)
    palette = np.array(_SPECIAL + tuple(extra))
    a = np.where(rng.random((n, n)) < 0.3, rng.choice(palette, (n, n)),
                 rng.standard_normal((n, n)))
    a = np.triu(a) + np.triu(a, 1).T
    assert matcore._bitwise_symmetric(a)
    m = SymMatrix(a)
    assert m.entries.tobytes() == a.tobytes()
    assert m.entries.tobytes() == _averaged(a).tobytes()


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 200, 256, 300])
def test_symmatrix_one_ulp_asymmetry_in_last_tile_is_averaged(n):
    a = gram_psd(n, np.random.default_rng(n)).entries.copy()
    i, j = n - 1, max(n - 2, 0)
    a[i, j] = np.nextafter(a[i, j], np.inf)
    if i == j:  # a 1 x 1 matrix has no off-diagonal pair to perturb
        assert matcore._bitwise_symmetric(a)
        return
    assert not matcore._bitwise_symmetric(a)
    m = SymMatrix(a)
    assert m.entries.tobytes() == _averaged(a).tobytes()
    assert m.entries[i, j] == m.entries[j, i]


def test_symmatrix_signed_zero_pair_is_averaged():
    # -0.0 == 0.0 numerically, but the pair differs bit for bit; the
    # average stores +0.0 in both places
    a = np.array([[1.0, -0.0], [0.0, 1.0]])
    assert not matcore._bitwise_symmetric(a)
    m = SymMatrix(a)
    assert np.signbit(m.entries).tolist() == [[False, False], [False, False]]


def test_symmatrix_neither_freezes_nor_aliases_the_input():
    a = gram_psd(5, np.random.default_rng(2)).entries.copy()
    before = a.copy()
    m = SymMatrix(a)
    assert a.flags.writeable and not m.entries.flags.writeable
    assert not np.shares_memory(a, m.entries)
    a[0, 0] = 99.0
    assert np.array_equal(m.entries, before)


def _handed_over(a):
    """A fresh float64 copy of a, frozen: the form in which callers hand
    an array over to SymMatrix."""
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def test_symmatrix_stores_a_handed_over_array_without_a_copy():
    a = gram_psd(5, np.random.default_rng(2)).entries
    given = _handed_over(a)
    m = SymMatrix(given)
    assert np.shares_memory(m.entries, given) and not m.entries.flags.writeable
    assert m.entries.tobytes() == SymMatrix(a.copy()).entries.tobytes()
    # a read-only view does not own its data, so it is copied
    view = given[:, :]
    assert not np.shares_memory(SymMatrix(view).entries, given)


@pytest.mark.parametrize("bad", [
    [[1.0, np.nan], [np.nan, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, 2.0], [0.0, 1.0]],
])
def test_symmatrix_checks_a_handed_over_array_as_any_other(bad):
    with pytest.raises(ValueError) as public:
        SymMatrix(np.array(bad))
    with pytest.raises(ValueError) as handed:
        SymMatrix(_handed_over(bad))
    assert str(handed.value) == str(public.value)


def test_symmatrix_averages_a_handed_over_asymmetric_array():
    a = gram_psd(6, np.random.default_rng(4)).entries.copy()
    a[5, 4] = np.nextafter(a[5, 4], np.inf)
    given = _handed_over(a)
    m = SymMatrix(given)
    assert not np.shares_memory(m.entries, given)
    assert m.entries.tobytes() == _averaged(a).tobytes()


def test_symmatrix_checks_finiteness_before_symmetry():
    a = np.full((3, 3), np.inf)
    with pytest.raises(ValueError, match="finite"):
        SymMatrix(a)


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------

def test_sym_eig_diagonal_descending_order():
    vals, vecs = sym_eig(SymMatrix(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(vals, [3.0, 2.0, 1.0], atol=1e-14)
    # eigenvectors of a diagonal matrix are signed standard basis vectors
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [0, 2, 1]], atol=1e-14)


def test_sym_eig_two_by_two_exact():
    vals, vecs = sym_eig(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-14)
    v_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v_minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(vecs[:, 0] @ v_plus) - 1.0) < 1e-12
    assert abs(abs(vecs[:, 1] @ v_minus) - 1.0) < 1e-12


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for trial in range(20):
        a = gram_psd(8, rng)
        vals, vecs = sym_eig(a)
        recon = (vecs * vals) @ vecs.T
        resid = spectral_norm(recon - a.entries)
        assert resid < 1e-10, f"trial {trial}: reconstruction residual {resid:.3e}"
        orth = spectral_norm(vecs.T @ vecs - np.eye(8))
        assert orth < 1e-12
        assert np.all(np.diff(vals) <= 0)


def test_sym_eig_deterministic_for_fixed_input():
    a = gram_psd(6, np.random.default_rng(3))
    (v1, u1), (v2, u2) = sym_eig(a), sym_eig(a)
    assert np.array_equal(v1, v2)
    assert np.array_equal(u1, u2)


def test_sym_eigvals_descending_and_matches_sym_eig():
    a = gram_psd(9, np.random.default_rng(5))
    vals = sym_eigvals(a)
    assert np.all(np.diff(vals) <= 0)
    assert np.allclose(vals, sym_eig(a)[0], rtol=0, atol=1e-13 * vals[0])


def test_sym_eigvals_reports_non_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        sym_eigvals(SymMatrix(np.eye(2)))


def _psd_decision(check):
    """None when ``check()`` accepts, else what its NotPSDError carries."""
    try:
        check()
    except NotPSDError as exc:
        return exc.eigenvalue, exc.floor, str(exc)
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 30),
    family=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    c=st.sampled_from([0.0, 0.5, 2.0, 100.0]),
)
def test_check_psd_matches_the_eigenvalue_decision(n, family, seed, c):
    a = _shifted(list(mixed_spectrum_cases(np.random.default_rng(seed), n))[family][1], c)
    want = _assert_eigenvalue_decision(a)
    if want is None:
        theta, r = lowrank_residual_norm(a, lanczos_start(n))
        lam1 = float(sym_eigvals(a)[0])
        assert abs(theta - lam1) <= r + 8 * n * EPS * lam1


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(n=st.integers(matcore.CHOLESKY_BLOCK + 1, 700), seed=st.integers(0, 2**32 - 1))
def test_check_psd_matches_the_eigenvalue_decision_over_several_blocks(n, seed):
    # every family and shift, so each example has cases on both sides
    decisions = [_assert_eigenvalue_decision(_shifted(a, c))
                 for _, a in mixed_spectrum_cases(np.random.default_rng(seed), n)
                 for c in (0.0, 0.5, 2.0, 100.0)]
    assert None in decisions and any(d is not None for d in decisions)


def _shifted(a, c):
    # A shifted by c times the clamp window: inside it for c < 1, below it
    # for c > 1 wherever lambda_min(A) is small
    lam1 = float(sym_eigvals(a)[0])
    return SymMatrix(a.entries - c * PSD_CLAMP_REL * lam1 * np.eye(a.n))


def _assert_eigenvalue_decision(a):
    want = _psd_decision(lambda: clamp_psd_eigenvalues(sym_eigvals(a)))
    assert _psd_decision(lambda: check_psd(a)) == want
    return want


def test_check_psd_certifies_without_an_eigensolve(monkeypatch):
    def fail(*_):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    check_psd(gram_psd(6, np.random.default_rng(3)))
    check_psd(planted_psd(6, [2.0, 1.0, 0.0, 0.0, 0.0, 0.0], np.random.default_rng(4))[0])
    check_psd(SymMatrix(1e160 * np.eye(3)))


@pytest.mark.parametrize("n", [matcore.CHOLESKY_BLOCK + 1, 600])
def test_shifted_cholesky_ok_decides_at_the_last_pivot(n):
    # a_nn minus (1 -+ 1%) of its Schur complement 1 / (A^{-1})_nn leaves the
    # last pivot at +-1% of it, so only a right trailing update decides
    a = gram_psd(n, np.random.default_rng(8)).entries
    schur = 1.0 / np.linalg.inv(a)[-1, -1]
    for slack, want in ((0.01, True), (-0.01, False)):
        m = a.copy()
        m[-1, -1] -= (1.0 - slack) * schur
        assert matcore.shifted_cholesky_ok(m, 0.0) is want


def test_check_psd_peak_memory_is_one_scratch_copy():
    n = 1024
    a = gram_psd(n, np.random.default_rng(6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        check_psd(a)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 8


def test_shifted_cholesky_ok_is_one_cholesky_up_to_one_block(monkeypatch):
    m = gram_psd(matcore.CHOLESKY_BLOCK, np.random.default_rng(7)).entries
    calls = []
    cholesky = np.linalg.cholesky

    def spy(x):
        calls.append(x.copy())
        return cholesky(x)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    assert matcore.shifted_cholesky_ok(m, 0.5)
    assert len(calls) == 1
    assert np.array_equal(calls[0], m + 0.5 * np.eye(m.shape[0]))


def test_check_psd_falls_back_to_the_eigenvalues():
    # Cholesky rejects the zero matrix; the eigenvalues accept it
    check_psd(SymMatrix(np.zeros((3, 3))))
    with pytest.raises(NotPSDError) as info:
        check_psd(SymMatrix(np.diag([1.0, -1.0])))
    assert (info.value.eigenvalue, info.value.floor) == (-1.0, -PSD_CLAMP_REL)


# ---------------------------------------------------------------------------
# psd_sqrt
# ---------------------------------------------------------------------------

def test_psd_sqrt_diagonal():
    s = psd_sqrt(SymMatrix(np.diag([4.0, 9.0])))
    assert np.allclose(s.entries, np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_identity():
    s = psd_sqrt(SymMatrix(np.eye(5)))
    assert np.allclose(s.entries, np.eye(5), atol=1e-14)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = gram_psd(6, rng)
        s = psd_sqrt(a)
        err = spectral_norm(s.entries @ s.entries - a.entries)
        assert err <= 1e-9 * spectral_norm(a.entries)


def test_psd_sqrt_clamps_roundoff_negative():
    rng = np.random.default_rng(5)
    a, _, _ = planted_psd(4, [1.0, 0.5, 0.1, 0.0], rng)
    # perturb into a tiny negative eigenvalue, still inside the clamp window
    u = np.linalg.eigh(a.entries)[1][:, :1]
    bumped = SymMatrix(a.entries - 1e-12 * (u @ u.T))
    s = psd_sqrt(bumped)
    assert float(np.linalg.eigvalsh(s.entries)[0]) >= 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError) as info:
        psd_sqrt(SymMatrix(np.diag([1.0, -1.0])))
    assert info.value.eigenvalue == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# pinv
# ---------------------------------------------------------------------------

def test_pinv_diagonal_with_zero():
    p = pinv(np.diag([2.0, 0.0]))
    assert np.allclose(p, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_zero_matrix():
    assert np.array_equal(pinv(np.zeros((3, 2))), np.zeros((2, 3)))


def _penrose_residuals(m, p):
    return (
        spectral_norm(m @ p @ m - m),
        spectral_norm(p @ m @ p - p),
        spectral_norm((m @ p).T - m @ p),
        spectral_norm((p @ m).T - p @ m),
    )


def test_pinv_penrose_rank_deficient():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 3))
    p = pinv(m)
    for resid in _penrose_residuals(m, p):
        assert resid < 1e-8


def test_pinv_penrose_many_random():
    rng = np.random.default_rng(17)
    for trial in range(100):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        r = int(rng.integers(1, min(rows, cols) + 1))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        p = pinv(m)
        for j, resid in enumerate(_penrose_residuals(m, p)):
            assert resid < 1e-8, f"trial {trial} shape {m.shape}: condition {j} residual {resid:.3e}"


# ---------------------------------------------------------------------------
# spectral_norm
# ---------------------------------------------------------------------------

def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_diagonal_sign():
    assert spectral_norm(np.diag([-5.0, 2.0])) == pytest.approx(5.0, abs=1e-12)


def _power_iteration_sigma_max(m: np.ndarray, iters: int = 600) -> float:
    """Independent oracle: power iteration on M^T M."""
    g = m.T @ m
    v = np.ones(g.shape[0]) / np.sqrt(g.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = g @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(v @ g @ v)
    return float(np.sqrt(max(lam, 0.0)))


def test_spectral_norm_matches_power_iteration():
    rng = np.random.default_rng(23)
    for trial in range(25):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.standard_normal((rows, cols))
        got = spectral_norm(m)
        want = _power_iteration_sigma_max(m)
        assert got == pytest.approx(want, rel=1e-8), f"trial {trial} shape {m.shape}"


def test_spectral_norm_product_identity():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        lhs = spectral_norm(m @ m.T)
        rhs = spectral_norm(m) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e-170, 2.0**-1000])
def test_spectral_norm_at_extreme_scales(scale):
    # the Gram matrix of the raw input overflows or underflows
    m = np.random.default_rng(31).standard_normal((5, 7))
    want = scale * spectral_norm(m)
    assert spectral_norm(scale * m) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_spectral_norm_empty_axis():
    assert spectral_norm(np.zeros((3, 0))) == 0.0


# ---------------------------------------------------------------------------
# projector
# ---------------------------------------------------------------------------

def test_projector_single_basis_vector():
    p = projector(np.array([[1.0], [0.0], [0.0]]))
    assert np.allclose(p.entries, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_projector_full_rank_square_is_identity():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    p = projector(m)
    assert spectral_norm(p.entries - np.eye(4)) < 1e-9


def test_projector_idempotent_and_fixes_columns():
    rng = np.random.default_rng(37)
    for _ in range(15):
        m = rng.standard_normal((7, 3))
        p = projector(m).entries
        assert spectral_norm(p @ p - p) < 1e-9
        assert spectral_norm(p @ m - m) < 1e-9 * max(spectral_norm(m), 1.0)
        assert spectral_norm(p) == pytest.approx(1.0, abs=1e-9)


def test_projector_zero_matrix():
    p = projector(np.zeros((4, 2)))
    assert np.array_equal(p.entries, np.zeros((4, 4)))
    assert spectral_norm(p.entries) == 0.0


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def test_partition_full_width_tail_is_empty():
    part = partition(SymMatrix(np.diag([3.0, 2.0, 1.0])), 3)
    assert part.u1.shape == (3, 3)
    assert part.eigenvalues[part.k:].size == 0
    assert part.k == 3


def test_partition_u1_owns_its_data(monkeypatch):
    # the n x n eigenvector array is not kept alive by the partition
    solved = []
    monkeypatch.setattr(matcore, "sym_eig", lambda a: solved.append(sym_eig(a)) or solved[-1])
    part = partition(gram_psd(8, np.random.default_rng(43)), 3)
    (_, vecs), = solved
    assert part.u1.shape == (8, 3) and part.u1.flags.owndata
    assert not np.shares_memory(part.u1, vecs)
    assert part.u1.tobytes() == vecs[:, :3].tobytes()


def test_partition_diagonal_blocks():
    part = partition(SymMatrix(np.diag([3.0, 2.0, 1.0])), 1)
    assert np.allclose(part.eigenvalues[:1], [3.0])
    assert np.allclose(part.eigenvalues[1:], [2.0, 1.0])


def test_partition_random_block_invariants():
    rng = np.random.default_rng(41)
    a = gram_psd(8, rng)
    vals, vecs = sym_eig(a)
    part = partition(a, 3)
    u2 = vecs[:, 3:]
    assert spectral_norm(part.u1.T @ part.u1 - np.eye(3)) < 1e-10
    assert spectral_norm(u2.T @ u2 - np.eye(5)) < 1e-10
    assert spectral_norm(part.u1.T @ u2) < 1e-10
    assert np.array_equal(part.eigenvalues, vals)


def test_partition_rejects_bad_k():
    a = SymMatrix(np.eye(3))
    with pytest.raises(ValueError):
        partition(a, 0)
    with pytest.raises(ValueError):
        partition(a, 4)
