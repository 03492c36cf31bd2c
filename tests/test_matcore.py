"""Core primitives (SymMatrix, the PSD check, Lanczos, partition) and the
eigensolve, pinv and norm oracles of helpers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nystromlab import (
    NotPSDError,
    RngSeed,
    SymMatrix,
    nystrom_extend,
    partition,
    sample_uniform,
)

from nystromlab import matcore
from nystromlab.matcore import (
    EPS,
    PSD_CLAMP_REL,
    check_psd,
    clamp_psd_eigenvalues,
    lowrank_residual_norm,
)
from nystromlab.sampling import LANCZOS_SEED, lanczos_start, rng_from

from helpers import (
    gram_psd,
    mixed_spectrum_cases,
    pinv,
    planted_psd,
    shifted_cholesky_in_place,
    spectral_norm,
    sym_eig,
    sym_eigvals,
    traced_peak,
)


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


@pytest.mark.parametrize("scale", [1.0, 2e307, 1e-300])
def test_symmatrix_average_has_the_bits_of_the_formula(scale):
    # at 2e307 some mirrored pairs sum past the float64 maximum
    g = np.random.default_rng(9).standard_normal((300, 300))
    a = scale * (g + g.T + 1e-12 * g)
    with np.errstate(over="ignore"):
        want = (a + a.T) / 2.0
    over = np.isinf(want)
    assert over.any() == (scale == 2e307)
    want[over] = np.ldexp((np.ldexp(a, -1024) + np.ldexp(a.T, -1024)) / 2.0, 1024)[over]
    assert SymMatrix(a).entries.tobytes() == want.tobytes()


def test_symmatrix_average_holds_one_n_by_n_array():
    n = 1024
    g = np.random.default_rng(7).standard_normal((n, n))
    a = g + g.T + 1e-12 * g
    assert traced_peak(lambda: SymMatrix(a)) <= 1.2 * n * n * 8


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


def test_symmatrix_entries_own_their_buffer_on_every_path():
    # shifted_cholesky_ok can lift the write flag of an array that owns its data
    a = gram_psd(6, np.random.default_rng(5)).entries.copy()
    handed = _handed_over(a)
    asym = a.copy()
    asym[5, 4] = np.nextafter(asym[5, 4], np.inf)
    copied, kept, averaged = SymMatrix(a), SymMatrix(handed), SymMatrix(asym)
    assert not np.shares_memory(copied.entries, a)
    assert kept.entries is handed
    assert averaged.entries.tobytes() != asym.tobytes()
    for m in (copied, kept, averaged):
        assert m.entries.flags.owndata and m.entries.base is None
        assert not m.entries.flags.writeable


def test_symmatrix_checks_finiteness_before_symmetry():
    a = np.full((3, 3), np.inf)
    with pytest.raises(ValueError, match="finite"):
        SymMatrix(a)
    # one bad entry, off the diagonal, in the last and partial tile of rows
    n = 2 * matcore.SYMMETRY_TILE + 3
    for bad in (np.nan, np.inf, -np.inf):
        b = np.eye(n)
        b[n - 1, n - 2] = bad
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(b)


def test_symmatrix_checks_finiteness_without_an_n_by_n_mask():
    # a handed-over symmetric array is stored as is; an n x n bool mask
    # alone would be 1/8 of n^2 doubles
    n = 1024
    g = np.random.default_rng(4).standard_normal((n, n))
    a = _handed_over(g + g.T)
    peak = traced_peak(lambda: SymMatrix(a))
    assert peak < 8 * n * n / 16, f"peak {peak / (8 * n * n):.4f} n^2 doubles"


# ---------------------------------------------------------------------------
# sym_eig and sym_eigvals (the reference oracles in helpers)
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


def test_lanczos_norm_past_the_float64_range_raises():
    # ||A||_2 = 2e308 is finite in the scaled recurrence but not unscaled
    with pytest.raises(FloatingPointError, match="overflows"):
        lowrank_residual_norm(SymMatrix(np.full((2, 2), 1e308)), lanczos_start(2))


@pytest.mark.parametrize("n", [2, 8])
def test_lanczos_product_does_not_overflow(n):
    # at n = 8 the unscaled A x overflows; the norm itself still does not fit
    a = SymMatrix(np.full((n, n), 1.5e308))
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match="Lanczos norm overflows"):
            lowrank_residual_norm(a, lanczos_start(n))


@pytest.mark.parametrize("n", [1, 100, matcore.DOT_CHUNK, matcore.DOT_CHUNK + 1,
                               3 * matcore.DOT_CHUNK - 5])
def test_stable_dot_is_one_blas_dot_up_to_its_chunk(n):
    # up to DOT_CHUNK elements the sum is the one dot, so the start vector
    # and the Lanczos sums keep their bits there; beyond it, the chunks'
    # dots (each short enough for one BLAS thread) are added in order
    x, y = np.random.default_rng(n).standard_normal((2, n))
    c = matcore.DOT_CHUNK
    want = x[:c] @ y[:c]
    for i in range(c, n, c):
        want += x[i:i + c] @ y[i:i + c]
    assert matcore._stable_dot(x, y) == float(want)
    if n <= c:
        assert matcore._stable_dot(x, y) == float(x @ y)
        v = rng_from(LANCZOS_SEED).standard_normal(n)
        assert lanczos_start(n).tobytes() == (v / np.linalg.norm(v)).tobytes()


def _exact_at(x, s: int) -> bool:
    """True when x scaled by 2**s scales back to x: nothing over- or underflows."""
    return np.array_equal(np.ldexp(np.ldexp(x, s), -s), x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 24),
    family=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(-450, 450),
    l=st.integers(1, 24),
)
def test_lanczos_results_scale_exactly_by_a_power_of_two(n, family, seed, t, l):
    # A -> 2^s A (so C = A S -> 2^s C) and M -> 2^(-s/2) M scale the
    # operator by 2^s; theta and r then scale by exactly 2^s, with and
    # without the C term
    s = 2 * t
    a = list(mixed_spectrum_cases(np.random.default_rng(seed), n))[family][1]
    sample = sample_uniform(n, min(l, n), RngSeed(seed, 0))
    res = nystrom_extend(a, sample)
    index = np.sort(sample.indices)
    args = (index, res.linv)
    scaled_args = (index, np.ldexp(res.linv, -t))
    assume(_exact_at(a.entries, s) and _exact_at(res.linv, -t))
    scaled = SymMatrix(np.ldexp(a.entries, s))
    for plain, times in (((), ()), (args, scaled_args)):
        want = lowrank_residual_norm(a, lanczos_start(n), *plain)
        assume(_exact_at(np.array(want), s))
        got = lowrank_residual_norm(scaled, lanczos_start(n), *times)
        assert got == (math.ldexp(want[0], s), math.ldexp(want[1], s))


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


def test_check_psd_holds_no_copy_of_a_triangle():
    # one factor panel or strip product: 0.276 n^2 doubles at n = 1024, plus 10%
    n = 1024
    a = gram_psd(n, np.random.default_rng(6))
    assert traced_peak(lambda: check_psd(a)) <= 0.304 * n * n * 8


def test_check_psd_solves_the_panel_in_blocks():
    # the diagonal factor beside one solved block of 2 * CHOLESKY_BLOCK panel
    # rows: 0.190 n^2 doubles at n = 1024, plus 5%; whole-panel solves took 0.276
    n = 1024
    a = gram_psd(n, np.random.default_rng(6))
    assert traced_peak(lambda: check_psd(a)) <= 0.2 * n * n * 8


_RESTORE_NS = [200, matcore.CHOLESKY_BLOCK + 1, 600]


def _subnormal_psd(n: int) -> SymMatrix:
    """An exactly PSD matrix of rank n / 3 whose entries are integer
    multiples of the smallest subnormal: Cholesky rejects it through
    rounding, and the eigenvalues accept it."""
    g = np.random.default_rng(n).integers(-3, 4, size=(n, n // 3))
    return SymMatrix(np.ldexp((g @ g.T).astype(np.float64), -1074))


def _assert_left_as_it_was(a: SymMatrix, before: bytes) -> None:
    assert a.entries.tobytes() == before
    assert not a.entries.flags.writeable and a.entries.flags.owndata


@pytest.mark.parametrize("n", _RESTORE_NS)
def test_check_psd_leaves_the_entries_as_they_were(n, monkeypatch):
    psd = gram_psd(n, np.random.default_rng(n))
    indefinite = psd.entries.copy()
    indefinite[-1, -1] = -1.0  # decided in the last block, after every update
    indefinite = SymMatrix(indefinite)
    subnormal = _subnormal_psd(n)
    eigvalsh = np.linalg.eigvalsh
    fallbacks = []

    def spy(x):
        fallbacks.append(n)
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for a, refused in ((psd, False), (indefinite, True), (subnormal, False)):
        before = a.entries.tobytes()
        if refused:
            with pytest.raises(NotPSDError):
                check_psd(a)
        else:
            check_psd(a)
        _assert_left_as_it_was(a, before)
    assert len(fallbacks) == 2  # the indefinite and the subnormal matrix
    zeros = SymMatrix(np.zeros((3, 3)))
    check_psd(zeros)
    _assert_left_as_it_was(zeros, np.zeros((3, 3)).tobytes())
    assert len(fallbacks) == 3


@pytest.mark.parametrize("n, name, call", [
    (200, "cholesky", 1),
    (matcore.CHOLESKY_BLOCK + 1, "solve", 1),
    (matcore.CHOLESKY_BLOCK + 1, "cholesky", 2),
    (600, "solve", 2),
    (600, "cholesky", 3),
])
def test_check_psd_leaves_the_entries_as_they_were_when_a_step_raises(
        n, name, call, monkeypatch):
    # the given call of np.linalg.<name> raises: the last of its calls, after
    # the diagonal shift and, from the second block on, the trailing updates
    a = gram_psd(n, np.random.default_rng(n))
    before = a.entries.tobytes()
    step = getattr(np.linalg, name)
    calls = []

    def raising(*args):
        calls.append(name)
        if len(calls) == call:
            raise RuntimeError("interrupted")
        return step(*args)

    monkeypatch.setattr(np.linalg, name, raising)
    with pytest.raises(RuntimeError, match="interrupted"):
        check_psd(a)
    _assert_left_as_it_was(a, before)


def test_shifted_cholesky_ok_leaves_a_writeable_array_writeable():
    m = gram_psd(600, np.random.default_rng(9)).entries.copy()
    before = m.tobytes()
    assert matcore.shifted_cholesky_ok(m, 0.0)
    assert m.tobytes() == before and m.flags.writeable


@pytest.mark.parametrize("n", [255, 256, 257, 600, 1024])
def test_shifted_cholesky_ok_decides_as_the_in_place_factorization(n):
    rng = np.random.default_rng(n)
    psd = gram_psd(n, rng).entries
    g = rng.standard_normal((n, n // 2))
    deficient = g @ g.T  # rank n / 2
    indefinite = psd.copy()
    indefinite[0, 0] = -1.0
    for m in (psd, deficient, indefinite):
        for shift in (0.0, PSD_CLAMP_REL * float(np.max(np.diagonal(m)))):
            assert matcore.shifted_cholesky_ok(m, shift) is shifted_cholesky_in_place(m, shift)


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


@pytest.mark.parametrize("n", [200, matcore.CHOLESKY_BLOCK + 1, 600, 1100])
def test_shifted_cholesky_ok_writes_only_below_the_diagonal_blocks(n, monkeypatch):
    # at every Cholesky and every solve, m's diagonal blocks and strict upper
    # triangle hold their input bytes; only the panels below are written
    m = gram_psd(n, np.random.default_rng(n)).entries.copy()
    before = m.copy()
    b = matcore.CHOLESKY_BLOCK
    kept = np.triu(np.ones((n, n), dtype=bool))
    for j in range(0, n, b):
        kept[j:j + b, j:j + b] = True
    calls = []

    def checked(name):
        step = getattr(np.linalg, name)

        def call(*args):
            calls.append(name)
            assert m.view(np.int64)[kept].tobytes() == before.view(np.int64)[kept].tobytes()
            return step(*args)
        return call

    for name in ("cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, checked(name))
    assert matcore.shifted_cholesky_ok(m, 0.5)
    assert calls.count("cholesky") == -(-n // b)
    assert calls.count("solve") == sum(-(-(n - e) // (2 * b)) for e in range(b, n, b))
    assert m.tobytes() == before.tobytes()


class _Products(np.ndarray):
    """An array that records the inner dimension of every ``@`` it starts."""

    inner: list = []

    def __matmul__(self, other):
        _Products.inner.append(self.shape[-1])
        return super().__matmul__(other)


@pytest.mark.parametrize("n, inner", [
    (matcore.CHOLESKY_BLOCK, []),
    (600, [256, 256, 512]),
])
def test_shifted_cholesky_ok_forms_no_empty_product(n, inner):
    # the first block has no factor columns to its left, so it forms no
    # product: a one-block matrix is the one Cholesky; at n = 600 the second
    # block's diagonal and panel and the third block's diagonal each form one
    m = gram_psd(n, np.random.default_rng(n)).entries.copy().view(_Products)
    _Products.inner = []
    assert matcore.shifted_cholesky_ok(m, 0.0)
    assert _Products.inner == inner


def test_check_psd_falls_back_to_the_eigenvalues():
    # Cholesky rejects the zero matrix; the eigenvalues accept it
    check_psd(SymMatrix(np.zeros((3, 3))))
    with pytest.raises(NotPSDError) as info:
        check_psd(SymMatrix(np.diag([1.0, -1.0])))
    assert (info.value.eigenvalue, info.value.floor) == (-1.0, -PSD_CLAMP_REL)


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
# spectral_norm (the reference oracle in helpers)
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
# partition
# ---------------------------------------------------------------------------

def test_partition_full_width_tail_is_empty():
    part = partition(SymMatrix(np.diag([3.0, 2.0, 1.0])), 3)
    assert part.u1.shape == (3, 3)
    assert part.eigenvalues[part.k:].size == 0
    assert part.k == 3


def test_partition_u1_owns_its_data(monkeypatch):
    # the n x n eigenvector array is not kept alive by the partition
    solved, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(eigh(a)) or solved[-1])
    part = partition(gram_psd(8, np.random.default_rng(43)), 3)
    (vals, vecs), = solved
    assert part.u1.shape == (8, 3) and part.u1.flags.owndata
    assert not np.shares_memory(part.u1, vecs)
    assert part.u1.tobytes() == vecs[:, np.argsort(-vals, kind="stable")[:3]].tobytes()


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
