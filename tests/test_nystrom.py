"""The extension itself, its Lanczos error and the two-route error identity."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromlab import (
    CoherencePlan,
    ColumnSample,
    FlatMatrix,
    NotPSDError,
    RngSeed,
    SymMatrix,
    deterministic_bound,
    full_rank_tolerance,
    min_eig_gram,
    nystrom_extend,
    partition,
    planted_instance,
    sample_uniform,
    sqrt_projection_error,
    SpectrumSpec,
)
from nystromlab import experiment
from nystromlab.generators import parse_plan, parse_spectrum
from nystromlab.nystrom import GATHER_ROWS, _gather_w, _pivoted_cholesky
from nystromlab.matcore import EPS, PSD_CLAMP_REL, clamp_psd_eigenvalues, lowrank_residual_norm
from nystromlab.sampling import lanczos_start

from helpers import (
    dense,
    dense_extension,
    eigh_factor,
    extract_cw,
    gram_psd,
    lanczos_growing,
    mixed_spectrum_cases,
    mp_nystrom_error,
    pinv,
    pivoted_cholesky_2l,
    pivoted_cholesky_masked,
    planted_psd,
    spectral_norm,
    sym_eigvals,
    traced_peak,
)


def test_identity_partial_sample():
    res = nystrom_extend(SymMatrix(np.eye(4)), ColumnSample(n=4, indices=(0, 1)))
    assert np.allclose(dense_extension(res).entries, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)
    assert res.spectral_error == pytest.approx(1.0, abs=1e-12)
    assert res.rank_w == 2
    assert res.psd_violation == 0.0


def test_nystrom_extend_columns_are_a_bit_exact_gather():
    # Z = C L^{-T} with C = A[:, sorted(S)] bit for bit, whatever the order
    # of the sample
    a = gram_psd(6, np.random.default_rng(8))
    res = nystrom_extend(a, ColumnSample(n=6, indices=(5, 0, 3)))
    assert res.factor.tobytes() == (a.entries[[0, 3, 5]].T @ res.linv.T).tobytes()


def test_nystrom_extend_size_mismatch():
    with pytest.raises(ValueError, match="sample is over n=4 but the matrix has n=3"):
        nystrom_extend(SymMatrix(np.eye(3)), ColumnSample(n=4, indices=(0,)))


def test_rank_one_single_column_exact():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.5, 1.5, size=6) * rng.choice([-1.0, 1.0], size=6)
    a = SymMatrix(np.outer(x, x))
    lam1 = float(x @ x)
    res = nystrom_extend(a, ColumnSample(n=6, indices=(2,)))
    assert res.spectral_error <= 1e-10 * lam1
    assert res.rank_w == 1


def test_planted_rank3_full_sample_recovers():
    rng = np.random.default_rng(4)
    lam = np.array([2.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    a, _, _ = planted_psd(10, lam, rng)
    res = nystrom_extend(a, ColumnSample(n=10, indices=tuple(range(10))))
    assert res.spectral_error <= 1e-9 * lam[0]
    assert res.rank_w == 3


def test_exact_recovery_when_rank_matches():
    # when rank(W) equals rank(A), the extension reproduces A
    rng = np.random.default_rng(6)
    for trial in range(25):
        n = int(rng.integers(6, 14))
        r = int(rng.integers(1, 4))
        lam = np.zeros(n)
        lam[:r] = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
        a, _, _ = planted_psd(n, lam, rng)
        l = min(n, r + 4)
        s = sample_uniform(n, l, RngSeed(77, trial))
        res = nystrom_extend(a, s)
        if res.rank_w == r:
            assert res.spectral_error <= 1e-8 * lam[0], (
                f"trial {trial}: rank matched ({r}) but error "
                f"{res.spectral_error:.3e} vs lambda1 {lam[0]:.3e}"
            )


def test_extension_is_psd():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(3, 16))
        a = gram_psd(n, rng)
        lam1 = spectral_norm(a.entries)
        l = int(rng.integers(1, n + 1))
        res = nystrom_extend(a, sample_uniform(n, l, RngSeed(8, trial)))
        assert res.psd_violation >= -1e-8 * lam1
        ext = dense_extension(res)
        assert np.array_equal(ext.entries, ext.entries.T)


def test_full_sample_drives_error_to_zero():
    rng = np.random.default_rng(12)
    a = gram_psd(9, rng)
    res = nystrom_extend(a, ColumnSample(n=9, indices=tuple(range(9))))
    assert res.spectral_error <= 1e-9 * spectral_norm(a.entries)


def test_not_psd_input_raises():
    with pytest.raises(NotPSDError):
        nystrom_extend(
            SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
            ColumnSample(n=2, indices=(0, 1)),
        )


def test_sqrt_projection_error_identity_single():
    assert sqrt_projection_error(
        SymMatrix(np.eye(3)), ColumnSample(n=3, indices=(1,))
    ) == pytest.approx(1.0, abs=1e-12)


def test_sqrt_projection_error_rank_one_hit():
    a = SymMatrix(np.outer([0.0, 0.0, 2.0], [0.0, 0.0, 2.0]))
    assert sqrt_projection_error(a, ColumnSample(n=3, indices=(2,))) <= 1e-12


def test_sqrt_projection_error_rejects_indefinite():
    with pytest.raises(NotPSDError) as info:
        sqrt_projection_error(SymMatrix(np.diag([1.0, -1.0])), ColumnSample(n=2, indices=(0,)))
    assert (info.value.eigenvalue, info.value.floor) == (-1.0, -PSD_CLAMP_REL)


def test_sqrt_projection_error_clamps_roundoff_negative():
    rng = np.random.default_rng(5)
    a, _, _ = planted_psd(4, [1.0, 0.5, 0.1, 0.0], rng)
    # a tiny negative eigenvalue, still inside the clamp window
    u = np.linalg.eigh(a.entries)[1][:, :1]
    bumped = SymMatrix(a.entries - 1e-12 * (u @ u.T))
    assert float(np.linalg.eigvalsh(bumped.entries)[0]) < 0.0
    s = ColumnSample(n=4, indices=(0, 3))
    assert sqrt_projection_error(bumped, s) == pytest.approx(
        sqrt_projection_error(a, s), abs=1e-10)


def test_sqrt_projection_error_zero_matrix():
    assert sqrt_projection_error(SymMatrix(np.zeros((4, 4))), ColumnSample(n=4, indices=(0, 2))) == 0.0


def test_sqrt_projection_error_zero_column_of_nonzero_matrix():
    # the sampled column of A^(1/2) is 0, so the projector is 0
    a = SymMatrix(np.diag([3.0, 0.0, 0.0]))
    assert sqrt_projection_error(a, ColumnSample(n=3, indices=(1,))) == pytest.approx(3.0, rel=1e-15)


def test_sqrt_projection_error_diagonal_on_axes():
    a = SymMatrix(np.diag([4.0, 9.0, 1.0, 16.0, 2.0]))
    for indices, largest_unsampled in [((3,), 9.0), ((1, 3), 4.0), ((0, 1, 3), 2.0)]:
        e = sqrt_projection_error(a, ColumnSample(n=5, indices=indices))
        assert e == pytest.approx(largest_unsampled, rel=1e-14), indices
    # the rank cutoff is relative to eps, so a 1e-12 direction is kept
    a = SymMatrix(np.diag([1.0, 1e-12, 0.0]))
    assert sqrt_projection_error(a, ColumnSample(n=3, indices=(0,))) == pytest.approx(1e-12, rel=1e-14)
    assert sqrt_projection_error(a, ColumnSample(n=3, indices=(0, 1))) == 0.0


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170, 2.0**-1000])
def test_sqrt_projection_error_at_extreme_scales(scale):
    # entries near 1e+-160 and 2^-1000: the two routes agree within
    # criterion 1's tolerance
    rng = np.random.default_rng(31)
    for label, a in mixed_spectrum_cases(rng, 9):
        a = SymMatrix(scale * a.entries)
        lam1 = spectral_norm(a.entries)
        for l in (1, 4, 9):
            s = sample_uniform(9, l, RngSeed(31, l))
            e_ext = nystrom_extend(a, s).spectral_error
            e_proj = sqrt_projection_error(a, s)
            tol = 1e-8 * max(e_ext, e_proj) + 1e-12 * lam1
            assert abs(e_ext - e_proj) <= tol, (label, l, e_ext, e_proj)


def test_nystrom_extend_overflowing_error_raises():
    # the unsampled block has norm 2e308, past the float64 range
    a = SymMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1e308, 1e308], [0.0, 1e308, 1e308]]))
    with pytest.raises(FloatingPointError, match="overflows"):
        nystrom_extend(a, ColumnSample(n=3, indices=(0,)))


def test_sqrt_projection_error_identity_every_size():
    for l in range(1, 6):
        e = sqrt_projection_error(SymMatrix(np.eye(5)), ColumnSample(n=5, indices=tuple(range(l))))
        assert e == pytest.approx(1.0 if l < 5 else 0.0, abs=1e-14), l


def test_sqrt_projection_error_full_sample():
    rng = np.random.default_rng(31)
    for n in (1, 2, 6, 11):
        for label, a in mixed_spectrum_cases(rng, n):
            lam1 = spectral_norm(a.entries)
            e = sqrt_projection_error(a, ColumnSample(n=n, indices=tuple(range(n))[::-1]))
            assert 0.0 <= e <= 1e-12 * lam1, (n, label, e)


def test_sqrt_projection_error_matches_pseudoinverse_extension():
    # ||A - C W^+ C^T||_2 with a dense pseudoinverse, the identity's left side
    rng = np.random.default_rng(7)
    for trial in range(10):
        a = gram_psd(6, rng)
        s = sample_uniform(6, 1 + trial % 5, RngSeed(7, trial))
        c, w = extract_cw(a, s)
        dense = spectral_norm(a.entries - c @ pinv(w.entries) @ c.T)
        assert sqrt_projection_error(a, s) == pytest.approx(dense, rel=1e-9, abs=1e-12)


def test_sqrt_projection_error_falls_as_the_sample_grows():
    # a larger sample projects onto a larger space, so the error cannot rise
    rng = np.random.default_rng(37)
    for _ in range(15):
        a = gram_psd(7, rng)
        lam1 = spectral_norm(a.entries)
        order = tuple(int(i) for i in rng.permutation(7))
        errors = [sqrt_projection_error(a, ColumnSample(n=7, indices=order[:l])) for l in range(1, 8)]
        assert errors[0] <= lam1 * (1.0 + 1e-12)
        assert all(y <= x + 1e-12 * lam1 for x, y in zip(errors, errors[1:])), errors


def test_error_identity_two_routes_small():
    # moderate version of the acceptance identity check (n <= 12, 60 pairs)
    rng = np.random.default_rng(15)
    pairs = 0
    while pairs < 60:
        n = int(rng.integers(2, 13))
        for _, a in mixed_spectrum_cases(rng, n):
            lam1 = spectral_norm(a.entries)
            l = int(rng.integers(1, n + 1))
            s = sample_uniform(n, l, RngSeed(31, pairs))
            e_ext = nystrom_extend(a, s).spectral_error
            e_proj = sqrt_projection_error(a, s)
            tol = 1e-8 * max(e_ext, e_proj) + 1e-12 * lam1
            assert abs(e_ext - e_proj) <= tol, (
                f"pair {pairs} (n={n}, l={l}): extension route {e_ext!r} "
                f"vs sqrt-projection route {e_proj!r}"
            )
            pairs += 1


def test_error_equals_direct_norm():
    rng = np.random.default_rng(18)
    a = gram_psd(7, rng)
    s = sample_uniform(7, 3, RngSeed(4, 0))
    res = nystrom_extend(a, s)
    direct = spectral_norm(a.entries - dense_extension(res).entries)
    assert res.spectral_error == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_dense_extension_is_built_on_demand():
    rng = np.random.default_rng(21)
    a = gram_psd(8, rng)
    res = nystrom_extend(a, ColumnSample(n=8, indices=(1, 4, 6)))
    assert res.factor.shape == (8, 3)
    assert "extension" not in vars(res) and "psd_violation" not in vars(res)
    assert res.psd_violation <= 0.0
    assert "extension" not in vars(res)
    assert "psd_violation" in vars(res)
    z = res.factor
    ext = dense_extension(res)
    assert np.array_equal(ext.entries, SymMatrix(z @ z.T).entries)
    dense = min(float(np.linalg.eigvalsh(ext.entries)[0]), 0.0)
    # the nonzero spectrum of Z Z^T is that of Z^T Z; the rest is exactly 0
    assert res.psd_violation == min(float(np.linalg.eigvalsh(z.T @ z)[0]), 0.0)
    assert abs(res.psd_violation - dense) <= 8 * a.n * EPS * spectral_norm(z) ** 2


@pytest.mark.parametrize("n,l,rank", [(600, 60, None), (1024, 100, None), (600, 60, 20),
                                      (1024, 100, 40)])
def test_psd_violation_sums_the_gram_over_row_blocks(n, l, rank, monkeypatch):
    # n = 600 and 1024 span 3 and 4 blocks of 8 * GATHER_ROWS rows; at rank
    # below l, W is rank-deficient and Z has fewer columns than C
    g = np.random.default_rng(n + l).standard_normal((n, rank or n + 2))
    a = SymMatrix(g @ g.T / n)
    res = nystrom_extend(a, sample_uniform(n, l, RngSeed(n, 0)))
    assert res.rank_w == l if rank is None else 0 < res.rank_w <= rank
    grams, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: grams.append(m) or eigvalsh(m))
    violation = res.psd_violation
    monkeypatch.undo()
    z = res.factor
    tol = 8 * n * EPS * spectral_norm(z) ** 2
    # the summed Gram is Z^T Z within rounding, entry by entry
    assert len(grams) == 1 and np.abs(grams[0] - z.T @ z).max() <= tol
    want = min(float(np.linalg.eigvalsh(z.T @ z)[0]), 0.0)
    assert abs(violation - want) <= tol


def test_psd_violation_forms_no_n_by_l_array():
    # one block of C's rows and its Z_b: 0.85 n l doubles; the whole C and
    # Z took 2.1
    n, l = 1024, 100
    a = gram_psd(n, np.random.default_rng(6))
    res = nystrom_extend(a, sample_uniform(n, l, RngSeed(1, 0)))
    assert res.rank_w == l
    peak = traced_peak(lambda: res.psd_violation)
    assert peak < n * l * 8, f"peak is {peak / (n * l * 8):.2f} n l doubles"
    assert "factor" not in vars(res)


def test_zero_matrix_has_zero_error():
    res = nystrom_extend(SymMatrix(np.zeros((5, 5))), ColumnSample(n=5, indices=(0, 3)))
    assert (res.spectral_error, res.error_residual, res.rank_w) == (0.0, 0.0, 0)


# ---------------------------------------------------------------------------
# properties of the Lanczos error route on generated PSD inputs

_SCALES = (1.0, 2.0**500, 2.0**-500, 1e150, 1e-150)


def _psd_case(n: int, family: int, seed: int) -> SymMatrix:
    """Family 0-5: the mixed_spectrum_cases families; 6: duplicated columns."""
    rng = np.random.default_rng(seed)
    if family < 6:
        return list(mixed_spectrum_cases(rng, n))[family][1]
    m = max(1, n // 2)
    idx = rng.integers(0, m, size=n)
    return SymMatrix(gram_psd(m, rng).entries[np.ix_(idx, idx)])


_case = dict(
    n=st.integers(1, 30),
    family=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    full=st.booleans(),
    data=st.data(),
)


def _draw_sample(n, seed, full, data) -> ColumnSample:
    l = n if full else data.draw(st.integers(1, n), label="l")
    return sample_uniform(n, l, RngSeed(seed, 0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scale=st.sampled_from(_SCALES), **_case)
def test_lanczos_error_matches_dense_routes(scale, n, family, seed, full, data):
    a = SymMatrix(scale * _psd_case(n, family, seed).entries)
    s = _draw_sample(n, seed, full, data)
    res = nystrom_extend(a, s)
    e, r = res.spectral_error, res.error_residual
    assert e >= 0.0 and r >= 0.0
    lam1 = spectral_norm(a.entries)
    dense = spectral_norm(a.entries - dense_extension(res).entries)
    tol = 1e-8 * max(e, dense) + 1e-12 * lam1  # criterion 1's tolerance
    assert e - tol <= dense <= e + r + tol
    # On near-singular inputs the sqrt route itself can miss the dense value
    # by more than criterion 1 allows; Lanczos must be no further from it.
    proj = sqrt_projection_error(a, s)
    assert abs(e - proj) <= abs(dense - proj) + 1e-8 * max(e, proj) + 1e-12 * lam1
    # rerun and two threads reproduce the same bits
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda _: nystrom_extend(a, s), range(2)))
    assert all((x.spectral_error, x.error_residual) == (e, r) for x in runs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scale=st.sampled_from(_SCALES[1:]), **_case)
def test_lanczos_error_scales_with_the_matrix(scale, n, family, seed, full, data):
    # Families whose W is well conditioned (cond <= 2^30).  With W near
    # singular (families 1, 3 and 6) the extension itself moves with the
    # rounding of c * A and with LAPACK's own rescaling of eigh at extreme
    # norms, by up to 4e-10 * lambda_1; the exact test below covers the
    # Lanczos scaling on those families.
    family = (0, 2, 4, 5)[family % 4]
    a = _psd_case(n, family, seed)
    s = _draw_sample(n, seed, full, data)
    e = nystrom_extend(a, s).spectral_error
    e_scaled = nystrom_extend(SymMatrix(scale * a.entries), s).spectral_error
    # criterion 1's absolute floor, once for each run
    lam1 = spectral_norm(a.entries)
    assert abs(e_scaled / scale - e) <= 1e-12 * e + 2e-12 * lam1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(exponent=st.sampled_from([-250, 250]), **_case)
def test_lanczos_operator_scaling_is_exact(exponent, n, family, seed, full, data):
    # scaling A (and so C = A S) by c = 4^k and L^{-1} by 2^-k scales the
    # operator exactly, and the power-of-two scaling inside the routine
    # cancels it bit for bit
    a = _psd_case(n, family, seed)
    res = nystrom_extend(a, _draw_sample(n, seed, full, data))
    index = np.sort(res.sample.indices)
    v = lanczos_start(n)
    theta, r = lowrank_residual_norm(a, v, index, res.linv)
    a_c = SymMatrix(np.ldexp(a.entries, 2 * exponent))
    theta_c, r_c = lowrank_residual_norm(a_c, v, index, np.ldexp(res.linv, -exponent))
    assert theta_c == math.ldexp(theta, 2 * exponent)
    assert r_c == math.ldexp(r, 2 * exponent)


# ---------------------------------------------------------------------------
# the pivoted Cholesky factor

def _sorted_w(a: SymMatrix, s: ColumnSample) -> SymMatrix:
    """W over the sample sorted by index, the order the factor works in."""
    return extract_cw(a, ColumnSample(s.n, tuple(sorted(s.indices))))[1]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 10), family=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_error_matches_the_mpmath_reference(n, family, seed, data):
    # full-rank W (every sampled column is a pivot) and an error above the
    # rounding floor of the Lanczos stop
    a = _psd_case(n, family, seed)
    s = sample_uniform(n, data.draw(st.integers(1, n - 1), label="l"), RngSeed(seed, 0))
    res = nystrom_extend(a, s)
    lam1 = float(sym_eigvals(a)[0])
    if res.rank_w < s.l:
        return
    ref = mp_nystrom_error(a, s)
    if ref <= 1e-10 * lam1:
        return
    assert abs(res.spectral_error - ref) <= 5e-13 * lam1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(perm=st.permutations(range(30)), **_case)
def test_sample_order_does_not_move_the_result(perm, n, family, seed, full, data):
    a = _psd_case(n, family, seed)
    s = _draw_sample(n, seed, full, data)
    order = [i for i in perm if i < s.l]
    t = ColumnSample(n, tuple(s.indices[i] for i in order))
    x, y = nystrom_extend(a, s), nystrom_extend(a, t)
    assert (x.spectral_error, x.error_residual, x.rank_w) == (
        y.spectral_error, y.error_residual, y.rank_w)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 6), **_case)
def test_error_lies_within_the_structural_bound(k, n, family, seed, full, data):
    a = _psd_case(n, family, seed)
    s = _draw_sample(n, seed, full, data)
    part = partition(a, min(k, n))
    if min_eig_gram(part.u1, s) <= full_rank_tolerance(n):
        return  # the bound does not apply
    err = nystrom_extend(a, s).spectral_error
    assert 0.0 <= err <= deterministic_bound(part, s) + 1e-8


def _not_psd(check):
    """None when ``check()`` passes, else the eigenvalue its NotPSDError names."""
    try:
        check()
    except NotPSDError as exc:
        return exc.eigenvalue
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shift=st.sampled_from([0.0, 0.5, 2.0, 100.0, 1e6, 1e9]), **_case)
def test_not_psd_error_names_the_eigenvalue_of_w(shift, n, family, seed, full, data):
    # A shifted by a multiple of the clamp window: inside it below 1, far
    # below it at the top; W is indefinite only for some samples
    a = _psd_case(n, family, seed)
    lam1 = float(sym_eigvals(a)[0])
    a = SymMatrix(a.entries - shift * PSD_CLAMP_REL * lam1 * np.eye(n))
    s = _draw_sample(n, seed, full, data)
    want = _not_psd(lambda: clamp_psd_eigenvalues(sym_eigvals(_sorted_w(a, s))))
    assert _not_psd(lambda: nystrom_extend(a, s)) == want


def test_not_psd_zero_diagonal_w_is_named():
    # no pivot at all: the Schur remainder is W itself
    a = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotPSDError) as ei:
        nystrom_extend(a, ColumnSample(n=2, indices=(1, 0)))
    assert ei.value.eigenvalue == -1.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_case)
def test_lanczos_state_matches_the_growing_basis(n, family, seed, full, data):
    # the preallocated basis and T keep the arithmetic of the growing ones
    a = _psd_case(n, family, seed)
    res = nystrom_extend(a, _draw_sample(n, seed, full, data))
    v = lanczos_start(n)
    args = (np.sort(res.sample.indices), res.linv)
    assert lowrank_residual_norm(a, v, *args) == lanczos_growing(a, v, *args)
    assert lowrank_residual_norm(a, v) == lanczos_growing(a, v)


def test_lanczos_state_matches_the_growing_basis_past_its_first_doubling():
    # a flat spectrum takes many steps, so the arrays are regrown
    n = 120
    a = gram_psd(n, np.random.default_rng(3))
    v = lanczos_start(n)
    assert lowrank_residual_norm(a, v) == lanczos_growing(a, v)
    res = nystrom_extend(a, sample_uniform(n, 30, RngSeed(3, 0)))
    args = (np.sort(res.sample.indices), res.linv)
    assert lowrank_residual_norm(a, v, *args) == lanczos_growing(a, v, *args)


def test_lanczos_start_is_cached_and_read_only():
    v = lanczos_start(17)
    assert lanczos_start(17) is v and not v.flags.writeable
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)


def test_pivoted_route_agrees_with_the_eigh_route():
    # the eigendecomposition of W, with its own cutoff, gives the same error
    # within criterion 1's tolerance
    rng = np.random.default_rng(24)
    for trial in range(40):
        n = int(rng.integers(2, 16))
        for _, a in mixed_spectrum_cases(rng, n):
            s = sample_uniform(n, int(rng.integers(1, n + 1)), RngSeed(24, trial))
            e = nystrom_extend(a, s).spectral_error
            z = eigh_factor(a, s)
            dense = spectral_norm(a.entries - z @ z.T)
            lam1 = spectral_norm(a.entries)
            assert abs(e - dense) <= 1e-8 * max(e, dense) + 1e-12 * lam1


def test_run_trial_builds_no_factor(monkeypatch):
    seen = []

    def record(a, sample):
        seen.append(nystrom_extend(a, sample))
        return seen[-1]

    monkeypatch.setattr(experiment, "nystrom_extend", record)
    cfg = experiment.config_from_mapping({"n": 64, "k": 2, "l": 20, "trials": 1, "seed": 1,
                                          "gen": "exp:0.5", "coherence": "flat"})
    experiment.run_trial(experiment.prepare(cfg), 1, 0)
    assert len(seen) == 1 and "factor" not in vars(seen[0])


def test_extend_allocates_no_n_by_rank_w_array():
    # Peak below the gather of C plus one n x rank_w array: W, the
    # elimination in it and the Lanczos basis fit, a factor Z next to them
    # does not.
    n, l = 1024, 200
    cfg = experiment.config_from_mapping({"n": n, "k": 16, "l": l, "trials": 1, "seed": 1,
                                          "gen": "exp:0.95", "coherence": "flat"})
    a = experiment.prepare(cfg).a
    s = sample_uniform(n, l, RngSeed(1, 0))
    tracemalloc.start()
    try:
        res = nystrom_extend(a, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.rank_w >= 0.9 * l
    assert peak < 8 * n * (l + res.rank_w), f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# the pivot loop in one l x l array, against the j x 2l oracle

_W_SCALES = (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300)


def _planted_w(source: str, kind: str, n: int, k: int, seed: int) -> np.ndarray:
    """The full W of a planted instance at lambda1 = 1, as trials build it."""
    extra = {"exp-decay": {"rate": 0.7}, "power-law": {"exponent": 1.5}}.get(kind, {})
    spec = SpectrumSpec(kind=kind, n=n, k=k, lambda1=1.0, **extra)
    plan = CoherencePlan(source, m=1)
    a = planted_instance(spec, plan, RngSeed(seed, 0))[0]
    return _gather_w(a, np.arange(n))[:, :n]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(source=st.sampled_from(["flat", "low", "spiked", "psd"]),
       kind=st.sampled_from(["exact-rank-k", "exp-decay", "power-law"]),
       log_n=st.integers(1, 6), family=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from(_W_SCALES), full=st.booleans(), data=st.data())
def test_pivot_loop_matches_the_two_l_wide_oracle(source, kind, log_n, family, seed, scale,
                                                   full, data):
    # flat W has a constant diagonal (every first pivot is a tie),
    # exact-rank-k and duplicated columns (family 6) give rank-deficient W,
    # and near-singular W at 1e-300 has L^{-1} entries whose squares
    # overflow
    n = 2**log_n
    if source == "psd":
        a = _psd_case(n, family, seed).entries
    else:
        k = data.draw(st.integers(1, n), label="k")
        a = _planted_w(source, kind, n, k, seed)
    s = _draw_sample(n, seed, full, data)
    index = np.sort(s.indices)
    w = scale * a[np.ix_(index, index)]
    tol = s.l * EPS * max(float(np.max(w.diagonal())), 0.0)
    g, pivots = pivoted_cholesky_2l(w, tol)
    padded = np.zeros((s.l, -(-s.l // 4) * 4))
    padded[:, :s.l] = w
    h, got, w_rest = _pivoted_cholesky(padded, tol)  # warnings are errors here
    assert list(got) == pivots
    l, piv = s.l, np.zeros(s.l, dtype=bool)
    piv[pivots] = True
    assert h[:, ~piv].tobytes() == g[:, :l][:, ~piv].tobytes()  # F
    assert w_rest.tobytes() == w[np.ix_(~piv, ~piv)].tobytes()
    assert not g[:, l:][:, ~piv].any()
    # L^{-1}; m_i[p] before p's step is +0.0 here and a signed zero in the
    # oracle, so zeros are compared as zeros (x + 0.0 is x for x != 0).
    # For odd l the oracle's gemv rounds its last two positions, the last
    # two of L^{-1}, in the kernel's tail loop (2l is not a multiple of 4).
    m_new, m_old = h + 0.0, g[:, l:] + 0.0
    m_new[:, ~piv] = 0.0
    cols = slice(0, l - 2 if l % 2 else l)
    assert m_new[:, cols].tobytes() == m_old[:, cols].tobytes()


@pytest.mark.parametrize("residue", range(4))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(source=st.sampled_from(["flat", "low", "spiked", "psd"]),
       kind=st.sampled_from(["exact-rank-k", "exp-decay", "power-law"]),
       log_n=st.integers(2, 7), family=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from(_W_SCALES + (2.0**-1060,)), data=st.data())
def test_pivot_loop_matches_the_masked_loop_bit_for_bit(residue, source, kind, log_n, family,
                                                       seed, scale, data):
    # The unmasked loop on a 64-byte aligned W from _gather_w against the
    # masked one on a plain array: same pivots, every byte of h (F, L^{-1}
    # and no tail exemption) and of the remainder.  l = residue mod 4 puts
    # the padded tail, or none, after the last column; near-singular W at
    # 1e-300 and below squares L^{-1} entries to inf at the pivots.
    n = 2**log_n
    if source == "psd":
        a = _psd_case(n, family, seed).entries
    else:
        k = data.draw(st.integers(1, n), label="k")
        a = _planted_w(source, kind, n, k, seed)
    q = data.draw(st.integers(int(residue == 0), (n - residue) // 4), label="q")
    index = np.sort(sample_uniform(n, 4 * q + residue, RngSeed(seed, 0)).indices)
    w = scale * a[np.ix_(index, index)]
    l = len(index)
    tol = l * EPS * max(float(np.max(w.diagonal())), 0.0)
    padded = np.zeros((l, -(-l // 4) * 4))
    padded[:, :l] = w
    h_old, pivots, rest_old = pivoted_cholesky_masked(padded, tol)  # warnings are errors here
    gathered = _gather_w(SymMatrix(w), np.arange(l))
    assert gathered.ctypes.data % 64 == 0
    h, got, rest = _pivoted_cholesky(gathered, tol)
    assert list(got) == list(pivots)
    assert h.tobytes() == h_old.tobytes()
    assert rest.tobytes() == rest_old.tobytes()


# ---------------------------------------------------------------------------
# the flat route: W from f, C by transforms, C gathered only on demand

def _flat(n: int, seed: int = 1) -> FlatMatrix:
    spec = SpectrumSpec(kind="exp-decay", n=n, k=8, lambda1=1.0, rate=0.9)
    a = planted_instance(spec, CoherencePlan("flat"), RngSeed(seed, 0))[0]
    assert isinstance(a, FlatMatrix)
    return a


@pytest.mark.parametrize("l", [1, GATHER_ROWS - 1, GATHER_ROWS, 3 * GATHER_ROWS + 5])
def test_flat_w_is_the_dense_principal_block(l):
    a = _flat(512)
    index = np.sort(sample_uniform(512, l, RngSeed(3, l)).indices)
    w = _gather_w(a, index)
    assert w[:, :l].tobytes() == dense(a).entries[np.ix_(index, index)].tobytes()
    assert w.shape[1] % 4 == 0 and not w[:, l:].any()


@pytest.mark.parametrize("n,l", [(512, 40), (2048, 400)])
def test_flat_columns_by_transforms_lie_within_their_bound(n, l):
    # FlatMatrix's bound: A (S z) within (2 (a + b) + 1) u s ||z||_1 of the
    # exact C z, the gathered product within l u s ||z||_1; first order, so
    # allowed twice over (EPS = 2 u)
    a = _flat(n)
    b = 1 << n.bit_length() // 2
    index = np.sort(sample_uniform(n, l, RngSeed(5, 0)).indices)
    rng = np.random.default_rng(5)
    full = dense(a).entries
    for _ in range(20):
        z = rng.standard_normal(l) * 10.0 ** rng.integers(-3, 4, size=l)
        x = np.zeros(n)
        x[index] = z
        gap = float(np.max(np.abs(a @ x - full[:, index] @ z)))
        bound = (2 * (n // b + b) + 1 + l) * EPS * a.max_diagonal() * float(np.sum(np.abs(z)))
        assert gap <= bound


def test_flat_columns_are_gathered_on_first_read_only():
    a = _flat(512)
    res = nystrom_extend(a, sample_uniform(512, 60, RngSeed(2, 0)))
    assert "factor" not in vars(res)
    index = np.sort(res.sample.indices)
    assert res.factor.tobytes() == (dense(a).entries[index].T @ res.linv.T).tobytes()


def test_flat_extend_peaks_below_half_of_an_l_by_n_block():
    n, l = 4096, 400
    a = _flat(n)
    s = sample_uniform(n, l, RngSeed(1, 0))
    lanczos_start(n)  # cached across trials
    tracemalloc.start()
    try:
        res = nystrom_extend(a, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.rank_w >= 0.5 * l
    assert peak < l * n * 8 / 2, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# the paper's invariants on the instances the CLI plants

@st.composite
def _planted_trials(draw):
    """``(spectrum, plan, n, k, l, seed)`` as ``trials --gen`` takes them:
    flat at powers of two up to 512, low and spiked:m at n up to 256."""
    plan = draw(st.sampled_from(["flat", "low", "spiked"]), label="plan")
    n = 2 ** draw(st.integers(1, 9)) if plan == "flat" else draw(st.integers(2, 256))
    k = draw(st.integers(1, min(n - 1, 12)), label="k")
    if plan == "spiked":
        plan = f"spiked:{draw(st.integers(1, k), label='m')}"
    gen = draw(st.one_of(st.just("exact-rank-k"),
                         st.floats(0.3, 0.95).map(lambda r: f"exp:{r!r}"),
                         st.floats(0.5, 3.0).map(lambda x: f"pow:{x!r}")), label="gen")
    l = draw(st.integers(1, min(n, 3 * k + 8)), label="l")
    return gen, plan, n, k, l, draw(st.integers(0, 2**32 - 1), label="seed")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_planted_trials())
def test_planted_trials_keep_the_papers_invariants(case):
    # 80 examples, 2 of them flat at n = 512, about 2 s.  On an instance
    # planted as `prepare` plants it: the error lies within the structural
    # bound where Omega_1 has full rank, the extension is PSD within the
    # clamp window, an exact-rank-k A is recovered once rank(W) >= k, and
    # at n <= 256 the error matches the sqrt-projection route within
    # criterion 1's tolerance.
    gen, plan, n, k, l, seed = case
    spec = parse_spectrum(gen, n, k)
    a, part, _ = planted_instance(spec, parse_plan(plan), RngSeed(seed, 2**63))
    s = sample_uniform(n, l, RngSeed(seed, 0))
    res = nystrom_extend(a, s)
    e, lam1 = res.spectral_error, float(part.eigenvalues[0])
    floor = n * EPS * lam1
    if min_eig_gram(part.u1, s) > full_rank_tolerance(n):
        assert e <= deterministic_bound(part, s) + floor
    assert res.psd_violation >= -PSD_CLAMP_REL * lam1
    if gen == "exact-rank-k" and res.rank_w >= k:
        assert e <= floor
    if n <= 256:
        proj = sqrt_projection_error(a, s)
        assert abs(e - proj) <= 1e-8 * max(e, proj) + 1e-12 * lam1
