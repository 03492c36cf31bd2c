"""The extension itself, its Lanczos error and the two-route error identity."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nystromlab import (
    ColumnSample,
    NotPSDError,
    RngSeed,
    SymMatrix,
    deterministic_bound,
    extract_cw,
    full_rank_tolerance,
    min_eig_gram,
    nystrom_extend,
    partition,
    sample_uniform,
    spectral_norm,
    sqrt_projection_error,
    sym_eigvals,
)
from nystromlab import experiment
from nystromlab.matcore import EPS, PSD_CLAMP_REL, clamp_psd_eigenvalues, lowrank_residual_norm
from nystromlab.sampling import lanczos_start

from helpers import (
    dense_extension,
    eigh_factor,
    gram_psd,
    lanczos_growing,
    mixed_spectrum_cases,
    mp_nystrom_error,
    planted_psd,
)


def test_identity_partial_sample():
    res = nystrom_extend(SymMatrix(np.eye(4)), ColumnSample(n=4, indices=(0, 1)))
    assert np.allclose(dense_extension(res).entries, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)
    assert res.spectral_error == pytest.approx(1.0, abs=1e-12)
    assert res.rank_w == 2
    assert res.psd_violation == 0.0


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
    # scaling A (and so C) by c = 4^k and L^{-1} by 2^-k scales the operator
    # exactly, and the power-of-two scaling inside the routine cancels it
    # bit for bit
    a = _psd_case(n, family, seed)
    res = nystrom_extend(a, _draw_sample(n, seed, full, data))
    index = np.sort(res.sample.indices)
    v = lanczos_start(n)
    theta, r = lowrank_residual_norm(a, v, res.columns, index, res.linv)
    a_c = SymMatrix(np.ldexp(a.entries, 2 * exponent))
    theta_c, r_c = lowrank_residual_norm(
        a_c, v, np.ldexp(res.columns, 2 * exponent), index, np.ldexp(res.linv, -exponent)
    )
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
    index = np.sort(res.sample.indices)
    v = lanczos_start(n)
    args = (res.columns, index, res.linv)
    assert lowrank_residual_norm(a, v, *args) == lanczos_growing(a, v, *args)
    assert lowrank_residual_norm(a, v) == lanczos_growing(a, v)


def test_lanczos_state_matches_the_growing_basis_past_its_first_doubling():
    # a flat spectrum takes many steps, so the arrays are regrown
    n = 120
    a = gram_psd(n, np.random.default_rng(3))
    v = lanczos_start(n)
    assert lowrank_residual_norm(a, v) == lanczos_growing(a, v)
    res = nystrom_extend(a, sample_uniform(n, 30, RngSeed(3, 0)))
    args = (res.columns, np.sort(res.sample.indices), res.linv)
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
    # Peak below the gather of C plus one n x rank_w array: the gather, W,
    # the l x 2l elimination buffer and the Lanczos basis fit, a factor Z
    # next to them does not.
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
