"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test also asserts, so a plain pytest run fails loudly on any
violated criterion.
"""

import math
import time

import numpy as np

from nystromlab import (
    CoherencePlan,
    ExperimentConfig,
    RngSeed,
    SpectrumSpec,
    coherence,
    deterministic_bound,
    emit_results,
    flat_orthonormal,
    full_rank_tolerance,
    min_eig_gram,
    nystrom_extend,
    partition,
    random_orthonormal,
    run_experiment,
    sample_uniform,
    sqrt_projection_error,
)
from nystromlab.experiment import chernoff_sweep, emit_table
from nystromlab.generators import _planted_basis

from helpers import (
    GapViolatedError,
    davis_kahan_bound,
    davis_kahan_distance,
    dense_extension,
    gram_psd,
    haar,
    mixed_spectrum_cases,
    pinv,
    spectral_norm,
    sym_eig,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_error_identity_two_routes():
    """Extension error equals the squared sqrt-projection residual."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    pairs = 0
    worst = 0.0
    ok = True
    while pairs < 200:
        n = int(rng.integers(2, 31))
        for _, a in mixed_spectrum_cases(rng, n):
            lam1 = spectral_norm(a.entries)
            l = int(rng.integers(1, n + 1))
            s = sample_uniform(n, l, RngSeed(501, pairs))
            e_ext = nystrom_extend(a, s).spectral_error
            e_proj = sqrt_projection_error(a, s)
            gap = abs(e_ext - e_proj)
            tol = 1e-8 * max(e_ext, e_proj) + 1e-12 * lam1
            worst = max(worst, gap - tol)
            if gap > tol:
                ok = False
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(
        1,
        "two-route error identity",
        ok,
        f"{pairs} pairs, worst slack excess {worst:.3e}, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_deterministic_bound_dominates():
    """Structural bound dominates the measured error whenever it applies."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    pairs = 0
    checked = 0
    violations = 0
    while pairs < 200:
        n = int(rng.integers(3, 31))
        for _, a in mixed_spectrum_cases(rng, n):
            pairs += 1
            k = int(rng.integers(1, min(n, 7)))
            part = partition(a, k)
            l = int(rng.integers(k, n + 1))
            s = sample_uniform(n, l, RngSeed(502, pairs))
            if min_eig_gram(part.u1, s) <= full_rank_tolerance(n):
                continue
            err = nystrom_extend(a, s).spectral_error
            b = deterministic_bound(part, s)
            checked += 1
            if err > b + 1e-8:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked >= 100
    _verdict(
        2,
        "structural bound domination",
        ok,
        f"{checked} full-row-rank samples of {pairs} pairs, "
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_exact_rank_recovery_rate():
    """Exact-rank-k instance at the prescribed sample size: recovery w.p. >= 1 - delta."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        k=4,
        trials=400,
        master_seed=303,
        n=256,
        epsilon=0.5,
        delta=0.05,
        gen=SpectrumSpec(kind="exact-rank-k", n=256, k=4),
        coherence=CoherencePlan(target="flat"),
        jobs=4,
    )
    records, summary = run_experiment(cfg)
    lam1 = summary["lambda1"]
    failing = [r for r in records if r.spectral_error > 1e-8 * lam1]
    rate = len(failing) / len(records)
    # 0.05 plus three binomial sigmas at 400 trials
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 400)
    coincide = all(not r.omega1_full_rank for r in failing)
    elapsed = time.perf_counter() - t0
    ok = summary["l"] == summary["l_required"] == 141
    ok = ok and rate <= limit and coincide and elapsed < 300.0
    _verdict(
        3,
        "exact-rank recovery",
        ok,
        f"l={summary['l']} (required {summary['l_required']}), "
        f"{len(failing)}/400 failures (rate {rate:.4f} <= {limit:.3f}), "
        f"failures all rank-deficient: {coincide}, {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_4_probabilistic_bound_rate():
    """Decaying spectrum at the prescribed sample size: error below the bound w.p. >= 1 - delta."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        k=4,
        trials=400,
        master_seed=304,
        n=256,
        epsilon=0.5,
        delta=0.05,
        gen=SpectrumSpec(kind="exp-decay", n=256, k=4, rate=0.5),
        coherence=CoherencePlan(target="flat"),
        jobs=4,
    )
    records, summary = run_experiment(cfg)
    rate = summary["failure_rate"]
    limit = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 400)
    elapsed = time.perf_counter() - t0
    ok = summary["l"] == 141 and rate <= limit and elapsed < 300.0
    _verdict(
        4,
        "probabilistic bound coverage",
        ok,
        f"l={summary['l']}, prob_bound={summary['prob_bound']:.4f}, "
        f"{summary['failures']}/400 above bound (rate {rate:.4f} <= {limit:.3f}), "
        f"{elapsed:.1f}s (budget 300s)",
    )


def test_criterion_5_chernoff_tail_validation():
    """Gram-eigenvalue tail bound dominates empirical rates across a grid."""
    t0 = time.perf_counter()
    rows = chernoff_sweep(
        n=128,
        ks=[2, 4],
        plans=[CoherencePlan(target="flat"), CoherencePlan(target="spiked", m=1)],
        epsilons=[0.25, 0.5],
        trials=2000,
        master_seed=305,
        jobs=4,
    )
    dominated = all(r["dominated"] for r in rows)
    flat_rows = [r for r in rows if r["plan"] == "flat"]
    informative = all(0.01 <= r["chernoff_tail"] <= 0.5 for r in flat_rows)
    elapsed = time.perf_counter() - t0
    ok = dominated and informative and len(rows) == 8 and elapsed < 600.0
    worst = max((r["empirical_rate"] - r["chernoff_tail"]) for r in rows)
    _verdict(
        5,
        "tail bound validation",
        ok,
        f"8 grid points x 2000 trials, dominated everywhere: {dominated}, "
        f"flat tails informative: {informative}, "
        f"max (empirical - tail) = {worst:.4f}, {elapsed:.1f}s (budget 600s)",
    )


def test_criterion_6_coherence_properties():
    """Coherence: range, rotation invariance, worst case achieved."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    range_ok = True
    invariance_ok = True
    for t in range(1000):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, min(n, 8) + 1))
        u = haar(n, k, rng)
        mu = coherence(u)
        if not (1.0 - 1e-9 <= mu <= n / k + 1e-9):
            range_ok = False
        if t % 10 == 0:
            q = haar(k, k, rng)
            if abs(coherence(u @ q) - mu) > 1e-9 * mu:
                invariance_ok = False
    flat_ok = all(
        abs(coherence(flat_orthonormal(n, k)) - 1.0) <= 1e-9
        for n, k in [(16, 2), (64, 8), (256, 4)]
    )
    spiked_ok = True
    for t in range(20):
        n = int(2 ** rng.integers(3, 7))
        k = int(rng.integers(1, 6))
        u = _planted_basis(n, CoherencePlan(target="spiked", m=1), k, RngSeed(506, t))
        if abs(coherence(u[:, :k]) - n / k) > 1e-8:
            spiked_ok = False
    elapsed = time.perf_counter() - t0
    ok = range_ok and invariance_ok and flat_ok and spiked_ok
    _verdict(
        6,
        "coherence properties",
        ok,
        f"1000 bases in range: {range_ok}, rotation-invariant: {invariance_ok}, "
        f"flat = 1: {flat_ok}, spiked = n/k: {spiked_ok}, {elapsed:.1f}s",
    )


def test_criterion_7_subspace_distance_bound():
    """Perturbation bound dominates the measured dominant-subspace distance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    checked = 0
    violations = 0
    trial = 0
    while checked < 100:
        trial += 1
        n = int(rng.integers(5, 25))
        k = int(rng.integers(1, min(n - 1, 5) + 1))
        a = gram_psd(n, rng)
        vals, vecs = sym_eig(a)
        lam1 = float(vals[0])
        if float(vals[k - 1] - vals[k]) <= 1e-6 * lam1:
            continue  # dominant subspace of A not well determined
        l = int(rng.integers(max(k + 1, n - 4), n + 1))
        s = sample_uniform(n, l, RngSeed(507, trial))
        res = nystrom_extend(a, s)
        try:
            b = davis_kahan_bound(a, dense_extension(res), k=k)
        except GapViolatedError:
            continue
        vals_t, vecs_t = sym_eig(dense_extension(res))
        if float(vals[k - 1] - vals_t[k]) <= 1e-6 * lam1:
            continue
        d = davis_kahan_distance(vecs[:, :k], vecs_t[:, :k])
        checked += 1
        if d > b + 1e-8:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _verdict(
        7,
        "subspace distance bound",
        ok,
        f"{checked} open-gap pairs, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_8_psd_preservation_and_pinv():
    """Extensions stay PSD; the pseudo-inverse satisfies all four defining identities."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    psd_ok = True
    count = 0
    while count < 200:
        n = int(rng.integers(2, 25))
        for _, a in mixed_spectrum_cases(rng, n):
            lam1 = spectral_norm(a.entries)
            l = int(rng.integers(1, n + 1))
            res = nystrom_extend(a, sample_uniform(n, l, RngSeed(508, count)))
            if res.psd_violation < -1e-8 * max(lam1, 1.0):
                psd_ok = False
            count += 1
    penrose_ok = True
    for t in range(100):
        r = int(rng.integers(1, 13))
        c = int(rng.integers(1, 13))
        m = rng.standard_normal((r, c))
        if t % 3 == 0:  # force rank deficiency
            m[:, c // 2 :] = m[:, : c - c // 2] if c > 1 else m[:, :1]
        p = pinv(m)
        scale = max(1.0, spectral_norm(m))
        checks = (
            spectral_norm(m @ p @ m - m),
            spectral_norm(p @ m @ p - p),
            spectral_norm((m @ p).T - m @ p),
            spectral_norm((p @ m).T - p @ m),
        )
        if max(checks) > 1e-8 * scale:
            penrose_ok = False
    elapsed = time.perf_counter() - t0
    ok = psd_ok and penrose_ok
    _verdict(
        8,
        "PSD preservation and pseudo-inverse identities",
        ok,
        f"{count} extensions PSD: {psd_ok}, 100 Penrose checks: {penrose_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_byte_identical_artifacts():
    """The trials CSV is byte-identical across two runs at jobs=1 and one at
    jobs=4, and the Chernoff-sweep CSV across jobs=1 and jobs=3."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        k=2,
        trials=60,
        master_seed=909,
        n=64,
        l=20,
        gen=SpectrumSpec(kind="exp-decay", n=64, k=2, rate=0.5),
        coherence=CoherencePlan(target="low"),
    )
    texts = []
    for jobs in (1, 1, 4):
        records, summary = run_experiment(
            ExperimentConfig(**{**cfg.__dict__, "jobs": jobs})
        )
        texts.append(emit_results(records, summary, fmt="csv"))
    trials_ok = texts[0] == texts[1] == texts[2]
    sweeps = []
    for jobs in (1, 3):
        rows = chernoff_sweep(
            n=32,
            ks=[2],
            plans=[CoherencePlan(target="low")],
            epsilons=[0.5],
            trials=100,
            master_seed=909,
            jobs=jobs,
        )
        sweeps.append(emit_table(rows, fmt="csv"))
    sweep_ok = sweeps[0] == sweeps[1]
    elapsed = time.perf_counter() - t0
    ok = trials_ok and sweep_ok
    _verdict(
        9,
        "byte-identical artifacts",
        ok,
        f"trials CSV identical across reruns and jobs: {trials_ok}, "
        f"sweep CSV identical: {sweep_ok}, {elapsed:.1f}s",
    )
