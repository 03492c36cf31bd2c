"""Monte-Carlo experiment harness: config, trials, summaries, emission
(README "trials", "Trials CSV" and "Determinism").  ``load_matrix`` and
``save_matrix`` of :mod:`nystromlab.matfile` are bound here too.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    BoundReport,
    _structural_bound,
    bound_report,
    chernoff_tail,
    coherence,
    full_rank_tolerance,
    min_eig_gram,
)
from .generators import (
    CoherencePlan,
    FlatMatrix,
    SpectrumSpec,
    check_plan,
    parse_plan,
    parse_spectrum,
    plan_basis,
    plan_label,
    planted_instance,
)
from .matcore import (
    EPS,
    SpectralPartition,
    SymMatrix,
    clamp_psd_eigenvalues,
    is_integer,
    is_real,
    partition,
)
from .matfile import MatrixFileError, load_matrix, save_matrix
from .nystrom import nystrom_extend
from .sampling import RngSeed, sample_uniform

# Stream ids at or above this are reserved for instance generation; trial
# streams are the trial indices, far below.
INSTANCE_STREAM = 2**63

CSV_HEADER = (
    "trial,seed,l,k,epsilon,delta,spectral_error,det_bound,prob_bound,"
    "min_eig_gram,pinv_norm_sq,rank_w,omega1_full_rank,error_le_bound,wall_ms"
)

NA = "NA"


class ConfigError(ValueError):
    """An experiment configuration failed validation; names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config error in {field!r}: {message}")


def _check_int(key: str, value, low: int, n: int | None = None) -> int:
    """value as an int, or ConfigError(key) unless it is an integer (the
    integer rule of :func:`matcore.is_integer`) in [low, 2^64), and in
    [low, n] when n is given.  A numpy integer comes back as an int, which
    ``json.dumps`` writes."""
    if n is not None and is_integer(value) and not low <= value <= n:
        raise ConfigError(key, f"must lie in [{low}, n={n}], got {value}")
    if not is_integer(value) or not low <= value < 2**64:
        raise ConfigError(key, f"must be an integer in [{low}, 2^64), got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a `trials` run needs, checked field by field on construction.

    Each check raises :class:`ConfigError` named by the config-file key, so
    an invalid config never exists; a numpy integer is stored as an int.
    """

    k: int
    trials: int
    master_seed: int
    n: int | None = None
    epsilon: float = 0.5
    delta: float = 0.05
    l: int | None = None  # None means auto: min(required_samples, n)
    matrix_path: str | None = None
    gen: SpectrumSpec | None = None
    coherence: CoherencePlan | None = None
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    timings: bool = False

    def __post_init__(self):
        for key, low in (("n", 2), ("k", 1), ("l", 1), ("trials", 1), ("seed", 0), ("jobs", 1)):
            field = _CONFIG_FIELDS[key]
            value = getattr(self, field)
            if value is not None or key not in ("n", "l"):  # n, l: None is allowed
                object.__setattr__(self, field, _check_int(key, value, low))
        for key, value in (("epsilon", self.epsilon), ("delta", self.delta)):
            if not (isinstance(value, float) and 0.0 < value < 1.0):
                raise ConfigError(key, f"must be a number in (0, 1), got {value!r}")
        for key, value in (("matrix", self.matrix_path), ("out", self.out)):
            if value is not None and not isinstance(value, str):
                raise ConfigError(key, f"must be a path string, got {value!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format", f"must be 'csv' or 'json', got {self.fmt!r}")
        if self.timings is not True and self.timings is not False:
            raise ConfigError("timings", f"must be true or false, got {self.timings!r}")
        if (self.matrix_path is None) == (self.gen is None):
            raise ConfigError(
                "matrix", "exactly one matrix source is required: a file path or a generator spec"
            )
        if self.gen is not None:
            if self.coherence is None:
                raise ConfigError("coherence", "a generator spec needs a coherence plan")
            if self.n is None:
                raise ConfigError("n", "a generator spec needs an explicit dimension")
        if self.n is not None and self.k > self.n - 1:
            raise ConfigError("k", f"must be <= n-1 = {self.n - 1}, got {self.k}")


# Config-file keys that are ExperimentConfig fields, with the field names.
_CONFIG_FIELDS = {
    "n": "n", "k": "k", "l": "l", "epsilon": "epsilon", "delta": "delta",
    "trials": "trials", "seed": "master_seed", "matrix": "matrix_path", "out": "out",
    "format": "fmt", "jobs": "jobs", "timings": "timings",
}
_CONFIG_KEYS = {*_CONFIG_FIELDS, "gen", "coherence", "lambda1"}


def _check_plan(plan: CoherencePlan, n: int, k: int) -> None:
    """Raise ConfigError("coherence") where plan cannot be planted at (n, k)."""
    try:
        check_plan(plan, n, k)
    except ValueError as exc:
        raise ConfigError("coherence", str(exc)) from exc


def config_from_mapping(d: dict) -> ExperimentConfig:
    """Build a config from a plain mapping (the JSON config-file schema).

    Checks the keys and the values parsed here (gen, coherence at n and k,
    lambda1); :class:`ExperimentConfig` checks every field it is given.
    """
    unknown = set(d) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config key")
    for key in ("k", "trials", "seed"):
        if key not in d:
            raise ConfigError(key, "a value is required")
    for key in ("gen", "coherence"):
        if key in d and not isinstance(d[key], str):
            raise ConfigError(key, f"must be a string, got {d[key]!r}")
    if "lambda1" in d and not is_real(d["lambda1"]):
        raise ConfigError("lambda1", f"must be a number, got {d['lambda1']!r}")
    if not 0.0 < d.get("lambda1", 1.0) <= sys.float_info.max:  # exact for a big int too
        raise ConfigError("lambda1", f"must be finite and > 0, got {d['lambda1']!r}")
    gen = plan = None
    if "gen" in d:
        # The spectrum is built at (n, k), so those two are checked first.
        _check_int("n", d.get("n"), 2)
        _check_int("k", d["k"], 1)
        try:
            gen = parse_spectrum(d["gen"], d["n"], d["k"], d.get("lambda1", 1.0))
        except ValueError as exc:
            raise ConfigError("gen", str(exc)) from exc
    if "coherence" in d:
        try:
            plan = parse_plan(d["coherence"])
        except ValueError as exc:
            raise ConfigError("coherence", str(exc)) from exc
        if gen is not None:
            _check_plan(plan, d["n"], d["k"])
    # only the keys given, so each default is the one ExperimentConfig declares
    given = {field: d[key] for key, field in _CONFIG_FIELDS.items() if key in d}
    if given.get("l") == "auto":
        given["l"] = None
    return ExperimentConfig(gen=gen, coherence=plan, **given)


def read_config(path) -> dict:
    """The JSON object of a config file; parse errors, and a byte that is
    not UTF-8, carry the line number."""
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    try:
        text.encode()
    except UnicodeEncodeError as exc:  # an escaped byte is a lone surrogate
        line = text.count("\n", 0, exc.start) + 1
        byte = ord(text[exc.start]) - 0xDC00
        raise ConfigError("<config file>", f"line {line}: byte {byte:#04x} is not UTF-8") from exc
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config file>", f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(d, dict):
        raise ConfigError("<config file>", "top-level value must be an object")
    return d


@dataclass(frozen=True)
class TrialRecord:
    """One sampled trial: the fields of README "Trials CSV", plus
    ``error_residual``, the Lanczos residual of ``spectral_error``, which is
    not an artifact column; ``error_le_bound`` compares their sum.
    """

    trial: int
    spectral_error: float
    error_residual: float
    det_bound: float | None
    prob_bound: float
    min_eig_gram: float
    pinv_norm_sq: float | None
    rank_w: int
    omega1_full_rank: bool
    error_le_bound: bool
    wall_ms: float


@dataclass(frozen=True)
class ExperimentSetup:
    """The matrix, its spectrum and the bounds that every trial shares."""

    a: SymMatrix | FlatMatrix
    part: SpectralPartition
    lambda1: float
    lambda_k1: float
    report: BoundReport


def prepare(config: ExperimentConfig) -> ExperimentSetup:
    """Load or plant the matrix, measure tau, and take l and the bounds
    from :func:`analysis.bound_report` at ``lambda_{k+1}``.

    A spectrum (planted or of the matrix file) or a ``prob_bound`` that
    overflows raises FloatingPointError naming lambda1.
    """
    if config.matrix_path is not None:
        a = load_matrix(config.matrix_path)
        n = a.n
        if config.n is not None and config.n != n:
            raise ConfigError("n", f"config says n={config.n} but the file has n={n}")
        if config.k > n - 1:
            raise ConfigError("k", f"must be <= n-1 = {n - 1}, got {config.k}")
        part = partition(a, config.k)
        if not np.isfinite(part.eigenvalues).all():
            lambda1 = float(part.eigenvalues[0])
            raise FloatingPointError(f"the matrix file's spectrum overflows: lambda1={lambda1!r}")
        clamp_psd_eigenvalues(part.eigenvalues)  # raises NotPSDError if violated
        tau = coherence(part.u1)
    else:
        seed = RngSeed(config.master_seed, INSTANCE_STREAM)
        a, part, tau = planted_instance(config.gen, config.coherence, seed)
        n = a.n
    lam = part.eigenvalues
    lambda1 = float(lam[0])
    lambda_k1 = float(max(lam[config.k], 0.0))
    if config.l is not None:
        _check_int("l", config.l, 1, n)
    try:
        report = bound_report(
            n, config.k, tau, config.epsilon, config.delta, config.l, lambda_k1
        )
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc}, lambda1={lambda1!r}") from None
    return ExperimentSetup(a, part, lambda1, lambda_k1, report)


def run_trial(setup: ExperimentSetup, master_seed: int, t: int) -> TrialRecord:
    """Run one trial; fully determined by (master_seed, t).

    ``min_eig_gram`` is computed once and gives both ``pinv_norm_sq`` and
    ``det_bound``; a ``det_bound`` that overflows raises FloatingPointError.
    """
    t0 = time.perf_counter()
    n, bound = setup.a.n, setup.report.prob_bound
    s = sample_uniform(n, setup.report.l, RngSeed(master_seed, t))
    res = nystrom_extend(setup.a, s)
    gram_min = min_eig_gram(setup.part.u1, s)
    full_rank = gram_min > full_rank_tolerance(n)
    if full_rank:
        det = _structural_bound(setup.part, gram_min)
        if not math.isfinite(det):
            raise FloatingPointError(
                f"det_bound overflows at lambda1={setup.lambda1!r} (trial {t})"
            )
        pnsq = 1.0 / gram_min
    else:
        det = None
        pnsq = None
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        trial=t,
        spectral_error=res.spectral_error,
        error_residual=res.error_residual,
        det_bound=det,
        prob_bound=bound,
        min_eig_gram=gram_min,
        pinv_norm_sq=pnsq,
        rank_w=res.rank_w,
        omega1_full_rank=full_rank,
        error_le_bound=(res.spectral_error + res.error_residual
                        <= bound + n * EPS * setup.lambda1),
        wall_ms=wall_ms,
    )


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Run all trials, in index order, and summarize.  Trial t draws from
    stream t of the master seed, so the records depend on nothing else;
    ``config.jobs`` is ignored (README "trials" says why).
    """
    setup = prepare(config)
    records = [run_trial(setup, config.master_seed, t) for t in range(config.trials)]
    errors = np.array([r.spectral_error for r in records])
    failures = sum(1 for r in records if not r.error_le_bound)
    deficient = sum(1 for r in records if not r.omega1_full_rank)
    q = np.quantile(errors, [0.0, 0.25, 0.5, 0.75, 1.0])
    report = setup.report
    summary = {
        "n": setup.a.n,
        "k": report.k,
        "l": report.l,
        "l_required": report.l_required,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "tau": report.tau,
        "lambda1": setup.lambda1,
        "lambda_k1": setup.lambda_k1,
        "prob_bound": report.prob_bound,
        "chernoff_tail": report.chernoff_tail,
        "failures": failures,
        "failure_rate": failures / config.trials,
        "rank_deficient": deficient,
        "rank_deficiency_rate": deficient / config.trials,
        "error_min": float(q[0]),
        "error_q25": float(q[1]),
        "error_median": float(q[2]),
        "error_q75": float(q[3]),
        "error_max": float(q[4]),
    }
    return records, summary


def _cell(v) -> str:
    """One CSV cell: shortest round-trip floats, true/false, NA for None."""
    if v is None:
        return NA
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _emit(columns: list[str], rows: list[dict], doc: dict, fmt: str, path) -> str:
    """Render rows as CSV under ``columns``, or ``doc`` as JSON; write to path."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        raise ConfigError("format", f"must be 'csv' or 'json', got {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text


def _record_row(r: TrialRecord, summary: dict, timings: bool) -> dict:
    """The CSV_HEADER fields of one record; the seed column is the trial index."""
    row = {
        **vars(r),
        "seed": r.trial,
        "wall_ms": r.wall_ms if timings else None,
        **{key: summary[key] for key in ("l", "k", "epsilon", "delta")},
    }
    return {c: row[c] for c in CSV_HEADER.split(",")}


def emit_results(
    records: list[TrialRecord],
    summary: dict,
    fmt: str = "csv",
    path=None,
    timings: bool = False,
) -> str:
    """Serialize records as README "Trials CSV" says, as CSV or JSON, with
    ``wall_ms`` NA unless ``timings``, as a measured time breaks
    byte-identical reruns.  Returns the text, also written to ``path``
    when given.
    """
    rows = [_record_row(r, summary, timings) for r in records]
    doc = {"summary": summary, "records": rows}
    return _emit(CSV_HEADER.split(","), rows, doc, fmt, path)


# ---------------------------------------------------------------------------
# Chernoff tail sweep
# ---------------------------------------------------------------------------

# Auto-chosen l targets this tail value (geometric midpoint of the
# informative window [0.01, 0.5]).
_TAIL_TARGET = math.sqrt(0.01 * 0.5)


def _auto_l(n: int, k: int, tau: float, epsilon: float) -> int:
    """Pick l so the theoretical tail sits inside [0.01, 0.5] if it can,
    else ``ceil(0.6 n)`` (README "chernoff"), which keeps the sampled
    fraction high without saturating at full sampling.
    """
    denom = (1.0 - epsilon) ** 2
    if denom > 0.0 and 2.0 * k * tau * math.log(k / 0.5) / denom <= n:
        l_target = 2.0 * k * tau * math.log(k / _TAIL_TARGET) / denom
        return max(1, min(math.ceil(l_target), n))
    return max(1, math.ceil(0.6 * n))


def chernoff_sweep(
    n: int,
    ks: list[int],
    plans: list[CoherencePlan],
    epsilons: list[float],
    trials: int,
    master_seed: int,
    ls: list[int] | None = None,
    jobs: int = 1,
) -> list[dict]:
    """The rows of the Gram-eigenvalue tail sweep (README "chernoff") over
    the (k, plan, epsilon) grid, in that order.  A value out of its range
    raises ConfigError naming it; a numpy integer counts as the int it
    equals; ``jobs`` changes nothing.
    """
    n, trials = _check_int("n", n, 1), _check_int("trials", trials, 1)
    _check_int("jobs", jobs, 1)
    ks = [_check_int("k", k, 1, n) for k in ks]
    for eps in epsilons:
        if not (is_real(eps) and 0.0 <= eps <= 1.0):
            raise ConfigError("epsilon", f"must lie in [0, 1], got {eps!r}")
    epsilons = [float(eps) for eps in epsilons]  # so that no numpy scalar reaches a row
    grid = [(k, plan, eps) for k in ks for plan in plans for eps in epsilons]
    for k, plan, _ in grid:
        _check_plan(plan, n, k)
    if ls is not None and len(ls) not in (1, len(grid)):
        raise ConfigError("l", f"need 1 or {len(grid)} values, got {len(ls)}")
    if ls is not None:
        ls = [_check_int("l", l, 1, n) for l in ls]
    rows = []
    for p, (k, plan, eps) in enumerate(grid):
        u1 = plan_basis(n, plan, k, RngSeed(master_seed, INSTANCE_STREAM + p))
        tau = coherence(u1)
        if ls is None:
            l = _auto_l(n, k, tau, eps)
        else:
            l = ls[0] if len(ls) == 1 else ls[p]
        threshold = eps * l / n
        base = p * trials
        hits = int(sum(
            min_eig_gram(u1, sample_uniform(n, l, RngSeed(master_seed, base + t))) <= threshold
            for t in range(trials)
        ))
        tail = chernoff_tail(k, tau, l, eps)
        p_cap = min(tail, 1.0)
        sigma = math.sqrt(p_cap * (1.0 - p_cap) / trials)
        empirical = hits / trials
        rows.append({
            "k": k,
            "plan": plan_label(plan),
            "tau": tau,
            "epsilon": eps,
            "l": l,
            "trials": trials,
            "threshold": threshold,
            "failures": hits,
            "empirical_rate": empirical,
            "chernoff_tail": tail,
            "binom_sigma": sigma,
            "dominated": empirical <= tail + 3.0 * sigma,
        })
    return rows


def emit_table(rows: list[dict], fmt: str = "csv", path=None) -> str:
    """Serialize a list of uniform dicts (the chernoff sweep output)."""
    if not rows:
        raise ValueError("no rows to emit")
    return _emit(list(rows[0]), rows, {"rows": rows}, fmt, path)
