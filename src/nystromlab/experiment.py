"""Monte-Carlo experiment harness: config, trials, summaries, emission.

An experiment fixes one PSD matrix (loaded from a file or planted by the
generators), then repeatedly samples columns, builds the extension, and
records the measured error next to the deterministic and probabilistic
bounds.  Each trial is keyed by ``(master_seed, trial_index)``, so any
record can be reproduced in isolation and the emitted artifact is byte
identical across runs.  Trials run serially; the ``jobs`` setting is
validated and otherwise ignored.

Determinism note: per-trial wall time is measured and kept on the record,
but the emitted ``wall_ms`` column defaults to the ``NA`` token because a
measured duration would break byte-identical reruns; pass
``timings=True`` (CLI ``--timings``) to opt into volatile output.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    _structural_bound,
    chernoff_tail,
    coherence,
    full_rank_tolerance,
    min_eig_gram,
    probabilistic_bound,
    required_samples,
)
from .generators import (
    CoherencePlan,
    SpectrumSpec,
    flat_orthonormal,
    parse_plan,
    parse_spectrum,
    planted_instance,
    random_orthonormal,
    _planted_basis,
)
from .matcore import (
    SpectralPartition,
    SymMatrix,
    clamp_psd_eigenvalues,
    partition,
)
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

# Data lines per np.loadtxt call in load_matrix.
LOAD_CHUNK = 32


class MatrixFileError(ValueError):
    """A matrix file failed to parse or validate.

    ``kind`` is one of ``header``, ``count``, ``value``, ``asymmetry``;
    ``line`` is the 1-based offending line where applicable.
    """

    def __init__(self, message: str, line: int | None, kind: str):
        self.line = line
        self.kind = kind
        super().__init__(message)


class ConfigError(ValueError):
    """An experiment configuration failed validation; names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config error in {field!r}: {message}")


def _lines(fh):
    """The lines of a text file as str.splitlines() finds them in its text.

    Text mode turns CRLF and CR line ends into LF, so splitting each line
    read gives exactly those lines, without holding the whole text at once.
    """
    return (part for line in fh for part in line.splitlines())


def _parse_row(line: str, n: int, lineno: int) -> list[float] | MatrixFileError:
    """The n values ``float()`` reads from one data line, or the
    :class:`MatrixFileError` of its first defect: the token count, an
    unparseable token, then a non-finite value."""
    toks = line.split()
    if len(toks) != n:
        return MatrixFileError(
            f"line {lineno}: expected {n} values, found {len(toks)}", lineno, "count"
        )
    try:
        vals = [float(t) for t in toks]
    except ValueError:
        return MatrixFileError(f"line {lineno}: unparseable numeric value", lineno, "value")
    if not all(map(math.isfinite, vals)):
        return MatrixFileError(f"line {lineno}: non-finite value", lineno, "value")
    return vals


def _store(rows, at: int, block, n: int) -> np.ndarray:
    """Write block into the buffer rows from row at; return the buffer.

    A buffer too short for it is first resized in place to the smallest of
    n, ceil(n/2), ceil(n/4), ... rows that holds it.  ``realloc`` moves a
    large buffer by remapping its pages, and where it must copy, the last
    copy holds at most 1.5 n^2 values at once.
    """
    need = at + len(block)
    if rows is None:
        rows = np.empty((0, n))
    if len(rows) < need:
        size = n
        while need <= size // 2:
            size -= size // 2
        rows.resize((size, n), refcheck=False)  # no view of the buffer exists
    rows[at:need] = block
    return rows


def load_matrix(path) -> SymMatrix:
    """Read the plain-text matrix format.

    Line 1 is the integer dimension n; lines 2..n+1 each carry n
    whitespace-separated reals (row-major), any finite token ``float()``
    reads.  Trailing blank lines are tolerated; everything else raises
    :class:`MatrixFileError` with the offending line number, a byte that is
    not UTF-8 as an unparseable ``value``.

    A regular file and a pipe (``/dev/stdin``) take one read path, once,
    ``LOAD_CHUNK`` data lines at a time.  ``np.loadtxt`` (which rounds like
    ``float()``) parses each chunk; a chunk it refuses is read line by line
    with ``float()``, which also reads the tokens numpy refuses (``1_0``,
    non-ASCII digits).  The rows parsed fill a buffer that grows with them,
    so memory follows the rows the file holds, never its header.  Defects
    are reported in the order header, count of data lines, first bad line.
    """
    with open(path, errors="surrogateescape") as fh:
        lines = _lines(fh)
        head = next(lines, "").strip()
        if not head and not any(s.strip() for s in lines):
            raise MatrixFileError("empty file: expected a dimension header", 1, "header")
        try:
            n = int(head)
        except ValueError:
            raise MatrixFileError(
                f"line 1: expected an integer dimension, got {head!r}", 1, "header"
            ) from None
        if n < 1:
            raise MatrixFileError(f"line 1: dimension must be >= 1, got {n}", 1, "header")
        rows = None  # the parsed rows, allocated on the first store
        last = 1  # the last non-blank line
        defect = None  # the first bad data line's error
        for i in range(0, n, LOAD_CHUNK):
            chunk = list(itertools.islice(lines, min(LOAD_CHUNK, n - i)))
            if not chunk:
                break
            if defect is None and all(s.strip() for s in chunk):
                try:
                    block = np.loadtxt(chunk, dtype=np.float64, comments=None, ndmin=2)
                except ValueError:
                    block = None
                if (block is not None and block.shape == (len(chunk), n)
                        and np.isfinite(block).all()):
                    rows = _store(rows, i, block, n)
                    last = i + 1 + len(chunk)
                    continue
            for lineno, line in enumerate(chunk, i + 2):
                if line.strip():
                    last = lineno
                if defect is None:
                    vals = _parse_row(line, n, lineno)
                    if isinstance(vals, MatrixFileError):
                        defect = vals
                    else:
                        rows = _store(rows, lineno - 2, [vals], n)
        for lineno, line in enumerate(lines, n + 2):
            if line.strip():
                last = lineno
    if last - 1 != n:
        raise MatrixFileError(
            f"expected {n} data lines after the header, found {last - 1}", last, "count"
        )
    if defect is not None:
        raise defect
    rows.flags.writeable = False  # handed over: SymMatrix stores it as is
    try:
        return SymMatrix(rows)
    except ValueError as exc:
        raise MatrixFileError(str(exc), None, "asymmetry") from exc


def save_matrix(a: SymMatrix, path) -> None:
    """Write a matrix in the same plain-text format, round-trip exact.

    Each entry is written as its shortest round-trip ``repr``, one line per
    row, so a saved matrix reads back bit for bit.  Only the upper triangle
    is formatted: ``SymMatrix`` stores ``entries[i, j]`` and ``entries[j, i]``
    equal bit for bit on both of its paths (a copy, or the average
    ``(A + A^T) / 2``, whose IEEE sum is commutative and turns a mirrored
    ``-0.0``/``0.0`` pair into ``0.0``), and equal bits give equal text.
    The text of ``a[i, j]``, ``j > i``, waits in ``pending[j]`` for row j;
    the pending texts peak at about ``n^2 / 4`` strings.
    """
    n = a.n
    pending = [[] for _ in range(n)]
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for i, row in enumerate(a.entries):
            upper = list(map(repr, row[i:].tolist()))
            for later, text in zip(pending[i + 1:], upper[1:]):
                later.append(text)
            fh.write(" ".join(pending[i] + upper) + "\n")
            pending[i] = None


def _check_int(key: str, value, low: int) -> None:
    """Raise ConfigError(key) unless value is an int, not a bool, in [low, 2^64)."""
    if type(value) is not int or not low <= value < 2**64:
        raise ConfigError(key, f"must be an integer in [{low}, 2^64), got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a `trials` run needs, checked field by field on construction.

    Each check raises :class:`ConfigError` named by the config-file key, so
    an invalid config never exists.
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
        for key, value, low in (("n", self.n, 2), ("k", self.k, 1), ("l", self.l, 1),
                                ("trials", self.trials, 1), ("seed", self.master_seed, 0),
                                ("jobs", self.jobs, 1)):
            if value is not None or key not in ("n", "l"):  # n, l: None is allowed
                _check_int(key, value, low)
        for key, value in (("epsilon", self.epsilon), ("delta", self.delta)):
            if not (isinstance(value, float) and 0.0 < value < 1.0):
                raise ConfigError(key, f"must be a number in (0, 1), got {value!r}")
        for key, value in (("matrix", self.matrix_path), ("out", self.out)):
            if value is not None and not isinstance(value, str):
                raise ConfigError(key, f"must be a path string, got {value!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format", f"must be 'csv' or 'json', got {self.fmt!r}")
        if type(self.timings) is not bool:
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


_CONFIG_KEYS = {
    "n", "k", "l", "epsilon", "delta", "trials", "seed", "matrix", "gen",
    "coherence", "lambda1", "out", "format", "jobs", "timings",
}


def config_from_mapping(d: dict) -> ExperimentConfig:
    """Build a config from a plain mapping (the JSON config-file schema).

    Checks the keys and the values parsed here (gen, coherence, lambda1:
    a finite number > 0); :class:`ExperimentConfig` checks every field it
    is given.
    """
    unknown = set(d) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown config key")
    for key in ("k", "trials", "seed"):
        if key not in d:
            raise ConfigError(key, "a value is required")
    for key in ("gen", "coherence", "lambda1"):
        kind = (int, float) if key == "lambda1" else str
        if key in d and (not isinstance(d[key], kind) or isinstance(d[key], bool)):
            what = "a number" if key == "lambda1" else "a string"
            raise ConfigError(key, f"must be {what}, got {d[key]!r}")
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
    l = d.get("l")
    return ExperimentConfig(
        k=d["k"],
        trials=d["trials"],
        master_seed=d["seed"],
        n=d.get("n"),
        epsilon=d.get("epsilon", 0.5),
        delta=d.get("delta", 0.05),
        l=None if l == "auto" else l,
        matrix_path=d.get("matrix"),
        gen=gen,
        coherence=plan,
        out=d.get("out"),
        fmt=d.get("format", "csv"),
        jobs=d.get("jobs", 1),
        timings=d.get("timings", False),
    )


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
    """One sampled trial: measurements, bounds, and success flags.

    ``error_residual`` is the Lanczos residual of ``spectral_error``: the
    true error lies in ``[spectral_error, spectral_error + error_residual]``,
    and ``error_le_bound`` compares the upper end with ``prob_bound``.  It
    is not an artifact column.
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
    """Resolved per-run quantities shared by every trial."""

    a: SymMatrix
    part: SpectralPartition
    n: int
    k: int
    l: int
    l_required: int
    tau: float
    lambda1: float
    lambda_k1: float
    prob_bound: float
    tail: float


def prepare(config: ExperimentConfig) -> ExperimentSetup:
    """Load or plant the matrix and resolve tau, l, and the bounds.

    A planted instance or a ``prob_bound`` that overflows raises
    FloatingPointError naming lambda1.
    """
    if config.matrix_path is not None:
        a = load_matrix(config.matrix_path)
        n = a.n
        if config.n is not None and config.n != n:
            raise ConfigError("n", f"config says n={config.n} but the file has n={n}")
        if config.k > n - 1:
            raise ConfigError("k", f"must be <= n-1 = {n - 1}, got {config.k}")
        part = partition(a, config.k)
        clamp_psd_eigenvalues(part.eigenvalues)  # raises NotPSDError if violated
        tau = coherence(part.u1)
    else:
        seed = RngSeed(config.master_seed, INSTANCE_STREAM)
        a, part, tau = planted_instance(config.gen, config.coherence, seed)
        n = a.n
    lam = part.eigenvalues
    lambda1 = float(lam[0])
    lambda_k1 = float(max(lam[config.k], 0.0))
    l_required = required_samples(config.k, tau, config.delta, config.epsilon)
    l = config.l if config.l is not None else min(l_required, n)
    if not 1 <= l <= n:
        raise ConfigError("l", f"must lie in [1, n={n}], got {l}")
    prob_bound = probabilistic_bound(lambda_k1, n, l, config.epsilon)
    if not math.isfinite(prob_bound):
        raise FloatingPointError(
            f"prob_bound overflows at lambda1={lambda1!r} (lambda_k+1={lambda_k1!r})"
        )
    return ExperimentSetup(
        a=a,
        part=part,
        n=n,
        k=config.k,
        l=l,
        l_required=l_required,
        tau=tau,
        lambda1=lambda1,
        lambda_k1=lambda_k1,
        prob_bound=prob_bound,
        tail=chernoff_tail(config.k, tau, l, config.epsilon),
    )


def run_trial(setup: ExperimentSetup, master_seed: int, t: int) -> TrialRecord:
    """Run one trial; fully determined by (master_seed, t).

    ``min_eig_gram`` is computed once and gives both ``pinv_norm_sq`` and
    ``det_bound``; a ``det_bound`` that overflows raises FloatingPointError.
    """
    t0 = time.perf_counter()
    s = sample_uniform(setup.n, setup.l, RngSeed(master_seed, t))
    res = nystrom_extend(setup.a, s)
    gram_min = min_eig_gram(setup.part.u1, s)
    full_rank = gram_min > full_rank_tolerance(setup.n)
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
        prob_bound=setup.prob_bound,
        min_eig_gram=gram_min,
        pinv_norm_sq=pnsq,
        rank_w=res.rank_w,
        omega1_full_rank=full_rank,
        error_le_bound=res.spectral_error + res.error_residual <= setup.prob_bound,
        wall_ms=wall_ms,
    )


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Run all trials, in index order, and summarize.

    Each trial is keyed by its own (master_seed, index) stream, so the
    records, and hence the emitted artifact, depend on nothing else.
    ``config.jobs`` is validated but ignored: trials run serially, since
    a thread pool ran them slower than one thread.
    """
    setup = prepare(config)
    records = [run_trial(setup, config.master_seed, t) for t in range(config.trials)]
    errors = np.array([r.spectral_error for r in records])
    failures = sum(1 for r in records if not r.error_le_bound)
    deficient = sum(1 for r in records if not r.omega1_full_rank)
    q = np.quantile(errors, [0.0, 0.25, 0.5, 0.75, 1.0])
    summary = {
        "n": setup.n,
        "k": setup.k,
        "l": setup.l,
        "l_required": setup.l_required,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "tau": setup.tau,
        "lambda1": setup.lambda1,
        "lambda_k1": setup.lambda_k1,
        "prob_bound": setup.prob_bound,
        "chernoff_tail": setup.tail,
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
    if isinstance(v, bool):
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
    """Serialize records to CSV (fixed header) or JSON (same field names).

    Numbers use shortest round-trip decimal formatting; inapplicable
    values (det_bound / pinv_norm_sq on rank-deficient trials, wall_ms
    unless ``timings``) are the ``NA`` token in CSV and null in JSON.
    Returns the serialized text; also writes it when ``path`` is given.
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


def _plan_label(plan: CoherencePlan) -> str:
    if plan.target == "spiked":
        return f"spiked:{plan.m}"
    return plan.target


def _auto_l(n: int, k: int, tau: float, epsilon: float) -> int:
    """Pick l so the theoretical tail sits inside [0.01, 0.5] if it can.

    For highly coherent bases the tail exceeds 0.5 at every l <= n; there
    l falls back to ceil(0.6 n), which keeps the sampled fraction high
    without saturating at full sampling.
    """
    denom = (1.0 - epsilon) ** 2
    l_reach_half = 2.0 * k * tau * math.log(k / 0.5) / denom
    if l_reach_half <= n:
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
    """Empirically validate the Gram-eigenvalue tail bound over a grid.

    For each (k, plan, epsilon) grid point, builds the planted dominant
    basis, samples ``trials`` times, counts how often
    ``min_eig_gram <= epsilon * l / n``, and compares the frequency
    against ``chernoff_tail`` at the basis' measured coherence.  Trials
    run serially; ``jobs`` is checked (>= 1) and otherwise ignored.
    """
    _check_int("trials", trials, 1)
    _check_int("jobs", jobs, 1)
    grid = [(k, plan, eps) for k in ks for plan in plans for eps in epsilons]
    if ls is not None and len(ls) not in (1, len(grid)):
        raise ConfigError("l", f"need 1 or {len(grid)} values, got {len(ls)}")
    rows = []
    for p, (k, plan, eps) in enumerate(grid):
        if plan.target == "flat":
            u1 = flat_orthonormal(n, k)
        elif plan.target == "low":
            u1 = random_orthonormal(n, k, RngSeed(master_seed, INSTANCE_STREAM + p))
        else:
            u1 = _planted_basis(n, plan, k, RngSeed(master_seed, INSTANCE_STREAM + p))[:, :k]
        tau = coherence(u1)
        if ls is None:
            l = _auto_l(n, k, tau, eps)
        else:
            l = ls[0] if len(ls) == 1 else ls[p]
        if not 1 <= l <= n:
            raise ConfigError("l", f"must lie in [1, n={n}], got {l}")
        threshold = eps * l / n
        base = p * trials
        hits = sum(
            min_eig_gram(u1, sample_uniform(n, l, RngSeed(master_seed, base + t))) <= threshold
            for t in range(trials)
        )
        tail = chernoff_tail(k, tau, l, eps)
        p_cap = min(tail, 1.0)
        sigma = math.sqrt(p_cap * (1.0 - p_cap) / trials)
        empirical = hits / trials
        rows.append({
            "k": k,
            "plan": _plan_label(plan),
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
