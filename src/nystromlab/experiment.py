"""Monte-Carlo experiment harness: config, trials, summaries, emission.

An experiment fixes one PSD matrix (loaded from a file or planted by the
generators), then repeatedly samples columns, builds the extension, and
records the measured error next to the deterministic and probabilistic
bounds.  Each trial is keyed by ``(master_seed, trial_index)``, so any
record can be reproduced in isolation and the emitted artifact is byte
identical across runs.
"""

from __future__ import annotations

import codecs
import contextlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
    SpectrumSpec,
    check_plan,
    flat_orthonormal,
    parse_plan,
    parse_spectrum,
    planted_instance,
    random_orthonormal,
    _planted_basis,
)
from .matcore import (
    EPS,
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
# The most bytes load_matrix reads at once: a longer line is read in pieces.
READ_BYTES = 1 << 20
# load_matrix parses a regular file at least this large in two processes.
# A worker takes about 0.2 s to start, as long as parsing SPLIT_BYTES / 2
# takes; so the parent takes that much more of the file than the worker,
# and a smaller file would leave the worker almost nothing.
SPLIT_BYTES = 20 << 20


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


# str.splitlines() ends a line at each of these.
_BREAKS = tuple("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _lines(fb, size: int = -1):
    """The lines str.splitlines() finds in the next size bytes of the binary
    file fb (all of them for a negative size), decoded as UTF-8 with each
    byte that is not UTF-8 kept as a lone surrogate.

    fb is read by LF-ended lines of at most ``READ_BYTES`` bytes, each
    decoded and split on its own: an LF byte ends a line in UTF-8 text and
    belongs to no other line end, so these are the lines of the whole text.
    A read cut short keeps a CR LF together, and the line it leaves open
    is carried into the next read, so a file with other line ends is not
    held at once either.  size must end at a line.
    """
    decode = codecs.getincrementaldecoder("utf-8")("surrogateescape").decode
    part = []  # the pieces of a line not yet ended
    while size:
        raw = fb.readline(READ_BYTES if size < 0 else min(size, READ_BYTES))
        if raw.endswith(b"\r") and fb.peek(1)[:1] == b"\n":  # keep a CR LF whole
            raw += fb.read(1)
        size -= len(raw)
        text = decode(raw, final=not raw)
        lines = text.splitlines()
        ended = not raw or text.endswith(_BREAKS)
        tail = None if ended else (lines.pop() if lines else "")
        if part and (lines or ended):
            lines[:1] = ["".join(part) + (lines[0] if lines else "")]
            part = []
        if tail is not None:
            part.append(tail)
        yield from lines
        if not raw:
            return


def _parse_row(line: str, n: int) -> list[float] | tuple[str, str]:
    """The n values ``float()`` reads from one data line, or the kind and
    text of its first defect: the token count, an unparseable token, then
    a non-finite value."""
    toks = line.split()
    if len(toks) != n:
        return "count", f"expected {n} values, found {len(toks)}"
    try:
        vals = [float(t) for t in toks]
    except ValueError:
        return "value", "unparseable numeric value"
    if not all(map(math.isfinite, vals)):
        return "value", "non-finite value"
    return vals


def _reserve(rows, need: int, n: int) -> np.ndarray:
    """The buffer rows with room for need rows of n values.

    A buffer too short is resized in place to the smallest of n, ceil(n/2),
    ceil(n/4), ... rows that holds them.  ``realloc`` moves a large buffer
    by remapping its pages, and where it must copy, the last copy holds at
    most 1.5 n^2 values at once.
    """
    if rows is None:
        rows = np.empty((0, n))
    if len(rows) < need:
        size = n
        while need <= size // 2:
            size -= size // 2
        rows.resize((size, n), refcheck=False)  # no view of the buffer exists
    return rows


class _Span(NamedTuple):
    """What :func:`_read_span` found in a run of lines.  Indices count
    lines from 1 at the span's first line; ``last`` is that of the last
    non-blank line (0 if none), and ``defect`` is ``(index, kind, detail)``
    for the first bad data line."""

    rows: np.ndarray | None
    lines: int
    last: int
    defect: tuple | None


def _read_span(lines, n: int, rows=None, at: int = 0) -> _Span:
    """Parse lines as rows at, at + 1, ... of the buffer rows.

    The first ``n - at`` lines are data, passed ``LOAD_CHUNK`` at a time to
    ``np.loadtxt``; a chunk it refuses is parsed line by line with
    ``float()``, and storing stops at the first bad line.  Later lines are
    only checked for blankness.
    """
    count = last = 0
    defect = None
    for i in range(at, n, LOAD_CHUNK):
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
                rows = _reserve(rows, i + len(chunk), n)
                rows[i:i + len(chunk)] = block
                count = last = count + len(chunk)
                continue
        for line in chunk:
            count += 1
            if line.strip():
                last = count
            if defect is None:
                vals = _parse_row(line, n)
                if isinstance(vals, tuple):
                    defect = (count, *vals)
                else:
                    rows = _reserve(rows, at + count, n)
                    rows[at + count - 1] = vals
    for line in lines:
        count += 1
        if line.strip():
            last = count
    return _Span(rows, count, last, defect)


def _split_point(fb) -> int:
    """Where a worker process takes over the parse of fb: the byte after
    the first LF at or past ``(size + SPLIT_BYTES / 2) / 2``, so that both
    processes end together.  -1 for one span: a pipe, a file below
    ``SPLIT_BYTES``, a file opened by its descriptor (the worker opens it
    by name) and a process with one usable CPU."""
    st = os.fstat(fb.fileno())
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if (not stat.S_ISREG(st.st_mode) or st.st_size < SPLIT_BYTES
            or isinstance(fb.name, int) or cpus < 2):
        return -1
    fb.seek((st.st_size + SPLIT_BYTES // 2) // 2)
    while (raw := fb.readline(READ_BYTES)) and not raw.endswith(b"\n"):
        pass
    split = fb.tell()
    fb.seek(0)
    return split if split < st.st_size else -1


# The worker runs isolated (-I), so neither its working directory nor a
# PYTHON* variable adds to its import path, which is set to this process's
# sys.path followed by the directory this copy of the package came from.
_WORKER = ("import sys, json; sys.path[:] = json.loads(sys.argv[1]); "
           "from nystromlab.experiment import _span_worker; _span_worker(*sys.argv[2:])")


@contextlib.contextmanager
def _worker(fb, start: int, n: int):
    """A worker process that parses fb from byte start, or None where there
    is no second span or no process can start.  On exit it is killed and
    reaped, however the block ended."""
    proc = None
    if start > 0 and sys.executable:  # it can be empty or None
        st = os.fstat(fb.fileno())
        path = json.dumps([d for d in sys.path if isinstance(d, str)]
                          + [str(Path(__file__).resolve().parents[1])])
        argv = [sys.executable, "-I", "-c", _WORKER, path,
                fb.name, str(start), str(n), str(st.st_dev), str(st.st_ino)]
        try:
            # stdin is inherited, so that /dev/stdin names the same file
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},  # it runs no BLAS
            )
        except OSError:
            pass
    if proc is None:
        yield None
        return
    with proc:  # closes the pipe and waits
        try:
            yield proc
        finally:
            proc.kill()


def _span_worker(path, start: str, n: str, dev: str, ino: str) -> None:
    """The worker's side: parse path from byte start, then write the span
    to standard output as one JSON line and its stored rows as raw float64
    bytes.  It exits 1 if path is no longer the parent's file."""
    n = int(n)
    with open(path, "rb") as fb:
        st = os.fstat(fb.fileno())
        if (st.st_dev, st.st_ino) != (int(dev), int(ino)):
            sys.exit(1)
        fb.seek(int(start))
        span = _read_span(_lines(fb), n)
    stored = span.defect[0] - 1 if span.defect else min(span.lines, n)
    out = sys.stdout.buffer
    out.write(json.dumps({"lines": span.lines, "last": span.last, "defect": span.defect,
                          "stored": stored}).encode() + b"\n")
    if stored:
        out.write(span.rows[:stored])
    out.flush()


def _from_worker(proc, rows, at: int, n: int) -> _Span | None:
    """The worker's span, with its rows read into rows from row at, or None
    if the worker failed."""
    try:
        head = json.loads(proc.stdout.readline())
        span = _Span(rows, head["lines"], head["last"], head["defect"])
        take = min(head["stored"], n - at)  # rows past n fail the count check
    except (ValueError, KeyError, TypeError):
        return None
    if take > 0:
        rows = _reserve(rows, at + take, n)
        if proc.stdout.readinto(rows[at:at + take]) != take * n * 8:
            return None
    return span._replace(rows=rows)


def load_matrix(path) -> SymMatrix:
    """Read the plain-text matrix format.

    Line 1 is the integer dimension n; lines 2..n+1 each carry n
    whitespace-separated reals (row-major), any finite token ``float()``
    reads.  Trailing blank lines are tolerated; everything else raises
    :class:`MatrixFileError` with the offending line number, a byte that is
    not UTF-8 as an unparseable ``value``.  Defects are reported in the
    order header, count of data lines, first bad line.

    The data lines are parsed once, ``LOAD_CHUNK`` at a time, into a row
    buffer that grows with them, so memory follows the rows read, not the
    header.  A regular file of ``SPLIT_BYTES`` or more is cut at a line
    end (:func:`_split_point`): a worker process parses the second span
    while this one parses the first, and its rows are read straight into
    the buffer.  Entries, errors and line numbers do not depend on the cut.
    """
    with open(path, "rb") as fb:
        split = _split_point(fb)
        lines = _lines(fb, split)
        head = next(lines, "").strip()
        if not head and not any(s.strip() for s in itertools.chain(lines, _lines(fb))):
            raise MatrixFileError("empty file: expected a dimension header", 1, "header")
        try:
            n = int(head)
        except ValueError:
            raise MatrixFileError(
                f"line 1: expected an integer dimension, got {head!r}", 1, "header"
            ) from None
        if n < 1:
            raise MatrixFileError(f"line 1: dimension must be >= 1, got {n}", 1, "header")
        with _worker(fb, split, n) as proc:
            first = _read_span(lines, n)
            spans = [(0, first)]  # (data lines before the span, span)
            if split > 0:
                second = _from_worker(proc, first.rows, first.lines, n) if proc else None
                if second is None:  # parse the worker's span here
                    second = _read_span(_lines(fb), n, first.rows, first.lines)
                spans.append((first.lines, second))
    last = 1 + max((off + s.last for off, s in spans if s.last), default=0)
    if last - 1 != n:
        raise MatrixFileError(
            f"expected {n} data lines after the header, found {last - 1}", last, "count"
        )
    for off, s in spans:
        if s.defect and off + s.defect[0] <= n:
            lineno, kind, detail = 1 + off + s.defect[0], *s.defect[1:]
            raise MatrixFileError(f"line {lineno}: {detail}", lineno, kind)
    rows = spans[-1][1].rows
    rows.flags.writeable = False  # handed over: SymMatrix stores it as is
    try:
        return SymMatrix(rows)
    except ValueError as exc:
        raise MatrixFileError(str(exc), None, "asymmetry") from exc


def save_matrix(a: SymMatrix, path) -> None:
    """Write a matrix in the same plain-text format, round-trip exact.

    Each entry is written as its shortest round-trip ``repr``, one line per
    row, so a saved matrix reads back bit for bit.  Only the upper triangle
    is formatted, since a SymMatrix is symmetric bit for bit; the text of
    ``a[i, j]``, ``j > i``, waits in ``pending[j]`` for row j.
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


def _check_plan(plan: CoherencePlan, n: int, k: int) -> None:
    """Raise ConfigError("coherence") where plan cannot be planted at (n, k)."""
    try:
        check_plan(plan, n, k)
    except ValueError as exc:
        raise ConfigError("coherence", str(exc)) from exc


def config_from_mapping(d: dict) -> ExperimentConfig:
    """Build a config from a plain mapping (the JSON config-file schema).

    Checks the keys and the values parsed here (gen; coherence, flat only
    at a power-of-two n and spiked:M only at M <= k; lambda1, a finite
    number > 0);
    :class:`ExperimentConfig` checks every field it is given.
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
        if gen is not None:
            _check_plan(plan, d["n"], d["k"])
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
    and ``error_le_bound`` compares the upper end with ``prob_bound`` plus
    ``n * eps * lambda1``, the rounding floor of the error route (an
    exact-rank-k ``prob_bound`` is 0).  It is not an artifact column.
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

    a: SymMatrix
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
    if config.l is not None and config.l > n:
        raise ConfigError("l", f"must lie in [1, n={n}], got {config.l}")
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
    unless ``timings``, as a measured time breaks byte-identical reruns)
    are the ``NA`` token in CSV and null in JSON.
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

    For highly coherent bases the tail exceeds 0.5 at every l <= n, and at
    ``epsilon = 1`` it is ``k >= 1`` at every l; there l falls back to
    ceil(0.6 n), which keeps the sampled fraction high without saturating
    at full sampling.
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
    for k, plan, _ in grid:
        _check_plan(plan, n, k)
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
