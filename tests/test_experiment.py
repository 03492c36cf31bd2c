"""Harness round trips: matrix files, configs, trials, emission, sweeps."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nystromlab import (
    CoherencePlan,
    ConfigError,
    ExperimentConfig,
    MatrixFileError,
    NotPSDError,
    SpectrumSpec,
    SymMatrix,
    TrialRecord,
    analysis,
    chernoff_sweep,
    chernoff_tail,
    config_from_mapping,
    emit_results,
    experiment,
    load_matrix,
    matfile,
    run_experiment,
    save_matrix,
)
from nystromlab.experiment import (
    CSV_HEADER,
    INSTANCE_STREAM,
    _auto_l,
    emit_table,
    prepare,
    read_config,
    run_trial,
)

from helpers import gram_psd, save_matrix_rowwise, traced_peak

# ---------------------------------------------------------------------------
# matrix files


def test_load_identity(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 0\n0 1\n")
    a = load_matrix(p)
    assert np.array_equal(a.entries, np.eye(2))


def test_load_tolerates_trailing_blank_lines(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1\n3.5\n\n\n")
    assert load_matrix(p).entries[0, 0] == 3.5


def test_load_indefinite_is_allowed(tmp_path):
    # the loader checks shape and symmetry only; definiteness is checked
    # where the extension actually needs it
    p = tmp_path / "m.txt"
    p.write_text("2\n0 1\n1 0\n")
    a = load_matrix(p)
    assert a.entries[0, 1] == 1.0


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    a = gram_psd(7, rng, scale=math.pi)
    p = tmp_path / "m.txt"
    save_matrix(a, p)
    b = load_matrix(p)
    assert np.array_equal(a.entries, b.entries)


def test_save_matrix_exact_bytes(tmp_path):
    a = SymMatrix(np.array([
        [-0.0, 5e-324, 0.1],
        [5e-324, 1e-05, 1e16],
        [0.1, 1e16, 1.0],
    ]))
    p = tmp_path / "m.txt"
    save_matrix(a, p)
    assert p.read_bytes() == b"3\n-0.0 5e-324 0.1\n5e-324 1e-05 1e+16\n0.1 1e+16 1.0\n"


# Values whose repr is special: signed zeros, subnormals, both sides of
# each switch between positional and exponent notation, and mirrored pairs
# whose sum overflows.
_WRITER_PALETTE = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e16, 9999999999999998.0,
                   1e-05, 0.0001, 0.1, 1.5e308, -1.5e308, 1.0, -3.0)


def _palette_matrix(n, seed, average, extra) -> SymMatrix:
    """An n x n SymMatrix, 40% of its entries drawn from _WRITER_PALETTE
    and extra.  Both SymMatrix paths: an exactly symmetric input is copied
    (so -0.0 stays mirrored with -0.0); with average, one with a -0.0/0.0
    pair and a one-ulp pair is averaged."""
    rng = np.random.default_rng(seed)
    palette = np.array(_WRITER_PALETTE + tuple(extra))
    a = np.where(rng.random((n, n)) < 0.4, rng.choice(palette, (n, n)),
                 rng.standard_normal((n, n)))
    a = np.triu(a) + np.triu(a, 1).T
    average = average and n > 1
    if average:
        a[0, n - 1], a[n - 1, 0] = -0.0, 0.0
        i, j = rng.choice(n, 2, replace=False)
        if (i, j) != (0, n - 1):  # nudging that -0.0 gives 0.0, its mirror
            a[i, j] = np.nextafter(a[i, j], 0.0)
    m = SymMatrix(a)
    assert (m.entries.tobytes() == a.tobytes()) != average
    return m


_EXTRA_FLOATS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4)
# Rows save_matrix formats at a time: the sizes below cross several blocks.
_BLOCK = matfile.WRITE_BLOCK


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
       average=st.booleans(), extra=_EXTRA_FLOATS)
@example(n=_BLOCK, seed=1, average=True, extra=[])
@example(n=_BLOCK + 1, seed=2, average=False, extra=[])
def test_save_matrix_matches_rowwise_writer(tmp_path_factory, n, seed, average, extra):
    m = _palette_matrix(n, seed, average, extra)
    base = tmp_path_factory.getbasetemp()
    save_matrix(m, base / "mirrored.txt")
    save_matrix_rowwise(m, base / "rowwise.txt")
    assert (base / "mirrored.txt").read_bytes() == (base / "rowwise.txt").read_bytes()
    assert load_matrix(base / "mirrored.txt").entries.tobytes() == m.entries.tobytes()


def test_load_entries_near_float_max(tmp_path):
    # mirrored entries whose sum overflows are still a valid symmetric file
    p = tmp_path / "m.txt"
    p.write_text("2\n1.5e308 1.5e308\n1.5e308 1.5e308\n")
    assert np.array_equal(load_matrix(p).entries, np.full((2, 2), 1.5e308))


def test_load_error_empty(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("")
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert ei.value.kind == "header"


def test_load_error_bad_header(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("two\n1 0\n0 1\n")
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert ei.value.kind == "header" and ei.value.line == 1


def test_load_error_missing_row(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("3\n1 0 0\n0 1 0\n")
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert ei.value.kind == "count"


def test_load_error_wrong_row_width(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 0\n0 1 5\n")
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert ei.value.kind == "count" and ei.value.line == 3


def test_load_error_bad_value(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 zero\n0 1\n")
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert ei.value.kind == "value" and ei.value.line == 2


def test_load_error_non_finite(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 inf\ninf 1\n")
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert ei.value.kind == "value" and ei.value.line == 2


def test_load_error_asymmetric(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 0.5\n0 1\n")
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert ei.value.kind == "asymmetry"


# Token and line mutations: value-preserving spellings float() reads
# (underscores, Arabic-Indic digits, Unicode whitespace), separators that
# split a line, and defects the loader must report.
_MUTATIONS = (
    None, "underscore", "arabic", "\t", "\x0b", "\xa0", " ",
    "blank", "extra", "missing", "inf", "nan", "1e400", "#",
)
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _mutate(lines: list[str], mutation, i: int, j: int) -> None:
    """Apply one mutation to data line i (token j) of a matrix file."""
    toks = lines[i].split(" ")
    if mutation == "underscore":
        tok = toks[j]
        at = next((p for p in range(1, len(tok))
                   if tok[p - 1].isdigit() and tok[p].isdigit()), None)
        if at is not None:
            toks[j] = tok[:at] + "_" + tok[at:]
        lines[i] = " ".join(toks)
    elif mutation == "arabic":
        lines[i] = lines[i].translate(_ARABIC_INDIC)
    elif mutation in ("\t", "\x0b", "\xa0", " "):
        lines[i] = mutation + mutation.join(toks)
    elif mutation == "blank":
        lines.insert(i, "")
    elif mutation == "extra":
        lines[i] += " 0.0"
    elif mutation == "missing":
        lines[i] = " ".join(toks[:-1])
    elif mutation in ("inf", "nan", "1e400"):
        toks[j] = mutation
        lines[i] = " ".join(toks)
    elif mutation == "#":
        lines[i] += " # note"


def _reference_load(text: str):
    """The entries ``float()`` gives token by token, or the ``(kind, line)``
    of the first defect in line order."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    n = int(lines[0])
    if len(lines) - 1 != n:
        return ("count", len(lines))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != n:
            return ("count", lineno)
        try:
            vals = [float(t) for t in toks]
        except ValueError:
            return ("value", lineno)
        if not all(math.isfinite(v) for v in vals):
            return ("value", lineno)
        rows.append(vals)
    return np.array(rows)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    upper=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=10, max_size=10),
    mutation=st.sampled_from(_MUTATIONS),
    where=st.integers(0, 15),
)
def test_load_matrix_agrees_with_float_per_token(tmp_path_factory, n, upper,
                                                 mutation, where):
    rows, cols = np.triu_indices(n)
    m = np.empty((n, n))
    m[rows, cols] = m[cols, rows] = upper[: rows.size]
    lines = [str(n)] + [" ".join(map(repr, row)) for row in m.tolist()]
    _mutate(lines, mutation, 1 + where % n, where // n % n)
    text = "\n".join(lines) + "\n"
    p = tmp_path_factory.getbasetemp() / "differential.txt"
    p.write_text(text)
    expected = _reference_load(text)
    if isinstance(expected, tuple):
        with pytest.raises(MatrixFileError) as ei:
            load_matrix(p)
        assert (ei.value.kind, ei.value.line) == expected
    else:
        assert load_matrix(p).entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x1c", "\u2028", "\r\r\n"])
def test_load_matrix_splits_lines_like_str_splitlines(tmp_path, sep):
    # the loader reads line by line; its lines must be those that
    # str.splitlines() finds in the whole text, whatever the line break
    text = sep.join(["2", "1.0 0.5", "0.5 2.0", ""])
    p = tmp_path / "breaks.txt"
    p.write_bytes(text.encode())
    expected = _reference_load(p.read_text())
    if isinstance(expected, tuple):
        with pytest.raises(MatrixFileError) as ei:
            load_matrix(p)
        assert (ei.value.kind, ei.value.line) == expected
    else:
        assert load_matrix(p).entries.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    pieces=st.lists(st.sampled_from(["1", "-2.5", " ", "\xe9", "\u2028", "\n", "\r", "\r\n",
                                     "\x0c", "\x85"]), max_size=20),
    junk=st.sampled_from([b"", b"\xff", b"\xe2\x80"]),
    read_bytes=st.integers(1, 6),
)
def test_lines_in_short_reads_are_those_of_the_whole_text(pieces, junk, read_bytes):
    # reads of a few bytes cut CR LF pairs, multi-byte characters and lines
    # without an LF anywhere; the lines are still those of the whole text
    data = "".join(pieces).encode() + junk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfile, "READ_BYTES", read_bytes)
        got = list(matfile._lines(io.BufferedReader(io.BytesIO(data))))
    assert got == data.decode("utf-8", "surrogateescape").splitlines()


@pytest.mark.parametrize("sep", ["\r", "\x1c"])
def test_load_file_without_lf_reads_in_pieces(tmp_path, monkeypatch, sep):
    # a file without an LF loads like its LF form, and is not held whole:
    # its peak stays within a quarter of the file of that of the LF form
    monkeypatch.setattr(matfile, "READ_BYTES", 1 << 16)
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(512, np.random.default_rng(4)), p)
    q = tmp_path / "cr.txt"
    q.write_bytes(p.read_bytes().replace(b"\n", sep.encode()))
    a, peak_lf = _load_peak(p)
    b, peak = _load_peak(q)
    assert b.entries.tobytes() == a.entries.tobytes()
    assert peak <= peak_lf + q.stat().st_size / 4, (peak, peak_lf, q.stat().st_size)


def _chunk_case(n: int, case: str) -> tuple[bytes, bool]:
    """A symmetric n x n matrix file with one edit, and whether the chunked
    parse should read it."""
    m = gram_psd(n, np.random.default_rng(n)).entries
    rows = [" ".join(map(repr, row)) for row in m.tolist()]
    sep, tail, chunked = "\n", "", True
    if case == "blank mid-file":
        rows.insert(n // 2, "")
        chunked = False
    elif case == "trailing blanks":
        tail = "\n \n\t\n"
    elif case in ("\r\n", "\r"):
        sep = case
    elif case == "\x0c in a row":
        toks = rows[n // 2].split(" ")
        rows[n // 2] = " ".join(toks[:1]) + "\x0c" + " ".join(toks[1:])
        chunked = n == 1  # a lone token then a line break: a trailing blank
    elif case == "1_0":
        i, j = n // 3, n - 1
        toks_i, toks_j = rows[i].split(" "), rows[j].split(" ")
        toks_i[j] = toks_j[i] = "1_0"
        rows[i], rows[j] = " ".join(toks_i), " ".join(toks_j)
        chunked = False
    return (sep.join([str(n)] + rows) + sep + tail).encode(), chunked


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
@pytest.mark.parametrize("case", ["clean", "blank mid-file", "trailing blanks", "\r\n",
                                  "\r", "\x0c in a row", "1_0"])
def test_chunked_load_agrees_with_token_parse(tmp_path, n, case, monkeypatch):
    text, chunked = _chunk_case(n, case)
    p = tmp_path / "m.txt"
    p.write_bytes(text)
    calls = []
    parse_row = matfile._parse_row
    monkeypatch.setattr(matfile, "_parse_row",
                        lambda *args: calls.append(args) or parse_row(*args))
    expected = _reference_load(p.read_text())
    # pytest turns warnings into errors, so a loadtxt "input contained no
    # data" warning fails this test
    if isinstance(expected, tuple):
        with pytest.raises(MatrixFileError) as ei:
            load_matrix(p)
        assert (ei.value.kind, ei.value.line) == expected
    else:
        assert load_matrix(p).entries.tobytes() == SymMatrix(expected).entries.tobytes()
    # a well-formed file never leaves np.loadtxt for the per-line parse
    assert (not calls) == chunked


@pytest.mark.parametrize("text, kind, line, message", [
    # too short for 3 x 3 (size guard), first line well formed
    ("3\n1 2 3\n", "count", 2, "expected 3 data lines after the header, found 1"),
    # too short, line count right, rows too narrow
    ("3\n1\n2\n3\n", "count", 2, "line 2: expected 3 values, found 1"),
    # the count of data lines wins over a bad token on an earlier line
    ("2\n1 x\n0 1\n0 0\n", "count", 4, "expected 2 data lines after the header, found 3"),
    ("2\n1 x\n0 1\n", "value", 2, "line 2: unparseable numeric value"),
    ("2\n1 0\n0 nan\n", "value", 3, "line 3: non-finite value"),
    (" \n\t\n", "header", 1, "empty file: expected a dimension header"),
    (" \n2\n", "header", 1, "line 1: expected an integer dimension, got ''"),
    ("0\n", "header", 1, "line 1: dimension must be >= 1, got 0"),
], ids=["short", "short-narrow", "count-before-value", "unparseable", "non-finite",
        "empty", "blank-header", "zero"])
def test_load_error_order_and_text(tmp_path, text, kind, line, message):
    p = tmp_path / "m.txt"
    p.write_text(text)
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(p)
    assert (ei.value.kind, ei.value.line, str(ei.value)) == (kind, line, message)


def _pipe(data: bytes) -> int:
    """The read end of a pipe that holds data, its write end closed."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    return r


def _source(kind: str, data: bytes, tmp_path):
    """data as load_matrix reads it: a regular file's path, or a pipe."""
    if kind == "pipe":
        return _pipe(data)
    p = tmp_path / "m.txt"
    p.write_bytes(data)
    return p


def _load_peak(src) -> tuple[SymMatrix | MatrixFileError, int]:
    """load_matrix(src), or the MatrixFileError it raises, and its
    tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        try:
            out = load_matrix(src)
        except MatrixFileError as exc:
            out = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("kind", ["file", "pipe"])
@pytest.mark.parametrize("n", [10**6, 10**23])
def test_load_huge_header_allocates_nothing(tmp_path, kind, n):
    # a header that promises more rows than the data holds is refused by
    # the count without a buffer for them (8 MB for one row at n = 10^6)
    err, peak = _load_peak(_source(kind, f"{n}\n1\n".encode(), tmp_path))
    assert isinstance(err, MatrixFileError)
    assert err.kind == "count" and err.line == 2
    assert peak < 1 << 20


def test_load_short_file_allocates_for_its_rows(tmp_path):
    # 300 well-formed rows under a header of 2048, in more than n^2 bytes:
    # the buffer follows the rows parsed, not the n x n the header promises
    n = 2048
    row = " ".join(["0.123456789"] * n)
    err, peak = _load_peak(_source("file", f"{n}\n".encode() + (row + "\n").encode() * 300,
                                   tmp_path))
    assert isinstance(err, MatrixFileError)
    assert (err.kind, err.line) == ("count", 301)
    assert peak < 0.6 * n * n * 8, f"peak is {peak / (n * n * 8):.2f} n^2 doubles"


def test_load_full_file_peak(tmp_path):
    # the buffer grows in place: no copy of its rows is held beside it
    n = 1024
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(n, np.random.default_rng(3)), p)
    a, peak = _load_peak(p)
    assert a.n == n
    assert peak <= 1.75 * n * n * 8, f"peak is {peak / (n * n * 8):.2f} n^2 doubles"


def test_load_holds_a_few_lines_beside_its_rows(tmp_path):
    # read by this process alone, so its rows fill a buffer of all n: beyond
    # those 8 n^2 bytes, the text of 22.4 lines and the values parsed from
    # it, plus 15%; 32-line chunks held 79.6 lines' worth
    n = 1024
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(n, np.random.default_rng(3)), p)
    with _split_io(split_bytes=1 << 62):
        a, peak = _load_peak(p)
    assert a.n == n
    lines = (peak - 8 * n * n) / (p.stat().st_size / n)
    assert lines <= 26, f"{lines:.1f} lines beside the rows"


@pytest.mark.parametrize("kind", ["file", "pipe"])
def test_load_non_utf8_byte_is_a_value_defect(tmp_path, kind):
    with pytest.raises(MatrixFileError) as ei:
        load_matrix(_source(kind, b"2\n1 0\n0 \xff\n", tmp_path))
    assert (ei.value.kind, ei.value.line, str(ei.value)) == (
        "value", 3, "line 3: unparseable numeric value")


def test_load_from_a_pipe_matches_the_regular_file(tmp_path):
    # a pipe has no size to check: its rows are read as they arrive, over
    # more than one LOAD_CHUNK, and trailing blank lines still pass
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    data = p.read_bytes() + b"\n\n"
    assert os.fstat(r := _pipe(data)).st_size == 0
    assert np.array_equal(load_matrix(r).entries, load_matrix(p).entries)


# ---------------------------------------------------------------------------
# two-process reads


@contextlib.contextmanager
def _split_io(cut=None, split_bytes=0, cpus=(0, 1)):
    """Split regular files and matrix texts of split_bytes or more (read
    files at byte cut, if given), with the usable CPUs cpus.  Yields the
    worker processes load_matrix and save_matrix start, None for each that
    could not start, and for each call of _from_worker whether load_matrix
    kept the worker's rows: True only for a clean file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfile, "SPLIT_BYTES", split_bytes)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        if cut is not None:
            mp.setattr(matfile, "_split_point", lambda fb: cut)
        started, kept = [], []
        popen, from_worker = subprocess.Popen, matfile._from_worker

        def spy(*args, **kwargs):
            started.append(None)
            started[-1] = popen(*args, **kwargs)
            return started[-1]

        def spy_rows(*args):
            rows = from_worker(*args)
            kept.append(rows is not None)
            return rows

        mp.setattr(subprocess, "Popen", spy)
        mp.setattr(matfile, "_from_worker", spy_rows)
        yield started, kept


def _load(src):
    """The entries load_matrix reads from src as bytes, or the kind, line
    and message of its MatrixFileError."""
    try:
        return load_matrix(src).entries.tobytes()
    except MatrixFileError as exc:
        return exc.kind, exc.line, str(exc)


# Token edits: an unparseable token, a dropped token (wrong width), non-finite
# values and a byte that is not UTF-8.
_SPAN_DEFECTS = (b"x", b"", b"inf", b"nan", b"1e400", b"\xff")


def _matrix_bytes(m, end=b"\n", blanks=0, extra=0, defects=()) -> bytes:
    """The file of the symmetric array m with extra data lines (the last
    repeated, or dropped for -1), token edits (data line i from 1, token
    j, new token) and blanks trailing blank lines."""
    lines = [str(len(m)).encode()] + [" ".join(map(repr, row)).encode() for row in m.tolist()]
    if extra < 0:
        del lines[-1]
    elif extra > 0:
        lines.append(lines[-1])
    for i, j, tok in defects:
        toks = lines[i].split(b" ")
        toks[j % len(toks)] = tok
        lines[i] = b" ".join(toks)
    return end.join(lines + [b" "] * blanks) + end


def _after_lines(text: bytes, cut: int) -> int:
    """The byte after the first cut LFs of text."""
    at = 0
    for _ in range(cut):
        at = text.index(b"\n", at) + 1
    return at


def _assert_split_matches_one_span(p, cut: int) -> None:
    """load_matrix(p) cut after the first cut LFs gives what one span gives,
    from a worker that ran and was reaped; its rows are kept exactly when
    the file is clean."""
    one = _load(p)
    with _split_io(_after_lines(p.read_bytes(), cut)) as (started, kept):
        assert _load(p) == one
    assert len(started) == 1 and started[0].returncode is not None
    assert (kept == [True]) == isinstance(one, bytes) and len(kept) <= 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    upper=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=15,
                   max_size=15),
    end=st.sampled_from([b"\n", b"\r\n"]),
    blanks=st.integers(0, 2),
    extra=st.sampled_from([0, 0, 0, -1, 1]),
    where=st.sampled_from(["second", "both", "first", "none"]),
    data=st.data(),
)
def test_split_read_matches_one_span(tmp_path_factory, n, upper, end, blanks, extra,
                                     where, data):
    # cut lines before the cut, the header included: the first span holds
    # data lines 1 .. cut - 1, the second the rest and the trailing blanks
    rows, cols = np.triu_indices(n)
    m = np.empty((n, n))
    m[rows, cols] = m[cols, rows] = upper[: rows.size]
    count = n + extra
    assume(count + blanks > 1)
    cut = data.draw(st.integers(2, count + blanks), label="cut")
    sides = {"first": [range(1, min(cut, count + 1))], "second": [range(cut, count + 1)]}
    sides["both"] = sides["first"] + sides["second"]
    defects = [(data.draw(st.sampled_from(side), label="line"),
                data.draw(st.integers(0, 4), label="token"),
                data.draw(st.sampled_from(_SPAN_DEFECTS), label="edit"))
               for side in sides.get(where, []) if side]
    p = tmp_path_factory.getbasetemp() / "split.txt"
    p.write_bytes(_matrix_bytes(m, end, blanks, extra, defects))
    _assert_split_matches_one_span(p, cut)


@pytest.mark.parametrize("cut,defects,extra,end", [
    (3, [(4, 1, b"x")], 0, b"\n"),
    (3, [(1, 0, b"x"), (4, 2, b"inf")], 0, b"\n"),
    (2, [(3, 3, b"")], 0, b"\r\n"),
    (4, [(4, 0, b"nan")], 0, b"\n"),
    (2, [(3, 1, b"\xff")], 0, b"\n"),
    (3, [], -1, b"\n"),
    (4, [], 1, b"\n"),
    (5, [], 0, b"\r\n"),
    (1, [(2, 0, b"x")], 0, b"\n"),
], ids=["bad token after the cut", "defects on both sides", "wrong width after the cut",
        "cut before the last data line", "not UTF-8 after the cut", "too few lines",
        "too many lines", "cut in the trailing blanks", "cut after the header"])
def test_split_read_cases(tmp_path, cut, defects, extra, end):
    # cut counts the lines before the cut, the header included
    p = tmp_path / "m.txt"
    p.write_bytes(_matrix_bytes(gram_psd(4, np.random.default_rng(2)).entries, end, 2, extra,
                                defects))
    _assert_split_matches_one_span(p, cut)


@pytest.mark.parametrize("text", [b"3\n1 0 0\n0 1 0\n0 0 1\n", b"2\n1 0\n0 1",
                                  b"3\r\n1 0 0\r\n0 1 0\r\n0 0 1\r\n\r\n", b"1\n" + b"5" * 10])
def test_split_point_is_a_line_end_past_the_middle(tmp_path, text):
    # the first span takes SPLIT_BYTES / 2 more bytes than the second
    p = tmp_path / "m.txt"
    p.write_bytes(text)
    for split_bytes in (0, len(text)):
        at = text.find(b"\n", (len(text) + split_bytes // 2) // 2) + 1
        with _split_io(split_bytes=split_bytes), open(p, "rb") as fb:
            assert matfile._split_point(fb) == (at if 0 < at < len(text) else -1)
            assert fb.tell() == 0


@pytest.mark.parametrize("case", ["pipe", "small file", "one CPU", "descriptor"])
def test_one_process_reads(tmp_path, case):
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    one = _load(p)
    src = {"pipe": lambda: _pipe(p.read_bytes()),
           "descriptor": lambda: os.open(p, os.O_RDONLY)}.get(case, lambda: p)()
    with _split_io(split_bytes=p.stat().st_size + (case == "small file"),
                      cpus=(0,) if case == "one CPU" else (0, 1)) as (started, _):
        assert _load(src) == one
    assert started == []


@pytest.mark.parametrize("case", ["rows", "defect", "defect before the cut", "parent raises",
                                  "worker fails", "worker's file differs"])
def test_no_worker_outlives_load_matrix(tmp_path, case):
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    if case == "defect":  # in the last row, after the cut
        p.write_bytes(p.read_bytes()[:-20] + b" x\n")
    if case == "defect before the cut":  # the first token of data line 1
        head, row, rest = p.read_bytes().split(b"\n", 2)
        p.write_bytes(b"\n".join([head, b"x" + row[row.index(b" "):], rest]))
    one = _load(p)
    with _split_io() as (started, kept), pytest.MonkeyPatch.context() as mp:
        if case == "parent raises":
            def boom(*args):
                raise RuntimeError("parent span")
            mp.setattr(matfile, "_read_span", boom)
            with pytest.raises(RuntimeError, match="parent span"):
                load_matrix(p)
        else:
            if case == "worker fails":
                mp.setattr(matfile, "_WORKER", "import sys; sys.exit(3)")
            elif case == "worker's file differs":  # the worker sees inode 0
                mp.setattr(matfile, "_WORKER",
                           matfile._WORKER.replace("*sys.argv[2:]", "*sys.argv[2:6], '0'"))
            assert _load(p) == one
    assert len(started) == 1
    assert started[0].returncode is not None and started[0].stdout.closed
    # _from_worker runs after a clean parent's span, and its rows are kept
    # exactly when the file is clean; else this process reads the file again
    assert kept == {
        "parent raises": [], "defect before the cut": [], "defect": [False],
        "worker fails": [False], "worker's file differs": [False],
    }.get(case, [True])


@pytest.mark.parametrize("case", ["clean", "defect", "defect before the cut", "worker fails",
                                  "too few lines", "too many lines"])
def test_split_read_parses_no_line_twice(tmp_path, case):
    # this process reads each data line at most once, in order: after a
    # worker that fails, it goes on from the cut with its rows and count;
    # a count off n from two clean spans is reported with no read at all
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    head, *rows = p.read_bytes().split(b"\n")[:-1]
    if case == "defect":
        rows[-1] = rows[-1][:rows[-1].rindex(b" ")] + b" x"
    elif case == "defect before the cut":
        rows[0] = b"x" + rows[0][rows[0].index(b" "):]
    elif case == "too few lines":
        del rows[-1]
    elif case == "too many lines":
        rows.append(rows[-1])
    p.write_bytes(b"\n".join([head, *rows, b""]))
    one = _load(p)
    seen, read_span = [], matfile._read_span

    def spy(lines, *args):
        def tee():
            for line in lines:
                seen.append(line)
                yield line
        return read_span(tee(), *args)

    with _split_io(_after_lines(p.read_bytes(), 21)) as (started, kept), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfile, "_read_span", spy)
        if case == "worker fails":
            mp.setattr(matfile, "_WORKER", "import sys; sys.exit(3)")
        assert _load(p) == one
    assert len(started) == 1 and started[0].returncode is not None
    assert seen == [row.decode() for row in rows][:len(seen)]
    assert len(seen) == (20 if case in ("clean", "too few lines", "too many lines")
                         else len(rows))


@pytest.mark.parametrize("executable", ["no-such-python", "", None])
def test_worker_that_cannot_start_leaves_its_span_to_this_process(tmp_path, monkeypatch,
                                                                  executable):
    # sys.executable is empty or None where Python cannot tell its own path;
    # then no start is tried
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    one = _load(p)
    monkeypatch.setattr(sys, "executable",
                        executable and str(tmp_path / executable))
    with _split_io() as (started, kept):
        assert _load(p) == one
    assert started == ([None] if executable else []) and kept == []


def test_worker_that_sends_too_few_row_bytes_leaves_its_span_to_this_process(tmp_path,
                                                                           monkeypatch):
    # the count that completes the 40 rows after the parent's 20, then the
    # bytes of only 3 of those rows and the end; with all 20, they are kept
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    one = _load(p)
    tail = np.frombuffer(one).reshape(40, 40)[20:]
    for sent in (3, 20):
        out = b"20\n" + tail[:sent].tobytes()
        monkeypatch.setattr(matfile, "_WORKER", f"import sys; sys.stdout.buffer.write({out!r})")
        with _split_io(_after_lines(p.read_bytes(), 21)) as (started, kept):
            assert _load(p) == one
        assert len(started) == 1 and started[0].returncode is not None
        assert kept == [sent == 20]


def test_worker_imports_nothing_from_the_working_directory(tmp_path, monkeypatch):
    # modules the worker imports, shadowed in the directory it starts in
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    one = _load(p)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    marker = tmp_path / "marker"
    for name in ("json", "subprocess", "dataclasses", "typing", "numpy", "nystromlab"):
        (cwd / f"{name}.py").write_text(f"open({str(marker)!r}, 'a').write({name!r})\n")
    monkeypatch.chdir(cwd)
    # this process's own path holds no working directory either
    monkeypatch.setattr(sys, "path", [d for d in sys.path if d not in ("", ".", str(cwd))])
    with _split_io() as (started, kept):
        assert _load(p) == one
    assert len(started) == 1 and kept == [True]
    assert not marker.exists()


def test_worker_imports_no_package_module(tmp_path):
    # the worker's own command line, re-run with -X importtime: it parses
    # with numpy and the format module's file, not with the package
    p = tmp_path / "m.txt"
    save_matrix(gram_psd(40, np.random.default_rng(5)), p)
    with _split_io() as (started, _):
        _load(p)
    exe, *args = started[0].args
    run = subprocess.run([exe, "-X", "importtime", *args], capture_output=True, text=True,
                         errors="replace")
    assert run.returncode == 0 and run.stdout
    imported = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "numpy" in imported
    assert [name for name in imported if name.split(".")[0] == "nystromlab"] == []


# ---------------------------------------------------------------------------
# two-process writes


@contextlib.contextmanager
def _split_writes(cut=None, cpus=(0, 1)):
    """save_matrix with a worker from row cut (the size rule's row if None)
    and the usable CPUs cpus.  Yields the worker processes started and the
    number of whole lines save_matrix took from each worker."""
    with _split_io(cpus=cpus) as (started, _), pytest.MonkeyPatch.context() as mp:
        if cut is not None:
            mp.setattr(matfile, "_write_cut", lambda entries: cut)
        taken, from_writer = [], matfile._from_writer

        def spy(*args):
            taken.append(0)
            for line in from_writer(*args):
                taken[-1] += 1
                yield line

        mp.setattr(matfile, "_from_writer", spy)
        yield started, taken


def _saved(m, p) -> bytes:
    save_matrix(m, p)
    return p.read_bytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 100), seed=st.integers(0, 2**32 - 1), average=st.booleans(),
       extra=_EXTRA_FLOATS, where=st.sampled_from(["rule", "first", "last", "any"]),
       data=st.data())
@example(n=_BLOCK, seed=3, average=True, extra=[], where="last", data=None)
@example(n=_BLOCK + 1, seed=4, average=False, extra=[], where="last", data=None)
@example(n=_BLOCK + 1, seed=5, average=True, extra=[], where="first", data=None)
@example(n=3 * _BLOCK + 1, seed=6, average=False, extra=[], where="rule", data=None)
def test_split_write_matches_rowwise_writer(tmp_path_factory, n, seed, average, extra, where,
                                            data):
    # the worker writes from row cut: the size rule's row, 1, n - 1 or any
    cut = data.draw(st.integers(1, n - 1), label="cut") if where == "any" else {
        "rule": None, "first": 1, "last": n - 1}[where]
    m = _palette_matrix(n, seed, average, extra)
    base = tmp_path_factory.getbasetemp()
    save_matrix_rowwise(m, base / "rowwise.txt")
    with _split_writes(cut) as (started, taken):
        assert _saved(m, base / "split.txt") == (base / "rowwise.txt").read_bytes()
    assert len(started) == 1 and started[0].returncode is not None
    assert taken == [n]  # every line after the cut came from the worker


def test_write_cut_follows_the_text_size():
    # one process below SPLIT_BYTES of expected text, else a cut at n / sqrt(2)
    n = 1024
    m = gram_psd(n, np.random.default_rng(1)).entries
    size = n * (len(" ".join(map(repr, m[0].tolist()))) + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matfile, "SPLIT_BYTES", size + 1)
        assert matfile._write_cut(m) == n
        mp.setattr(matfile, "SPLIT_BYTES", size)
        assert matfile._write_cut(m) == 724
        mp.setattr(matfile, "SPLIT_BYTES", 0)
        assert [matfile._write_cut(m[:k, :k]) for k in (1, 2, 3)] == [1, 1, 2]


def test_split_write_of_a_fortran_ordered_matrix(tmp_path):
    # SymMatrix keeps a read-only F-ordered array as is; the worker still
    # gets its rows, not its columns
    g = np.random.default_rng(7).standard_normal((30, 30))
    f = np.asfortranarray(np.triu(g) + np.triu(g, 1).T)
    f.flags.writeable = False
    m = SymMatrix(f)
    assert m.entries.flags.f_contiguous and not m.entries.flags.c_contiguous
    save_matrix_rowwise(m, tmp_path / "rowwise.txt")
    with _split_writes(cut=11) as (started, taken):
        assert _saved(m, tmp_path / "split.txt") == (tmp_path / "rowwise.txt").read_bytes()
    assert len(started) == 1 and taken == [30]


@pytest.mark.parametrize("case", ["no-such-python", "empty executable", "no executable",
                                  "one CPU", "killed mid-stream", "short tail line"])
def test_split_write_falls_back_to_this_process(tmp_path, monkeypatch, case):
    # 300 rows: the worker's text is many times what a pipe holds, so a
    # worker killed after its first line has not sent the rest
    n = 300
    m = gram_psd(n, np.random.default_rng(5))
    save_matrix_rowwise(m, tmp_path / "rowwise.txt")
    executable = {"no-such-python": str(tmp_path / "no-such-python"), "empty executable": "",
                  "no executable": None}.get(case, sys.executable)
    monkeypatch.setattr(sys, "executable", executable)
    if case == "short tail line":  # a whole line with too few values for a tail
        monkeypatch.setattr(matfile, "_WORKER", "import sys; sys.stdout.buffer.write(b'0.5\\n')")
    if case == "killed mid-stream":
        from_writer = matfile._from_writer

        def kill_after_one(proc, n, cut):
            for i, line in enumerate(from_writer(proc, n, cut)):
                if i == 0:
                    proc.kill()
                yield line

        monkeypatch.setattr(matfile, "_from_writer", kill_after_one)
    with _split_writes(cut=200, cpus=(0,) if case == "one CPU" else (0, 1)) as (started, taken):
        assert _saved(m, tmp_path / "split.txt") == (tmp_path / "rowwise.txt").read_bytes()
    assert [p is not None and p.returncode is not None for p in started] == {
        "no-such-python": [False], "killed mid-stream": [True], "short tail line": [True],
    }.get(case, [])
    if case == "killed mid-stream":
        assert len(taken) == 1 and 1 <= taken[0] < n
    else:
        assert taken == ([0] if case == "short tail line" else [])


@pytest.mark.parametrize("case", ["whole", "directory", "parent raises"])
def test_no_worker_outlives_save_matrix(tmp_path, case):
    # the 280 rows fed to the worker fill more than a pipe holds, so the
    # feeding thread may still be writing when the parent raises
    m = gram_psd(300, np.random.default_rng(5))
    p = tmp_path / "m.txt"
    if case == "directory":
        p.mkdir()
    threads = threading.active_count()
    with _split_writes(cut=20) as (started, _), pytest.MonkeyPatch.context() as mp:
        if case == "whole":
            save_matrix(m, p)
        else:
            def boom(*args):
                raise RuntimeError("parent rows")

            mp.setattr(matfile, "_upper_lines", boom)
            with pytest.raises(IsADirectoryError if case == "directory" else RuntimeError):
                save_matrix(m, p)
    # the path is opened before the worker starts
    assert len(started) == (case != "directory")
    assert all(w.returncode is not None and w.stdin.closed and w.stdout.closed
               for w in started)
    assert threading.active_count() == threads  # the thread that fed the worker is done


def test_write_worker_imports_no_package_module(tmp_path):
    # the worker's own command line and input, re-run with -X importtime
    m = gram_psd(40, np.random.default_rng(5))
    with _split_writes(cut=25) as (started, _):
        save_matrix(m, tmp_path / "m.txt")
    exe, *args = started[0].args
    run = subprocess.run([exe, "-X", "importtime", *args], capture_output=True,
                         input=m.entries[25:].tobytes())
    lines = run.stdout.decode().splitlines()
    assert run.returncode == 0 and len(lines) == 40
    assert lines[25:] == (tmp_path / "m.txt").read_text().splitlines()[26:]
    imported = [line.rsplit("|", 1)[1].strip() for line in run.stderr.decode().splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "numpy" in imported
    assert [name for name in imported if name.split(".")[0] == "nystromlab"] == []


def _save_peak(m, p, split: bool) -> int:
    """The tracemalloc peak of this process in save_matrix(m, p)."""
    with _split_io(split_bytes=0 if split else 1 << 62) as (started, _):
        tracemalloc.start()
        try:
            save_matrix(m, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(started) == split
    return peak


def test_split_write_peak_is_at_most_the_serial_peak(tmp_path):
    # the parent holds the pending texts of its own rows only
    m = gram_psd(512, np.random.default_rng(3))
    serial = _save_peak(m, tmp_path / "serial.txt", split=False)
    split = _save_peak(m, tmp_path / "split.txt", split=True)
    assert (tmp_path / "serial.txt").read_bytes() == (tmp_path / "split.txt").read_bytes()
    assert split <= serial, f"split peak {split} > serial peak {serial}"


def test_serial_save_holds_its_waiting_texts_joined(tmp_path):
    # At the middle row about n^2 / 4 mirrored texts wait.  Joined per
    # block of rows, each costs its 20-odd characters; a str of its own
    # would cost about 80 bytes, 2.5 x 8 n^2 bytes in all at this n.
    n = 1024
    m = gram_psd(n, np.random.default_rng(3))
    peak = _save_peak(m, tmp_path / "m.txt", split=False)
    assert peak <= 1.2 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} x 8 n^2 bytes"


def test_write_worker_holds_its_waiting_texts_joined():
    # the worker in this process, on the rows and cut of a split save; what
    # it holds besides the text it wrote is its rows and the waiting texts,
    # joined per block of the parent's rows and of its own
    n = 1024
    m = gram_psd(n, np.random.default_rng(3))
    cut = round(n / math.sqrt(2))
    stdin = types.SimpleNamespace(buffer=io.BytesIO(m.entries[cut:].tobytes()))
    stdout = types.SimpleNamespace(buffer=io.BytesIO())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", stdin)
        mp.setattr(sys, "stdout", stdout)
        peak = traced_peak(lambda: matfile._write_worker(str(n), str(cut)))
    text = stdout.buffer.getvalue()
    assert text.count(b"\n") == n
    held = peak - len(text)
    assert held <= 1.1 * 8 * n * n, f"held {held / (8 * n * n):.3f} x 8 n^2 bytes"


# ---------------------------------------------------------------------------
# configs


def _gen_config(**over):
    base = dict(
        k=2,
        trials=8,
        master_seed=7,
        n=16,
        gen=SpectrumSpec(kind="exp-decay", n=16, k=2, rate=0.5),
        coherence=CoherencePlan(target="low"),
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError) as ei:
        ExperimentConfig(k=2, trials=1, master_seed=0)
    assert ei.value.field == "matrix"
    p = tmp_path / "m.txt"
    with pytest.raises(ConfigError):
        _gen_config(matrix_path=str(p))


def test_config_gen_needs_plan_and_n():
    with pytest.raises(ConfigError) as ei:
        _gen_config(coherence=None)
    assert ei.value.field == "coherence"
    with pytest.raises(ConfigError) as ei:
        _gen_config(n=None)
    assert ei.value.field == "n"


def test_config_bounds_validation():
    # an invalid config is refused on construction, named by its config key
    for over, field in [
        ({"k": 0}, "k"),
        ({"k": 16}, "k"),  # k > n-1
        ({"trials": 0}, "trials"),
        ({"epsilon": 1.0}, "epsilon"),
        ({"delta": 0.0}, "delta"),
        ({"l": 0}, "l"),
        ({"master_seed": -1}, "seed"),
        ({"fmt": "xml"}, "format"),
        ({"jobs": 0}, "jobs"),
    ]:
        with pytest.raises(ConfigError) as ei:
            _gen_config(**over)
        assert ei.value.field == field, over


def test_config_from_mapping_minimal():
    cfg = config_from_mapping(
        {"n": 16, "k": 2, "trials": 5, "seed": 3, "gen": "exp:0.5", "coherence": "low"}
    )
    assert cfg.k == 2 and cfg.l is None and cfg.epsilon == 0.5
    assert cfg.gen.kind == "exp-decay"


def test_config_from_mapping_l_auto():
    cfg = config_from_mapping(
        {
            "n": 16,
            "k": 2,
            "trials": 5,
            "seed": 3,
            "l": "auto",
            "gen": "exact-rank-k",
            "coherence": "flat",
        }
    )
    assert cfg.l is None


def test_config_from_mapping_unknown_key():
    with pytest.raises(ConfigError) as ei:
        config_from_mapping({"k": 2, "trials": 5, "seed": 3, "matrix": "m", "bogus": 1})
    assert ei.value.field == "bogus"


def test_config_from_mapping_missing_required():
    with pytest.raises(ConfigError) as ei:
        config_from_mapping({"k": 2, "seed": 3, "matrix": "m"})
    assert ei.value.field == "trials"


def test_config_from_file_bad_json_reports_line(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{\n"k": 2,\n"trials": oops\n}\n')
    with pytest.raises(ConfigError) as ei:
        read_config(p)
    assert "line 3" in str(ei.value)


def test_config_from_file_non_object(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(ConfigError):
        read_config(p)


# ---------------------------------------------------------------------------
# prepare / run


def test_prepare_rejects_indefinite_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n0 1\n1 0\n")
    cfg = ExperimentConfig(k=1, trials=1, master_seed=0, matrix_path=str(p))
    with pytest.raises(NotPSDError):
        prepare(cfg)


def test_prepare_file_route_matches_planted_route(tmp_path):
    # the file route's eigensolve recovers the planted spectrum and tau
    spec = SpectrumSpec(kind="exp-decay", n=64, k=4, rate=0.5)
    planted = prepare(_gen_config(n=64, k=4, l=8, gen=spec))
    p = tmp_path / "m.txt"
    save_matrix(planted.a, p)
    loaded = prepare(ExperimentConfig(k=4, trials=8, master_seed=7, l=8, matrix_path=str(p)))
    tol = 1e-12 * planted.lambda1
    assert np.allclose(loaded.part.eigenvalues, planted.part.eigenvalues, rtol=0, atol=tol)
    assert loaded.lambda1 == pytest.approx(planted.lambda1, rel=0, abs=tol)
    assert loaded.lambda_k1 == pytest.approx(planted.lambda_k1, rel=0, abs=tol)
    assert loaded.report.tau == pytest.approx(planted.report.tau, rel=0, abs=1e-8)


def test_prepare_file_dimension_cross_check(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 0\n0 1\n")
    cfg = ExperimentConfig(k=1, trials=1, master_seed=0, n=3, matrix_path=str(p))
    with pytest.raises(ConfigError) as ei:
        prepare(cfg)
    assert ei.value.field == "n"


def test_prepare_auto_l_caps_at_n():
    cfg = _gen_config(coherence=CoherencePlan(target="spiked", m=1))
    setup = prepare(cfg)
    # spiked coherence is n/k = 8, so required samples far exceed n
    assert setup.report.l_required > setup.a.n
    assert setup.report.l == setup.a.n


def test_prepare_explicit_l_out_of_range():
    with pytest.raises(ConfigError) as ei:
        prepare(_gen_config(l=17))
    assert ei.value.field == "l"


def test_prepare_instance_independent_of_trial_count():
    s1 = prepare(_gen_config(trials=2))
    s2 = prepare(_gen_config(trials=50))
    assert np.array_equal(s1.a.entries, s2.a.entries)
    assert s1.report.tau == s2.report.tau


def test_prepare_flat_builds_no_n_by_n_array():
    # At any n the planted flat A is f, its transforms and U_1: no n x n
    # basis or entries are built, and the peak is the n x k blocks, under
    # a quarter of one n x n array.
    n = 256
    cfg = config_from_mapping({"n": n, "k": 16, "l": 100, "trials": 1, "seed": 1,
                               "gen": "exp:0.9", "coherence": "flat"})
    tracemalloc.start()
    try:
        setup = prepare(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert setup.a.n == n
    assert peak < n * n * 8 / 4, f"peak {peak} bytes is {peak / (n * n * 8):.2f} n^2 doubles"


def test_flat_run_at_n_4096_builds_no_n_by_n_array():
    # A flat run holds f, W and the Lanczos basis, never A itself
    # (128 MiB at n = 4096): its peak is under a quarter of one n x n
    # array.
    n = 4096
    cfg = config_from_mapping({"n": n, "k": 16, "l": 64, "trials": 2, "seed": 1,
                               "gen": "exp:0.9", "coherence": "flat"})
    tracemalloc.start()
    try:
        records, summary = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary["n"] == n and len(records) == 2
    assert peak < n * n * 8 / 4, f"peak {peak} bytes is {peak / (n * n * 8):.3f} n^2 doubles"


def test_run_trial_matches_batch_record():
    cfg = _gen_config(trials=10, l=8)
    records, _ = run_experiment(cfg)
    setup = prepare(cfg)
    solo = run_trial(setup, cfg.master_seed, 7)
    a = dataclasses.replace(solo, wall_ms=0.0)
    b = dataclasses.replace(records[7], wall_ms=0.0)
    assert a == b


@pytest.mark.parametrize("plan", [CoherencePlan("flat"), CoherencePlan("low")])
def test_run_trial_takes_one_gram_eigenvalue(plan, monkeypatch):
    # min_eig_gram runs once per trial, and det_bound keeps the bits that
    # deterministic_bound gives for the same sample
    cfg = _gen_config(trials=12, l=6, master_seed=3, coherence=plan)
    setup = prepare(cfg)
    calls = []

    def counted(u, sample):
        calls.append(sample)
        return analysis.min_eig_gram(u, sample)

    monkeypatch.setattr(experiment, "min_eig_gram", counted)
    for t in range(cfg.trials):
        del calls[:]
        r = run_trial(setup, cfg.master_seed, t)
        assert len(calls) == 1
        if r.omega1_full_rank:
            assert r.det_bound == analysis.deterministic_bound(setup.part, calls[0])


def test_run_trial_det_bound_overflow_raises():
    setup = prepare(_gen_config(l=8))
    lam = setup.part.eigenvalues.copy()
    lam[setup.part.k:] = 1e308
    part = dataclasses.replace(setup.part, eigenvalues=lam)
    with pytest.raises(FloatingPointError, match="det_bound overflows at lambda1"):
        run_trial(dataclasses.replace(setup, part=part), 7, 0)


@pytest.mark.parametrize("gen", ["exp:0.5", "exact-rank-k"])
def test_prepare_overflow_names_lambda1(gen):
    # a prob_bound or a spectrum past the float64 range is an error, not inf
    cfg = config_from_mapping({"n": 64, "k": 2, "l": 8, "trials": 1, "seed": 1,
                               "gen": gen, "coherence": "flat", "lambda1": 1e308})
    with pytest.raises(FloatingPointError, match="lambda1=1e\\+308"):
        prepare(cfg)


def test_prepare_overflowing_file_spectrum_names_lambda1(tmp_path):
    # ||A||_2 = 2e308: the eigensolve of the file's matrix reports inf
    p = tmp_path / "m.txt"
    p.write_text("2\n1e308 1e308\n1e308 1e308\n")
    cfg = config_from_mapping({"matrix": str(p), "k": 1, "l": 1, "trials": 1, "seed": 1})
    with pytest.raises(FloatingPointError, match="lambda1=inf"):
        prepare(cfg)


@pytest.mark.parametrize("plan,l,failures", [("flat", 16, 0), ("low", None, 0),
                                              ("spiked:2", 16, 5)])
def test_exact_rank_k_trials_fail_only_when_rank_deficient(plan, l, failures):
    # prob_bound is exactly 0 here; a full-rank sample reproduces A up to
    # round-off, which the rounding floor of the error route allows, and a
    # rank-deficient one (spiked:2 at l = 16) leaves an error near lambda_1
    mapping = {"n": 64, "k": 4, "trials": 5, "seed": 3, "gen": "exact-rank-k",
               "coherence": plan, "l": l}
    records, summary = run_experiment(config_from_mapping(mapping))
    assert summary["prob_bound"] == 0.0
    assert summary["failures"] == summary["rank_deficient"] == failures
    assert all(r.error_le_bound == r.omega1_full_rank for r in records)


@pytest.mark.parametrize("mapping,key,message", [
    ({"gen": "custom:1,2", "n": 2, "coherence": "low"}, "gen",
     "spectrum is not non-increasing"),
    ({"gen": "custom:1,-1", "n": 2, "coherence": "low"}, "gen",
     "spectrum contains a negative eigenvalue"),
    ({"gen": "exp:0.9", "n": 12, "coherence": "flat"}, "coherence",
     "flat basis needs n to be a power of two, got 12"),
    ({"gen": "exp:0.5", "n": 16, "coherence": "spiked:5"}, "coherence",
     "spiked plan m=5 exceeds k=1"),
])
def test_generated_spectrum_errors_name_their_key(mapping, key, message):
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({"k": 1, "trials": 1, "seed": 0, **mapping})
    assert exc.value.field == key
    assert str(exc.value) == f"config error in {key!r}: {message}"


def test_full_sample_run_has_no_failures():
    cfg = _gen_config(trials=6, l=16)
    records, summary = run_experiment(cfg)
    assert summary["failures"] == 0
    assert summary["rank_deficient"] == 0
    assert summary["error_max"] <= 1e-9 * summary["lambda1"]
    assert all(r.error_le_bound for r in records)


def test_summary_consistent_with_records():
    cfg = _gen_config(trials=40, l=6, master_seed=11)
    records, summary = run_experiment(cfg)
    errors = [r.spectral_error for r in records]
    assert summary["failures"] == sum(1 for r in records if not r.error_le_bound)
    assert summary["rank_deficient"] == sum(
        1 for r in records if not r.omega1_full_rank
    )
    assert summary["error_min"] == min(errors)
    assert summary["error_max"] == max(errors)
    assert summary["error_median"] == float(np.quantile(np.array(errors), 0.5))
    assert summary["trials"] == 40
    assert summary["l"] == 6


def test_records_deterministic_across_jobs():
    cfg1 = _gen_config(trials=24, l=8, jobs=1)
    cfg4 = _gen_config(trials=24, l=8, jobs=4)
    r1, s1 = run_experiment(cfg1)
    r4, s4 = run_experiment(cfg4)
    t1 = emit_results(r1, s1, fmt="csv")
    t4 = emit_results(r4, s4, fmt="csv")
    assert t1 == t4


def test_rank_deficient_trials_get_na_fields():
    # spiked basis + tiny sample: some trials must miss the spike
    cfg = ExperimentConfig(
        k=1,
        trials=30,
        master_seed=5,
        n=16,
        l=2,
        gen=SpectrumSpec(kind="exact-rank-k", n=16, k=1),
        coherence=CoherencePlan(target="spiked", m=1),
    )
    records, summary = run_experiment(cfg)
    assert summary["rank_deficient"] > 0
    for r in records:
        if not r.omega1_full_rank:
            assert r.det_bound is None and r.pinv_norm_sq is None
        else:
            assert r.det_bound is not None and r.pinv_norm_sq is not None


# ---------------------------------------------------------------------------
# emission


def test_emit_csv_layout(tmp_path):
    cfg = _gen_config(trials=3, l=8)
    records, summary = run_experiment(cfg)
    out = tmp_path / "r.csv"
    text = emit_results(records, summary, fmt="csv", path=out)
    assert out.read_text() == text
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    assert len(row) == len(CSV_HEADER.split(","))
    assert row[0] == "0" and row[1] == "0"
    assert row[2] == "8" and row[3] == "2"
    # float cells round-trip exactly
    assert float(row[6]) == records[0].spectral_error
    assert float(row[8]) == records[0].prob_bound
    assert row[-1] == "NA"
    assert row[-2] in ("true", "false")


def test_emit_csv_timings_opt_in():
    cfg = _gen_config(trials=2, l=8)
    records, summary = run_experiment(cfg)
    text = emit_results(records, summary, fmt="csv", timings=True)
    cell = text.splitlines()[1].split(",")[-1]
    assert cell != "NA" and float(cell) >= 0.0


def test_emit_json_nulls_and_summary():
    cfg = _gen_config(trials=2, l=8)
    records, summary = run_experiment(cfg)
    doc = json.loads(emit_results(records, summary, fmt="json"))
    assert doc["summary"]["trials"] == 2
    assert len(doc["records"]) == 2
    assert doc["records"][0]["wall_ms"] is None
    assert doc["records"][0]["spectral_error"] == records[0].spectral_error


def test_emit_rejects_unknown_format():
    cfg = _gen_config(trials=1, l=8)
    records, summary = run_experiment(cfg)
    with pytest.raises(ConfigError):
        emit_results(records, summary, fmt="tsv")


def test_emitted_text_identical_across_runs():
    cfg = _gen_config(trials=12, l=8)
    out1 = emit_results(*run_experiment(cfg), fmt="csv")
    out2 = emit_results(*run_experiment(cfg), fmt="csv")
    assert out1 == out2


def test_config_file_end_to_end(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            {
                "n": 16,
                "k": 2,
                "trials": 4,
                "seed": 9,
                "l": 8,
                "gen": "exact-rank-k",
                "coherence": "flat",
            }
        )
    )
    cfg = config_from_mapping(read_config(p))
    records, summary = run_experiment(cfg)
    assert summary["tau"] == pytest.approx(1.0, abs=1e-9)
    assert len(records) == 4


# ---------------------------------------------------------------------------
# chernoff sweep


def test_chernoff_sweep_flat_point():
    rows = chernoff_sweep(
        n=32,
        ks=[2],
        plans=[CoherencePlan(target="flat")],
        epsilons=[0.5],
        trials=50,
        master_seed=13,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["tau"] == pytest.approx(1.0, abs=1e-9)
    assert row["plan"] == "flat"
    assert 1 <= row["l"] <= 32
    assert row["threshold"] == pytest.approx(0.5 * row["l"] / 32)
    assert row["chernoff_tail"] == pytest.approx(
        chernoff_tail(2, row["tau"], row["l"], 0.5), rel=1e-12
    )
    assert row["failures"] == round(row["empirical_rate"] * 50)


def test_chernoff_sweep_spiked_fallback_l():
    rows = chernoff_sweep(
        n=32,
        ks=[4],
        plans=[CoherencePlan(target="spiked", m=1)],
        epsilons=[0.5],
        trials=20,
        master_seed=13,
    )
    # worst-case coherence: informative window unreachable, fallback kicks in
    assert rows[0]["tau"] == pytest.approx(8.0, abs=1e-8)
    assert rows[0]["l"] == math.ceil(0.6 * 32)
    assert rows[0]["chernoff_tail"] > 0.5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 10_000),
    k_frac=st.floats(0.0, 1.0),
    tau_frac=st.floats(0.0, 1.0),
    epsilon=st.one_of(st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0)]), st.floats(0.0, 1.0)),
)
def test_auto_l_is_a_valid_sample_size(n, k_frac, tau_frac, epsilon):
    # any k in [1, n] and any coherence tau in [1, n / k], as for a real basis
    k = max(1, math.ceil(k_frac * n))
    tau = 1.0 + tau_frac * (n / k - 1.0)
    l = _auto_l(n, k, tau, epsilon)
    assert isinstance(l, int) and 1 <= l <= n


def test_chernoff_sweep_deterministic_and_grid_order():
    kwargs = dict(
        n=16,
        ks=[1, 2],
        plans=[CoherencePlan(target="flat"), CoherencePlan(target="low")],
        epsilons=[0.25, 0.5],
        trials=10,
        master_seed=21,
    )
    r1 = chernoff_sweep(**kwargs)
    r2 = chernoff_sweep(**kwargs, jobs=3)
    assert emit_table(r1) == emit_table(r2)
    assert len(r1) == 8
    assert [r["k"] for r in r1] == [1, 1, 1, 1, 2, 2, 2, 2]
    assert [r["epsilon"] for r in r1[:4]] == [0.25, 0.5, 0.25, 0.5]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chernoff_sweep_numpy_epsilon_emits_plain_values(fmt):
    # the rows hold no numpy scalar: the CSV writes true/false, and JSON works
    rows = chernoff_sweep(4, [1], [CoherencePlan("flat")], [np.float64(0.5)], 2, 0)
    plain = chernoff_sweep(4, [1], [CoherencePlan("flat")], [0.5], 2, 0)
    assert emit_table(rows, fmt) == emit_table(plain, fmt)
    assert [type(rows[0][key]) for key in ("epsilon", "failures", "dominated")] == [
        float, int, bool]


@pytest.mark.parametrize("over,field", [
    ({"trials": 0}, "trials"), ({"trials": -3}, "trials"), ({"jobs": 0}, "jobs"),
    # a k or l in range that is not an integer
    ({"ks": [2.5]}, "k"), ({"ks": [True]}, "k"), ({"ls": [3.5]}, "l"), ({"ls": [True]}, "l"),
])
def test_chernoff_sweep_rejects_counts_below_one(over, field):
    args = dict(n=16, ks=[2], plans=[CoherencePlan(target="flat")], epsilons=[0.5],
                trials=5, master_seed=0)
    with pytest.raises(ConfigError) as ei:
        chernoff_sweep(**{**args, **over})
    assert ei.value.field == field


def test_chernoff_sweep_explicit_ls_validation():
    with pytest.raises(ConfigError):
        chernoff_sweep(
            n=16,
            ks=[1, 2],
            plans=[CoherencePlan(target="flat")],
            epsilons=[0.5],
            trials=5,
            master_seed=0,
            ls=[4, 5, 6],
        )


def test_emit_table_csv_round_trip():
    rows = chernoff_sweep(
        n=16,
        ks=[2],
        plans=[CoherencePlan(target="flat")],
        epsilons=[0.5],
        trials=10,
        master_seed=2,
    )
    text = emit_table(rows, fmt="csv")
    lines = text.splitlines()
    assert lines[0].split(",") == list(rows[0])
    cells = lines[1].split(",")
    assert float(cells[list(rows[0]).index("tau")]) == rows[0]["tau"]
    assert cells[list(rows[0]).index("dominated")] in ("true", "false")
    doc = json.loads(emit_table(rows, fmt="json"))
    assert doc["rows"][0]["k"] == 2


def test_instance_stream_spacing():
    # trial streams are indices; the instance stream must sit far above any
    # realistic trial count so the two can never collide
    assert INSTANCE_STREAM == 2**63


# ---------------------------------------------------------------------------
# exact serializer bytes


_PINNED_RECORDS = [
    TrialRecord(trial=0, spectral_error=0.1, error_residual=0.0, det_bound=1.5,
                prob_bound=3.0, min_eig_gram=0.25, pinv_norm_sq=4.0, rank_w=3,
                omega1_full_rank=True, error_le_bound=True, wall_ms=1.25),
    TrialRecord(trial=1, spectral_error=2.5e-17, error_residual=0.0, det_bound=None,
                prob_bound=3.0, min_eig_gram=-1e-18, pinv_norm_sq=None, rank_w=0,
                omega1_full_rank=False, error_le_bound=False, wall_ms=0.5),
]
_PINNED_SUMMARY = {"n": 8, "k": 2, "l": 4, "epsilon": 0.5, "delta": 0.05, "trials": 2}


def _pinned_json_record(trial, det, gram, pnsq, rank_w, flag, wall_ms):
    err = 0.1 if flag else 2.5e-17
    return {
        "trial": trial, "seed": trial, "l": 4, "k": 2, "epsilon": 0.5,
        "delta": 0.05, "spectral_error": err, "det_bound": det,
        "prob_bound": 3.0, "min_eig_gram": gram, "pinv_norm_sq": pnsq,
        "rank_w": rank_w, "omega1_full_rank": flag, "error_le_bound": flag,
        "wall_ms": wall_ms,
    }


@pytest.mark.parametrize("timings", [False, True])
def test_emit_results_csv_exact_bytes(timings):
    wall = ("1.25", "0.5") if timings else ("NA", "NA")
    expect = (
        CSV_HEADER + "\n"
        f"0,0,4,2,0.5,0.05,0.1,1.5,3.0,0.25,4.0,3,true,true,{wall[0]}\n"
        f"1,1,4,2,0.5,0.05,2.5e-17,NA,3.0,-1e-18,NA,0,false,false,{wall[1]}\n"
    )
    assert emit_results(_PINNED_RECORDS, _PINNED_SUMMARY, "csv", timings=timings) == expect


@pytest.mark.parametrize("timings", [False, True])
def test_emit_results_json_exact_bytes(timings):
    wall = (1.25, 0.5) if timings else (None, None)
    doc = {
        "summary": _PINNED_SUMMARY,
        "records": [
            _pinned_json_record(0, 1.5, 0.25, 4.0, 3, True, wall[0]),
            _pinned_json_record(1, None, -1e-18, None, 0, False, wall[1]),
        ],
    }
    expect = json.dumps(doc, indent=2) + "\n"
    assert emit_results(_PINNED_RECORDS, _PINNED_SUMMARY, "json", timings=timings) == expect


def test_emit_results_empty_keeps_header():
    assert emit_results([], _PINNED_SUMMARY, "csv") == CSV_HEADER + "\n"
    doc = {"summary": _PINNED_SUMMARY, "records": []}
    assert emit_results([], _PINNED_SUMMARY, "json") == json.dumps(doc, indent=2) + "\n"


def test_emit_table_exact_bytes(tmp_path):
    rows = [
        {"k": 2, "plan": "flat", "tau": 1.0, "l": 7, "rate": 1 / 3, "dominated": True},
        {"k": 4, "plan": "spiked:1", "tau": 8.0, "l": 20, "rate": 0.0, "dominated": False},
    ]
    out = tmp_path / "t.csv"
    assert emit_table(rows, "csv", path=out) == (
        "k,plan,tau,l,rate,dominated\n"
        "2,flat,1.0,7,0.3333333333333333,true\n"
        "4,spiked:1,8.0,20,0.0,false\n"
    )
    assert out.read_text() == emit_table(rows, "csv")
    assert emit_table(rows, "json") == json.dumps({"rows": rows}, indent=2) + "\n"
