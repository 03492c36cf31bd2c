"""The plain-text matrix format: :func:`load_matrix` and :func:`save_matrix`.

README "File formats" describes the format and how a large file is read
and written.
This module imports only the standard library and numpy at module level:
the worker processes that parse or format the second part of a large file
run this file alone, without importing the package.
"""

from __future__ import annotations

import codecs
import contextlib
import itertools
import json
import math
import os
import queue
import stat
import subprocess
import sys
import threading
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .matcore import SymMatrix

# Data lines per np.loadtxt call in load_matrix.
LOAD_CHUNK = 8
# The most bytes load_matrix reads at once: a longer line is read in pieces.
READ_BYTES = 1 << 20
# load_matrix parses, and save_matrix formats, at least this much text in
# two processes.  A worker takes about 0.2 s to start, as long as parsing
# SPLIT_BYTES / 2 takes, so the reading parent takes that much more of the
# file; a split write breaks even at about this size.
SPLIT_BYTES = 20 << 20
# Rows formatted at a time by save_matrix: a mirrored text waiting for a
# row past them waits joined with theirs, one piece per block of rows.
# A piece of 16 texts, each at most 24 characters, is a small object that
# Python's own allocator gives back when it is freed; a larger one comes
# from the C heap, which keeps such pieces resident after the save.
WRITE_BLOCK = 16


class MatrixFileError(ValueError):
    """A matrix file failed to parse or validate.

    ``kind`` is one of ``header``, ``count``, ``value``, ``asymmetry``;
    ``line`` is the 1-based offending line where applicable.
    """

    def __init__(self, message: str, line: int | None, kind: str):
        self.line = line
        self.kind = kind
        super().__init__(message)


# str.splitlines() ends a line at each of these.
_BREAKS = tuple("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _lines(fb, size: int = -1):
    """The lines str.splitlines() finds in the next size bytes of fb (all
    for a negative size), which must end at a line.  No other line end in
    UTF-8 holds an LF byte, so each read up to an LF is split on its own."""
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
    """rows, resized in place to the fewest of n, ceil(n/2), ceil(n/4), ...
    rows that hold need rows of n values, so that a copy realloc must make
    holds at most 1.5 n^2 values at once."""
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
    lines from 1 at the span's first line; ``count`` is that of the last
    line, ``last`` that of the last non-blank line (0 if none), and
    ``defect`` is ``(index, kind, detail)`` for the first bad data line."""

    rows: np.ndarray | None
    count: int
    last: int
    defect: tuple | None


_NO_LINES = _Span(None, 0, 0, None)


def _read_span(lines, n: int, start: _Span = _NO_LINES) -> _Span:
    """Parse lines into start's buffer of rows (a new one if None), as the
    lines after start's, up to the first bad data line; lines past the
    first n are only checked for blankness."""
    rows, count, last, defect = start
    for i in range(count, n, LOAD_CHUNK):
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
                    rows = _reserve(rows, count, n)
                    rows[count - 1] = vals
    for line in lines:
        count += 1
        if line.strip():
            last = count
    return _Span(rows, count, last, defect)


def _count_error(n: int, last: int) -> MatrixFileError:
    return MatrixFileError(f"expected {n} data lines after the header, found {last}",
                           last + 1, "count")


def _split_point(fb) -> int:
    """The byte where a worker process takes over the parse of fb, or -1."""
    st = os.fstat(fb.fileno())
    if (not stat.S_ISREG(st.st_mode) or st.st_size < SPLIT_BYTES
            or not isinstance(fb.name, (str, bytes))):  # the worker opens fb by name
        return -1
    fb.seek((st.st_size + SPLIT_BYTES // 2) // 2)
    while (raw := fb.readline(READ_BYTES)) and not raw.endswith(b"\n"):
        pass
    split = fb.tell()
    fb.seek(0)
    return split if split < st.st_size else -1


# The worker runs isolated (-I), so neither its working directory nor a
# PYTHON* variable adds to its import path, which is set to this process's
# sys.path.  It runs this file by its path, so it imports no package module,
# and calls the function argv[2] names (popped first) on the rest of argv.
_WORKER = ("import sys, json, runpy; sys.path[:] = json.loads(sys.argv[1]); "
           f"runpy.run_path({os.path.abspath(__file__)!r})[sys.argv.pop(2)](*sys.argv[2:])")


def _feed(pipe, rows: np.ndarray) -> None:
    """Write rows to pipe as C-ordered bytes and close it; the reader may be gone."""
    with contextlib.suppress(OSError), pipe:
        pipe.write(np.ascontiguousarray(rows))


@contextlib.contextmanager
def _worker(*args: str, feed: np.ndarray | None = None):
    """A worker process that runs this file's function args[0] on args[1:],
    with the rows feed (fed by a thread) or else this process's stdin as
    its stdin; None where Python cannot name its executable, only one CPU
    is usable or no process starts.  On exit it is killed and reaped."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    proc = None
    if sys.executable and cpus > 1:  # it can be empty or None
        path = json.dumps([d for d in sys.path if isinstance(d, str)])
        try:
            # an inherited stdin keeps /dev/stdin the same file
            proc = subprocess.Popen(
                [sys.executable, "-I", "-c", _WORKER, path, *args],
                stdin=None if feed is None else subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},  # it runs no BLAS
            )
        except OSError:
            pass
    if proc is None:
        yield None
        return
    with proc:  # closes the pipes and waits
        feeder = threading.Thread(target=_feed, args=(proc.stdin, feed))
        try:
            if feed is not None:
                feeder.start()
            yield proc
        finally:
            proc.kill()  # a feeder still writing gets a broken pipe
            if feeder.is_alive():
                feeder.join()


def _span_worker(path, start: str, n: str, dev: str, ino: str) -> None:
    """The worker's side: parse path from byte start, then write its row
    count as one line and the rows as raw float64 bytes.  It exits 1 if
    path is no longer the parent's file, if a line up to its last non-blank
    one is not a row, or if it holds more than n rows."""
    n = int(n)
    with open(path, "rb") as fb:
        st = os.fstat(fb.fileno())
        if (st.st_dev, st.st_ino) != (int(dev), int(ino)):
            sys.exit(1)
        fb.seek(int(start))
        span = _read_span(_lines(fb), n)
    if span.last > n or span.defect and span.defect[0] <= span.last:
        sys.exit(1)
    out = sys.stdout.buffer
    out.write(b"%d\n" % span.last)
    if span.last:
        out.write(span.rows[:span.last])
    out.flush()


def _from_worker(proc, first: _Span, n: int) -> np.ndarray | None:
    """The n rows of first's buffer (a clean span), completed by the
    worker's; None unless the worker reports its count and then all its
    row bytes arrive.  A count that does not complete n raises the count
    error that one read of the file reports."""
    try:
        count = int(proc.stdout.readline())
    except ValueError:
        return None
    last = first.count + count if count else first.last
    if last != n:
        raise _count_error(n, last)
    rows = _reserve(first.rows, n, n)
    if proc.stdout.readinto(rows[first.last:]) != count * n * 8:
        return None
    return rows


def load_matrix(path) -> SymMatrix:
    """Read the plain-text matrix format (README "File formats"); raises
    :class:`MatrixFileError` with the kind and line of the first defect."""
    from .matcore import SymMatrix  # here, so that the worker imports no package module

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
        rows = None
        span = _NO_LINES
        if split > 0:
            st = os.fstat(fb.fileno())
            where = (fb.name, *map(str, (split, n, st.st_dev, st.st_ino)))
            with _worker("_span_worker", *where) as proc:
                span = _read_span(lines, n)
                if proc and not span.defect:  # else the worker is killed unread
                    rows = _from_worker(proc, span, n)
            if rows is None:  # this process goes on with the worker's lines
                fb.seek(split)
                lines = _lines(fb)
        if rows is None:
            span = _read_span(lines, n, span)
            if span.last != n:
                raise _count_error(n, span.last)
            if span.defect:
                lineno, kind, detail = 1 + span.defect[0], *span.defect[1:]
                raise MatrixFileError(f"line {lineno}: {detail}", lineno, kind)
            rows = span.rows
    rows.flags.writeable = False  # handed over: SymMatrix stores it as is
    try:
        return SymMatrix(rows)
    except ValueError as exc:
        raise MatrixFileError(str(exc), None, "asymmetry") from exc


def _joined(row: np.ndarray) -> str:
    return " ".join(map(repr, row.tolist()))


def _mirrored(part: np.ndarray, pending: list[list[str]]) -> list[str]:
    """The texts of each row of part joined, each entry formatted once; the
    texts of its column j are appended to pending[j] joined into one piece."""
    texts = [list(map(repr, row.tolist())) for row in part]
    for later, column in zip(pending, zip(*texts)):
        later.append(" ".join(column))
    return [" ".join(row) for row in texts]


def _upper_lines(block: np.ndarray, pending: list[list[str]]):
    """The lines of the symmetric block's rows, each entry formatted once,
    WRITE_BLOCK rows at a time: the texts of block[:, j] in those rows wait
    in pending[j] joined into one piece (:func:`_mirrored`) for each row j
    past them, and one by one for a row j among them."""
    n = len(block)
    for s in range(0, n, WRITE_BLOCK):
        e = min(s + WRITE_BLOCK, n)
        rests = _mirrored(block[s:e, e:], pending[e:])
        for i, rest in zip(range(s, e), rests):
            texts = list(map(repr, block[i, i:e].tolist()))
            for later, text in zip(pending[i + 1:e], texts[1:]):
                later.append(text)
            yield " ".join(pending[i] + texts + ([rest] if rest else []))
            pending[i] = None


def _write_cut(entries: np.ndarray) -> int:
    """The first row a worker writes: n where the text, estimated as n times
    that of row 0, is below SPLIT_BYTES; else n / sqrt(2), where the two
    processes format as many entries each."""
    n = len(entries)
    return n if n * (len(_joined(entries[0])) + 1) < SPLIT_BYTES else round(n / math.sqrt(2))


def _drain(texts, out) -> None:
    """Write the bytes put on the queue texts, all that wait at once, until b""."""
    while True:
        batch = [texts.get()]
        while batch[-1] and not texts.empty():
            batch.append(texts.get())
        out.write(b"".join(batch))
        if not batch[-1]:
            return


def _write_worker(n: str, cut: str) -> None:
    """The worker's side of a save (README "File formats"); a thread writes,
    so that formatting never waits on the pipe."""
    n, cut = int(n), int(cut)
    rows = np.empty((n - cut, n))
    if sys.stdin.buffer.readinto(rows) != rows.nbytes:
        sys.exit(1)
    texts = queue.SimpleQueue()
    writer = threading.Thread(target=_drain, args=(texts, sys.stdout.buffer))
    writer.start()
    pending = [[] for _ in rows]
    for s in range(0, cut, WRITE_BLOCK):  # the tails of rows s.., mirrored
        for tail in _mirrored(rows[:, s:min(s + WRITE_BLOCK, cut)].T, pending):
            texts.put((tail + "\n").encode())
    for line in _upper_lines(rows[:, cut:], pending):
        texts.put((line + "\n").encode())
    texts.put(b"")
    writer.join()


def _from_writer(proc, n: int, cut: int):
    """The worker's lines, while each is whole ASCII text: the tails of rows
    0..cut-1 hold n - cut values, the rows after them n."""
    for i in range(n):
        line = proc.stdout.readline()
        values = n - cut if i < cut else n
        if not line.endswith(b"\n") or line.count(b" ") != values - 1 or not line.isascii():
            return
        yield line[:-1].decode()


def save_matrix(a: SymMatrix, path) -> None:
    """Write a in the plain-text matrix format (README "File formats")."""
    n, entries = a.n, a.entries
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        cut = _write_cut(entries)
        with (_worker("_write_worker", str(n), str(cut), feed=entries[cut:]) if cut < n
              else contextlib.nullcontext()) as proc:
            cut = cut if proc else n
            lines = _from_writer(proc, n, cut)
            for i, text in enumerate(_upper_lines(entries[:cut, :cut], [[] for _ in range(cut)])):
                if cut < n:
                    text += " " + (next(lines, None) or _joined(entries[i, cut:]))
                fh.write(text + "\n")
            for row in entries[cut:]:
                fh.write((next(lines, None) or _joined(row)) + "\n")
