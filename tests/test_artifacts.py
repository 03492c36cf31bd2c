"""CLI artifacts pinned in files: the stdout, stderr and exit code of a few
small runs, recorded under ``tests/artifacts``.

On the platform they were recorded on (the numpy version and BLAS name in
``artifacts/recorded.json``) each output must match its file byte for
byte.  Elsewhere, and for the cases in ``BY_VALUE``, the texts must match
with every number parsed: integers exactly, floats within ``REL_TOL``
relative, and the text between them (keys, ``true``/``false``, ``NA``)
exactly.  Every other case gave the same bytes at one to four OpenBLAS
threads.

A change that moves bits re-records the files with

    PYTHONPATH=src python tests/test_artifacts.py

and lists every moved cell in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nystromlab import SymMatrix, save_matrix
from nystromlab.cli import main

HERE = Path(__file__).resolve().parent / "artifacts"
REL_TOL = 1e-12

# name: argv, with {file} standing for an input file of _inputs
CASES = {
    # CI's flat route, applied by Walsh-Hadamard transforms
    "trials-flat": "trials --gen exp:0.9 --coherence flat --n 256 --k 8 --l 64 --trials 6 --seed 3",
    # a dense A planted on a Haar basis
    "trials-low": "trials --gen exp:0.9 --coherence low --n 128 --k 8 --l 40 --trials 4 --seed 3",
    "approx-l": "approx --matrix {m40} --l 7 --seed 1",
    "approx-indices": "approx --matrix {m40} --indices 0,5,11,17,23,39",
    # a_nn = -1 fails the PSD certificate in its last block, and exits 4
    "approx-not-psd": "approx --matrix {m600neg} --l 50 --seed 1",
    "bounds": "bounds --n 64 --k 4 --tau 2 --l 40",
    "chernoff": "chernoff --n 64 --k 2 --coherence flat --epsilon 0.25 --epsilon 0.5 "
                "--trials 50 --seed 1",
    "config-error": "bounds --n 4 --k 5 --tau 1",
    "data-error": "approx --matrix {bad} --l 1",
}

# Compared by value on every platform: the eigenvalue and the clamp floor
# that the message prints come from a 600 x 600 eigensolve, whose last bit
# moves with the BLAS thread count (-1.3244536680095393 at one OpenBLAS
# thread, ...391 at two to four).
BY_VALUE = {"approx-not-psd"}


def _inputs(d: Path) -> dict[str, str]:
    """The input files by name: the committed 40 x 40 kernel, and the rest
    written into d."""
    g = np.random.default_rng(1).standard_normal((600, 602))
    a = g @ g.T / 600
    a[-1, -1] = -1.0
    save_matrix(SymMatrix(a), d / "m600neg.txt")
    (d / "bad.txt").write_text("2\n1 0\nx 1\n")
    return {"m40": str(HERE / "m40.txt"), "m600neg": str(d / "m600neg.txt"),
            "bad": str(d / "bad.txt")}


def this_platform() -> dict[str, str]:
    """The numpy version and the name and version of its BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # a numpy that reports no build dependencies
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def run(case: str, inputs: dict[str, str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI on one case, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[case].format(**inputs).split())
    return code, out.getvalue(), err.getvalue()


_NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan))")


def same_values(got: str, want: str) -> bool:
    """True when the texts match with each number parsed: integers exactly,
    floats within REL_TOL relative, the text between numbers exactly."""
    a, b = _NUMBER.split(got), _NUMBER.split(want)
    if len(a) != len(b):
        return False
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0 or not any(c in x + y for c in ".eEn"):
            if x != y:
                return False
        elif not math.isclose(float(x), float(y), rel_tol=REL_TOL, abs_tol=0.0):
            return False
    return True


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("artifacts"))


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_its_recorded_artifact(case, inputs):
    recorded = json.loads((HERE / "recorded.json").read_text())
    code, out, err = run(case, inputs)
    assert code == recorded["exit"][case]
    for got, name in ((out, f"{case}.stdout"), (err, f"{case}.stderr")):
        want = (HERE / name).read_text()
        if this_platform() == recorded["platform"] and case not in BY_VALUE:
            assert got == want, name
        else:
            assert same_values(got, want), name


def test_value_comparison_parses_numbers():
    want = "k,error,ok\n2,0.125,true\nerror: line 3: eigenvalue -1e-05 is NA\n"
    assert same_values(want, want)
    assert same_values(want.replace("0.125", "0.12500000000000003"), want)
    assert same_values(want.replace("-1e-05", "-1.0000000000000001e-05"), want)
    for moved in (want.replace("0.125", "0.1250000001"), want.replace("2,", "3,"),
                  want.replace("true", "false"), want.replace("NA", "0.0"),
                  want.replace("line 3", "line 4"), want + "\n"):
        assert not same_values(moved, want)


def record() -> None:
    """Write every case's output and recorded.json."""
    with tempfile.TemporaryDirectory() as d:
        inputs = _inputs(Path(d))
        codes = {}
        for case in CASES:
            codes[case], out, err = run(case, inputs)
            (HERE / f"{case}.stdout").write_text(out)
            (HERE / f"{case}.stderr").write_text(err)
    doc = {"platform": this_platform(), "exit": codes}
    (HERE / "recorded.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(record())
