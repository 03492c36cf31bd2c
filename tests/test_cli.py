"""End-to-end command-line behavior, including exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nystromlab import cli, required_samples, save_matrix, SymMatrix
from nystromlab.cli import main
from nystromlab.experiment import CSV_HEADER
from nystromlab.matcore import EPS

from helpers import gram_psd, planted_psd


@pytest.fixture
def identity4(tmp_path):
    p = tmp_path / "eye4.txt"
    p.write_text("4\n" + "\n".join(" ".join("1" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
    return str(p)


@pytest.fixture
def psd8(tmp_path):
    rng = np.random.default_rng(17)
    p = tmp_path / "psd8.txt"
    save_matrix(gram_psd(8, rng), p)
    return str(p)


# ---------------------------------------------------------------------------
# approx


def test_approx_explicit_indices(identity4, capsys):
    assert main(["approx", "--matrix", identity4, "--indices", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4
    assert doc["indices"] == [0, 1]
    assert doc["spectral_error"] == pytest.approx(1.0, abs=1e-12)
    assert doc["rank_w"] == 2
    assert doc["lambda1"] == pytest.approx(1.0)


def test_approx_sampled(psd8, capsys):
    assert main(["approx", "--matrix", psd8, "--l", "3", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l"] == 3 and len(doc["indices"]) == 3
    assert doc["spectral_error"] >= 0.0
    assert doc["relative_error"] <= 1.0 + 1e-9


def test_approx_out_file(identity4, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["approx", "--matrix", identity4, "--l", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["spectral_error"] <= 1e-9


def test_approx_needs_l_or_indices(identity4, capsys, monkeypatch):
    # decided before the matrix is read
    opened = []
    monkeypatch.setattr(cli, "load_matrix", opened.append)
    assert main(["approx", "--matrix", identity4]) == 2
    assert opened == []
    assert capsys.readouterr().err == "error: config error in 'l': give either --l or --indices\n"


def test_approx_non_integer_index_names_indices(identity4, capsys):
    assert main(["approx", "--matrix", identity4, "--indices", "0,x"]) == 2
    assert capsys.readouterr().err == "error: config error in 'indices': not an integer: 'x'\n"


@pytest.mark.parametrize("flags,read,message", [
    (["--l", "0"], False, "'l': must be an integer in [1, 2^64), got 0"),
    (["--l", "1", "--seed", "-1"], False, "'seed': must be an integer in [0, 2^64), got -1"),
    (["--l", "1", "--seed", str(2**64)], False,
     f"'seed': must be an integer in [0, 2^64), got {2**64}"),
    (["--l", "5"], True, "'l': must lie in [1, n=4], got 5"),
    (["--indices", "0,0"], True, "'indices': duplicate index 0 in sample"),
    (["--indices", "4"], True, "'indices': index 4 out of range [0, 4)"),
    (["--indices", ","], True, "'indices': sample size 0 out of range [1, 4]"),
], ids=["l below 1", "negative seed", "seed past 2^64", "l above n", "duplicate index",
        "index out of range", "no index"])
def test_approx_bad_sample_names_its_key(identity4, capsys, monkeypatch, flags, read, message):
    # l and the seed are checked before the matrix is read, l <= n and
    # the indices after; none of these reaches the PSD check
    opened, checked = [], []
    load = cli.load_matrix
    monkeypatch.setattr(cli, "load_matrix", lambda p: opened.append(p) or load(p))
    monkeypatch.setattr(cli, "check_psd", checked.append)
    assert main(["approx", "--matrix", identity4, *flags]) == 2
    assert (opened == [identity4], checked) == (read, [])
    assert capsys.readouterr().err == f"error: config error in {message}\n"


def test_approx_missing_file(tmp_path, capsys):
    assert main(["approx", "--matrix", str(tmp_path / "nope.txt"), "--l", "1"]) == 3


@pytest.mark.parametrize("argv", [["approx", "--l", "1", "--matrix"], ["trials", "--config"]],
                         ids=["matrix", "config"])
def test_directory_as_input_path_exits_3(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_approx_non_utf8_byte_exits_3(tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_bytes(b"2\n1 0\n0 \xff\n")
    assert main(["approx", "--matrix", str(p), "--l", "1"]) == 3
    assert capsys.readouterr().err == "error: line 3: unparseable numeric value\n"


def test_approx_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("2\n1 x\nx 1\n")
    assert main(["approx", "--matrix", str(p), "--l", "1"]) == 3
    assert "line 2" in capsys.readouterr().err


def test_approx_indefinite_matrix(tmp_path, capsys):
    p = tmp_path / "indef.txt"
    p.write_text("2\n0 1\n1 0\n")
    assert main(["approx", "--matrix", str(p), "--l", "2"]) == 4
    assert capsys.readouterr().err == (
        "error: matrix is not PSD within tolerance: eigenvalue -1.0 "
        "is below the clamp floor -1e-10\n")


def test_approx_does_no_dense_eigensolve(tmp_path, capsys, monkeypatch):
    p = tmp_path / "psd64.txt"
    save_matrix(gram_psd(64, np.random.default_rng(23)), p)

    def refuse(solver):
        def guarded(m, *args, **kwargs):
            assert np.shape(m) != (64, 64), f"{solver.__name__} on the 64 x 64 input"
            return solver(m, *args, **kwargs)
        return guarded

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse(getattr(np.linalg, name)))
    assert main(["approx", "--matrix", str(p), "--l", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank_w"] == 8 and doc["psd_violation"] == 0.0


def _approx_report(tmp_path, capsys, entries, *flags):
    p = tmp_path / "a.txt"
    save_matrix(SymMatrix(entries), p)
    assert main(["approx", "--matrix", str(p), *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_approx_zero_matrix(tmp_path, capsys):
    doc = _approx_report(tmp_path, capsys, np.zeros((5, 5)), "--l", "2")
    assert (doc["lambda1"], doc["spectral_error"], doc["relative_error"]) == (0.0, 0.0, 0.0)
    assert (doc["rank_w"], doc["psd_violation"]) == (0, 0.0)


def test_approx_one_by_one(tmp_path, capsys):
    doc = _approx_report(tmp_path, capsys, [[2.5]], "--l", "1")
    assert (doc["lambda1"], doc["rank_w"]) == (2.5, 1)
    assert doc["spectral_error"] <= 4 * EPS * 2.5


def test_approx_exact_rank_k(tmp_path, capsys):
    a, _, lam = planted_psd(12, [3.0, 2.0, 1.0] + [0.0] * 9, np.random.default_rng(8))
    doc = _approx_report(tmp_path, capsys, a.entries, "--indices", "0,1,2,3,4")
    assert doc["lambda1"] == pytest.approx(lam[0], rel=8 * 12 * EPS)
    assert doc["rank_w"] == 3
    assert doc["spectral_error"] <= 1e-12 * lam[0]


# ---------------------------------------------------------------------------
# trials


def _trials_args(*extra):
    return [
        "trials", "--n", "16", "--k", "2", "--l", "8", "--trials", "5",
        "--seed", "3", "--gen", "exp:0.5", "--coherence", "low", *extra,
    ]


def test_trials_inline_to_stdout(capsys):
    assert main(_trials_args()) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    summary = json.loads(captured.err)
    assert summary["trials"] == 5 and summary["l"] == 8


def test_trials_out_file(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(_trials_args("--out", str(out))) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["n"] == 16
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_trials_json_format(capsys):
    assert main(_trials_args("--format", "json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == 5
    assert doc["summary"]["k"] == 2


def test_trials_reproducible_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(_trials_args("--out", str(out1))) == 0
    assert main(_trials_args("--out", str(out2))) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_trials_jobs_do_not_change_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out4 = tmp_path / "b.csv"
    assert main(_trials_args("--out", str(out1))) == 0
    assert main(_trials_args("--out", str(out4), "--jobs", "4")) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_trials_config_file(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({
        "n": 16, "k": 2, "trials": 3, "seed": 1, "l": 8,
        "gen": "exact-rank-k", "coherence": "flat",
    }))
    assert main(["trials", "--config", str(cfgp)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4


def test_trials_config_non_utf8_byte_names_its_line(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_bytes(b'{"n": 16, "k": 2, "trials": 3, "seed": 1, "l": 8,\n'
                     b'"gen": "exact-rank-k",\n"coherence": "fl\xffat"}\n')
    assert main(["trials", "--config", str(cfgp)]) == 2
    assert capsys.readouterr().err == (
        "error: config error in '<config file>': line 3: byte 0xff is not UTF-8\n")


def test_trials_config_conflicts_with_inline(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text("{}")
    assert main(["trials", "--config", str(cfgp), "--k", "2"]) == 2
    assert "conflicts" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--l", "--lambda1"])
def test_trials_config_conflicts_with_inline_zero(tmp_path, capsys, flag):
    # an inline value of 0 is still a given flag
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({
        "n": 16, "k": 2, "trials": 3, "seed": 1, "l": 8,
        "gen": "exact-rank-k", "coherence": "flat",
    }))
    assert main(["trials", "--config", str(cfgp), flag, "0"]) == 2
    assert "conflicts" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("n", 16.0), ("k", 2.9), ("l", 8.0), ("trials", 2.5), ("seed", True),
    ("jobs", 2.0), ("timings", "false"), ("n", "16"),
    ("matrix", 7), ("matrix", 0), ("out", 5), ("epsilon", None), ("epsilon", "0.25"),
    ("delta", [1]), ("lambda1", True), ("lambda1", "2"),
    ("gen", 5), ("coherence", 5), ("format", 5),
])
def test_trials_config_rejects_mistyped_value(tmp_path, capsys, key, value):
    # integers must be JSON integers, numbers JSON numbers, paths and specs
    # JSON strings, timings a JSON boolean: nothing is rounded, truncated or
    # coerced, a number is never taken as a file descriptor, and no trial runs
    cfgp = tmp_path / "c.json"
    mapping = {
        "n": 16, "k": 2, "trials": 3, "seed": 1, "l": 8,
        "gen": "exact-rank-k", "coherence": "flat", key: value,
    }
    if key == "matrix":
        del mapping["gen"]
    cfgp.write_text(json.dumps(mapping))
    assert main(["trials", "--config", str(cfgp)]) == 2
    captured = capsys.readouterr()
    assert f"config error in {key!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", [-1.0, 0.0, "inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_trials_lambda1_out_of_range_names_lambda1(tmp_path, capsys, route, value):
    # lambda1 must be finite and > 0; JSON Infinity/NaN and 1e400 reach the
    # config as float inf/nan, and a flag parses the same tokens
    mapping = {"n": 16, "k": 2, "trials": 2, "seed": 1, "l": 8,
               "gen": "exp:0.5", "coherence": "flat"}
    if route == "flag":
        argv = ["trials"] + [a for key, v in mapping.items() for a in (f"--{key}", str(v))]
        argv.append(f"--lambda1={value}")  # argparse reads "-inf" as a flag otherwise
    else:
        cfgp = tmp_path / "c.json"
        text = json.dumps(mapping)[:-1] + ', "lambda1": '
        cfgp.write_text(text + {"inf": "Infinity", "-inf": "-Infinity",
                                "nan": "NaN"}.get(str(value), str(value)) + "}")
        argv = ["trials", "--config", str(cfgp)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error in 'lambda1'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("gen,coherence", [("exp:0.5", "flat"), ("exp:0.5", "low"),
                                           ("exact-rank-k", "flat")])
def test_trials_overflowing_lambda1_exits_4(capsys, gen, coherence):
    # a bound or a planted spectrum past the float64 range exits 4 naming
    # lambda1, instead of reporting Infinity
    assert main(["trials", "--gen", gen, "--coherence", coherence, "--n", "64",
                 "--k", "2", "--l", "8", "--trials", "1", "--seed", "1",
                 "--lambda1", "1e308"]) == 4
    captured = capsys.readouterr()
    assert "lambda1=1e+308" in captured.err
    assert captured.out == ""


@pytest.fixture
def overflowing(tmp_path):
    # finite entries whose norm, 2e308, is beyond the float64 range
    p = tmp_path / "big.txt"
    p.write_text("2\n1e308 1e308\n1e308 1e308\n")
    return str(p)


_OVERFLOW_ROUTES = pytest.mark.parametrize("argv,name", [
    (["approx", "--l", "1"], "Lanczos norm"),
    (["trials", "--k", "1", "--l", "1", "--trials", "2", "--seed", "1"], "lambda1=inf"),
], ids=["approx", "trials"])


@_OVERFLOW_ROUTES
def test_overflowing_norm_or_spectrum_exits_4(overflowing, capsys, argv, name):
    assert main(argv + ["--matrix", overflowing]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert name in captured.err and "overflows" in captured.err


@_OVERFLOW_ROUTES
def test_overflowing_product_exits_4(tmp_path, capsys, argv, name):
    # 8 x 8 entries of 1.5e308: an unscaled A x overflows, and numpy's
    # overflow warning would be an error here
    p = tmp_path / "big8.txt"
    p.write_text("8\n" + (" ".join(["1.5e308"] * 8) + "\n") * 8)
    assert main(argv + ["--matrix", str(p)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert name in captured.err and "overflows" in captured.err


def test_trials_exact_rank_k_has_no_failures(capsys):
    # prob_bound is 0 and the error is round-off above it
    assert main(["trials", "--gen", "exact-rank-k", "--coherence", "flat", "--n", "64",
                 "--k", "4", "--trials", "5", "--seed", "3", "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["prob_bound"] == 0.0 and summary["failures"] == 0


@pytest.mark.parametrize("argv,err", [
    (["--gen", "custom:1,2", "--n", "2", "--coherence", "low"],
     "config error in 'gen': spectrum is not non-increasing"),
    (["--gen", "exp:0.9", "--n", "12", "--coherence", "flat"],
     "config error in 'coherence': flat basis needs n to be a power of two, got 12"),
], ids=["custom", "flat"])
def test_trials_generated_spectrum_errors_name_their_key(capsys, argv, err):
    assert main(["trials", "--k", "1", "--trials", "1", "--seed", "0"] + argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_trials_inline_and_config_routes_agree(tmp_path):
    # the same experiment as inline flags, as a config file, and as a config
    # file refined by the output flags gives the same bytes
    inline, from_file, refined = (tmp_path / f"{name}.json" for name in ("a", "b", "c"))
    assert main(_trials_args("--format", "json", "--out", str(inline))) == 0
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(json.dumps({
        "n": 16, "k": 2, "l": 8, "trials": 5, "seed": 3, "gen": "exp:0.5",
        "coherence": "low", "format": "json", "out": str(from_file),
    }))
    assert main(["trials", "--config", str(cfgp)]) == 0
    cfgp.write_text(json.dumps({
        "n": 16, "k": 2, "l": 8, "trials": 5, "seed": 3, "gen": "exp:0.5",
        "coherence": "low", "format": "csv", "out": str(tmp_path / "unused"),
        "jobs": 1, "timings": False,
    }))
    assert main(["trials", "--config", str(cfgp), "--out", str(refined),
                 "--format", "json", "--jobs", "2"]) == 0
    assert inline.read_bytes() == from_file.read_bytes() == refined.read_bytes()
    assert not (tmp_path / "unused").exists()
    timed = tmp_path / "timed.json"
    assert main(["trials", "--config", str(cfgp), "--out", str(timed), "--timings"]) == 0
    rows = timed.read_text().splitlines()  # the file's csv, with measured wall_ms
    assert rows[0] == CSV_HEADER and len(rows) == 6
    assert not any(row.endswith(",NA") for row in rows[1:])


def test_trials_l_conflicts_with_auto_l(capsys):
    assert main(_trials_args("--auto-l")) == 2


def test_trials_missing_required_flag(capsys):
    assert main(["trials", "--n", "16", "--k", "2", "--trials", "5",
                 "--gen", "exp:0.5", "--coherence", "low"]) == 2
    assert "seed" in capsys.readouterr().err


def test_trials_matrix_file_route(psd8, capsys):
    assert main(["trials", "--matrix", psd8, "--k", "2", "--l", "4",
                 "--trials", "4", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5


def test_trials_matrix_eigensolver_failure_exits_4(psd8, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["trials", "--matrix", psd8, "--k", "2", "--l", "4",
                 "--trials", "4", "--seed", "0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Eigenvalues did not converge\n"


def test_trials_matrix_k_must_leave_a_tail(tmp_path, capsys):
    # the file's n is known only once it is read: k = n has no lambda_{k+1}
    p = tmp_path / "eye3.txt"
    p.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    assert main(["trials", "--matrix", str(p), "--k", "3", "--trials", "2", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config error in 'k': must be <= n-1 = 2, got 3\n"


def test_trials_missing_matrix_file(tmp_path):
    assert main(["trials", "--matrix", str(tmp_path / "gone.txt"), "--k", "2",
                 "--l", "4", "--trials", "2", "--seed", "0"]) == 3


def test_trials_bad_gen_spec(capsys):
    assert main(["trials", "--n", "16", "--k", "2", "--trials", "2", "--seed", "0",
                 "--gen", "wavelet", "--coherence", "low"]) == 2


# ---------------------------------------------------------------------------
# bounds


def test_bounds_values(capsys):
    assert main(["bounds", "--n", "256", "--k", "4", "--tau", "1.0"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    expect = required_samples(k=4, tau=1.0, delta=0.05, epsilon=0.5)
    assert int(out["l_required"]) == expect == 141
    assert int(out["l"]) == 141
    assert float(out["prob_bound"]) == pytest.approx(1.0 + 256 / (0.5 * 141))
    assert float(out["chernoff_tail"]) <= 0.05


def test_bounds_explicit_l(capsys):
    assert main(["bounds", "--n", "100", "--k", "2", "--tau", "1.5",
                 "--l", "50", "--lambda-k1", "0.25"]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert int(out["l"]) == 50
    assert float(out["prob_bound"]) == pytest.approx(0.25 * (1 + 100 / 25))


def test_bounds_invalid_tau(capsys):
    assert main(["bounds", "--n", "16", "--k", "4", "--tau", "0.5"]) == 2


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_bounds_non_finite_lambda_k1_exits_2(value, capsys):
    assert main(["bounds", "--n", "64", "--k", "2", "--tau", "1", "--l", "8",
                 "--lambda-k1", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lambda_k1" in captured.err


def test_bounds_overflowing_lambda_k1_exits_4(capsys):
    # 1e308 * (1 + 64 / (0.5 * 8)) overflows, as trials reports with exit 4
    assert main(["bounds", "--n", "64", "--k", "2", "--tau", "1", "--l", "8",
                 "--lambda-k1", "1e308"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "prob_bound overflows at lambda_k1=1e+308" in captured.err


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "4", "--k", "2", "--tau", "1", "--delta", "1e-320"],
    ["bounds", "--n", "64", "--k", "2", "--tau", "1", "--epsilon", "1e-320",
     "--lambda-k1", "0"],
    ["trials", "--gen", "exp:0.5", "--coherence", "flat", "--n", "16", "--k", "2",
     "--trials", "1", "--seed", "0", "--delta", "1e-320"],
    ["trials", "--gen", "exact-rank-k", "--coherence", "flat", "--n", "16", "--k", "2",
     "--trials", "1", "--seed", "0", "--epsilon", "1e-320"],
])
def test_subnormal_delta_or_epsilon_exits_0(argv, capsys):
    # k / delta and n / (epsilon l) overflow here, but l_required and a
    # prob_bound of lambda_k1 = 0 are finite
    assert main(argv) == 0
    out = capsys.readouterr()
    report = out.out if argv[0] == "bounds" else out.err
    assert "l_required" in report and "prob_bound" in report


def test_bounds_overflowing_factor_names_epsilon(capsys):
    assert main(["bounds", "--n", "64", "--k", "2", "--tau", "1", "--epsilon", "1e-310"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "epsilon=1e-310" in captured.err


# ---------------------------------------------------------------------------
# chernoff


def test_chernoff_sweep_csv(capsys):
    assert main(["chernoff", "--n", "32", "--k", "2", "--coherence", "flat",
                 "--epsilon", "0.5", "--trials", "40", "--seed", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert "dominated" in header and "empirical_rate" in header
    assert len(lines) == 2


def test_chernoff_grid_and_out(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["chernoff", "--n", "16", "--k", "1", "--k", "2",
                 "--coherence", "flat", "--coherence", "spiked:1",
                 "--epsilon", "0.25", "--epsilon", "0.5",
                 "--trials", "20", "--seed", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9  # header + 2*2*2 grid points


@pytest.mark.parametrize("epsilon,l", [("0.0", 14), ("1.0", 10)])
def test_chernoff_epsilon_endpoints_choose_l(capsys, epsilon, l):
    # at epsilon = 1 the tail is k at every l, so l falls back to ceil(0.6 n)
    assert main(["chernoff", "--n", "16", "--k", "2", "--coherence", "flat",
                 "--epsilon", epsilon, "--trials", "3"]) == 0
    captured = capsys.readouterr()
    header, row = captured.out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["l"] == str(l)
    assert captured.err == ""


@pytest.mark.parametrize("flag,value", [("trials", "0"), ("trials", "-3"), ("jobs", "0")])
def test_chernoff_rejects_counts_below_one(capsys, flag, value):
    assert main(["chernoff", "--n", "16", "--k", "2", "--coherence", "flat",
                 "--epsilon", "0.5", f"--{flag}", value]) == 2
    captured = capsys.readouterr()
    assert f"config error in {flag!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["chernoff", "--n", "8", "--k", "1", "--epsilon", "0.5"],
    ["trials", "--n", "8", "--k", "1", "--trials", "1", "--seed", "0", "--gen", "exp:0.5"],
], ids=["chernoff", "trials"])
def test_non_integer_spike_count_names_coherence(capsys, argv):
    assert main(argv + ["--coherence", "spiked:x"]) == 2
    assert capsys.readouterr().err == (
        "error: config error in 'coherence': coherence plan 'spiked:x': M is not an integer\n")


@pytest.mark.parametrize("argv,err", [
    (["chernoff", "--n", "12", "--k", "2", "--coherence", "flat", "--epsilon", "0.5"],
     "flat basis needs n to be a power of two, got 12"),
    (["chernoff", "--n", "16", "--k", "2", "--coherence", "spiked:5", "--epsilon", "0.5"],
     "spiked plan m=5 exceeds k=2"),
    (["trials", "--gen", "exp:0.5", "--n", "16", "--k", "2", "--coherence", "spiked:5",
      "--trials", "1", "--seed", "0"],
     "spiked plan m=5 exceeds k=2"),
    (["chernoff", "--n", "4", "--k", "4", "--coherence", "spiked:4", "--epsilon", "0.5"],
     "spiked plan m=4 must be < n=4"),
], ids=["chernoff-flat", "chernoff-spiked", "trials-spiked", "chernoff-spiked-n"])
def test_unplantable_coherence_names_coherence(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: config error in 'coherence': {err}\n"


@pytest.mark.parametrize("args,key,err", [
    (["--k", "5", "--epsilon", "0.5"], "k", "must lie in [1, n=4], got 5"),
    (["--k", "1", "--epsilon", "0.5", "--n", "0"], "n", "must be an integer in [1, 2^64), got 0"),
    (["--k", "0", "--epsilon", "0.5"], "k", "must lie in [1, n=4], got 0"),
    (["--k", "2", "--epsilon", "1.5"], "epsilon", "must lie in [0, 1], got 1.5"),
    (["--k", "2", "--epsilon", "-0.5"], "epsilon", "must lie in [0, 1], got -0.5"),
    (["--k", "2", "--epsilon", "0.5", "--l", "0"], "l", "must lie in [1, n=4], got 0"),
    (["--k", "2", "--epsilon", "0.5", "--l", "5"], "l", "must lie in [1, n=4], got 5"),
], ids=["k-above-n", "n-zero", "k-zero", "epsilon-above-1", "epsilon-below-0", "l-zero",
        "l-above-n"])
def test_chernoff_config_errors_name_their_key(capsys, args, key, err):
    assert main(["chernoff", "--n", "4", "--coherence", "low", "--trials", "2"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config error in {key!r}: {err}\n"


@pytest.mark.parametrize("ls", [["5"], ["3", "4", "5", "6"]], ids=["one-for-all", "one-each"])
def test_chernoff_explicit_l(capsys, ls):
    argv = ["chernoff", "--n", "16", "--k", "1", "--k", "2", "--coherence", "flat",
            "--epsilon", "0.25", "--epsilon", "0.5", "--trials", "3"]
    assert main(argv + [arg for l in ls for arg in ("--l", l)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    at = header.split(",").index("l")
    assert [row.split(",")[at] for row in rows] == ls * (4 // len(ls))


def test_chernoff_reproducible(tmp_path):
    args = ["chernoff", "--n", "16", "--k", "2", "--coherence", "low",
            "--epsilon", "0.5", "--trials", "30", "--seed", "9"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--jobs", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# parser-level behavior


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_no_subcommand_exits_2():
    assert main([]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "approx" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# extreme scales: the scaled error route reports the right value


def test_approx_huge_gram_scales_exactly(tmp_path, capsys):
    a = gram_psd(20, np.random.default_rng(5))
    doc = {}
    for tag, scale in (("unit", 1.0), ("huge", 1e160)):
        p = tmp_path / f"{tag}.txt"
        save_matrix(SymMatrix(scale * a.entries), p)
        assert main(["approx", "--matrix", str(p), "--indices", "0,5,10,15"]) == 0
        doc[tag] = json.loads(capsys.readouterr().out)
    assert doc["huge"]["spectral_error"] / 1e160 == pytest.approx(
        doc["unit"]["spectral_error"], rel=1e-12)
    assert doc["huge"]["relative_error"] == pytest.approx(
        doc["unit"]["relative_error"], rel=1e-12)


def test_approx_huge_diagonal_reports_error(tmp_path, capsys):
    p = tmp_path / "diag.txt"
    p.write_text("3\n1e200 0 0\n0 1e200 0\n0 0 1e200\n")
    assert main(["approx", "--matrix", str(p), "--l", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # one unsampled unit direction of weight 1e200 is left: the error is
    # 1e200, up to the rounding of the Lanczos Ritz value
    assert doc["spectral_error"] == pytest.approx(1e200, rel=4 * EPS)
    assert doc["relative_error"] == pytest.approx(1.0, rel=4 * EPS)
    assert doc["psd_violation"] == 0.0


def test_approx_reads_the_matrix_from_a_pipe(tmp_path):
    # /dev/stdin on a pipe reports a size of 0; the reader must not refuse it
    text = "2\n1 0\n0 1\n"
    p = tmp_path / "m.txt"
    p.write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    cmd = [sys.executable, "-m", "nystromlab.cli", "approx", "--l", "1", "--matrix"]
    piped = subprocess.run(cmd + ["/dev/stdin"], input=text, capture_output=True,
                           text=True, env=env)
    regular = subprocess.run(cmd + [str(p)], capture_output=True, text=True, env=env)
    assert (piped.returncode, piped.stderr) == (0, "")
    assert regular.returncode == 0 and piped.stdout == regular.stdout
    assert json.loads(piped.stdout)["rank_w"] == 1
