"""Command-line front end: ``approx``, ``trials``, ``bounds`` and
``chernoff`` (README "CLI").  Exit codes (README "Exit codes"): 0 success,
2 configuration error, 3 input-data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .analysis import bound_report
from .experiment import (
    ConfigError,
    _check_int,
    chernoff_sweep,
    config_from_mapping,
    emit_results,
    emit_table,
    read_config,
    run_experiment,
)
from .generators import parse_plan
from .matcore import NotPSDError, check_psd, lowrank_residual_norm
from .matfile import MatrixFileError, load_matrix
from .nystrom import nystrom_extend
from .sampling import ColumnSample, RngSeed, lanczos_start, sample_uniform


def _indices(text: str) -> tuple[int, ...]:
    """The column indices of ``--indices``, comma-separated integers."""
    idx = []
    for tok in text.split(","):
        if tok.strip():
            try:
                idx.append(int(tok))
            except ValueError:
                raise ConfigError("indices", f"not an integer: {tok!r}") from None
    return tuple(idx)


def _cmd_approx(args) -> int:
    idx = None if args.indices is None else _indices(args.indices)
    if idx is None:  # checked before the matrix is read
        if args.l is None:
            raise ConfigError("l", "give either --l or --indices")
        _check_int("l", args.l, 1)
        _check_int("seed", args.seed, 0)
    a = load_matrix(args.matrix)
    if idx is not None:
        try:
            sample = ColumnSample(n=a.n, indices=idx)
        except ValueError as exc:
            raise ConfigError("indices", str(exc)) from None
    else:
        _check_int("l", args.l, 1, a.n)
        sample = sample_uniform(a.n, args.l, RngSeed(args.seed, 0))
    check_psd(a)
    # ||A||_2 by the seeded Lanczos of the error route: lambda_1 of a PSD A
    lambda1, _ = lowrank_residual_norm(a, lanczos_start(a.n))
    res = nystrom_extend(a, sample)
    doc = {
        "n": a.n,
        "l": sample.l,
        "indices": list(sample.indices),
        "spectral_error": res.spectral_error,
        "relative_error": res.spectral_error / lambda1 if lambda1 > 0 else 0.0,
        "rank_w": res.rank_w,
        "psd_violation": res.psd_violation,
        "lambda1": lambda1,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# Flags that may also refine a --config run; any other `trials` flag
# conflicts with it.
_OUTPUT_FLAGS = ("out", "format", "jobs", "timings")


def _cmd_trials(args) -> int:
    # The trials parser defaults to SUPPRESS, so only given flags are set;
    # each dest doubles as the config-file key of the same name.
    given = {f: v for f, v in vars(args).items() if f not in ("command", "func")}
    if "config" in given:
        inline = [f for f in given if f not in _OUTPUT_FLAGS + ("config",)]
        if inline:
            raise ConfigError(inline[0].replace("_", "-"),
                              "inline flag conflicts with --config")
        given = read_config(given.pop("config")) | given
    elif given.pop("auto_l", False) and "l" in given:
        raise ConfigError("l", "--l conflicts with --auto-l")
    cfg = config_from_mapping(given)
    records, summary = run_experiment(cfg)
    text = emit_results(records, summary, cfg.fmt, path=cfg.out, timings=cfg.timings)
    summary_text = json.dumps(summary) + "\n"
    if cfg.out is not None:
        sys.stdout.write(summary_text)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary_text)
    return 0


def _cmd_bounds(args) -> int:
    report = bound_report(
        n=args.n,
        k=args.k,
        tau=args.tau,
        epsilon=args.epsilon,
        delta=args.delta,
        l=args.l,
        lambda_k1=args.lambda_k1,
    )
    lines = [
        f"n={args.n}",
        f"k={report.k}",
        f"tau={report.tau!r}",
        f"epsilon={report.epsilon!r}",
        f"delta={report.delta!r}",
        f"lambda_k1={args.lambda_k1!r}",
        f"l_required={report.l_required}",
        f"l={report.l}",
        f"prob_bound={report.prob_bound!r}",
        f"chernoff_tail={report.chernoff_tail!r}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_chernoff(args) -> int:
    try:
        plans = [parse_plan(p) for p in args.coherence]
    except ValueError as exc:
        raise ConfigError("coherence", str(exc)) from exc
    rows = chernoff_sweep(
        n=args.n,
        ks=args.k,
        plans=plans,
        epsilons=args.epsilon,
        trials=args.trials,
        master_seed=args.seed,
        ls=args.l if args.l else None,
        jobs=args.jobs,
    )
    text = emit_table(rows, args.format, path=args.out)
    if args.out is None:  # emit_table already wrote the file otherwise
        sys.stdout.write(text)
    return 0


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nystromlab",
        description="Column-sampled Nystrom extension of PSD matrices "
                    "with coherence-based error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="one extension from a matrix file")
    p.add_argument("--matrix", required=True, help="matrix file (n header + n rows)")
    p.add_argument("--l", type=int, default=None, help="number of columns to sample")
    p.add_argument("--indices", default=None,
                   help="explicit comma-separated column indices (overrides --l)")
    p.add_argument("--seed", type=int, default=0, help="master seed for the sample")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("trials", help="Monte-Carlo sampling experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int, help="fixed sample size")
    p.add_argument("--auto-l", dest="auto_l", action="store_true",
                   help="derive l from the sample-size rule (the default)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--gen",
                   help="spectrum: exact-rank-k | exp:RATE | pow:EXP | custom:v1,...")
    p.add_argument("--coherence", help="plan: flat | low | spiked:M")
    p.add_argument("--lambda1", type=float, help="spectrum scale")
    p.add_argument("--matrix", help="matrix file instead of --gen")
    p.add_argument("--out", help="artifact path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--jobs", type=int,
                   help="accepted and validated (>= 1); trials run serially")
    p.add_argument("--timings", action="store_true",
                   help="emit measured wall_ms (breaks byte-identical reruns)")
    p.set_defaults(func=_cmd_trials)

    p = sub.add_parser("bounds", help="evaluate the bound formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--l", type=int, default=None,
                   help="evaluate at this l (default: min(l_required, n))")
    p.add_argument("--lambda-k1", dest="lambda_k1", type=float, default=1.0,
                   help="tail eigenvalue scale for the probabilistic bound")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("chernoff", help="tail-validation sweep for min_eig_gram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, action="append", required=True,
                   help="repeatable: dominant dimension")
    p.add_argument("--coherence", action="append", required=True,
                   help="repeatable: flat | low | spiked:M")
    p.add_argument("--epsilon", type=float, action="append", required=True,
                   help="repeatable: Gram-eigenvalue slack")
    p.add_argument("--l", type=int, action="append", default=None,
                   help="repeatable: sample sizes (default: auto per point)")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="artifact path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and validated (>= 1); the sweep runs serially")
    p.set_defaults(func=_cmd_chernoff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (MatrixFileError, OSError) as exc:  # OSError: a path that cannot be opened
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (NotPSDError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
