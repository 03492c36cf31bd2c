"""The benchmark's workloads: CLI commands, set-up calls and output checks.

Every workload runs ``nystromlab.cli.main`` with ``jobs=1`` and a master
seed taken from the benchmark's ``--seed``.  A workload knows:

* ``argv()``: the CLI command of one pass;
* ``setup()``: the one-time cost before the first item, as a public call;
* ``check(rc, out, err)``: the output checks of one pass, made outside the
  timed region, returning the items that failed and the artifact bytes
  that the determinism check hashes.

Tolerances are those of the acceptance suite: criterion 1 for the
two-route error identity, criterion 2 for the structural bound and
criterion 8 for PSD preservation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from nystromlab import analysis, cli, experiment, generators, nystrom, sampling
from nystromlab.sampling import ColumnSample, RngSeed


@dataclass
class Outcome:
    """The checked result of one pass."""

    failed: int
    artifact: bytes
    applicable: int = 0  # trial records whose structural bound applies


def _artifact(*parts: str) -> bytes:
    return "\0".join(parts).encode()


class Trials:
    """``nystromlab trials`` on a planted instance with a flat basis."""

    def __init__(self, name, gen, n, k, l, trials, seed, work: Path,
                 to_file: bool, oracle_stride: int | None):
        self.name = name
        self.n, self.l = n, l
        self.items = trials
        self.seed = seed
        self.csv_path = work / f"{name}.csv" if to_file else None
        self.mapping = {"gen": gen, "coherence": "flat", "n": n, "k": k, "l": l,
                        "trials": trials, "seed": seed}
        # Every oracle_stride-th trial is re-derived through the sqrt route.
        self.oracle_stride = oracle_stride
        self._setup = None
        self._oracle: dict[int, bool] = {}

    def argv(self) -> list[str]:
        argv = ["trials"]
        for key, value in self.mapping.items():
            argv += [f"--{key}", str(value)]
        if self.csv_path is not None:
            argv += ["--out", str(self.csv_path)]
        return argv

    def setup(self) -> None:
        self._setup = experiment.prepare(experiment.config_from_mapping(self.mapping))

    def _two_route(self, t: int, e: float) -> bool:
        """Criterion 1: the error matches the sqrt-projection route."""
        if t not in self._oracle:
            s = sampling.sample_uniform(self.n, self.l, RngSeed(self.seed, t))
            e_proj = nystrom.sqrt_projection_error(self._setup.a, s)
            tol = 1e-8 * max(e, e_proj) + 1e-12 * self._setup.lambda1
            self._oracle[t] = abs(e - e_proj) <= tol
        return self._oracle[t]

    def check(self, rc, out: str, err: str) -> Outcome:
        text = out if self.csv_path is None else self.csv_path.read_text()
        artifact = _artifact(out, err, "" if self.csv_path is None else text)
        if rc != 0:
            return Outcome(self.items, artifact)
        rows = list(csv.DictReader(io.StringIO(text)))
        failed = max(self.items - len(rows), 0)
        applicable = 0
        for row in rows:
            e = float(row["spectral_error"])
            ok = math.isfinite(e) and e >= 0.0 and int(row["rank_w"]) <= self.l
            if row["det_bound"] != "NA":
                applicable += 1
                ok = ok and e <= float(row["det_bound"]) + 1e-8
            t = int(row["trial"])
            if self.oracle_stride and t % self.oracle_stride == 0:
                ok = ok and self._two_route(t, e)
            failed += not ok
        return Outcome(failed, artifact, applicable)


class Chernoff:
    """``nystromlab chernoff`` over the grid of acceptance criterion 5."""

    N, KS, PLANS, EPSILONS = 128, (2, 4), ("flat", "spiked:1"), (0.25, 0.5)

    def __init__(self, name, trials, seed):
        self.name = name
        self.n = self.N
        self.trials = trials
        self.points = len(self.KS) * len(self.PLANS) * len(self.EPSILONS)
        self.items = self.points * trials
        self.seed = seed
        self.dominated = 0

    def _argv(self, trials: int) -> list[str]:
        argv = ["chernoff", "--n", str(self.N)]
        argv += [a for k in self.KS for a in ("--k", str(k))]
        argv += [a for p in self.PLANS for a in ("--coherence", p)]
        argv += [a for e in self.EPSILONS for a in ("--epsilon", str(e))]
        return argv + ["--trials", str(trials), "--seed", str(self.seed)]

    def argv(self) -> list[str]:
        return self._argv(self.trials)

    def setup(self) -> None:
        # The sweep's fixed cost (bases, coherence, l selection, emission)
        # is what a one-trial sweep costs; it has no separate public call.
        rc, _, _ = call_cli(self._argv(1))
        if rc != 0:
            raise RuntimeError(f"one-trial chernoff sweep exited {rc}")

    def check(self, rc, out: str, err: str) -> Outcome:
        artifact = _artifact(out, err)
        if rc != 0:
            return Outcome(self.items, artifact)
        rows = list(csv.DictReader(io.StringIO(out)))
        failed = max(self.points - len(rows), 0) * self.trials
        self.dominated = 0
        for row in rows:
            trials, failures = int(row["trials"]), int(row["failures"])
            ok = (trials == self.trials and 0 <= failures <= trials
                  and float(row["empirical_rate"]) == failures / trials)
            failed += 0 if ok else self.trials
            # A 3-sigma statistical test: reported, never counted as failure.
            self.dominated += row["dominated"] == "true"
        return Outcome(failed, artifact)


class Approx:
    """``nystromlab approx`` on a Haar exp-decay kernel stored as text."""

    K = 16  # split of the planted spectrum at which the structural bound is checked

    def __init__(self, name, n, l, seed, work: Path):
        self.name = name
        self.n, self.l = n, l
        self.items = 1
        self.seed = seed
        self.path = work / f"{name}.txt"
        spec = generators.SpectrumSpec(kind="exp-decay", n=n, k=self.K, rate=0.9)
        plan = generators.CoherencePlan("low")
        self.a, self.part, _ = generators.planted_instance(spec, plan, RngSeed(seed, 2**63))
        self._bound: float | None = None

    def argv(self) -> list[str]:
        return ["approx", "--matrix", str(self.path), "--l", str(self.l),
                "--seed", str(self.seed)]

    def setup(self) -> None:
        experiment.save_matrix(self.a, self.path)

    def check(self, rc, out: str, err: str) -> Outcome:
        artifact = _artifact(out, err)
        if rc != 0:
            return Outcome(1, artifact)
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return Outcome(1, artifact)
        e, lam1 = doc["spectral_error"], doc["lambda1"]
        ok = (doc["n"] == self.n and doc["l"] == self.l and doc["rank_w"] <= self.l
              and math.isfinite(e) and e >= 0.0
              and doc["psd_violation"] >= -1e-8 * max(lam1, 1.0))
        if self._bound is None:
            # Criterion 2 against the planted eigenbasis; the bound applies
            # whenever the sampled rows of U_1 have full rank.
            sample = ColumnSample(n=self.n, indices=tuple(doc["indices"]))
            try:
                self._bound = analysis.deterministic_bound(self.part, sample)
            except analysis.BoundInapplicableError:
                self._bound = math.inf
        return Outcome(0 if ok and e <= self._bound + 1e-8 else 1, artifact)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``nystromlab.cli.main`` in-process, capturing its streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def make(name: str, seed: int, work: Path):
    """Build the named workload for one seed; inputs go under ``work``."""
    if name == "trials-dense":
        return Trials(name, "exp:0.9", 2048, 16, 400, 2, seed, work,
                      to_file=False, oracle_stride=None)
    if name == "trials-small":
        return Trials(name, "exp:0.5", 64, 2, 20, 300, seed, work,
                      to_file=True, oracle_stride=75)
    if name == "chernoff-sweep":
        return Chernoff(name, 500, seed)
    if name == "approx-file":
        return Approx(name, 2048, 200, seed, work)
    raise KeyError(name)
