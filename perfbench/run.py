"""nystromlab benchmark: time the CLI workloads end to end, or trace them.

Run from a checkout of the repository (the package is imported from its
``src`` directory; nothing needs to be installed):

    python3 perfbench/run.py --workload trials-dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # each gated workload, own process each
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` first times untraced passes, then wraps the package's public
functions (see ``tracer.py``) and reports per-layer calls, inclusive and
self time per traced pass; the difference between the two halves is the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Later performance claims must hold on the held-out seed as well as on the
# default one, so that a gain tuned to one input does not count.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

RUN_SECONDS = 40
MIN_PASSES = 3
# Set-up is timed at least this many times, and until SETUP_BUDGET_S is spent.
MIN_SETUP_CALLS = 3
SETUP_BUDGET_S = 1.0

END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

# The gated workloads and why each was chosen; BENCHMARK.json carries these.
WORKLOADS = {
    "trials-dense": "ROADMAP baseline trial, n=2048 l=400: the per-trial cost is the dense "
                    "extension path (spectral_norm and nystrom_extend self time)",
    "approx-file": "approx on an n=2048 text kernel: the only user of text IO and of the dense "
                   "extension with psd_violation, which trials may drop and approx must keep",
}
# Python-bound workloads, runnable and traceable by name but not gated: on
# the 2-core reference VM their run medians drifted by up to 25% between
# batches of runs, more than the largest bound allowed.
EXTRA_WORKLOADS = {
    "trials-small": "n=64 l=20 trials with CSV to a file: Python overhead per call, "
                    "no layer dominates",
    "chernoff-sweep": "Gram-tail sweep, 8 grid points at n=128: never calls nystrom, "
                      "sample_uniform dominates",
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    from tracer import TRACED

    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.ms", "ms", "lower"),
                (f"{name}.self_ms", "ms", "lower")]
    return out + [
        ("matcore.nxn_calls", "count", "lower"),
        ("analysis.det_bound_applicable_ratio", "ratio", "higher"),
        ("process.cpu_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_ms", "ms", "lower"),
    ]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": why} for w, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def blas_warmup() -> None:
    """The first BLAS and LAPACK calls pay one-time costs; pay them untimed."""
    import numpy as np

    g = np.random.default_rng(0).standard_normal((256, 256))
    s = g @ g.T
    np.linalg.eigh(s)
    np.linalg.eigvalsh(s)
    np.linalg.svd(g)
    np.linalg.qr(g)


def cpu_s() -> float:
    t = os.times()
    return t.user + t.system


class Run:
    """The passes of one workload in one process, with their checks."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.applicable = 0

    def one_pass(self, call) -> tuple[float, float]:
        """Time one pass through ``call``, then check it untimed."""
        from workloads import Outcome, call_cli

        c0 = cpu_s()
        t0 = time.perf_counter()
        try:
            rc, out, err = call(call_cli, self.wl.argv())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc, out, err = None, "", ""
        wall = time.perf_counter() - t0
        cpu = cpu_s() - c0
        try:
            outcome = self.wl.check(rc, out, err)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(self.wl.items, b"")
        digest = hashlib.sha256(outcome.artifact).hexdigest()
        if self.digest is None:
            self.digest = digest
        self.attempted += self.wl.items
        # Passes with the same seed must produce byte-identical artifacts.
        self.failed += self.wl.items if digest != self.digest else outcome.failed
        self.applicable = outcome.applicable
        return wall, cpu

    def passes(self, budget_s: float, call) -> tuple[list[float], list[float]]:
        walls, cpus = [], []
        end = time.perf_counter() + budget_s
        # Start a pass only if a typical pass still ends within the budget.
        while len(walls) < MIN_PASSES or time.perf_counter() + statistics.median(walls) <= end:
            wall, cpu = self.one_pass(call)
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus


def time_setup(wl) -> list[float]:
    times = []
    spent = 0.0
    while len(times) < MIN_SETUP_CALLS or spent < SETUP_BUDGET_S:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return times


def report_digest(run: Run) -> None:
    """Print the artifact digest next to the one recorded for this seed."""
    recorded = json.loads((HERE / "digests.json").read_text())
    known = recorded.get(run.wl.name, {}).get(str(run.wl.seed))
    if known is None:
        note = "no recorded digest for this seed"
    else:
        note = "matches recorded digest" if known == run.digest else "DIFFERS from recorded digest"
    print(f"artifact_sha256 = {run.digest} ({note})")


def run_untraced(wl, seconds: float) -> dict:
    setups = time_setup(wl)
    run = Run(wl)
    walls, cpus = run.passes(seconds, lambda f, argv: f(argv))
    wall = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    setup = statistics.median(setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    error_rate = run.failed / run.attempted
    print(f"wall_s      = {wall!r} s  (median of {len(walls)} passes; q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"items_per_s = {wl.items / wall!r} 1/s  ({wl.items} items per pass)")
    print(f"setup_s     = {setup!r} s  (median of {len(setups)} set-up calls)")
    print(f"peak_rss_mb = {rss_mb!r} MiB")
    print(f"error_rate  = {error_rate!r}  ({run.failed} failed of {run.attempted} items)")
    print(f"cpu_s/wall  = {statistics.median(cpus) / wall:.3f}")
    if hasattr(wl, "dominated"):
        print(f"chernoff rows dominated by the tail bound: {wl.dominated} of {wl.points}")
    report_digest(run)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (wl.items / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return result(run, metrics)


def run_traced(wl, seconds: float) -> dict:
    from tracer import Tracer

    wl.setup()
    run = Run(wl)
    walls, cpus = run.passes(seconds / 2, lambda f, argv: f(argv))
    tracer = Tracer(wl.n)
    tracer.install()
    try:
        layer: list[dict] = []

        def traced(f, argv):
            # Snapshot before the output checks, whose calls must not count.
            tracer.reset()
            try:
                return tracer.call_root(f, argv)
            finally:
                layer.append(tracer.pass_metrics())

        traced_walls, _ = run.passes(seconds / 2, traced)
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print(f"warning: {name} not found; its metrics read 0", file=sys.stderr)
    metrics = {k: statistics.median(p[k] for p in layer) for k in layer[0]}
    untraced = statistics.median(walls)
    metrics["analysis.det_bound_applicable_ratio"] = run.applicable / wl.items
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / untraced - 1.0
    pass_ms = statistics.median(traced_walls) * 1e3
    print(f"untraced pass {untraced * 1e3:.1f} ms ({len(walls)} passes), "
          f"traced pass {pass_ms:.1f} ms ({len(traced_walls)} passes)")
    print(f"{'function':34} {'calls':>8} {'ms':>10} {'self_ms':>10} {'self %':>7}")
    for name in sorted({k.rsplit('.', 1)[0] for k in metrics if k.endswith('.self_ms')},
                       key=lambda n: -metrics[f"{n}.self_ms"]):
        print(f"{name:34} {metrics[name + '.calls']:8.0f} {metrics[name + '.ms']:10.2f} "
              f"{metrics[name + '.self_ms']:10.2f} "
              f"{100 * metrics[name + '.self_ms'] / pass_ms:6.1f}%")
    for key in ("matcore.nxn_calls", "analysis.det_bound_applicable_ratio", "process.cpu_s",
                "trace.overhead_frac", "trace.unattributed_ms"):
        print(f"{key} = {metrics[key]!r}")
    report_digest(run)
    units = {n: u for n, u, _ in per_layer_metrics()}
    return result(run, {k: (metrics[k], units[k]) for k in units})


def result(run: Run, metrics: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, *EXTRA_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2^63 and seconds > 0")
    if not (SRC / "nystromlab" / "__init__.py").is_file():
        print(f"error: no nystromlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    import workloads

    print("meta " + json.dumps(run_metadata(args.seed)))
    blas_warmup()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, work)
        why = {**WORKLOADS, **EXTRA_WORKLOADS}[wl.name]
        print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {why}")
        res = (run_traced if args.trace else run_untraced)(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
