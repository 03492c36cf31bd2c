"""Outside-in span tracing of nystromlab's public functions.

Each traced function is wrapped at every module attribute of the package
that binds it, so ``experiment.sample_uniform`` and
``sampling.sample_uniform`` route through one wrapper and count as one
layer function.  ``matcore.SymMatrix`` is a class: its ``__init__`` is
wrapped in place, which times construction and leaves ``isinstance``
checks intact.  No source file is edited, and ``uninstall`` restores every
binding.

Spans nest on one stack, so a function's self time is its inclusive time
minus the inclusive time of the wrapped calls it made.  The stack is not
thread-aware; the workloads run with ``jobs=1``.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("cli", "experiment", "generators", "sampling", "nystrom", "matcore", "analysis")

TRACED = (
    "cli.main",
    "experiment.run_experiment",
    "experiment.prepare",
    "experiment.run_trial",
    "experiment.emit_results",
    "experiment.chernoff_sweep",
    "experiment.emit_table",
    "experiment.load_matrix",
    "experiment.save_matrix",
    "generators.planted_instance",
    "generators.psd_from_spectrum",
    "generators.flat_orthonormal",
    "generators.random_orthonormal",
    "sampling.sample_uniform",
    "sampling.rng_from",
    "sampling.extract_cw",
    "nystrom.nystrom_extend",
    "matcore.sym_eig",
    "matcore.spectral_norm",
    "matcore.pinv",
    "matcore.SymMatrix",
    "analysis.coherence",
    "analysis.min_eig_gram",
    "analysis.deterministic_bound",
)


class Tracer:
    """Wraps the traced functions and accumulates per-pass span totals.

    ``n`` is the workload's matrix dimension: a call into ``matcore`` with
    an ``n x n`` argument is counted in ``nxn_calls``.
    """

    def __init__(self, n: int):
        self.n = n
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, inclusive ns, ns covered by wrapped children]
        self.stats = {name: [0, 0, 0] for name in TRACED}
        self.nxn_calls = 0
        self.root_ns = 0
        self.root_child_ns = 0

    def _is_nxn(self, args) -> bool:
        for a in args:
            shape = getattr(getattr(a, "entries", a), "shape", None)
            if shape == (self.n, self.n):
                return True
        return False

    def _wrap(self, name: str, fn, count_nxn: bool):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = self.stats[name]
            if count_nxn and self._is_nxn(args + tuple(kwargs.values())):
                self.nxn_calls += 1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += dt

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("nystromlab")
        mods = {m: importlib.import_module(f"nystromlab.{m}") for m in MODULES}
        namespaces = [pkg, *mods.values()]
        for name in TRACED:
            mod, attr = name.split(".")
            target = getattr(mods[mod], attr, None)
            if target is None:
                self.missing.append(name)
                continue
            count_nxn = mod == "matcore"
            if isinstance(target, type):
                init = target.__init__
                self._restore.append((target, "__init__", init))
                setattr(target, "__init__", self._wrap(name, init, count_nxn))
                continue
            wrapper = self._wrap(name, target, count_nxn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is target:
                        self._restore.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def call_root(self, fn, *args):
        """Call ``fn`` as the root span of one pass."""
        self._stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.root_ns += time.perf_counter_ns() - t0
            self.root_child_ns += self._stack.pop()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer totals since the last ``reset``, times in ms."""
        out: dict[str, float] = {}
        for name, (calls, ns, child_ns) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = ns / 1e6
            out[f"{name}.self_ms"] = (ns - child_ns) / 1e6
        out["matcore.nxn_calls"] = self.nxn_calls
        out["trace.unattributed_ms"] = (self.root_ns - self.root_child_ns) / 1e6
        return out
