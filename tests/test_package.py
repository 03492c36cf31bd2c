"""The package's public interface: what ``__all__`` exports."""

import importlib
import types

import nystromlab

SUBMODULES = ("analysis", "cli", "experiment", "generators", "matcore", "matfile", "nystrom",
              "sampling")

REMOVED = (
    "pinv",
    "selection_matrix",
    "omega_matrices",
    "pinv_norm_sq_omega1",
    "RankDeficientError",
    "davis_kahan_bound_substituted",
    "davis_kahan_distance",
    "davis_kahan_bound",
    "GapViolatedError",
    "config_from_file",
    "EigenDecomposition",
    "NonConvergenceError",
    "psd_sqrt",
    "projector",
    "extract_cw",
    "sym_eig",
    "sym_eigvals",
    "spectral_norm",
    "FLAT_IMPLICIT_N",
    "_certify_dominant_block",
    "_flat_entries",
)


def test_all_names_resolve_to_package_objects():
    assert len(set(nystromlab.__all__)) == len(nystromlab.__all__)
    assert "__version__" in nystromlab.__all__
    for name in nystromlab.__all__:
        obj = getattr(nystromlab, name)
        assert not isinstance(obj, types.ModuleType), name
        if name != "__version__":
            # defined in the package itself, not a helper it imports
            assert obj.__module__.startswith("nystromlab."), name


def test_all_covers_the_public_api():
    assert {"SymMatrix", "nystrom_extend", "deterministic_bound", "run_experiment",
            "emit_results", "planted_instance", "sample_uniform"} <= set(nystromlab.__all__)
    for name in REMOVED:
        assert name not in nystromlab.__all__
        assert not hasattr(nystromlab, name)
        for module in SUBMODULES:
            assert not hasattr(importlib.import_module(f"nystromlab.{module}"), name), module
