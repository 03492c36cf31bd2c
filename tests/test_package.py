"""The package's public interface: what ``__all__`` exports."""

import ast
import importlib
import re
import types
from pathlib import Path

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
    "psd_from_spectrum",
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


# A dotted reference such as ``matcore.lowrank_residual_norm`` or
# ``nystromlab.generators._certify_spectrum``; a file name such as
# ``nystromlab/matfile.py`` or ``experiment.json`` is not one.
DOTTED = re.compile(rf"(?<![\w/])(?:nystromlab\.)?({'|'.join(SUBMODULES)})"
                    r"\.(?!(?:py|json|csv|txt)\b)([A-Za-z_]\w*)")


def _doc_texts():
    """README and every docstring of the package's modules."""
    root = Path(nystromlab.__file__).parent
    yield "README.md", (root.parents[1] / "README.md").read_text()
    for module in SUBMODULES:
        tree = ast.parse((root / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{module}.{getattr(node, 'name', '<module>')}", doc


def test_dotted_doc_references_resolve():
    refs = [(where, m.group(1), m.group(2))
            for where, text in _doc_texts() for m in DOTTED.finditer(text)]
    assert len(refs) >= 5  # the pattern still finds the references
    missing = []
    for where, module, name in refs:
        obj = getattr(importlib.import_module(f"nystromlab.{module}"), name, None)
        if obj is None or isinstance(obj, types.ModuleType):  # a module it imports is no name
            missing.append(f"{where}: {module}.{name}")
    assert not missing, missing


def test_linecount_gives_each_line_one_kind():
    import linecount

    snippet = '''"""Module docstring,

over three lines."""

# a comment
x = 1  # code with a comment


def f(a):
    """One line."""
    message = (
        "a string continued "
        # a comment inside brackets
        """on a second line"""
    )
    "a bare string statement"
    return a + 1
'''
    kinds = ["docstring", "docstring", "docstring", "blank", "comment", "code", "blank",
             "blank", "code", "docstring", "code", "code", "comment", "code", "code",
             "docstring", "code"]
    assert linecount.classify(snippet) == kinds
