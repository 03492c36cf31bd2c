"""The argument rule: every integer and real parameter is checked by the
shared definitions in ``matcore`` (README "Library quick start")."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import nystromlab
from nystromlab import (
    CoherencePlan,
    ColumnSample,
    ConfigError,
    ExperimentConfig,
    RngSeed,
    SpectrumSpec,
    SymMatrix,
    bound_report,
    chernoff_sweep,
    chernoff_tail,
    config_from_mapping,
    emit_results,
    flat_orthonormal,
    full_rank_tolerance,
    partition,
    probabilistic_bound,
    random_orthonormal,
    required_samples,
    run_experiment,
    sample_uniform,
)
from nystromlab.experiment import emit_table

SEED = RngSeed(0, 0)
FLAT = [CoherencePlan("flat")]


def _sweep(**over):
    return chernoff_sweep(**{"n": 4, "ks": [1], "plans": FLAT, "epsilons": [0.5],
                             "trials": 2, "master_seed": 0, **over})


def _config(**over):
    return ExperimentConfig(**{"k": 1, "trials": 2, "master_seed": 0,
                               "matrix_path": "m.txt", **over})


# (entry point, parameter as its error names it, kind, valid value, call).
# "int" and "real" are library parameters, which raise ValueError naming the
# parameter; the config layer raises ConfigError with the parameter as its
# field, and stores a numpy integer as the int it equals.
TABLE = [
    ("required_samples", "k", "int", 2, lambda v: required_samples(v, 1.0, 0.05, 0.5)),
    ("chernoff_tail", "k", "int", 2, lambda v: chernoff_tail(v, 1.0, 4, 0.5)),
    ("chernoff_tail", "l", "int", 2, lambda v: chernoff_tail(2, 1.0, v, 0.5)),
    ("probabilistic_bound", "n", "int", 2, lambda v: probabilistic_bound(1.0, v, 1, 0.5)),
    ("probabilistic_bound", "l", "int", 2, lambda v: probabilistic_bound(1.0, 4, v, 0.5)),
    ("bound_report", "n", "int", 2, lambda v: bound_report(v, 1, 1.0, 0.5, 0.05)),
    ("bound_report", "k", "int", 2, lambda v: bound_report(4, v, 1.0, 0.5, 0.05)),
    ("bound_report", "l", "int", 2, lambda v: bound_report(4, 2, 1.0, 0.5, 0.05, l=v)),
    ("sample_uniform", "n", "int", 2, lambda v: sample_uniform(v, 1, SEED)),
    ("sample_uniform", "l", "int", 2, lambda v: sample_uniform(4, v, SEED)),
    ("partition", "k", "int", 2, lambda v: partition(SymMatrix(np.eye(4)), v)),
    ("SpectrumSpec", "n", "int", 2, lambda v: SpectrumSpec("exp-decay", v, 1, rate=0.5)),
    ("SpectrumSpec", "k", "int", 2, lambda v: SpectrumSpec("exp-decay", 4, v, rate=0.5)),
    ("CoherencePlan", "m", "int", 2, lambda v: CoherencePlan("spiked", v)),
    ("random_orthonormal", "n", "int", 2, lambda v: random_orthonormal(v, 1, SEED)),
    ("random_orthonormal", "k", "int", 2, lambda v: random_orthonormal(4, v, SEED)),
    ("flat_orthonormal", "n", "int", 2, lambda v: flat_orthonormal(v, 1)),
    ("flat_orthonormal", "k", "int", 2, lambda v: flat_orthonormal(4, v)),
    ("RngSeed", "master_seed", "int", 2, lambda v: RngSeed(v, 0)),
    ("RngSeed", "stream_id", "int", 2, lambda v: RngSeed(0, v)),
    ("ColumnSample", "n", "int", 2, lambda v: ColumnSample(n=v, indices=(0,))),
    ("full_rank_tolerance", "n", "int", 2, full_rank_tolerance),
    ("required_samples", "tau", "real", 1.5, lambda v: required_samples(2, v, 0.05, 0.5)),
    ("required_samples", "delta", "real", 0.05, lambda v: required_samples(2, 1.0, v, 0.5)),
    ("required_samples", "epsilon", "real", 0.5, lambda v: required_samples(2, 1.0, 0.05, v)),
    ("probabilistic_bound", "lambda_k1", "real", 1.0,
     lambda v: probabilistic_bound(v, 4, 2, 0.5)),
    ("probabilistic_bound", "epsilon", "real", 0.5,
     lambda v: probabilistic_bound(1.0, 4, 2, v)),
    ("chernoff_tail", "tau", "real", 1.5, lambda v: chernoff_tail(2, v, 4, 0.5)),
    ("chernoff_tail", "epsilon", "real", 0.5, lambda v: chernoff_tail(2, 1.0, 4, v)),
    ("bound_report", "tau", "real", 1.5, lambda v: bound_report(4, 2, v, 0.5, 0.05)),
    ("bound_report", "epsilon", "real", 0.5, lambda v: bound_report(4, 2, 1.0, v, 0.05)),
    ("bound_report", "delta", "real", 0.05, lambda v: bound_report(4, 2, 1.0, 0.5, v)),
    ("bound_report", "lambda_k1", "real", 1.0,
     lambda v: bound_report(4, 2, 1.0, 0.5, 0.05, lambda_k1=v)),
    ("SpectrumSpec", "lambda1", "real", 2.0,
     lambda v: SpectrumSpec("exp-decay", 4, 2, lambda1=v, rate=0.5)),
    ("SpectrumSpec", "rate", "real", 0.5, lambda v: SpectrumSpec("exp-decay", 4, 2, rate=v)),
    ("SpectrumSpec", "exponent", "real", 1.0,
     lambda v: SpectrumSpec("power-law", 4, 2, exponent=v)),
    ("SpectrumSpec", "values[0]", "real", 1.0,
     lambda v: SpectrumSpec("custom", 2, 1, values=(v, 0.0))),
    ("chernoff_sweep", "n", "config-int", 2, lambda v: _sweep(n=v)),
    ("chernoff_sweep", "k", "config-int", 2, lambda v: _sweep(ks=[v])),
    ("chernoff_sweep", "l", "config-int", 2, lambda v: _sweep(ls=[v])),
    ("chernoff_sweep", "trials", "config-int", 2, lambda v: _sweep(trials=v)),
    ("chernoff_sweep", "jobs", "config-int", 2, lambda v: _sweep(jobs=v)),
    ("ExperimentConfig", "n", "config-int", 2, lambda v: _config(n=v)),
    ("ExperimentConfig", "k", "config-int", 2, lambda v: _config(k=v)),
    ("ExperimentConfig", "l", "config-int", 2, lambda v: _config(l=v)),
    ("ExperimentConfig", "trials", "config-int", 2, lambda v: _config(trials=v)),
    ("ExperimentConfig", "seed", "config-int", 2, lambda v: _config(master_seed=v)),
    ("ExperimentConfig", "jobs", "config-int", 2, lambda v: _config(jobs=v)),
    ("chernoff_sweep", "epsilon", "config-real", 0.5, lambda v: _sweep(epsilons=[v])),
    ("ExperimentConfig", "epsilon", "config-real", 0.5, lambda v: _config(epsilon=v)),
    ("ExperimentConfig", "delta", "config-real", 0.5, lambda v: _config(delta=v)),
]

REFUSED = {
    "int": (True, np.True_, 2.0, 2.5, "2", None),
    "real": (True, "0.5", None),
}

# Parameters for which None is valid: bound_report's l then defaults, and a
# config's n and l are then taken from the matrix and the sample-size rule.
NONE_ALLOWED = {("bound_report", "l"), ("ExperimentConfig", "n"), ("ExperimentConfig", "l")}


def _refusals():
    for entry, name, kind, _, call in TABLE:
        for value in REFUSED[kind.removeprefix("config-")]:
            if value is None and (entry, name) in NONE_ALLOWED:
                continue
            yield pytest.param(name, kind, call, value, id=f"{entry}.{name}={value!r}")


def _accepted():
    for entry, name, kind, valid, call in TABLE:
        numpy = np.int64(valid) if kind.endswith("int") else np.float64(valid)
        yield pytest.param(name, kind, call, valid, numpy, id=f"{entry}.{name}")


def _expect_refusal(name, kind, call, value):
    if kind.startswith("config-"):
        with pytest.raises(ConfigError) as ei:
            call(value)
        assert ei.value.field == name
    else:
        with pytest.raises(ValueError) as ei:
            call(value)
        assert str(ei.value).startswith(f"{name} must "), str(ei.value)


@pytest.mark.parametrize("name,kind,call,value", _refusals())
def test_parameter_refuses_a_value_outside_its_rule(name, kind, call, value):
    _expect_refusal(name, kind, call, value)


def _written(result) -> str:
    """What a run writes of a config or of a sweep's rows."""
    if isinstance(result, ExperimentConfig):
        return repr(result) + json.dumps(dataclasses.asdict(result))
    return emit_table(result, "json") + emit_table(result, "csv")


@pytest.mark.parametrize("name,kind,call,valid,numpy", _accepted())
def test_parameter_accepts_its_valid_value(name, kind, call, valid, numpy):
    want = call(valid)
    got = call(numpy)
    if kind == "config-int":  # stored as an int, so json.dumps writes it
        assert _written(got) == _written(want)


@pytest.mark.parametrize("convert", [np.int64, np.uint32], ids=["int64", "uint32"])
def test_numpy_integers_run_as_the_ints_they_equal(convert):
    def run(to):
        d = {"n": to(16), "k": to(2), "l": to(6), "trials": to(3), "seed": to(1),
             "jobs": to(1), "gen": "exp:0.5", "coherence": "flat"}
        records, summary = run_experiment(config_from_mapping(d))
        rows = chernoff_sweep(to(16), [to(2)], FLAT, [0.5], to(5), to(1), ls=[to(6)], jobs=to(1))
        return (emit_results(records, summary, "json") + emit_results(records, summary, "csv")
                + emit_table(rows, "json") + emit_table(rows, "csv"))

    assert run(convert) == run(int)


def test_range_messages_name_the_parameter_and_its_ends():
    cases = [
        (lambda: bound_report(16, 4, 0.5, 0.5, 0.05), "tau must lie in [1, n/k=4], got 0.5"),
        (lambda: bound_report(4, 5, 1.0, 0.5, 0.05), "k must lie in [1, n=4], got 5"),
        (lambda: required_samples(2, 0.5, 0.05, 0.5), "tau must be >= 1, got 0.5"),
        (lambda: probabilistic_bound(np.inf, 4, 2, 0.5),
         "lambda_k1 must be finite and >= 0, got inf"),
        (lambda: SpectrumSpec("power-law", 4, 2, exponent=0.0), "exponent must be > 0, got 0.0"),
        (lambda: SpectrumSpec("custom", 2, 1, values=(np.nan, 0.0)),
         "values[0] must be finite, got nan"),
        (lambda: RngSeed(2**64, 0), f"master_seed must lie in [0, {2**64 - 1}], got {2**64}"),
        (lambda: ColumnSample(n=0, indices=(0,)), "n must be >= 1, got 0"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as ei:
            call()
        assert str(ei.value) == message


def test_tau_slack_forgives_rounding_at_both_ends():
    assert bound_report(16, 4, 1.0 - 1e-10, 0.5, 0.05).tau == 1.0 - 1e-10
    assert bound_report(16, 4, 4.0 + 1e-10, 0.5, 0.05).tau == 4.0 + 1e-10


# A type test mentions one of these names; INTEGER_TYPES and REAL_TYPES are
# the shared definitions' own tuples.
_INTEGER_OR_BOOL = {"int", "bool", "bool_", "integer", "signedinteger", "unsignedinteger",
                    "Integral", "INTEGER_TYPES", "REAL_TYPES"}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _is_type_call(node):
    return isinstance(node, ast.Call) and _names(node.func) & {"type"}


def _type_tests(tree):
    """(enclosing function, source) of every integer or bool type test:
    an isinstance, issubclass or issubdtype call, or a comparison with a
    ``type(...)`` call, that names an integer or bool type."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name
        test = None
        if isinstance(node, ast.Call) and _names(node.func) & {"isinstance", "issubclass",
                                                               "issubdtype"}:
            test = node.args[1:]
        elif isinstance(node, ast.Compare) and any(
                _is_type_call(side) for side in [node.left, *node.comparators]):
            test = [node]
        if test and any(_names(arg) & _INTEGER_OR_BOOL for arg in test):
            found.append((where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_integer_and_bool_type_tests_live_in_the_shared_definitions():
    root = Path(nystromlab.__file__).parent
    found = {}
    for path in sorted(root.glob("*.py")):
        tests = _type_tests(ast.parse(path.read_text()))
        if tests:
            found[path.stem] = tests
    assert found == {
        "matcore": [
            ("is_integer", "isinstance(x, INTEGER_TYPES)"),
            ("is_integer", "isinstance(x, bool)"),
            ("is_real", "isinstance(x, REAL_TYPES)"),
            ("is_real", "isinstance(x, bool)"),
        ],
    }


@pytest.mark.parametrize("source", [
    "isinstance(k, (int, np.integer))",
    "type(k) is not int",
    "isinstance(flag, bool)",
    "np.issubdtype(type(k), np.integer)",
    "type(v) in (int, float)",
])
def test_the_type_test_scan_finds_each_spelling(source):
    tree = ast.parse(f"def f(k, flag, v):\n    return {source}\n")
    assert [where for where, _ in _type_tests(tree)][:1] == ["f"]
