"""The benchmark calls daepencil functions by name.

bench/tracer.py lists the functions it rebinds in FUNCTIONS, and
bench/workloads.py calls the package through its modules; a rename, a removed
function or a changed signature would only show as a crash or a failed op of
a benchmark run, so every name is resolved and every call bound here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("chains", "cli", "fileio", "pencils", "solvers")


def test_tracer_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, names in tracer.FUNCTIONS.items():
        owner = importlib.import_module(f"daepencil.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(owner, name, None))]
    assert not missing, missing


def _resolve(node):
    """(module.name, the object or None) for an attribute node on one of MODULES, else None."""
    if not (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    ):
        return None
    owner = importlib.import_module(f"daepencil.{node.value.id}")
    return f"{node.value.id}.{node.attr}", getattr(owner, node.attr, None)


def test_workload_calls_bind():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    resolved = [_resolve(node) for node in ast.walk(tree)]
    missing = [name for name, target in filter(None, resolved) if target is None]
    assert not missing, missing
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _resolve(node.func)]
    unbound = []
    for call in calls:
        target = _resolve(call.func)[1]
        assert all(kw.arg is not None for kw in call.keywords), ast.unparse(call)
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        try:  # the argument nodes stand in for the values; names and counts decide
            inspect.signature(target).bind(*call.args, **{kw.arg: kw for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {ast.unparse(call)}: {exc}")
    assert not unbound, unbound
    assert len(calls) == 16  # every package call the workloads make today
