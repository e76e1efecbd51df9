"""Every name the benchmark under ``perfbench/`` looks up in the package resolves.

``perfbench/tracing.py`` wraps functions by (submodule, attribute path), and
``perfbench/run.py`` and ``perfbench/workloads.py`` call the package as
``ra.<name>`` and through the submodules they import.  A rename or deletion
in the package would break the benchmark only when it runs; these tests catch
it in the suite.  They read the benchmark files and never change them.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import renewal_arma as ra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CALLERS = ("run.py", "workloads.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    tracing = load_tracing()
    spans = set(tracing.SPANS.values())
    counters = {(mod, path) for mod, path, _ in tracing.COUNTERS.values()}
    return sorted(spans | counters)


def package_aliases(tree):
    """Local name -> package object: ``import renewal_arma as ra`` and
    ``from renewal_arma import cli, verify``; run.py binds ``ra`` to the package too."""
    aliases = {"ra": ra}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "renewal_arma":
            for alias in node.names:
                aliases[alias.asname or alias.name] = importlib.import_module(f"renewal_arma.{alias.name}")
    return aliases


def package_references(name):
    """(file, line, owner, attribute, call node or None) for every ``owner.attribute`` in a caller."""
    tree = ast.parse((PERFBENCH / name).read_text())
    aliases = package_aliases(tree)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(name, node.lineno, aliases[node.value.id], node.attr, calls.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases]


@pytest.mark.parametrize("mod,path", traced_names())
def test_traced_name_resolves(mod, path):
    obj = importlib.import_module(f"renewal_arma.{mod}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("name", CALLERS)
def test_package_references_resolve(name):
    refs = package_references(name)
    assert refs
    for file, line, owner, attr, call in refs:
        assert hasattr(owner, attr), f"{file}:{line}: {owner.__name__}.{attr}"
        if call is not None:  # the call's arguments bind to the signature
            inspect.signature(getattr(owner, attr)).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_simulate_counts_takes_threads():
    spec = ra.make_constant_hazard([0.2, 0.3], 0.6)
    series = ra.simulate_counts(ra.SimConfig(spec=spec, M=2, steps=50, seed=1), threads=1)
    assert series.values.shape == (50,)
