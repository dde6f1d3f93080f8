"""The public surface: the submodules, whose public names are either used by the
package itself or kept on purpose, as named oracles or calculus entry points."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import bergsmooth

SRC = Path(bergsmooth.__file__).resolve().parent
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bergsmooth.__path__))

# Public names no package code calls, kept because tests compare the
# implementation against them.
ORACLES = (
    "bergman.kernel_eval",               # closed-form kernels vs basis series
    "decompose.matched_tangential",      # N = i T on holomorphic data
    "flow.hitting_time",                 # bisection vs CollarChart.hit_time
    "geometry.transversality_measure",   # the rotation-field component on the boundary
    "norms.sup_weighted_norm",           # dense-grid sup norm, for a C9 that can fail
)

# The operator calculus of the single-direction result: the package evaluates
# these expressions (apply_op, commutator) but builds none itself; the
# power-expansion tests and the fanout benchmark do.
CALCULUS = (
    "decompose.power_expansion",
    "operators.diff_op",
)


def _names_used(tree):
    """Names a module loads, reads as attributes or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_not_shadowed(name):
    mod = importlib.import_module(f"bergsmooth.{name}")
    assert isinstance(mod, types.ModuleType)
    assert isinstance(getattr(bergsmooth, name), types.ModuleType)


def test_package_root_binds_only_version():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
    assert bound == ["__version__"]


def test_every_public_name_is_used_or_kept():
    used = set().union(*(_names_used(ast.parse(p.read_text(encoding="utf-8")))
                         for p in SRC.glob("*.py")))
    unused = []
    for name in SUBMODULES:
        mod = importlib.import_module(f"bergsmooth.{name}")
        for public in getattr(mod, "__all__", ()):
            assert hasattr(mod, public), f"{name}.__all__ lists missing {public}"
            if public not in used:
                unused.append(f"{name}.{public}")
    assert sorted(unused) == sorted(ORACLES + CALCULUS)
