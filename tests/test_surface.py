"""The public surface: the submodules, whose public names are either used by the
package itself or kept on purpose, as named oracles or calculus entry points."""

import ast
import importlib
import inspect
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

# The operator calculus of the single-direction result: the package builds its
# expressions (commutator, power_expansion) but no check evaluates one; the
# power-expansion tests and the fanout benchmark do.
CALCULUS = (
    "decompose.power_expansion",
    "operators.apply_op",
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


def _callers(name):
    """The package functions that call name, as module.function or
    module.Class.method."""
    callers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {fn: f"{cls.name}." for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(f"{path.stem}.{owner.get(fn, '')}{fn.name}")
    return callers


def test_only_the_collar_quadrature_sweeps_trajectories():
    # one sweep loop: every trajectory sweep in the package goes through it
    assert _callers("trajectories") == {"flow._collar_quadrature"}


def test_one_implementation_per_family_form():
    # each C3/C4 computation has one public form, over a family of inputs, and the
    # checks reach the decompose module only through public names
    assert _callers("decompose") == {"scenarios.check_decomposition"}
    assert _callers("reproduction_residual") == {"scenarios.check_reproduction"}
    # C4's grid-doubling study calls it from its nested norms_at
    assert _callers("component_values") == {"decompose.decompose", "scenarios.norms_at",
                                            "scenarios.check_decomposition"}
    tree = ast.parse((SRC / "scenarios.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "decompose"
               for alias in node.names if alias.name.startswith("_")]
    assert not private


def test_one_rk4_step_for_sweeps_and_hitting_times():
    assert _callers("_rk4_step") == {"flow.trajectories", "flow.hitting_time"}


def test_one_partial_dispatch():
    # a function's cartesian partials come through functions._partial: the tracked
    # ones of a SmoothFunction, or finite differences of any other callable
    assert _callers("partial") == {"functions._partial"}
    assert _callers("partial_callable") == {"finitediff.partial_callable",
                                            "functions.SmoothFunction.partial",
                                            "functions._partial"}


def _definers(name):
    """The package modules that define a function called name, at any depth."""
    return {path.stem for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name == name}


def test_one_polynomial_evaluator():
    # Poly2, Holo1's polynomials and synthesize share functions._horner; numpy's
    # polynomial evaluators are left to the tests, as references
    assert not _callers("polyval") | _callers("polyval2d") | _callers("polyder")
    assert _definers("_horner") == _definers("_falling") == {"functions"}
    assert _callers("_horner") == {"functions._horner", "functions._polynomial"}
    assert {"functions.Poly2._derivative", "functions.Holo1.laurent",
            "bergman.synthesize"} <= _callers("_polynomial")


def test_one_field_formula():
    # a df/dz + b df/dzbar is formed in one place, for apply_field and the jets
    assert _callers("_field_formula") == {"functions.apply_field", "operators._field_jet"}


def test_one_shared_factor_table_without_read_sets():
    # a table is made per quadrature panel or per standalone evaluation; it keeps
    # what it computes, and no evaluation declares its reads or releases them
    assert not _definers("_keys") | _definers("release")
    assert _callers("_Shared") == {"flow._collar_quadrature", "functions.RadialHolo.__call__",
                                   "functions.Holo1.__call__", "functions.Holo1.partial"}


def test_only_build_chart_takes_the_trajectory_resolution():
    # q_panels and m_steps belong to the collar chart; classes (the chart itself,
    # the scenario config) are exempt
    takers = []
    for name in SUBMODULES:
        mod = importlib.import_module(f"bergsmooth.{name}")
        for public in getattr(mod, "__all__", ()):
            obj = getattr(mod, public)
            if (isinstance(obj, types.FunctionType)
                    and {"q_panels", "m_steps"} & set(inspect.signature(obj).parameters)):
                takers.append(f"{name}.{public}")
    assert takers == ["flow.build_chart"]


def test_one_cutoff_evaluation():
    # the cutoff's value alone (smoothstep, for CollarChart.cutoff) or the value and
    # its slope from the same exponentials (the pair, for the chart's two profiles);
    # every hit time of the cutoff profiles comes from one call per radius array
    assert not _definers("smoothstep_prime") | _definers("_psi_prime")
    assert _callers("_psi") == {"functions.smoothstep", "functions._smoothstep_pair"}
    assert _callers("_smoothstep_pair") == {"flow.CollarChart.cutoff_profiles"}
    assert _callers("hit_time_radial") == {"flow.CollarChart.hit_time",
                                           "flow.CollarChart.cutoff_profiles"}


def test_every_gate_declares_its_bound():
    # each row passes its samples, a bound and a threshold; CheckResult alone
    # compares, so no row brings a comparison or a finiteness test of its own
    assert _callers("CheckResult") == {f"scenarios.check_{name}" for name in (
        "ftc", "hardy", "reproduction", "decomposition", "conj_disk", "conj_annulus",
        "product_bound", "partial_smoothing", "duality")}
    tree = ast.parse((SRC / "scenarios.py").read_text(encoding="utf-8"))
    rows = [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"]
    assert rows
    for row in rows:
        for arg in [*row.args, *(kw.value for kw in row.keywords)]:
            for node in ast.walk(arg):
                assert not isinstance(node, ast.Compare), ast.unparse(row)
                assert not (isinstance(node, ast.Call) and "isfinite" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))), \
                    ast.unparse(row)
