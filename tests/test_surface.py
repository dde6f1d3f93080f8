"""The public surface: the submodules, whose public names are either used by the
package itself or kept on purpose; and the measured reach of the checks, which
pins every package function that no scenario enters, with the reason it is kept."""

import ast
import importlib
import inspect
import os
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import bergsmooth
from bergsmooth import cli, scenarios

SRC = Path(bergsmooth.__file__).resolve().parent
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bergsmooth.__path__))

# Every package function that no `bergsmooth run` scenario enters, as
# module.qualname, with the reason it is kept:
#   oracle     a test compares the implementation against it
#   ball       the ball in C^2, which no check builds
#   benchmark  reached by the benchmark's fanout and hitting operations
#   raises     runs only on its way to an error
UNREACHED = {
    "bergman.BallMonomial.eval": "ball",
    "bergman.OrthonormalBasis.eval_matrix": "oracle",
    "bergman.PlanarMonomial.eval": "oracle",
    "bergman._annulus_truncation": "oracle",
    "bergman._ball_norm": "ball",
    "bergman.annulus_kernel_tail_bound": "oracle",
    "bergman.kernel_eval": "oracle",
    "bergman.synthesize": "oracle",
    "decompose.matched_tangential": "oracle",
    "decompose.power_expansion": "benchmark",
    "errors.ConditioningError.__init__": "raises",
    "flow.CollarChart.exact_trajectories": "oracle",
    "flow._entry_sums": "benchmark",
    "flow.hitting_time": "benchmark",
    "flow.trajectories": "benchmark",
    "functions.AngularFamily.__call__": "oracle",
    "geometry.Domain.volume": "oracle",
    "geometry.VectorField.applied_to_defining": "oracle",
    "geometry.boundary_samples": "oracle",
    "geometry.transversality_measure": "oracle",
    "norms._sup_grid_nodes": "oracle",
    "norms.directional_sobolev_norm.<locals>.power": "oracle",
    "norms.sup_weighted_norm": "oracle",
    "operators._Jets.__init__": "benchmark",
    "operators._Jets.compute": "benchmark",
    "operators._Jets.jet": "benchmark",
    "operators._Jets.kernel": "benchmark",
    "operators._Jets.kernel.<locals>.integrand": "benchmark",
    "operators._Jets.leaf": "benchmark",
    "operators._field_jet": "benchmark",
    "operators._index": "benchmark",
    "operators._leaf_order": "benchmark",
    "operators._support": "benchmark",
    "operators.apply_op": "benchmark",
    "operators.commutator": "benchmark",
    "operators.compose": "benchmark",
    "operators.field_op": "benchmark",
    "operators.iterated_commutator": "benchmark",
    "operators.kernel_op": "benchmark",
    "operators.op_sum": "benchmark",
}


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
    assert [n for n in unused if UNREACHED.get(n) not in ("oracle", "benchmark")] == []


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
    # one sweep loop: every trajectory sweep in the package goes through it, by the
    # one seam that yields a panel's positions
    assert _callers("trajectories") == {"flow._panel_positions"}
    assert _callers("_panel_positions") == {"flow._collar_quadrature"}


def test_one_sweep_entry():
    # every quadrature along the flow is one _collar_quadrature call, which cuts
    # its points into blocks inside its panel loop: no block driver or panel
    # cache between the callers and the sweep
    assert _callers("_collar_quadrature") == {"flow.antideriv_chains", "flow.flow_moment_apply",
                                              "operators._Jets.kernel"}
    tree = ast.parse((SRC / "flow.py").read_text(encoding="utf-8"))
    names = {getattr(node, attr, None)
             for node in ast.walk(tree) for attr in ("id", "attr", "name")}
    assert not {"_blocked_quadrature", "_sweep_panels"} & names


def test_one_implementation_per_family_form():
    # each C3/C4 computation has one public form, over a family of inputs, and the
    # checks reach the decompose module only through public names
    assert _callers("decompose") == {"scenarios.check_decomposition"}
    assert _callers("reproduction_residual") == {"scenarios.check_reproduction"}
    # C4's grid-doubling study calls it from its nested norms_at
    assert _callers("component_values") == {"decompose.decompose", "scenarios.norms_at",
                                            "scenarios.check_decomposition"}
    # one component evaluator: decompose's stencil sweeps through component_values
    assert {c for c in _callers("antideriv_chains") if c.startswith("decompose.")} == {
        "decompose.reproduction_residual", "decompose.component_values"}
    tree = ast.parse((SRC / "scenarios.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "decompose"
               for alias in node.names if alias.name.startswith("_")]
    assert not private


def test_scenarios_names_nothing_from_operators():
    # C2 grades its Hardy majorants through norms.  The text of scenarios.py is
    # checked, not what loads: decompose still imports the expression calculus
    # for power_expansion, which stays for the benchmark's fanout alone
    tree = ast.parse((SRC / "scenarios.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "").rpartition(".")[2],
                         *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.rpartition(".")[2] for alias in node.names}
    assert "operators" not in imported


def test_one_rk4_step_for_sweeps_and_hitting_times():
    # the sweeps of points and of the radii of a sweep's radius table share one
    # step rule
    assert _callers("_rk4_step") == {"flow._march", "flow.hitting_time"}
    assert _callers("_march") == {"flow.trajectories", "flow._radius_scales"}


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
    # functions._horner serves Poly2 and Holo1; project, synthesize and the Gram
    # matrix share one power table, whose rows sums, expansions and Gram matrices
    # read by matrix products; numpy's polynomial evaluators are left to the tests,
    # as references
    assert not _callers("polyval") | _callers("polyval2d") | _callers("polyder")
    assert _definers("_horner") == _definers("_falling") == {"functions"}
    assert _callers("_horner") == {"functions._horner", "functions._polynomial"}
    assert {"functions.Poly2._derivative", "functions.Holo1.laurent"} <= \
        _callers("_polynomial")
    assert {caller.split(".")[0] for caller in _callers("_polynomial")} == {"functions"}
    assert not _definers("_power_sums")
    assert _callers("_power_tables") == {"bergman.project", "bergman._expansions",
                                         "bergman.gram_matrix"}
    assert _callers("_expansions") == {"bergman.synthesize", "norms._sobolev_coefficients"}


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
    # every hit time of the cutoff profiles comes from one call per radius array;
    # the only other caller takes the hit times of apply_op's support bounds
    assert not _definers("smoothstep_prime") | _definers("_psi_prime")
    assert _callers("_psi") == {"functions.smoothstep", "functions._smoothstep_pair"}
    assert _callers("_smoothstep_pair") == {"flow.CollarChart.cutoff_profiles"}
    assert _callers("hit_time_radial") == {"flow.CollarChart.hit_time",
                                           "flow.CollarChart.cutoff_profiles",
                                           "operators._support"}


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


def _package_functions():
    """Every function the package defines, at any depth, as module.qualname."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def _reached(run):
    """The package functions entered while run() runs, as module.co_qualname.  The
    package's caches are emptied first: a warm cache would hide its function's body."""
    for name in SUBMODULES:
        for obj in vars(importlib.import_module(f"bergsmooth.{name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    package, reached = os.path.dirname(bergsmooth.__file__), set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if os.path.dirname(code.co_filename) == package:
            reached.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return reached


def test_reach_is_pinned(tmp_path, monkeypatch, load_bench):
    # the scenarios run through the CLI at the default config; C7's red row makes
    # partial-smoothing exit 1.  The benchmark's judge reads each run's bundle, so
    # a check renamed or a verdict moved fails here as well as in its operations
    workloads = load_bench("workloads")
    bundles, run_scenario = {}, cli.run_scenario

    def run_and_keep(cfg):
        bundles[cfg.scenario] = bundle = run_scenario(cfg)
        return bundle
    monkeypatch.setattr(cli, "run_scenario", run_and_keep)
    codes = {}
    checks = _reached(lambda: codes.update(
        (name, cli.main(["run", name, "--out", str(tmp_path / name)]))
        for name in scenarios.SCENARIOS))
    assert codes == {name: int(name == "partial-smoothing") for name in scenarios.SCENARIOS}
    assert {name: workloads.judge(name, bundle)[0] for name, bundle in bundles.items()} == {
        name: [] for name in scenarios.SCENARIOS}
    assert set(UNREACHED.values()) <= {"oracle", "ball", "benchmark", "raises"}
    assert _package_functions() - checks == set(UNREACHED)


    def bench():
        # the benchmark reaches the package by name (power_expansion, apply_op,
        # hitting_time, ...): a name it needs that is gone fails its operations
        for workload, n_ops in ((workloads.Fanout(), 12), (workloads.Hitting(), 64)):
            workload.setup(1, str(tmp_path))
            ops = workload.run()
            assert len(ops) == n_ops
            assert [op.name for op in ops if not op.ok] == []

    benchmark = {name for name, tag in UNREACHED.items() if tag == "benchmark"}
    assert _reached(bench) & set(UNREACHED) == benchmark
