"""The test runner's own configuration, and the benchmark's contract with the
package: a failing test reports as a failure, and a traced run counts work in
every layer it touches.  That the benchmark's operations run and pass is checked
with the reach of the benchmark in test_surface.py."""

import importlib
import tomllib
import types
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"

pytest_plugins = ["pytester"]


def test_failing_property_test_does_not_end_the_session(pytester):
    # under the suite's warning filters, Hypothesis's failure report must not
    # turn into an internal error that stops every later test
    with PYPROJECT.open("rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\nfilterwarnings = [\n"
        + "".join(f"    {f!r},\n" for f in filters) + "]\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_a_fails(x):
            assert x < 0

        def test_b_passes():
            pass
        """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()


def test_benchmark_tracer_counts_each_layer(load_bench):
    # the tracer reads arguments by name and wraps methods from each class's own
    # __dict__, so a renamed parameter or a moved method breaks only traced runs
    geometry, flow, functions, operators, bergman = (
        importlib.import_module(f"bergsmooth.{name}")
        for name in ("geometry", "flow", "functions", "operators", "bergman"))
    tracer = load_bench("tracer").Tracer()
    tracer.install()
    try:
        disk = geometry.make_domain("disk")
        chart = flow.build_chart(disk, 4, 8)
        w = functions.Poly2([[1.0, 0.5], [0.25j, 0.0]])
        g = lambda p: chart.cutoff(p) * w(p)
        pts = np.exp(-chart.rate * np.array([0.1, 0.5]) + 1j * np.array([0.3, 2.0]))
        # the annulus marches each point through trajectories (the disk and the
        # ball scale theirs by one multiplier per node, which no counter sees);
        # the collar points' second panel lies past the collar: one sweep of each
        ring = flow.build_chart(geometry.make_domain("annulus", rho=0.5), 4, 8)
        ring_pts = (ring.flow_radius(-np.array([0.1, 0.5]), 1.0)
                    * np.exp(1j * np.array([0.3, 2.0])))
        flow.antideriv_chains(ring, [(lambda p: ring.cutoff(p) * w(p), 2)], ring_pts)
        starts = tracer.count["flow.trajectory_starts"]
        flow.hitting_time(chart, pts)
        operators.apply_op(operators.kernel_op(1), g, pts, chart)
        # a derivative through a kernel goes by jets, still through the public
        # trajectories and the integrand classes
        evals, sweeps = tracer.count["functions.evals"], tracer.count["flow.trajectories.calls"]
        dx = geometry.VectorField(disk, lambda p: np.full_like(p, 1.0 + 0.0j), real=True)
        operators.apply_op(operators.compose(operators.field_op(dx), operators.kernel_op(),
                                             operators.field_op(dx)), g, pts, chart)
        jet_evals = tracer.count["functions.evals"] - evals
        jet_sweeps = tracer.count["flow.trajectories.calls"] - sweeps
        basis, grid = bergman.build_basis(disk, 4), geometry.quadrature_grid(disk, 4, 8)
        bergman.project(w, basis, grid)
        # projection takes running powers; the Gram matrix still evaluates elements
        bergman.gram_matrix(basis, grid)
    finally:
        tracer.uninstall()
    assert starts == len(pts)
    assert jet_evals > 0 and jet_sweeps > 0
    for counter in ("flow.trajectories.calls", "flow.hitting_time.calls", "functions.evals",
                    "bergman.basis_evals"):
        assert tracer.count[counter] > 0, counter


def test_benchmark_tracer_hooks_name_live_code(load_bench):
    # the tracer hooks a public function by its defining module and name, and a
    # method in its class's own __dict__: a hook whose name is gone never runs and
    # its counters read 0.  flow.flow and flow.antideriv_chain are deleted from
    # the package; their counters retire with the benchmark's upkeep
    tracer = load_bench("tracer")
    keys = set(tracer._ENTER) | set(tracer._LEAVE) | {
        f"{layer}.{cls}.{name}" for layer, classes in tracer.METHODS.items()
        for cls, names in classes.items() for name in names}
    dead = set()
    for key in keys:
        layer, *path = key.split(".")
        mod = importlib.import_module(f"bergsmooth.{layer}")
        if len(path) == 1:
            fn = vars(mod).get(path[0])
            live = isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
        else:
            cls = vars(mod).get(path[0])
            live = isinstance(cls, type) and path[1] in vars(cls)
        if not live:
            dead.add(key)
    assert dead == {"flow.flow", "flow.antideriv_chain"}
