import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergsmooth
from bergsmooth import bergman, cli, norms, scenarios
from bergsmooth.errors import ParameterError
from bergsmooth.functions import AngularFamily
from bergsmooth.geometry import PolarEvalGrid
from bergsmooth.scenarios import (
    SCENARIOS,
    CheckResult,
    ReportBundle,
    ScenarioConfig,
    _refinement,
    emit_report,
    run_scenario,
)

FIELDS = tuple(ScenarioConfig.__dataclass_fields__)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)


def test_config_roundtrip():
    cfg = ScenarioConfig.from_dict({"scenario": "duality", "seed": 7, "n_r": 16,
                                    "n_theta": 32, "basis_size": 16})
    assert cfg.scenario == "duality"
    assert cfg.seed == 7


def test_config_validation():
    with pytest.raises(ParameterError):
        ScenarioConfig.from_dict({"scenario": "nope"})
    with pytest.raises(ParameterError):
        ScenarioConfig.from_dict({"scenario": "duality", "k": 9})
    with pytest.raises(ParameterError):
        ScenarioConfig.from_dict({"scenario": "duality", "bogus": 1})
    with pytest.raises(ParameterError):
        ScenarioConfig.from_dict({"scenario": "duality", "tolerances": {"a": -1.0}})


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), JSON_VALUES, max_size=5)
       | JSON_VALUES,
       st.sampled_from(SCENARIOS + (None,)))
def test_config_from_arbitrary_json(data, scenario):
    # any JSON value in any field gives a config or a ParameterError, never another error
    if isinstance(data, dict) and scenario is not None:
        data.setdefault("scenario", scenario)
    try:
        cfg = ScenarioConfig.from_dict(data)
    except ParameterError:
        return
    assert ScenarioConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def run_cli(*args):
    """The command-line entry point in a fresh interpreter, importing this package."""
    src = str(Path(bergsmooth.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "bergsmooth.cli", *args],
                          capture_output=True, text=True, env=env)


def test_empty_bundle_report(tmp_path):
    bundle = ReportBundle("duality", {}, [], {"config": {}})
    paths = emit_report(bundle, str(tmp_path / "out"))
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "0/0 passed" in summary
    assert len(paths) == 2  # summary plus config echo


def test_emit_report_replaces_its_files_only(tmp_path):
    bundle = ReportBundle("duality", {"t": (["a", "b"], [[1, 0.5], [2, 0.25]])}, [],
                          {"config": {"seed": 3}})
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_bytes(b"kept\n")
    foreign = os.stat(out / "notes.txt")
    first = {Path(p).name: Path(p).read_bytes() for p in emit_report(bundle, str(out))}
    # a second name for each report file keeps the first file alive
    for name in first:
        os.link(out / name, tmp_path / name)
    paths = emit_report(bundle, str(out))
    assert {Path(p).name: Path(p).read_bytes() for p in paths} == first
    for name in first:
        # replaced by a new file, not truncated and rewritten in place
        assert not os.path.samefile(out / name, tmp_path / name), name
        assert (tmp_path / name).read_bytes() == first[name]
    assert sorted(os.listdir(out)) == sorted([*first, "notes.txt"])
    assert (out / "notes.txt").read_bytes() == b"kept\n"
    after = os.stat(out / "notes.txt")
    assert (after.st_ino, after.st_mtime_ns) == (foreign.st_ino, foreign.st_mtime_ns)


def _format_cell_by_isinstance(x):
    """The CSV cell formatter as it was written before its lookup by type."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def test_cells_are_written_as_by_isinstance():
    # the report cells' types, their edge values, and types outside the lookup
    cells = [True, False, np.bool_(True), np.bool_(False), 0, -3, 2**70, np.int64(-7),
             np.int64(2**62), 0.1, 1 / 3, np.float64(-2.5e-300), float("nan"),
             np.float64("nan"), float("inf"), float("-inf"), np.float64("-inf"), -0.0,
             np.float64(-0.0), 5e-324, np.float64(5e-324), "", "pole_0.9", "a,b",
             np.int32(4), np.uint8(255), np.float32(0.1), np.str_("z"), None]
    for cell in cells:
        assert scenarios._format_cell(cell) == _format_cell_by_isinstance(cell), repr(cell)


def test_duality_scenario_table_schema(tmp_path):
    cfg = ScenarioConfig.from_dict({"scenario": "duality", "n_r": 16, "n_theta": 32,
                                    "basis_size": 16})
    bundle = run_scenario(cfg)
    header, rows = bundle.tables["duality"]
    assert header == ["order", "sample", "duality_sup", "sobolev_norm", "ratio"]
    assert len(rows) == 40
    assert bundle.all_passed


# the two summary lines of ftc that read the wall clock: C1's runtime and the
# pass count that includes its verdict
CLOCK_LINES = re.compile(r"^(\[(PASS|FAIL)\] C1: flow reproduction runtime \(s\).*"
                         r"|criteria: \d+/\d+ passed)$", re.M)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_deterministic(tmp_path, scenario):
    cfg = ScenarioConfig.from_dict({"scenario": scenario, "seed": 11, "q_panels": 8,
                                    "m_steps": 16, "n_r": 16, "n_theta": 32,
                                    "basis_size": 16})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    emit_report(run_scenario(cfg), str(out1))
    emit_report(run_scenario(cfg), str(out2))
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "summary.txt" in names and any(n.endswith(".csv") for n in names)
    for name in names:
        first, second = ((out / name).read_text() for out in (out1, out2))
        if scenario == "ftc" and name == "summary.txt":
            first, second = (CLOCK_LINES.sub("<clock>", text) for text in (first, second))
        assert first == second, name


def test_refinement_values_ratios_and_drifts():
    values, ratios, drifts = _refinement(lambda res: 10.0 / res**2, levels=(1, 2, 4))
    assert values == [10.0, 2.5, 0.625]
    assert ratios == [0.25, 0.25]
    assert drifts == [0.75, 0.75]
    # finest first, the ratio is coarse over fine
    values, ratios, drifts = _refinement(lambda res: 10.0 / res**2, levels=(2, 1))
    assert values == [2.5, 10.0]
    assert ratios == [4.0]
    assert drifts == [3.0]


@pytest.mark.parametrize("bound, holds_at_threshold", [("<=", True), (">=", True),
                                                       ("<", False), (">", False)])
def test_verdict_at_the_threshold(bound, holds_at_threshold):
    assert CheckResult("C0", "row", [0.5], bound, 0.5).passed is holds_at_threshold


@pytest.mark.parametrize("bound, worst", [("<=", 3.0), ("<", 3.0), (">=", 0.5), (">", 0.5)])
def test_a_row_reads_its_worst_sample(bound, worst):
    # an upper bound reads the largest sample, a lower bound the smallest
    row = CheckResult("C0", "row", np.array([2.0, 3.0, 0.5]), bound, 1.0)
    assert row.measured == worst and type(row.measured) is float
    # one sample may come as a bare numpy scalar
    row = CheckResult("C0", "row", np.float64(0.25), bound, 1.0)
    assert row.measured == 0.25 and type(row.measured) is float


@pytest.mark.parametrize("bound, threshold", [("<=", 10.0), ("<", float("inf")),
                                              (">=", 0.0), (">", float("-inf"))])
def test_one_nan_sample_fails_every_bound(bound, threshold):
    assert CheckResult("C0", "row", [1.0, 2.0], bound, threshold).passed
    row = CheckResult("C0", "row", [1.0, float("nan"), 2.0], bound, threshold)
    assert np.isnan(row.measured)
    assert not row.passed


# every gate row at the default config: (criterion, description, bound, threshold).
# A loosened threshold or a flipped bound shows up here as a diff.  C7's growth
# row is the documented honest failure.
GATES = [
    ("C1", "flow reproduction sup-defect, 10 seeded cutoff functions on disk and annulus",
     "<=", 1e-6),
    ("C1", "flow reproduction runtime (s)", "<", 5.0),
    ("C2", "majorant kernel ratio minus Hardy bound, mu in {0,1}, weights 0..8, "
           "20 seeded functions", "<=", 0.05),
    ("C2", "closed line-segment case (1/3 vs 4/3)", "<=", 1e-10),
    ("C3", "reproduction residual at order 1", "<=", 1e-6),
    ("C3", "reproduction residual at order 2", "<=", 1e-5),
    ("C3", "reproduction residual at order 3", "<=", 1e-4),
    ("C3", "residual drop per resolution doubling", ">=", 4.0),
    ("C4", "decomposition residual at order 1", "<=", 1e-5),
    ("C4", "decomposition residual at order 2", "<=", 1e-4),
    ("C4", "component-to-weighted-norm ratio envelope over the singular family", "<=", 10.0),
    ("C4", "component Sobolev norms under grid doubling", "<=", 1.5),
    ("C5", "projection of conjugates is the mean constant, 10 seeded polynomials", "<=", 1e-8),
    ("C6", "projected conjugate coordinate: coefficient of 1/z", "<=", 1e-6),
    ("C6", "projected conjugate coordinate: coefficients off 1/z", "<=", 1e-9),
    ("C6", "projected conjugate-power norms drift under grid doubling", "<=", 1e-2),
    ("C6", "projected-to-input norm ratio envelope over the seeded conjugate family",
     "<=", 10.0),
    ("C9", "pointwise weighted product bound against the sup-weighted norms "
           "(exact inequality)", "<=", 0.0),
    ("C7", "tangential norm of order 3 drift under grid doubling", "<", 0.02),
    ("C7", "full first-order norm estimate growth per grid doubling", ">", 0.30),
    ("C7", "projection concentrates on the cubic mode (off-mode coefficients)", "<", 1e-9),
    ("C7", "projection Sobolev-3 norm drift under grid doubling", "<", 0.02),
    ("C8", "empirical duality constant (finite, single constant across the family)",
     "<", float("inf")),
    ("C8", "duality constant drift under basis doubling", "<", 2.0),
]


def test_gate_table():
    rows = [(c.criterion, c.description, c.bound, c.threshold)
            for scenario in SCENARIOS for c in run_scenario(ScenarioConfig(scenario)).checks]
    assert rows == GATES


def test_partial_smoothing_builds_each_grid_and_projection_once(monkeypatch):
    calls = {"quadrature_grid": 0, "project": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(scenarios, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, counted)
    scenarios.check_partial_smoothing(ScenarioConfig.from_dict(
        {"scenario": "partial-smoothing", "n_r": 16, "n_theta": 32, "basis_size": 16}))
    assert calls == {"quadrature_grid": 2, "project": 2}


def test_partial_smoothing_reads_the_same_on_the_polar_axes_as_at_the_nodes(monkeypatch):
    # C7's input sampled on each grid's polar axes, and again node by node with the
    # sampling route forced to call the family at the nodes: the growth row (red)
    # and the tangential drift keep their bits, the projections agree to 1e-12 of
    # their largest coefficient (the off-mode ones are rounding, about 1e-15) and
    # the Sobolev-3 drift to 1e-12 of itself.  The family is called 13 times node
    # by node (2 projections, 8 rotation powers, 3 finite-difference grids), and
    # never on the axes
    cfg = ScenarioConfig("partial-smoothing")
    calls, projections = [], []
    call, project = AngularFamily.__call__, scenarios.project

    def counted(self, points):
        calls.append(1)
        return call(self, points)

    def recorded(*args, **kwargs):
        out = project(*args, **kwargs)
        projections.append(out.coeffs)
        return out
    monkeypatch.setattr(AngularFamily, "__call__", counted)
    monkeypatch.setattr(scenarios, "project", recorded)
    on_axes, _ = scenarios.check_partial_smoothing(cfg)
    assert calls == []

    def at_nodes(f, grid):
        nodes = grid.nodes() if isinstance(grid, PolarEvalGrid) else grid.nodes
        return np.asarray(f(nodes), dtype=complex)
    for module in (bergman, norms):
        monkeypatch.setattr(module, "_on_grid", at_nodes)
    by_nodes, _ = scenarios.check_partial_smoothing(cfg)
    assert len(calls) == 13
    rows = {a.description: (a.measured, b.measured) for a, b in zip(on_axes, by_nodes)}
    for description in ("full first-order norm estimate growth per grid doubling",
                        "tangential norm of order 3 drift under grid doubling"):
        assert rows[description][0] == rows[description][1], description
    axes, nodes = rows["projection Sobolev-3 norm drift under grid doubling"]
    assert abs(axes - nodes) <= 1e-12 * nodes
    assert len(projections) == 4
    for a, b in zip(projections[:2], projections[2:]):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.fixture()
def cold_caches():
    """The package's module-level caches emptied before and after the test."""
    def clear():
        for module in pkgutil.iter_modules(bergsmooth.__path__):
            for obj in vars(importlib.import_module(f"bergsmooth.{module.name}")).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    clear()
    yield
    clear()


def test_quadrature_scenarios_build_each_gauss_rule_once(monkeypatch, cold_caches):
    # C5-C9 at one config seed ask for the 32- and 64-node rules on many grids; each
    # is built once, counted at numpy's own builder
    calls = {}
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls[n] = calls.get(n, 0) + 1
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    for scenario in ("conj-smoothing", "partial-smoothing", "duality"):
        run_scenario(ScenarioConfig(scenario))
    assert calls == {32: 1, 64: 1}


@pytest.mark.parametrize("check, scenario, expected", [
    ("check_conj_annulus", "conj-smoothing",
     {"project": 4, "inputs": 17, "gram_matrix": 0, "weights": 0}),
    ("check_duality", "duality", {"project": 1, "inputs": 20, "gram_matrix": 1, "weights": 2}),
])
def test_one_projection_per_input_and_one_gram_per_order(monkeypatch, check, scenario,
                                                         expected):
    # C6 projects conj(z), then each grid's three conjugate powers as one family,
    # then the seeded family: 17 inputs in 4 calls (17 calls of one input each
    # before).  C8 projects its 20 samples once, as one family, on the doubled
    # basis (40 inputs when it projected again on each basis), and builds the
    # weighted Gram matrices of both orders, for both bases, in one call holding
    # 2 weights (one call per order, 2, before that; one per order and basis, 4,
    # before that)
    calls = {"project": 0, "inputs": 0, "gram_matrix": 0, "weights": 0}
    for mod, name in ((scenarios, "project"), (norms, "project"), (norms, "gram_matrix")):
        def counted(*args, _name=name, _real=getattr(mod, name), **kwargs):
            calls[_name] += 1
            if _name == "project":
                calls["inputs"] += len(args[0]) if isinstance(args[0], list) else 1
            else:
                weight = kwargs["weight"]
                calls["weights"] += len(weight) if isinstance(weight, list) else 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    getattr(scenarios, check)(ScenarioConfig.from_dict(
        {"scenario": scenario, "n_r": 16, "n_theta": 32, "basis_size": 16}))
    assert calls == expected


def test_cli_list():
    out = run_cli("list")
    assert out.returncode == 0
    assert "ftc" in out.stdout


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("run", "ftc", "--config", str(bad))
    assert out.returncode == 2


def test_cli_runs_and_reports(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scenario": "conj-smoothing", "n_r": 16,
                                   "n_theta": 32, "basis_size": 16}))
    out = run_cli("run", "conj-smoothing", "--config", str(cfgfile),
                  "--out", str(tmp_path / "rep"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "rep" / "summary.txt").exists()
    assert (tmp_path / "rep" / "config_echo.json").exists()
    assert "C5" in (tmp_path / "rep" / "summary.txt").read_text()


def test_cli_scenario_mismatch(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scenario": "duality"}))
    out = run_cli("run", "ftc", "--config", str(cfgfile))
    assert out.returncode == 2


@pytest.mark.parametrize("field", [{"rho": 1.5}, {"rho": 0.0}, {"q_panels": 0},
                                   {"m_steps": 0}, {"n_r": True}, {"seed": 1.5},
                                   {"domain_kind": "cube"}, {"k1": 1}, {"seed": -1},
                                   {"output_dir": 5}, {"delta": "x"}, {"rho": "0.5"},
                                   {"delta": 0.5}, {"output_dir": ""},
                                   {"domain_kind": "ball2"}])
def test_cli_out_of_range_config(tmp_path, field):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scenario": "ftc", **field}))
    out_args = () if "output_dir" in field else ("--out", str(tmp_path / "rep"))
    out = run_cli("run", "ftc", "--config", str(cfgfile), *out_args)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("scenario, basis_size", [("conj-smoothing", 1),
                                                 ("partial-smoothing", 4)])
def test_cli_basis_below_the_scenario_floor(tmp_path, scenario, basis_size):
    # conj-smoothing's annulus basis of size 1 holds no 1/z (it died with a
    # KeyError), and a partial-smoothing basis without the mode above the cubic
    # one passed C7's concentration row on no off-mode coefficient above it
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scenario": scenario, "basis_size": basis_size}))
    out = run_cli("run", scenario, "--config", str(cfgfile), "--out", str(tmp_path / "rep"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")
    assert not (tmp_path / "rep").exists()
    # the floor itself is a valid config
    ScenarioConfig.from_dict({"scenario": scenario, "basis_size": basis_size + 1})


def test_cli_unfactorable_duality_gram(tmp_path):
    # 4 angles alias the default basis's modes, so its distance-weighted Gram
    # matrix has no Cholesky factor: the config is refused before anything runs,
    # by duality's rule 2 * basis_size <= n_theta, not as a failed check
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n_theta": 4}))
    out = run_cli("run", "duality", "--config", str(cfgfile), "--out", str(tmp_path / "rep"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("n_theta", [30, 32, 40, 64, 128])
def test_duality_basis_doubles_within_the_angular_grid(n_theta):
    # C8 doubles the basis, and past n_theta angles the trapezoid rule aliases
    # the doubled basis's modes: duality takes basis_size up to n_theta / 2
    ScenarioConfig.from_dict({"scenario": "duality", "n_theta": n_theta,
                              "basis_size": n_theta // 2})
    with pytest.raises(ParameterError):
        ScenarioConfig.from_dict({"scenario": "duality", "n_theta": n_theta,
                                  "basis_size": n_theta // 2 + 1})
    # the other scenarios do not double their basis
    ScenarioConfig.from_dict({"scenario": "conj-smoothing", "n_theta": n_theta,
                              "basis_size": n_theta // 2 + 1})


def test_duality_rule_refuses_exactly_where_the_drift_fails():
    # built directly, past the rule's check: C8's drift reads exactly 1 at the
    # largest basis the rule takes and FAILs (4.79) one element above it
    drift = "duality constant drift under basis doubling"
    for basis_size, passed in ((32, True), (33, False)):
        checks, _ = scenarios.check_duality(ScenarioConfig("duality", basis_size=basis_size))
        assert {c.description: c.passed for c in checks}[drift] is passed


def test_cli_duality_exit_code_at_the_rule(tmp_path):
    # one element past the default (32, 64), which sits at the rule and exits 0
    # in test_surface.py::test_reach_is_pinned
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"basis_size": 33, "n_theta": 64}))
    out = run_cli("run", "duality", "--config", str(cfgfile), "--out", str(tmp_path / "rep"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("content", [b"[1]", b"null", b"\xff\xfe{}"])
def test_cli_unusable_config_file(tmp_path, content):
    # valid JSON that is not an object, and a file that is not UTF-8
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_bytes(content)
    out = run_cli("run", "ftc", "--config", str(cfgfile), "--out", str(tmp_path / "rep"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("config error:")


def _rejected(data, scenario):
    """Whether the CLI must refuse this config file for this scenario."""
    if not isinstance(data, dict):
        return True
    merged = {"scenario": scenario, **data}
    if merged["scenario"] != scenario:
        return True
    try:
        ScenarioConfig.from_dict(merged)
    except ParameterError:
        return True
    return False


# a known field and one of the default field values or domain kinds, which
# often make a valid config; then arbitrary JSON, which seldom does
CLI_CONFIGS = (
    st.dictionaries(st.sampled_from(FIELDS), st.sampled_from(
        tuple(dataclasses.asdict(ScenarioConfig("ftc")).values()) + ("annulus", "ball2")),
        max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), JSON_VALUES, max_size=5)
    | JSON_VALUES)


@settings(max_examples=200, deadline=None)
@given(CLI_CONFIGS, st.sampled_from(SCENARIOS))
def test_cli_exit_code_from_arbitrary_json(tmp_path_factory, data, scenario):
    # exit 2 exactly for a config the CLI must refuse, and no exception escapes;
    # a valid config reaches the (stubbed) runner, whose empty report passes
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_scenario",
                   lambda cfg: ran.append(cfg) or ReportBundle(cfg.scenario, {}, [], {}))
        mp.setattr(cli, "emit_report", lambda bundle, out: [])
        code = cli.main(["run", scenario, "--config", str(path)])
    assert code == (2 if _rejected(data, scenario) else 0)
    assert len(ran) == (code == 0)
