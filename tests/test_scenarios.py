import dataclasses
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergsmooth
from bergsmooth.errors import ParameterError
from bergsmooth.scenarios import (
    SCENARIOS,
    ReportBundle,
    ScenarioConfig,
    emit_report,
    run_scenario,
)

FIELDS = tuple(ScenarioConfig.__dataclass_fields__)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)


def test_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "duality", "seed": 7, "n_r": 16,
                                "n_theta": 32, "basis_size": 16}))
    cfg = ScenarioConfig.from_json(str(path))
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


def test_duality_scenario_table_schema(tmp_path):
    cfg = ScenarioConfig.from_dict({"scenario": "duality", "n_r": 16, "n_theta": 32,
                                    "basis_size": 16})
    bundle = run_scenario(cfg)
    header, rows = bundle.tables["duality"]
    assert header == ["order", "sample", "duality_sup", "sobolev_norm", "ratio"]
    assert len(rows) == 40
    assert bundle.all_passed


def test_scenario_deterministic(tmp_path):
    cfg = ScenarioConfig.from_dict({"scenario": "hardy", "seed": 11,
                                    "q_panels": 8, "m_steps": 16})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    emit_report(run_scenario(cfg), str(out1))
    emit_report(run_scenario(cfg), str(out2))
    for name in ("hardy_ratios.csv", "summary.txt"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


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
                                   {"delta": 0.5}, {"output_dir": ""}])
def test_cli_out_of_range_config(tmp_path, field):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scenario": "ftc", **field}))
    out_args = () if "output_dir" in field else ("--out", str(tmp_path / "rep"))
    out = run_cli("run", "ftc", "--config", str(cfgfile), *out_args)
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
