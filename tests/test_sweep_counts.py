"""Regression guards on repeated work: each point set is swept once for every
integrand computed on it, and projection evaluates no basis element."""

import pytest

import bergsmooth.flow as flow_module
from bergsmooth.bergman import PlanarMonomial
from bergsmooth.decompose import decompose, reproduction_residual
from bergsmooth.flow import build_chart
from bergsmooth.functions import Holo1
from bergsmooth.scenarios import ScenarioConfig, check_conj_disk, check_ftc, check_hardy


@pytest.fixture()
def sweeps(monkeypatch):
    calls = []
    trajectories = flow_module.trajectories

    def counted(*args, **kwargs):
        calls.append(1)
        return trajectories(*args, **kwargs)
    monkeypatch.setattr(flow_module, "trajectories", counted)
    return calls


@pytest.fixture(scope="module")
def chart(disk):
    return build_chart(disk)


def test_ftc_sweeps_once_per_domain(sweeps):
    check_ftc(ScenarioConfig("ftc"))
    assert len(sweeps) == 2


def test_hardy_sweeps_its_grid_once(sweeps):
    # the majorants of all 40 seeded functions, at both weights, from one sweep
    check_hardy(ScenarioConfig("hardy"))
    assert len(sweeps) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reproduction_residual_sweeps_once(sweeps, chart, k):
    reproduction_residual(Holo1.inverse_power(0.9, 1.0), k, chart)
    assert len(sweeps) == 1


def test_decompose_sweeps_each_point_set_once(sweeps, chart):
    # the evaluation points, the two stacked rotation stencils, the norm grid
    decompose(Holo1.inverse_power(0.9, 0.75), 2, chart)
    assert len(sweeps) <= 4


def test_conj_disk_evaluates_no_basis_element(monkeypatch):
    # C5's ten projections take their moments from running powers of conj(z)
    calls = []
    evaluate = PlanarMonomial.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)
    monkeypatch.setattr(PlanarMonomial, "eval", counted)
    check_conj_disk(ScenarioConfig("conj-smoothing"))
    assert len(calls) == 0
