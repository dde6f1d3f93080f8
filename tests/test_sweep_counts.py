"""Regression guards on repeated work: each point set is swept once for every
integrand computed on it, each factor the integrands of a panel share is
evaluated once per panel (the derivatives of an input once while its
integrands follow one another), a hitting time steps each point once up to its
crossing, and projection evaluates no basis element.  One guard on memory: C4
holds no more at its peak than before the panels shared their factors."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import bergsmooth.flow as flow_module
from bergsmooth.bergman import PlanarMonomial
from bergsmooth.decompose import cr_reduction, cutoff_times, decompose, reproduction_residual
from bergsmooth.flow import CollarChart, antideriv_chains, build_chart
from bergsmooth.functions import Holo1, _ThetaDerivative
from bergsmooth.scenarios import (ScenarioConfig, check_conj_disk, check_decomposition,
                                  check_ftc, check_hardy, check_reproduction)


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
    reproduction_residual([Holo1.inverse_power(0.9, 1.0)], [k], chart)
    assert len(sweeps) == 1


def test_decompose_sweeps_each_point_set_once(sweeps, chart):
    # the evaluation points with their four rotated copies, then the norm grid
    decompose([Holo1.inverse_power(0.9, 0.75)], [2], chart)
    assert len(sweeps) == 2


def test_reproduction_check_sweeps_once_per_chart(sweeps):
    # every input and order of C3, and the drop study, in one sweep per chart
    check_reproduction(ScenarioConfig("decomposition"))
    assert len(sweeps) <= 2


def test_decomposition_check_sweeps_each_point_set_once(sweeps):
    # all inputs and both orders on the two point sets of decompose, then
    # one sweep per grid of the doubling study
    check_decomposition(ScenarioConfig("decomposition"))
    assert len(sweeps) <= 4


def test_shared_factors_run_once_per_panel(sweeps, chart, monkeypatch):
    # cutoff_times and cr_reduction of one h, each at depths 1 and 2, read |z|,
    # the chart's pair of cutoff profiles and h from the panel's table: h and the
    # pair run once per panel swept (h ran twice before, once for each product,
    # and each profile of the pair once with a hit time of its own)
    calls = Counter()
    profiles = CollarChart.cutoff_profiles
    monkeypatch.setattr(CollarChart, "cutoff_profiles", lambda self, r:
                        calls.update(["cutoff_profiles"]) or profiles(self, r))
    base = Holo1.from_coeffs([0.3, 1.0, 0.5j])
    h = Holo1(lambda j: lambda z: calls.update([("h", j)]) or base._deriv(j)(z))
    zh, cr = cutoff_times(chart, h), cr_reduction(h, chart)
    # hit times from just outside the domain into the collar: two panels swept
    pts = np.exp(-chart.rate * np.array([-0.01, 0.1, 0.4, 0.7]) + 1j * np.arange(4.0))
    antideriv_chains(chart, [(zh, 1), (cr, 1), (zh, 2), (cr, 2)], pts)
    assert len(sweeps) == 2
    assert calls == {"cutoff_profiles": 2, ("h", 0): 2}


# hit_time_radial points of one default-config call, while each seeded function
# computed the cutoff (C1: and its rate) at every panel position: 1,618,944 in C1
# and 3,331,584 in C2.  Now the pair of profiles is read from each panel's table,
# and C1's target cutoff is computed once per domain.
@pytest.mark.parametrize("check, scenario, points", [(check_ftc, "ftc", 84_288),
                                                     (check_hardy, "hardy", 130_464)],
                         ids=["C1", "C2"])
def test_seeded_cutoff_products_take_one_hit_time_per_panel_position(monkeypatch, check,
                                                                     scenario, points):
    seen = []
    radial = CollarChart.hit_time_radial
    monkeypatch.setattr(CollarChart, "hit_time_radial",
                        lambda self, r: seen.append(np.size(r)) or radial(self, r))
    check(ScenarioConfig(scenario))
    assert sum(seen) <= points


def test_reproduction_check_evaluates_each_derivative_once_per_panel(monkeypatch):
    # C3 lists its chains input by input, and a panel's table keeps the
    # derivatives of one input while its integrands follow one another: 25
    # derivatives of the inputs and 30 of rotated levels (chains interleaved
    # across the inputs would compute them again)
    calls = Counter()
    for cls in (Holo1, _ThetaDerivative):
        compute = cls.__dict__["_compute"]
        monkeypatch.setattr(cls, "_compute", lambda self, j, z, shared, cls=cls, compute=compute:
                            calls.update([cls]) or compute(self, j, z, shared))
    check_reproduction(ScenarioConfig("decomposition"))
    assert calls[Holo1] <= 25 and calls[_ThetaDerivative] <= 30


def test_decomposition_check_evaluates_each_pole_once_per_point_set(monkeypatch):
    # C4's four inverse-power inputs are each evaluated once per point set swept
    # (the evaluation points with their rotated copies, the norm grid), once for
    # the target and twice for the weighted norms, and the doubling study's input
    # once per grid: 4 * 5 + 2 = 22 evaluator calls, every one of derivative
    # order 0 (30 with the points and the two stencils swept apart, 44 when
    # cutoff * h and its transverse defect each evaluated h)
    calls = []
    make = Holo1.inverse_power

    def counted(a, p):
        factory = make(a, p)._deriv
        return Holo1(lambda j: lambda z: calls.append(j) or factory(j)(z))
    monkeypatch.setattr(Holo1, "inverse_power", staticmethod(counted))
    check_decomposition(ScenarioConfig("decomposition"))
    assert len(calls) <= 22 and set(calls) == {0}


# tracemalloc peak of one default-config check_decomposition before the panels
# shared their factors and reused one value buffer, with Python 3.11.7 and numpy
# 2.4.6: 175.3e6 bytes on the first call in a process, 174.6e6 on later ones
# (124.4e6 and 123.7e6 after)
PARENT_C4_PEAK_BYTES = 175.3e6


def test_decomposition_check_holds_no_more_memory_than_before():
    # a guard against retained values (a table kept past its panel, a buffer per
    # integrand), not against allocator layout: the benchmark's peak RSS is the gate
    tracemalloc.start()
    try:
        check_decomposition(ScenarioConfig("decomposition"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_C4_PEAK_BYTES


def test_hitting_time_marches_then_bisects_the_crossing_step(monkeypatch, chart):
    # one march of at most 2 m_steps steps and one bisection of the last step,
    # for the whole band together
    calls = []
    step = flow_module._rk4_step

    def counted(*args):
        calls.append(1)
        return step(*args)
    monkeypatch.setattr(flow_module, "_rk4_step", counted)
    t = np.linspace(0.05, 0.95, 16)
    flow_module.hitting_time(chart, np.exp(-chart.rate * t + 1j * np.arange(16.0)))
    assert 0 < len(calls) <= 2 * chart.m_steps + 40


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
