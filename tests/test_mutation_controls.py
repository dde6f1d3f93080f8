"""Mutation controls: each check, unchanged, run with one broken ingredient must
FAIL, which shows that its gate can fail.  The break is injected by monkeypatch
or by config, never by a changed threshold.  README lists the checks that have
a control and those that have none."""

import pytest

import bergsmooth.bergman as bergman_module
import bergsmooth.flow as flow_module
import bergsmooth.scenarios as scenarios_module
from bergsmooth.flow import CollarChart
from bergsmooth.operators import Antideriv
from bergsmooth.scenarios import (ScenarioConfig, check_conj_annulus, check_conj_disk,
                                  check_decomposition, check_ftc, check_hardy,
                                  check_reproduction)


def _verdicts(checks):
    return {c.description: c.passed for c in checks}


@pytest.fixture()
def two_node_panels(monkeypatch):
    # 2-node Gauss panels: order 4 in place of the design's order 8
    monkeypatch.setattr(flow_module, "_GAUSS_PER_PANEL", 2)


def test_ftc_fails_with_two_node_panels(two_node_panels):
    checks, _ = check_ftc(ScenarioConfig("ftc"))
    assert not _verdicts(checks)["flow reproduction sup-defect, 10 seeded cutoff functions "
                                 "on disk and annulus"]


def test_reproduction_residuals_fail_with_two_node_panels(two_node_panels):
    # the residual drop row still passes here (a gate that cannot tell order 8
    # from order 2); it is not pinned either way
    checks, _ = check_reproduction(ScenarioConfig("decomposition"))
    verdicts = _verdicts(checks)
    for k in (1, 2, 3):
        assert not verdicts[f"reproduction residual at order {k}"]


def test_decomposition_residuals_fail_with_a_shifted_cutoff_rate(monkeypatch):
    # the rate half of the chart's pair of cutoff profiles taken at hit time + 0.1
    # (at the radius the flow reaches 0.1 later), out of step with the cutoff it
    # stands for: the components no longer sum to cutoff * h, and the residuals
    # read 0.90 and 1.04 against 1e-5 and 1e-4
    profiles = CollarChart.cutoff_profiles
    monkeypatch.setattr(CollarChart, "cutoff_profiles", lambda self, r: (
        profiles(self, r)[0], profiles(self, self.flow_radius(-0.1, r))[1]))
    checks, _ = check_decomposition(ScenarioConfig("decomposition"))
    verdicts = _verdicts(checks)
    for k in (1, 2):
        assert not verdicts[f"decomposition residual at order {k}"]


def test_conj_annulus_fails_on_a_coarse_grid():
    # at 8 x 16 the projections of conjugate powers are not yet exact: the
    # coefficients off 1/z and the grid-doubling drift both read far past their gates
    checks, _ = check_conj_annulus(ScenarioConfig("conj-smoothing", n_r=8, n_theta=16))
    verdicts = _verdicts(checks)
    assert not verdicts["projected conjugate coordinate: coefficients off 1/z"]
    assert not verdicts["projected conjugate-power norms drift under grid doubling"]


def test_hardy_fails_with_an_over_claimed_class(monkeypatch):
    # each majorant graded in the class of the kernel one weight up, which claims
    # a power of the hit time more than the majorant gains: the ratios outgrow
    # the Hardy bound
    monkeypatch.setattr(scenarios_module, "kernel_op", lambda mu=0: Antideriv(mu + 1))
    checks, _ = check_hardy(ScenarioConfig("hardy"))
    assert not _verdicts(checks)["majorant kernel ratio minus Hardy bound, mu in {0,1}, "
                                 "weights 0..8, 20 seeded functions"]


@pytest.mark.parametrize("check, power, description", [
    (check_conj_disk, 0, "projection of conjugates is the mean constant, 10 seeded polynomials"),
    (check_conj_annulus, -1, "projected conjugate coordinate: coefficient of 1/z"),
], ids=["C5", "C6"])
def test_conj_projection_fails_with_one_norm_off(monkeypatch, check, power, description):
    # the basis element of the given power normalised by a norm 1% off: the
    # projection's coefficient on it is off by about as much
    norm = bergman_module._planar_norm
    monkeypatch.setattr(bergman_module, "_planar_norm",
                        lambda domain, k: norm(domain, k) * (1.01 if k == power else 1.0))
    checks, _ = check(ScenarioConfig("conj-smoothing"))
    assert not _verdicts(checks)[description]
