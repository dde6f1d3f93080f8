"""Mutation controls: each check, unchanged, run with one broken ingredient must
FAIL, which shows that its gate can fail.  The break is injected by monkeypatch
or by config, never by a changed threshold.  README lists the checks that have
a control and those that have none."""

import pytest

import bergsmooth.flow as flow_module
from bergsmooth.scenarios import ScenarioConfig, check_conj_annulus, check_ftc, check_reproduction


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


def test_conj_annulus_fails_on_a_coarse_grid():
    # at 8 x 16 the projections of conjugate powers are not yet exact: the
    # coefficients off 1/z and the grid-doubling drift both read far past their gates
    checks, _ = check_conj_annulus(ScenarioConfig("conj-smoothing", n_r=8, n_theta=16))
    verdicts = _verdicts(checks)
    assert not verdicts["projected conjugate coordinate: coefficients off 1/z"]
    assert not verdicts["projected conjugate-power norms drift under grid doubling"]
