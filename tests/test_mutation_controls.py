"""Mutation controls: each check, unchanged, run with one broken ingredient must
FAIL, which shows that its gate can fail.  The break is injected by monkeypatch
or by config, never by a changed threshold.  README lists the checks that have
a control and those that have none."""

import dataclasses
import math

import numpy as np
import pytest

import bergsmooth.bergman as bergman_module
import bergsmooth.decompose as decompose_module
import bergsmooth.flow as flow_module
import bergsmooth.scenarios as scenarios_module
from bergsmooth.bergman import CoefficientVector
from bergsmooth.flow import CollarChart
from bergsmooth.functions import Holo1, Poly2Family
from bergsmooth.scenarios import (ScenarioConfig, check_conj_annulus, check_conj_disk,
                                  check_decomposition, check_duality, check_ftc,
                                  check_hardy, check_partial_smoothing, check_reproduction)


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


def test_ftc_fails_with_a_wrong_falling_factor_in_the_family_y_partials(monkeypatch):
    # the d/dy matrix of C1's seeded family brings j + 1 down from y^j in place of
    # j: the field applied to each polynomial is off, so the transverse derivative
    # no longer integrates back to cutoff * w, and the sup-defect reads 0.43
    # against 1e-6
    matrix = Poly2Family._matrix

    def wrong(self, beta):
        m = matrix(self, beta)
        if beta != (0, 1):
            return m
        # the column of x^i y^j' holds the coefficients of x^i y^(j' + 1)
        j = np.arange(m.shape[1]) % self.coeffs.shape[2] + 1
        return m * ((j + 1) / j)
    monkeypatch.setattr(Poly2Family, "_matrix", wrong)
    checks, _ = check_ftc(ScenarioConfig("ftc"))
    assert not _verdicts(checks)["flow reproduction sup-defect, 10 seeded cutoff functions "
                                 "on disk and annulus"]


def _multipliers_one_step_short(chart, radii, s_values):
    """The sweeps' multiplier table by their step rule, each gap one step short of
    its ceil(gap * m_steps): at the default chart every gap takes one step, so the
    positions never leave their start points."""
    s = np.asarray(s_values, dtype=float)
    order = np.argsort(-s)
    out, r = np.empty((len(s),) + np.shape(radii)), radii
    for idx, span in zip(order.tolist(), np.diff(s[order], prepend=0.0).tolist()):
        if span != 0.0:
            n = max(1, math.ceil(abs(span) * chart.m_steps))
            for _ in range(n - 1):
                r = flow_module._rk4_step(chart.field, r, span / n)
        out[idx] = r
    return out / radii


def test_residuals_fail_with_multipliers_one_step_short(monkeypatch):
    # the disk's sweeps scale their points by the multiplier table: short of a step
    # per gap, the flow integrals lose their flow, and C3's residuals read 42, 280
    # and 1.6e3, C4's 42 and 280
    monkeypatch.setattr(flow_module, "_radius_scales", _multipliers_one_step_short)
    verdicts = _verdicts(check_reproduction(ScenarioConfig("decomposition"))[0])
    for k in (1, 2, 3):
        assert not verdicts[f"reproduction residual at order {k}"]
    verdicts = _verdicts(check_decomposition(ScenarioConfig("decomposition"))[0])
    for k in (1, 2):
        assert not verdicts[f"decomposition residual at order {k}"]


def test_ftc_fails_with_the_annulus_scaled_at_the_neighbouring_radius(monkeypatch):
    # each annulus point flowed by lambda_s of the next smaller radius of its sweep
    # (the smallest by its own): C1's sup-defect reads 0.78 against 1e-6.  The
    # disk's table has the one radius 1, which the shift leaves in place
    scales = flow_module._radius_scales
    monkeypatch.setattr(flow_module, "_radius_scales", lambda chart, radii, s: scales(
        chart, radii, s)[:, np.maximum(np.arange(len(radii)) - 1, 0)])
    checks, _ = check_ftc(ScenarioConfig("ftc"))
    assert not _verdicts(checks)["flow reproduction sup-defect, 10 seeded cutoff functions "
                                 "on disk and annulus"]


def test_decomposition_envelope_fails_against_a_norm_of_positive_order(monkeypatch):
    # each component graded against ||h^(k)||, k derivatives of h, in place of the
    # order -k stand-in ||d^k h||: the poles near the boundary make the ratios
    # spread by 1.0e4 across the family, against an envelope of 10
    norm = decompose_module.weighted_negative_norm
    monkeypatch.setattr(decompose_module, "weighted_negative_norm",
                        lambda h, k, domain, grid=None:
                        norm(Holo1(lambda j: h._deriv(j + k)), 0, domain, grid))
    checks, _ = check_decomposition(ScenarioConfig("decomposition"))
    assert not _verdicts(checks)["component-to-weighted-norm ratio envelope over the "
                                 "singular family"]


def test_decomposition_doubling_fails_with_a_sweep_cut_short(monkeypatch):
    # the sweeps treat the collar as ending at hit time 1/2: the points from there
    # to the cutoff's end read 0, each component jumps at the cut, and its Sobolev
    # norms grow by 2.58 under grid doubling, against 1.5
    monkeypatch.setattr(flow_module, "_swept", lambda t: np.isfinite(t) & (t < 0.5))
    checks, _ = check_decomposition(ScenarioConfig("decomposition"))
    assert not _verdicts(checks)["component Sobolev norms under grid doubling"]


def test_reproduction_drop_fails_with_the_doubled_chart_at_the_base_resolution(monkeypatch):
    # every chart is built at the config's resolution, so the "doubled" chart is
    # the base chart again: the residuals do not fall, and the drop per
    # resolution doubling reads 1 against a floor of 4
    cfg = ScenarioConfig("decomposition")
    build = scenarios_module.build_chart
    monkeypatch.setattr(scenarios_module, "build_chart", lambda domain, q_panels, m_steps:
                        build(domain, cfg.q_panels, cfg.m_steps))
    checks, _ = check_reproduction(cfg)
    assert not _verdicts(checks)["residual drop per resolution doubling"]


@pytest.mark.parametrize("seed", [None, 0, 7])
def test_duality_drift_fails_with_the_doubled_basis_graded_one_order_up(monkeypatch, seed):
    # the sups of the inputs on the doubled basis taken over the ball of order
    # k1 + 1, a norm the base basis's inputs do not use, graded input by input
    # in the one call for both orders that holds both bases' inputs: the constant
    # moves by 2.83, 2.96 and 3.00 at the default seed, seed 0 and seed 7, against
    # a drift bound of 2
    cfg = ScenarioConfig("duality") if seed is None else ScenarioConfig("duality", seed=seed)
    sup = scenarios_module.duality_sup

    def graded(fs, orders, basis, grid):
        raised = [f.basis.size == 2 * cfg.basis_size for f in fs]
        assert any(raised) and not all(raised)
        assert orders == [1, 2]
        return [[up if r else base for base, up, r in zip(bases, ups, raised)]
                for bases, ups in zip(sup(fs, orders, basis, grid),
                                      sup(fs, [k + 1 for k in orders], basis, grid))]
    monkeypatch.setattr(scenarios_module, "duality_sup", graded)
    checks, _ = check_duality(cfg)
    assert not _verdicts(checks)["duality constant drift under basis doubling"]


def test_conj_annulus_fails_on_a_coarse_grid():
    # at 8 x 16 the projections of conjugate powers are not yet exact: the
    # coefficients off 1/z and the grid-doubling drift both read far past their gates
    checks, _ = check_conj_annulus(ScenarioConfig("conj-smoothing", n_r=8, n_theta=16))
    verdicts = _verdicts(checks)
    assert not verdicts["projected conjugate coordinate: coefficients off 1/z"]
    assert not verdicts["projected conjugate-power norms drift under grid doubling"]


def test_partial_smoothing_projection_rows_fail_on_a_coarse_grid():
    # at 8 x 16 the quadrature no longer separates the angular modes: the
    # projection's off-mode coefficients read 0.73 against 1e-9, and its
    # Sobolev-3 norm drifts 0.996 against 0.02 under grid doubling
    checks, _ = check_partial_smoothing(ScenarioConfig("partial-smoothing", n_r=8,
                                                       n_theta=16))
    verdicts = _verdicts(checks)
    assert not verdicts["projection concentrates on the cubic mode (off-mode coefficients)"]
    assert not verdicts["projection Sobolev-3 norm drift under grid doubling"]


def test_partial_smoothing_tangential_drift_fails_with_heavier_doubled_grid_weights(
        monkeypatch):
    # only the doubled grid's weights 5% heavy: its tangential norm of order 3
    # grows with the square root of the scale, so the drift under grid doubling
    # reads 0.0239 against 0.02 (0.000752 unbroken; 0.0141 at 3% heavy, which
    # still passes)
    cfg = ScenarioConfig("partial-smoothing")
    grid = scenarios_module.quadrature_grid

    def heavy(domain, n_r, n_theta):
        built = grid(domain, n_r, n_theta)
        if (n_r, n_theta) != (2 * cfg.n_r, 2 * cfg.n_theta):
            return built
        return dataclasses.replace(built, weights=1.05 * built.weights)
    monkeypatch.setattr(scenarios_module, "quadrature_grid", heavy)
    checks, _ = check_partial_smoothing(cfg)
    assert not _verdicts(checks)["tangential norm of order 3 drift under grid doubling"]


def test_hardy_fails_with_an_over_claimed_class(monkeypatch):
    # each majorant graded with a gain of one power of the hit time more than it
    # has: the ratios outgrow the Hardy bound
    sweep = scenarios_module.weighted_ratio_sweep
    monkeypatch.setattr(scenarios_module, "weighted_ratio_sweep",
                        lambda values, k, nu, *rest: sweep(values, k + 1, nu, *rest))
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


def _nan_coefficient_0(out):
    # one projection, or each member of a projected family
    if isinstance(out, list):
        return [_nan_coefficient_0(cv) for cv in out]
    coeffs = out.coeffs.copy()
    coeffs[0] = np.nan
    return CoefficientVector(out.basis, coeffs)


# (ingredient of scenarios, its output turned to NaN, the checks that read it and
# the rows that must then FAIL)
NAN_CASES = {
    "C1": ("antideriv_chains", lambda out: [np.full_like(v, np.nan) for v in out],
           [(check_ftc, "ftc")],
           ["flow reproduction sup-defect, 10 seeded cutoff functions on disk and annulus"]),
    "C2": ("flow_moment_apply", lambda out: [np.full_like(v, np.nan) for v in out],
           [(check_hardy, "hardy")],
           ["majorant kernel ratio minus Hardy bound, mu in {0,1}, weights 0..8, "
            "20 seeded functions"]),
    "C3": ("reproduction_residual", lambda out: {key: np.nan for key in out},
           [(check_reproduction, "decomposition")],
           [f"reproduction residual at order {k}" for k in (1, 2, 3)]
           + ["residual drop per resolution doubling"]),
    "C4": ("decompose", lambda out: {key: dataclasses.replace(res, residual=np.nan)
                                     for key, res in out.items()},
           [(check_decomposition, "decomposition")],
           [f"decomposition residual at order {k}" for k in (1, 2)]),
    "C5-C6": ("project", _nan_coefficient_0,
              [(check_conj_disk, "conj-smoothing"), (check_conj_annulus, "conj-smoothing")],
              ["projection of conjugates is the mean constant, 10 seeded polynomials",
               "projected conjugate-power norms drift under grid doubling"]),
    # C8's one call grades both bases' samples at both orders: each member turns NaN
    "C8": ("duality_sup", lambda out: [[np.nan for _ in sups] for sups in out],
           [(check_duality, "duality")],
           ["empirical duality constant (finite, single constant across the family)",
            "duality constant drift under basis doubling"]),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_a_nan_ingredient_fails_its_rows(monkeypatch, case):
    # a NaN carried into a row's samples makes its reading NaN, which fails any bound;
    # a running max(0.0, nan) would have read 0 and passed
    name, to_nan, checks, descriptions = NAN_CASES[case]
    ingredient = getattr(scenarios_module, name)
    monkeypatch.setattr(scenarios_module, name,
                        lambda *args, **kwargs: to_nan(ingredient(*args, **kwargs)))
    rows = {c.description: c for check, scenario in checks
            for c in check(ScenarioConfig(scenario))[0]}
    for description in descriptions:
        assert not rows[description].passed, description
        assert np.isnan(rows[description].measured), description
