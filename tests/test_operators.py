import numpy as np
import pytest

from bergsmooth import finitediff, flow
from bergsmooth.errors import ContractError, DegenerateInputError
from bergsmooth.flow import antideriv_chains, build_chart, flow_moment_apply
from bergsmooth.functions import Holo1, Poly2, apply_field
from bergsmooth.geometry import VectorField
from bergsmooth.operators import (
    apply_op,
    collar_ratio_grid,
    commutator,
    compose,
    field_op,
    hardy_line_case,
    iterated_commutator,
    kernel_op,
    op_sum,
    weighted_ratio_sweep,
)


@pytest.fixture(scope="module")
def chart(disk):
    return build_chart(disk)


@pytest.fixture(scope="module")
def ratio_grid(chart):
    return collar_ratio_grid(chart, n_r=20, n_th=40)


@pytest.fixture(scope="module")
def collar_pts(chart):
    r = np.exp(-chart.rate * np.linspace(0.02, 0.9, 8))
    return (r[:, None] * np.exp(1j * np.linspace(0, 2 * np.pi, 6, endpoint=False))[None, :]).ravel()


def masked(chart, w):
    return lambda p: chart.cutoff(p) * w(p)


def test_plain_kernel_matches_antiderivative(chart, collar_pts, rng):
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    via_expr = apply_op(kernel_op(), g, collar_pts, chart)
    direct = antideriv_chains(chart, [(g, 1)], collar_pts)[0]
    np.testing.assert_allclose(via_expr, direct, atol=1e-13)


def test_kernel_weight_equivalence(chart, collar_pts, rng):
    # the depth-2 B-spline is -s on [-1, 0], and a cutoff-masked g vanishes on the
    # trajectory past s = -1, so the s-weighted kernel is minus the double antiderivative
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    a = apply_op(kernel_op(1), g, collar_pts, chart)
    b = -antideriv_chains(chart, [(g, 2)], collar_pts)[0]
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_sum_linearity(chart, collar_pts, rng):
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    a = kernel_op()
    out = apply_op(op_sum((1.0, a), (-1.0, a)), g, collar_pts, chart)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_ftc_through_expression(chart, collar_pts, rng):
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    out = apply_op(compose(kernel_op(), field_op(chart.field)), g, collar_pts, chart)
    np.testing.assert_allclose(out, g(collar_pts), atol=1e-6)


@pytest.mark.parametrize("mu", [0, 1])
@pytest.mark.parametrize("factor", ["dx", "N", "N^2"])
def test_jets_match_finite_differences_of_operator(chart, collar_pts, rng, factor, mu):
    # a derivative through a kernel is taken by the chain rule on jets; compare it
    # with finite differences, at the default step, of the numerical kernel
    # output.  The bound is relative: second derivatives of the steep cutoff
    # reach about 20 at these points
    g = masked(chart, Poly2.random(rng, degree=2))
    numerical = lambda p: apply_op(kernel_op(mu), g, p, chart)
    dx = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                     name="dx")
    x, honest = {
        "dx": (field_op(dx), lambda: finitediff.partial_callable(numerical, collar_pts, (1, 0))),
        "N": (field_op(chart.field), lambda: apply_field(chart.field, numerical, collar_pts)),
        # the outer N differentiates the inner one's coefficients: Leibniz's rule
        "N^2": (field_op(chart.field, 2),
                lambda: apply_field(chart.field,
                                    lambda p: apply_field(chart.field, numerical, p),
                                    collar_pts)),
    }[factor]
    jets = apply_op(compose(x, kernel_op(mu)), g, collar_pts, chart)
    reference = honest()
    assert np.max(np.abs(jets - reference)) <= 1e-6 * np.max(np.abs(reference))


@pytest.fixture(scope="module")
def annulus_chart(annulus):
    return build_chart(annulus)


def _annulus_collar_points(chart):
    t = np.linspace(0.02, 0.9, 6)
    r = np.concatenate([chart.flow_radius(-t, 1.0), chart.flow_radius(-t, chart.domain.rho)])
    return (r[:, None] * np.exp(1j * np.linspace(0, 2 * np.pi, 5, endpoint=False))).ravel()


@pytest.mark.parametrize("kind", ["disk", "annulus"])
def test_field_op_equals_apply_field(chart, annulus_chart, collar_pts, kind, rng):
    # both entry points take one pair of partials through one dispatch and form
    # a df/dz + b df/dzbar with one formula, for tracked and plain functions alike
    chart = {"disk": chart, "annulus": annulus_chart}[kind]
    pts = collar_pts if kind == "disk" else _annulus_collar_points(chart)
    dx = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                     name="dx")
    for g in (Poly2.random(rng, degree=3), Holo1.from_coeffs([0.3, 1.0, 0.5j, -0.2]),
              lambda p: np.exp(p) * np.conj(p)):
        for fld in (chart.field, dx):
            assert np.array_equal(apply_op(field_op(fld), g, pts, chart),
                                  apply_field(fld, g, pts))


@pytest.mark.parametrize("which", ["field", "commutator"])
def test_annulus_derivative_through_kernel_raises(annulus_chart, rng, monkeypatch, which):
    # the annulus flow is not linear, so no chain rule through its kernels: the
    # expression is refused before any trajectory is swept
    monkeypatch.setattr(flow, "trajectories", lambda *a, **k: pytest.fail("swept"))
    expr = {"field": compose(field_op(annulus_chart.field), kernel_op(1)),
            "commutator": commutator(kernel_op(), annulus_chart.field)}[which]
    g = masked(annulus_chart, Poly2.random(rng, degree=2))
    with pytest.raises(ContractError):
        apply_op(expr, g, _annulus_collar_points(annulus_chart), annulus_chart)


def test_annulus_kernel_of_field_evaluates(annulus_chart, rng):
    # no derivative to the left of the kernel: the field acts on g at the leaves
    g = masked(annulus_chart, Poly2.random(rng, degree=2))
    pts = _annulus_collar_points(annulus_chart)
    out = apply_op(compose(kernel_op(), field_op(annulus_chart.field)), g, pts, annulus_chart)
    direct = antideriv_chains(annulus_chart,
                              [(lambda p: apply_field(annulus_chart.field, g, p), 1)], pts)[0]
    np.testing.assert_allclose(out, direct, atol=1e-13)


def test_commutator_is_definition(chart, collar_pts, rng):
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    x = VectorField(chart.domain, lambda p: np.full_like(p, 0.5 + 0.0j), real=True,
                    name="dx/2")
    com = commutator(kernel_op(), x)
    lhs = apply_op(com, g, collar_pts, chart)
    rhs = (apply_op(compose(kernel_op(), field_op(x)), g, collar_pts, chart)
           - apply_op(compose(field_op(x), kernel_op()), g, collar_pts, chart))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_commutator_tag_field():
    # [A^1_{mu,0}, X] sits in A^1_{mu,0} + A^1_{mu+1,1}
    tag = commutator(kernel_op(2), None).tag
    assert set(tag.memberships) == {((2,), 0), ((3,), 1)}


def test_iterated_commutator_tag():
    tag = iterated_commutator(kernel_op(), None, 2).tag
    assert set(tag.memberships) <= {((j,), j) for j in range(3)}


def test_compose_tag_concatenates():
    tag = compose(kernel_op(1), kernel_op(0), field_op(None)).tag
    assert tag.memberships == (((1, 0), 1),)
    assert tag.s_gain == 3 and tag.s_deriv == 1


def test_hardy_line_case_values():
    lhs2, rhs2 = hardy_line_case()
    assert lhs2 == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert rhs2 == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_hardy_majorant_ratio_bound(chart, ratio_grid, rng):
    # ratio <= 2/(2l+1) + 0.05 for mu in {0, 1} across seeded collar functions
    for mu in (0, 1):
        for _ in range(5):
            g = masked(chart, Poly2.random(rng, degree=3))
            values = flow_moment_apply(chart, [(mu, g)], ratio_grid[0])[0]
            ratios = weighted_ratio_sweep(values, kernel_op(mu).tag, g, range(9), ratio_grid)
            for ell, r in enumerate(ratios):
                assert r <= 2.0 / (2 * ell + 1) + 0.05


def test_hardy_majorant_mu1_uniform(chart, ratio_grid, rng):
    tag = kernel_op(1).tag
    assert tag.s_gain == 2
    for _ in range(3):
        g = masked(chart, Poly2.random(rng, degree=2))
        values = flow_moment_apply(chart, [(1, g)], ratio_grid[0])[0]
        ratios = weighted_ratio_sweep(values, tag, g, range(9), ratio_grid)
        assert max(ratios) <= 2.0


def test_weighted_ratio_degenerate(chart, ratio_grid):
    with pytest.raises(DegenerateInputError):
        zero = lambda p: np.zeros_like(p)
        values = flow_moment_apply(chart, [(0, zero)], ratio_grid[0])[0]
        weighted_ratio_sweep(values, kernel_op(0).tag, zero, [0], ratio_grid)


def test_sclass_uniformity(chart, ratio_grid, rng):
    # ratio at l = 8 stays within 3x the ratio at l = 0 for tagged expressions
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    exprs = [
        kernel_op(),
        kernel_op(1),
        compose(kernel_op(), kernel_op()),
        commutator(kernel_op(), x),
    ]
    for expr in exprs:
        worst0 = 0.0
        worst8 = 0.0
        for _ in range(3):
            g = masked(chart, Poly2.random(rng, degree=2))
            values = apply_op(expr, g, ratio_grid[0], chart)
            r = weighted_ratio_sweep(values, expr.tag, g, [0, 8], ratio_grid)
            worst0 = max(worst0, r[0])
            worst8 = max(worst8, r[1])
        assert worst8 <= 3.0 * worst0
