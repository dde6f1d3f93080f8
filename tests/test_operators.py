import numpy as np
import pytest

from bergsmooth import finitediff, flow, operators
from bergsmooth.errors import ContractError, DegenerateInputError
from bergsmooth.flow import CUTOFF_END, antideriv_chains, build_chart, flow_moment_apply
from bergsmooth.functions import Holo1, Poly2, apply_field
from bergsmooth.geometry import VectorField
from bergsmooth.norms import collar_ratio_grid, hardy_line_case, weighted_ratio_sweep
from bergsmooth.operators import (
    apply_op,
    commutator,
    compose,
    field_op,
    iterated_commutator,
    kernel_op,
    op_sum,
)
from test_decompose import _order_two_expressions


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


@pytest.mark.parametrize("depth", [2, 3])
def test_kernel_chain_just_outside_the_disk_matches_antiderivative(chart, rng, depth):
    # a chain of kernels and antideriv_chains agree at the edge of the closed
    # disk: both refuse a point just outside, of negative hit time, and a point
    # on the boundary, of hit time 0, is swept by both to the same values
    g = masked(chart, Poly2.random(rng, degree=2))
    chain = compose(*[kernel_op()] * depth)
    outside = np.array([1.0005 + 0.0j, 0.9 * np.exp(1j)])
    assert chart.hit_time(outside)[0] < 0
    with pytest.raises(ContractError):
        apply_op(chain, g, outside, chart)
    with pytest.raises(ContractError):
        antideriv_chains(chart, [(g, depth)], outside)
    pts = np.array([1.0 + 0.0j, 0.9 * np.exp(1j)])
    assert chart.hit_time(pts)[0] == 0
    via_expr = apply_op(chain, g, pts, chart)
    direct = antideriv_chains(chart, [(g, depth)], pts, support=1.0)[0]
    assert np.all(direct != 0)
    np.testing.assert_allclose(via_expr, direct, atol=1e-13)


@pytest.mark.parametrize("t", [0.999, 0.9999])
def test_derivative_of_a_kernel_at_the_collars_edge_is_zero(chart, t):
    # the point is swept (hit time below 1), but every Gauss node of its first
    # panel has tau >= 1: the panel has no live pair and is skipped, where reading
    # R_s off its empty set of start points raised numpy's ValueError.  g does not
    # vanish there, so the zero is the quadrature's
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    g = lambda p: 1.0 + p * p
    pts = np.array([np.exp(-chart.rate * t + 0.3j)])
    for expr in (kernel_op(), compose(field_op(x), kernel_op())):
        assert np.array_equal(apply_op(expr, g, pts, chart), [0.0])
    assert np.array_equal(antideriv_chains(chart, [(g, 1)], pts)[0], [0.0])


def test_sum_linearity(chart, collar_pts, rng):
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    a = kernel_op()
    out = apply_op(op_sum((1.0, a), (-1.0, a)), g, collar_pts, chart)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_sum_does_not_depend_on_the_order_of_its_terms(chart, rng):
    # K is asked at order 0 by one term and at order 1 by the other; each request
    # is computed at the order asked, so which term comes first moves no bit (a
    # kernel's order-0 entry read off its order-1 jet differed in the last bit)
    r = np.exp(-chart.rate * np.linspace(0.05, 0.6, 4))
    pts = (r[:, None] * np.exp(1j * np.array([0.5, 2.7, 4.4]))[None, :]).ravel()
    g = masked(chart, Poly2.random(rng, degree=2))
    k = kernel_op()
    xk = compose(field_op(VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j),
                                      real=True, name="dx")), k)
    forward = apply_op(op_sum((1.0, k), (1.0, xk)), g, pts, chart)
    backward = apply_op(op_sum((1.0, xk), (1.0, k)), g, pts, chart)
    assert np.array_equal(forward, backward)


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
    # reach about 20 at these points.  The kernel of time weight s^mu is, on a
    # cutoff-masked g, (-1)^mu times the run of mu + 1 kernels (the depth-2
    # B-spline is -s on [-1, 0]): at mu = 1 the jets pass through a chain kernel
    g = masked(chart, Poly2.random(rng, degree=2))
    kernel = compose(*[kernel_op()] * (mu + 1))
    numerical = lambda p: apply_op(kernel, g, p, chart)
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
    jets = apply_op(compose(x, kernel), g, collar_pts, chart)
    reference = honest()
    assert np.max(np.abs(jets - reference)) <= 1e-6 * np.max(np.abs(reference))


@pytest.fixture(scope="module")
def annulus_chart(annulus):
    return build_chart(annulus)


def _annulus_collar_points(chart):
    t = np.linspace(0.02, 0.9, 6)
    r = np.concatenate([chart.flow_radius(-t, 1.0), chart.flow_radius(-t, chart.domain.rho)])
    return (r[:, None] * np.exp(1j * np.linspace(0, 2 * np.pi, 5, endpoint=False))).ravel()


@pytest.mark.parametrize("kind", ["disk"])
def test_field_op_equals_apply_field(chart, collar_pts, kind, rng):
    # both entry points take one pair of partials through one dispatch and form
    # a df/dz + b df/dzbar with one formula, for tracked and plain functions
    # alike (apply_op evaluates on the disk alone)
    dx = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                     name="dx")
    for g in (Poly2.random(rng, degree=3), Holo1.from_coeffs([0.3, 1.0, 0.5j, -0.2]),
              lambda p: np.exp(p) * np.conj(p)):
        for fld in (chart.field, dx):
            assert np.array_equal(apply_op(field_op(fld), g, collar_pts, chart),
                                  apply_field(fld, g, collar_pts))


@pytest.mark.parametrize("which", ["field", "commutator"])
def test_annulus_derivative_through_kernel_raises(annulus_chart, rng, monkeypatch, which):
    # the annulus flow is not linear, so no chain rule through its kernels: the
    # expression is refused before any trajectory is swept
    monkeypatch.setattr(flow, "trajectories", lambda *a, **k: pytest.fail("swept"))
    expr = {"field": compose(field_op(annulus_chart.field), kernel_op()),
            "commutator": commutator(kernel_op(), annulus_chart.field)}[which]
    g = masked(annulus_chart, Poly2.random(rng, degree=2))
    with pytest.raises(ContractError):
        apply_op(expr, g, _annulus_collar_points(annulus_chart), annulus_chart)


@pytest.mark.parametrize("kind", ["annulus", "ball2"])
def test_apply_op_refuses_every_chart_but_the_disk(request, monkeypatch, kind):
    # the chain rule through a kernel needs the linear flow of the disk, and no
    # check evaluates an expression elsewhere: any other chart is refused,
    # whatever the expression, before anything is swept or g evaluated
    chart = build_chart(request.getfixturevalue(kind))
    monkeypatch.setattr(operators, "_collar_quadrature", lambda *a, **k: pytest.fail("swept"))
    g = lambda p: pytest.fail("evaluated")
    pts = _annulus_collar_points(chart) if kind == "annulus" else np.full((4, 2), 0.6 + 0.1j)
    for expr in (kernel_op(), field_op(chart.field),
                 compose(kernel_op(), field_op(chart.field))):
        with pytest.raises(ContractError):
            apply_op(expr, g, pts, chart)


def test_kernel_of_field_evaluates(chart, collar_pts, rng):
    # no derivative to the left of the kernel: the field acts on g at the leaves
    g = masked(chart, Poly2.random(rng, degree=2))
    out = apply_op(compose(kernel_op(), field_op(chart.field)), g, collar_pts, chart)
    direct = antideriv_chains(chart, [(lambda p: apply_field(chart.field, g, p), 1)],
                              collar_pts)[0]
    np.testing.assert_allclose(out, direct, atol=1e-13)


BOUND_CASES = ["lhs", "rhs0", "rhs1", "rhs2", "dx.K", "K.N^2"]


@pytest.fixture(scope="module")
def bound_cases(chart, collar_pts):
    """(chart, expression, points) by name: the four expressions of the order-2
    identity, a derivative of a kernel, and the kernel of the transverse field's
    square, whose leaf jets of g are of order 2."""
    pts, lhs, rhs = _order_two_expressions(chart)
    dx = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                     name="dx")
    exprs = [lhs, *rhs, compose(field_op(dx), kernel_op())]
    cases = {name: (chart, e, pts) for name, e in zip(BOUND_CASES, exprs)}
    cases["K.N^2"] = (chart, compose(kernel_op(), field_op(chart.field, 2)), collar_pts)
    return cases


def _bounded(monkeypatch, case, g, bound=None):
    """apply_op of case on g, each kernel's support bound replaced by bound if one
    is given."""
    chart, expr, pts = case
    with monkeypatch.context() as patched:
        if bound is not None:
            patched.setattr(operators, "_support", lambda chart, n: bound)
        return apply_op(expr, g, pts, chart)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", BOUND_CASES)
def test_kernel_support_bound_moves_no_bit(monkeypatch, bound_cases, name, seed):
    # on a g that carries the cutoff, every pair a kernel drops past its support
    # bound has an integrand of exactly 0, so the values are the bits of kernels
    # that sweep the whole collar
    case = bound_cases[name]
    g = masked(case[0], Poly2.random(np.random.default_rng(seed), degree=3))
    assert np.array_equal(_bounded(monkeypatch, case, g), _bounded(monkeypatch, case, g, 1.0))


@pytest.mark.parametrize("name", BOUND_CASES)
def test_kernel_support_bound_controls(monkeypatch, bound_cases, name):
    # the bound drops pairs that are not zero, so the values move: past hit time
    # CUTOFF_END a g that lives up to the collar's edge, and, at the bare
    # CUTOFF_END, the pairs whose leaf stencils still reach the cutoff.  The
    # cutoff is flat at its end (below e^-55 where a first-order stencil
    # reaches), so d/dx of one kernel, whose values are of order 1, shows no bit
    # of the bare bound
    case = bound_cases[name]
    chart = case[0]
    w = Poly2.random(np.random.default_rng(1), degree=3)
    sharp = lambda p: np.where(chart.hit_time(p) < 1.0 - 1e-6, w(p), 0.0)
    assert not np.array_equal(_bounded(monkeypatch, case, sharp),
                              _bounded(monkeypatch, case, sharp, 1.0))
    if name != "dx.K":
        g = masked(chart, w)
        assert not np.array_equal(_bounded(monkeypatch, case, g, CUTOFF_END),
                                  _bounded(monkeypatch, case, g, 1.0))


@pytest.mark.parametrize("name", BOUND_CASES)
def test_leaf_evaluated_only_below_its_kernels_support_bound(monkeypatch, bound_cases,
                                                             name, rng):
    # the sibling of test_integrand_evaluated_only_inside_the_collar: every point
    # at which a leaf jet of g is taken lies below the support bound of the
    # kernels above it, the bound at the highest leaf order of the expression
    chart, expr, pts = bound_cases[name]
    g = masked(chart, Poly2.random(rng, degree=3))
    seen = []
    partial = operators._partial

    def recorded(f, beta, points, *rest):
        if f is g:
            seen.append(np.array(points))
        return partial(f, beta, points, *rest)
    monkeypatch.setattr(operators, "_partial", recorded)
    apply_op(expr, g, pts, chart)
    bound = operators._support(chart, operators._leaf_order((expr,), 0))
    assert CUTOFF_END < bound < 1.0
    assert np.max(chart.hit_time(np.concatenate(seen))) < bound + 1e-6


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


def test_commutator_is_its_written_difference(chart, collar_pts, rng):
    # the commutator is the plain difference of two compositions, equal by value
    # to the sum written out by hand (a class tag kept on it made the two
    # differ), so both are one jet request and evaluate to the same bits
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    written = op_sum((1.0, compose(kernel_op(), field_op(x))),
                     (-1.0, compose(field_op(x), kernel_op())))
    assert commutator(kernel_op(), x) == written
    assert iterated_commutator(kernel_op(), x, 2) == commutator(written, x)
    g = masked(chart, Poly2.random(rng, degree=2))
    assert np.array_equal(apply_op(commutator(kernel_op(), x), g, collar_pts, chart),
                          apply_op(written, g, collar_pts, chart))


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
            ratios = weighted_ratio_sweep(values, mu + 1, 0, g, range(9), ratio_grid)
            for ell, r in enumerate(ratios):
                assert r <= 2.0 / (2 * ell + 1) + 0.05


def test_hardy_majorant_mu1_uniform(chart, ratio_grid, rng):
    # the weight-1 majorant gains two powers of the hit time
    for _ in range(3):
        g = masked(chart, Poly2.random(rng, degree=2))
        values = flow_moment_apply(chart, [(1, g)], ratio_grid[0])[0]
        ratios = weighted_ratio_sweep(values, 2, 0, g, range(9), ratio_grid)
        assert max(ratios) <= 2.0


def test_weighted_ratio_degenerate(chart, ratio_grid):
    with pytest.raises(DegenerateInputError):
        zero = lambda p: np.zeros_like(p)
        values = flow_moment_apply(chart, [(0, zero)], ratio_grid[0])[0]
        weighted_ratio_sweep(values, 1, 0, zero, [0], ratio_grid)


def test_sclass_uniformity(chart, ratio_grid, rng):
    # ratio at l = 8 stays within 3x the ratio at l = 0 for each expression, graded
    # with its gain k in powers of the hit time and its derivative count nu
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    exprs = [
        (kernel_op(), 1, 0),
        (compose(kernel_op(), kernel_op()), 2, 0),
        (commutator(kernel_op(), x), 1, 1),
    ]
    for expr, k, nu in exprs:
        worst0 = 0.0
        worst8 = 0.0
        for _ in range(3):
            g = masked(chart, Poly2.random(rng, degree=2))
            values = apply_op(expr, g, ratio_grid[0], chart)
            r = weighted_ratio_sweep(values, k, nu, g, [0, 8], ratio_grid)
            worst0 = max(worst0, r[0])
            worst8 = max(worst8, r[1])
        assert worst8 <= 3.0 * worst0
