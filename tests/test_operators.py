import numpy as np
import pytest

from bergsmooth.errors import DegenerateInputError
from bergsmooth.flow import antideriv_chain, build_chart
from bergsmooth.functions import Poly2
from bergsmooth.geometry import VectorField
from bergsmooth.operators import (
    abs_moment_op,
    apply_op,
    collar_ratio_grid,
    commutator,
    compose,
    diff_op,
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
    direct = antideriv_chain(chart, g, collar_pts, depth=1)
    np.testing.assert_allclose(via_expr, direct, atol=1e-13)


def test_kernel_weight_equivalence(chart, collar_pts, rng):
    # gamma(s, x) = s with exponent 0 is the same kernel as exponent 1
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    a = apply_op(kernel_op(lambda s, x: s * np.ones_like(x), 0), g, collar_pts, chart)
    b = apply_op(kernel_op(None, 1), g, collar_pts, chart)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_diff_monomial_on_z(chart, collar_pts):
    vals = apply_op(diff_op((1, 0)), Poly2([[0, 1j], [1, 0]]), collar_pts, chart)
    np.testing.assert_allclose(vals, np.ones_like(vals), atol=1e-12)


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


def test_commutator_is_definition(chart, collar_pts, rng):
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    x = VectorField(chart.domain, lambda p: np.full_like(p, 0.5 + 0.0j), real=True,
                    name="dx/2")
    com = commutator(kernel_op(), field_op(x))
    lhs = apply_op(com, g, collar_pts, chart)
    rhs = (apply_op(compose(kernel_op(), field_op(x)), g, collar_pts, chart)
           - apply_op(compose(field_op(x), kernel_op()), g, collar_pts, chart))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_commutator_with_itself_vanishes(chart, collar_pts, rng):
    w = Poly2.random(rng, degree=2)
    g = masked(chart, w)
    out = apply_op(commutator(kernel_op(), kernel_op()), g, collar_pts, chart)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_commutator_tag_field():
    # [A^1_{mu,0}, X] sits in A^1_{mu,0} + A^1_{mu+1,1}
    tag = commutator(kernel_op(None, 2), field_op(None)).tag
    assert set(tag.memberships) == {((2,), 0), ((3,), 1)}


def test_commutator_tag_diff_one():
    # a first-order monomial tags like a first-order field
    tag = commutator(kernel_op(None, 1), diff_op((1, 0))).tag
    assert tag.memberships == (((1,), 0), ((2,), 1))


def test_commutator_tag_diff_two():
    # second-order monomial: A^1_{0,1} + A^1_{1,2}
    tag = commutator(kernel_op(), diff_op((1, 1))).tag
    assert set(tag.memberships) == {((0,), 1), ((1,), 2)}
    assert tag.s_gain == 1 and tag.s_deriv == 2


def test_iterated_commutator_tag():
    tag = iterated_commutator(kernel_op(), None, 2).tag
    assert set(tag.memberships) <= {((j,), j) for j in range(3)}


def test_compose_tag_concatenates():
    tag = compose(kernel_op(None, 1), kernel_op(None, 0), diff_op((0, 1))).tag
    assert tag.memberships == (((1, 0), 1),)
    assert tag.s_gain == 3 and tag.s_deriv == 1


def test_hardy_line_case_values():
    lhs2, rhs2 = hardy_line_case()
    assert lhs2 == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert rhs2 == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_hardy_majorant_ratio_bound(chart, ratio_grid, rng):
    # ratio <= 2/(2l+1) + 0.05 for mu in {0, 1} across seeded collar functions
    for mu in (0, 1):
        expr = abs_moment_op(mu)
        for _ in range(5):
            g = masked(chart, Poly2.random(rng, degree=3))
            ratios = weighted_ratio_sweep(expr, g, range(9), chart, ratio_grid)
            for ell, r in enumerate(ratios):
                assert r <= 2.0 / (2 * ell + 1) + 0.05


def test_hardy_majorant_mu1_uniform(chart, ratio_grid, rng):
    expr = abs_moment_op(1)
    assert expr.tag.s_gain == 2
    for _ in range(3):
        g = masked(chart, Poly2.random(rng, degree=2))
        ratios = weighted_ratio_sweep(expr, g, range(9), chart, ratio_grid)
        assert max(ratios) <= 2.0


def test_weighted_ratio_degenerate(chart, ratio_grid):
    with pytest.raises(DegenerateInputError):
        weighted_ratio_sweep(abs_moment_op(0), lambda p: np.zeros_like(p), [0], chart,
                             ratio_grid)


def test_sclass_uniformity(chart, ratio_grid, rng):
    # ratio at l = 8 stays within 3x the ratio at l = 0 for tagged expressions
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    exprs = [
        kernel_op(),
        kernel_op(None, 1),
        compose(kernel_op(), kernel_op()),
        commutator(kernel_op(), field_op(x)),
        commutator(kernel_op(), diff_op((2, 0))),
    ]
    for expr in exprs:
        worst0 = 0.0
        worst8 = 0.0
        for _ in range(3):
            g = masked(chart, Poly2.random(rng, degree=2))
            r = weighted_ratio_sweep(expr, g, [0, 8], chart, ratio_grid)
            worst0 = max(worst0, r[0])
            worst8 = max(worst8, r[1])
        assert worst8 <= 3.0 * worst0
