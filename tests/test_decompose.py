import numpy as np
import pytest

from bergsmooth.decompose import (
    cr_reduction,
    cutoff_times,
    decompose,
    matched_tangential,
    power_expansion,
    reproduction_residual,
    rotation_fd,
)
from bergsmooth.errors import ContractError, ParameterError
from bergsmooth.flow import CUTOFF_END, antideriv_chains, build_chart
from bergsmooth.functions import Holo1, Poly2, apply_field
from bergsmooth.geometry import VectorField
from bergsmooth.operators import apply_op, commutator, compose, field_op, kernel_op


@pytest.fixture(scope="module")
def chart(disk):
    return build_chart(disk)


@pytest.fixture(scope="module")
def band_points(chart):
    # points across the cutoff transition band and beyond
    t = np.array([0.05, 0.2, 0.3, 0.5, 0.7, 0.8, 0.95])
    r = np.exp(-chart.rate * t)
    return (r[:, None] * np.exp(1j * np.array([0.3, 2.1]))[None, :]).ravel()


H_SET = {
    "one": Holo1.constant(1.0),
    "z": Holo1.from_coeffs([0.0, 1.0]),
    "near_pole": Holo1.inverse_power(0.9, 1.0),
}


def test_matched_field_is_tangential_transversal(chart, disk):
    from bergsmooth.geometry import boundary_samples, transversality_measure
    t1 = matched_tangential(chart)
    p = boundary_samples(disk, 32)
    assert np.max(np.abs(t1.applied_to_defining(p).real)) < 1e-12
    assert transversality_measure(t1, disk) == pytest.approx(chart.rate, rel=1e-12)


def test_cr_identity_pointwise(chart, band_points):
    # transverse derivative of holomorphic data equals i times the matched
    # tangential derivative, checked by finite differences
    t1 = matched_tangential(chart)
    for h in H_SET.values():
        hv = lambda p: h(p)  # drop tracked structure to force the FD path
        lhs = apply_field(chart.field, hv, band_points)
        rhs = 1j * apply_field(t1, hv, band_points)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_cr_reduction_zero(chart, band_points):
    out = cr_reduction(Holo1.constant(0.0), chart)(band_points)
    assert np.all(out == 0)


def test_cr_reduction_matches_direct_fd(chart, band_points):
    h = Holo1.from_coeffs([0.0, 1.0])
    t1 = matched_tangential(chart)
    zh = cutoff_times(chart, h)
    direct = (apply_field(chart.field, lambda p: zh(p), band_points, h=1e-3)
              - 1j * apply_field(t1, lambda p: zh(p), band_points, h=1e-3))
    reduced = cr_reduction(h, chart)(band_points)
    assert np.max(np.abs(direct - reduced)) < 1e-6


def test_cr_reduction_supported_in_transition_band(chart):
    h = Holo1.from_coeffs([1.0, 0.5])
    t = np.array([0.01, 0.2, 0.24, 0.76, 0.9, 1.2])
    pts = np.exp(-chart.rate * t).astype(complex)
    vals = cr_reduction(h, chart)(pts)
    assert np.max(np.abs(vals)) < 1e-12
    inside = np.exp(-chart.rate * np.array([0.4, 0.5])).astype(complex)
    assert np.min(np.abs(cr_reduction(h, chart)(inside))) > 1e-3


def test_reproduction_residual_examples(chart):
    assert reproduction_residual([H_SET["one"]], [1], chart)[0, 1] <= 1e-6
    assert reproduction_residual([H_SET["z"]], [2], chart)[0, 2] <= 1e-5
    zero = Holo1.constant(0.0)
    assert reproduction_residual([zero], [3], chart)[0, 3] == 0.0


def test_reproduction_residual_refines_fourfold(chart):
    h = Holo1.from_coeffs([0.3, 1.0])
    coarse = reproduction_residual([h], (1, 2, 3), build_chart(chart.domain, 4, 6))
    fine = reproduction_residual([h], (1, 2, 3), build_chart(chart.domain, 8, 12))
    for k in (1, 2, 3):
        assert coarse[0, k] >= 4.0 * fine[0, k]


def test_reproduction_requires_supported_order(chart):
    with pytest.raises(ParameterError):
        reproduction_residual([H_SET["one"]], [4], chart)


def test_reproduction_requires_disk(annulus):
    with pytest.raises(ContractError):
        reproduction_residual([H_SET["one"]], [1], build_chart(annulus))


def test_power_expansion_order_one(chart):
    t1 = matched_tangential(chart)
    ops = power_expansion(1, chart, t1)
    assert set(ops) == {(1, 0), (1, 1)}
    assert ops[(1, 1)] == kernel_op()
    assert ops[(1, 0)] == commutator(kernel_op(), t1)


def _order_two_expressions(chart):
    """The twelve collar points of the identity (kernel o X)^2 = sum_m X^m o G[2, m],
    its left side and its three right-hand terms, with a generic field X = d/dx
    that does not commute with the kernel."""
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    ops = power_expansion(2, chart, x)
    r = np.exp(-chart.rate * np.linspace(0.05, 0.6, 4))
    pts = (r[:, None] * np.exp(1j * np.array([0.5, 2.7, 4.4]))[None, :]).ravel()
    ax = compose(kernel_op(), field_op(x))
    rhs = [compose(field_op(x, m), ops[(2, m)]) if m else ops[(2, m)] for m in (0, 1, 2)]
    return pts, compose(ax, ax), rhs


def _order_two_identity(chart, g):
    """Both sides of the order-2 identity applied to g at its twelve collar points."""
    pts, lhs_expr, rhs_terms = _order_two_expressions(chart)
    lhs = apply_op(lhs_expr, g, pts, chart)
    rhs = np.zeros_like(lhs)
    for term in rhs_terms:
        rhs = rhs + apply_op(term, g, pts, chart)
    return lhs, rhs


def test_power_expansion_operational_identity(chart, rng):
    # the identity applied to a collar function
    w = Poly2.random(rng, degree=2)
    lhs, rhs = _order_two_identity(chart, lambda p: chart.cutoff(p) * w(p))
    assert np.max(np.abs(lhs - rhs)) < 1e-4


def test_power_expansion_identity_point_evaluations(chart, rng):
    # derivatives through kernels are jets, so only g's own partials are finite
    # differences, and each kernel sweeps only the hit times where a stencil of
    # its leaf reaches the cutoff's support: the identity evaluates g at fewer
    # than 5 M points (4.1 M; 8.6 M when every kernel swept the whole collar,
    # and nested finite differences of trajectory integrals took 110.6 M)
    w = Poly2.random(rng, degree=2)
    evaluated = []

    def g(p):
        evaluated.append(np.size(p))
        return chart.cutoff(p) * w(p)
    _order_two_identity(chart, g)
    assert sum(evaluated) < 5_000_000


def test_decompose_residuals(chart):
    for name, h in H_SET.items():
        for k in (1, 2):
            res = decompose([h], [k], chart)[0, k]
            tol = 1e-5 if k == 1 else 1e-4
            assert res.residual <= tol, (name, k, res.residual)
            assert len(res.components) == k + 1
            assert all(np.isfinite(n) for n in res.component_norms)


def test_decompose_zero(chart):
    res = decompose([Holo1.constant(0.0)], [1], chart)[0, 1]
    assert res.residual == 0.0
    assert all(np.all(c == 0) for c in res.components)


def test_decompose_linearity(chart):
    h1 = Holo1.from_coeffs([1.0, 0.0, 0.3])
    h2 = Holo1.from_coeffs([0.0, 1.0])
    a, b = 2.0 - 1.0j, 0.5j
    combo = Holo1.from_coeffs([a * 1.0, b * 1.0, a * 0.3])
    r1, r2, rc = (decompose([h], [1], chart)[0, 1] for h in (h1, h2, combo))
    for c1, c2, cc in zip(r1.components, r2.components, rc.components):
        assert np.max(np.abs(a * c1 + b * c2 - cc)) < 1e-10


def test_corrections_vanish_past_cutoff_support(chart):
    # correction components are flow integrals of the transition-band defect:
    # they vanish wherever the backward trajectory misses that band
    h = Holo1.from_coeffs([0.5, 1.0])
    deep = np.exp(-chart.rate * np.array([0.8, 0.9, 0.99])).astype(complex)
    res = decompose([h], [2], chart, points=deep)[0, 2]
    assert np.max(np.abs(res.components[0])) < 1e-12
    assert np.max(np.abs(res.components[1])) < 1e-12


def test_component_norm_stability_under_refinement(chart, disk):
    from bergsmooth.geometry import quadrature_grid
    h = Holo1.inverse_power(0.9, 0.75)
    base = decompose([h], [1], chart, grid=quadrature_grid(disk, 24, 48))[0, 1]
    fine = decompose([h], [1], chart, grid=quadrature_grid(disk, 48, 96))[0, 1]
    for nb, nf in zip(base.component_norms, fine.component_norms):
        assert nf <= 1.5 * nb
        assert nb <= 1.5 * nf


_STEP = 2.5e-3


def reference_rotation_fd(fn, points, order):
    """The nested rotation stencil as a loop, one call of fn per rotated copy: the
    central 5-point first-derivative stencil applied order times."""
    if order == 0:
        return np.asarray(fn(points), dtype=complex)
    coeff = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * _STEP)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * _STEP
    out = np.zeros(np.shape(points), dtype=complex)
    for c, o in zip(coeff, offs):
        out = out + c * reference_rotation_fd(fn, points * np.exp(1j * o), order - 1)
    return out


def reference_compact_second(fn, points):
    """The compact 4th-order second-derivative stencil as a loop, one call of fn
    per copy, the centre copy being the points themselves."""
    coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * _STEP**2)
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * _STEP
    out = np.zeros(np.shape(points), dtype=complex)
    for c, o in zip(coeff, offs):
        copy = points if o == 0 else points * np.exp(1j * o)
        out = out + c * np.asarray(fn(copy), dtype=complex)
    return out


@pytest.mark.parametrize("order", [1, 2])
def test_stacked_rotation_fd_matches_nested_loop(chart, band_points, order):
    # one call of fn on the four rotated copies and the centre copy stacked; order
    # 1 is bit for bit the nested loop's first level, order 2 the loop of the
    # compact stencil.  A chain sums its panels with a matrix product, which may
    # round a point's sum differently by its column in the batch: here 3 of the 14
    # centre values, by about 2e-18, which the compact weights (-30 / (12 h^2))
    # carry to about 1e-12
    zh = cutoff_times(chart, Holo1.from_coeffs([0.5, 1.0, 0.25j]))
    chain = lambda p: antideriv_chains(chart, [(zh, 2)], p, support=CUTOFF_END)[0]
    for fn in (zh, chain):
        calls = []
        (stacked,) = rotation_fd(lambda p: calls.append(np.shape(p)) or fn(p), band_points,
                                 [order])
        assert calls == [(5,) + band_points.shape]
        if order == 1:
            assert np.array_equal(stacked, reference_rotation_fd(fn, band_points, 1))
        elif fn is zh:
            assert np.array_equal(stacked, reference_compact_second(fn, band_points))
        else:
            assert np.max(np.abs(stacked - reference_compact_second(fn, band_points))) <= 1e-10


def test_rotation_fd_takes_every_order_from_one_call(chart, band_points):
    # order 0 is the centre copy, bit for bit fn at the points themselves
    zh = cutoff_times(chart, Holo1.from_coeffs([0.5, 1.0, 0.25j]))
    calls = []
    values = rotation_fd(lambda p: calls.append(1) or zh(p), band_points, (0, 1, 2))
    assert len(calls) == 1 and len(values) == 3
    assert np.array_equal(values[0], zh(band_points))
    for order in (1, 2):
        assert np.array_equal(values[order], rotation_fd(zh, band_points, [order])[0])


@pytest.mark.parametrize("orders", [[3], [0, -1]])
def test_rotation_fd_rejects_an_order_outside_zero_to_two_first(band_points, orders):
    calls = []
    with pytest.raises(ParameterError):
        rotation_fd(lambda p: calls.append(1) or p, band_points, orders)
    assert calls == []


@pytest.mark.parametrize("a, p", [(0.9, 1.0), (0.9, 0.75), (0.99, 0.75), (0.999, 0.75)])
def test_compact_second_rotation_derivative_is_no_less_accurate(chart, band_points, a, p):
    # against the exact T^2 of cutoff * h near a pole, where truncation dominates:
    # about h^4/90 f^(6) for the compact stencil against h^4/15 f^(6) for the nested
    # one, a sixth (measured 6.0 on these inputs).  On smooth inputs both read
    # rounding, which the compact weights amplify more (64 against 18^2 / 12)
    zh = cutoff_times(chart, Holo1.inverse_power(a, p))
    exact = zh.rotation_applied().rotation_applied()(band_points)
    (compact,) = rotation_fd(zh, band_points, [2])
    nested = reference_rotation_fd(zh, band_points, 2)
    assert np.max(np.abs(compact - exact)) <= np.max(np.abs(nested - exact)) / 4


def _mixed_family():
    return [Holo1.constant(1.0), Holo1.from_coeffs([0.0, 1.0]), Holo1.inverse_power(0.9, 0.75)]


def test_decompose_family_matches_single_calls_bitwise(chart):
    hs = _mixed_family()
    family = decompose(hs, (1, 2), chart)
    assert sorted(family) == [(i, k) for i in range(3) for k in (1, 2)]
    for (i, k), res in family.items():
        alone = decompose([hs[i]], [k], chart)[0, k]
        assert np.array_equal(res.points, alone.points)
        assert len(res.components) == len(alone.components) == k + 1
        for c, c_alone in zip(res.components, alone.components):
            assert np.array_equal(c, c_alone)
        assert res.residual == alone.residual
        assert res.component_norms == alone.component_norms
        assert res.norm_ratios == alone.norm_ratios


def test_reproduction_family_matches_single_calls_bitwise(chart):
    hs = _mixed_family()
    family = reproduction_residual(hs, (1, 2, 3), chart)
    assert sorted(family) == [(i, k) for i in range(3) for k in (1, 2, 3)]
    for (i, k), residual in family.items():
        assert residual == reproduction_residual([hs[i]], [k], chart)[0, k]


def test_family_forms_check_every_order(chart):
    with pytest.raises(ParameterError):
        decompose(_mixed_family(), (1, 3), chart)
    with pytest.raises(ParameterError):
        reproduction_residual(_mixed_family(), (0, 1), chart)


@pytest.mark.parametrize("order", [1, 2])
def test_rotation_fd_trailing_axis_matches_separate_calls(chart, band_points, order):
    zh = cutoff_times(chart, Holo1.from_coeffs([0.5, 1.0, 0.25j]))
    cr = cr_reduction(Holo1.inverse_power(0.9, 0.75), chart)
    both = lambda p: np.stack(antideriv_chains(chart, [(zh, 2), (cr, 1)], p,
                                               support=CUTOFF_END), axis=-1)
    (stacked,) = rotation_fd(both, band_points, [order])
    assert stacked.shape == band_points.shape + (2,)
    for j, (w, depth) in enumerate([(zh, 2), (cr, 1)]):
        (alone,) = rotation_fd(lambda p: antideriv_chains(chart, [(w, depth)], p,
                                                          support=CUTOFF_END)[0],
                               band_points, [order])
        assert np.array_equal(stacked[..., j], alone)
