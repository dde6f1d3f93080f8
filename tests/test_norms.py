import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergsmooth.bergman import CoefficientVector, build_basis, project, synthesize
from bergsmooth.errors import ContractError
from bergsmooth.decompose import matched_tangential
from bergsmooth.finitediff import diff_uniform, polar_cartesian_partials
from bergsmooth.flow import build_chart
from bergsmooth.functions import AngularFamily, Holo1, _on_grid, _partial
from bergsmooth.geometry import (PolarEvalGrid, boundary_distance, canonical_fields,
                                 make_domain, polar_eval_grid, quadrature_grid)
from bergsmooth.norms import (
    directional_sobolev_norm,
    duality_sup,
    sobolev_norm,
    sobolev_norms,
    sup_weighted_norm,
    weighted_negative_norm,
)


@pytest.fixture(scope="module")
def disk_basis(disk):
    return build_basis(disk, 32)


def test_sobolev_constant(disk):
    assert sobolev_norm(Holo1.constant(1.0), 0, disk) == pytest.approx(
        np.sqrt(np.pi), abs=1e-12)


def test_sobolev_z_order_one(disk):
    # d_x z = 1 and d_y z = i each contribute pi, on top of ||z||^2 = pi/2
    f = Holo1.from_coeffs([0.0, 1.0])
    assert sobolev_norm(f, 1, disk) == pytest.approx(
        np.sqrt(np.pi / 2 + 2 * np.pi), abs=1e-12)


def test_sobolev_z_squared(disk):
    # 2 pi * integral of r^5 dr = pi/3
    f = Holo1.from_coeffs([0.0, 0.0, 1.0])
    assert sobolev_norm(f, 0, disk) == pytest.approx(np.sqrt(np.pi / 3), abs=1e-12)


def test_sobolev_coefficient_vector_matches_tracked(disk, disk_basis, disk_grid):
    coeffs = np.zeros(32, dtype=complex)
    coeffs[1] = disk_basis.elements[1].norm  # plain z
    cv = CoefficientVector(disk_basis, coeffs)
    f = Holo1.from_coeffs([0.0, 1.0])
    for k in (0, 1, 2):
        assert sobolev_norm(cv, k, disk) == pytest.approx(
            sobolev_norm(f, k, disk), rel=1e-12)


def test_sobolev_fd_matches_analytic(disk):
    f = Holo1.from_coeffs([0.3, 0.5, 0.2j])
    exact = sobolev_norm(f, 2, disk)
    fd = sobolev_norm(lambda z: f(z), 2, disk)
    # the evaluation grid is inset, so the finite-difference value sits just below
    assert abs(fd - exact) / exact < 2e-2
    assert fd <= exact * (1 + 1e-6)


def _recursive_partial(samples, grid, beta):
    """D^beta on a polar grid by plain recursion, the ladder's reference: each
    partial differences its inner partial afresh, down to the samples."""
    bx, by = beta
    if bx == 0 and by == 0:
        return np.asarray(samples, dtype=complex)
    R, TH = grid.r[:, None], grid.theta[None, :]
    inner = _recursive_partial(samples, grid, (bx - 1, by) if bx else (0, by - 1))
    fr = diff_uniform(inner, grid.dr, axis=0)
    ft = diff_uniform(inner, grid.dtheta, axis=1, periodic=True)
    if bx:
        return np.cos(TH) * fr - np.sin(TH) / R * ft
    return np.sin(TH) * fr + np.cos(TH) / R * ft


def _single_sum(f, k, grid=None, eval_grid=None):
    """The order-k Sobolev norm as one sum over its terms, order by order: the
    analytic terms on grid, or the finite-difference ones on eval_grid."""
    total = 0.0
    if eval_grid is None:
        for j in range(k + 1):
            vals = (synthesize(f, grid.nodes, deriv=j) if isinstance(f, CoefficientVector)
                    else _partial(f, (j, 0), grid.nodes))
            total += (j + 1) * grid.norm(vals) ** 2
        return float(np.sqrt(total))
    samples = f if isinstance(f, np.ndarray) else np.asarray(f(eval_grid.nodes()), dtype=complex)
    for order in range(k + 1):
        for bx in range(order + 1):
            total += eval_grid.norm(_recursive_partial(samples, eval_grid, (bx, order - bx))) ** 2
    return float(np.sqrt(total))


def _rough(z):
    # its partials' norms are spread so that adding up each order's terms
    # before the running total moves the order-3 norm's last bit
    return np.abs(z) ** 3 * z


@pytest.mark.parametrize("case", ["disk-coefficients", "annulus-coefficients", "holo1",
                                  "fd-samples", "fd-callable"])
def test_sobolev_ladder_prefixes_are_the_single_sums_bitwise(case, disk, annulus, disk_grid,
                                                            annulus_grid):
    # entry j of the order-3 ladder is the order-j norm, and both are the single
    # term-by-term sum, to the last bit
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    grid = eval_grid = None
    if case.endswith("coefficients"):
        dom, grid = (disk, disk_grid) if case.startswith("disk") else (annulus, annulus_grid)
        f = CoefficientVector(build_basis(dom, 12), coeffs)
    elif case == "holo1":
        dom, grid = disk, disk_grid
        f = Holo1.from_coeffs(coeffs * 0.5 ** np.arange(12))
    else:
        dom = disk
        eval_grid = polar_eval_grid(disk, 24, 48)
        f = _rough(eval_grid.nodes()) if case == "fd-samples" else _rough
    ladder = sobolev_norms(f, 3, dom, grid=grid, eval_grid=eval_grid)
    assert len(ladder) == 4
    for j in range(4):
        assert ladder[j] == sobolev_norm(f, j, dom, grid=grid, eval_grid=eval_grid) \
            == _single_sum(f, j, grid=grid, eval_grid=eval_grid)


def test_polar_partials_are_the_recursive_partials_bitwise(disk):
    eval_grid = polar_eval_grid(disk, 16, 32)
    samples = _rough(eval_grid.nodes())
    levels = list(polar_cartesian_partials(samples, eval_grid, 3))
    assert [len(level) for level in levels] == [1, 2, 3, 4]
    for order, level in enumerate(levels):
        for bx, d in enumerate(level):
            assert np.array_equal(d, _recursive_partial(samples, eval_grid, (bx, order - bx)))


def test_sobolev_ball_ladder_sums_by_total_order(ball2, ball2_grid):
    # the ball's (m1, m2) terms are summed by total order, which may move the norm
    # at rounding level against the sum with m1 outermost
    rng = np.random.default_rng(4)
    basis = build_basis(ball2, 10)
    cv = CoefficientVector(basis, rng.normal(size=10) + 1j * rng.normal(size=10))
    ladder = sobolev_norms(cv, 2, ball2, grid=ball2_grid)
    for k in range(3):
        total = sum((m1 + 1) * (m2 + 1)
                    * ball2_grid.norm(synthesize(cv, ball2_grid.nodes, deriv=(m1, m2))) ** 2
                    for m1 in range(k + 1) for m2 in range(k + 1 - m1))
        assert ladder[k] == sobolev_norm(cv, k, ball2, grid=ball2_grid)
        assert ladder[k] == pytest.approx(np.sqrt(total), rel=1e-14)


def test_sobolev_ball_analytic(ball2, ball2_grid):
    basis = build_basis(ball2, 6)
    coeffs = np.zeros(6, dtype=complex)
    coeffs[0] = 1.0
    cv = CoefficientVector(basis, coeffs)
    assert sobolev_norm(cv, 1, ball2, grid=ball2_grid) == pytest.approx(1.0, rel=1e-10)


def test_directional_norm_is_l2_at_zero(disk, disk_grid):
    fields = canonical_fields(disk)
    fam = AngularFamily([(2, lambda r: r**2)])
    val = directional_sobolev_norm(fam, fields["T0"], 0, grid=disk_grid)
    # || r^2 e^{2 i theta} ||^2 = 2 pi / 6
    assert val == pytest.approx(np.sqrt(np.pi / 3), rel=1e-12)


def test_directional_norm_angular_factor(disk, disk_grid):
    # rotation derivatives multiply by (2i)^j: factor sqrt(1 + 4 + 16)
    fields = canonical_fields(disk)
    fam = AngularFamily([(2, lambda r: r**2)])
    base = directional_sobolev_norm(fam, fields["T0"], 0, grid=disk_grid)
    val = directional_sobolev_norm(fam, fields["T0"], 2, grid=disk_grid)
    assert val == pytest.approx(base * np.sqrt(21.0), rel=1e-12)


def test_directional_norm_radial_invariant(disk, disk_grid):
    fields = canonical_fields(disk)
    fam = AngularFamily([(0, lambda r: 1.0 - r**2)])
    for k in (1, 2, 3):
        assert directional_sobolev_norm(fam, fields["T0"], k, grid=disk_grid) == \
            pytest.approx(directional_sobolev_norm(fam, fields["T0"], 0, grid=disk_grid),
                          rel=1e-12)


@pytest.mark.parametrize("make_grid", [polar_eval_grid, quadrature_grid])
@pytest.mark.parametrize("kind", ["disk", "annulus"])
def test_an_angular_family_on_the_polar_axes_is_its_values_at_the_nodes(kind, make_grid,
                                                                         request):
    # each profile once per radius and each e^{i m theta} once per angle, against
    # the family evaluated node by node
    fam = AngularFamily([(-2, lambda r: np.abs(2.0 * r - 1.0) ** 0.3),
                         (3, lambda r: r**3 - 0.5 * r)])
    grid = make_grid(request.getfixturevalue(kind), 32, 64)
    nodes = grid.nodes() if isinstance(grid, PolarEvalGrid) else grid.nodes
    on_axes, at_nodes = _on_grid(fam, grid), fam(nodes)
    assert on_axes.shape == at_nodes.shape
    assert np.max(np.abs(on_axes - at_nodes)) <= 1e-13 * np.max(np.abs(at_nodes))


def test_directional_norm_fd_agrees(disk, disk_grid):
    # the matched tangential field is -rate times the rotation field: its norm
    # is not the rotation field's, whatever the field is named
    fam = AngularFamily([(1, lambda r: r), (3, lambda r: 0.2 * r**3)])
    for fld in (canonical_fields(disk)["T0"], matched_tangential(build_chart(disk))):
        exact = directional_sobolev_norm(fam, fld, 1, grid=disk_grid)
        fd = directional_sobolev_norm(lambda z: fam(z), fld, 1, grid=disk_grid)
        assert abs(fd - exact) / exact < 3e-2, fld.name


def test_weighted_negative_examples(disk, disk_grid):
    one = Holo1.constant(1.0)
    # 2 pi int (1-r)^2 r dr = pi/6
    assert weighted_negative_norm(one, 1, disk, disk_grid) == pytest.approx(
        np.sqrt(np.pi / 6), abs=1e-12)
    h = Holo1.from_coeffs([0.2, 1.0, 0.5])
    assert weighted_negative_norm(h, 0, disk, disk_grid) == pytest.approx(
        sobolev_norm(h, 0, disk), rel=1e-12)
    sing = Holo1.inverse_power(0.99, 0.75)
    assert weighted_negative_norm(sing, 2, disk, disk_grid) <= \
        weighted_negative_norm(sing, 0, disk, disk_grid)


def test_weighted_negative_monotone(disk, disk_grid, rng):
    for _ in range(5):
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        h = Holo1.from_coeffs(c)
        vals = [weighted_negative_norm(h, k, disk, disk_grid) for k in range(4)]
        assert all(vals[i + 1] <= vals[i] + 1e-14 for i in range(3))


def test_sup_weighted_examples(disk):
    assert sup_weighted_norm(Holo1.constant(1.0), 0, disk) == pytest.approx(1.0, abs=1e-12)
    assert sup_weighted_norm(Holo1.constant(0.0), 3, disk) == 0.0
    sing = Holo1.inverse_power(1.0, 0.75)
    coarse = sup_weighted_norm(sing, 0, disk, n_r=200, n_th=128)
    fine = sup_weighted_norm(sing, 0, disk, n_r=400, n_th=256)
    assert np.isfinite(coarse) and np.isfinite(fine)
    assert abs(fine - coarse) / coarse < 5e-2


def test_pointwise_product_bound(disk, disk_grid, rng):
    # |conj(f) g| d^{k+4n} <= (|f| d^{2n}) (|g| d^{k+2n}) at every node
    n = disk.complex_dimension
    d = boundary_distance(disk, disk_grid.nodes)
    for k in (0, 1, 2):
        f = Holo1.from_coeffs(rng.normal(size=7) + 1j * rng.normal(size=7))
        g = Holo1.from_coeffs(rng.normal(size=7) + 1j * rng.normal(size=7))
        fv, gv = f(disk_grid.nodes), g(disk_grid.nodes)
        w1 = d ** (2 * n)
        w2 = d ** (k + 2 * n)
        lhs = np.abs(np.conj(fv) * gv) * (w1 * w2)
        rhs = (np.abs(fv) * w1) * (np.abs(gv) * w2)
        assert np.all(lhs <= rhs * (1 + 1e-13))
    # and the sup-weighted norms inherit submultiplicativity
    f = Holo1.from_coeffs([1.0, 0.4j, 0.2])
    g = Holo1.inverse_power(0.9, 0.75)
    prod = lambda p: np.conj(f(p)) * g(p)
    assert sup_weighted_norm(prod, 1 + 2 * n, disk) <= \
        sup_weighted_norm(f, 0, disk) * sup_weighted_norm(g, 1, disk) * (1 + 1e-12)


def test_duality_sup_unweighted(disk, disk_basis, disk_grid, rng):
    f = Holo1.from_coeffs(rng.normal(size=5) + 1j * rng.normal(size=5))
    v = project(f, disk_basis, disk_grid)
    assert duality_sup([f], 0, disk_basis, disk_grid) == [pytest.approx(
        float(np.linalg.norm(v.coeffs)), rel=1e-12)]


def test_duality_sup_orthogonal_input(disk, disk_basis, disk_grid):
    assert duality_sup([lambda z: np.conj(z)], 1, disk_basis, disk_grid)[0] < 1e-9


def test_duality_sup_e0_weighted(disk, disk_basis, disk_grid):
    # 1x1 diagonal block: G_00 = 2 int (1-r)^2 r dr = 1/6, so the sup is sqrt 6
    e0 = lambda z: np.full_like(z, 1 / np.sqrt(np.pi))
    assert duality_sup([e0], 1, disk_basis, disk_grid) == [pytest.approx(
        np.sqrt(6.0), rel=1e-10)]


def test_duality_sup_invariance(disk, disk_basis, disk_grid, rng):
    f = Holo1.from_coeffs(rng.normal(size=6) + 1j * rng.normal(size=6))
    perturbed = lambda z: f(z) + 0.7 * np.conj(z) ** 2
    base, moved = duality_sup([f, perturbed], 1, disk_basis, disk_grid)
    assert moved == pytest.approx(base, abs=1e-9)


def _families(request, rng):
    """A seeded family of five coefficient vectors on a 32-element basis of each
    model domain, with its grid."""
    out = {}
    for kind in ("disk", "annulus", "ball2"):
        grid = request.getfixturevalue(f"{kind}_grid")
        basis = build_basis(grid.domain, 32)
        out[kind] = grid, [CoefficientVector(basis, rng.normal(size=32) + 1j * rng.normal(size=32))
                           for _ in range(5)]
    return out


@pytest.mark.parametrize("kind", ["disk", "annulus", "ball2"])
def test_sobolev_norms_of_a_family_are_its_members_norms(kind, request, rng):
    # one table of powers for every order and member gives each member's ladder
    # as a call of its own does, to rounding; and entry j of the family's ladders
    # is the family's order-j norm bit for bit
    grid, cvs = _families(request, rng)[kind]
    ladders = sobolev_norms(cvs, 3, grid.domain, grid=grid)
    assert len(ladders) == 5
    for cv, ladder in zip(cvs, ladders):
        alone = sobolev_norms(cv, 3, grid.domain, grid=grid)
        assert np.max(np.abs(np.subtract(ladder, alone)) / np.abs(alone)) <= 1e-13
    for j in range(4):
        assert [ladder[j] for ladder in ladders] == [
            ladder[j] for ladder in sobolev_norms(cvs, j, grid.domain, grid=grid)]


def test_sobolev_norms_family_takes_coefficient_vectors(disk):
    with pytest.raises(ContractError):
        sobolev_norms([Holo1.constant(1.0)], 1, disk)


def test_duality_sup_grades_a_leading_truncation_with_the_leading_factor(disk, disk_grid, rng):
    # inputs on the first 16 and 24 elements of a 32-element basis, graded in one
    # call with the leading blocks of its one factor, as separate calls on the
    # smaller bases grade them; projected inputs share the call
    big = build_basis(disk, 32)
    family = project([Holo1.from_coeffs(rng.normal(size=9) + 1j * rng.normal(size=9))
                      for _ in range(4)], big, disk_grid)
    f = lambda z: np.abs(z) ** 2 + np.conj(z) * z ** 3
    for k1 in (1, 2):
        cvs = {nb: [CoefficientVector(build_basis(disk, nb), cv.coeffs[:nb]) for cv in family]
               for nb in (16, 24)}
        together = duality_sup(cvs[16] + [f] + cvs[24], k1, big, disk_grid)
        apart = (duality_sup(cvs[16], k1, build_basis(disk, 16), disk_grid)
                 + duality_sup([f], k1, big, disk_grid)
                 + duality_sup(cvs[24], k1, build_basis(disk, 24), disk_grid))
        assert np.max(np.abs(np.subtract(together, apart)) / np.abs(apart)) <= 1e-12


def test_duality_sup_of_a_list_of_orders_grades_each_as_its_own_call(disk, disk_grid, rng):
    # one Gram pass for orders 0, 1 and 2 gives the sups one call per order gives
    big = build_basis(disk, 32)
    family = project([Holo1.from_coeffs(rng.normal(size=9) + 1j * rng.normal(size=9))
                      for _ in range(4)], big, disk_grid)
    fs = [CoefficientVector(build_basis(disk, 16), cv.coeffs[:16]) for cv in family] + family
    fs.append(lambda z: np.abs(z) ** 2 + np.conj(z) * z ** 3)
    sups = duality_sup(fs, [0, 1, 2], big, disk_grid)
    assert sups == [duality_sup(fs, k1, big, disk_grid) for k1 in (0, 1, 2)]


def test_duality_sup_refuses_a_basis_that_is_not_a_leading_part(disk, annulus, annulus_grid):
    # the annulus basis of 16 elements is the middle of the one of 32, z^-8..z^7
    # against z^-16..z^15, not its leading part
    small, big = build_basis(annulus, 16), build_basis(annulus, 32)
    assert small.elements == big.elements[8:24]
    with pytest.raises(ContractError):
        duality_sup([CoefficientVector(small, np.ones(16, dtype=complex))], 1, big,
                    annulus_grid)
    with pytest.raises(ContractError):
        duality_sup([CoefficientVector(build_basis(disk, 16), np.ones(16, dtype=complex))], 1,
                    build_basis(annulus, 16), annulus_grid)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10), st.floats(0, 2 * np.pi))
def test_norms_absolutely_homogeneous(mag, phase):
    disk = make_domain("disk")
    lam = mag * np.exp(1j * phase)
    f = Holo1.from_coeffs([0.5, 1.0, 0.25j])
    scaled = Holo1.from_coeffs(lam * np.array([0.5, 1.0, 0.25j]))
    for k in (0, 1, 2):
        assert sobolev_norm(scaled, k, disk) == pytest.approx(
            mag * sobolev_norm(f, k, disk), rel=1e-11)
    assert weighted_negative_norm(scaled, 1, disk) == pytest.approx(
        mag * weighted_negative_norm(f, 1, disk), rel=1e-11)
    assert sup_weighted_norm(scaled, 1, disk) == pytest.approx(
        mag * sup_weighted_norm(f, 1, disk), rel=1e-11)


def test_change_of_field_multiplier_bound(disk, disk_grid):
    # b = 2 + sin(theta): k-fold powers of (b T) stay below 3^k directional norms
    fields = canonical_fields(disk)
    t0 = fields["T0"]
    nodes = disk_grid.nodes
    th = np.angle(nodes)
    b = 2.0 + np.sin(th)
    for m in (1, 2, 3):
        fam = AngularFamily([(m, lambda r: r ** abs(m))])
        fv = fam(nodes)
        for k in (1, 2):
            if k == 1:
                vals = b * (1j * m) * fv
            else:
                vals = (1j * m) * b * np.cos(th) * fv + (1j * m) ** 2 * b**2 * fv
            lhs = disk_grid.norm(vals)
            rhs = 3.0**k * directional_sobolev_norm(fam, t0, k, grid=disk_grid)
            assert lhs <= rhs * (1 + 1e-12)
