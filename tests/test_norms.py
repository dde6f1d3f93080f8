import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergsmooth.bergman import CoefficientVector, build_basis, project
from bergsmooth.decompose import matched_tangential
from bergsmooth.flow import build_chart
from bergsmooth.functions import AngularFamily, Holo1
from bergsmooth.geometry import boundary_distance, canonical_fields, make_domain
from bergsmooth.norms import (
    directional_sobolev_norm,
    duality_sup,
    sobolev_norm,
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
    assert duality_sup(f, 0, disk_basis, disk_grid) == pytest.approx(
        float(np.linalg.norm(v.coeffs)), rel=1e-12)


def test_duality_sup_orthogonal_input(disk, disk_basis, disk_grid):
    assert duality_sup(lambda z: np.conj(z), 1, disk_basis, disk_grid) < 1e-9


def test_duality_sup_e0_weighted(disk, disk_basis, disk_grid):
    # 1x1 diagonal block: G_00 = 2 int (1-r)^2 r dr = 1/6, so the sup is sqrt 6
    e0 = lambda z: np.full_like(z, 1 / np.sqrt(np.pi))
    assert duality_sup(e0, 1, disk_basis, disk_grid) == pytest.approx(
        np.sqrt(6.0), rel=1e-10)


def test_duality_sup_invariance(disk, disk_basis, disk_grid, rng):
    f = Holo1.from_coeffs(rng.normal(size=6) + 1j * rng.normal(size=6))
    base = duality_sup(f, 1, disk_basis, disk_grid)
    perturbed = lambda z: f(z) + 0.7 * np.conj(z) ** 2
    assert duality_sup(perturbed, 1, disk_basis, disk_grid) == pytest.approx(
        base, abs=1e-9)


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
