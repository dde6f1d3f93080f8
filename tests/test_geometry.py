import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergsmooth import geometry
from bergsmooth.errors import ContractError, DomainError, ParameterError
from bergsmooth.geometry import (
    boundary_distance,
    boundary_samples,
    canonical_fields,
    collar_rate,
    make_domain,
    quadrature_grid,
    transversality_measure,
    VectorField,
)
from bergsmooth.flow import build_chart, trajectories


def test_defining_function_disk_center(disk):
    assert disk.defining_function(0.0 + 0.0j) == pytest.approx(-1.0)


def test_defining_function_annulus_at_07(annulus):
    # direct evaluation of the chosen product form: (0.49-1)(0.49-0.25)
    assert annulus.defining_function(0.7 + 0.0j) == pytest.approx(-0.1224, abs=1e-12)


def test_defining_function_ball_boundary(ball2):
    assert ball2.defining_function(np.array([1.0 + 0j, 0.0 + 0j])) == pytest.approx(0.0)


def test_make_domain_validation():
    with pytest.raises(ParameterError):
        make_domain("annulus", rho=1.5)
    with pytest.raises(ParameterError):
        make_domain("annulus")
    with pytest.raises(ParameterError):
        make_domain("torus")


def test_boundary_distance_closed_forms(disk, annulus, ball2):
    assert boundary_distance(disk, 0.0 + 0.0j) == pytest.approx(1.0)
    assert boundary_distance(annulus, 0.6 + 0.0j) == pytest.approx(0.1)
    z = np.array([0.15 + 0.2j, 0.0 + 0.0j])
    assert boundary_distance(ball2, z) == pytest.approx(1.0 - 0.25)


def test_boundary_distance_rejects_exterior(disk):
    with pytest.raises(DomainError):
        boundary_distance(disk, 1.2 + 0.0j)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 0.99), st.floats(0, 2 * np.pi),
       st.floats(0, 0.99), st.floats(0, 2 * np.pi))
def test_boundary_distance_lipschitz(r1, t1, r2, t2):
    disk = make_domain("disk")
    z1 = r1 * np.exp(1j * t1)
    z2 = r2 * np.exp(1j * t2)
    d1 = boundary_distance(disk, z1)
    d2 = boundary_distance(disk, z2)
    assert abs(d1 - d2) <= abs(z1 - z2) + 1e-12


def test_quadrature_interior_and_volume(disk, annulus, ball2):
    for dom, n in ((disk, (16, 32)), (annulus, (16, 32)), (ball2, (8, 12))):
        g = quadrature_grid(dom, *n)
        assert np.all(g.weights > 0)
        assert np.all(dom.defining_function(g.nodes) < 0)
        assert np.sum(g.weights) == pytest.approx(dom.volume, rel=1e-10)


def test_quadrature_disk_moment(disk_grid):
    vals = np.abs(disk_grid.nodes) ** 2
    assert np.sum(disk_grid.weights * vals) == pytest.approx(np.pi / 2, abs=1e-12)


def test_quadrature_annulus_area(annulus_grid):
    assert np.sum(annulus_grid.weights) == pytest.approx(3 * np.pi / 4, rel=1e-12)


def test_quadrature_ball_moment(ball2_grid):
    # |z1|^2 integrates to pi^2 * 1! 0! / 3! = pi^2 / 6
    vals = np.abs(ball2_grid.nodes[:, 0]) ** 2
    assert np.sum(ball2_grid.weights * vals) == pytest.approx(np.pi**2 / 6, rel=1e-12)


def test_quadrature_geometric_convergence(disk):
    # through m = 6 the radial integrand has degree 13, exact from n_r = 7 on
    for m in range(1, 7):
        errs = []
        for n_r in (4, 8, 16):
            g = quadrature_grid(disk, n_r, 16)
            errs.append(abs(np.sum(g.weights * np.abs(g.nodes) ** (2 * m)) - np.pi / (m + 1)))
        assert errs[1] <= max(errs[0] / 2, 1e-13)
        assert errs[2] <= max(errs[1] / 2, 1e-13)


def test_quadrature_parameter_validation(disk):
    with pytest.raises(ParameterError):
        quadrature_grid(disk, 3, 64)


@pytest.mark.parametrize("n", [2, 4, 32, 64])
def test_gauss_rule_is_leggauss_built_once_and_read_only(n):
    x, w = geometry._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert not x.flags.writeable and not w.flags.writeable
    assert geometry._gauss_legendre(n) is geometry._gauss_legendre(n)


@pytest.mark.parametrize("kind, n", [("disk", (16, 32)), ("annulus", (16, 32)),
                                     ("ball2", (6, 8))])
def test_quadrature_grid_is_built_once_read_only_and_bitwise(kind, n):
    dom = make_domain(kind, rho=0.5 if kind == "annulus" else None)
    grid = quadrature_grid(dom, *n)
    # equal arguments, a domain made anew: the key is by value, not identity
    assert quadrature_grid(make_domain(kind, rho=dom.rho), *n) is grid
    for arr in (grid.nodes, grid.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    fresh = geometry._quadrature_grid.__wrapped__(dom, *n)
    assert fresh is not grid
    assert grid.nodes.tobytes() == fresh.nodes.tobytes()
    assert grid.weights.tobytes() == fresh.weights.tobytes()


def test_canonical_fields_disk_directions(disk):
    flds = canonical_fields(disk)
    z = 0.5 + 0.3j
    # rotation field coefficient is i z, transverse field is a positive multiple of z
    assert flds["T0"].z_coeffs(z) == pytest.approx(1j * z)
    ratio = flds["N"].z_coeffs(z) / z
    assert ratio.imag == pytest.approx(0.0, abs=1e-15)
    assert ratio.real > 0


def test_canonical_fields_tangency(disk, annulus, ball2):
    for dom in (disk, annulus, ball2):
        flds = canonical_fields(dom)
        p = boundary_samples(dom, 64)
        vals = flds["T0"].applied_to_defining(p)
        scale = np.max(np.abs(flds["T0"].z_coeffs(p))) + 1e-300
        assert np.max(np.abs(vals.real)) <= 1e-8 * scale


def test_rotation_field_on_ball(ball2):
    flds = canonical_fields(ball2)
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    np.testing.assert_allclose(flds["T0"].z_coeffs(z), 1j * z)


def test_transverse_field_outward(disk, annulus, ball2):
    for dom in (disk, annulus, ball2):
        flds = canonical_fields(dom)
        p = boundary_samples(dom, 32)
        assert np.all(flds["N"].applied_to_defining(p).real > 1e-6)


def test_collar_rescaling_flow_time(disk, annulus, ball2):
    # integrating the transverse field backward for time 2 from the boundary
    # lands on the collar edge
    targets = {"disk": [0.2], "ball2": [0.35],
               "annulus": None}
    for dom in (disk, annulus, ball2):
        p = boundary_samples(dom, 16)
        landed = trajectories(build_chart(dom), p, [-2.0], 256)[0]
        r = dom.radius(landed)
        if dom.kind == "annulus":
            a = 1 + dom.rho**2
            rv2 = a / 2 + 0.04 * (1 - a / 2)
            c = collar_rate(dom)
            E = np.exp(4 * a * c)
            rin = np.sqrt(a * E * dom.rho**2 / ((a - 2 * dom.rho**2) + 2 * dom.rho**2 * E))
            expect = np.where(np.abs(p) > 0.75, np.sqrt(rv2), rin)
        else:
            expect = np.full_like(r, targets[dom.kind][0])
        assert np.max(np.abs(r - expect)) < 1e-6


def test_transversality_measure_examples(disk, ball2):
    assert transversality_measure(canonical_fields(disk)["T0"], disk) == pytest.approx(1.0)
    t0 = canonical_fields(ball2)["T0"]
    doubled = VectorField(ball2, lambda p: 2 * t0.z_coeffs(p), tangential=True, real=True)
    assert transversality_measure(doubled, ball2) == pytest.approx(2.0)
    # tangential (1,0) field alone fails complex transversality
    y = VectorField(ball2,
                    lambda p: np.stack([np.conj(p[..., 1]), -np.conj(p[..., 0])], axis=-1),
                    zbar_coeffs=lambda p: np.zeros_like(p),
                    tangential=True)
    assert transversality_measure(y, ball2) == pytest.approx(0.0, abs=1e-14)


def test_transversality_requires_tangential(disk):
    with pytest.raises(ContractError):
        transversality_measure(canonical_fields(disk)["N"], disk)
