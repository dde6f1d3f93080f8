import numpy as np
import pytest

from bergsmooth.bergman import (
    _power_sums,
    _powers,
    _variables,
    build_basis,
    gram_matrix,
    kernel_eval,
    project,
    synthesize,
)
from bergsmooth.errors import ContractError, ParameterError
from bergsmooth.geometry import quadrature_grid


@pytest.fixture(scope="module")
def disk_basis(disk):
    return build_basis(disk, 32)


@pytest.fixture(scope="module")
def annulus_basis(annulus):
    return build_basis(annulus, 32)


@pytest.fixture(scope="module")
def ball_basis(ball2):
    return build_basis(ball2, 66)  # total degree <= 10


def test_disk_unit_norm(disk_basis, disk_grid):
    e0 = disk_basis.elements[0]
    val = np.sum(disk_grid.weights * np.abs(e0.eval(disk_grid.nodes)) ** 2)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_disk_orthogonality(disk_basis, disk_grid):
    e1 = disk_basis.elements[1].eval(disk_grid.nodes)
    e3 = disk_basis.elements[3].eval(disk_grid.nodes)
    assert abs(np.sum(disk_grid.weights * e1 * np.conj(e3))) < 1e-10


def test_annulus_log_norm(annulus_basis, annulus_grid):
    # the z^-1 element: 2 pi integral of r^-1 over (1/2, 1) equals 2 pi ln 2
    elems = {e.power: e for e in annulus_basis.elements}
    assert elems[-1].norm**2 == pytest.approx(2 * np.pi * np.log(2), rel=1e-14)
    raw = annulus_grid.nodes ** (-1)
    quad = np.sum(annulus_grid.weights * np.abs(raw) ** 2)
    assert quad == pytest.approx(2 * np.pi * np.log(2), abs=1e-8)


def test_gram_identity(disk_basis, disk_grid, annulus_basis, annulus_grid,
                       ball_basis, ball2_grid):
    for basis, grid in ((disk_basis, disk_grid), (annulus_basis, annulus_grid),
                        (ball_basis, ball2_grid)):
        G = gram_matrix(basis, grid)
        assert np.max(np.abs(G - np.eye(basis.size))) < 1e-8


def test_project_constant(disk_basis, disk_grid):
    c = project(lambda z: np.ones_like(z), disk_basis, disk_grid)
    assert c.coeffs[0] == pytest.approx(np.sqrt(np.pi), abs=1e-10)
    assert np.max(np.abs(c.coeffs[1:])) < 1e-10


def test_project_antiholomorphic_is_zero(disk_basis, disk_grid):
    c = project(lambda z: np.conj(z), disk_basis, disk_grid)
    assert np.max(np.abs(c.coeffs)) < 1e-10


def test_project_abs_square(disk_basis, disk_grid):
    # (|z|^2, 1)/||1||^2 = (pi/2)/pi, so the projection is the constant 1/2
    c = project(lambda z: np.abs(z) ** 2, disk_basis, disk_grid)
    at = synthesize(c, np.array([0.5 + 0.0j, -0.2 + 0.1j]))
    assert np.allclose(at, 0.5, atol=1e-10)


def test_project_domain_mismatch(disk_basis, annulus_grid):
    with pytest.raises(ContractError):
        project(lambda z: z, disk_basis, annulus_grid)


def test_kernel_disk_origin(disk):
    # series oracle at the origin: sum (k+1)/pi 0^k = 1/pi
    assert kernel_eval(disk, 0j, 0j) == pytest.approx(1 / np.pi, rel=1e-14)


def test_kernel_reproducing(disk, disk_basis, disk_grid):
    z0 = 0.3 + 0.0j
    kv = kernel_eval(disk, disk_grid.nodes, z0)
    e2 = disk_basis.elements[2]
    # brute-force quadrature of K(., z0) against e_2 reproduces e_2(z0)
    val = np.sum(disk_grid.weights * e2.eval(disk_grid.nodes) * np.conj(kv))
    assert val == pytest.approx(e2.eval(np.array(z0)), abs=1e-8)


def test_kernel_ball_origin(ball2):
    z = np.zeros(2, dtype=complex)
    assert kernel_eval(ball2, z, z) == pytest.approx(2 / np.pi**2, rel=1e-14)


def test_kernel_near_singular_guard(disk):
    with pytest.raises(ParameterError):
        kernel_eval(disk, 0.999999999999999 + 0j, 0.999999999999999 + 0j)


def test_kernel_annulus_matches_quadrature(annulus, annulus_basis, annulus_grid):
    # reproducing check: quadrature of K(., w) against a basis element
    w = 0.7 + 0.1j
    kv = kernel_eval(annulus, annulus_grid.nodes, w, tol=1e-12)
    e = annulus_basis.elements[10]
    val = np.sum(annulus_grid.weights * e.eval(annulus_grid.nodes) * np.conj(kv))
    assert val == pytest.approx(e.eval(np.array(w)), abs=1e-7)


def test_synthesize_examples(disk_basis):
    from bergsmooth.bergman import CoefficientVector
    coeffs = np.zeros(32, dtype=complex)
    coeffs[0] = 1.0
    cv = CoefficientVector(disk_basis, coeffs)
    assert synthesize(cv, np.array(0j)) == pytest.approx(np.sqrt(1 / np.pi))
    zero = CoefficientVector(disk_basis, np.zeros(32, dtype=complex))
    assert np.all(synthesize(zero, np.array([0.1 + 0.2j, 0.5j])) == 0)


def test_idempotence(disk_basis, disk_grid, rng):
    f = lambda z: np.abs(z) ** 2 + 0.3 * np.conj(z) + z**2
    c1 = project(f, disk_basis, disk_grid)
    resampled = synthesize(c1, disk_grid.nodes)
    c2 = project(resampled, disk_basis, disk_grid)
    assert np.max(np.abs(c1.coeffs - c2.coeffs)) < 1e-9


def test_self_adjointness(disk_basis, disk_grid, rng):
    # (Bf, g) = (f, Bg) for random band-limited f, g
    def random_fn():
        cz = rng.normal(size=5) + 1j * rng.normal(size=5)
        czb = rng.normal(size=4) + 1j * rng.normal(size=4)
        return lambda z: (np.polynomial.polynomial.polyval(z, cz)
                          + np.polynomial.polynomial.polyval(np.conj(z), czb))
    for _ in range(5):
        f, g = random_fn(), random_fn()
        fv, gv = f(disk_grid.nodes), g(disk_grid.nodes)
        bf = synthesize(project(fv, disk_basis, disk_grid), disk_grid.nodes)
        bg = synthesize(project(gv, disk_basis, disk_grid), disk_grid.nodes)
        lhs = np.sum(disk_grid.weights * bf * np.conj(gv))
        rhs = np.sum(disk_grid.weights * fv * np.conj(bg))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_conjugate_holomorphic_orthogonality(disk_basis, disk_grid, rng):
    a = rng.normal(size=9) + 1j * rng.normal(size=9)
    f = lambda z: np.polynomial.polynomial.polyval(z, a)
    c = project(lambda z: np.conj(f(z)), disk_basis, disk_grid)
    assert c.coeffs[0] == pytest.approx(np.conj(a[0]) * np.sqrt(np.pi), abs=1e-9)
    assert np.max(np.abs(c.coeffs[1:])) < 1e-9


def test_kernel_series_consistency(disk, rng):
    # truncated bilinear series converges monotonically to the closed form
    for _ in range(10):
        z = 0.7 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        w = 0.7 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        exact = kernel_eval(disk, z, w)
        errs = []
        for nb in (8, 16, 32):
            basis = build_basis(disk, nb)
            series = sum(e.eval(np.array(z)) * np.conj(e.eval(np.array(w)))
                         for e in basis.elements)
            errs.append(abs(series - exact))
        floor = 1e-14 * abs(exact)  # rounding floor once the tail is subnormal
        assert errs[1] <= max(errs[0], floor)
        assert errs[2] <= max(errs[1], floor)


# Oracles: the element-by-element formulas that project and synthesize replace.

def _project_by_elements(values, basis, grid):
    return np.array([np.sum(grid.weights * values * np.conj(e.eval(grid.nodes)))
                     for e in basis.elements])


def _synthesize_by_elements(cv, points, deriv):
    return np.tensordot(cv.coeffs, cv.basis.eval_matrix(points, deriv), axes=(0, 0))


def _rel_err(new, old):
    return np.max(np.abs(new - old)) / np.max(np.abs(old))


@pytest.mark.parametrize("case", ["disk", "annulus-even", "annulus-odd", "ball"])
def test_project_and_synthesize_match_element_formulas(case, request, rng):
    from bergsmooth.bergman import CoefficientVector
    kind = case.split("-")[0]
    grid = request.getfixturevalue({"ball": "ball2_grid"}.get(kind, f"{kind}_grid"))
    basis = build_basis(grid.domain, 31 if case == "annulus-odd" else 32)
    derivs = [(0, 0), (1, 0), (0, 2), (2, 1)] if kind == "ball" else [0, 1, 2, 3]
    values = rng.normal(size=grid.weights.shape) + 1j * rng.normal(size=grid.weights.shape)
    cv = project(values, basis, grid)
    assert _rel_err(cv.coeffs, _project_by_elements(values, basis, grid)) < 1e-12
    cv = CoefficientVector(basis, rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size))
    for deriv in derivs:
        old = _synthesize_by_elements(cv, grid.nodes, deriv)
        assert _rel_err(synthesize(cv, grid.nodes, deriv), old) < 1e-12, deriv


def _power_sums_rescanning(v, xs, exps):
    """The moments by running products with the exponent tuples scanned again for
    every leading power: the reference for the grouped _power_sums."""
    out = {}
    for p in range(max(e[0] for e in exps) + 1):
        if p:
            v = v * xs[0]
        rest = [e[1:] for e in exps if e[0] == p]
        if rest and len(xs) == 1:
            out[(p,)] = v.sum()
        elif rest:
            out.update({(p,) + r: m for r, m in _power_sums_rescanning(v, xs[1:], rest).items()})
    return out


@pytest.mark.parametrize("kind", ["disk", "annulus", "ball"])
def test_power_sums_group_by_leading_power_bit_for_bit(kind, request, rng):
    domain = request.getfixturevalue({"ball": "ball2"}.get(kind, kind))
    basis = request.getfixturevalue(f"{kind}_basis")
    grid = quadrature_grid(domain, 12, 24) if kind == "ball" else quadrature_grid(domain, 16, 32)
    v = grid.weights * (rng.normal(size=grid.weights.shape)
                        + 1j * rng.normal(size=grid.weights.shape))
    xs, exponents = _variables(domain, grid.nodes)
    exps = [exponents(e) for e in _powers(basis)[0]]
    conj = [np.conj(x) for x in xs]
    grouped, rescanned = _power_sums(v, conj, exps), _power_sums_rescanning(v, conj, exps)
    assert list(grouped) == list(rescanned)
    assert all(grouped[e] == rescanned[e] for e in exps)
