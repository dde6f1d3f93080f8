import numpy as np
import pytest

import bergsmooth.bergman as bergman_module
from bergsmooth.bergman import (
    CoefficientVector,
    build_basis,
    gram_matrix,
    kernel_eval,
    project,
    synthesize,
)
from bergsmooth.errors import ContractError, ParameterError
from bergsmooth.geometry import boundary_distance, quadrature_grid


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


# Oracles: the element-by-element formulas that project, synthesize and the Gram
# matrix replace.

def _project_by_elements(values, basis, grid):
    return np.array([np.sum(grid.weights * values * np.conj(e.eval(grid.nodes)))
                     for e in basis.elements])


def _synthesize_by_elements(cv, points, deriv):
    return np.tensordot(cv.coeffs, cv.basis.eval_matrix(points, deriv), axes=(0, 0))


def _rel_err(new, old):
    return np.max(np.abs(new - old)) / np.max(np.abs(old))


@pytest.mark.parametrize("case", ["disk", "annulus-even", "annulus-odd", "ball"])
def test_project_and_synthesize_match_element_formulas(case, request, rng):
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


@pytest.mark.parametrize("kind", ["disk", "annulus", "ball2"])
def test_a_family_projects_and_synthesizes_as_its_members_do(kind, request, rng):
    # one call for a list of inputs, one matrix product per chunk of points, gives
    # each member's coefficients and values as a call of its own does, to rounding
    grid = request.getfixturevalue(f"{kind}_grid")
    basis = build_basis(grid.domain, 32)
    shape = grid.weights.shape
    samples = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(5)]
    family = project(samples, basis, grid)
    assert isinstance(family, list) and len(family) == 5
    for values, cv in zip(samples, family):
        assert _rel_err(cv.coeffs, project(values, basis, grid).coeffs) <= 1e-13
    derivs = [(0, 0), (1, 2)] if kind == "ball2" else [0, 2]
    for deriv in derivs:
        synthesized = synthesize(family, grid.nodes, deriv)
        assert isinstance(synthesized, list) and len(synthesized) == 5
        for cv, values in zip(family, synthesized):
            assert _rel_err(values, synthesize(cv, grid.nodes, deriv)) <= 1e-13


@pytest.mark.parametrize("kind", ["disk", "annulus", "ball2"])
def test_the_table_gram_matches_the_element_values(kind, request):
    # the Gram matrix from the power table, unweighted and with the d^2 and d^4
    # weights of C8's duality orders, against (E w) E^H with E the elements' values
    grid = request.getfixturevalue(f"{kind}_grid")
    basis = build_basis(grid.domain, 32)
    E = basis.eval_matrix(grid.nodes)
    d = boundary_distance(grid.domain, grid.nodes)
    for weight in (None, d**2, d**4):
        w = grid.weights if weight is None else grid.weights * weight
        old = (E * w) @ np.conj(E.T)
        assert _rel_err(gram_matrix(basis, grid, weight), old) <= 1e-13


def test_a_list_of_weights_gives_each_weight_its_own_gram(annulus_grid):
    # one table pass for every weight gives the matrices separate calls give
    basis = build_basis(annulus_grid.domain, 32)
    d = boundary_distance(annulus_grid.domain, annulus_grid.nodes)
    weights = [None, d**2, d**4]
    grams = gram_matrix(basis, annulus_grid, weights)
    assert isinstance(grams, list) and len(grams) == 3
    for G, weight in zip(grams, weights):
        assert np.array_equal(G, gram_matrix(basis, annulus_grid, weight))


def test_no_power_table_holds_more_than_about_a_megabyte(monkeypatch, annulus, rng):
    # the 8,192 nodes of the 64 x 128 annulus grid, 32 elements: four chunks of
    # 2,048 nodes, each table one row per power, three rows below the basis for
    # the third derivative
    grid = quadrature_grid(annulus, 64, 128)
    basis = build_basis(annulus, 32)
    tables = []
    real = bergman_module._power_tables

    def recorded(*args):
        for cut, table in real(*args):
            tables.append(table.shape)
            yield cut, table
    monkeypatch.setattr(bergman_module, "_power_tables", recorded)
    cv = project(rng.normal(size=grid.weights.shape) + 0j, basis, grid)
    synthesize(cv, grid.nodes, 3)
    assert tables == [(32, 2048)] * 4 + [(35, 2048)] * 4
    assert max(rows * cols * 16 for rows, cols in tables) <= 1.1 * 2**20


def _bergman_by_kernel(domain, values, grid, z):
    """Bf(z) as the grid sum of K(z, .) f, by the kernel's closed form."""
    return np.array([np.sum(grid.weights * kernel_eval(domain, zi, grid.nodes) * values)
                     for zi in z])


def test_project_agrees_with_the_kernel_route(disk, rng):
    # Bf at four points with |z| <= 0.7, as the expansion of its projection and as
    # the quadrature of the reproducing kernel's closed form against f, which
    # reads no basis norm; the input mixes z, conj(z) and |z|^2
    grid = quadrature_grid(disk, 64, 128)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = lambda z: a[0] * z + a[1] * np.conj(z) + a[2] * np.abs(z) ** 2
    z = 0.7 * rng.uniform(0.2, 1.0, size=4) * np.exp(2j * np.pi * rng.uniform(size=4))
    by_expansion = synthesize(project(f, build_basis(disk, 32), grid), z)
    by_kernel = _bergman_by_kernel(disk, f(grid.nodes), grid, z)
    assert np.max(np.abs(by_expansion - by_kernel)) <= 1e-12


def test_the_kernel_route_catches_a_norm_off(disk, monkeypatch, rng):
    # its control: the constant element normalised by a norm 1% off scales the
    # expansion's constant term, the mean 1.5, by 1/1.01^2, far past the route's
    # tolerance
    grid = quadrature_grid(disk, 64, 128)
    f = lambda z: 1.0 + np.conj(z) + np.abs(z) ** 2
    z = np.array([0.3 + 0.2j, -0.5j])
    norm = bergman_module._planar_norm
    monkeypatch.setattr(bergman_module, "_planar_norm",
                        lambda domain, k: norm(domain, k) * (1.01 if k == 0 else 1.0))
    by_expansion = synthesize(project(f, build_basis(disk, 32), grid), z)
    assert np.max(np.abs(by_expansion - _bergman_by_kernel(disk, f(grid.nodes), grid, z))) > 1e-3
