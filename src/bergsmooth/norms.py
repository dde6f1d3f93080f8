"""Sobolev norms, directional Sobolev norms, boundary-distance weighted norms,
sup-weighted norms, the duality functional over a truncated basis ball, and the
hit-time weighted ratios that grade C2's Hardy majorants.

The boundary-distance weighted norm ||d^k h|| stands in for the norm of
order -k throughout: for holomorphic h the two are comparable on the model
domains, and every check downstream is a ratio, so unknown comparability
constants drop out or are reported empirically.
"""

from __future__ import annotations

import numpy as np

from .bergman import (CoefficientVector, OrthonormalBasis, _expansions, gram_matrix, project,
                      synthesize)
from .errors import (ConditioningError, ContractError, DegenerateInputError, ParameterError,
                     ResolutionError)
from .finitediff import polar_cartesian_partials
from .flow import CollarChart
from .functions import AngularFamily, Holo1, _on_grid, _partial, apply_field
from .geometry import (
    Domain,
    PolarEvalGrid,
    QuadratureGrid,
    _gauss_legendre,
    boundary_distance,
    boundary_samples,
    polar_eval_grid,
    quadrature_grid,
)

__all__ = [
    "sobolev_norm",
    "sobolev_norms",
    "directional_sobolev_norm",
    "weighted_negative_norm",
    "sup_weighted_norm",
    "duality_sup",
    "rotation_multiplier",
    "weighted_ratio_sweep",
    "collar_ratio_grid",
    "hardy_line_case",
]

MAX_ORDER = 3


def _default_grid(domain: Domain) -> QuadratureGrid:
    if domain.kind == "ball2":
        return quadrature_grid(domain, 12, 24)
    return quadrature_grid(domain, 32, 64)


def _multi_indices(k: int):
    return [(bx, by) for total in range(k + 1) for bx in range(total + 1)
            for by in (total - bx,)]


def sobolev_norm(f, k: int, domain: Domain, grid: QuadratureGrid | None = None,
                 eval_grid: PolarEvalGrid | None = None) -> float:
    """Sobolev norm of order k: cartesian partials up to order k in L^2, the last
    entry of sobolev_norms(f, k, ...)."""
    return sobolev_norms(f, k, domain, grid, eval_grid)[k]


def sobolev_norms(f, k: int, domain: Domain, grid: QuadratureGrid | None = None,
                  eval_grid: PolarEvalGrid | None = None) -> list:
    """Sobolev norms of orders 0..k, as the running prefixes of one sum over
    derivative orders: entry j is sobolev_norm(f, j) bit for bit.  Given a list of
    coefficient vectors on one basis, one such list per vector.

    Holomorphic data (coefficient vectors, tracked holomorphic functions) is
    differentiated analytically and integrated on the quadrature grid, the
    derivatives of every order of a family of coefficient vectors from one table
    of powers; other samplable functions are finite-differenced on an inset polar
    evaluation grid.
    """
    if not 0 <= k <= MAX_ORDER:
        raise ParameterError(f"orders 0 to {MAX_ORDER} are supported, got {k}")
    if grid is None:
        grid = _default_grid(domain)
    if isinstance(f, list):
        if not all(isinstance(g, CoefficientVector) for g in f):
            raise ContractError("a family of norms takes coefficient vectors")
        return _sobolev_coefficients(f, k, domain, grid)
    if isinstance(f, CoefficientVector):
        return _sobolev_coefficients([f], k, domain, grid)[0]
    if isinstance(f, Holo1):
        if domain.kind == "ball2":
            raise ContractError("analytic norms on the ball take coefficient vectors")
        # the j-th complex derivative feeds all j+1 cartesian multi-indices
        return _prefix_roots([(j + 1) * grid.norm(_partial(f, (j, 0), grid.nodes)) ** 2]
                             for j in range(k + 1))
    if domain.kind == "ball2":
        raise ContractError("finite-difference norms are planar only")
    if eval_grid is None:
        eval_grid = polar_eval_grid(domain, 64, 128)
    if eval_grid.r.size < 7:
        raise ResolutionError("evaluation grid too coarse for the stencil")
    if isinstance(f, np.ndarray):
        samples = f
        if samples.shape != eval_grid.shape:
            raise ContractError("sample array does not match the evaluation grid")
    else:
        samples = _on_grid(f, eval_grid)
    return _prefix_roots([eval_grid.norm(d) ** 2 for d in level]
                         for level in polar_cartesian_partials(samples, eval_grid, k))


def _prefix_roots(orders):
    """Square roots of the running sum of the terms of each order in turn, taken
    after each order: the terms are added one by one, in the order of a single
    sum over all of them, so entry j is that sum's value up to order j."""
    total, out = 0.0, []
    for terms in orders:
        for term in terms:
            total += term
        out.append(float(np.sqrt(total)))
    return out


def _sobolev_coefficients(cvs, k, domain, grid):
    if domain.kind == "ball2":
        # the (m1, m2) terms summed by total order
        derivs = [[(m1, j - m1) for m1 in range(j + 1)] for j in range(k + 1)]
        weight = lambda d: (d[0] + 1) * (d[1] + 1)
    else:
        # the j-th complex derivative feeds all j+1 cartesian multi-indices
        derivs = [[j] for j in range(k + 1)]
        weight = lambda j: j + 1
    flat = [d for level in derivs for d in level]
    values = dict(zip(flat, _expansions(cvs, grid.nodes, flat)))
    return [_prefix_roots([weight(d) * grid.norm(values[d][i]) ** 2 for d in level]
                          for level in derivs)
            for i in range(len(cvs))]


def rotation_multiplier(domain: Domain):
    """Radial factor q(r) in the canonical rotation field q(r) d/dtheta."""
    if domain.kind == "annulus":
        a = 1.0 + domain.rho**2
        return lambda r: 2.0 * r**2 - a
    return lambda r: np.ones_like(np.asarray(r, dtype=float))


def directional_sobolev_norm(f, fld, k: int, grid: QuadratureGrid | None = None) -> float:
    """Norm built from powers of a single tangential field.

    Separated angular sums along the rotation field (a real field with
    z-coefficients exactly i times the defining gradient on the grid nodes) go
    through the exact diagonal action; anything else, a multiple of it included,
    uses repeated directional finite differences on an inset evaluation grid.
    """
    if k < 0:
        raise ParameterError(f"directional orders are nonnegative, got {k}")
    domain = fld.domain
    if grid is None:
        grid = _default_grid(domain)
    if (isinstance(f, AngularFamily) and fld.real and np.array_equal(
            fld.z_coeffs(grid.nodes), 1j * domain.defining_gradient_z(grid.nodes))):
        q = rotation_multiplier(domain)
        total = 0.0
        cur = f
        for j in range(k + 1):
            total += grid.norm(_on_grid(cur, grid)) ** 2
            cur = cur.rotation_applied(q)
        return float(np.sqrt(total))
    if domain.kind == "ball2":
        raise ContractError("directional finite differences are planar only")
    # inset must clear the widest stencil excursion (2 steps of the
    # first-derivative stencil per differentiation level)
    eval_grid = polar_eval_grid(domain, 96, 128, delta=(2 * k + 1) * 2.5e-3)
    pts = eval_grid.nodes().ravel()

    def power(j, points):
        if j == 0:
            return np.asarray(f(points), dtype=complex)
        return apply_field(fld, lambda p: power(j - 1, p), points)

    w = eval_grid.weights().ravel()
    total = 0.0
    for j in range(k + 1):
        total += float(np.sum(w * np.abs(power(j, pts)) ** 2))
    return float(np.sqrt(total))


def weighted_negative_norm(h, k: int, domain: Domain,
                           grid: QuadratureGrid | None = None) -> float:
    """L^2 norm of (boundary distance)^k times h, the order -k stand-in."""
    if grid is None:
        grid = _default_grid(domain)
    vals = _values(h, grid.nodes)
    d = boundary_distance(domain, grid.nodes)
    return float(np.sqrt(np.sum(grid.weights * d ** (2 * k) * np.abs(vals) ** 2)))


def _values(h, nodes):
    if isinstance(h, CoefficientVector):
        return synthesize(h, nodes)
    return np.asarray(h(nodes), dtype=complex)


def _sup_grid_nodes(domain: Domain, n_r: int, n_th: int, delta: float):
    if domain.kind == "ball2":
        sphere = boundary_samples(domain, 4 * n_th)
        r = np.linspace(0.0, 1.0 - delta, n_r)
        return (r[:, None, None] * sphere[None, :, :]).reshape(-1, 2)
    r_inner = 0.0 if domain.kind == "disk" else None
    return polar_eval_grid(domain, n_r, n_th, delta, r_inner=r_inner).nodes().ravel()


def sup_weighted_norm(h, m: int, domain: Domain, n_r: int = 200, n_th: int = 128,
                      delta: float = 1e-3) -> float:
    """Max over a dense evaluation grid of |h| times d^(m + 2n)."""
    pts = _sup_grid_nodes(domain, n_r, n_th, delta)
    vals = _values(h, pts)
    power = m + 2 * domain.complex_dimension
    d = boundary_distance(domain, pts)
    return float(np.max(np.abs(vals) * d**power))


def duality_sup(fs, k1, basis: OrthonormalBasis, grid: QuadratureGrid) -> list:
    """sup |(f, h)| over the truncated basis ball { ||d^{k1} h|| <= 1 }, for each f in
    fs; given a list of orders k1, one such list per order.

    Exact in the truncated space: with v the projection coefficients of f and
    G the distance-weighted Gram matrix, the value is sqrt(v* G^{-1} v), via
    one symmetric positive-definite factorization G = L L* per order for all of
    fs, the Gram matrices of every order from one `gram_matrix` call.  A
    coefficient vector on a leading part of basis, its first n elements, is
    graded in that part's truncated ball, with the leading n x n block of L: the
    factor of a leading block of G is the leading block of its factor.  Every
    other input is projected onto basis, all of them in one call, and the inputs
    of each truncation are solved together.
    """
    orders = k1 if isinstance(k1, list) else [k1]
    others = [f for f in fs if not isinstance(f, CoefficientVector)]
    projected = iter(project(others, basis, grid) if others else ())
    vs = [next(projected).coeffs if not isinstance(f, CoefficientVector)
          else _leading_coeffs(f, basis) for f in fs]
    d = boundary_distance(basis.domain, grid.nodes)
    grams = gram_matrix(basis, grid, weight=[d ** (2 * k) for k in orders])
    out = [_graded(vs, G) for G in grams]
    return out if isinstance(k1, list) else out[0]


def _graded(vs, G):
    """sqrt(v* G^{-1} v) for each coefficient vector v, graded in the leading block of
    G of its length, through one Cholesky factor of G."""
    size = len(G)
    G = 0.5 * (G + np.conj(G.T))
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"weighted Gram matrix not positive definite at truncation {size}",
            truncation=size) from exc
    sups = [0.0] * len(vs)
    for n in {v.size for v in vs}:
        members = [i for i, v in enumerate(vs) if v.size == n]
        y = np.linalg.solve(L[:n, :n], np.stack([vs[i] for i in members], axis=1))
        for i, column in zip(members, y.T):
            sups[i] = float(np.linalg.norm(column))
    return sups


def _leading_coeffs(cv: CoefficientVector, basis: OrthonormalBasis):
    """The coefficients of cv, whose basis must be the first elements of basis."""
    n = cv.basis.size
    if cv.basis.domain != basis.domain or cv.basis.elements != basis.elements[:n]:
        raise ContractError("a coefficient vector's basis is not a leading part of the "
                            "duality basis")
    return cv.coeffs


def collar_ratio_grid(chart: CollarChart, n_r: int = 24, n_th: int = 48):
    """Uniform polar nodes covering the collar, with trapezoid weights.

    Inset from the boundary so finite-difference stencils on closures stay
    interior; returns (nodes, weights, hit_times).
    """
    dom = chart.domain
    if dom.kind == "ball2":
        raise ContractError("ratio grids are planar")
    inset = 8e-3
    th = np.linspace(0, 2 * np.pi, n_th, endpoint=False)
    # the collar {hit time < 1} ends at the time-one radius of each boundary circle
    bands = [(float(chart.flow_radius(-1.0, 1.0)), 1.0 - inset)]
    if dom.kind == "annulus":
        bands.append((dom.rho + inset, float(chart.flow_radius(-1.0, dom.rho))))
    grids = [PolarEvalGrid(dom, np.linspace(lo, hi, n_r), th) for lo, hi in bands]
    nodes = np.concatenate([g.nodes().ravel() for g in grids])
    weights = np.concatenate([g.weights().ravel() for g in grids])
    return nodes, weights, chart.hit_time(nodes)


def _weighted_norm(values, weights, w):
    return float(np.sqrt(np.sum(weights * np.abs(w * values) ** 2)))


def weighted_ratio_sweep(values, k: int, nu: int, g, ells, grid):
    """Ratios ||t^l A(g)|| / sum_{|b| <= nu} ||t^{l+k} D^b g|| for each l, from the
    values of A(g) on the grid nodes (operators.apply_op of an expression, or the
    Hardy majorants of flow.flow_moment_apply), for an A that gains k powers of
    the hit time against nu derivatives of g.

    The values are reweighted across the sweep, by the hit time masked to the
    collar once and each of its powers once.
    """
    nodes, weights, t = grid
    dg = [_partial(g, beta, nodes) for beta in _multi_indices(nu)]
    ells = list(ells)
    masked = np.where(np.isfinite(t) & (t < 2.0), t, 0.0)
    powers = {p: masked ** p for p in {*ells, *(ell + k for ell in ells)}}
    out = []
    for ell in ells:
        numer = _weighted_norm(values, weights, powers[ell])
        denom = sum(_weighted_norm(d, weights, powers[ell + k]) for d in dg)
        if denom == 0.0:
            raise DegenerateInputError("weighted denominator vanishes identically")
        out.append(numer / denom)
    return out


def hardy_line_case():
    """The closed one-dimensional case: f = 1 on [0, 1], weight exponent 0.

    Returns (lhs_squared, rhs_squared): the integral of (integral_x^1 1)^2
    equals 1/3, and 4 times the integral of t^2 equals 4/3.
    """
    x, w = _gauss_legendre(64)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    lhs2 = float(np.sum(w * (1.0 - x) ** 2))
    rhs2 = 4.0 * float(np.sum(w * x**2))
    return lhs2, rhs2
