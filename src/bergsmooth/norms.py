"""Sobolev norms, directional Sobolev norms, boundary-distance weighted norms,
sup-weighted norms, and the duality functional over a truncated basis ball.

The boundary-distance weighted norm ||d^k h|| stands in for the norm of
order -k throughout: for holomorphic h the two are comparable on the model
domains, and every check downstream is a ratio, so unknown comparability
constants drop out or are reported empirically.
"""

from __future__ import annotations

import functools

import numpy as np

from .bergman import CoefficientVector, OrthonormalBasis, gram_matrix, project, synthesize
from .errors import ConditioningError, ContractError, ParameterError, ResolutionError
from .finitediff import polar_cartesian_partials
from .functions import AngularFamily, Holo1, _partial, apply_field
from .geometry import (
    Domain,
    PolarEvalGrid,
    QuadratureGrid,
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
]

MAX_ORDER = 3


@functools.lru_cache(maxsize=8)
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
    derivative orders: entry j is sobolev_norm(f, j) bit for bit.

    Holomorphic data (coefficient vectors, tracked holomorphic functions) is
    differentiated analytically and integrated on the quadrature grid; other
    samplable functions are finite-differenced on an inset polar evaluation
    grid.
    """
    if not 0 <= k <= MAX_ORDER:
        raise ParameterError(f"orders 0 to {MAX_ORDER} are supported, got {k}")
    if grid is None:
        grid = _default_grid(domain)
    if isinstance(f, (CoefficientVector, Holo1)):
        return _sobolev_analytic(f, k, domain, grid)
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
        samples = np.asarray(f(eval_grid.nodes()), dtype=complex)
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


def _sobolev_analytic(f, k, domain, grid):
    if domain.kind == "ball2":
        if not isinstance(f, CoefficientVector):
            raise ContractError("analytic norms on the ball take coefficient vectors")
        # the (m1, m2) terms summed by total order
        return _prefix_roots(
            [(m1 + 1) * (j - m1 + 1)
             * grid.norm(synthesize(f, grid.nodes, deriv=(m1, j - m1))) ** 2
             for m1 in range(j + 1)]
            for j in range(k + 1))

    def derivative(j):
        if isinstance(f, CoefficientVector):
            return synthesize(f, grid.nodes, deriv=j)
        return _partial(f, (j, 0), grid.nodes)
    # the j-th complex derivative feeds all j+1 cartesian multi-indices
    return _prefix_roots([(j + 1) * grid.norm(derivative(j)) ** 2] for j in range(k + 1))


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
            vals = cur(grid.nodes)
            total += grid.norm(vals) ** 2
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


def duality_sup(fs, k1: int, basis: OrthonormalBasis, grid: QuadratureGrid) -> list:
    """sup |(f, h)| over the truncated basis ball { ||d^{k1} h|| <= 1 }, for each f in fs.

    Exact in the truncated space: with v the projection coefficients of f and
    G the distance-weighted Gram matrix, the value is sqrt(v* G^{-1} v),
    via a symmetric positive-definite factorization made once for all of fs.
    """
    vs = [f.coeffs if isinstance(f, CoefficientVector) else project(f, basis, grid).coeffs
          for f in fs]
    d = boundary_distance(basis.domain, grid.nodes)
    G = gram_matrix(basis, grid, weight=d ** (2 * k1))
    G = 0.5 * (G + np.conj(G.T))
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"weighted Gram matrix not positive definite at truncation {basis.size}",
            truncation=basis.size) from exc
    return [float(np.linalg.norm(np.linalg.solve(L, v))) for v in vs]
