"""Orthonormal bases of square-integrable holomorphic functions, the kernel,
and the orthogonal projection onto them, on the model domains.

All bases are closed-form: normalized monomials z^k on the disk, normalized
Laurent monomials on the annulus (the k = -1 norm involves the logarithm),
and normalized monomials z1^a z2^b on the ball, ordered by total degree.
Synthesis runs the Horner evaluator of `functions`; the elements' `eval` and the
annulus kernel series keep explicit powers, as independent references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .functions import _falling, _polynomial
from .geometry import Domain, QuadratureGrid

__all__ = [
    "OrthonormalBasis",
    "CoefficientVector",
    "build_basis",
    "project",
    "synthesize",
    "kernel_eval",
    "gram_matrix",
]


@dataclass(frozen=True)
class PlanarMonomial:
    power: int
    norm: float

    def eval(self, z, deriv=0):
        z = np.asarray(z)
        k = self.power
        fac = _falling(k, deriv)
        if fac == 0.0:
            return np.zeros_like(z, dtype=complex)
        return fac / self.norm * z ** (k - deriv)


@dataclass(frozen=True)
class BallMonomial:
    powers: tuple
    norm: float

    def eval(self, z, deriv=(0, 0)):
        z = np.asarray(z)
        out = np.full(z.shape[:-1], 1.0 / self.norm, dtype=complex)
        for j in (0, 1):
            k, d = self.powers[j], deriv[j]
            fac = _falling(k, d)
            if fac == 0.0:
                return np.zeros(z.shape[:-1], dtype=complex)
            out = out * fac * z[..., j] ** (k - d)
        return out


@dataclass(frozen=True)
class OrthonormalBasis:
    domain: Domain
    elements: tuple

    @property
    def size(self):
        return len(self.elements)

    def eval_matrix(self, points, deriv=None):
        """Matrix of element values (size x npoints), optionally differentiated."""
        if deriv is None:
            deriv = (0, 0) if self.domain.kind == "ball2" else 0
        return np.stack([e.eval(points, deriv) for e in self.elements])


@dataclass(frozen=True)
class CoefficientVector:
    basis: OrthonormalBasis
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) != self.basis.size:
            raise ContractError("coefficient count does not match basis size")


def _planar_norm(domain: Domain, k: int) -> float:
    if domain.kind == "disk":
        if k < 0:
            raise ParameterError("disk basis uses nonnegative powers")
        return math.sqrt(math.pi / (k + 1))
    rho = domain.rho
    if k == -1:
        return math.sqrt(2.0 * math.pi * math.log(1.0 / rho))
    return math.sqrt(2.0 * math.pi * (1.0 - rho ** (2 * k + 2)) / (2 * k + 2))


def _ball_norm(a: int, b: int) -> float:
    return math.sqrt(math.pi**2 * math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))


def build_basis(domain: Domain, n_b: int) -> OrthonormalBasis:
    """First n_b orthonormal analytic basis elements of the model domain."""
    if n_b < 1:
        raise ParameterError("basis size must be positive")
    if domain.kind == "disk":
        elems = [PlanarMonomial(k, _planar_norm(domain, k)) for k in range(n_b)]
    elif domain.kind == "annulus":
        lo = -(n_b // 2)
        hi = (n_b + 1) // 2
        elems = [PlanarMonomial(k, _planar_norm(domain, k)) for k in range(lo, hi)]
    else:
        elems = []
        deg = 0
        while len(elems) < n_b:
            for a in range(deg, -1, -1):
                b = deg - a
                elems.append(BallMonomial((a, b), _ball_norm(a, b)))
                if len(elems) == n_b:
                    break
            deg += 1
    return OrthonormalBasis(domain, tuple(elems))


def _values_on(f, grid: QuadratureGrid):
    if callable(f):
        return np.asarray(f(grid.nodes), dtype=complex)
    values = np.asarray(f, dtype=complex)
    if values.shape != grid.weights.shape:
        raise ContractError("sample array does not match the grid")
    return values


def _powers(basis: OrthonormalBasis):
    """Element powers, (k,) on the plane and (a, b) on the ball, and element norms."""
    powers = [e.powers if isinstance(e, BallMonomial) else (e.power,) for e in basis.elements]
    return powers, np.array([e.norm for e in basis.elements])


def _variables(domain: Domain, points):
    """Coordinates whose nonnegative powers make up the basis monomials, and the
    map from element powers to exponents in them: z1, z2 on the ball, z on the
    disk, and z, 1/z on the annulus, where z^k has exponents (max(k, 0), max(-k, 0))."""
    points = np.asarray(points)
    if domain.kind == "ball2":
        return [points[..., 0], points[..., 1]], tuple
    if domain.kind == "disk":
        return [points], tuple
    return [points, 1.0 / points], lambda e: (max(e[0], 0), max(-e[0], 0))


def _power_sums(v, xs, exps):
    """sum(v * prod_i xs[i]**e_i) for each nonnegative exponent tuple e, by
    running products per coordinate: one multiply and one reduction per tuple."""
    out = {}
    for p in range(max(e[0] for e in exps) + 1):
        if p:
            v = v * xs[0]
        rest = [e[1:] for e in exps if e[0] == p]
        if rest and len(xs) == 1:
            out[(p,)] = v.sum()
        elif rest:
            out.update({(p,) + r: m for r, m in _power_sums(v, xs[1:], rest).items()})
    return out


def project(f, basis: OrthonormalBasis, grid: QuadratureGrid) -> CoefficientVector:
    """Orthogonal projection coefficients (f, e_k) under the grid quadrature.

    The moments sum(w f conj(z)^k) come from running powers of conj(z) (of
    conj(1/z) for the annulus's negative powers, of conj(z1) and conj(z2) on
    the ball), never from element values.
    """
    if basis.domain.kind != grid.domain.kind:
        raise ContractError("basis and grid live on different domains")
    v = grid.weights * _values_on(f, grid)
    powers, norms = _powers(basis)
    xs, exponents = _variables(basis.domain, grid.nodes)
    exps = [exponents(e) for e in powers]
    sums = _power_sums(v, [np.conj(x) for x in xs], exps)
    return CoefficientVector(basis, np.array([sums[e] for e in exps]) / norms)


def synthesize(coeffs: CoefficientVector, points, deriv=None):
    """Pointwise sum of c_k D^beta e_k for a holomorphic derivative multi-index.

    The derivative of the expansion is a (Laurent) polynomial with coefficient
    c_k k(k-1)...(k-j+1) / norm_k at power k - j (per coordinate on the ball),
    evaluated by Horner's rule; no element is evaluated.
    """
    domain = coeffs.basis.domain
    if deriv is None:
        deriv = (0, 0) if domain.kind == "ball2" else 0
    d = tuple(deriv) if domain.kind == "ball2" else (deriv,)
    powers, norms = _powers(coeffs.basis)
    xs, exponents = _variables(domain, points)
    terms = {}
    for e, c, norm in zip(powers, coeffs.coeffs, norms):
        fac = math.prod(_falling(k, j) for k, j in zip(e, d))
        if fac != 0.0:
            terms[exponents([k - j for k, j in zip(e, d)])] = c * (fac / norm)
    return _polynomial(xs, terms)


def gram_matrix(basis: OrthonormalBasis, grid: QuadratureGrid, weight=None):
    """Gram matrix of the basis under quadrature, optionally with a weight."""
    E = basis.eval_matrix(grid.nodes)
    w = grid.weights if weight is None else grid.weights * weight
    return (E * w) @ np.conj(E.T)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

_NEAR_SINGULAR = 1e-12


def kernel_eval(domain: Domain, z, w, tol: float = 1e-10):
    """Reproducing kernel K(z, w) at interior points.

    Disk and ball are closed forms; the annulus kernel is a truncated
    bilinear monomial series, truncated so both geometric tails are below tol.
    """
    z = np.asarray(z)
    w = np.asarray(w)
    if np.any(~domain.contains(z)) or np.any(~domain.contains(w)):
        raise ContractError("kernel arguments must be interior")
    if domain.kind == "disk":
        q = 1.0 - z * np.conj(w)
        if np.any(np.abs(q) < _NEAR_SINGULAR):
            raise ParameterError("kernel evaluation too close to the diagonal singularity")
        return 1.0 / (math.pi * q**2)
    if domain.kind == "ball2":
        q = 1.0 - np.sum(z * np.conj(w), axis=-1)
        if np.any(np.abs(q) < _NEAR_SINGULAR):
            raise ParameterError("kernel evaluation too close to the diagonal singularity")
        return 2.0 / (math.pi**2 * q**3)
    t = z * np.conj(w)
    if np.any(np.abs(1.0 - t) < _NEAR_SINGULAR):
        raise ParameterError("kernel evaluation too close to the diagonal singularity")
    kp, km = _annulus_truncation(domain.rho, float(np.max(np.abs(t))), tol)
    out = np.zeros_like(t, dtype=complex)
    for k in range(-km, kp + 1):
        out = out + t ** k / _planar_norm(domain, k) ** 2
    return out


def annulus_kernel_tail_bound(rho: float, t_abs: float, kp: int, km: int) -> float:
    """Upper bound on the dropped terms of the annulus kernel series."""
    s_pos = t_abs
    tail_pos = (s_pos ** (kp + 1) * ((kp + 2) - (kp + 1) * s_pos)
                / (math.pi * (1.0 - rho**2) * (1.0 - s_pos) ** 2))
    s_neg = rho**2 / t_abs
    tail_neg = (s_neg ** (km + 1) * (km / (1.0 - s_neg) + s_neg / (1.0 - s_neg) ** 2)
                / (math.pi * rho**2 * (1.0 - rho**2)))
    return tail_pos + tail_neg


def _annulus_truncation(rho: float, t_abs: float, tol: float):
    if t_abs >= 1.0 or t_abs <= rho**2:
        raise ParameterError("annulus kernel series needs rho^2 < |z wbar| < 1")
    kp = km = 8
    while annulus_kernel_tail_bound(rho, t_abs, kp, km) > tol:
        kp += 8
        km += 8
        if kp > 4000:
            raise ParameterError("kernel truncation bound unattainable this close to the boundary")
    return kp, km
