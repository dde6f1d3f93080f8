"""Model domains, quadrature grids, and the distinguished boundary vector fields.

Supported domains: the unit disk, the annulus rho < |z| < 1, and the unit
ball in C^2.  Points on planar domains are complex arrays of any shape;
points in C^2 are complex arrays whose last axis has length 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError, ParameterError

__all__ = [
    "Domain",
    "QuadratureGrid",
    "PolarEvalGrid",
    "VectorField",
    "make_domain",
    "boundary_distance",
    "quadrature_grid",
    "polar_eval_grid",
    "canonical_fields",
    "transversality_measure",
    "boundary_samples",
]

# Inward flow-time-2 landing radius for the transverse field, per domain.
# These fix the collar geometry; every report quotes the resulting rate.
_COLLAR_TARGET = {"disk": 0.2, "ball2": 0.35}
# Fraction of the gap between the stall circle and the outer boundary kept
# clear when placing the annulus collar edge.
_ANNULUS_GAP_FRACTION = 0.04


@dataclass(frozen=True)
class Domain:
    """A model domain with a global smooth defining function, negative inside."""

    kind: str
    rho: float | None = None

    @property
    def complex_dimension(self) -> int:
        return 2 if self.kind == "ball2" else 1

    @property
    def volume(self) -> float:
        if self.kind == "disk":
            return np.pi
        if self.kind == "annulus":
            return np.pi * (1.0 - self.rho**2)
        return np.pi**2 / 2.0

    def defining_function(self, points):
        """disk: |z|^2-1; annulus: (|z|^2-1)(|z|^2-rho^2); ball2: |z1|^2+|z2|^2-1."""
        points = np.asarray(points)
        if self.kind == "disk":
            return np.abs(points) ** 2 - 1.0
        if self.kind == "annulus":
            u = np.abs(points) ** 2
            return (u - 1.0) * (u - self.rho**2)
        u = np.sum(np.abs(points) ** 2, axis=-1)
        return u - 1.0

    def defining_gradient_z(self, points):
        """d(rho)/d(z_j conjugate), the type-(1,0) coefficient vector of the gradient."""
        points = np.asarray(points)
        if self.kind == "disk":
            return points
        if self.kind == "annulus":
            u = np.abs(points) ** 2
            return points * (2.0 * u - 1.0 - self.rho**2)
        return points

    def radius(self, points):
        """|z| on planar domains, euclidean norm on the ball."""
        points = np.asarray(points)
        if self.kind == "ball2":
            return np.sqrt(np.sum(np.abs(points) ** 2, axis=-1))
        return np.abs(points)

    def contains(self, points):
        return self.defining_function(points) < 1e-12

    def __str__(self):
        if self.kind == "annulus":
            return f"annulus(rho={self.rho})"
        return self.kind


def make_domain(kind: str, rho: float | None = None) -> Domain:
    """Construct a model domain; the annulus needs its inner radius rho in (0,1)."""
    if kind not in ("disk", "annulus", "ball2"):
        raise ParameterError(f"unknown domain kind {kind!r}")
    if kind == "annulus":
        if rho is None or not (0.0 < rho < 1.0):
            raise ParameterError(f"annulus needs rho in (0,1), got {rho!r}")
        return Domain("annulus", float(rho))
    if rho is not None:
        raise ParameterError(f"{kind} takes no rho parameter")
    return Domain(kind)


def boundary_distance(domain: Domain, points):
    """Euclidean distance to the boundary, in closed form per model domain."""
    points = np.asarray(points)
    r = domain.radius(points)
    if np.any(domain.defining_function(points) > 1e-12):
        raise DomainError("point outside the closed domain")
    if domain.kind == "disk" or domain.kind == "ball2":
        return 1.0 - r
    return np.minimum(1.0 - r, r - domain.rho)


def boundary_samples(domain: Domain, n: int = 64):
    """Deterministic sample points on the boundary (both circles for the annulus)."""
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if domain.kind == "disk":
        return np.exp(1j * th)
    if domain.kind == "annulus":
        return np.concatenate([np.exp(1j * th), domain.rho * np.exp(1j * th)])
    m = max(4, int(round(np.sqrt(n / 4))))
    psi = (np.arange(m) + 0.5) * (np.pi / 2) / m
    th1 = np.linspace(0.0, 2.0 * np.pi, 2 * m, endpoint=False)
    P, A, B = np.meshgrid(psi, th1, th1, indexing="ij")
    pts = np.stack([np.cos(P) * np.exp(1j * A), np.sin(P) * np.exp(1j * B)], axis=-1)
    return pts.reshape(-1, 2)


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Interior tensor quadrature grid: Gauss-Legendre radially, trapezoid in angle."""

    domain: Domain
    nodes: np.ndarray          # (npts,) complex, or (npts, 2) for ball2
    weights: np.ndarray        # (npts,) positive

    def norm(self, values):
        return float(np.sqrt(np.sum(self.weights * np.abs(values) ** 2).real))


def _gauss_on(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def quadrature_grid(domain: Domain, n_r: int, n_theta: int) -> QuadratureGrid:
    """Tensor quadrature grid over the open domain.

    Exact (up to rounding) for radial polynomials of degree <= 2*n_r - 1 and
    trigonometric degree <= n_theta - 1.  All nodes are strictly interior.
    """
    if n_r < 4 or n_theta < 4:
        raise ParameterError("need n_r >= 4 and n_theta >= 4")
    th = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    w_th = np.full(n_theta, 2.0 * np.pi / n_theta)
    if domain.kind in ("disk", "annulus"):
        r0 = domain.rho if domain.kind == "annulus" else 0.0
        r, w_r = _gauss_on(r0, 1.0, n_r)
        R, TH = np.meshgrid(r, th, indexing="ij")
        WR, WTH = np.meshgrid(w_r, w_th, indexing="ij")
        nodes = (R * np.exp(1j * TH)).ravel()
        weights = (WR * WTH * R).ravel()
    else:
        # polar-polar form: z1 = r1 e^{i a}, z2 = sqrt(1-r1^2) s e^{i b}
        r1, w1 = _gauss_on(0.0, 1.0, n_r)
        s, ws = _gauss_on(0.0, 1.0, n_r)
        R1, S, A, B = np.meshgrid(r1, s, th, th, indexing="ij")
        W1, WS, WA, WB = np.meshgrid(w1, ws, w_th, w_th, indexing="ij")
        r2 = np.sqrt(1.0 - R1**2) * S
        z1 = R1 * np.exp(1j * A)
        z2 = r2 * np.exp(1j * B)
        nodes = np.stack([z1.ravel(), z2.ravel()], axis=-1)
        weights = (W1 * WS * WA * WB * R1 * (1.0 - R1**2) * S).ravel()
    return QuadratureGrid(domain, nodes, weights)


@dataclass(frozen=True)
class PolarEvalGrid:
    """Uniform polar evaluation grid for finite differencing on planar domains.

    Radial lines are uniformly spaced on [r_inner, r_outer], the angle is
    periodic-uniform; integration weights are trapezoid x trapezoid with the
    polar jacobian.
    """

    domain: Domain
    r: np.ndarray
    theta: np.ndarray

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

    @property
    def dtheta(self) -> float:
        return float(self.theta[1] - self.theta[0])

    @property
    def shape(self):
        return (self.r.size, self.theta.size)

    def nodes(self):
        return np.outer(self.r, np.exp(1j * self.theta))

    def weights(self):
        w_r = np.full(self.r.size, self.dr)
        w_r[0] *= 0.5
        w_r[-1] *= 0.5
        W = np.outer(w_r * self.r, np.full(self.theta.size, self.dtheta))
        return W

    def norm(self, samples):
        return float(np.sqrt(np.sum(self.weights() * np.abs(samples) ** 2)))


def polar_eval_grid(domain: Domain, n_r: int, n_theta: int, delta: float = 1e-3,
                    r_inner: float | None = None) -> PolarEvalGrid:
    """Evaluation grid inset by delta from the boundary (both circles on the annulus)."""
    if domain.kind == "ball2":
        raise ContractError("evaluation grids are planar; the ball uses analytic derivatives")
    if n_r < 7:
        raise ParameterError("finite-difference stencils need n_r >= 7")
    if r_inner is None:
        r_inner = domain.rho + delta if domain.kind == "annulus" else 0.05
    r = np.linspace(r_inner, 1.0 - delta, n_r)
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    return PolarEvalGrid(domain, r, theta)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """A smooth vector field given by its coefficients against d/dz_j and d/dzbar_j.

    For real fields the zbar coefficients are the conjugates of the z
    coefficients and are left implicit (zbar_coeffs None).  A type-(1,0)
    field has zbar_coeffs identically zero (pass an explicit zero callable).
    """

    domain: Domain
    z_coeffs: Callable
    zbar_coeffs: Callable | None = None
    tangential: bool = False
    real: bool = False
    name: str = "field"

    def zbar(self, points):
        if self.zbar_coeffs is not None:
            return self.zbar_coeffs(points)
        return np.conj(self.z_coeffs(points))

    def velocity(self, points):
        """Real-vector flow velocity dz_j/dt; only real fields generate flows."""
        if not self.real:
            raise ContractError(f"field {self.name!r} is not real; it has no flow")
        return self.z_coeffs(points)

    def applied_to_defining(self, points):
        """The field applied to the defining function (exact, using d rho)."""
        gz = self.domain.defining_gradient_z(points)
        a = np.asarray(self.z_coeffs(points))
        b = np.asarray(self.zbar(points))
        if self.domain.kind == "ball2":
            return np.sum(a * np.conj(gz) + b * gz, axis=-1)
        return a * np.conj(gz) + b * gz


def collar_rate(domain: Domain) -> float:
    """Rate constant making the inward flow time across the collar equal 2."""
    if domain.kind in ("disk", "ball2"):
        return float(-np.log(_COLLAR_TARGET[domain.kind]) / 2.0)
    a = 1.0 + domain.rho**2
    rv2 = a / 2.0 + _ANNULUS_GAP_FRACTION * (1.0 - a / 2.0)
    # closed-form hit time of the unit-rate field z*(2|z|^2-a) from radius r to 1
    tau1 = _annulus_logs(rv2, domain.rho)[0] / (2.0 * a)
    return float(tau1 / 2.0)


def _annulus_logs(u, rho):
    """Log coordinates of the unit-rate annulus field z*(2|z|^2-a), a = 1 + rho^2, at
    u = r^2, outside and inside its stall circle u = a/2: each is 0 on its boundary
    circle and grows by 2a per unit of inward flow time."""
    a = 1.0 + rho**2
    return (np.log((2.0 - a) * u / np.maximum(2.0 * u - a, 1e-300)),
            np.log((a - 2 * rho**2) * u / np.maximum((a - 2.0 * u) * rho**2, 1e-300)))


def canonical_fields(domain: Domain) -> dict:
    """The distinguished fields: the rotation field and the transverse field.

    Returns {"T0", "N"}.  T0 has z-coefficients i times the defining gradient.
    N is the complex-structure rotation of T0, oriented outward and rescaled so
    that the inward boundary-to-collar-edge flow time is 2.
    """
    c = collar_rate(domain)
    T0 = VectorField(domain, lambda p: 1j * domain.defining_gradient_z(p),
                     tangential=True, real=True, name="T0")
    # J T0 has z-coefficients i*(i d rho) = -d rho, which points inward on the
    # outer circle; flip the sign so the hit time is positive inside.
    N = VectorField(domain, lambda p: c * domain.defining_gradient_z(p),
                    real=True, name="N")
    return {"T0": T0, "N": N}


def transversality_measure(fld: VectorField, domain: Domain) -> float:
    """Minimum over 128 boundary samples of |a|, the rotation-field component of fld.

    A positive value certifies that the tangential field is transversal to the
    complex tangent space of the boundary.
    """
    if not fld.tangential:
        raise ContractError("transversality is defined for tangential fields")
    p = boundary_samples(domain, 128)
    n = domain.defining_gradient_z(p)
    az = np.asarray(fld.z_coeffs(p))
    if domain.kind == "ball2":
        num = np.sum(az * np.conj(n), axis=-1)
        den = 1j * np.sum(np.abs(n) ** 2, axis=-1)
    else:
        num = az * np.conj(n)
        den = 1j * np.abs(n) ** 2
    return float(np.min(np.abs(num / den)))
