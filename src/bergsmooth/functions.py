"""Smooth test-function classes with tracked derivatives.

Operators in this package act on functions that must be evaluable at
arbitrary interior points (trajectory quadrature lands between grid nodes).
Classes here carry whatever analytic derivative structure they have; anything
else falls back to high-order finite differences on the callable.
"""

from __future__ import annotations

import math

import numpy as np

from . import finitediff as fd

__all__ = [
    "SmoothFunction",
    "Poly2",
    "Holo1",
    "AngularFamily",
    "RadialHolo",
    "smoothstep",
    "smoothstep_prime",
    "apply_field",
]


def _psi(t):
    out = np.zeros_like(t, dtype=float)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _psi_prime(t):
    out = np.zeros_like(t, dtype=float)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def smoothstep(u):
    """C-infinity transition: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    u = np.asarray(u, dtype=float)
    a = _psi(u)
    b = _psi(1.0 - u)
    return a / (a + b + 1e-300)


def smoothstep_prime(u):
    u = np.asarray(u, dtype=float)
    a = _psi(u)
    b = _psi(1.0 - u)
    da = _psi_prime(u)
    db = -_psi_prime(1.0 - u)
    s = a + b + 1e-300
    return (da * s - a * (da + db)) / s**2


class SmoothFunction:
    """Base class: evaluable everywhere, derivatives by finite differences."""

    def __call__(self, points):
        raise NotImplementedError

    def partial(self, beta, points):
        return fd.partial_callable(self, points, beta)


class Poly2(SmoothFunction):
    """Complex-coefficient polynomial in the real coordinates (x, y).

    Coefficients are a matrix C with C[i, j] multiplying x^i y^j; all partial
    derivatives are exact.
    """

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))

    def __call__(self, points):
        z = np.asarray(points)
        return np.polynomial.polynomial.polyval2d(z.real, z.imag, self.coeffs)

    def _der(self, axis):
        c = self.coeffs
        if axis == 0:
            if c.shape[0] == 1:
                return Poly2(np.zeros((1, 1)))
            k = np.arange(1, c.shape[0])
            return Poly2(c[1:, :] * k[:, None])
        if c.shape[1] == 1:
            return Poly2(np.zeros((1, 1)))
        k = np.arange(1, c.shape[1])
        return Poly2(c[:, 1:] * k[None, :])

    def partial(self, beta, points):
        p = self
        for _ in range(beta[0]):
            p = p._der(0)
        for _ in range(beta[1]):
            p = p._der(1)
        return p(points)

    @staticmethod
    def random(rng, degree=3):
        c = (rng.normal(size=(degree + 1, degree + 1))
             + 1j * rng.normal(size=(degree + 1, degree + 1)))
        damp = np.array([[0.5 ** (i + j) for j in range(degree + 1)]
                         for i in range(degree + 1)])
        return Poly2(c * damp)


class Holo1(SmoothFunction):
    """Holomorphic function of one variable with closed-form z-derivatives.

    Stored as a factory deriv(j) -> callable for the j-th complex derivative.
    Cartesian partials follow from holomorphy: d_x = d/dz, d_y = i d/dz.
    """

    def __init__(self, deriv_factory, label="h"):
        self._deriv = deriv_factory
        self.label = label

    def __call__(self, points):
        return self._deriv(0)(np.asarray(points))

    def partial(self, beta, points):
        j = beta[0] + beta[1]
        return (1j) ** beta[1] * self._deriv(j)(np.asarray(points))

    @staticmethod
    def constant(c):
        def deriv(j):
            if j == 0:
                return lambda z: np.full_like(np.asarray(z, dtype=complex), c)
            return lambda z: np.zeros_like(np.asarray(z, dtype=complex))
        return Holo1(deriv, label=f"const({c})")

    @staticmethod
    def from_coeffs(coeffs):
        """Polynomial sum c_k z^k (k >= 0)."""
        coeffs = np.asarray(coeffs, dtype=complex)

        def deriv(j):
            c = coeffs
            for _ in range(j):
                c = np.polynomial.polynomial.polyder(c)
                if c.size == 0:
                    c = np.zeros(1, dtype=complex)
            return lambda z, c=c: np.polynomial.polynomial.polyval(np.asarray(z), c)
        return Holo1(deriv, label="poly")

    @staticmethod
    def laurent(coeff_map):
        """Sum of c_k z^k over integer k, negative powers included."""
        items = tuple(sorted(coeff_map.items()))

        def deriv(j):
            def ev(z):
                z = np.asarray(z, dtype=complex)
                out = np.zeros_like(z)
                for k, c in items:
                    fac = 1.0
                    for i in range(j):
                        fac *= (k - i)
                    if fac != 0.0:
                        out = out + c * fac * z ** (k - j)
                return out
            return ev
        return Holo1(deriv, label="laurent")

    @staticmethod
    def inverse_power(a, p):
        """(1 - a z)^(-p), singular at z = 1/a outside the closed disk for |a| < 1.

        A non-integer power goes by the polar form |w|^(-q) e^(-i q arg w), on the
        principal branch like the complex power and about three times faster; an
        integer power keeps the complex power, which multiplies exactly.
        """

        def deriv(j):
            fac = a**j * math.prod(p + i for i in range(j))

            def ev(z, fac=fac, q=p + j):
                w = 1.0 - a * np.asarray(z)
                if float(q).is_integer():
                    return fac * w ** (-q)
                arg = -q * np.arctan2(w.imag, w.real)
                return (fac * np.exp(-0.5 * q * np.log(w.real**2 + w.imag**2))
                        * (np.cos(arg) + 1j * np.sin(arg)))
            return ev
        return Holo1(deriv, label=f"(1-{a}z)^-{p}")


class AngularFamily(SmoothFunction):
    """Finite sum of separated terms u_m(|z|) e^{i m theta}.

    The rotation field acts diagonally on such sums, which keeps directional
    Sobolev norms exact for these test families.
    """

    def __init__(self, terms):
        # terms: list of (m, radial callable)
        self.terms = tuple(terms)

    def __call__(self, points):
        z = np.asarray(points)
        r = np.abs(z)
        th = np.angle(z)
        out = np.zeros_like(z, dtype=complex)
        for m, u in self.terms:
            out = out + u(r) * np.exp(1j * m * th)
        return out

    def rotation_applied(self, multiplier_fn):
        """d/dtheta term-by-term, with the radial multiplier q(r) riding along."""
        return AngularFamily([(m, lambda r, u=u, m=m: 1j * m * multiplier_fn(r) * u(r))
                              for m, u in self.terms])


class RadialHolo(SmoothFunction):
    """Sum of products u_i(|z|) * h_i(z) with h_i tracked holomorphic.

    Closed under the rotation field, which differentiates only the holomorphic
    factor.
    """

    def __init__(self, pairs):
        # pairs: list of (radial callable, Holo1)
        self.pairs = tuple((u, h) for u, h in pairs)

    def __call__(self, points):
        z = np.asarray(points)
        r = np.abs(z)
        out = np.zeros_like(z, dtype=complex)
        for u, h in self.pairs:
            out = out + u(r) * h(z)
        return out

    def rotation_applied(self):
        """Exact d/dtheta: the theta-derivative of u(r) h(z) is u(r) * i z h'(z)."""
        return RadialHolo([(u, _i_z_dh(h)) for u, h in self.pairs])


def _i_z_dh(h):
    """The tracked holomorphic function i z h'(z)."""
    def deriv(j):
        # d^j/dz^j [z h'] = z h^(j+1) + j h^(j)
        def ev(z, j=j):
            z = np.asarray(z)
            out = z * h._deriv(j + 1)(z)
            if j > 0:
                out = out + j * h._deriv(j)(z)
            return 1j * out
        return ev
    return Holo1(deriv, label=f"i*z*({h.label})'")


def apply_field(field, f, points, h=fd.FD_STEP):
    """Apply a vector field to a scalar function: a . df/dz + b . df/dzbar.

    Uses tracked derivatives when the function has them, finite differences
    of step h otherwise.  Planar domains only; the ball uses per-coordinate
    partials.
    """
    points = np.asarray(points)
    a = np.asarray(field.z_coeffs(points))
    b = np.asarray(field.zbar(points))
    if field.domain.kind == "ball2":
        raise NotImplementedError("field application on the ball is analytic-only")
    return _field_formula(a, b, _partial(f, (1, 0), points, h), _partial(f, (0, 1), points, h))


def _field_formula(a, b, fx, fy):
    """a df/dz + b df/dzbar from the cartesian partials fx, fy of f."""
    return a * (0.5 * (fx - 1j * fy)) + b * (0.5 * (fx + 1j * fy))


def _partial(f, beta, points, h=fd.FD_STEP):
    """D^beta f: tracked derivatives when f is a SmoothFunction, finite differences
    of step h otherwise."""
    if isinstance(f, SmoothFunction):
        return np.asarray(f.partial(beta, points), dtype=complex)
    return fd.partial_callable(f, points, beta, h)
