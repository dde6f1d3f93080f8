"""Smooth test-function classes with tracked derivatives.

Operators in this package act on functions that must be evaluable at
arbitrary interior points (trajectory quadrature lands between grid nodes).
Classes here carry whatever analytic derivative structure they have; anything
else falls back to high-order finite differences on the callable.

Every polynomial of these classes, `Poly2`'s and `Holo1`'s, is evaluated by one
Horner's rule, `_horner`, with falling-factorial derivative coefficients, in
place after its first product; `bergman` evaluates its expansions against a
table of powers instead.

A `RadialHolo` reads |z|, its radial profiles and the derivatives of its
holomorphic factors through a `_Shared` table, so that the integrands of one
sweep block evaluate each factor they share once: |z| and the profiles once
per block, and the derivatives of each input once while its integrands follow
one another.  The collar cutoff and its rate come as one pair of profiles from
one hit time, by `_smoothstep_pair`; `smoothstep` alone gives the value.
"""

from __future__ import annotations

import math

import numpy as np

from . import finitediff as fd
from .geometry import PolarEvalGrid

__all__ = [
    "SmoothFunction",
    "Poly2",
    "Holo1",
    "AngularFamily",
    "RadialHolo",
    "smoothstep",
    "apply_field",
]


def _psi(t):
    pos = t > 0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def smoothstep(u):
    """C-infinity transition: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    u = np.asarray(u, dtype=float)
    a = _psi(u)
    b = _psi(1.0 - u)
    return a / (a + b + 1e-300)


def _smoothstep_pair(u):
    """smoothstep and its slope at u, from the same two exponentials a = psi(u) and
    b = psi(1 - u), with psi'(t) = psi(t) / t^2."""
    u = np.asarray(u, dtype=float)
    v = 1.0 - u
    a = _psi(u)
    b = _psi(v)
    da = a / np.where(u > 0, u, 1.0) ** 2
    db = -(b / np.where(v > 0, v, 1.0) ** 2)
    s = a + b + 1e-300
    return a / s, (da * s - a * (da + db)) / s**2


def _falling(k: int, j: int) -> float:
    """The factor k(k-1)...(k-j+1) that the j-th derivative brings down from z^k."""
    fac = 1.0
    for i in range(j):
        fac *= (k - i)
    return fac


# The polynomial evaluator of Poly2 and Holo1.
def _horner(xs, coeffs):
    """sum a_e * prod_i xs[i]**e_i over a map from nonnegative exponent tuples e
    to coefficients a_e, by Horner's rule in each coordinate in turn; in the last
    coordinate the inner coefficients are the a_e themselves.

    The first product makes a fresh array, of the dtype of all the coordinates and
    coefficients taken together; every later product and sum is made in place in
    it, so no input is ever written.
    """
    rest = xs[1:]
    by_power = {}
    for e, a in coeffs.items():
        by_power.setdefault(e[0], {})[e[1:]] = a
    powers = sorted(by_power, reverse=True)
    inner = (_horner(rest, by_power[p]) if rest else by_power[p][()] for p in powers)
    out = next(inner)
    if powers[0]:
        out = np.multiply(out, xs[0], dtype=np.result_type(*xs, *coeffs.values()))
    for p in range(powers[0] - 1, -1, -1):
        if p in by_power:
            out += next(inner)
        if p:
            out *= xs[0]
    return out


def _polynomial(xs, coeffs):
    """_horner as a complex array of the coordinates' shape: zeros for no terms,
    and a constant broadcast, the only result that needs a new array."""
    shape = np.shape(xs[0])
    if not coeffs:
        return np.zeros(shape, dtype=complex)
    out = _horner(xs, coeffs)
    return np.full(shape, out, dtype=complex) if np.ndim(out) == 0 else out


class _Shared:
    """Values that several evaluations at the same points share, each computed at
    its first read and kept: |z|, the radial profiles, and the derivatives of the
    holomorphic factors, keyed (base, level, j) (see Holo1.base).

    focus(bases), called at the start of each RadialHolo evaluation, drops the
    held derivatives of every base not in bases: the derivatives of one input
    live while its evaluations follow one another, and |z| and the profiles for
    the whole table.  The table belongs to its points: one per sweep block, made
    and dropped by `flow._collar_quadrature`, or one per call of an evaluation
    given none.
    """

    def __init__(self):
        self.values = {}

    def get(self, key, compute):
        if key not in self.values:
            self.values[key] = compute()
        return self.values[key]

    def focus(self, bases):
        self.values = {key: value for key, value in self.values.items()
                       if not isinstance(key, tuple) or key[0] in bases}


class SmoothFunction:
    """Base class: evaluable everywhere, derivatives by finite differences."""

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
        return self._derivative((0, 0), points)

    def partial(self, beta, points):
        return self._derivative(fd.derivative_order(beta), points)

    def _derivative(self, beta, points):
        """D^beta by Horner's rule, y outermost and x inside as numpy's polyval2d
        nests them: C[i, j] i(i-1)...(i-bx+1) j(j-1)...(j-by+1) at x^(i-bx) y^(j-by).

        The coordinates are cast to complex once, the cast numpy's polyval2d makes
        inside each of its complex-by-real steps, so the values are its own."""
        bx, by = beta
        z = np.asarray(points)
        c = self.coeffs
        terms = {(j - by, i - bx): c[i, j] * (_falling(i, bx) * _falling(j, by))
                 for i in range(bx, c.shape[0]) for j in range(by, c.shape[1])}
        return _polynomial([z.imag.astype(complex), z.real.astype(complex)], terms)

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

    def __init__(self, deriv_factory):
        self._deriv = deriv_factory

    def __call__(self, points):
        return self._read(0, np.asarray(points), _Shared())

    def partial(self, beta, points):
        bx, by = fd.derivative_order(beta)
        return (1j) ** by * self._read(bx + by, np.asarray(points), _Shared())

    # the j-th derivative read through a _Shared table, keyed (base, level, j):
    # rotation_applied's level n over a base h is level n, h itself level 0
    level = 0

    @property
    def base(self):
        return self

    def _read(self, j, z, shared):
        return shared.get((self.base, self.level, j), lambda: self._compute(j, z, shared))

    def _compute(self, j, z, shared):
        return self._deriv(j)(z)

    @staticmethod
    def constant(c):
        return Holo1.laurent({0: c})

    @staticmethod
    def from_coeffs(coeffs):
        """Polynomial sum c_k z^k (k >= 0)."""
        return Holo1.laurent(dict(enumerate(coeffs)))

    @staticmethod
    def laurent(coeff_map):
        """Sum of c_k z^k over integer k, negative powers included.

        The j-th derivative has c_k k(k-1)...(k-j+1) at power k - j, evaluated by
        Horner's rule in z and, only when a power is negative, in 1/z.
        """
        items = [(k, complex(c)) for k, c in coeff_map.items()]

        def deriv(j):
            terms = {k - j: c * _falling(k, j) for k, c in items if _falling(k, j) != 0.0}
            negative = any(p < 0 for p in terms)
            exps = {((max(p, 0), max(-p, 0)) if negative else (p,)): a
                    for p, a in terms.items()}

            def ev(z):
                z = np.asarray(z)
                return _polynomial([z, 1.0 / z] if negative else [z], exps)
            return ev
        return Holo1(deriv)

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
                mag = fac * np.exp(-0.5 * q * np.log(w.real**2 + w.imag**2))
                out = np.empty(np.shape(w), dtype=complex)
                np.multiply(mag, np.cos(arg), out=out.real)
                np.multiply(mag, np.sin(arg), out=out.imag)
                return out
            return ev
        return Holo1(deriv)


class AngularFamily(SmoothFunction):
    """Finite sum of separated terms u_m(|z|) e^{i m theta}.

    The rotation field acts diagonally on such sums, which keeps directional
    Sobolev norms exact for these test families.  On a tensor polar grid the sum
    is sampled on the grid's axes (`on_polar_axes`, through `_on_grid`); a call
    evaluates it at arbitrary points.
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

    def on_polar_axes(self, r, theta):
        """The sum at the nodes r e^{i theta} of a tensor polar grid, shape
        (r.size, theta.size): each u_m once per radius and each e^{i m theta} once
        per angle, combined as an outer product."""
        out = np.zeros((r.size, theta.size), dtype=complex)
        for m, u in self.terms:
            out += np.multiply.outer(u(r), np.exp(1j * m * theta))
        return out

    def rotation_applied(self, multiplier_fn):
        """d/dtheta term-by-term, with the radial multiplier q(r) riding along."""
        return AngularFamily([(m, lambda r, u=u, m=m: 1j * m * multiplier_fn(r) * u(r))
                              for m, u in self.terms])


class RadialHolo(SmoothFunction):
    """Sum of products u_i(|z|) * h_i(z), the profiles u_i read off one radial
    callable, profiles, that returns them all (the chart's cutoff and its rate).

    h_i is a tracked holomorphic Holo1, on which the rotation field acts by
    differentiating it alone, or any other function of the points, evaluated as
    it is (C1's and C2's seeded polynomials).  An evaluation reads |z|, the
    profiles (keyed by the callable, so a bound method of one object is one key)
    and each Holo1 through shared, the `_Shared` table of the points, and so
    shares them with every other RadialHolo read through the same table; given
    none, it makes its own.  It first focuses the table on the bases of its
    Holo1 factors, so a table read by the evaluations of one input after another
    holds one input's derivatives.
    """

    def __init__(self, profiles, pairs):
        # pairs: list of (index into the profiles, Holo1 or callable)
        self.profiles = profiles
        self.pairs = tuple(pairs)

    def __call__(self, points, shared=None):
        z = np.asarray(points)
        if shared is None:
            shared = _Shared()
        shared.focus({h.base for _, h in self.pairs if isinstance(h, Holo1)})
        r = shared.get("|z|", lambda: np.abs(z))
        u = shared.get(self.profiles, lambda: self.profiles(r))
        out = np.zeros_like(z, dtype=complex)
        for i, h in self.pairs:
            out += u[i] * (h._read(0, z, shared) if isinstance(h, Holo1) else h(z))
        return out

    def rotation_applied(self):
        """Exact d/dtheta: the theta-derivative of u(r) h(z) is u(r) * i z h'(z), for
        a sum whose every h is a Holo1."""
        return RadialHolo(self.profiles, [(i, _ThetaDerivative(h)) for i, h in self.pairs])


class _ThetaDerivative(Holo1):
    """The tracked holomorphic function i z h'(z), d/dtheta of h.

    Level n of rotation_applied over a base h reads the derivatives of level
    n - 1 through the table, keyed (base, n, j): the chains rotated from one base
    share every level, and each derivative of the base is computed once.
    """

    def __init__(self, inner):
        self.inner = inner
        self.level = inner.level + 1

    @property
    def base(self):
        return self.inner.base

    def _compute(self, j, z, shared):
        # d^j/dz^j [z h'] = z h^(j+1) + j h^(j)
        out = z * self.inner._read(j + 1, z, shared)
        if j > 0:
            out = out + j * self.inner._read(j, z, shared)
        return 1j * out


def _on_grid(f, grid):
    """f at the nodes of a quadrature or evaluation grid, in the shape of its nodes:
    an AngularFamily on a grid with polar axes (a PolarEvalGrid, a planar
    QuadratureGrid) sampled on the axes, anything else called at the nodes."""
    polar = isinstance(grid, PolarEvalGrid)
    if isinstance(f, AngularFamily) and grid.r is not None:
        values = f.on_polar_axes(grid.r, grid.theta)
        return values if polar else values.ravel()
    return np.asarray(f(grid.nodes() if polar else grid.nodes), dtype=complex)


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
    of step h otherwise.  ParameterError for an order that is negative or not an
    integer."""
    beta = fd.derivative_order(beta)
    if isinstance(f, SmoothFunction):
        return np.asarray(f.partial(beta, points), dtype=complex)
    return fd.partial_callable(f, points, beta, h)
