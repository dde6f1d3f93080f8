import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from bergsmooth.functions import (Holo1, Poly2, _psi, _smoothstep_pair, apply_field,
                                  smoothstep)
from bergsmooth.geometry import canonical_fields


def test_apply_field_takes_two_partials(disk, monkeypatch):
    # both Wirtinger derivatives come from one (fx, fy) pair
    calls = []
    exact = Poly2.partial

    def counted(self, beta, points):
        calls.append(tuple(beta))
        return exact(self, beta, points)

    monkeypatch.setattr(Poly2, "partial", counted)
    w = Poly2([[0.3, 1j, 0.2], [1.0, -0.5, 0.0], [0.25j, 0.0, 0.0]])
    pts = np.array([0.1 + 0.2j, -0.4 + 0.3j, 0.6 - 0.1j, 0.05j])
    fx, fy = exact(w, (1, 0), pts), exact(w, (0, 1), pts)
    for fld in canonical_fields(disk).values():
        calls.clear()
        out = apply_field(fld, w, pts)
        assert sorted(calls) == [(0, 1), (1, 0)]
        a, b = np.asarray(fld.z_coeffs(pts)), np.asarray(fld.zbar(pts))
        assert np.array_equal(out, a * (0.5 * (fx - 1j * fy)) + b * (0.5 * (fx + 1j * fy)))


def test_apply_field_holomorphic_has_no_zbar_part(disk):
    h = Holo1.from_coeffs([0.5, 1.0, -0.3j])
    pts = np.array([0.1 + 0.2j, -0.4 + 0.3j])
    for fld in canonical_fields(disk).values():
        a = np.asarray(fld.z_coeffs(pts))
        b = np.asarray(fld.zbar(pts))
        expect = a * h._deriv(1)(pts) + b * np.zeros_like(pts, dtype=complex)
        assert np.array_equal(apply_field(fld, h, pts), expect)


def _inverse_power_reference(a, p, j, z):
    fac = a**j * np.prod([p + i for i in range(j)])
    return fac * (1.0 - a * z) ** (-(p + j))


def test_inverse_power_matches_complex_power(rng):
    # the polar form for non-integer powers, down to the boundary where |1 - a z| is small
    z = np.sqrt(rng.uniform(0.0, 1.0, 4000)) * np.exp(2j * np.pi * rng.uniform(size=4000))
    z = np.concatenate([z, 0.9999 * np.exp(1j * np.linspace(-0.01, 0.01, 41))])
    for a in (0.9, 0.999):
        h = Holo1.inverse_power(a, 0.75)
        for j in range(3):  # powers 0.75, 1.75, 2.75
            ref = _inverse_power_reference(a, 0.75, j, z)
            assert np.max(np.abs(h.partial((j, 0), z) - ref) / np.abs(ref)) < 1e-14
        h = Holo1.inverse_power(a, 1.0)
        for j in range(3):
            assert np.array_equal(h.partial((j, 0), z), _inverse_power_reference(a, 1.0, j, z))


# Poly2 and Holo1's polynomials against numpy's polynomial module and explicit
# powers, references that share no code with the package's Horner evaluator

PLANE_POINTS = np.array([0.3 - 0.7j, -0.5 + 0.2j, -0.9 - 0.4j, 0.0, 1.2 + 0.5j, -0.05j])
SCALAR_POINT = np.complex128(-0.4 - 0.6j)


def _poly2_cases(rng):
    # square matrices of degrees 0-3, and a rectangular one so x and y cannot swap
    return [Poly2.random(rng, degree=d) for d in range(4)] + [
        Poly2(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))]


def _close(got, ref, rtol):
    """Within rtol of the reference, relative to its largest value."""
    return np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def _der_matrix(c, beta):
    """The coefficient matrix of D^beta, one exact differentiation at a time."""
    for axis, order in enumerate(beta):
        for _ in range(order):
            c = P.polyder(c, axis=axis) if c.shape[axis] > 1 else np.zeros((1, 1))
    return c


@pytest.mark.parametrize("points", [PLANE_POINTS, SCALAR_POINT], ids=["array", "scalar"])
def test_poly2_values_and_first_partials_match_polyval2d(rng, points):
    for w in _poly2_cases(rng):
        assert np.array_equal(w(points), P.polyval2d(points.real, points.imag, w.coeffs))
        for beta in ((0, 0), (1, 0), (0, 1)):
            ref = P.polyval2d(points.real, points.imag, _der_matrix(w.coeffs, beta))
            assert np.array_equal(w.partial(beta, points), ref)


def test_poly2_second_partials_match_polyval2d(rng):
    for w in _poly2_cases(rng):
        for beta in ((2, 0), (1, 1), (0, 2)):
            ref = P.polyval2d(PLANE_POINTS.real, PLANE_POINTS.imag, _der_matrix(w.coeffs, beta))
            assert _close(w.partial(beta, PLANE_POINTS), ref, 1e-15)


def test_poly2_partial_above_degree_is_zero():
    w = Poly2([[1.0, 2.0j], [0.5, -1.0]])
    pts = PLANE_POINTS.reshape(2, 3)
    for beta in ((2, 0), (0, 2), (3, 1)):
        out = w.partial(beta, pts)
        assert out.shape == pts.shape and np.array_equal(out, np.zeros(pts.shape))


def test_from_coeffs_matches_polyval_and_polyder(rng):
    a = rng.normal(size=7) + 1j * rng.normal(size=7)
    h = Holo1.from_coeffs(a)
    assert np.array_equal(h(PLANE_POINTS), P.polyval(PLANE_POINTS, a))
    for j in range(1, 4):
        ref = P.polyval(PLANE_POINTS, P.polyder(a, j))
        assert _close(h.partial((j, 0), PLANE_POINTS), ref, 1e-15)


def test_laurent_matches_explicit_powers(rng):
    coeff = {k: rng.normal() + 1j * rng.normal() for k in range(-3, 4)}
    h = Holo1.laurent(coeff)
    r = rng.uniform(0.5, 1.0, 200)
    z = r * np.exp(2j * np.pi * rng.uniform(size=200))
    for j in range(4):
        ref = sum(c * math.prod(k - i for i in range(j)) * z ** (k - j)
                  for k, c in coeff.items())
        assert _close(h.partial((j, 0), z), ref, 1e-14)


def test_constant_derivatives_are_exact_zeros():
    h = Holo1.constant(2.5 - 1.0j)
    pts = PLANE_POINTS.reshape(3, 2)
    assert np.array_equal(h(pts), np.full(pts.shape, 2.5 - 1.0j))
    for beta in ((1, 0), (0, 1), (2, 1), (0, 3)):
        assert np.array_equal(h.partial(beta, pts), np.zeros(pts.shape))


def test_polynomial_without_negative_powers_evaluates_at_zero():
    # sup_weighted_norm's disk grid includes r = 0; no 1/z may be formed there
    z = np.array([0.0, 0.5j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (Holo1.from_coeffs([1.0, 2.0, 3.0]), Holo1.laurent({0: 1.0, 2: 1j}),
                  Holo1.constant(1.0)):
            for j in range(3):
                assert np.all(np.isfinite(h.partial((j, 0), z)))
        assert Holo1.from_coeffs([1.0, 2.0, 3.0])(z)[0] == 1.0


def _reference_psi_prime(t):
    pos = t > 0
    t = np.where(pos, t, 1.0)
    return np.where(pos, np.exp(-1.0 / t) / t**2, 0.0)


def _reference_smoothstep_prime(u):
    # the slope as it was computed before the pair evaluator, by psi' in closed form
    u = np.asarray(u, dtype=float)
    a = _psi(u)
    b = _psi(1.0 - u)
    da = _reference_psi_prime(u)
    db = -_reference_psi_prime(1.0 - u)
    s = a + b + 1e-300
    return (da * s - a * (da + db)) / s**2


def test_smoothstep_pair_matches_the_closed_form_slope_bitwise():
    # on [-1, 2], with 0 and 1 exactly, their neighbouring doubles and small
    # positive u down to 1e-150; below about 1e-154, psi(u) and u^2 both
    # underflow and the closed form itself reads 0 / 0 (the cutoff never gets
    # there: its argument has a spacing of 1.1e-16 near 0)
    u = np.concatenate([np.linspace(-1.0, 2.0, 300_001), [0.0, 1.0],
                        np.nextafter([0.0, 1.0, 1.0], [-1.0, 0.0, 2.0]),
                        np.geomspace(1e-150, 1e-1, 2000), 1.0 - np.geomspace(1e-16, 1e-1, 2000)])
    value, slope = _smoothstep_pair(u)
    assert np.array_equal(value, smoothstep(u))
    assert np.array_equal(slope, _reference_smoothstep_prime(u))
    ends, flat = _smoothstep_pair(np.array([0.0, 1.0]))
    assert ends.tolist() == [0.0, 1.0] and flat.tolist() == [0.0, 0.0]
