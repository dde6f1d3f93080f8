import numpy as np

from bergsmooth.functions import Holo1, Poly2, apply_field
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
