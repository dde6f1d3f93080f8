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
