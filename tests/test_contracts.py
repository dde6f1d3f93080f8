"""Cross-cutting contract and error-path checks."""

import dataclasses

import numpy as np
import pytest

from bergsmooth import finitediff
from bergsmooth.bergman import build_basis, kernel_eval, annulus_kernel_tail_bound
from bergsmooth.errors import (
    ConditioningError,
    ParameterError,
)
from bergsmooth.flow import build_chart
from bergsmooth.functions import AngularFamily, Holo1, Poly2, _partial
from bergsmooth.geometry import boundary_samples, canonical_fields, quadrature_grid
from bergsmooth.norms import directional_sobolev_norm, duality_sup, sobolev_norm, sobolev_norms
from bergsmooth.operators import field_op, iterated_commutator, kernel_op


def test_defining_function_vanishes_on_boundary(disk, annulus, ball2):
    for dom in (disk, annulus, ball2):
        p = boundary_samples(dom, 32)
        assert np.max(np.abs(dom.defining_function(p))) < 1e-12


def test_defining_gradient_nonvanishing_on_boundary(disk, annulus, ball2):
    for dom in (disk, annulus, ball2):
        p = boundary_samples(dom, 32)
        g = dom.defining_gradient_z(p)
        mag = np.sqrt(np.sum(np.abs(g) ** 2, axis=-1)) if dom.kind == "ball2" \
            else np.abs(g)
        assert np.min(mag) >= 1e-6


def test_expressions_immutable():
    op = field_op(None, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.power = 3


@pytest.mark.parametrize("q_panels, m_steps", [
    (0, 64), (-3, 64), (32, 0), (32, -5), (True, 64), (32, True), (32, 2.0), (1.5, 64)])
def test_chart_resolution_validated_at_construction(disk, q_panels, m_steps):
    # both constructors raise, so no sweep or hitting time ever runs on it
    with pytest.raises(ParameterError):
        build_chart(disk, q_panels, m_steps)
    with pytest.raises(ParameterError):
        dataclasses.replace(build_chart(disk), q_panels=q_panels, m_steps=m_steps)
    # the smallest resolution is valid
    assert build_chart(disk, np.int64(1), 1).m_steps == 1


def test_annulus_kernel_tail_bound_consistent(annulus):
    # doubling the truncation moves the value by less than the declared bound
    z, w = 0.8 + 0.1j, 0.7 - 0.2j
    t = abs(z * np.conj(w))
    basis = build_basis(annulus, 120)
    partial = {}
    for cut in (20, 40):
        val = sum(e.eval(np.array(z)) * np.conj(e.eval(np.array(w)))
                  for e in basis.elements if -cut <= e.power <= cut)
        partial[cut] = val
    bound = annulus_kernel_tail_bound(annulus.rho, t, 20, 20)
    assert abs(partial[40] - partial[20]) <= bound
    assert kernel_eval(annulus, z, w, tol=1e-12) == pytest.approx(partial[40], abs=1e-8)


def test_duality_conditioning_error(disk):
    # more basis elements than quadrature nodes makes the weighted Gram singular
    basis = build_basis(disk, 64)
    grid = quadrature_grid(disk, 4, 8)
    with pytest.raises(ConditioningError) as err:
        duality_sup([lambda z: np.ones_like(z)], 1, basis, grid)
    assert err.value.truncation == 64


def test_sobolev_order_cap(disk):
    with pytest.raises(ParameterError):
        sobolev_norm(Holo1.constant(1.0), 4, disk)


@pytest.mark.parametrize("f, k", [(Holo1.constant(1.0), -1), (lambda z: z, -2)],
                         ids=["analytic", "finite-difference"])
def test_sobolev_negative_orders_rejected(disk, f, k):
    # a negative order read 0.0, the norm of an empty sum
    for norm in (sobolev_norm, sobolev_norms):
        with pytest.raises(ParameterError):
            norm(f, k, disk)


def test_directional_sobolev_negative_order_rejected(disk):
    fam = AngularFamily([(2, lambda r: r**2)])
    with pytest.raises(ParameterError):
        directional_sobolev_norm(fam, canonical_fields(disk)["T0"], -1)


@pytest.mark.parametrize("beta", [(-1, 0), (0, -2), (1.5, 0), (1.0, 0)])
def test_derivative_orders_are_nonnegative_integers(beta):
    # (-1, 0) recursed until RecursionError in the stencils, wrapped to C[-1, j]
    # in Poly2 (3.978 at 0.1+0.2j) and read z**2 off Holo1's z; 1.5 was a bare
    # TypeError in Poly2
    z = np.array([0.1 + 0.2j])
    for f in (lambda: finitediff.partial_callable(lambda p: p**2, z, beta),
              lambda: Poly2([[1, 2], [3, 4]]).partial(beta, z),
              lambda: Holo1.from_coeffs([0, 1]).partial(beta, z),
              lambda: _partial(lambda p: p**2, beta, z),
              lambda: _partial(Poly2([[1, 2], [3, 4]]), beta, z)):
        with pytest.raises(ParameterError):
            f()


def test_numpy_integer_derivative_orders_accepted():
    z = np.array([0.1 + 0.2j])
    w = Poly2([[1, 2], [3, 4]])
    assert np.array_equal(w.partial((np.int64(1), np.int8(0)), z), w.partial((1, 0), z))


@pytest.mark.parametrize("power", [0, -1, 1.5])
def test_field_power_is_a_positive_integer(disk, power):
    # the tag claimed the power as its derivative count, and apply_op then died
    # in numpy's stack of no arrays
    with pytest.raises(ParameterError):
        field_op(canonical_fields(disk)["T0"], power)


def test_commutator_order_is_nonnegative(disk):
    # order -1 silently returned the kernel itself
    with pytest.raises(ParameterError):
        iterated_commutator(kernel_op(), canonical_fields(disk)["T0"], -1)
    assert iterated_commutator(kernel_op(), None, 0) == kernel_op()
