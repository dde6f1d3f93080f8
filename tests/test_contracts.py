"""Cross-cutting contract and error-path checks."""

import dataclasses

import numpy as np
import pytest

from bergsmooth.bergman import build_basis, kernel_eval, annulus_kernel_tail_bound
from bergsmooth.errors import (
    ConditioningError,
    FlowEscapeError,
    ParameterError,
)
from bergsmooth.flow import build_chart, flow
from bergsmooth.functions import Holo1
from bergsmooth.geometry import boundary_samples, quadrature_grid
from bergsmooth.norms import duality_sup, sobolev_norm
from bergsmooth.operators import kernel_op


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
    op = kernel_op(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.mu = 2


def test_flow_escape_error(disk):
    chart = build_chart(disk)
    with pytest.raises(FlowEscapeError):
        flow(chart.field, 3.0, np.array([0.9 + 0.0j]), escape_bound=0.5)


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
