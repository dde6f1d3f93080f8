"""Flow-kernel operator expressions and their evaluation by jets.

An expression is built from the flow kernel, powers of a first-order field,
compositions, sums, and commutators with a first-order field; apply_op
evaluates one on points.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .finitediff import FD_STEP
from .flow import CUTOFF_END, CollarChart, _chain_kernel, _collar_quadrature
from .functions import _field_formula, _partial
from .geometry import VectorField
from .norms import _multi_indices

__all__ = [
    "Antideriv",
    "FieldPower",
    "Compose",
    "OpSum",
    "kernel_op",
    "field_op",
    "compose",
    "op_sum",
    "commutator",
    "iterated_commutator",
    "apply_op",
]


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Antideriv:
    """Kernel operator: integral of g(flow(s, x)) over [-1, 0]."""


@dataclass(frozen=True)
class FieldPower:
    fld: VectorField
    power: int


@dataclass(frozen=True)
class Compose:
    factors: tuple


@dataclass(frozen=True)
class OpSum:
    terms: tuple   # of (scalar, expression)


def kernel_op() -> Antideriv:
    return Antideriv()


def field_op(fld: VectorField, power: int = 1) -> FieldPower:
    if not isinstance(power, numbers.Integral) or power < 1:
        raise ParameterError(f"a field power is an integer >= 1, got {power!r}")
    return FieldPower(fld, power)


def compose(*factors) -> Compose:
    flat = []
    for f in factors:
        if isinstance(f, Compose):
            flat.extend(f.factors)
        else:
            flat.append(f)
    return Compose(tuple(flat))


def op_sum(*terms) -> OpSum:
    return OpSum(tuple(terms))


def commutator(expr_a, fld: VectorField) -> OpSum:
    """[A, X] = A o X - X o A with the first-order field X = field_op(fld)."""
    x = field_op(fld)
    return op_sum((1.0, compose(expr_a, x)), (-1.0, compose(x, expr_a)))


def iterated_commutator(expr_a, fld: VectorField, order: int):
    """order-fold commutator [...[A, X], X]; order 0 is A itself."""
    if not isinstance(order, numbers.Integral) or order < 0:
        raise ParameterError(f"a commutator order is an integer >= 0, got {order!r}")
    cur = expr_a
    for _ in range(order):
        cur = commutator(cur, fld)
    return cur


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def apply_op(expr, g, points, chart: CollarChart):
    """Evaluate an operator expression applied to g at the given points of the
    closed disk.

    Factors are evaluated left to right as jet requests: each asks the factors
    to its right for the values and cartesian partials D^beta, |beta| <= n,
    that it needs.  A field power applies a D_z + b D_zbar by Leibniz's rule,
    and a kernel factor integrates the jet along RK4 backward trajectories at
    the chart's resolution, each partial of order |beta| weighted by
    R_s^|beta|, the derivative of the RK4 map p -> R_s p of the linear disk
    flow (the chain rule).  Runs of kernel factors collapse to one
    B-spline kernel of depth <= 3 by the flow group property.  Finite
    differences are taken only at the leaves: of g when it has no tracked
    partials (a SmoothFunction's are used), and of the field coefficients.
    Each distinct request, the factors still to apply, the kernels passed on
    the way to them and the order, is computed once within the call and at the
    order asked, so a kernel sweep shared by several terms of a sum runs once;
    the leaf jets of g are the requests with no factors left.  Nothing is kept
    past the call.

    g must vanish from hit time CUTOFF_END on wherever a kernel acts on it, that
    is, carry the chart's cutoff.  A kernel evaluates its integrand only where
    the hit time is below its support bound (_support): CUTOFF_END when the
    leaf jets of g below it are of order 0, and past it by the reach of the
    leaf's finite-difference stencils otherwise, since a stencil centred past
    CUTOFF_END still reads g inside the cutoff's support.  The chain rule needs
    the linear flow of the disk: a chart of any other domain raises
    ContractError, and a kernel, like every collar sweep, refuses a point
    outside the closed disk.
    """
    if chart.domain.kind != "disk":
        raise ContractError("operator expressions are evaluated on the disk alone")
    return _Jets(chart, g).jet((expr,), np.asarray(points, dtype=complex), 0)[..., 0]


def _index(beta) -> int:
    """Position of beta along a jet's trailing axis, laid out by _multi_indices: by
    total order and then by the x order, so a jet of lower order is a prefix."""
    total = beta[0] + beta[1]
    return total * (total + 1) // 2 + beta[0]


class _Jets:
    """The jets of one apply_op call, each kept under its request (factors, path,
    order): the factors still to apply; the kernel path, the depth of each kernel
    group between the top and them; and the order of the jet.  Within one call
    the points are fixed, so the path fixes the points of a request.  Each
    request is computed at the order asked, so a request asked at two orders is
    computed twice, and a jet's bits do not depend on what was asked before it.
    The leaf jets of g are the requests with no factors left.  Every jet is one
    array filled in place, partial by partial (leaves), term by term (sums) or
    entry by entry (fields and kernels), with no stacked copies.  Nothing
    outlives the call."""

    def __init__(self, chart: CollarChart, g):
        self.chart = chart
        self.g = g
        self.memo = {}

    def jet(self, factors, points, order, path=()):
        """D^beta of (factors[0] o ... o factors[-1])(g) at points, |beta| <= order,
        along a trailing axis laid out by _multi_indices."""
        key = (factors, path, order)
        if key not in self.memo:
            self.memo[key] = self.compute(factors, points, order, path)
        return self.memo[key]

    def compute(self, factors, points, order, path):
        if not factors:
            return self.leaf(self.g, points, order)
        f, rest = factors[0], factors[1:]
        if isinstance(f, Compose):
            return self.jet(f.factors + rest, points, order, path)
        if isinstance(f, OpSum):
            out = np.zeros(points.shape + (len(_multi_indices(order)),), dtype=complex)
            for c, term in f.terms:
                out += c * self.jet((term,) + rest, points, order, path)
            return out
        if isinstance(f, Antideriv):
            return self.kernel(factors, points, order, path)
        if isinstance(f, FieldPower):
            top = order + f.power - 1
            jet = self.jet(rest, points, top + 1, path)
            coeffs = [self.leaf(c, points, top) for c in (f.fld.z_coeffs, f.fld.zbar)]
            for n in range(top, order - 1, -1):
                jet = _field_jet(*coeffs, jet, n)
            return jet
        raise ContractError(f"cannot evaluate factor {f!r}")

    def kernel(self, factors, points, order, path):
        """The leftmost group of a run of kernels: runs collapse in groups of at
        most three from the right."""
        run = 1
        while run < len(factors) and isinstance(factors[run], Antideriv):
            run += 1
        depth = run % 3 or 3
        kern = lambda s: _chain_kernel(depth, s)
        rest = factors[depth:]

        def integrand(pos, tau, shared):
            inner = self.jet(rest, pos, order, path + (depth,))
            return inner if order else inner[..., 0]
        orders = [sum(beta) for beta in _multi_indices(order)] if order else None
        out = _collar_quadrature(self.chart, points, [(kern, integrand)],
                                 support=_support(self.chart, _leaf_order(rest, order)),
                                 orders=orders, per_point=True)[0]
        return out if order else out[..., None]

    def leaf(self, f, points, order):
        """The jet of a leaf, g or a field coefficient, at points: one complex
        array filled partial by partial.  A real partial is cast to complex here
        rather than in the first product with a complex jet."""
        betas = _multi_indices(order)
        jet = np.empty(points.shape + (len(betas),), dtype=complex)
        for i, beta in enumerate(betas):
            jet[..., i] = _partial(f, beta, points)
        return jet


def _leaf_order(factors, order):
    """The highest order at which the request (factors, order) asks for the leaf jet
    of g: each field power on the way raises the order by its power, and kernels
    pass it on."""
    if not factors:
        return order
    f, rest = factors[0], factors[1:]
    if isinstance(f, Compose):
        return _leaf_order(f.factors + rest, order)
    if isinstance(f, OpSum):
        return max((_leaf_order((term,) + rest, order) for _, term in f.terms), default=order)
    return _leaf_order(rest, order + f.power if isinstance(f, FieldPower) else order)


def _support(chart: CollarChart, n: int) -> float:
    """The hit time from which a kernel's integrand is exactly zero, for a g that
    vanishes from hit time CUTOFF_END on and a leaf jet of g of order n.

    At order 0 g is read at the flowed points alone: CUTOFF_END.  At order n the
    leaf's nested 5-point stencils (finitediff.partial_callable) read g up to
    2 n FD_STEP away from a point, so the bound is the hit time past which no
    stencil point reaches below CUTOFF_END: that of the radius where the cutoff
    ends less the reach.  Without the margin a stencil reaches back into the
    cutoff's support and the dropped pairs are not zero."""
    if n == 0:
        return CUTOFF_END
    return float(chart.hit_time_radial(chart.flow_radius(-CUTOFF_END, 1.0) - 2 * n * FD_STEP))


def _field_jet(a, b, jet, n):
    """Jet of order n of a D_z f + b D_zbar f from the jet of f of order n + 1 and
    the coefficient jets of order >= n, by Leibniz's rule."""
    out = np.zeros(jet.shape[:-1] + (len(_multi_indices(n)),), dtype=complex)
    for gx, gy in _multi_indices(n):
        for dx in range(gx + 1):
            for dy in range(gy + 1):
                rx, ry = gx - dx, gy - dy
                fx, fy = jet[..., _index((rx + 1, ry))], jet[..., _index((rx, ry + 1))]
                d = _index((dx, dy))
                out[..., _index((gx, gy))] += (math.comb(gx, dx) * math.comb(gy, dy)
                                               * _field_formula(a[..., d], b[..., d], fx, fy))
    return out
