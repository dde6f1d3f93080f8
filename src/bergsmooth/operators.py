"""Expression algebra over flow-kernel operators, field powers, compositions,
sums, and commutators with a first-order field.

Every expression carries a class tag: a set of memberships (alpha, nu),
where alpha is the tuple of kernel time-weight exponents (its length is the
number of kernel factors) and nu counts differentiations.  The tag of a
commutator is assigned from the commutator calculus, not recomputed; its
numerical content is the uniform-in-weight ratio bound measured by
weighted_ratio_sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ContractError, DegenerateInputError, ParameterError
from .flow import CollarChart, _chain_kernel, _collar_quadrature, _value_shape
from .functions import _field_formula, _partial
from .geometry import PolarEvalGrid, VectorField
from .norms import _multi_indices

__all__ = [
    "OperatorExpr",
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
    "weighted_ratio_sweep",
    "collar_ratio_grid",
    "hardy_line_case",
]


# ---------------------------------------------------------------------------
# class tags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassTag:
    """Sum-of-classes membership: tuple of (alpha, nu) alternatives."""

    memberships: tuple

    @property
    def s_gain(self) -> int:
        """Weight-power gain k of the mapping class: min over memberships."""
        return min(len(a) + sum(a) for a, _ in self.memberships)

    @property
    def s_deriv(self) -> int:
        """Derivative count nu of the mapping class: max over memberships."""
        return max(nu for _, nu in self.memberships)

    def combined(self, other: "ClassTag") -> "ClassTag":
        mems = tuple(sorted(set(
            (a1 + a2, n1 + n2)
            for a1, n1 in self.memberships for a2, n2 in other.memberships)))
        return ClassTag(mems)

    def union(self, other: "ClassTag") -> "ClassTag":
        return ClassTag(tuple(sorted(set(self.memberships) | set(other.memberships))))


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorExpr:
    tag_override: ClassTag | None = dc_field(default=None, kw_only=True)

    @property
    def tag(self) -> ClassTag:
        if self.tag_override is not None:
            return self.tag_override
        return self._structural_tag()


@dataclass(frozen=True)
class Antideriv(OperatorExpr):
    """Kernel operator: integral of s^mu g(flow(s, x)) over [-1, 0]."""

    mu: int = 0

    def _structural_tag(self):
        return ClassTag((((self.mu,), 0),))


@dataclass(frozen=True)
class FieldPower(OperatorExpr):
    fld: VectorField = None
    power: int = 1

    def _structural_tag(self):
        return ClassTag((((), self.power),))


@dataclass(frozen=True)
class Compose(OperatorExpr):
    factors: tuple = ()

    def _structural_tag(self):
        tag = ClassTag((((), 0),))
        for f in self.factors:
            tag = tag.combined(f.tag)
        return tag


@dataclass(frozen=True)
class OpSum(OperatorExpr):
    terms: tuple = ()   # of (scalar, OperatorExpr)

    def _structural_tag(self):
        if not self.terms:
            return ClassTag((((), 0),))
        tag = self.terms[0][1].tag
        for _, t in self.terms[1:]:
            tag = tag.union(t.tag)
        return tag


def kernel_op(mu: int = 0) -> Antideriv:
    if mu < 0:
        raise ParameterError("kernel weight exponent must be nonnegative")
    return Antideriv(mu)


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


def commutator(expr_a: OperatorExpr, fld: VectorField) -> OpSum:
    """[A, X] with the first-order field X = field_op(fld), as an explicit
    difference of compositions, tagged by the calculus.

    For a kernel-class A the commutator lands in the same class plus one with
    an extra time weight and one extra derivative.
    """
    mems = []
    for alpha, nu in expr_a.tag.memberships:
        mems.append((alpha, nu))
        for j in range(len(alpha)):
            bumped = tuple(a + (1 if i == j else 0) for i, a in enumerate(alpha))
            mems.append((bumped, nu + 1))
    x = field_op(fld)
    return OpSum(((1.0, compose(expr_a, x)), (-1.0, compose(x, expr_a))),
                 tag_override=ClassTag(tuple(sorted(set(mems)))))


def iterated_commutator(expr_a: OperatorExpr, fld: VectorField, order: int) -> OperatorExpr:
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


def _plain(expr) -> bool:
    return isinstance(expr, Antideriv) and expr.mu == 0


def apply_op(expr: OperatorExpr, g, points, chart: CollarChart):
    """Evaluate an operator expression applied to g at the given points.

    Factors are evaluated left to right as jet requests: each asks the factors
    to its right for the values and cartesian partials D^beta, |beta| <= n,
    that it needs.  A field power applies a D_z + b D_zbar by Leibniz's rule,
    and a kernel factor integrates the jet along RK4 backward trajectories at
    the chart's resolution, each partial of order |beta| weighted by
    R_s^|beta|, the derivative of the RK4 map p -> R_s p of the linear disk
    flow (the chain rule).  Runs of plain kernel factors collapse to one
    B-spline kernel of depth <= 3 by the flow group property.  Finite
    differences are taken only at the leaves: of g when it has no tracked
    partials (a SmoothFunction's are used), and of the field coefficients.
    Each distinct request, the factors still to apply and the kernels passed
    on the way to them, is computed once within the call, so a kernel sweep
    shared by several terms of a sum runs once; the leaf jets of g are the
    requests with no factors left.  Nothing is kept past the call.

    A kernel evaluates its integrand only where the hit time is below 1, so g
    must vanish off the collar wherever a kernel acts on it, the contract of
    antideriv_chains.  On the annulus the flow is not linear, and a derivative
    factor acting through a kernel factor raises ContractError.
    """
    points = np.asarray(points, dtype=complex)
    if chart.domain.kind == "annulus" and _derivative_through_kernel(expr)[0]:
        raise ContractError("a derivative through a flow kernel needs the linear flow "
                            "of the disk; the annulus flow is not linear")
    return _Jets(chart, g).jet((expr,), points, 0)[..., 0]


def _derivative_through_kernel(expr):
    """(some product term of expr has a derivative factor left of a kernel factor,
    expr has a derivative factor, expr has a kernel factor)."""
    if isinstance(expr, Antideriv):
        return False, False, True
    if isinstance(expr, FieldPower):
        return False, True, False
    if isinstance(expr, OpSum):
        parts = [_derivative_through_kernel(t) for _, t in expr.terms]
        return tuple(any(p[i] for p in parts) for i in range(3))
    through = deriv = kern = False
    for f in expr.factors if isinstance(expr, Compose) else ():
        t, d, k = _derivative_through_kernel(f)
        through = through or t or (deriv and k)
        deriv, kern = deriv or d, kern or k
    return through, deriv, kern


def _index(beta) -> int:
    """Position of beta along a jet's trailing axis, laid out by _multi_indices: by
    total order and then by the x order, so a jet of lower order is a prefix."""
    total = beta[0] + beta[1]
    return total * (total + 1) // 2 + beta[0]


class _Jets:
    """The jets of one apply_op call, each kept under its request (factors,
    path): the factors still to apply, and the kernel path, the depth of each
    kernel group between the top and them and the panel of its sweep.  Within
    one call the points are fixed, so the path fixes the points of a request (a
    kernel of weight mu > 0 sweeps the nodes of a plain one, and a point just
    outside the domain, of negative hit time, reaches a group's second panel).
    Each jet is kept at the highest order requested so far, and a lower order
    reads its prefix: bit for bit, except a kernel's order 0, summed by
    tensordot where higher orders use einsum, so it agrees to rounding.  The
    leaf jets of g are the requests with no factors left, extended by the
    partials a higher order adds.  Every jet is one array filled in place,
    partial by partial (leaves), term by term (sums) or entry by entry (fields
    and kernels), with no stacked copies.  Nothing outlives the call."""

    def __init__(self, chart: CollarChart, g):
        self.chart = chart
        self.g = g
        self.memo = {}

    def jet(self, factors, points, order, path=()):
        """D^beta of (factors[0] o ... o factors[-1])(g) at points, |beta| <= order,
        along a trailing axis laid out by _multi_indices."""
        size = len(_multi_indices(order))
        have = self.memo.get((factors, path))
        if have is None or have.shape[-1] < size:
            have = self.memo[factors, path] = self.compute(factors, points, order, path, have)
        return have[..., :size]

    def compute(self, factors, points, order, path, have):
        if not factors:
            return self.leaf(self.g, points, order, have)
        f, rest = factors[0], factors[1:]
        if isinstance(f, Compose):
            return self.jet(f.factors + rest, points, order, path)
        if isinstance(f, OpSum):
            out = np.zeros(_value_shape(self.chart.domain, points)
                           + (len(_multi_indices(order)),), dtype=complex)
            for c, term in f.terms:
                out += c * self.jet((term,) + rest, points, order, path)
            return out
        if isinstance(f, Antideriv):
            return self.kernel(factors, points, order, path)
        if isinstance(f, FieldPower):
            if f.fld.domain.kind == "ball2":
                raise NotImplementedError("field application on the ball is analytic-only")
            top = order + f.power - 1
            jet = self.jet(rest, points, top + 1, path)
            coeffs = [self.leaf(c, points, top) for c in (f.fld.z_coeffs, f.fld.zbar)]
            for n in range(top, order - 1, -1):
                jet = _field_jet(*coeffs, jet, n)
            return jet
        raise ContractError(f"cannot evaluate factor {f!r}")

    def kernel(self, factors, points, order, path):
        """A kernel factor, or the leftmost group of a run of plain kernels: runs
        collapse in groups of at most three from the right."""
        f = factors[0]
        if _plain(f):
            run = 1
            while run < len(factors) and _plain(factors[run]):
                run += 1
            depth = run % 3 or 3
            kern = lambda s: _chain_kernel(depth, s)
        else:
            depth = 1
            kern = lambda s: s**f.mu
        rest, panels = factors[depth:], iter(range(depth))

        def integrand(pos, tau, shared):
            # called once per panel swept, panel j at its j-th call
            inner = self.jet(rest, pos, order, path + ((depth, next(panels)),))
            return inner if order else inner[..., 0]
        orders = [sum(beta) for beta in _multi_indices(order)] if order else None
        out = _collar_quadrature(self.chart, points, [(kern, integrand, depth)],
                                 support=1.0, orders=orders, per_point=True)[0]
        return out if order else out[..., None]

    def leaf(self, f, points, order, have=None):
        """The jet of a leaf, g or a field coefficient, at points: one complex
        array filled partial by partial, with have, a jet of f of lower order at
        the same points, copied in as its prefix.  A real partial is cast to
        complex here rather than in the first product with a complex jet."""
        betas = _multi_indices(order)
        jet = np.empty(_value_shape(self.chart.domain, points) + (len(betas),),
                       dtype=complex)
        done = 0
        if have is not None:
            done = have.shape[-1]
            jet[..., :done] = have
        for i in range(done, len(betas)):
            jet[..., i] = _partial(f, betas[i], points)
        return jet


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


# ---------------------------------------------------------------------------
# weighted mapping-class ratios
# ---------------------------------------------------------------------------


def collar_ratio_grid(chart: CollarChart, n_r: int = 24, n_th: int = 48):
    """Uniform polar nodes covering the collar, with trapezoid weights.

    Inset from the boundary so finite-difference stencils on closures stay
    interior; returns (nodes, weights, hit_times).
    """
    dom = chart.domain
    if dom.kind == "ball2":
        raise ContractError("ratio grids are planar")
    inset = 8e-3
    th = np.linspace(0, 2 * np.pi, n_th, endpoint=False)
    # the collar {hit time < 1} ends at the time-one radius of each boundary circle
    bands = [(float(chart.flow_radius(-1.0, 1.0)), 1.0 - inset)]
    if dom.kind == "annulus":
        bands.append((dom.rho + inset, float(chart.flow_radius(-1.0, dom.rho))))
    grids = [PolarEvalGrid(dom, np.linspace(lo, hi, n_r), th) for lo, hi in bands]
    nodes = np.concatenate([g.nodes().ravel() for g in grids])
    weights = np.concatenate([g.weights().ravel() for g in grids])
    return nodes, weights, chart.hit_time(nodes)


def _weighted_norm(values, weights, t, power):
    w = np.where(np.isfinite(t) & (t < 2.0), t, 0.0) ** power
    return float(np.sqrt(np.sum(weights * np.abs(w * values) ** 2)))


def weighted_ratio_sweep(values, tag: ClassTag, g, ells, grid):
    """Ratios ||t^l A(g)|| / sum_{|b| <= nu} ||t^{l+k} D^b g|| for each l, from the
    values of A(g) on the grid nodes (apply_op of an expression, or the Hardy
    majorants of flow.flow_moment_apply).

    k and nu come from A's class tag; the values are reweighted across the sweep.
    """
    nodes, weights, t = grid
    k = tag.s_gain
    nu = tag.s_deriv
    dg = [_partial(g, beta, nodes) for beta in _multi_indices(nu)]
    out = []
    for ell in ells:
        numer = _weighted_norm(values, weights, t, ell)
        denom = sum(_weighted_norm(d, weights, t, ell + k) for d in dg)
        if denom == 0.0:
            raise DegenerateInputError("weighted denominator vanishes identically")
        out.append(numer / denom)
    return out


def hardy_line_case():
    """The closed one-dimensional case: f = 1 on [0, 1], weight exponent 0.

    Returns (lhs_squared, rhs_squared): the integral of (integral_x^1 1)^2
    equals 1/3, and 4 times the integral of t^2 equals 4/3.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    lhs2 = float(np.sum(w * (1.0 - x) ** 2))
    rhs2 = 4.0 * float(np.sum(w * x**2))
    return lhs2, rhs2
