"""Expression algebra over flow-kernel operators, differential monomials,
field powers, compositions, sums, and commutators.

Every expression carries a class tag: a set of memberships (alpha, nu),
where alpha is the tuple of kernel time-weight exponents (its length is the
number of kernel factors) and nu counts differentiations.  The tag of a
commutator is assigned from the commutator calculus, not recomputed; its
numerical content is the uniform-in-weight ratio bound measured by
weighted_ratio_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import ContractError, DegenerateInputError, ParameterError
from .flow import (CollarChart, antideriv_chain, flow_moment_apply, _collar_quadrature,
                   _value_shape)
from .functions import _partial, apply_field
from .geometry import VectorField

__all__ = [
    "OperatorExpr",
    "Antideriv",
    "DiffMonomial",
    "FieldPower",
    "Compose",
    "OpSum",
    "AbsFlowMoment",
    "kernel_op",
    "diff_op",
    "field_op",
    "abs_moment_op",
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

    def _structural_tag(self) -> ClassTag:
        raise NotImplementedError


@dataclass(frozen=True)
class Antideriv(OperatorExpr):
    """Kernel operator: integral of s^mu gamma(s, x) g(flow(s, x)) over [-1, 0]."""

    gamma: Callable | None = None   # gamma(s_values, points) -> (S, P); None means 1
    mu: int = 0

    def _structural_tag(self):
        return ClassTag((((self.mu,), 0),))


@dataclass(frozen=True)
class DiffMonomial(OperatorExpr):
    beta: tuple = (1, 0)

    def _structural_tag(self):
        return ClassTag((((), sum(self.beta)),))


@dataclass(frozen=True)
class FieldPower(OperatorExpr):
    fld: VectorField = None
    power: int = 1

    def _structural_tag(self):
        return ClassTag((((), self.power),))


@dataclass(frozen=True)
class AbsFlowMoment(OperatorExpr):
    """Majorant kernel: integral of (hit time at flow point)^mu |g o flow|.

    Nonlinear (absolute value inside); used standalone as a test majorant,
    never composed.
    """

    mu: int = 0

    def _structural_tag(self):
        return ClassTag((((self.mu,), 0),))


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


def kernel_op(gamma=None, mu: int = 0) -> Antideriv:
    if mu < 0:
        raise ParameterError("kernel weight exponent must be nonnegative")
    return Antideriv(gamma, mu)


def diff_op(beta) -> DiffMonomial:
    return DiffMonomial(tuple(beta))


def field_op(fld: VectorField, power: int = 1) -> FieldPower:
    return FieldPower(fld, power)


def abs_moment_op(mu: int) -> AbsFlowMoment:
    if mu < 0:
        raise ParameterError("moment exponent must be nonnegative")
    return AbsFlowMoment(mu)


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


def commutator(expr_a: OperatorExpr, expr_x: OperatorExpr) -> OpSum:
    """[A, X] as an explicit difference of compositions, tagged by the calculus.

    For a kernel-class A and a first-order field the commutator lands in the
    same class plus one with an extra time weight and one extra derivative;
    commuting with a pure differential monomial trades one derivative for the
    weight gain.
    """
    first_order_field = isinstance(expr_x, FieldPower) and expr_x.power == 1
    if first_order_field or isinstance(expr_x, DiffMonomial):
        b = 1 if first_order_field else sum(expr_x.beta)
        mems = []
        for alpha, nu in expr_a.tag.memberships:
            mems.append((alpha, nu + max(b - 1, 0)))
            for j in range(len(alpha)):
                bumped = tuple(a + (1 if i == j else 0) for i, a in enumerate(alpha))
                mems.append((bumped, nu + b))
        tag = ClassTag(tuple(sorted(set(mems))))
    else:
        # generic second factor: fall back to the structural tag of the difference
        tag = compose(expr_a, expr_x).tag.union(compose(expr_x, expr_a).tag)
    return OpSum(((1.0, compose(expr_a, expr_x)), (-1.0, compose(expr_x, expr_a))),
                 tag_override=tag)


def iterated_commutator(expr_a: OperatorExpr, fld: VectorField, order: int) -> OperatorExpr:
    """order-fold commutator [...[A, X], X]."""
    cur = expr_a
    for _ in range(order):
        cur = commutator(cur, field_op(fld))
    return cur


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _plain(expr) -> bool:
    return isinstance(expr, Antideriv) and expr.gamma is None and expr.mu == 0


def apply_op(expr: OperatorExpr, g, points, chart: CollarChart,
             q_panels: int = 32, m_steps: int = 64):
    """Evaluate an operator expression applied to g at the given points.

    Differential factors use tracked derivatives when g has them and finite
    differences otherwise; kernel factors integrate along RK4 backward
    trajectories; runs of plain kernel factors collapse to a single B-spline
    kernel by the flow group property.
    """
    points = np.asarray(points, dtype=complex)
    if isinstance(expr, OpSum):
        out = np.zeros(_value_shape(chart.domain, points), dtype=complex)
        for c, term in expr.terms:
            out = out + c * apply_op(term, g, points, chart, q_panels, m_steps)
        return out
    if isinstance(expr, AbsFlowMoment):
        return flow_moment_apply(chart, expr.mu, g, points, q_panels, m_steps).astype(complex)
    factors = expr.factors if isinstance(expr, Compose) else (expr,)
    # factors act right to left; fn is the function the remaining ones act on
    fn = g
    i = len(factors)
    while i > 0:
        f = factors[i - 1]
        if _plain(f):
            depth = 1
            while i - depth > 0 and _plain(factors[i - depth - 1]) and depth < 3:
                depth += 1
            fn = lambda p, fn=fn, depth=depth: antideriv_chain(
                chart, fn, p, depth=depth, q_panels=q_panels, m_steps=m_steps)
            i -= depth
            continue
        if isinstance(f, Antideriv):
            fn = _kernel_closure(chart, fn, f, q_panels, m_steps)
        elif isinstance(f, DiffMonomial):
            fn = lambda p, fn=fn, beta=f.beta: _partial(fn, beta, np.asarray(p, dtype=complex))
        elif isinstance(f, FieldPower):
            for _ in range(f.power):
                fn = lambda p, fn=fn, fld=f.fld: apply_field(
                    fld, fn, np.asarray(p, dtype=complex))
        elif isinstance(f, OpSum):
            fn = lambda p, fn=fn, inner=f: apply_op(inner, fn, p, chart, q_panels, m_steps)
        else:
            raise ContractError(f"cannot evaluate factor {f!r}")
        i -= 1
    return np.asarray(fn(points), dtype=complex)


def _kernel_closure(chart, fn, node, q_panels, m_steps):
    def term(s, pts, pos, t):
        vals = np.asarray(fn(pos), dtype=complex)
        if node.gamma is not None:
            vals = vals * np.asarray(node.gamma(s[:, None], pts[None, :]))
        return s**node.mu, vals

    return lambda p: _collar_quadrature(chart, p, q_panels, m_steps, term)


# ---------------------------------------------------------------------------
# weighted mapping-class ratios
# ---------------------------------------------------------------------------


def collar_ratio_grid(chart: CollarChart, n_r: int = 24, n_th: int = 48,
                      inset: float = 8e-3):
    """Uniform polar nodes covering the collar, with trapezoid weights.

    Inset from the boundary so finite-difference stencils on closures stay
    interior; returns (nodes, weights, hit_times).
    """
    dom = chart.domain
    th = np.linspace(0, 2 * np.pi, n_th, endpoint=False)
    bands = []
    if dom.kind in ("disk", "ball2"):
        bands.append((np.exp(-chart.rate), 1.0 - inset))
    else:
        r_out = _annulus_time_one_radius(chart, outer=True)
        r_in = _annulus_time_one_radius(chart, outer=False)
        bands.append((r_out, 1.0 - inset))
        bands.append((dom.rho + inset, r_in))
    nodes = []
    weights = []
    for r_lo, r_hi in bands:
        r = np.linspace(r_lo, r_hi, n_r)
        dr = r[1] - r[0]
        w_r = np.full(n_r, dr)
        w_r[0] *= 0.5
        w_r[-1] *= 0.5
        R, TH = np.meshgrid(r, th, indexing="ij")
        W = np.outer(w_r * r, np.full(n_th, 2 * np.pi / n_th))
        if dom.kind == "ball2":
            raise ContractError("ratio grids are planar")
        nodes.append((R * np.exp(1j * TH)).ravel())
        weights.append(W.ravel())
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    return nodes, weights, chart.hit_time(nodes)


def _annulus_time_one_radius(chart, outer: bool):
    a = 1.0 + chart.domain.rho**2
    E = np.exp(2 * a * chart.rate)
    if outer:
        return float(np.sqrt(a * E / (2 * E - (2 - a))))
    rho2 = chart.domain.rho**2
    return float(np.sqrt(a * E * rho2 / ((a - 2 * rho2) + 2 * rho2 * E)))


def _weighted_norm(values, weights, t, power):
    w = np.where(np.isfinite(t) & (t < 2.0), t, 0.0) ** power
    return float(np.sqrt(np.sum(weights * np.abs(w * values) ** 2)))


def weighted_ratio_sweep(expr: OperatorExpr, g, ells, chart: CollarChart,
                         grid=None, q_panels: int = 32, m_steps: int = 64):
    """Ratios ||t^l expr(g)|| / sum_{|b| <= nu} ||t^{l+k} D^b g|| for each l.

    k and nu come from the expression's class tag; the expression values are
    computed once and reweighted across the sweep.
    """
    if grid is None:
        grid = collar_ratio_grid(chart)
    nodes, weights, t = grid
    k = expr.tag.s_gain
    nu = expr.tag.s_deriv
    values = apply_op(expr, g, nodes, chart, q_panels, m_steps)
    dg = []
    for total in range(nu + 1):
        for bx in range(total + 1):
            dg.append(_partial(g, (bx, total - bx), nodes))
    out = []
    for ell in ells:
        numer = _weighted_norm(values, weights, t, ell)
        denom = sum(_weighted_norm(d, weights, t, ell + k) for d in dg)
        if denom == 0.0:
            raise DegenerateInputError("weighted denominator vanishes identically")
        out.append(numer / denom)
    return out


def hardy_line_case(n_quad: int = 64):
    """The closed one-dimensional case: f = 1 on [0, 1], weight exponent 0.

    Returns (lhs_squared, rhs_squared): the integral of (integral_x^1 1)^2
    equals 1/3, and 4 times the integral of t^2 equals 4/3.
    """
    x, w = np.polynomial.legendre.leggauss(n_quad)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    lhs2 = float(np.sum(w * (1.0 - x) ** 2))
    rhs2 = 4.0 * float(np.sum(w * x**2))
    return lhs2, rhs2
