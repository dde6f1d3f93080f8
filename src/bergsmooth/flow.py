"""Flow of the transverse field, boundary hitting times, the collar chart,
and anti-differentiation along the backward flow.

The transverse field on every model domain is radial, so the chart carries
closed-form hitting times and flow radii; the public flow and hitting-time
operations use fixed-step RK4 and bisection, with the closed forms serving
as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FlowEscapeError, NotInCollarError, ParameterError
from .functions import smoothstep, smoothstep_prime
from .geometry import Domain, VectorField, canonical_fields, collar_rate

__all__ = [
    "CollarChart",
    "build_chart",
    "flow",
    "hitting_time",
    "trajectories",
    "antideriv_chain",
    "antideriv_chains",
    "flow_moment_apply",
]

DEFAULT_M_STEPS = 64
DEFAULT_Q_PANELS = 32
_GAUSS_PER_PANEL = 4


def flow(field: VectorField, t: float, x, n_steps: int = DEFAULT_M_STEPS,
         escape_bound: float | None = 1.0, clamp_radius: float | None = None):
    """Flow map of a real field by fixed-step RK4.

    n_steps is a floor on the steps per unit time: the flow takes
    ceil(|t| n_steps) equal steps, at least one.  If the defining function
    along the trajectory exceeds escape_bound the curve has left the
    controlled chart and a FlowEscapeError is raised; pass None to disable
    (the hitting-time bisection probes past the boundary on purpose, with
    clamp_radius freezing curves once they are unambiguously outside).
    """
    return _rk4(field, t, np.asarray(x, dtype=complex), n_steps, escape_bound, clamp_radius)


def _rk4(field, t, x, n_steps, escape_bound=None, clamp_radius=None):
    """RK4 from x for time t, a float or one time per point: ceil(|t| n_steps)
    equal steps, at least one, none at t = 0."""
    if not isinstance(t, np.ndarray):
        if t == 0.0:
            return x.copy()
        n = max(1, int(math.ceil(abs(t) * n_steps)))
        h = t / n
        for _ in range(n):
            x = _rk4_step(field, x, h, escape_bound, clamp_radius)
        return x
    tail = x.shape[t.ndim:]
    t = t.ravel()
    n = np.where(t == 0.0, 0, np.maximum(1, np.ceil(np.abs(t) * n_steps).astype(int)))
    h = (t / np.maximum(n, 1)).reshape((-1,) + (1,) * len(tail))
    state = x.reshape((t.size,) + tail).copy()
    for k in range(n.max(initial=0)):
        on = n > k
        state[on] = _rk4_step(field, state[on], h[on], escape_bound, clamp_radius)
    return state.reshape(x.shape)


def _rk4_step(field, x, h, escape_bound, clamp_radius):
    """One RK4 step of size h (a float or per-point sizes), then clamp and escape test."""
    vel = field.velocity
    k1 = vel(x)
    k2 = vel(x + 0.5 * h * k1)
    k3 = vel(x + 0.5 * h * k2)
    k4 = vel(x + h * k3)
    x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if clamp_radius is not None:
        r = field.domain.radius(x)
        far = r > clamp_radius
        if np.any(far):
            scale = np.where(far, clamp_radius / np.maximum(r, 1e-300), 1.0)
            x = x * (scale[..., None] if field.domain.kind == "ball2" else scale)
    if escape_bound is not None:
        if np.any(field.domain.defining_function(x) > escape_bound):
            raise FlowEscapeError("integral curve left the chart")
    return x


def _value_shape(domain, points):
    """Shape of one value per point: points in C^2 carry a trailing axis of 2."""
    return points.shape[:points.ndim + 1 - domain.complex_dimension]


@dataclass(frozen=True)
class CollarChart:
    """Collar coordinates near the boundary: hitting time, cutoff, flow data.

    The chart is built on the rescaled outward transverse field, so the
    hitting time is positive inside, zero on the boundary, and the collar
    {hit time < 1} sits inside the neighborhood {hit time < 2} where the
    field is controlled.  It also carries the trajectory resolution of every
    computation along the flow: q_panels Gauss panels per unit time, and
    m_steps, a floor on the RK4 steps per unit time (see trajectories).
    """

    domain: Domain
    field: VectorField
    rate: float
    q_panels: int = DEFAULT_Q_PANELS
    m_steps: int = DEFAULT_M_STEPS

    # --- hitting time, closed form per model domain -----------------------

    def hit_time(self, points):
        return self.hit_time_radial(self.domain.radius(points))

    def hit_time_radial(self, r):
        r = np.asarray(r, dtype=float)
        if self.domain.kind in ("disk", "ball2"):
            with np.errstate(divide="ignore"):
                return np.where(r > 0, -np.log(np.maximum(r, 1e-300)) / self.rate, np.inf)
        rho = self.domain.rho
        a = 1.0 + rho**2
        u = r**2
        out = np.full(np.shape(u), np.inf)
        outer = u > a / 2
        inner = u < a / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                outer,
                np.log((2.0 - a) * u / np.maximum(2.0 * u - a, 1e-300)) / (2 * a * self.rate),
                out)
            out = np.where(
                inner,
                np.log((a - 2 * rho**2) * u
                       / np.maximum((a - 2.0 * u) * rho**2, 1e-300)) / (2 * a * self.rate),
                out)
        return out

    # --- cutoff -----------------------------------------------------------

    def cutoff(self, points):
        """Smooth cutoff, identically 1 for hit time <= 1/4 and 0 for >= 3/4."""
        return self.cutoff_of_time(self.hit_time(points))

    def cutoff_of_time(self, t):
        """The cutoff profile at hit times t."""
        return smoothstep(_cutoff_argument(t))

    def cutoff_time_derivative(self, t):
        """d(cutoff)/dt at hit times t."""
        return -2.0 * smoothstep_prime(_cutoff_argument(t))

    # --- radial flow closed forms ------------------------------------------

    def speed_over_r(self, r):
        if self.domain.kind in ("disk", "ball2"):
            return self.rate * np.ones_like(np.asarray(r, dtype=float))
        a = 1.0 + self.domain.rho**2
        return self.rate * (2.0 * r**2 - a)

    def flow_radius(self, s, r):
        """Radius after flowing time s from radius r (exact)."""
        r = np.asarray(r, dtype=float)
        if self.domain.kind in ("disk", "ball2"):
            return r * np.exp(self.rate * s)
        rho = self.domain.rho
        a = 1.0 + rho**2
        u = r**2
        y_shift = 2.0 * a * self.rate * s
        outer = u > a / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            y_out = np.log((2.0 - a) * u / np.maximum(2.0 * u - a, 1e-300)) - y_shift
            r_out = np.sqrt(a * np.exp(y_out) / (2.0 * np.exp(y_out) - (2.0 - a)))
            y_in = (np.log((a - 2 * rho**2) * u
                           / np.maximum((a - 2.0 * u) * rho**2, 1e-300)) - y_shift)
            e_in = np.exp(y_in)
            r_in = np.sqrt(a * e_in * rho**2 / ((a - 2 * rho**2) + 2 * rho**2 * e_in))
        return np.where(outer, r_out, r_in)

    def exact_trajectories(self, points, s_values):
        """Positions along the backward flow at the given times, closed form."""
        points = np.asarray(points, dtype=complex)
        r = self.domain.radius(points)
        safe = np.maximum(r, 1e-300)
        s = np.asarray(s_values, dtype=float)
        radii = self.flow_radius(s.reshape((-1,) + (1,) * r.ndim), r)
        if self.domain.kind == "ball2":
            return (radii[..., None] / safe[..., None]) * points
        return (radii / safe) * points


# The cutoff is exactly 0 from this hit time on, and so is every product with it
# or with its derivative: the support bound of the quadrature of such integrands.
CUTOFF_END = 0.75


def _cutoff_argument(t):
    """The smoothstep argument of the cutoff at hit times t, with infinite times
    (the center of the disk and ball) moved to a finite time past the collar."""
    return (CUTOFF_END - np.where(np.isfinite(t), t, 10.0)) / 0.5


def build_chart(domain: Domain, q_panels: int = DEFAULT_Q_PANELS,
                m_steps: int = DEFAULT_M_STEPS) -> CollarChart:
    return CollarChart(domain, canonical_fields(domain)["N"], collar_rate(domain),
                       q_panels, m_steps)


# ---------------------------------------------------------------------------
# hitting time by bisection (closed form is the oracle, not the implementation)
# ---------------------------------------------------------------------------


def hitting_time(chart: CollarChart, x):
    """Boundary hitting time by bisection on the defining function along the flow,
    RK4 at the chart's m_steps, to a tolerance of 1e-10 within the time window [0, 2]."""
    x = np.asarray(x, dtype=complex)
    scalar = _value_shape(chart.domain, x) == ()
    pts = x[None, ...] if scalar else x
    rho0 = chart.domain.defining_function(pts)
    if np.any(rho0 > 1e-12):
        raise ContractError("hitting time needs points in the closed domain")
    hi_val = chart.domain.defining_function(
        flow(chart.field, 2.0, pts, chart.m_steps, escape_bound=None, clamp_radius=4.0))
    if np.any(hi_val < 0):
        raise NotInCollarError("no boundary crossing within the time window")
    lo = np.zeros_like(rho0)
    hi = np.full_like(lo, 2.0)
    while np.max(hi - lo, initial=0.0) > 1e-10:
        mid = 0.5 * (lo + hi)
        moved = _rk4(chart.field, mid, pts, chart.m_steps, clamp_radius=4.0)
        below = chart.domain.defining_function(moved) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    return float(t[0]) if scalar else t


# ---------------------------------------------------------------------------
# trajectory quadrature and anti-differentiation
# ---------------------------------------------------------------------------


def trajectories(chart: CollarChart, points, s_values, n_steps: int):
    """RK4 positions along the backward flow at each (sorted descending) time.

    Each gap between successive times takes ceil(gap * n_steps) steps, at least
    one, so n_steps is a floor on the rate: the 128 Gauss nodes of 32 panels per
    unit time get 128 steps per unit time for every n_steps up to 94.  The
    chart's quadrature passes its own m_steps."""
    points = np.asarray(points, dtype=complex)
    s = np.asarray(s_values, dtype=float)
    order = np.argsort(-s)
    spans = np.diff(s[order], prepend=0.0)
    out = np.empty((len(s),) + points.shape, dtype=complex)
    state = points
    for idx, span in zip(order.tolist(), spans.tolist()):
        if span != 0.0:
            state = _rk4(chart.field, span, state, n_steps)
        out[idx] = state
    return out


def _panel_nodes(a: float, b: float, n_panels: int):
    """Composite Gauss nodes and weights on [a, b]."""
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_PER_PANEL)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * gx[None, :]).ravel()
    weights = np.tile(half * gw, n_panels)
    return nodes, weights


def _chain_kernel(depth: int, u):
    """Kernel of the depth-fold plain anti-differentiation, supported on [-depth, 0],
    for depth 1, 2 or 3.

    This is the length/area of {s in [-1,0]^depth : sum s_i = u}: the
    B-spline of order depth.
    """
    v = -np.asarray(u, dtype=float)
    if depth == 1:
        return np.ones_like(v)
    if depth == 2:
        return 1.0 - np.abs(v - 1.0)
    out = np.zeros_like(v)
    m1 = v <= 1.0
    m2 = (v > 1.0) & (v <= 2.0)
    m3 = v > 2.0
    out[m1] = 0.5 * v[m1] ** 2
    out[m2] = 0.5 * (-2.0 * v[m2] ** 2 + 6.0 * v[m2] - 3.0)
    out[m3] = 0.5 * (3.0 - v[m3]) ** 2
    return out


def _collar_quadrature(chart, points, kernel=None, integrand=None, depth=1, *, support,
                       orders=None, terms=None):
    """Gauss quadrature along the backward trajectories of the collar points at the
    chart's resolution, zero off the collar: on each [-(j+1), -j], j < depth, the
    node weight factors kernel(s) against integrand(pos, tau), the values at the
    positions pos of the live points with hit times tau = t - s there.

    One term is kernel, integrand and depth, and its values are returned.  Pass
    instead terms, a sequence of (kernel, integrand, depth), for a list of values,
    one per term: each panel is swept once for all the terms deep enough to reach
    it, and an integrand listed in several terms (the same object) is evaluated
    once per panel.  Each term sums its own panels in its own order, so a term's
    values are bit for bit the ones it gets alone.

    The integrands are taken to vanish where tau >= support: a panel with no pair
    below the bound is not swept, and in a panel with some, only the points with
    a live node are flowed and only the live pairs evaluated.  Where an integrand
    is indeed zero past the bound, the sum is the one over every pair, bit for bit.

    With orders, the values carry a trailing axis, one entry per derivative
    order |beta|, and the node weight of entry b is further multiplied by
    R_s**orders[b]: on a linear flow the RK4 map is p -> R_s p, R_s real, so
    this is the chain rule for D^beta of the integral.  R_s is read off the
    sweep itself, the derivative of the discrete map.
    """
    if terms is None:
        return _collar_quadrature(chart, points, support=support, orders=orders,
                                  terms=[(kernel, integrand, depth)])[0]
    points = np.asarray(points, dtype=complex)
    t = chart.hit_time(points)
    live = np.isfinite(t) & (t < 1.0)
    trailing = () if orders is None else (len(orders),)
    outs = [np.zeros(t.shape + trailing, dtype=complex) for _ in terms]
    if not np.any(live):
        return outs
    pts, t = points[live], t[live]
    totals = [0.0] * len(terms)
    for j in range(max((term[2] for term in terms), default=0)):
        if j + t.min() >= support:
            break
        s, weights = _panel_nodes(-(j + 1.0), -float(j), chart.q_panels)
        tau = t[None, :] - s[:, None]
        if t.max() + j + 1 < support:
            # every pair is live: no mask and no gathered copies of the positions
            start = pts
            pos = trajectories(chart, start, s, chart.m_steps)
            evaluate = lambda integrand: integrand(pos, tau)
        else:
            need = tau < support
            cols = need.any(axis=0)
            start = pts[cols]
            pos = trajectories(chart, start, s, chart.m_steps)
            live_pos, live_tau = pos[need[:, cols]], tau[need]

            def evaluate(integrand):
                live_values = integrand(live_pos, live_tau)
                values = np.zeros(tau.shape + live_values.shape[1:], dtype=live_values.dtype)
                values[need] = live_values
                return values
        if orders is not None:
            # R_s of the swept map p -> R_s p, read at the start point of largest modulus
            ref = int(np.argmax(np.abs(start)))
            factor = (pos[:, ref] / start[ref]).real
            powers = factor[:, None] ** np.asarray(orders)
        # the terms that reach this panel, by integrand
        reach = {}
        for i, (_, integrand, depth) in enumerate(terms):
            if depth > j:
                reach.setdefault(integrand, []).append(i)
        for integrand, members in reach.items():
            values = evaluate(integrand)
            for i in members:
                node_weights = weights * terms[i][0](s)
                if orders is None:
                    totals[i] = totals[i] + np.tensordot(node_weights, values, axes=(0, 0))
                else:
                    totals[i] = totals[i] + np.einsum("nb,npb->pb",
                                                      node_weights[:, None] * powers, values)
    for out, total in zip(outs, totals):
        out[live] = total
    return outs


def _chain_terms(chains):
    """Quadrature terms of depth-fold anti-differentiation for (w, depth) chains,
    one integrand per distinct w."""
    integrands = {}
    terms = []
    for w, depth in chains:
        if depth not in (1, 2, 3):
            raise ParameterError("chain depth 1 to 3 is supported")
        if id(w) not in integrands:
            integrands[id(w)] = lambda pos, tau, w=w: np.asarray(w(pos), dtype=complex)
        terms.append((lambda s, depth=depth: _chain_kernel(depth, s), integrands[id(w)],
                      depth))
    return terms


def antideriv_chain(chart: CollarChart, w, points, depth: int = 1, support: float = 1.0):
    """depth-fold anti-differentiation of a collar-supported function.

    By the flow group property the iterated backward-trajectory integrals
    collapse to a single integral against a B-spline kernel; this is exact
    whenever w vanishes off the collar, which the cutoff guarantees.  w is
    evaluated only where the hit time is below support, 1 (the collar) by that
    contract; pass a larger bound, or np.inf, for a w that reaches further, and
    CUTOFF_END for a w that carries the cutoff or its derivative as a factor.
    Returns values at points, zero outside the collar.  depth is 1, 2 or 3.
    """
    return _collar_quadrature(chart, points, support=support,
                              terms=_chain_terms([(w, depth)]))[0]


def antideriv_chains(chart: CollarChart, chains, points, support: float = 1.0):
    """antideriv_chain of each (w, depth) in chains, all at the same points and
    support bound, in one sweep of each panel; a w listed at several depths is
    evaluated once per panel.  Returns one array per chain, each bit for bit the
    one antideriv_chain gives."""
    return _collar_quadrature(chart, points, support=support, terms=_chain_terms(chains))


def flow_moment_apply(chart: CollarChart, mu: int, g, points):
    """The Hardy majorant: integral of (hit time at the flow point)^mu * |g o flow|,
    for a g that vanishes off the collar (hit time >= 1), where it is not evaluated.

    The hitting time along the trajectory is the base hitting time minus the
    flow time, which the group property gives exactly.
    """
    return _collar_quadrature(chart, points, lambda s: 1.0,
                              lambda pos, tau: tau**mu * np.abs(np.asarray(g(pos))),
                              support=1.0).real
