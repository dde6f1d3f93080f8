"""Boundary hitting times, the collar chart, and anti-differentiation along the
backward flow of the transverse field.

The transverse field on every model domain is radial, so the chart carries
closed-form hitting times and flow radii.  The numerical paths share one
fixed-step RK4 step: `trajectories` sweeps it through a sorted list of times,
and `hitting_time` marches it to the boundary and bisects the crossing step,
with the closed forms serving as cross-checks.  On the disk and the ball the
field is rate * z, linear, so the RK4 map of a sweep multiplies every point by
one real number per time: the quadrature sweeps there step that number alone
and scale the start points by it.  The annulus, and operators.apply_op by its
per_point opt-out, march every point.

The chart's cutoff is evaluated in one of two ways: its value alone at points
(`CollarChart.cutoff`), or the value and its rate, minus its time derivative,
together at radii from one hit time (`CollarChart.cutoff_profiles`), the pair
that the integrands of a quadrature panel read from its shared table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ContractError, NotInCollarError, ParameterError
from .functions import RadialHolo, _Shared, _smoothstep_pair, smoothstep
from .geometry import Domain, VectorField, _annulus_logs, canonical_fields, collar_rate

__all__ = [
    "CollarChart",
    "build_chart",
    "hitting_time",
    "trajectories",
    "antideriv_chains",
    "flow_moment_apply",
]

DEFAULT_M_STEPS = 64
DEFAULT_Q_PANELS = 32
_GAUSS_PER_PANEL = 4
# The most node-point pairs one sweep of pointwise integrands holds at once: a
# larger point set is swept in blocks (see _blocked_quadrature)
_SWEEP_PAIRS = 2**19
# A block holds a multiple of this many swept points, all but the last
_BLOCK_QUANTUM = 16


def _rk4_step(field, x, h):
    """One RK4 step of size h, a float or one size per point broadcast against x."""
    vel = field.velocity
    k1 = vel(x)
    k2 = vel(x + 0.5 * h * k1)
    k3 = vel(x + 0.5 * h * k2)
    k4 = vel(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


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
    computation along the flow, both integers >= 1: q_panels Gauss panels per
    unit time, and m_steps, a floor on the RK4 steps per unit time of the
    quadrature sweeps (see trajectories) and exactly the steps per unit time
    of hitting_time.
    """

    domain: Domain
    field: VectorField
    rate: float
    q_panels: int = DEFAULT_Q_PANELS
    m_steps: int = DEFAULT_M_STEPS

    def __post_init__(self):
        for name in ("q_panels", "m_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")

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
            y_out, y_in = _annulus_logs(u, rho)
            out = np.where(outer, y_out / (2 * a * self.rate), out)
            out = np.where(inner, y_in / (2 * a * self.rate), out)
        return out

    # --- cutoff -----------------------------------------------------------

    def cutoff(self, points):
        """Smooth cutoff, identically 1 for hit time <= 1/4 and 0 for >= 3/4."""
        return smoothstep(_cutoff_argument(self.hit_time(points)))

    def cutoff_profiles(self, r):
        """The cutoff and minus its time derivative at radii r, from one hit time
        and one smoothstep argument.  Bound methods of one chart compare and hash
        equal, so the pair is one key of a quadrature panel's shared factor table."""
        value, slope = _smoothstep_pair(_cutoff_argument(self.hit_time_radial(r)))
        # the argument (CUTOFF_END - t) / 0.5 falls at rate 2 in the hit time t
        return value, 2.0 * slope

    # --- radial flow closed forms ------------------------------------------

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
            y_out, y_in = (y - y_shift for y in _annulus_logs(u, rho))
            r_out = np.sqrt(a * np.exp(y_out) / (2.0 * np.exp(y_out) - (2.0 - a)))
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
# hitting time: march, then bisect the crossing step (closed form is the oracle)
# ---------------------------------------------------------------------------


def hitting_time(chart: CollarChart, x):
    """Boundary hitting time along the flow, to a tolerance of 1e-10 within the
    time window [0, 2].

    Each point takes RK4 steps of 1/m_steps while the end of the next step stays
    inside; the fraction of that crossing step is then bisected, one RK4 step of
    the fraction per iteration, for all points together.  A point on the
    boundary has time 0."""
    x = np.asarray(x, dtype=complex)
    scalar = _value_shape(chart.domain, x) == ()
    pts = x[None, ...] if scalar else x
    defining = chart.domain.defining_function
    rho0 = defining(pts)
    if np.any(rho0 > 1e-12):
        raise ContractError("hitting time needs points in the closed domain")
    m = chart.m_steps
    tail = pts.shape[rho0.ndim:]
    state = pts.reshape((-1,) + tail).copy()
    inside = rho0.ravel() < 0
    # march: point i stays inside for k[i] steps, and its next step crosses
    k = np.zeros(len(state), dtype=int)
    going = np.flatnonzero(inside)
    for _ in range(2 * m):
        if going.size == 0:
            break
        stepped = _rk4_step(chart.field, state[going], 1.0 / m)
        stays = defining(stepped) < 0
        going = going[stays]
        state[going] = stepped[stays]
        k[going] += 1
    if going.size:
        raise NotInCollarError("no boundary crossing within the time window")
    # bisect the crossing step's fraction, bracketed by [lo, lo + 2 half]
    lo = np.zeros(len(state))
    half = 0.5
    while 2 * half / m > 1e-10:
        mid = lo + half
        moved = _rk4_step(chart.field, state, (mid / m).reshape((-1,) + (1,) * len(tail)))
        lo = np.where(defining(moved) < 0, mid, lo)
        half *= 0.5
    t = np.where(inside, (k + lo + half) / m, 0.0).reshape(rho0.shape)
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
    return _march(chart.field, np.asarray(points, dtype=complex), s_values, n_steps)


def _march(field, state, s_values, n_steps):
    """The positions of state along the flow of field at each time, by the step
    rule of trajectories, in an array of state's shape and dtype per time."""
    s = np.asarray(s_values, dtype=float)
    order = np.argsort(-s)
    spans = np.diff(s[order], prepend=0.0)
    out = np.empty((len(s),) + np.shape(state), dtype=np.result_type(state))
    for idx, span in zip(order.tolist(), spans.tolist()):
        if span != 0.0:
            n = max(1, math.ceil(abs(span) * n_steps))
            h = span / n
            for _ in range(n):
                state = _rk4_step(field, state, h)
        out[idx] = state
    return out


def _rk4_multipliers(chart: CollarChart, s_values):
    """R_s at each time s of a linear chart (disk, ball2), where the sweep's RK4
    map is p -> R_s p, R_s real: the chart's steps taken from the real scalar 1
    on the field's velocity rate * x.  Bit for bit the real part of the sweep of
    the point 1 ((1, 0) on the ball), at one scalar step per node gap."""
    rate = chart.rate
    linear = SimpleNamespace(velocity=lambda x: rate * x)
    return _march(linear, 1.0, s_values, chart.m_steps)


def _panel_positions(chart: CollarChart, start, s, per_point):
    """RK4 positions of the start points at a panel's times s, nodes x points:
    R_s * start on a linear chart, and each point marched by trajectories on the
    annulus, whose flow is not linear, or wherever per_point is set.  The one
    place a quadrature sweep flows its points."""
    if per_point or chart.domain.kind not in ("disk", "ball2"):
        return trajectories(chart, start, s, chart.m_steps)
    return _rk4_multipliers(chart, s).reshape((-1,) + (1,) * start.ndim) * start


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


def _swept(t):
    """Where the hit times t lie in the collar or outside the domain: the points
    whose trajectories a quadrature sweeps."""
    return np.isfinite(t) & (t < 1.0)


def _entry_sums(weighted, live_values, need, buffer):
    """Panel sums of values with a trailing axis of entries: entry b of point p is
    the sum over nodes n of weighted[n, b] * value[n, p, b], the value zero at a
    dead pair (need False).  live_values holds the live pairs, one row each.

    The entries pass one at a time through buffer, a nodes x points zero array
    of their dtype whose dead entries stay zero, each summed by an einsum over
    the nodes in node order: bit for bit entry b of one "nb,npb->pb" einsum over
    every entry at once, which holds all of them (README, "Sweeps in blocks").
    The weights are read as the columns of weighted, strided like the entries
    of that einsum, so a one-point panel is not summed by numpy's unrolled
    contiguous loop, whose order differs."""
    out = np.empty(need.shape[1:] + weighted.shape[1:],
                   dtype=np.result_type(weighted, live_values))
    for b in range(weighted.shape[1]):
        buffer[need] = live_values[:, b]
        out[:, b] = np.einsum("n,np->p", weighted[:, b], buffer)
    return out


def _collar_quadrature(chart, points, terms, *, support, orders=None, per_point=False):
    """Gauss quadrature along the backward trajectories of the collar points at the
    chart's resolution, zero off the collar, for terms, a sequence of (kernel,
    integrand, depth): on each [-(j+1), -j], j < depth, the node weight factors
    kernel(s) against integrand(pos, tau, shared), the values at the positions
    pos of the live points with hit times tau = t - s there.  shared is the
    panel's table of shared factors (functions._Shared).

    Returns one array of values per term.  One call sweeps each panel once for
    all its points and all the terms deep enough to reach it (_blocked_quadrature
    splits a large point set over several calls), and an integrand listed in
    several terms (the same object) is evaluated once per panel.  Each term sums
    its own panels in its own order, so a term's values are bit for bit the ones
    it gets alone.

    A panel's positions come from _panel_positions: on the disk and the ball,
    the start points scaled by one RK4 multiplier R_s per node, within 12.4 ulp
    (relative) of marching each point; per_point marches each point by
    trajectories there too, as on the annulus.

    Each panel makes one table and drops it when it ends: a factor that several
    of its integrands read is computed once, at the panel's positions.  |z| and
    the cutoff profiles are kept for the whole panel, the derivatives of an h
    while the integrands of h follow one another (C3 and C4 list their chains
    input by input).  The integrands of a panel also scatter their live values
    into one nodes x points zero buffer per dtype (and, without orders, trailing
    shape): all of them fill the same live entries, so the dead ones stay zero.

    The integrands are taken to vanish where tau >= support: a panel with no pair
    below the bound is not swept, and in a panel with some, only the points with
    a live node are flowed and only the live pairs evaluated.  Where an integrand
    is indeed zero past the bound, the sum is the one over every pair, bit for bit.

    With orders, the values carry a trailing axis, one entry per derivative
    order |beta|, and the node weight of entry b is further multiplied by
    R_s**orders[b]: on a linear flow the RK4 map is p -> R_s p, R_s real, so
    this is the chain rule for D^beta of the integral.  R_s is read off the
    sweep itself, the derivative of the discrete map.  The entries pass through
    the panel's buffer one at a time (_entry_sums), so no nodes x points x
    entries array is held.
    """
    points = np.asarray(points, dtype=complex)
    t = chart.hit_time(points)
    live = _swept(t)
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
        need = tau < support
        cols = need.any(axis=0)
        if not cols.any():
            # near the collar's edge every node of the panel lies past the bound,
            # and tau only grows from panel to panel: the sum is the zero it holds
            break
        start = pts[cols]
        pos = _panel_positions(chart, start, s, per_point)
        if orders is not None:
            # R_s of the swept map p -> R_s p, read at the start point of largest modulus
            ref = int(np.argmax(np.abs(start)))
            factor = (pos[:, ref] / start[ref]).real
            powers = factor[:, None] ** np.asarray(orders)
        live_pos, live_tau = pos[need[:, cols]], tau[need]
        # only the live pairs are read from here on
        del pos, tau
        # the terms that reach this panel, by integrand, and the table they read
        reach = {}
        for i, (_, integrand, depth) in enumerate(terms):
            if depth > j:
                reach.setdefault(integrand, []).append(i)
        shared = _Shared()
        buffers = {}

        def buffer(kind):
            if kind not in buffers:
                buffers[kind] = np.zeros(need.shape + kind[1], dtype=kind[0])
            return buffers[kind]
        for integrand, members in reach.items():
            live_values = integrand(live_pos, live_tau, shared)
            if orders is None:
                values = buffer((live_values.dtype, live_values.shape[1:]))
                values[need] = live_values
            else:
                values = buffer((live_values.dtype, ()))
            for i in members:
                node_weights = weights * terms[i][0](s)
                if orders is None:
                    totals[i] = totals[i] + np.tensordot(node_weights, values, axes=(0, 0))
                else:
                    totals[i] = totals[i] + _entry_sums(node_weights[:, None] * powers,
                                                        live_values, need, values)
            # the next integrand's values replace these rather than join them
            del live_values
    for out, total in zip(outs, totals):
        out[live] = total
    return outs


def _blocked_quadrature(chart, points, terms, *, support):
    """_collar_quadrature of pointwise integrands in blocks of at most
    _SWEEP_PAIRS node-point pairs, one call per block, so that the memory of a
    sweep stays bounded as the grids refine.  A point set that fits in one block
    takes one call.  A larger one is flattened, its swept points split into the
    fewest contiguous blocks of nearly equal size, a multiple of _BLOCK_QUANTUM
    points each but the last.

    The values are those of one call over all the points, bit for bit: the
    integrands and the RK4 sweep act point by point, and the panel sum gives a
    point's column the same bits in a block as in the whole batch as long as
    the column keeps its place modulo the quantum (README, "Sweeps in blocks")."""
    points = np.asarray(points, dtype=complex)
    shape = _value_shape(chart.domain, points)
    quantum = _BLOCK_QUANTUM
    per_block = max(quantum,
                    _SWEEP_PAIRS // (_GAUSS_PER_PANEL * chart.q_panels) // quantum * quantum)
    if math.prod(shape) <= per_block:
        return _collar_quadrature(chart, points, terms, support=support)
    flat = points.reshape((-1,) + points.shape[len(shape):])
    swept = np.flatnonzero(_swept(chart.hit_time(flat)))
    n_blocks = max(1, -(-len(swept) // per_block))
    size = max(quantum, -(-len(swept) // (n_blocks * quantum)) * quantum)
    outs = [np.zeros(len(flat), dtype=complex) for _ in terms]
    for first in range(0, len(swept), size):
        block = swept[first:first + size]
        for out, values in zip(outs, _collar_quadrature(chart, flat[block], terms,
                                                        support=support)):
            out[block] = values
    return [out.reshape(shape) for out in outs]


def _values(w, pos, shared):
    """w at the positions pos; a RadialHolo reads its factors through the panel's
    table shared."""
    return w(pos, shared) if isinstance(w, RadialHolo) else w(pos)


def _chain_terms(chains):
    """Quadrature terms of depth-fold anti-differentiation for (w, depth) chains,
    one integrand per distinct w."""
    integrands = {}
    terms = []
    for w, depth in chains:
        if depth not in (1, 2, 3):
            raise ParameterError("chain depth 1 to 3 is supported")
        if id(w) not in integrands:
            integrands[id(w)] = lambda pos, tau, shared, w=w: np.asarray(
                _values(w, pos, shared), complex)
        terms.append((lambda s, depth=depth: _chain_kernel(depth, s), integrands[id(w)],
                      depth))
    return terms


def antideriv_chains(chart: CollarChart, chains, points, support: float = 1.0):
    """depth-fold anti-differentiation of collar-supported functions, for each
    (w, depth) in chains, all at the same points, in one sweep of each panel per
    block of points (_blocked_quadrature); a w listed at several depths is
    evaluated once per panel and block.

    By the flow group property the iterated backward-trajectory integrals
    collapse to a single integral against a B-spline kernel; this is exact
    whenever w vanishes off the collar, which the cutoff guarantees.  w is
    evaluated only where the hit time is below support, 1 (the collar) by that
    contract; pass a larger bound, or np.inf, for a w that reaches further, and
    CUTOFF_END for a w that carries the cutoff or its derivative as a factor.
    Returns one array of values at points per chain, zero outside the collar,
    each bit for bit the one its chain gets alone.  depth is 1, 2 or 3.
    """
    return _blocked_quadrature(chart, points, _chain_terms(chains), support=support)


def flow_moment_apply(chart: CollarChart, moments, points, support: float = 1.0):
    """The Hardy majorants: for each (mu, g) in moments, the integral of
    (hit time at the flow point)^mu * |g o flow|, for a g that vanishes where the
    hit time is support or more, where it is not evaluated: 1 (off the collar)
    by default, CUTOFF_END for a g that carries the cutoff as a factor.  All in
    one sweep of each panel per block of points (_blocked_quadrature); returns
    one real array per pair, each bit for bit the one its pair gets alone.

    The hitting time along the trajectory is the base hitting time minus the
    flow time, which the group property gives exactly.  A RadialHolo g reads
    its factors through the panel's table, so the cutoff profiles of C2's
    seeded cutoff products are computed once per panel for all of them.
    """
    terms = [(lambda s: 1.0,
              lambda pos, tau, shared, mu=mu, g=g:
              tau**mu * np.abs(np.asarray(_values(g, pos, shared))), 1)
             for mu, g in moments]
    return [out.real for out in _blocked_quadrature(chart, points, terms, support=support)]
