"""Boundary hitting times, the collar chart, and anti-differentiation along the
backward flow of the transverse field.

The transverse field N on every model domain is radial with a real factor, so
the chart carries closed-form hitting times and flow radii, the oracles of the
numerical paths, and the RK4 map of a sweep is p -> lambda_s(|p|) p.  Every
quadrature along the flow is one `_collar_quadrature` sweep of points of the
closed domain over flow times [-1, 0], block by block of points.  The numerical
paths share one RK4 step and march radii as real scalars: the quadrature sweeps
scale their points by their marched distinct radii (only operators.apply_op's
per_point marches each point, by `trajectories`), and `hitting_time` marches the
radius of each point to the boundary and bisects.

The chart's cutoff is evaluated in one of two ways: its value alone at points
(`CollarChart.cutoff`), or the value and its rate, minus its time derivative,
together at radii from one hit time (`CollarChart.cutoff_profiles`), the pair
that the integrands of a sweep read from its shared table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NotInCollarError, ParameterError
from .functions import RadialHolo, _Shared, _smoothstep_pair, smoothstep
from .geometry import (Domain, VectorField, _annulus_logs, _gauss_legendre, canonical_fields,
                       collar_rate)

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
# larger point set is swept in blocks (see _blocks).  A block's monomial table of
# a Poly2Family holds 16 doubles per live pair, which this budget keeps within
# the memory the sweeps held before the table
_SWEEP_PAIRS = 2**14
# The panel sums of the pointwise sweeps run over a multiple of this many points,
# zero-padded: BLAS then sums every point by its main kernel, never by the path
# it takes for the last few, so a point's sum does not depend on its column
_SUM_QUANTUM = 16


def _rk4_step(field, x, h):
    """One RK4 step of size h, a float or one size per point broadcast against x."""
    vel = field.velocity
    k1 = vel(x)
    k2 = vel(x + 0.5 * h * k1)
    k3 = vel(x + 0.5 * h * k2)
    k4 = vel(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


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
        equal, so the pair is one key of a sweep block's shared factor table."""
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

    The field is radial with a real factor, so the time depends on |x| alone:
    the radius of each inside point is marched as a real scalar, as the sweeps
    march theirs (on the ball, as a point of C^2 with one coordinate).  Each
    radius takes RK4 steps of 1/m_steps while the end of the next step stays
    inside; the fraction of that crossing step is then bisected, one RK4 step
    of the fraction per iteration, for all radii together.  A point on the
    boundary has time 0."""
    x = np.asarray(x, dtype=complex)
    defining = chart.domain.defining_function
    rho0 = defining(x)
    if np.any(rho0 > 1e-12):
        raise ContractError("hitting time needs points in the closed domain")
    inside = rho0 < 0
    radii = chart.domain.radius(x[inside])
    state = radii[:, None] if chart.domain.kind == "ball2" else radii
    m = chart.m_steps
    # march: radius i stays inside for k[i] steps, and its next step crosses
    k = np.zeros(len(radii), dtype=int)
    going = np.arange(len(radii))
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
    lo = np.zeros(len(radii))
    half = 0.5
    while 2 * half / m > 1e-10:
        mid = lo + half
        moved = _rk4_step(chart.field, state, (mid / m).reshape(mid.shape + state.shape[1:]))
        lo = np.where(defining(moved) < 0, mid, lo)
        half *= 0.5
    t = np.zeros(rho0.shape)
    t[inside] = (k + lo + half) / m
    return float(t) if t.ndim == 0 else t


# ---------------------------------------------------------------------------
# trajectory quadrature and anti-differentiation
# ---------------------------------------------------------------------------


def trajectories(chart: CollarChart, points, s_values, n_steps: int):
    """RK4 positions along the backward flow at each (sorted descending) time.

    Each gap between successive times takes ceil(gap * n_steps) steps, at least
    one, so n_steps is a floor on the rate: the 128 Gauss nodes of 32 panels per
    unit time get 128 steps per unit time for every n_steps up to 94.  The
    quadrature sweeps pass the chart's m_steps, and march their radii alike."""
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


def _radius_scales(chart: CollarChart, radii, s_values):
    """The multipliers lambda_s(r) = (r marched to s) / r, times s by radii r, each
    radius marched as a real scalar through the chart's N by trajectories' rule;
    one radius alone steps as a numpy scalar, to the same bits in about half the time."""
    state = radii[0] if len(radii) == 1 else radii
    return _march(chart.field, state, s_values, chart.m_steps).reshape(-1, len(radii)) / radii


def _panel_positions(chart: CollarChart, start, s, scales):
    """RK4 positions of the start points p at the sweep's times s, nodes x points:
    lambda_s(|p|) p from scales, or each point marched by trajectories where
    scales is None (per_point).  The one place a quadrature sweep flows points."""
    if scales is None:
        return trajectories(chart, start, s, chart.m_steps)
    return scales.reshape(scales.shape + (1,) * (start.ndim - 1)) * start


def _panel_nodes(n_panels: int):
    """Composite Gauss nodes and weights of n_panels panels on [-1, 0], the flow
    times of a sweep."""
    gx, gw = _gauss_legendre(_GAUSS_PER_PANEL)
    edges = np.linspace(-1.0, 0.0, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * gx[None, :]).ravel()
    weights = np.tile(half * gw, n_panels)
    return nodes, weights


def _chain_kernel(depth: int, u):
    """Kernel of the depth-fold plain anti-differentiation, for depth 1, 2 or 3,
    at the times u in [-1, 0] that a sweep reaches.

    This is the length/area of {s in [-1,0]^depth : sum s_i = u}: the
    B-spline of order depth, supported on [-depth, 0].
    """
    v = -np.asarray(u, dtype=float)
    if depth == 1:
        return np.ones_like(v)
    if depth == 2:
        return 1.0 - np.abs(v - 1.0)
    return 0.5 * v ** 2


def _swept(t):
    """Where the hit times t lie in the collar: the points whose trajectories a
    quadrature sweeps."""
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


def _blocks(chart: CollarChart, n: int):
    """The blocks of a sweep of n points, as slices: the fewest contiguous runs of
    at most _SWEEP_PAIRS node-point pairs, of nearly equal size."""
    per_block = max(1, _SWEEP_PAIRS // (_GAUSS_PER_PANEL * chart.q_panels))
    n_blocks = max(1, -(-n // per_block))
    size = max(1, -(-n // n_blocks))
    return [slice(first, min(first + size, n)) for first in range(0, n, size)]


def _collar_quadrature(chart, points, terms, *, support, orders=None, per_point=False):
    """Gauss quadrature along the backward trajectories of the collar points at the
    chart's resolution, zero off the collar, for terms, a sequence of (kernel,
    integrand) pairs: over the flow times s in [-1, 0] the node weight factors
    kernel(s) against integrand(pos, tau, shared), the values at the positions
    pos of the live points with hit times tau = t - s there.  shared is the
    table of shared factors (functions._Shared) of a block.

    The points lie in the closed domain (Domain.contains, to hitting_time's
    1e-12), or ContractError is raised: the integrands vanish from hit time 1
    on, which a point of hit time t >= 0 reaches within [-1, 0].

    Returns one array of values per term, of the points' value shape.  The one
    sweep of the package: the hit times, radii, Gauss nodes, multiplier table
    and each term's node weights are made once per call; then the points are
    swept block by block (_blocks), each block's sum added in place into its
    points' values, so that a sweep's memory stays bounded as the grids
    refine.  An integrand listed in several terms (the same object) is
    evaluated once per block.  Each term sums in its own order, so its values
    are bit for bit the ones it gets alone.  A point's panel sum runs over a
    buffer padded to a whole number of _SUM_QUANTUM points, so it does not
    depend on the point's column; against one block the values agree to
    rounding, bit for bit on the layouts the tests pin, since numpy's
    elementwise complex arithmetic may round a point by the size of its batch
    (README, "Sweeps in blocks").

    The positions come from _panel_positions: each start point p scaled by
    lambda_s(|p|), within 12.4 ulp (relative) of marching it, from a table at
    the one radius 1 on the disk and the ball, where lambda_s does not depend
    on r, and at the points' distinct |p| on the annulus.  With per_point, which
    only operators.apply_op passes, each point is marched by trajectories, and
    the call is one block: apply_op's integrand is called once per call, and
    orders read R_s off the call's largest start point.

    Each block makes one table and drops it when it ends: a factor that several
    of its integrands read is computed once.  |z| and the cutoff profiles are
    kept for the whole block, the derivatives of an h while the integrands of h
    follow one another (C3 and C4 list their chains input by input), and the
    monomial table of a Poly2Family while its members' integrands do (C1's and
    C2's seeded polynomials, one family per sweep).  The
    integrands also scatter their live values into one nodes x points zero
    buffer per dtype, whose dead entries stay zero.

    The integrands are taken to vanish where tau >= support: the blocks are cut
    from the points of hit time below both 1 and the bound, and in a block only
    the points with a live node are flowed and only the live pairs evaluated.
    Where an integrand is indeed zero past the bound, the sum is the one over
    every pair, to rounding: the integrands then run on fewer pairs.  The
    callers' bounds: 1, the collar, for antideriv_chains and flow_moment_apply
    by default; CUTOFF_END for integrands that carry the cutoff; and for the
    kernels of operators.apply_op, CUTOFF_END widened by the reach of the leaf
    stencils below them (operators._support).

    With orders (on the disk, where lambda_s is one R_s per node), the values
    carry a trailing axis, one entry per derivative order |beta|, and the node
    weight of entry b is further multiplied by R_s**orders[b], read off the
    sweep itself: the chain rule for D^beta of the integral.  The entries pass
    through the buffer one at a time (_entry_sums), so no nodes x points x
    entries array is held.
    """
    points = np.asarray(points, dtype=complex)
    if not np.all(chart.domain.contains(points)):
        raise ContractError("a collar sweep needs points in the closed domain")
    t = chart.hit_time(points)
    shape, flat = t.shape, points.reshape((t.size,) + points.shape[t.ndim:])
    t = t.ravel()
    swept = np.flatnonzero(_swept(t) & (t < support))
    trailing = () if orders is None else (len(orders),)
    outs = [np.zeros(t.shape + trailing, dtype=complex) for _ in terms]
    t = t[swept]
    if not terms or not swept.size:
        return [out.reshape(shape + trailing) for out in outs]
    if chart.domain.kind in ("disk", "ball2"):
        radii, columns = np.ones(1), None
    else:
        radii, columns = np.unique(chart.domain.radius(flat[swept]), return_inverse=True)
    s, weights = _panel_nodes(chart.q_panels)
    scales = None if per_point else _radius_scales(chart, radii, s)
    # the terms by integrand, with their node weights
    by_integrand = {}
    for i, (kernel, integrand) in enumerate(terms):
        by_integrand.setdefault(integrand, []).append((i, weights * kernel(s)))
    for block in [slice(0, len(t))] if per_point else _blocks(chart, len(t)):
        tau = t[block][None, :] - s[:, None]
        need = tau < support
        cols = need.any(axis=0)
        if not cols.any():
            continue
        start = flat[swept[block][cols]]
        block_scales = scales
        if scales is not None and scales.shape[1] > 1:  # one radius serves every point
            block_scales = scales[:, columns[block][cols]]
        pos = _panel_positions(chart, start, s, block_scales)
        if orders is not None:
            # R_s of the swept map p -> R_s p, read at the start point of largest modulus
            ref = int(np.argmax(np.abs(start)))
            factor = (pos[:, ref] / start[ref]).real
            powers = factor[:, None] ** np.asarray(orders)
        live_pos, live_tau = pos[need[:, cols]], tau[need]
        # only the live pairs are read from here on
        del pos, tau
        shared = _Shared()
        buffers = {}
        n = need.shape[1]
        width = n if orders is not None else _SUM_QUANTUM * -(-n // _SUM_QUANTUM)
        for integrand, members in by_integrand.items():
            live_values = integrand(live_pos, live_tau, shared)
            if live_values.dtype not in buffers:
                buffers[live_values.dtype] = np.zeros((len(s), width), dtype=live_values.dtype)
            buffer = buffers[live_values.dtype]
            values = buffer[:, :n]
            if orders is None:
                values[need] = live_values
            for i, node_weights in members:
                if orders is None:
                    outs[i][swept[block]] += np.tensordot(node_weights, buffer,
                                                          axes=(0, 0))[:n]
                else:
                    outs[i][swept[block]] += _entry_sums(node_weights[:, None] * powers,
                                                         live_values, need, values)
            # the next integrand's values replace these rather than join them
            del live_values
        # the next block's table, buffers and live pairs replace these
        del shared, buffers, buffer, values, live_pos, live_tau, need
    return [out.reshape(shape + trailing) for out in outs]


def _values(w, pos, shared):
    """w at the positions pos; a RadialHolo reads its factors through the block's
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
        terms.append((lambda s, depth=depth: _chain_kernel(depth, s), integrands[id(w)]))
    return terms


def antideriv_chains(chart: CollarChart, chains, points, support: float = 1.0):
    """depth-fold anti-differentiation of collar-supported functions, for each
    (w, depth) in chains, all at the same points of the closed domain, in one
    _collar_quadrature (swept once, block by block); a w listed at several
    depths is evaluated once per block.

    By the flow group property the iterated backward-trajectory integrals
    collapse to a single integral against a B-spline kernel; this is exact
    whenever w vanishes from hit time 1 on, off the collar, which the cutoff
    guarantees.  Then only the flow times in [-1, 0] contribute, and they are
    all that is swept.  w is evaluated only where the hit time is below
    support, 1 (the collar) by that contract; pass a larger bound, or np.inf,
    for a w that reaches further, and CUTOFF_END for a w that carries the
    cutoff or its derivative as a factor.  Returns one array of values at
    points per chain, zero outside the collar, each bit for bit the one its
    chain gets alone at the same points, which are blocked alike.  depth is 1,
    2 or 3, and a point outside the closed domain raises ContractError.
    """
    return _collar_quadrature(chart, points, _chain_terms(chains), support=support)


def flow_moment_apply(chart: CollarChart, moments, points, support: float = 1.0):
    """The Hardy majorants: for each (mu, g) in moments, the integral over flow
    times [-1, 0] of (hit time at the flow point)^mu * |g o flow|, for a g that
    vanishes where the hit time is support or more, where it is not evaluated:
    1 (off the collar) by default, CUTOFF_END for a g that carries the cutoff
    as a factor.  The points lie in the closed domain (ContractError
    otherwise).  All in one _collar_quadrature (swept once, block by block);
    returns one real array per pair, each bit for bit the one its pair gets
    alone at the same points.

    The hitting time along the trajectory is the base hitting time minus the
    flow time, which the group property gives exactly.  A RadialHolo g reads
    its factors through the block's table, so the cutoff profiles of C2's
    seeded cutoff products are computed once per block for all of them.
    """
    terms = [(lambda s: 1.0,
              lambda pos, tau, shared, mu=mu, g=g:
              tau**mu * np.abs(np.asarray(_values(g, pos, shared))))
             for mu, g in moments]
    return [out.real for out in _collar_quadrature(chart, points, terms, support=support)]
