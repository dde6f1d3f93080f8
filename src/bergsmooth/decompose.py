"""Writing a cutoff holomorphic function as derivatives along the conjugate
tangential field of norm-controlled pieces.

The pipeline lives on the canonical rotation-invariant chart of the disk,
where the rotation field commutes exactly with the flow kernel; conjugate
field derivatives inside the construction therefore land analytically on
tracked holomorphic data, while the final identity check re-differentiates
the computed components by honest rotation finite differences: the first and
second derivatives from one stencil over the same four rotated copies of the
evaluation points, swept together with the points themselves.  cutoff * h and
its reduced transverse defect take their radial profiles from the two halves
of the chart's one pair, the cutoff and its rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .flow import CUTOFF_END, CollarChart, antideriv_chains
from .functions import Holo1, RadialHolo
from .geometry import VectorField, polar_eval_grid
from .norms import _default_grid, weighted_negative_norm
from .operators import commutator, compose, iterated_commutator, kernel_op, op_sum

__all__ = [
    "DecompositionResult",
    "component_values",
    "cr_reduction",
    "cutoff_times",
    "matched_tangential",
    "reproduction_residual",
    "power_expansion",
    "decompose",
    "rotation_fd",
]


def _require_rotation_chart(chart: CollarChart):
    if chart.domain.kind != "disk":
        raise ContractError("the decomposition pipeline runs on the rotation-invariant "
                            "planar chart")


def matched_tangential(chart: CollarChart) -> VectorField:
    """The tangential field whose complex-structure rotation is the transverse field.

    The transverse-equals-i-times-tangential identity for holomorphic
    functions holds only for this normalization; the canonical rotation field
    differs from it by the constant factor -rate, which the field-rescaling
    estimate absorbs when norms are compared.
    """
    dom = chart.domain
    return VectorField(dom, lambda p: -1j * chart.rate * dom.defining_gradient_z(p),
                       tangential=True, real=True, name="T1")


def cutoff_times(chart: CollarChart, h: Holo1) -> RadialHolo:
    """The tracked product cutoff(x) * h(x).

    Its profile is the cutoff half of the chart's cutoff_profiles, one key of a
    sweep block's shared table for every h on the chart: the pair is
    evaluated once per block for all of them, and h once for this product and
    the cr_reduction of h."""
    return RadialHolo(chart.cutoff_profiles, [(0, h)])


def cr_reduction(h: Holo1, chart: CollarChart) -> RadialHolo:
    """(N - i Tbar)[cutoff * h], reduced to (N - i Tbar)[cutoff] * h.

    For holomorphic h the transverse and rotation derivatives of h cancel
    (the Cauchy-Riemann equations), so only the cutoff is differentiated.
    The cutoff is radial and the rotation field is angular, which leaves the
    transverse part: minus the time derivative of the cutoff profile at the
    hitting time.  The result is supported where the cutoff transitions,
    strictly inside the domain.

    Its profile is the rate half of the chart's cutoff_profiles, read from the
    same pair as the profile of cutoff_times.
    """
    _require_rotation_chart(chart)
    return RadialHolo(chart.cutoff_profiles, [(1, h)])


def reproduction_residual(hs, orders, chart: CollarChart) -> dict:
    """Sup over evaluation points of the k-step reproduction defect of cutoff * h,
    keyed (i, k) for each input hs[i] and order k in orders, 1 to 3.

    The identity iterates the transverse-flow reproduction: k applications of
    (kernel o conjugate-field) on cutoff * h plus flow corrections built from
    the reduced transverse defect of the cutoff.  Conjugate-field derivatives
    are taken analytically on the tracked data (the rotation field commutes
    with the radial flow kernel on these charts).  Every term carries the cutoff
    or its derivative, so each is integrated only up to the cutoff's end.  The
    chains Tbar^j (cutoff h) and Tbar^j (reduced defect) are built once per
    input and shared by its orders, and every chain of the family is integrated
    in one sweep of the evaluation points; each residual is bit for bit the one
    of its h and k alone, reproduction_residual([h], [k], chart)[0, k].
    """
    if any(k < 1 or k > 3 for k in orders):
        raise ParameterError("reproduction identity implemented for orders 1 to 3")
    _require_rotation_chart(chart)
    points = _default_eval_points(chart)
    top = max(orders)
    targets, plans = [], {}
    for i, h in enumerate(hs):
        zh, cr = cutoff_times(chart, h), cr_reduction(h, chart)
        targets.append(zh(points))
        # Tbar^j applied analytically, up to the highest order's main term
        zh_rot, cr_rot = [zh], [cr]
        for _ in range(top):
            zh_rot.append(zh_rot[-1].rotation_applied())
            cr_rot.append(cr_rot[-1].rotation_applied())
        for k in orders:
            # main term: i^k kernel^k [Tbar^k (cutoff h)];
            # corrections: i^j kernel^{j+1} [Tbar^j reduced-defect]
            plans[i, k] = [(zh_rot[k], k)] + [(cr_rot[j], j + 1) for j in range(k)]
    chains = list(dict.fromkeys(chain for plan in plans.values() for chain in plan))
    values = dict(zip(chains, antideriv_chains(chart, chains, points, support=CUTOFF_END)))
    # conjugate tangential field: -rate times the rotation action
    tbar = 1j * (-chart.rate)
    out = {}
    for (i, k), (main, *corrections) in plans.items():
        acc = tbar**k * values[main]
        for j, correction in enumerate(corrections):
            acc = acc + tbar**j * values[correction]
        out[i, k] = float(np.max(np.abs(targets[i] - acc)))
    return out


def _default_eval_points(chart: CollarChart):
    return polar_eval_grid(chart.domain, 28, 40, delta=2e-3, r_inner=0.35).nodes().ravel()


# ---------------------------------------------------------------------------
# the expansion of kernel-field powers into field powers of controlled operators
# ---------------------------------------------------------------------------


def power_expansion(k: int, chart: CollarChart, fld: VectorField) -> dict:
    """Coefficient operators of (kernel o X)^l = sum_m X^m o G[l, m], l <= k.

    Built by the commutator recursion, with A the kernel and C_j the j-fold
    commutator [...[A, X], X]: G[1, 1] = A, G[1, 0] = C_1, and G[l, m] sums
    A o G[l-1, m-1] and comb(m', m) C_(m'-m) o G[l-1, m'-1] over m' > m.
    """
    if k < 1 or k > 2:
        raise ParameterError("full expansion implemented for orders 1 and 2")
    A = kernel_op()
    out = {(1, 1): A, (1, 0): commutator(A, fld)}
    prev = {1: out[(1, 1)], 0: out[(1, 0)]}
    for ell in range(2, k + 1):
        collected = {m: [] for m in range(ell + 1)}
        for m in range(1, ell + 1):
            collected[m].append((1.0, compose(A, prev[m - 1])))
            for j in range(m):
                cxm = iterated_commutator(A, fld, m - j)
                collected[j].append((float(math.comb(m, j)), compose(cxm, prev[m - 1])))
        prev = {}
        for m in range(ell + 1):
            terms = collected[m]
            prev[m] = out[(ell, m)] = (terms[0][1] if len(terms) == 1 and terms[0][0] == 1.0
                                       else op_sum(*terms))
    return out


# ---------------------------------------------------------------------------
# the components and their norm control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionResult:
    points: np.ndarray
    components: tuple          # arrays of component values on the points
    residual: float            # sup | cutoff*h - sum Tbar^m component_m |
    component_norms: tuple
    norm_ratios: tuple         # component norms over the weighted norm ||d^k h||

    def values_csv_rows(self):
        """Per-component value dump at the evaluation points."""
        header = ["component", "re_z", "im_z", "re_value", "im_value"]
        rows = []
        for j, comp in enumerate(self.components):
            for z, v in zip(self.points, comp):
                rows.append([j, z.real, z.imag, v.real, v.imag])
        return header, rows


_ROTATION_STEP = 2.5e-3
# the rotation stencils at offsets counted in steps, in units of
# 1 / (12 step**order): the central 5-point first derivative and the compact
# 4th-order second derivative; order 0 is the centre copy itself
_ROTATION_OFFSETS = (-2, -1, 0, 1, 2)
_ROTATION_WEIGHTS = {1: (1.0, -8.0, 0.0, 8.0, -1.0), 2: (-1.0, 16.0, -30.0, 16.0, -1.0)}


def rotation_fd(fn, points, orders):
    """Rotation-field derivatives of a closure by angular finite differences, one
    per order in orders, 0 to 2.

    The stencil rotates the evaluation points, so the radius (and the collar
    time) is preserved exactly.  Every order reads the same five copies, the
    points rotated by -2 and -1 steps, the points themselves in the centre, and
    the points rotated by 1 and 2 steps: fn is called once, on the copies stacked
    on a new leading axis.  Order 0 is the centre copy, order 1 the central
    5-point stencil and order 2 the compact 4th-order stencil, whose truncation
    error is a sixth of the order-1 stencil applied twice; each stencil sums its
    nonzero weights in offset order.  A pointwise fn gives each copy the values
    of evaluating it on its own to rounding, not bit for bit: numpy's
    elementwise complex arithmetic may round a point differently by the size of
    its batch, and a fn that sweeps the collar also sums its nodes with a
    matrix product, which may round a point's sum differently by its column in
    the batch.  fn may return trailing axes past the points' shape, several
    functions stacked say: the sums run over the leading stencil axis only, so
    each trailing entry is bit for bit its own call.
    """
    orders = tuple(orders)
    if any(order not in (0, 1, 2) for order in orders):
        raise ParameterError("rotation derivatives implemented for orders 0 to 2")
    points = np.asarray(points)
    copies = [points if o == 0 else points * np.exp(1j * (o * _ROTATION_STEP))
              for o in _ROTATION_OFFSETS]
    values = np.asarray(fn(np.stack(copies)), dtype=complex)
    out = []
    for order in orders:
        if order == 0:
            out.append(values[_ROTATION_OFFSETS.index(0)])
            continue
        scale = 12.0 * _ROTATION_STEP**order
        acc = np.zeros(values.shape[1:], dtype=complex)
        for w, v in zip(_ROTATION_WEIGHTS[order], values):
            if w:
                acc = acc + (w / scale) * v
        out.append(acc)
    return out


def _components(hs, orders, chart: CollarChart) -> dict:
    """The components of cutoff * hs[i] at each order k in orders, 1 or 2, keyed
    (i, k), each as (input, depth, combine): combine(kernel^depth[input]) is the
    component.

    On the rotation-invariant charts the commutator coefficients vanish and
    the components collapse to iterated flow kernels of the tracked inputs:
    order 1: (kernel[reduced], i kernel[cutoff h]);
    order 2: (kernel[reduced], i kernel^2[reduced], - kernel^2[cutoff h]).
    """
    if any(k < 1 or k > 2 for k in orders):
        raise ParameterError("components implemented for orders 1 and 2")
    _require_rotation_chart(chart)
    same, times_i, minus = (lambda v: v), (lambda v: 1j * v), (lambda v: -v)
    out = {}
    for i, h in enumerate(hs):
        zh, cr = cutoff_times(chart, h), cr_reduction(h, chart)
        by_order = {1: ((cr, 1, same), (zh, 1, times_i)),
                    2: ((cr, 1, same), (cr, 2, times_i), (zh, 2, minus))}
        out.update(((i, k), by_order[k]) for k in orders)
    return out


def component_values(hs, orders, chart: CollarChart, points) -> dict:
    """Values at points of the components of cutoff * hs[i] at each order k in
    orders, 1 or 2: one list per (i, k), in one sweep of the points
    (flow._collar_quadrature, block by block).  A chain that
    several components share, of one (i, k) or of several, is integrated once.
    Every input carries the cutoff or its derivative, so the chains end at the
    cutoff's end."""
    family = _components(hs, orders, chart)
    chains = list(dict.fromkeys((w, depth) for cs in family.values() for w, depth, _ in cs))
    values = dict(zip(chains, antideriv_chains(chart, chains, points, support=CUTOFF_END)))
    return {key: [combine(values[w, depth]) for w, depth, combine in cs]
            for key, cs in family.items()}


def decompose(hs, orders, chart: CollarChart, points=None, grid=None) -> dict:
    """Split cutoff * h into conjugate-field derivatives of controlled pieces, for
    each input hs[i] and order k in orders, 1 or 2: one DecompositionResult per
    (i, k).

    Components are evaluated on the given points; the identity residual
    re-differentiates the computed components by rotation finite differences
    (honest derivatives of the numerical output, not of the construction).
    Component norms are quadrature collar norms, reported against the
    distance-weighted norm of h.  Each point set is swept by one
    component_values call for the whole family, in blocks of bounded size when
    it is large: the points with their four rotated copies, every component of
    every (h, k) stacked on a trailing axis, from which rotation_fd takes the
    components themselves (the centre copy) and both derivatives; then the
    quadrature nodes.  Each result is bit for bit the one of its h and k alone,
    decompose([h], [k], chart)[0, k].
    """
    family = _components(hs, orders, chart)
    if points is None:
        points = _default_eval_points(chart)
    fn = lambda p: np.stack([v for vs in component_values(hs, orders, chart, p).values()
                             for v in vs], axis=-1)
    at_points, *derivs = rotation_fd(fn, points, range(max(orders) + 1))
    comps, recons, first = {}, {}, 0
    for key, cs in family.items():
        comps[key] = [at_points[..., first + m] for m in range(len(cs))]
        recons[key] = comps[key][0]
        for m in range(1, len(cs)):
            # the conjugate tangential field is -rate times the rotation action
            recons[key] = recons[key] + (-chart.rate) ** m * derivs[m - 1][..., first + m]
        first += len(cs)

    qgrid = grid if grid is not None else _default_grid(chart.domain)
    norms = component_values(hs, orders, chart, qgrid.nodes)
    out = {}
    for i, h in enumerate(hs):
        target = cutoff_times(chart, h)(points)
        for k in orders:
            residual = float(np.max(np.abs(target - recons[i, k])))
            component_norms = tuple(qgrid.norm(v) for v in norms[i, k])
            wk = weighted_negative_norm(h, k, chart.domain, qgrid)
            ratios = tuple(n / wk if wk > 0 else 0.0 for n in component_norms)
            out[i, k] = DecompositionResult(np.asarray(points), tuple(comps[i, k]), residual,
                                            component_norms, ratios)
    return out
