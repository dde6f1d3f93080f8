"""Writing a cutoff holomorphic function as derivatives along the conjugate
tangential field of norm-controlled pieces.

The pipeline lives on the canonical rotation-invariant charts (disk, ball),
where the rotation field commutes exactly with the flow kernel; conjugate
field derivatives inside the construction therefore land analytically on
tracked holomorphic data, while the final identity check re-differentiates
the computed components by honest rotation finite differences.
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
from .operators import commutator, compose, field_op, iterated_commutator, kernel_op, op_sum

__all__ = [
    "DecompositionResult",
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
    """The tracked product cutoff(x) * h(x)."""
    zeta = lambda r: chart.cutoff_of_time(chart.hit_time_radial(r))
    return RadialHolo([(zeta, h)])


def cr_reduction(h: Holo1, chart: CollarChart) -> RadialHolo:
    """(N - i Tbar)[cutoff * h], reduced to (N - i Tbar)[cutoff] * h.

    For holomorphic h the transverse and rotation derivatives of h cancel
    (the Cauchy-Riemann equations), so only the cutoff is differentiated.
    The cutoff is radial and the rotation field is angular, which leaves the
    transverse part: minus the time derivative of the cutoff profile at the
    hitting time.  The result is supported where the cutoff transitions,
    strictly inside the domain.
    """
    _require_rotation_chart(chart)

    factor = lambda r: -chart.cutoff_time_derivative(chart.hit_time_radial(r))
    return RadialHolo([(factor, h)])


def reproduction_residual(h: Holo1, k: int, chart: CollarChart) -> float:
    """Sup over evaluation points of the k-step reproduction defect of cutoff * h.

    The identity iterates the transverse-flow reproduction: k applications of
    (kernel o conjugate-field) on cutoff * h plus flow corrections built from
    the reduced transverse defect of the cutoff.  Conjugate-field derivatives
    are taken analytically on the tracked data (the rotation field commutes
    with the radial flow kernel on these charts).  Every term carries the cutoff
    or its derivative, so each is integrated only up to the cutoff's end, and all
    of them in one sweep of the evaluation points.
    """
    if k < 1 or k > 3:
        raise ParameterError("reproduction identity implemented for orders 1 to 3")
    _require_rotation_chart(chart)
    points = _default_eval_points(chart)
    zh = cutoff_times(chart, h)
    target = zh(points)
    # conjugate tangential field: -rate times the rotation action
    tbar = 1j * (-chart.rate)
    # main term: i^k kernel^k [Tbar^k (cutoff h)]
    tk = zh
    for _ in range(k):
        tk = tk.rotation_applied()
    chains = [(tk, k)]
    # corrections: i^j kernel^{j+1} [Tbar^j reduced-defect]
    tj = cr_reduction(h, chart)
    for j in range(k):
        chains.append((tj, j + 1))
        tj = tj.rotation_applied()
    main, *corrections = antideriv_chains(chart, chains, points, support=CUTOFF_END)
    acc = tbar**k * main
    for j, correction in enumerate(corrections):
        acc = acc + tbar**j * correction
    return float(np.max(np.abs(target - acc)))


def _default_eval_points(chart: CollarChart):
    return polar_eval_grid(chart.domain, 28, 40, delta=2e-3, r_inner=0.35).nodes().ravel()


# ---------------------------------------------------------------------------
# the expansion of kernel-field powers into field powers of controlled operators
# ---------------------------------------------------------------------------


def power_expansion(k: int, chart: CollarChart, fld: VectorField) -> dict:
    """Coefficient operators of (kernel o X)^l = sum_m X^m o G[l, m], l <= k.

    Built by the commutator recursion; each returned expression's class tag
    satisfies the expected constraint (derivative count at most l - m, never
    exceeding the total time weight).
    """
    if k < 1 or k > 2:
        raise ParameterError("full expansion implemented for orders 1 and 2")
    A = kernel_op()
    X = field_op(fld)
    out = {(1, 1): A, (1, 0): commutator(A, X)}
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


def rotation_fd(fn, points, order: int = 1):
    """Rotation-field derivative of a closure by angular finite differences.

    The stencil rotates the evaluation points, so the radius (and the collar
    time) is preserved exactly.  Higher orders nest the stencil: the points are
    rotated once per order level, fn is called once, on all 4**order rotated
    copies stacked, and the stencil sums are taken innermost level first, in
    the order of the nested recursion, so the result is bit for bit the one of
    evaluating each copy on its own.
    """
    coeff = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * _ROTATION_STEP)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * _ROTATION_STEP
    stacked = points
    for _ in range(order):
        # a new leading axis per level, the latest level (innermost stencil) first
        stacked = np.stack([stacked * np.exp(1j * o) for o in offs])
    values = np.asarray(fn(stacked), dtype=complex)
    for _ in range(order):
        out = np.zeros(values.shape[1:], dtype=complex)
        for c, v in zip(coeff, values):
            out = out + c * v
        values = out
    return values


def _components(h: Holo1, chart: CollarChart):
    """The components of orders one and two, each as (input, depth, combine):
    combine(kernel^depth[input]) is the component.

    On the rotation-invariant charts the commutator coefficients vanish and
    the components collapse to iterated flow kernels of the tracked inputs:
    order 1: (kernel[reduced], i kernel[cutoff h]);
    order 2: (kernel[reduced], i kernel^2[reduced], - kernel^2[cutoff h]).
    """
    zh = cutoff_times(chart, h)
    cr = cr_reduction(h, chart)
    same, times_i, minus = (lambda v: v), (lambda v: 1j * v), (lambda v: -v)
    return {1: ((cr, 1, same), (zh, 1, times_i)),
            2: ((cr, 1, same), (cr, 2, times_i), (zh, 2, minus))}


def _component_values(components, chart: CollarChart, points):
    """Values at points of components (input, depth, combine), in one sweep of the
    points: a chain that several components share is integrated once.  Every input
    carries the cutoff or its derivative, so the chains end at the cutoff's end."""
    chains = list(dict.fromkeys((w, depth) for w, depth, _ in components))
    values = dict(zip(chains, antideriv_chains(chart, chains, points, support=CUTOFF_END)))
    return [combine(values[w, depth]) for w, depth, combine in components]


def decompose(h: Holo1, k: int, chart: CollarChart, points=None,
              grid=None) -> DecompositionResult:
    """Split cutoff * h into conjugate-field derivatives of controlled pieces.

    Components are evaluated on the given points; the identity residual
    re-differentiates the computed components by rotation finite differences
    (honest derivatives of the numerical output, not of the construction).
    Component norms are quadrature collar norms, reported against the
    distance-weighted norm of h.  Each point set is swept once: the points and
    the quadrature nodes for all components together, and the rotation stencil
    of each differentiated component stacked into one set.
    """
    if k < 1 or k > 2:
        raise ParameterError("components implemented for orders 1 and 2")
    _require_rotation_chart(chart)
    if points is None:
        points = _default_eval_points(chart)
    components = _components(h, chart)[k]
    comps = tuple(_component_values(components, chart, points))

    zh = cutoff_times(chart, h)
    recon = comps[0]
    for m, component in enumerate(components[1:], start=1):
        # the conjugate tangential field is -rate times the rotation action
        fn = lambda p: _component_values([component], chart, p)[0]
        recon = recon + (-chart.rate) ** m * rotation_fd(fn, points, order=m)
    residual = float(np.max(np.abs(zh(points) - recon)))

    qgrid = grid if grid is not None else _default_grid(chart.domain)
    norms = tuple(qgrid.norm(v) for v in _component_values(components, chart, qgrid.nodes))
    wk = weighted_negative_norm(h, k, chart.domain, qgrid)
    ratios = tuple(n / wk if wk > 0 else 0.0 for n in norms)
    return DecompositionResult(np.asarray(points), comps, residual, norms, ratios)
