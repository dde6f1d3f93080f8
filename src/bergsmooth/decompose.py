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
from .flow import CollarChart, antideriv_chain
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


def reproduction_residual(h: Holo1, k: int, chart: CollarChart,
                          q_panels: int = 32, m_steps: int = 64) -> float:
    """Sup over evaluation points of the k-step reproduction defect of cutoff * h.

    The identity iterates the transverse-flow reproduction: k applications of
    (kernel o conjugate-field) on cutoff * h plus flow corrections built from
    the reduced transverse defect of the cutoff.  Conjugate-field derivatives
    are taken analytically on the tracked data (the rotation field commutes
    with the radial flow kernel on these charts).
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
    acc = tbar**k * antideriv_chain(chart, tk, points, depth=k,
                                    q_panels=q_panels, m_steps=m_steps)
    # corrections: i^j kernel^{j+1} [Tbar^j reduced-defect]
    cr = cr_reduction(h, chart)
    tj = cr
    for j in range(k):
        acc = acc + tbar**j * antideriv_chain(chart, tj, points, depth=j + 1,
                                              q_panels=q_panels, m_steps=m_steps)
        tj = tj.rotation_applied()
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
    time) is preserved exactly; applied recursively for higher orders.
    """
    if order == 0:
        return np.asarray(fn(points), dtype=complex)
    coeff = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * _ROTATION_STEP)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * _ROTATION_STEP
    out = np.zeros(np.shape(points), dtype=complex)
    for c, o in zip(coeff, offs):
        out = out + c * rotation_fd(fn, points * np.exp(1j * o), order - 1)
    return out


def _component_closures(h: Holo1, k: int, chart: CollarChart,
                        q_panels: int, m_steps: int):
    """Component value closures for orders one and two.

    On the rotation-invariant charts the commutator coefficients vanish and
    the components collapse to iterated flow kernels of the tracked inputs:
    order 1: (kernel[reduced], i kernel[cutoff h]);
    order 2: (kernel[reduced], i kernel^2[reduced], - kernel^2[cutoff h]).
    """
    zh = cutoff_times(chart, h)
    cr = cr_reduction(h, chart)

    def chain(w, depth):
        return lambda p, w=w, depth=depth: antideriv_chain(
            chart, w, p, depth=depth, q_panels=q_panels, m_steps=m_steps)

    if k == 1:
        h0 = chain(cr, 1)
        h1 = lambda p: 1j * chain(zh, 1)(p)
        return (h0, h1)
    h0 = chain(cr, 1)
    h1 = lambda p: 1j * chain(cr, 2)(p)
    h2 = lambda p: -chain(zh, 2)(p)
    return (h0, h1, h2)


def decompose(h: Holo1, k: int, chart: CollarChart, points=None, grid=None,
              q_panels: int = 32, m_steps: int = 64) -> DecompositionResult:
    """Split cutoff * h into conjugate-field derivatives of controlled pieces.

    Components are evaluated on the given points; the identity residual
    re-differentiates the computed components by rotation finite differences
    (honest derivatives of the numerical output, not of the construction).
    Component norms are quadrature collar norms, reported against the
    distance-weighted norm of h.
    """
    if k < 1 or k > 2:
        raise ParameterError("components implemented for orders 1 and 2")
    _require_rotation_chart(chart)
    if points is None:
        points = _default_eval_points(chart)
    closures = _component_closures(h, k, chart, q_panels, m_steps)
    comps = tuple(np.asarray(c(points), dtype=complex) for c in closures)

    zh = cutoff_times(chart, h)
    recon = comps[0]
    for m, c in enumerate(closures[1:], start=1):
        # the conjugate tangential field is -rate times the rotation action
        recon = recon + (-chart.rate) ** m * rotation_fd(c, points, order=m)
    residual = float(np.max(np.abs(zh(points) - recon)))

    qgrid = grid if grid is not None else _default_grid(chart.domain)
    norms = tuple(qgrid.norm(np.asarray(c(qgrid.nodes), dtype=complex)) for c in closures)
    wk = weighted_negative_norm(h, k, chart.domain, qgrid)
    ratios = tuple(n / wk if wk > 0 else 0.0 for n in norms)
    return DecompositionResult(np.asarray(points), comps, residual, norms, ratios)
