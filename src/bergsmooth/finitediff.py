"""Fourth-order finite-difference stencils, on callables and on polar grids."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ParameterError, ResolutionError

# default step for stencils applied to smooth callables
FD_STEP = 2e-3

# the central 5-point first-derivative stencil: weights, to be divided by 12
# times the step, at offsets counted in steps
_STENCIL_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0])
_STENCIL_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_C1 = _STENCIL_WEIGHTS / 12.0


def derivative_order(beta):
    """beta = (order in x, order in y) as two ints; ParameterError for an entry
    that is negative or not an integer."""
    bx, by = beta
    if not all(isinstance(b, numbers.Integral) and b >= 0 for b in (bx, by)):
        raise ParameterError(f"derivative orders are nonnegative integers, got {beta!r}")
    return int(bx), int(by)


def partial_callable(f, z, beta, h=FD_STEP):
    """D^beta f at planar points z, beta = (order in x, order in y).

    Central 5-point first-derivative stencils, applied recursively for higher
    and mixed orders; each level is 4th-order accurate.
    """
    bx, by = derivative_order(beta)
    if bx == 0 and by == 0:
        return f(z)
    if bx > 0:
        return sum(c * partial_callable(f, z + o * h, (bx - 1, by), h)
                   for c, o in zip(_C1, _STENCIL_OFFSETS)) / h
    return sum(c * partial_callable(f, z + 1j * o * h, (bx, by - 1), h)
               for c, o in zip(_C1, _STENCIL_OFFSETS)) / h


def diff_uniform(samples, dx, axis, periodic=False):
    """4th-order first derivative of gridded samples along one uniform axis."""
    samples = np.asarray(samples)
    n = samples.shape[axis]
    if n < 7:
        raise ResolutionError("need at least 7 points along a differencing axis")
    s = np.moveaxis(samples, axis, 0)
    if periodic:
        out = (np.roll(s, 2, axis=0) - 8.0 * np.roll(s, 1, axis=0)
               + 8.0 * np.roll(s, -1, axis=0) - np.roll(s, -2, axis=0)) / (12.0 * dx)
    else:
        out = np.empty_like(s)
        out[2:-2] = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) / (12.0 * dx)
        # one-sided 4th-order stencils at the edges
        fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
        for i in (0, 1):
            out[i] = sum(c * s[i + j] for j, c in enumerate(fwd)) / dx
            out[-1 - i] = -sum(c * s[-1 - i - j] for j, c in enumerate(fwd)) / dx
    return np.moveaxis(out, 0, axis)


def polar_cartesian_partials(samples, grid, k):
    """Cartesian partials D^beta, |beta| <= k, of samples on a PolarEvalGrid: one
    list per total order j = 0..k, yielded in turn, ordered (0, j), (1, j - 1),
    ..., (j, 0).

    Differencing happens along the grid axes; the chain rule supplies the
    cartesian partials.  D^(bx, by) is d/dx of D^(bx - 1, by), and D^(0, by) is
    d/dy of D^(0, by - 1): each partial of order below k is differenced once, its
    radial and angular differences feeding both partials above it.  Two orders
    and the differences of one partial are live at a time.
    """
    level = [np.asarray(samples, dtype=complex)]
    yield level
    R = grid.r[:, None]
    TH = grid.theta[None, :]
    for _ in range(k):
        above = []
        for i, inner in enumerate(level):
            fr = diff_uniform(inner, grid.dr, axis=0)
            ft = diff_uniform(inner, grid.dtheta, axis=1, periodic=True)
            if i == 0:
                above.append(np.sin(TH) * fr + np.cos(TH) / R * ft)
            above.append(np.cos(TH) * fr - np.sin(TH) / R * ft)
        level = above
        yield level
