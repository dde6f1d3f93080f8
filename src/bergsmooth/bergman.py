"""Orthonormal bases of square-integrable holomorphic functions, the kernel,
and the orthogonal projection onto them, on the model domains.

All bases are closed-form: normalized monomials z^k on the disk, normalized
Laurent monomials on the annulus (the k = -1 norm involves the logarithm),
and normalized monomials z1^a z2^b on the ball, ordered by total degree.
Projection and synthesis take one input or a list of them, and either way run
as one matrix product per chunk of points against a table of the monomials
there, built by running products (of z and 1/z on the annulus, of z1 and z2 on
the ball), with at most about 1 MB of table at a time; the Gram matrix reads the
same table, for one weight or a list of them.  The elements' `eval` (and
`OrthonormalBasis.eval_matrix`) and the annulus kernel series keep explicit
powers, as independent references that the package's checks never read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .functions import _falling, _on_grid
from .geometry import Domain, QuadratureGrid

__all__ = [
    "OrthonormalBasis",
    "CoefficientVector",
    "build_basis",
    "project",
    "synthesize",
    "kernel_eval",
    "gram_matrix",
]


@dataclass(frozen=True)
class PlanarMonomial:
    power: int
    norm: float

    def eval(self, z, deriv=0):
        z = np.asarray(z)
        k = self.power
        fac = _falling(k, deriv)
        if fac == 0.0:
            return np.zeros_like(z, dtype=complex)
        return fac / self.norm * z ** (k - deriv)


@dataclass(frozen=True)
class BallMonomial:
    powers: tuple
    norm: float

    def eval(self, z, deriv=(0, 0)):
        z = np.asarray(z)
        out = np.full(z.shape[:-1], 1.0 / self.norm, dtype=complex)
        for j in (0, 1):
            k, d = self.powers[j], deriv[j]
            fac = _falling(k, d)
            if fac == 0.0:
                return np.zeros(z.shape[:-1], dtype=complex)
            out = out * fac * z[..., j] ** (k - d)
        return out


@dataclass(frozen=True)
class OrthonormalBasis:
    domain: Domain
    elements: tuple

    @property
    def size(self):
        return len(self.elements)

    def eval_matrix(self, points, deriv=None):
        """Matrix of element values (size x npoints), optionally differentiated."""
        if deriv is None:
            deriv = (0, 0) if self.domain.kind == "ball2" else 0
        return np.stack([e.eval(points, deriv) for e in self.elements])


@dataclass(frozen=True)
class CoefficientVector:
    basis: OrthonormalBasis
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) != self.basis.size:
            raise ContractError("coefficient count does not match basis size")


def _planar_norm(domain: Domain, k: int) -> float:
    if domain.kind == "disk":
        if k < 0:
            raise ParameterError("disk basis uses nonnegative powers")
        return math.sqrt(math.pi / (k + 1))
    rho = domain.rho
    if k == -1:
        return math.sqrt(2.0 * math.pi * math.log(1.0 / rho))
    return math.sqrt(2.0 * math.pi * (1.0 - rho ** (2 * k + 2)) / (2 * k + 2))


def _ball_norm(a: int, b: int) -> float:
    return math.sqrt(math.pi**2 * math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))


def build_basis(domain: Domain, n_b: int) -> OrthonormalBasis:
    """First n_b orthonormal analytic basis elements of the model domain."""
    if n_b < 1:
        raise ParameterError("basis size must be positive")
    if domain.kind == "disk":
        elems = [PlanarMonomial(k, _planar_norm(domain, k)) for k in range(n_b)]
    elif domain.kind == "annulus":
        lo = -(n_b // 2)
        hi = (n_b + 1) // 2
        elems = [PlanarMonomial(k, _planar_norm(domain, k)) for k in range(lo, hi)]
    else:
        elems = []
        deg = 0
        while len(elems) < n_b:
            for a in range(deg, -1, -1):
                b = deg - a
                elems.append(BallMonomial((a, b), _ball_norm(a, b)))
                if len(elems) == n_b:
                    break
            deg += 1
    return OrthonormalBasis(domain, tuple(elems))


def _values_on(f, grid: QuadratureGrid):
    if callable(f):
        return _on_grid(f, grid)
    values = np.asarray(f, dtype=complex)
    if values.shape != grid.weights.shape:
        raise ContractError("sample array does not match the grid")
    return values


def _powers(basis: OrthonormalBasis):
    """Element powers, (k,) on the plane and (a, b) on the ball, and element norms."""
    powers = [e.powers if isinstance(e, BallMonomial) else (e.power,) for e in basis.elements]
    return powers, np.array([e.norm for e in basis.elements])


def _variables(domain: Domain, points):
    """The points' coordinates whose nonnegative powers make up the basis monomials,
    each flattened, the points' shape, and the map from element powers to exponents
    in the coordinates: z1, z2 on the ball, z on the disk, and z, 1/z on the annulus,
    where z^k has exponents (max(k, 0), max(-k, 0))."""
    points = np.asarray(points)
    if domain.kind == "ball2":
        flat = points.reshape(-1, 2)
        return [flat[:, 0], flat[:, 1]], points.shape[:-1], tuple
    flat = points.reshape(-1)
    if domain.kind == "disk":
        return [flat], points.shape, tuple
    return [flat, 1.0 / flat], points.shape, lambda e: (max(e[0], 0), max(-e[0], 0))


# the bytes of a basis's worth of table rows at one chunk of points: a table adds
# at most the few rows below the annulus basis that derivatives reach
_TABLE_BYTES = 2**20


def _chunk(basis: OrthonormalBasis) -> int:
    """The points per chunk of a power table: set by the basis alone, so that every
    table of one basis cuts the points alike, whatever its rows."""
    return max(1, _TABLE_BYTES // (16 * basis.size))


def _table_rows(exps):
    """The rows of a power table holding every exponent tuple of exps, a set closed
    under lowering any exponent: by total degree, each row after the row one
    exponent below it.  Returns the rows' index by tuple and, for each row after
    the constant, the index of that row and the coordinate that multiplies it."""
    rows = sorted(set(exps), key=lambda e: (sum(e), e))
    index = {e: r for r, e in enumerate(rows)}
    steps = []
    for e in rows[1:]:
        i = max(i for i, p in enumerate(e) if p)
        steps.append((index[e[:i] + (e[i] - 1,) + e[i + 1:]], i))
    return index, steps


def _basis_table(basis: OrthonormalBasis, points):
    """The coordinates of the points, flattened, the steps of the power table that
    holds the basis's monomials there, the elements' rows in it, and the element
    norms."""
    powers, norms = _powers(basis)
    xs, _, exponents = _variables(basis.domain, points)
    exps = [exponents(e) for e in powers]
    index, steps = _table_rows(exps)
    return xs, steps, [index[e] for e in exps], norms


def _power_tables(xs, steps, chunk):
    """For each chunk of at most `chunk` points, its slice and the table of the
    monomials at it, filled by running products into one array preallocated for
    all the chunks: row 0 holds ones, and each later row the row of `steps` times
    its coordinate.  A table lives until the next chunk's is filled."""
    n = len(xs[0])
    rows = np.empty((len(steps) + 1, min(chunk, n)), dtype=complex)
    for start in range(0, n, chunk):
        cut = slice(start, min(start + chunk, n))
        table = rows[:, :cut.stop - start]
        table[0] = 1.0
        for r, (below, i) in enumerate(steps, 1):
            np.multiply(table[below], xs[i][cut], out=table[r])
        yield cut, table


def project(f, basis: OrthonormalBasis, grid: QuadratureGrid):
    """Orthogonal projection coefficients (f, e_k) under the grid quadrature, of one
    input or of each of a list of inputs (callables or sample arrays on the grid):
    a CoefficientVector, or a list of them.

    The moments sum(w f conj(z)^k) of the whole family are one matrix product, per
    chunk of nodes, against a table of the powers of conj(z) (of conj(1/z) for the
    annulus's negative powers, of conj(z1) and conj(z2) on the ball), never
    against element values.
    """
    if basis.domain.kind != grid.domain.kind:
        raise ContractError("basis and grid live on different domains")
    fs = f if isinstance(f, list) else [f]
    v = np.stack([grid.weights * _values_on(g, grid) for g in fs])
    xs, steps, rows, norms = _basis_table(basis, grid.nodes)
    moments = np.zeros((len(fs), len(steps) + 1), dtype=complex)
    for cut, table in _power_tables([np.conj(x) for x in xs], steps, _chunk(basis)):
        moments += v[:, cut] @ table.T
    cvs = [CoefficientVector(basis, c) for c in moments[:, rows] / norms]
    return cvs if isinstance(f, list) else cvs[0]


def _expansions(cvs, points, derivs):
    """D^d of each expansion sum_k c_k e_k of the coefficient vectors cvs, one basis
    for all, at the points, for each holomorphic derivative multi-index d of
    derivs: one array per d, of shape (len(cvs),) + the points' shape.

    The derivative of an expansion is a (Laurent) polynomial with coefficient
    c_k k(k-1)...(k-j+1) / norm_k at power k - j (per coordinate on the ball), so
    each d is one matrix product, per chunk of points, against one table of powers
    for all of derivs.  A derivative reads the rows up to the last one it reaches,
    which a table for it alone would hold the same: every d has the same values
    whatever else derivs asks for.  No element is evaluated.
    """
    basis = cvs[0].basis
    if any(cv.basis != basis for cv in cvs):
        raise ContractError("a family of expansions shares one basis")
    domain = basis.domain
    ball = domain.kind == "ball2"
    powers, norms = _powers(basis)
    xs, shape, exponents = _variables(domain, points)
    coeffs = np.stack([cv.coeffs for cv in cvs])
    terms = []
    for d in derivs:
        if d is None:
            d = (0, 0) if ball else 0
        d = tuple(d) if ball else (d,)
        facs = [math.prod(_falling(k, j) for k, j in zip(e, d)) for e in powers]
        terms.append([(i, exponents([k - j for k, j in zip(e, d)]), fac / norm)
                      for i, (e, fac, norm) in enumerate(zip(powers, facs, norms)) if fac])
    index, steps = _table_rows([exponents(e) for e in powers]
                               + [e for t in terms for _, e, _ in t])
    mats = []
    for t in terms:
        reach = 1 + max((index[e] for _, e, _ in t), default=0)
        a = np.zeros((len(cvs), reach), dtype=complex)
        for i, e, scale in t:
            a[:, index[e]] = coeffs[:, i] * scale
        mats.append(a)
    outs = [np.empty((len(cvs), len(xs[0])), dtype=complex) for _ in mats]
    for cut, table in _power_tables(xs, steps, _chunk(basis)):
        for a, out in zip(mats, outs):
            np.matmul(a, table[:a.shape[1]], out=out[:, cut])
    return [out.reshape((len(cvs),) + shape) for out in outs]


def synthesize(coeffs, points, deriv=None):
    """Pointwise sum of c_k D^beta e_k for a holomorphic derivative multi-index, of
    one CoefficientVector or of each of a list of them on one basis: an array of
    the points' shape, or a list of them, from one table of powers (see
    `_expansions`)."""
    cvs = coeffs if isinstance(coeffs, list) else [coeffs]
    (values,) = _expansions(cvs, points, [deriv])
    return list(values) if isinstance(coeffs, list) else values[0, ...]


def gram_matrix(basis: OrthonormalBasis, grid: QuadratureGrid, weight=None):
    """Gram matrix sum w e_j conj(e_k) of the basis under the grid quadrature, times
    a weight on the nodes if given; given a list of weights (None for none), one
    matrix per weight, in a list.

    The element values are rows of the power table that `project` reads, scaled
    by the elements' norms, per chunk of nodes: one table pass serves every
    weight, and no element is evaluated.
    """
    weights = weight if isinstance(weight, list) else [weight]
    ws = [grid.weights if w is None else grid.weights * w for w in weights]
    xs, steps, rows, norms = _basis_table(basis, grid.nodes)
    grams = [np.zeros((basis.size, basis.size), dtype=complex) for _ in ws]
    for cut, table in _power_tables(xs, steps, _chunk(basis)):
        values = table[rows]
        values /= norms[:, None]
        conj = np.conj(values.T)
        for w, gram in zip(ws, grams):
            gram += (values * w[cut]) @ conj
    return grams if isinstance(weight, list) else grams[0]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

_NEAR_SINGULAR = 1e-12


def kernel_eval(domain: Domain, z, w, tol: float = 1e-10):
    """Reproducing kernel K(z, w) at interior points.

    Disk and ball are closed forms; the annulus kernel is a truncated
    bilinear monomial series, truncated so both geometric tails are below tol.
    """
    z = np.asarray(z)
    w = np.asarray(w)
    if np.any(~domain.contains(z)) or np.any(~domain.contains(w)):
        raise ContractError("kernel arguments must be interior")
    if domain.kind == "disk":
        q = 1.0 - z * np.conj(w)
        if np.any(np.abs(q) < _NEAR_SINGULAR):
            raise ParameterError("kernel evaluation too close to the diagonal singularity")
        return 1.0 / (math.pi * q**2)
    if domain.kind == "ball2":
        q = 1.0 - np.sum(z * np.conj(w), axis=-1)
        if np.any(np.abs(q) < _NEAR_SINGULAR):
            raise ParameterError("kernel evaluation too close to the diagonal singularity")
        return 2.0 / (math.pi**2 * q**3)
    t = z * np.conj(w)
    if np.any(np.abs(1.0 - t) < _NEAR_SINGULAR):
        raise ParameterError("kernel evaluation too close to the diagonal singularity")
    kp, km = _annulus_truncation(domain.rho, float(np.max(np.abs(t))), tol)
    out = np.zeros_like(t, dtype=complex)
    for k in range(-km, kp + 1):
        out = out + t ** k / _planar_norm(domain, k) ** 2
    return out


def annulus_kernel_tail_bound(rho: float, t_abs: float, kp: int, km: int) -> float:
    """Upper bound on the dropped terms of the annulus kernel series."""
    s_pos = t_abs
    tail_pos = (s_pos ** (kp + 1) * ((kp + 2) - (kp + 1) * s_pos)
                / (math.pi * (1.0 - rho**2) * (1.0 - s_pos) ** 2))
    s_neg = rho**2 / t_abs
    tail_neg = (s_neg ** (km + 1) * (km / (1.0 - s_neg) + s_neg / (1.0 - s_neg) ** 2)
                / (math.pi * rho**2 * (1.0 - rho**2)))
    return tail_pos + tail_neg


def _annulus_truncation(rho: float, t_abs: float, tol: float):
    if t_abs >= 1.0 or t_abs <= rho**2:
        raise ParameterError("annulus kernel series needs rho^2 < |z wbar| < 1")
    kp = km = 8
    while annulus_kernel_tail_bound(rho, t_abs, kp, km) > tol:
        kp += 8
        km += 8
        if kp > 4000:
            raise ParameterError("kernel truncation bound unattainable this close to the boundary")
    return kp, km
