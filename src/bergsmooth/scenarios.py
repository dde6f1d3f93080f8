"""Config-driven experiment scenarios with CSV reports and pass/fail gates.

Each scenario reproduces one family of smoothing phenomena at desk scale and
grades itself against the numbered acceptance checks (C1 through C9).  The
check functions are the single source of truth: the packaged test suite calls
the same code.
"""

from __future__ import annotations

import json
import operator
import os
import time
from dataclasses import InitVar, dataclass, asdict, field, fields

import numpy as np

from . import __version__
from .bergman import CoefficientVector, build_basis, project
from .decompose import component_values, decompose, reproduction_residual
from .errors import ParameterError
from .flow import (CUTOFF_END, DEFAULT_M_STEPS, DEFAULT_Q_PANELS, antideriv_chains, build_chart,
                   flow_moment_apply)
from .functions import AngularFamily, Holo1, Poly2, RadialHolo, apply_field
from .geometry import (
    boundary_distance,
    canonical_fields,
    collar_rate,
    make_domain,
    polar_eval_grid,
    quadrature_grid,
)
from .norms import (collar_ratio_grid, directional_sobolev_norm, duality_sup, hardy_line_case,
                    sobolev_norm, sobolev_norms, weighted_ratio_sweep)

__all__ = ["ScenarioConfig", "ReportBundle", "CheckResult", "run_scenario",
           "emit_report", "SCENARIOS"]

# accepted JSON types per config field type; bool is never a number here
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "str": (str, "a string")}


# the smallest basis each scenario's checks can read: conj-smoothing's annulus
# basis must hold 1/z (its size-2 basis is 1/z, 1), and partial-smoothing's disk
# basis the cubic mode and one mode above it
_BASIS_FLOOR = {"conj-smoothing": 2, "partial-smoothing": 5}


# each bound's worst sample and its comparison: an upper bound reads the largest
# sample, a lower bound the smallest
_BOUNDS = {"<=": (np.max, operator.le), "<": (np.max, operator.lt),
           ">=": (np.min, operator.ge), ">": (np.min, operator.gt)}


@dataclass(frozen=True)
class CheckResult:
    """One gate row: the worst of its samples against a declared bound.  A NaN
    sample makes the reading NaN, which fails every bound."""
    criterion: str
    description: str
    samples: InitVar
    bound: str
    threshold: float
    measured: float = field(init=False)

    def __post_init__(self, samples):
        worst, _ = _BOUNDS[self.bound]
        object.__setattr__(self, "measured", float(worst(samples)))

    @property
    def passed(self) -> bool:
        _, holds = _BOUNDS[self.bound]
        return holds(self.measured, self.threshold)

    def summary_line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.criterion}: {self.description} "
                f"(measured {self.measured:.6g}, threshold {self.threshold:.6g})")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    domain_kind: str = "disk"
    rho: float = 0.5
    k: int = 2
    basis_size: int = 32
    n_r: int = 32
    n_theta: int = 64
    delta: float = 1e-3
    m_steps: int = DEFAULT_M_STEPS
    q_panels: int = DEFAULT_Q_PANELS
    seed: int = 20260808
    output_dir: str = "reports"

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ParameterError("config must be a JSON object")
        unknown = set(data) - set(ScenarioConfig.__dataclass_fields__)
        if unknown:
            raise ParameterError(f"unknown config fields: {sorted(unknown)}")
        if "scenario" not in data:
            raise ParameterError("config needs a 'scenario' field")
        cfg = ScenarioConfig(**data)
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            types, noun = _FIELD_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ParameterError(f"{f.name} must be {noun}, got {value!r}")
        if cfg.scenario not in SCENARIOS:
            raise ParameterError(f"unknown scenario {cfg.scenario!r}; "
                                 f"choose from {', '.join(SCENARIOS)}")
        if not 0 <= cfg.k <= 3:
            raise ParameterError("k must lie in 0..3")
        if cfg.n_r < 4 or cfg.n_theta < 4 or cfg.basis_size < 1:
            raise ParameterError("grid and basis sizes out of range")
        if cfg.basis_size < _BASIS_FLOOR.get(cfg.scenario, 1):
            raise ParameterError(f"{cfg.scenario} needs basis_size >= "
                                 f"{_BASIS_FLOOR[cfg.scenario]}, got {cfg.basis_size}")
        if cfg.scenario == "duality" and 2 * cfg.basis_size > cfg.n_theta:
            # past that the trapezoid rule in theta aliases the doubled basis's modes
            raise ParameterError(f"duality needs 2 * basis_size <= n_theta, got basis_size "
                                 f"{cfg.basis_size} and n_theta {cfg.n_theta}")
        if cfg.q_panels < 1 or cfg.m_steps < 1:
            raise ParameterError("q_panels and m_steps must be at least 1")
        if not 0.0 < cfg.rho < 1.0:
            raise ParameterError(f"rho must lie in (0, 1), got {cfg.rho!r}")
        if not 0.0 < cfg.delta < 0.5:
            raise ParameterError(f"delta must lie in (0, 0.5), got {cfg.delta!r}")
        if cfg.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {cfg.seed!r}")
        if not cfg.output_dir or "\0" in cfg.output_dir:
            raise ParameterError(f"output_dir must be a nonempty path, got {cfg.output_dir!r}")
        if cfg.domain_kind not in ("disk", "annulus"):
            raise ParameterError(f"domain_kind must be disk or annulus, "
                                 f"got {cfg.domain_kind!r}")
        return cfg


@dataclass
class ReportBundle:
    scenario: str
    tables: dict
    checks: list
    provenance: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self):
        lines = [f"scenario: {self.scenario}", ""]
        lines += [c.summary_line() for c in self.checks]
        lines += ["", f"criteria: {sum(c.passed for c in self.checks)}"
                  f"/{len(self.checks)} passed"]
        return lines


def _provenance(cfg: ScenarioConfig) -> dict:
    dom = _domain(cfg)
    return {
        "config": asdict(cfg),
        "version": __version__,
        "numpy": np.__version__,
        "collar_rate": collar_rate(dom),
    }


def _domain(cfg: ScenarioConfig):
    return make_domain(cfg.domain_kind,
                       rho=cfg.rho if cfg.domain_kind == "annulus" else None)


def _seeded_masked(chart, rng):
    """cutoff * w for a seeded degree-3 polynomial w, its cutoff read from a block's table."""
    return RadialHolo(chart.cutoff_profiles, [(0, Poly2.random(rng, degree=3))])


def _band_limited(rng):
    c = (rng.normal(size=11) + 1j * rng.normal(size=11)) * 0.65 ** np.arange(11)
    return Holo1.from_coeffs(c)


def _refinement(value_at, levels=(1, 2)):
    """A refinement study: value_at(level) at each level and, for each step a -> b
    between neighbouring levels, the ratio b / a and the relative drift |b - a| / a.
    Levels may run finest first, which makes the ratio coarse over fine."""
    values = [value_at(level) for level in levels]
    steps = list(zip(values, values[1:]))
    return values, [b / a for a, b in steps], [abs(b - a) / a for a, b in steps]


# ---------------------------------------------------------------------------
# C1: reproduction of cutoff functions through the transverse flow
# ---------------------------------------------------------------------------


def _transverse_of_cutoff_times(chart, w):
    """The transverse field applied to cutoff * w by Leibniz's rule, the hit time
    falling at unit rate along it: the cutoff's rate times w plus the cutoff times
    the field applied to w, both profiles from the chart's one pair."""
    return RadialHolo(chart.cutoff_profiles,
                      [(1, w), (0, lambda p: apply_field(chart.field, w, p))])


def check_ftc(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    t_start = time.perf_counter()
    for dom in (make_domain("disk"), make_domain("annulus", rho=cfg.rho)):
        chart = build_chart(dom, cfg.q_panels, cfg.m_steps)
        grid = polar_eval_grid(dom, 24, 48, r_inner=0.3 if dom.kind == "disk" else None)
        pts = grid.nodes().ravel()
        ws = [Poly2.random(rng, degree=3) for _ in range(10)]
        ags = antideriv_chains(chart, [(_transverse_of_cutoff_times(chart, w), 1) for w in ws],
                               pts, support=CUTOFF_END)
        cutoff = chart.cutoff(pts)
        for i, (w, ag) in enumerate(zip(ws, ags)):
            g = cutoff * w(pts)
            rows.append([str(dom), i, float(np.max(np.abs(g - ag)))])
    elapsed = time.perf_counter() - t_start
    checks = [CheckResult("C1", "flow reproduction sup-defect, 10 seeded cutoff "
                          "functions on disk and annulus", [err for *_, err in rows],
                          "<=", 1e-6),
              CheckResult("C1", "flow reproduction runtime (s)", elapsed, "<", 5.0)]
    return checks, {"ftc_residuals": (["domain", "sample", "sup_defect"], rows)}


# ---------------------------------------------------------------------------
# C2: weighted Hardy bounds for the majorant kernels
# ---------------------------------------------------------------------------


def check_hardy(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    chart = build_chart(make_domain("disk"), cfg.q_panels, cfg.m_steps)
    grid = collar_ratio_grid(chart, n_r=24, n_th=48)
    # 20 seeded functions per weight exponent mu, every majorant from one sweep,
    # which ends where the cutoff does
    moments = [(mu, _seeded_masked(chart, rng)) for mu in (0, 1) for _ in range(20)]
    sweep_max = {mu: np.zeros(9) for mu in (0, 1)}
    majorants = flow_moment_apply(chart, moments, grid[0], support=CUTOFF_END)
    for (mu, g), values in zip(moments, majorants):
        # the weight-mu majorant gains mu + 1 powers of the hit time, with no
        # derivative
        ratios = weighted_ratio_sweep(values, mu + 1, 0, g, range(9), grid)
        sweep_max[mu] = np.maximum(sweep_max[mu], ratios)
    rows = [[mu, ell, float(r), 2.0 / (2 * ell + 1)]
            for mu in (0, 1) for ell, r in enumerate(sweep_max[mu])]
    lhs2, rhs2 = hardy_line_case()
    checks = [CheckResult("C2", "majorant kernel ratio minus Hardy bound, "
                          "mu in {0,1}, weights 0..8, 20 seeded functions",
                          [r - bound for *_, r, bound in rows], "<=", 0.05),
              CheckResult("C2", "closed line-segment case (1/3 vs 4/3)",
                          [abs(lhs2 - 1.0 / 3.0), abs(rhs2 - 4.0 / 3.0)], "<=", 1e-10)]
    return checks, {"hardy_ratios": (["mu", "weight_exponent", "max_ratio", "bound"], rows)}


# ---------------------------------------------------------------------------
# C3 and C4: the reproduction identity and the component decomposition
# ---------------------------------------------------------------------------


_H_SET = (("one", lambda: Holo1.constant(1.0)),
          ("z", lambda: Holo1.from_coeffs([0.0, 1.0])),
          ("near_pole", lambda: Holo1.inverse_power(0.9, 1.0)))


def check_reproduction(cfg: ScenarioConfig):
    dom = make_domain("disk")
    charts = {res: build_chart(dom, res * cfg.q_panels, res * cfg.m_steps) for res in (1, 2)}
    tol = {1: 1e-6, 2: 1e-5, 3: 1e-4}
    # every input and order in one sweep per chart; the drop study's input is first
    # at both, ahead of the three inputs at the base chart and alone at the doubled one
    h = Holo1.from_coeffs([0.3, 1.0])
    residuals = {1: reproduction_residual([h] + [mk() for _, mk in _H_SET], tuple(tol),
                                          charts[1]),
                 2: reproduction_residual([h], tuple(tol), charts[2])}
    inputs = range(1, len(_H_SET) + 1)
    rows = [[name, k, residuals[1][i, k], tol[k]]
            for i, (name, _) in zip(inputs, _H_SET) for k in tol]
    checks = [CheckResult("C3", f"reproduction residual at order {k}",
                          [residuals[1][i, k] for i in inputs], "<=", tol[k]) for k in tol]
    drops = []
    for k in tol:
        _, (drop,), _ = _refinement(lambda res: residuals[res][0, k],
                                    levels=(2, 1))
        drops.append(drop)
    checks.append(CheckResult("C3", "residual drop per resolution doubling",
                              drops, ">=", 4.0))
    return checks, {"reproduction_residuals": (["h", "order", "residual", "tolerance"], rows)}


def check_decomposition(cfg: ScenarioConfig):
    dom = make_domain("disk")
    chart = build_chart(dom, cfg.q_panels, cfg.m_steps)
    rows = []
    tol = {1: 1e-5, 2: 1e-4}
    # the inputs and the boundary-singular family, both orders, in one call
    poles = (0.9, 0.99, 0.999)
    hs = [mk() for _, mk in _H_SET] + [Holo1.inverse_power(a, 0.75) for a in poles]
    results = decompose(hs, tuple(tol), chart)
    for i, (name, _) in enumerate(_H_SET):
        for k in tol:
            res = results[i, k]
            for j, (n, r) in enumerate(zip(res.component_norms, res.norm_ratios)):
                rows.append([name, k, j, n, r, res.residual])
    checks = [CheckResult("C4", f"decomposition residual at order {k}",
                          [results[i, k].residual for i in range(len(_H_SET))], "<=", tol[k])
              for k in tol]

    # ratio envelope across the boundary-singular family
    envelopes = []
    dump = None
    for k in (1, 2):
        ratios = {j: [] for j in range(k + 1)}
        for i, a in enumerate(poles, start=len(_H_SET)):
            res = results[i, k]
            for j, r in enumerate(res.norm_ratios):
                ratios[j].append(r)
                rows.append([f"pole_{a}", k, j, res.component_norms[j], r, res.residual])
            if k == 2 and a == 0.9:
                dump = res.values_csv_rows()
        envelopes += [np.max(vals) / np.min(vals) for vals in ratios.values()]
    checks.append(CheckResult("C4", "component-to-weighted-norm ratio envelope over "
                              "the singular family", envelopes, "<=", 10.0))

    # Sobolev norms of the components are stable under evaluation refinement,
    # the components of both orders swept together on each grid
    h = Holo1.inverse_power(0.9, 0.75)

    def norms_at(res):
        egrid = polar_eval_grid(dom, 48 * res, 96 * res, r_inner=0.4)
        values = component_values([h], (1, 2), chart, egrid.nodes().ravel())
        return np.array([sobolev_norm(v.reshape(egrid.shape), k, dom, eval_grid=egrid)
                         for (_, k), vs in values.items() for v in vs])

    _, (growth,), _ = _refinement(norms_at)
    checks.append(CheckResult("C4", "component Sobolev norms under grid doubling",
                              growth, "<=", 1.5))
    header = ["h", "order", "component", "norm", "ratio", "residual"]
    tables = {"decomposition": (header, rows)}
    if dump is not None:
        tables["decomposition_components"] = dump
    return checks, tables


# ---------------------------------------------------------------------------
# C5, C6, C9: conjugate-holomorphic smoothing and the product bound
# ---------------------------------------------------------------------------


def check_conj_disk(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    dom = make_domain("disk")
    grid = quadrature_grid(dom, cfg.n_r, cfg.n_theta)
    basis = build_basis(dom, cfg.basis_size)
    coeffs = [(rng.normal(size=9) + 1j * rng.normal(size=9)) * 0.7 ** np.arange(9)
              for _ in range(10)]
    fs = [Holo1.from_coeffs(a) for a in coeffs]
    projections = project([lambda z, f=f: np.conj(f(z)) for f in fs], basis, grid)
    rows = []
    for i, (a, cv) in enumerate(zip(coeffs, projections)):
        c = cv.coeffs
        expected0 = np.conj(a[0]) * np.sqrt(np.pi)
        err = float(np.sqrt(np.abs(c[0] - expected0) ** 2 + np.sum(np.abs(c[1:]) ** 2)))
        rows.append([i, err])
    checks = [CheckResult("C5", "projection of conjugates is the mean constant, "
                          "10 seeded polynomials", [err for _, err in rows], "<=", 1e-8)]
    return checks, {"conj_disk": (["sample", "l2_defect"], rows)}


def check_conj_annulus(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    dom = make_domain("annulus", rho=cfg.rho)
    grids = {res: quadrature_grid(dom, cfg.n_r * res, cfg.n_theta * res)
             for res in (1, 2)}
    basis = build_basis(dom, cfg.basis_size)
    checks, rows = [], []

    # the projection of conj(z) is an explicit multiple of 1/z
    c = project(lambda z: np.conj(z), basis, grids[1]).coeffs
    idx = {e.power: i for i, e in enumerate(basis.elements)}
    mono = c[idx[-1]] / basis.elements[idx[-1]].norm
    expected = np.pi * (1 - cfg.rho**2) / (2 * np.pi * np.log(1 / cfg.rho))
    checks.append(CheckResult("C6", "projected conjugate coordinate: coefficient of 1/z",
                              abs(mono - expected), "<=", 1e-6))
    checks.append(CheckResult("C6", "projected conjugate coordinate: coefficients off 1/z",
                              np.abs(np.delete(c, idx[-1])), "<=", 1e-9))

    # Sobolev norms of projected conjugate powers: finite, refinement-stable; the
    # three powers projected, and their ladders taken, as one family per grid
    powers = (1, 2, 3)
    ladders = {res: sobolev_norms(project([lambda z, m=m: np.conj(z) ** m for m in powers],
                                          basis, grid), 2, dom, grid=grid)
               for res, grid in grids.items()}
    drifts = []
    for i, m in enumerate(powers):
        for k in (0, 1, 2):
            vals, _, (drift,) = _refinement(lambda res: ladders[res][i][k])
            rows.append([m, k, *vals])
            drifts.append(drift)
    checks.append(CheckResult("C6", "projected conjugate-power norms drift under "
                              "grid doubling", drifts, "<=", 1e-2))

    # bounded ratios across a seeded conjugate-holomorphic family
    fbars = []
    for _ in range(10):
        coeff = {p: (rng.normal() + 1j * rng.normal()) * 0.6 ** abs(p)
                 for p in range(-4, 5)}
        fbars.append(np.conj(Holo1.laurent(coeff)(grids[1].nodes)))
    family = sobolev_norms(project(fbars, basis, grids[1]), 2, dom, grid=grids[1])
    fnorms = [grids[1].norm(fbar) for fbar in fbars]
    env = {k: [ladder[k] / fnorm for fnorm, ladder in zip(fnorms, family)] for k in (0, 1, 2)}
    checks.append(CheckResult("C6", "projected-to-input norm ratio envelope over the "
                              "seeded conjugate family",
                              [np.max(v) / np.min(v) for v in env.values()], "<=", 10.0))
    return checks, {"conj_annulus_norms": (["power", "order", "norm", "norm_refined"],
                                           rows)}


def check_product_bound(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    dom = _domain(cfg)
    grid = quadrature_grid(dom, cfg.n_r, cfg.n_theta)
    n = dom.complex_dimension
    d = boundary_distance(dom, grid.nodes)
    k = cfg.k
    w1 = d ** (2 * n)
    w2 = d ** (k + 2 * n)
    rows = []
    for i in range(10):
        f = _band_limited(rng)
        g = _band_limited(rng)
        fv, gv = f(grid.nodes), g(grid.nodes)
        # both sides from the same rounded factors, so that rounding, being
        # monotone, cannot reverse the verdict
        a = np.abs(fv) * w1
        b = np.abs(gv) * w2
        s1 = float(np.max(a))
        s2 = float(np.max(b))
        lhs = a * b
        ok = bool(np.all(lhs <= s1 * s2))
        rows.append([i, float(np.max(lhs)), s1 * s2, ok])
    checks = [CheckResult("C9", "pointwise weighted product bound against the "
                          "sup-weighted norms (exact inequality)",
                          [max_lhs - sup for _, max_lhs, sup, _ in rows], "<=", 0.0)]
    return checks, {"product_bound": (["pair", "max_lhs", "sup_product", "holds"], rows)}


# ---------------------------------------------------------------------------
# C7: partial smoothing through a single tangential direction
# ---------------------------------------------------------------------------


def check_partial_smoothing(cfg: ScenarioConfig):
    dom = make_domain("disk")
    fields = canonical_fields(dom)
    profile = lambda r: np.abs(2.0 * r - 1.0) ** 0.3
    f = AngularFamily([(3, profile)])
    grids = {res: quadrature_grid(dom, cfg.n_r * res, cfg.n_theta * res) for res in (1, 2)}
    basis = build_basis(dom, cfg.basis_size)
    projections = {res: project(f, basis, grid) for res, grid in grids.items()}
    checks = []

    t_norms, _, (t_drift,) = _refinement(lambda res: directional_sobolev_norm(
        f, fields["T0"], 3, grid=grids[res]))
    checks.append(CheckResult("C7", "tangential norm of order 3 drift under grid "
                              "doubling", t_drift, "<", 0.02))

    h1, h1_ratios, _ = _refinement(lambda res: sobolev_norm(
        f, 1, dom, eval_grid=polar_eval_grid(dom, 64 * res, 128 * res, delta=cfg.delta)),
        levels=(1, 2, 4))
    checks.append(CheckResult("C7", "full first-order norm estimate growth per "
                              "grid doubling", [ratio - 1.0 for ratio in h1_ratios],
                              ">", 0.30))

    off = np.abs(np.concatenate([projections[1].coeffs[:3], projections[1].coeffs[4:]]))
    checks.append(CheckResult("C7", "projection concentrates on the cubic mode "
                              "(off-mode coefficients)", off, "<", 1e-9))

    bf_norms, _, (bf_drift,) = _refinement(lambda res: sobolev_norm(
        projections[res], 3, dom, grid=grids[res]))
    checks.append(CheckResult("C7", "projection Sobolev-3 norm drift under grid "
                              "doubling", bf_drift, "<", 0.02))
    grid_1, grid_2 = f"{cfg.n_r}x{cfg.n_theta}", f"{2 * cfg.n_r}x{2 * cfg.n_theta}"
    norm_rows = [["HkT", 3, t_norms[0], grid_1], ["HkT", 3, t_norms[1], grid_2],
                 ["Hk", 1, h1[0], "64x128"], ["Hk", 1, h1[2], "256x512"],
                 ["Hk", 3, bf_norms[0], grid_1]]
    return checks, {"partial_smoothing": (["quantity", "value"],
                                          [[res, v] for res, v in zip((1, 2, 4), h1)]),
                    "norm_reports": (["kind", "k", "value", "grid"], norm_rows)}


# ---------------------------------------------------------------------------
# C8: duality lower bound with a stable empirical constant
# ---------------------------------------------------------------------------


def check_duality(cfg: ScenarioConfig):
    rng = np.random.default_rng(cfg.seed)
    dom = make_domain("disk")
    grid = quadrature_grid(dom, cfg.n_r, cfg.n_theta)
    rows = []
    fs = [_band_limited(rng) for _ in range(20)]
    ladders = [sobolev_norms(f, 2, dom, grid=grid) for f in fs]
    nks = {(k, i): ladder[k] for k in (1, 2) for i, ladder in enumerate(ladders)}
    # the samples projected once, as one family, on the doubled basis: the disk
    # basis runs by power, so the base basis is its leading part and a sample's
    # coefficients on it are the leading ones.  Both bases' sups of both orders come
    # from one call: one table pass for both weighted Gram matrices, one factor
    # per order
    levels = (cfg.basis_size, 2 * cfg.basis_size)
    basis, doubled_basis = (build_basis(dom, nb) for nb in levels)
    doubled = project(fs, doubled_basis, grid)
    cvs = [CoefficientVector(basis, cv.coeffs[:cfg.basis_size]) for cv in doubled] + doubled
    sups = dict(zip((1, 2), duality_sup(cvs, [1, 2], doubled_basis, grid)))

    def constant_at(nb):
        start = levels.index(nb) * len(fs)
        table = [[k, i, sups[k][start + i], nk, nk / sups[k][start + i]]
                 for (k, i), nk in nks.items()]
        if nb == cfg.basis_size:
            rows.extend(table)
        return np.max([ratio for *_, ratio in table])

    c_emp, (drift,), _ = _refinement(constant_at, levels=levels)
    checks = [
        CheckResult("C8", "empirical duality constant (finite, single constant "
                    "across the family)", c_emp[0], "<", float("inf")),
        CheckResult("C8", "duality constant drift under basis doubling",
                    [drift, 1.0 / drift], "<", 2.0),
    ]
    return checks, {"duality": (["order", "sample", "duality_sup", "sobolev_norm",
                                 "ratio"], rows)}


# ---------------------------------------------------------------------------
# runner and reports
# ---------------------------------------------------------------------------


_SCENARIO_CHECKS = {
    "ftc": (check_ftc,),
    "hardy": (check_hardy,),
    "decomposition": (check_reproduction, check_decomposition),
    "conj-smoothing": (check_conj_disk, check_conj_annulus, check_product_bound),
    "partial-smoothing": (check_partial_smoothing,),
    "duality": (check_duality,),
}


SCENARIOS = tuple(_SCENARIO_CHECKS)


def run_scenario(cfg: ScenarioConfig) -> ReportBundle:
    """Run one scenario; deterministic for a fixed config and seed."""
    checks, tables = [], {}
    for fn in _SCENARIO_CHECKS[cfg.scenario]:
        c, t = fn(cfg)
        checks.extend(c)
        tables.update(t)
    return ReportBundle(cfg.scenario, tables, checks, _provenance(cfg))


def _format_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _create(path):
    """Open path for writing as a new file. An old report is unlinked, not
    truncated: truncating a file forces a flush on ext4 (auto_da_alloc)."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8", newline="\n")


def emit_report(bundle: ReportBundle, output_dir: str):
    """Write summary.txt, one CSV per table, and the config echo; stable order.

    Each of these files is replaced, not rewritten in place; no other file in
    output_dir is touched.
    """
    os.makedirs(output_dir, exist_ok=True)
    paths = []
    for name in sorted(bundle.tables):
        header, rows = bundle.tables[name]
        path = os.path.join(output_dir, f"{name}.csv")
        with _create(path) as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(x) for x in row) + "\n")
        paths.append(path)
    summary = os.path.join(output_dir, "summary.txt")
    with _create(summary) as fh:
        fh.write("\n".join(bundle.summary_lines()) + "\n")
    paths.append(summary)
    echo = os.path.join(output_dir, "config_echo.json")
    with _create(echo) as fh:
        json.dump(bundle.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(echo)
    return paths
