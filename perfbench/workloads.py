"""The benchmark's three workloads: inputs made from the seed, a fixed body,
and the oracle that judges every operation of it.

Each workload is set up once per process (importing bergsmooth and building
what it uses) and then runs its body, one operation after the other.  An
operation yields an `Op`: whether its output passed its oracle, its largest
defect as a share of its tolerance (for oracles of the form "nonnegative
defect <= tolerance"), and a digest of its output for the determinism check.
No oracle compares against floats recorded at one seed.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import re
import traceback
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Op:
    name: str
    ok: bool
    defect: float | None = None
    digest: str | None = None
    problems: list = field(default_factory=list)


def _guarded(names, fn):
    """Run fn, which returns one Op per name; an exception fails them all."""
    try:
        return fn()
    except Exception:  # a raising operation is a failed operation, reported
        tb = traceback.format_exc()
        return [Op(name, False, problems=[tb]) for name in names]


def _bs(module):
    """A bergsmooth submodule from sys.modules (`bergsmooth.flow` the attribute
    is the re-exported function), looked up at call time so that a tracer's
    wrappers are the ones called."""
    return importlib.import_module(f"bergsmooth.{module}")


# ---------------------------------------------------------------------------
# scenario verdicts
# ---------------------------------------------------------------------------

PASS, FAIL, UNJUDGED = "PASS", "FAIL", None

# Every check each scenario reports: (criterion, description, expected verdict,
# judged as a "nonnegative defect <= tolerance" oracle).  C7's full-norm growth
# is the documented honest failure.  C1's runtime gate measures the machine, not
# the output, so it is reported but not judged.  C9's verdict compares two
# floating-point products with no rounding allowance and reads FAIL by one or
# two ulps on about one seed in ten (config seeds 906978376, 1417112032,
# 1498377115), so C9 is judged from its table by `_product_bound_holds`
# instead.  A check not listed must pass.
EXPECTED_CHECKS = {
    "ftc": (
        ("C1", "flow reproduction sup-defect, 10 seeded cutoff functions on disk "
               "and annulus", PASS, True),
        ("C1", "flow reproduction runtime (s)", UNJUDGED, False),
    ),
    "hardy": (
        ("C2", "majorant kernel ratio minus Hardy bound, mu in {0,1}, weights 0..8, "
               "20 seeded functions", PASS, False),
        ("C2", "closed line-segment case (1/3 vs 4/3)", PASS, True),
    ),
    "decomposition": (
        ("C3", "reproduction residual at order 1", PASS, True),
        ("C3", "reproduction residual at order 2", PASS, True),
        ("C3", "reproduction residual at order 3", PASS, True),
        ("C3", "residual drop per resolution doubling", PASS, False),
        ("C4", "decomposition residual at order 1", PASS, True),
        ("C4", "decomposition residual at order 2", PASS, True),
        ("C4", "component-to-weighted-norm ratio envelope over the singular family",
         PASS, False),
        ("C4", "component Sobolev norms under grid doubling", PASS, False),
    ),
    "conj-smoothing": (
        ("C5", "projection of conjugates is the mean constant, 10 seeded polynomials",
         PASS, True),
        ("C6", "projected conjugate coordinate: coefficient of 1/z", PASS, True),
        ("C6", "projected conjugate-power norms drift under grid doubling", PASS, True),
        ("C6", "projected-to-input norm ratio envelope over the seeded conjugate family",
         PASS, False),
        ("C9", "pointwise weighted product bound against the sup-weighted norms "
               "(exact inequality)", UNJUDGED, False),
    ),
    "partial-smoothing": (
        ("C7", "tangential norm of order 3 drift under grid doubling", PASS, True),
        ("C7", "full first-order norm estimate growth per grid doubling", FAIL, False),
        ("C7", "projection concentrates on the cubic mode (off-mode coefficients)",
         PASS, True),
        ("C7", "projection Sobolev-3 norm drift under grid doubling", PASS, True),
    ),
    "duality": (
        ("C8", "empirical duality constant (finite, single constant across the family)",
         PASS, False),
        ("C8", "duality constant drift under basis doubling", PASS, False),
    ),
}

# lines of summary.txt that depend on the wall clock: C1's runtime reading and
# the pass count that includes its verdict
_CLOCK_LINES = re.compile(r"^(\[(PASS|FAIL)\] C1: flow reproduction runtime \(s\).*"
                          r"|criteria: \d+/\d+ passed)$", re.M)


# relative rounding allowance for C9's two sides, each a product of a few
# rounded factors; a real violation of the inequality is far larger
C9_ROUNDING = 16 * np.finfo(float).eps


def _product_bound_holds(tables):
    """C9 up to rounding: max |conj(f) g| w1 w2 <= sup |f| w1 * sup |g| w2 per pair."""
    header, rows = tables["product_bound"]
    lhs, rhs = header.index("max_lhs"), header.index("sup_product")
    return [f"C9: pair {row[0]}: {row[lhs]!r} > {row[rhs]!r} beyond rounding"
            for row in rows if not row[lhs] <= row[rhs] * (1.0 + C9_ROUNDING)]


def judge(scenario, bundle):
    """Problems with a scenario's outputs, and its largest defect share."""
    expected = {(c, d): (v, is_defect) for c, d, v, is_defect in EXPECTED_CHECKS[scenario]}
    problems, defect = [], 0.0
    if scenario == "conj-smoothing":
        problems += _product_bound_holds(bundle.tables)
    seen = set()
    for chk in bundle.checks:
        key = (chk.criterion, chk.description)
        seen.add(key)
        verdict, is_defect = expected.get(key, (PASS, False))
        got = PASS if chk.passed else FAIL
        if verdict is not UNJUDGED and got != verdict:
            problems.append(f"{chk.summary_line()}: expected {verdict}")
        if is_defect:
            share = float(chk.measured) / float(chk.threshold)
            if not (np.isfinite(share) and share >= 0.0):
                problems.append(f"{chk.summary_line()}: defect is not a nonnegative number")
            else:
                defect = max(defect, share)
    problems += [f"{c}: {d}: check missing" for c, d in expected if (c, d) not in seen]
    return problems, defect


def report_digest(out_dir):
    """sha256 of summary.txt (wall-clock lines masked) and every CSV, by name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if not (name.endswith(".csv") or name == "summary.txt"):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "summary.txt":
            data = _CLOCK_LINES.sub("<clock>", data.decode("utf-8")).encode("utf-8")
        h.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


def _scenario_op(cfg, out_dir):
    scenarios = _bs("scenarios")
    bundle = scenarios.run_scenario(cfg)
    scenarios.emit_report(bundle, out_dir)
    problems, defect = judge(cfg.scenario, bundle)
    return [Op(f"{cfg.scenario}/seed={cfg.seed}", not problems, defect,
               report_digest(out_dir), problems)]


class _ScenarioWorkload:
    """run_scenario + emit_report for a fixed list of scenarios and config seeds."""

    SCENARIOS = ()
    N_SEEDS = 1

    def setup(self, seed, out_dir):
        scenarios = _bs("scenarios")
        cfg_seeds = np.random.default_rng(seed).integers(0, 2**31, size=self.N_SEEDS)
        self.jobs = []
        for cfg_seed in cfg_seeds:
            for name in self.SCENARIOS:
                cfg = scenarios.ScenarioConfig.from_dict(
                    {"scenario": name, "seed": int(cfg_seed)})
                self.jobs.append((cfg, os.path.join(out_dir, f"{name}-{cfg_seed}")))

    def run(self):
        ops = []
        for cfg, out_dir in self.jobs:
            ops += _guarded([f"{cfg.scenario}/seed={cfg.seed}"],
                            lambda: _scenario_op(cfg, out_dir))
        return ops


class Collar(_ScenarioWorkload):
    """C1-C4 at the default config, then hitting-time bisection: the flow
    layer's trajectory sweeps feeding tracked integrands, and its short
    per-point flows."""

    SCENARIOS = ("ftc", "hardy", "decomposition")

    def setup(self, seed, out_dir):
        super().setup(seed, out_dir)
        self.hitting = Hitting()
        self.hitting.setup(seed, out_dir)

    def run(self):
        return super().run() + self.hitting.run()


class Quadrature(_ScenarioWorkload):
    """C5-C9 over three derived config seeds: projection, Gram, norms; no flow."""

    SCENARIOS = ("conj-smoothing", "partial-smoothing", "duality")
    N_SEEDS = 3


# ---------------------------------------------------------------------------
# fanout: the order-2 power-expansion identity
# ---------------------------------------------------------------------------

FANOUT_TOL = 1e-4


class Fanout:
    """(kernel o X)^2 against sum_m X^m o G[2, m] through apply_op, at the
    twelve collar points of test_power_expansion_operational_identity.

    X is the constant field d/dx, which does not commute with the kernel.  The
    cutoff function carries a degree-2 Poly2 with the test's damping 0.5^(i+j)
    and seeded coefficients within about 5% of it.  The defect is linear in the
    coefficients: with the test's unit-normal draw the largest defect spreads
    by half its median between seeds, wider than any bound on defect_ratio.
    """

    def setup(self, seed, out_dir):
        geometry, flow, ops_mod = _bs("geometry"), _bs("flow"), _bs("operators")
        functions, decompose = _bs("functions"), _bs("decompose")
        rng = np.random.default_rng(seed)
        chart = flow.build_chart(geometry.make_domain("disk"))
        x = geometry.VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j),
                                 real=True, name="dx")
        expansion = decompose.power_expansion(2, chart, x)
        ax = ops_mod.compose(ops_mod.kernel_op(), ops_mod.field_op(x))
        self.lhs = ops_mod.compose(ax, ax)
        self.rhs = [ops_mod.compose(ops_mod.field_op(x, m), expansion[(2, m)]) if m
                    else expansion[(2, m)] for m in (0, 1, 2)]
        i, j = np.indices((3, 3))
        noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w = functions.Poly2(0.5 ** (i + j) * (1.0 + 0.05 * noise))
        self.g = lambda p: chart.cutoff(p) * w(p)
        self.chart = chart
        r = np.exp(-chart.rate * np.linspace(0.05, 0.6, 4))
        self.points = (r[:, None] * np.exp(1j * np.array([0.5, 2.7, 4.4]))[None, :]).ravel()

    def run(self):
        names = [f"point{k}" for k in range(self.points.size)]
        return _guarded(names, lambda: self._identity(names))

    def _identity(self, names):
        apply_op = _bs("operators").apply_op
        lhs = apply_op(self.lhs, self.g, self.points, self.chart)
        rhs = np.zeros_like(lhs)
        for term in self.rhs:
            rhs = rhs + apply_op(term, self.g, self.points, self.chart)
        defect = np.abs(lhs - rhs)
        return [Op(name, bool(d < FANOUT_TOL), float(d / FANOUT_TOL),
                   _digest(lv, rv), [] if d < FANOUT_TOL else [f"|lhs-rhs| = {d:.3g}"])
                for name, d, lv, rv in zip(names, defect, lhs, rhs)]


# ---------------------------------------------------------------------------
# hitting: bisection hitting times against the closed form
# ---------------------------------------------------------------------------

HITTING_ATOL = 1e-8
HITTING_POINTS = 16
HITTING_BANDS = (("disk", None), ("annulus", "outer"), ("annulus", "inner"), ("ball2", None))


class Hitting:
    """flow.hitting_time on seeded collar points of each band, one batch per band;
    part of the collar workload.

    Hit times are stratified over [0.05, 0.95] with seeded jitter, so the RK4
    work of a pass (proportional to the times) is nearly the same for every
    seed; angles and ball directions are uniform.
    """

    def setup(self, seed, out_dir):
        geometry, flow = _bs("geometry"), _bs("flow")
        rng = np.random.default_rng(seed)
        n = HITTING_POINTS
        self.bands = []
        for kind, band in HITTING_BANDS:
            dom = geometry.make_domain(kind, rho=0.5 if kind == "annulus" else None)
            chart = flow.build_chart(dom)
            t = 0.05 + 0.9 * (np.arange(n) + rng.uniform(size=n)) / n
            if kind == "annulus":
                r = chart.flow_radius(-t, 1.0 if band == "outer" else dom.rho)
            else:
                r = np.exp(-chart.rate * t)
            if kind == "ball2":
                v = rng.normal(size=(n, 4))
                v /= np.linalg.norm(v, axis=1)[:, None]
                pts = (v[:, :2] + 1j * v[:, 2:]) * r[:, None]
            else:
                pts = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
            self.bands.append((f"{kind}-{band}" if band else kind, chart, pts))

    def run(self):
        ops = []
        for label, chart, pts in self.bands:
            names = [f"{label}/{k}" for k in range(len(pts))]
            ops += _guarded(names, lambda: self._band(names, chart, pts))
        return ops

    @staticmethod
    def _band(names, chart, pts):
        t = _bs("flow").hitting_time(chart, pts)
        err = np.abs(t - chart.hit_time(pts))
        return [Op(name, bool(e <= HITTING_ATOL), float(e / HITTING_ATOL), _digest(tv),
                   [] if e <= HITTING_ATOL else [f"|t - closed form| = {e:.3g}"])
                for name, e, tv in zip(names, err, t)]


def _digest(*values):
    return hashlib.sha256(np.asarray(values, dtype=complex).tobytes()).hexdigest()


WORKLOADS = {"collar": Collar, "fanout": Fanout, "quadrature": Quadrature}
