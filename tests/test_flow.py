import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergsmooth.errors import NotInCollarError
from bergsmooth.flow import (
    antideriv_chain,
    build_chart,
    flow,
    flow_moment_apply,
    hitting_time,
    trajectories,
)
from bergsmooth.functions import Poly2, smoothstep
from bergsmooth.geometry import boundary_samples, polar_eval_grid


@pytest.fixture(scope="module")
def disk_chart(disk):
    return build_chart(disk)


@pytest.fixture(scope="module")
def annulus_chart(annulus):
    return build_chart(annulus)


@pytest.fixture(scope="module")
def ball_chart(ball2):
    return build_chart(ball2)


def collar_points(chart, rng, n=12):
    """Seeded points with hit times in (0.05, 0.95); in C^2 for the ball."""
    t = rng.uniform(0.05, 0.95, n)
    if chart.domain.kind == "annulus":
        r = np.concatenate([chart.flow_radius(-t[::2], 1.0),
                            chart.flow_radius(-t[1::2], chart.domain.rho)])
    else:
        r = np.exp(-chart.rate * t)
    if chart.domain.kind == "ball2":
        v = rng.normal(size=(n, 4))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return (v[:, :2] + 1j * v[:, 2:]) * r[:, None]
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


# --- references: the RK4 loops as written before the shared stepper --------


def reference_flow(field, t, x, n_steps, clamp_radius=None):
    x = np.asarray(x, dtype=complex)
    if t == 0.0:
        return x.copy()
    n = max(1, int(math.ceil(abs(t) * n_steps)))
    h = t / n
    state = x.copy()
    vel = field.velocity
    for _ in range(n):
        k1 = vel(state)
        k2 = vel(state + 0.5 * h * k1)
        k3 = vel(state + 0.5 * h * k2)
        k4 = vel(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if clamp_radius is not None:
            r = field.domain.radius(state)
            far = r > clamp_radius
            if np.any(far):
                scale = np.where(far, clamp_radius / np.maximum(r, 1e-300), 1.0)
                state = state * (scale[..., None] if field.domain.kind == "ball2" else scale)
    return state


def reference_trajectories(chart, points, s_values, n_steps):
    points = np.asarray(points, dtype=complex)
    s = np.asarray(s_values, dtype=float)
    order = np.argsort(-s)
    out = np.empty((len(s),) + points.shape, dtype=complex)
    state = points
    prev = 0.0
    vel = chart.field.velocity
    for idx in order:
        target = s[idx]
        span = target - prev
        if span != 0.0:
            n = max(1, int(math.ceil(abs(span) * n_steps)))
            h = span / n
            for _ in range(n):
                k1 = vel(state)
                k2 = vel(state + 0.5 * h * k1)
                k3 = vel(state + 0.5 * h * k2)
                k4 = vel(state + h * k3)
                state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[idx] = state
        prev = target
    return out


def reference_hitting_time(chart, pts, n_steps, tol=1e-10, max_time=2.0):
    """Bisection flowing the points of each distinct time together."""
    lo = np.zeros(chart.domain.radius(pts).shape)
    hi = np.full_like(lo, max_time)
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        val = np.empty_like(mid)
        for tv in np.unique(mid):
            sel = mid == tv
            moved = reference_flow(chart.field, float(tv), pts[sel], n_steps, clamp_radius=4.0)
            val[sel] = chart.domain.defining_function(moved)
        below = val < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n_steps", [64, 7])
def test_stepper_bitwise_matches_reference_loops(disk_chart, annulus_chart, ball_chart,
                                                 n_steps):
    rng = np.random.default_rng(4)
    gx, _ = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(-2.0, 0.0, 9)
    gauss = (0.5 * (edges[:-1] + edges[1:])[:, None] + 0.125 * gx[None, :]).ravel()
    s = np.concatenate([gauss, [0.0, -1.0, -1.0, -2.0, 0.0], -2.0 * rng.uniform(size=5)])
    for chart in (disk_chart, annulus_chart, ball_chart):
        pts = collar_points(chart, rng)
        assert np.array_equal(trajectories(chart, pts, s, n_steps),
                              reference_trajectories(chart, pts, s, n_steps))
        for t in (-1.3, 0.0, 0.4, 2.0):
            assert np.array_equal(
                flow(chart.field, t, pts, n_steps, escape_bound=None, clamp_radius=4.0),
                reference_flow(chart.field, t, pts, n_steps, clamp_radius=4.0))
        assert np.array_equal(hitting_time(chart, pts, n_steps),
                              reference_hitting_time(chart, pts, n_steps))


def test_flow_submodule_not_shadowed():
    import bergsmooth
    import bergsmooth.flow as flow_module

    assert isinstance(bergsmooth.flow, types.ModuleType)
    assert isinstance(flow_module, types.ModuleType)
    assert flow_module.flow is flow


def cutoff_masked(chart, g):
    """g times the chart cutoff, so that it vanishes off the collar."""
    return lambda p: chart.cutoff(p) * np.asarray(g(p))


def masked_ng(chart, w):
    """Analytic application of the transverse field to cutoff * w."""
    def ng(p):
        r = chart.domain.radius(p)
        wx = w.partial((1, 0), p)
        wy = w.partial((0, 1), p)
        radial = chart.speed_over_r(r) * (p.real * wx + p.imag * wy)
        return (-chart.cutoff_time_derivative(chart.hit_time(p)) * w(p)
                + chart.cutoff(p) * radial)
    return ng


def test_flow_identity_at_zero(disk_chart):
    x = np.array([0.5 + 0.2j, -0.1 + 0.7j])
    np.testing.assert_array_equal(flow(disk_chart.field, 0.0, x), x)


def test_flow_matches_exponential(disk_chart):
    # radial field at rate c: modulus scales by e^{c t}
    c = disk_chart.rate
    z = 0.5 + 0.0j
    for t in (-0.7, -0.2, 0.3):
        out = flow(disk_chart.field, t, np.array([z]), n_steps=64)[0]
        assert abs(out - z * np.exp(c * t)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.3), st.floats(0.55, 0.9),
       st.floats(0, 2 * np.pi))
def test_flow_group_property(s, t, r, th):
    chart = build_chart(__import__("bergsmooth.geometry", fromlist=["make_domain"])
                        .make_domain("disk"))
    x = np.array([r * np.exp(1j * th)])
    # outward flows from r = 0.9 for times up to 0.8 leave the chart, where
    # flow raises by contract (test_flow_escape_error); the group property
    # is a property of the RK4 map, so the escape test is off here
    one = flow(chart.field, s, flow(chart.field, t, x, 64, escape_bound=None), 64,
               escape_bound=None)
    two = flow(chart.field, s + t, x, 64, escape_bound=None)
    assert abs(one[0] - two[0]) < 1e-9


def test_exact_trajectories_match_rk4(disk_chart, annulus_chart):
    for chart, pts in ((disk_chart, np.array([0.6 + 0.1j, 0.2 + 0.85j])),
                       (annulus_chart, np.array([0.9 + 0.05j, 0.55 + 0.1j]))):
        s = np.linspace(-1.0, 0.0, 9)
        rk = trajectories(chart, pts, s, n_steps=64)
        exact = chart.exact_trajectories(pts, s)
        assert np.max(np.abs(rk - exact)) < 1e-9


def test_hitting_time_boundary(disk_chart):
    p = boundary_samples(disk_chart.domain, 8)
    t = hitting_time(disk_chart, p)
    assert np.max(np.abs(t)) < 1e-8


def test_hitting_time_closed_form_oracle(disk_chart):
    c = disk_chart.rate
    z = np.exp(-0.3 * c) + 0.0j
    assert hitting_time(disk_chart, z) == pytest.approx(0.3, abs=1e-8)
    assert disk_chart.hit_time(np.array([z]))[0] == pytest.approx(0.3, rel=1e-12)


def test_hitting_time_annulus_both_bands(annulus_chart):
    pts = np.array([0.95 + 0.0j, 0.55j])
    t = hitting_time(annulus_chart, pts)
    np.testing.assert_allclose(t, annulus_chart.hit_time(pts), atol=1e-8)


def test_hitting_time_ball(ball_chart, rng):
    pts = collar_points(ball_chart, rng, n=16)
    np.testing.assert_allclose(hitting_time(ball_chart, pts), ball_chart.hit_time(pts),
                               atol=1e-8, rtol=0)
    assert hitting_time(ball_chart, pts[3]) == pytest.approx(
        ball_chart.hit_time(pts[3]), abs=1e-8)


def test_hitting_time_not_in_collar(annulus_chart):
    # near the stall circle the flow cannot reach either boundary in time 2
    with pytest.raises(NotInCollarError):
        hitting_time(annulus_chart, np.array([0.7905 + 0.0j]))


def test_hit_time_boundary_distance_ratio(disk_chart, annulus_chart, ball_chart):
    # frozen from a fine ratio study per domain
    kappa = {"disk": 2.0, "annulus": 7.0, "ball2": 2.6}
    from bergsmooth.geometry import boundary_distance
    for chart in (disk_chart, annulus_chart, ball_chart):
        if chart.domain.kind == "ball2":
            base = boundary_samples(chart.domain, 64)
            pts = np.concatenate([s * base for s in (0.999, 0.95, 0.9, 0.8, 0.7)])
        else:
            th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
            radii = []
            for rr in np.linspace(0.01, 0.99, 60):
                cand = rr * np.exp(1j * th) if chart.domain.kind == "disk" else \
                    (chart.domain.rho + rr * (1 - chart.domain.rho)) * np.exp(1j * th)
                radii.append(cand)
            pts = np.concatenate(radii)
        t = chart.hit_time(pts)
        live = np.isfinite(t) & (t < 1.0) & (t > 1e-12)
        d = boundary_distance(chart.domain, pts[live])
        ratio = t[live] / d
        assert np.max(ratio) <= kappa[chart.domain.kind]
        assert np.min(ratio) >= 0.5


def test_cutoff_profile(disk_chart):
    r = np.exp(-disk_chart.rate * np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.5]))
    z = r.astype(complex)
    zeta = disk_chart.cutoff(z)
    assert zeta[0] == 1.0 and zeta[1] == 1.0 and zeta[2] == 1.0
    assert 0 < zeta[3] < 1
    assert zeta[4] == 0.0 and zeta[5] == 0.0 and zeta[6] == 0.0


def test_cutoff_derivatives_bounded(disk_chart):
    # all t-derivatives of the cutoff up to order 4 stay bounded on the band
    t = np.linspace(0.26, 0.74, 400)
    vals = disk_chart.cutoff_of_time(t)
    h = t[1] - t[0]
    cur = vals
    for order in range(1, 5):
        cur = np.gradient(cur, h)
        assert np.all(np.isfinite(cur))
        assert np.max(np.abs(cur)) < 1e5


def test_antiderivative_zero(disk_chart):
    pts = np.array([0.9 + 0.0j, 0.6 + 0.3j])
    out = antideriv_chain(disk_chart, cutoff_masked(disk_chart, lambda p: np.zeros_like(p)),
                          pts, depth=1)
    assert np.all(out == 0)


def test_ftc_identity(disk_chart, annulus_chart, rng):
    # g = cutoff * smooth reproduces itself through the transverse field:
    # sup |g - antideriv(N g)| small at M=64, Q=32
    for chart in (disk_chart, annulus_chart):
        grid = polar_eval_grid(chart.domain, 24, 48,
                               r_inner=0.3 if chart.domain.kind == "disk" else None)
        pts = grid.nodes().ravel()
        for _ in range(3):
            w = Poly2.random(rng, degree=3)
            g = chart.cutoff(pts) * w(pts)
            ag = antideriv_chain(chart, masked_ng(chart, w), pts, depth=1,
                                 q_panels=32, m_steps=64)
            assert np.max(np.abs(g - ag)) < 1e-6


def test_antiderivative_radial_closed_form(disk_chart):
    # plain |z| masked to the controlled neighborhood: on points whose whole
    # trajectory stays where the mask is 1, the integral is |z|(1-e^{-c})/c.
    # The integrand reaches hit time 1.4 (0.4 plus the unit flow time), past
    # the collar {hit time < 1} off which antideriv_chain's contract says it
    # vanishes: a quadrature that skips nodes past the collar (ROADMAP,
    # support-aware trajectory quadrature) must take this test into account.
    c = disk_chart.rate

    def neighborhood_masked(p):
        t = disk_chart.hit_time(p)
        return smoothstep((1.9 - np.where(np.isfinite(t), t, 10.0)) / 0.4) * np.abs(p)

    pts = np.exp(-c * np.array([0.05, 0.2, 0.4])).astype(complex)
    out = antideriv_chain(disk_chart, neighborhood_masked, pts, depth=1)
    expect = np.abs(pts) * (1 - np.exp(-c)) / c
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_chain_collapse_matches_nesting(disk_chart, rng):
    w = Poly2.random(rng, degree=2)
    masked = lambda p: disk_chart.cutoff(p) * w(p)
    pts = np.exp(-disk_chart.rate * np.linspace(0.02, 0.9, 7)).astype(complex)
    inner = lambda p: antideriv_chain(disk_chart, masked, p, depth=1)
    nested = antideriv_chain(disk_chart, inner, pts, depth=1)
    collapsed = antideriv_chain(disk_chart, masked, pts, depth=2)
    np.testing.assert_allclose(nested, collapsed, atol=1e-8)


def test_flow_moment_dominates_plain(disk_chart, rng):
    # with mu = 0 and g >= 0 the majorant equals the plain anti-derivative
    w = Poly2.random(rng, degree=2)
    nonneg = lambda p: np.abs(w(p)) * disk_chart.cutoff(p)
    pts = np.exp(-disk_chart.rate * np.linspace(0.02, 0.9, 9)).astype(complex)
    b0 = flow_moment_apply(disk_chart, 0, nonneg, pts)
    a0 = antideriv_chain(disk_chart, nonneg, pts, depth=1)
    np.testing.assert_allclose(b0, a0.real, atol=1e-12)


def test_support_mask_dependence(disk_chart, rng):
    # values off the cutoff support cannot influence the masked integral
    w = Poly2.random(rng, degree=2)
    bump_inside = lambda p: np.where(np.abs(p) < 0.4, 7.0, 0.0)
    pts = np.exp(-disk_chart.rate * np.linspace(0.02, 0.9, 9)).astype(complex)
    a = antideriv_chain(disk_chart, cutoff_masked(disk_chart, w), pts, depth=1)
    b = antideriv_chain(disk_chart, cutoff_masked(disk_chart, lambda p: w(p) + bump_inside(p)),
                        pts, depth=1)
    np.testing.assert_allclose(a, b, atol=1e-13)
