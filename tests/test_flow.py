import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergsmooth.flow as flow_module
from bergsmooth import functions
from bergsmooth.decompose import _default_eval_points, cr_reduction, cutoff_times
from bergsmooth.errors import NotInCollarError, ParameterError
from bergsmooth.flow import (
    CUTOFF_END,
    _collar_quadrature,
    antideriv_chains,
    build_chart,
    flow_moment_apply,
    hitting_time,
    trajectories,
)
from bergsmooth.functions import Holo1, Poly2, smoothstep
from bergsmooth.geometry import boundary_samples, make_domain, polar_eval_grid
from bergsmooth.operators import collar_ratio_grid
from bergsmooth.scenarios import _seeded_masked, _transverse_of_cutoff_times


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


# --- references: plain RK4 loops, written apart from the package's ----------


def reference_rk4_step(field, x, h):
    vel = field.velocity
    k1 = vel(x)
    k2 = vel(x + 0.5 * h * k1)
    k3 = vel(x + 0.5 * h * k2)
    k4 = vel(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_trajectories(chart, points, s_values, n_steps):
    points = np.asarray(points, dtype=complex)
    s = np.asarray(s_values, dtype=float)
    order = np.argsort(-s)
    out = np.empty((len(s),) + points.shape, dtype=complex)
    state = points
    prev = 0.0
    for idx in order:
        target = s[idx]
        span = target - prev
        if span != 0.0:
            n = max(1, int(math.ceil(abs(span) * n_steps)))
            h = span / n
            for _ in range(n):
                state = reference_rk4_step(chart.field, state, h)
        out[idx] = state
        prev = target
    return out


def reference_hitting_time(chart, pts, n_steps, tol=1e-10, max_time=2.0):
    """One point at a time: steps of 1/n_steps while the next one ends inside,
    then bisection of the fraction of the crossing step."""
    defining = chart.domain.defining_function
    out = []
    for p in pts:
        state = p[None, ...]
        if defining(state)[0] >= 0:
            out.append(0.0)
            continue
        k = 0
        while True:
            stepped = reference_rk4_step(chart.field, state, 1.0 / n_steps)
            if defining(stepped)[0] >= 0:
                break
            state, k = stepped, k + 1
            assert k < max_time * n_steps
        lo, hi = 0.0, 1.0
        while (hi - lo) / n_steps > tol:
            mid = 0.5 * (lo + hi)
            if defining(reference_rk4_step(chart.field, state, mid / n_steps))[0] < 0:
                lo = mid
            else:
                hi = mid
        out.append((k + 0.5 * (lo + hi)) / n_steps)
    return np.array(out)


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
        assert np.array_equal(hitting_time(dataclasses.replace(chart, m_steps=n_steps), pts),
                              reference_hitting_time(chart, pts, n_steps))


def cutoff_masked(chart, g):
    """g times the chart cutoff, so that it vanishes off the collar."""
    return lambda p: chart.cutoff(p) * np.asarray(g(p))


def masked_ng(chart, w):
    """Analytic application of the transverse field to cutoff * w, on the disk or the
    annulus: the field is radial, with speed over r the rate times 1 (disk) or
    2 r^2 - 1 - rho^2 (annulus)."""
    def ng(p):
        dom = chart.domain
        r = dom.radius(p)
        wx = w.partial((1, 0), p)
        wy = w.partial((0, 1), p)
        speed_over_r = (chart.rate if dom.kind == "disk"
                        else chart.rate * (2.0 * r**2 - 1.0 - dom.rho**2))
        radial = speed_over_r * (p.real * wx + p.imag * wy)
        cutoff, rate = chart.cutoff_profiles(r)
        return rate * w(p) + cutoff * radial
    return ng


def test_flow_identity_at_zero(disk_chart):
    x = np.array([0.5 + 0.2j, -0.1 + 0.7j])
    np.testing.assert_array_equal(trajectories(disk_chart, x, [0.0], 64)[0], x)


def test_flow_matches_exponential(disk_chart):
    # radial field at rate c: modulus scales by e^{c t}
    c = disk_chart.rate
    z = 0.5 + 0.0j
    for t in (-0.7, -0.2, 0.3):
        out = trajectories(disk_chart, np.array([z]), [t], 64)[0, 0]
        assert abs(out - z * np.exp(c * t)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.3), st.floats(0.55, 0.9),
       st.floats(0, 2 * np.pi))
def test_flow_group_property(s, t, r, th):
    chart = build_chart(__import__("bergsmooth.geometry", fromlist=["make_domain"])
                        .make_domain("disk"))
    x = np.array([r * np.exp(1j * th)])
    # outward flows from r = 0.9 for times up to 0.8 leave the domain: the group
    # property is a property of the RK4 map, wherever it goes
    one = trajectories(chart, trajectories(chart, x, [t], 64)[0], [s], 64)[0]
    two = trajectories(chart, x, [s + t], 64)[0]
    assert abs(one[0] - two[0]) < 1e-9


def test_exact_trajectories_match_rk4(disk_chart, annulus_chart):
    for chart, pts in ((disk_chart, np.array([0.6 + 0.1j, 0.2 + 0.85j])),
                       (annulus_chart, np.array([0.9 + 0.05j, 0.55 + 0.1j]))):
        s = np.linspace(-1.0, 0.0, 9)
        rk = trajectories(chart, pts, s, n_steps=64)
        exact = chart.exact_trajectories(pts, s)
        assert np.max(np.abs(rk - exact)) < 1e-9


@pytest.mark.parametrize("q_panels, m_steps", [(32, 64), (32, 7), (2, 1)])
@pytest.mark.parametrize("kind", ["disk", "ball2"])
def test_rk4_multipliers_are_the_sweep_of_the_point_one(kind, q_panels, m_steps):
    # the field rate * z is linear, so the sweep's steps taken from the real
    # scalar 1 are the real part of the sweep of the point 1 ((1, 0) on the ball)
    chart = build_chart(make_domain(kind), q_panels, m_steps)
    one = np.array([1.0]) if kind == "disk" else np.array([[1.0, 0.0]])
    for j in range(3):
        s, _ = flow_module._panel_nodes(-(j + 1.0), -float(j), q_panels)
        swept = trajectories(chart, one, s, m_steps).reshape(len(s), -1)[:, 0]
        assert np.array_equal(flow_module._rk4_multipliers(chart, s), swept.real)
        assert not np.any(swept.imag)


def test_scaled_positions_stay_within_ulps_of_marching_each_point(disk_chart):
    # R_s * p against p marched by RK4 on its own: 12.4 ulp at most, relative,
    # on decompose's evaluation points over three panels
    pts = _default_eval_points(disk_chart)
    for j in range(3):
        s, _ = flow_module._panel_nodes(-(j + 1.0), -float(j), disk_chart.q_panels)
        scaled = flow_module._panel_positions(disk_chart, pts, s, False)
        marched = trajectories(disk_chart, pts, s, disk_chart.m_steps)
        assert np.array_equal(flow_module._panel_positions(disk_chart, pts, s, True), marched)
        assert np.max(np.abs(scaled - marched) / np.abs(marched)) <= 32 * np.finfo(float).eps


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


@pytest.mark.parametrize("name", ["disk_chart", "annulus_chart", "ball_chart"])
def test_hitting_time_lies_in_the_crossing_step(name, request, rng):
    # k = floor(t m) steps of 1/m stay inside and the next one does not; the
    # annulus points alternate between its two bands
    chart = request.getfixturevalue(name)
    pts = collar_points(chart, rng, n=16)
    m = chart.m_steps
    defining = chart.domain.defining_function
    for p, t in zip(pts, hitting_time(chart, pts)):
        state = p[None, ...]
        for _ in range(math.floor(t * m)):
            state = flow_module._rk4_step(chart.field, state, 1.0 / m)
        assert defining(state)[0] < 0
        assert defining(flow_module._rk4_step(chart.field, state, 1.0 / m))[0] >= 0


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
    vals, _ = disk_chart.cutoff_profiles(np.exp(-disk_chart.rate * t))
    h = t[1] - t[0]
    cur = vals
    for order in range(1, 5):
        cur = np.gradient(cur, h)
        assert np.all(np.isfinite(cur))
        assert np.max(np.abs(cur)) < 1e5


def test_antiderivative_zero(disk_chart):
    pts = np.array([0.9 + 0.0j, 0.6 + 0.3j])
    zero = cutoff_masked(disk_chart, lambda p: np.zeros_like(p))
    out = antideriv_chains(disk_chart, [(zero, 1)], pts)[0]
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
            ag = antideriv_chains(chart, [(masked_ng(chart, w), 1)], pts)[0]
            assert np.max(np.abs(g - ag)) < 1e-6


def test_antiderivative_radial_closed_form(disk_chart):
    # plain |z| masked to the controlled neighborhood: on points whose whole
    # trajectory stays where the mask is 1, the integral is |z|(1-e^{-c})/c.
    # The integrand reaches hit time 1.4 (0.4 plus the unit flow time), past
    # the collar {hit time < 1}, and the mask vanishes only from hit time 1.9
    # on, so the call passes that reach as its support bound, 2.
    c = disk_chart.rate

    def neighborhood_masked(p):
        t = disk_chart.hit_time(p)
        return smoothstep((1.9 - np.where(np.isfinite(t), t, 10.0)) / 0.4) * np.abs(p)

    pts = np.exp(-c * np.array([0.05, 0.2, 0.4])).astype(complex)
    out = antideriv_chains(disk_chart, [(neighborhood_masked, 1)], pts, support=2.0)[0]
    expect = np.abs(pts) * (1 - np.exp(-c)) / c
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_chain_collapse_matches_nesting(disk_chart, rng):
    w = Poly2.random(rng, degree=2)
    masked = lambda p: disk_chart.cutoff(p) * w(p)
    pts = np.exp(-disk_chart.rate * np.linspace(0.02, 0.9, 7)).astype(complex)
    inner = lambda p: antideriv_chains(disk_chart, [(masked, 1)], p)[0]
    nested = antideriv_chains(disk_chart, [(inner, 1)], pts)[0]
    collapsed = antideriv_chains(disk_chart, [(masked, 2)], pts)[0]
    np.testing.assert_allclose(nested, collapsed, atol=1e-8)


def test_flow_moment_dominates_plain(disk_chart, rng):
    # with mu = 0 and g >= 0 the majorant equals the plain anti-derivative
    w = Poly2.random(rng, degree=2)
    nonneg = lambda p: np.abs(w(p)) * disk_chart.cutoff(p)
    pts = np.exp(-disk_chart.rate * np.linspace(0.02, 0.9, 9)).astype(complex)
    b0 = flow_moment_apply(disk_chart, [(0, nonneg)], pts)[0]
    a0 = antideriv_chains(disk_chart, [(nonneg, 1)], pts)[0]
    np.testing.assert_allclose(b0, a0.real, atol=1e-12)


def test_support_mask_dependence(disk_chart, rng):
    # values off the cutoff support cannot influence the masked integral
    w = Poly2.random(rng, degree=2)
    bump_inside = lambda p: np.where(np.abs(p) < 0.4, 7.0, 0.0)
    pts = np.exp(-disk_chart.rate * np.linspace(0.02, 0.9, 9)).astype(complex)
    a = antideriv_chains(disk_chart, [(cutoff_masked(disk_chart, w), 1)], pts)[0]
    b = antideriv_chains(disk_chart,
                         [(cutoff_masked(disk_chart, lambda p: w(p) + bump_inside(p)), 1)],
                         pts)[0]
    np.testing.assert_allclose(a, b, atol=1e-13)


# --- the support bound: pairs past the collar are neither flowed to nor evaluated


def points_at_hit_times(chart, times, rng):
    """Points with the given hit times in seeded directions (both bands on the
    annulus), and the center (infinite hit time) on the disk and ball."""
    t = np.asarray(times, dtype=float)
    if chart.domain.kind == "annulus":
        r = np.concatenate([chart.flow_radius(-t, 1.0), chart.flow_radius(-t, chart.domain.rho)])
    else:
        r = np.append(np.exp(-chart.rate * t), 0.0)
    if chart.domain.kind == "ball2":
        v = rng.normal(size=(r.size, 4))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return (v[:, :2] + 1j * v[:, 2:]) * r[:, None]
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, r.size))


SUPPORT_TIMES = [-0.02, -0.005, 0.0, 0.03, 0.2, 0.45, 0.7, 0.8, 0.97, 1.0, 1.2]


@pytest.fixture(params=["disk", "annulus", "ball"])
def support_case(request, disk_chart, annulus_chart, ball_chart, rng):
    """A chart, an integrand to mask (a Poly2 in the plane) and points with hit
    times just outside the domain, at 0, across (0, 1), at and past 1 and, on
    the disk and ball, infinite."""
    chart = {"disk": disk_chart, "annulus": annulus_chart, "ball": ball_chart}[request.param]
    pts = points_at_hit_times(chart, SUPPORT_TIMES, rng)
    t = chart.hit_time(pts)
    assert np.min(t) < -0.015 and np.any(np.abs(t) < 1e-12) and np.any(t >= 1.0)
    if request.param == "ball":
        w = lambda p: 1.0 + p[..., 0] * np.conj(p[..., 1])
    else:
        w = Poly2.random(rng, degree=2)
    return chart, w, pts


def sharp_masked(chart, w):
    """w up to hit time 1 - 1e-6, zero from there on: unlike the cutoff, it is
    nonzero right up to the collar's edge, less RK4's error along a trajectory."""
    return lambda p: np.where(chart.hit_time(p) < 1.0 - 1e-6, w(p), 0.0)


@pytest.mark.parametrize("mask", [cutoff_masked, sharp_masked])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_support_skip_is_exact(support_case, depth, mask):
    chart, w, pts = support_case
    g = mask(chart, w)
    skipped = antideriv_chains(chart, [(g, depth)], pts)[0]
    assert np.array_equal(skipped, antideriv_chains(chart, [(g, depth)], pts, support=np.inf)[0])
    assert np.any(skipped != 0)
    # points outside the domain only: every pair of the first panel is live
    outside = pts[chart.hit_time(pts) < 0]
    assert np.array_equal(antideriv_chains(chart, [(g, depth)], outside)[0],
                          antideriv_chains(chart, [(g, depth)], outside, support=np.inf)[0])


@pytest.mark.parametrize("mask", [cutoff_masked, sharp_masked])
@pytest.mark.parametrize("mu", [0, 1])
def test_flow_moment_support_skip_is_exact(support_case, mu, mask):
    chart, w, pts = support_case
    g = mask(chart, w)
    integrand = lambda pos, tau, shared: tau**mu * np.abs(np.asarray(g(pos)))
    everywhere = _collar_quadrature(chart, pts, [(lambda s: 1.0, integrand, 1)],
                                    support=np.inf)[0].real
    assert np.array_equal(flow_moment_apply(chart, [(mu, g)], pts)[0], everywhere)


@pytest.mark.parametrize("support", [1.0, CUTOFF_END])
def test_batch_equals_its_terms_one_at_a_time(support_case, support, monkeypatch):
    chart, w, pts = support_case
    g = cutoff_masked(chart, w)
    other = cutoff_masked(chart, lambda p: 2.0 - np.asarray(w(p)))
    # zero, listed last, is exactly 0 on every live pair: it must read zeros, not
    # the values the others scattered into the panel's buffer before it
    zero = lambda p: 0.0 * np.asarray(g(p))
    alone = [antideriv_chains(chart, [(f, d)], pts, support=support)[0]
             for f, d in ((g, 1), (other, 2), (g, 3), (zero, 2))]
    evaluated, sweeps = [], []
    positions = flow_module._panel_positions
    monkeypatch.setattr(flow_module, "_panel_positions",
                        lambda *args: sweeps.append(1) or positions(*args))

    def counted(p):
        evaluated.append(1)
        return g(p)
    batch = antideriv_chains(chart, [(counted, 1), (other, 2), (counted, 3), (zero, 2)], pts,
                             support=support)
    for one, together in zip(alone[:3], batch):
        assert np.array_equal(one, together)
        assert np.any(together != 0)
    assert np.array_equal(alone[3], batch[3]) and not np.any(batch[3])
    # g, listed at depths 1 and 3, is evaluated once on each panel swept
    assert len(evaluated) == len(sweeps) == (2 if support == 1.0 else 1)
    if chart.domain.kind == "disk":
        # jets: values on a trailing axis weighted by R_s**order, real and complex
        # integrands in one batch, the zero one last
        jet = lambda f: lambda pos, tau, shared: np.stack([f(pos), tau * f(pos)], axis=-1)
        real = lambda pos, tau, shared: np.abs(jet(other)(pos, tau, shared))
        terms = [(lambda s: 1.0, jet(g), 1),
                 (lambda s: 1.0 - s, real, 2),
                 (lambda s: s * s, jet(g), 3),
                 (lambda s: 1.0, jet(zero), 2)]
        alone = [_collar_quadrature(chart, pts, [term], support=support, orders=[0, 1])[0]
                 for term in terms]
        batch = _collar_quadrature(chart, pts, terms, support=support, orders=[0, 1])
        for one, together in zip(alone[:3], batch):
            assert np.array_equal(one, together)
            assert np.all(np.any(together != 0, axis=0))
        assert np.array_equal(alone[3], batch[3]) and not np.any(batch[3])
    # the Hardy majorants batch the same way: g at two weights, other at one
    moments = [(0, g), (1, g), (1, other)]
    alone = [flow_moment_apply(chart, [moment], pts)[0] for moment in moments]
    del sweeps[:]
    for one, together in zip(alone, flow_moment_apply(chart, moments, pts)):
        assert np.array_equal(one, together)
        assert np.any(together != 0)
    assert len(sweeps) == 1


@pytest.mark.parametrize("support", [1.0, CUTOFF_END])
def test_shared_factor_table_is_bit_for_bit_and_lives_one_panel(disk_chart, support, rng,
                                                               monkeypatch):
    # chains of one h on the chart's two profiles: the panel's table shares |z|,
    # both profiles and every derivative of h, the rotated levels' included; then
    # chains of a second input, after which the table holds only its derivatives
    chart = disk_chart
    pts = points_at_hit_times(chart, SUPPORT_TIMES, rng)
    h, second = Holo1.inverse_power(0.9, 0.75), Holo1.from_coeffs([0.3, 1.0, 0.5j])
    zh, cr = cutoff_times(chart, h), cr_reduction(h, chart)
    chains = [(zh, 1), (cr, 1), (zh.rotation_applied(), 2), (cr, 2),
              (zh.rotation_applied().rotation_applied(), 3), (cr.rotation_applied(), 3),
              (zh, 3), (cr.rotation_applied().rotation_applied(), 2),
              (cutoff_times(chart, second).rotation_applied(), 3),
              (cr_reduction(second, chart).rotation_applied(), 1)]
    tables, sweeps, held = [], [], []

    def bases(table):
        return {key[0] for key in table.values if isinstance(key, tuple)}

    class Recorded(functions._Shared):
        def __init__(self):
            super().__init__()
            tables.append(self)

        def get(self, key, compute):
            value = super().get(key, compute)
            held.append(bases(self))
            return value
    monkeypatch.setattr(flow_module, "_Shared", Recorded)
    positions = flow_module._panel_positions
    monkeypatch.setattr(flow_module, "_panel_positions",
                        lambda *args: sweeps.append(1) or positions(*args))
    batch = antideriv_chains(chart, chains, pts, support=support)
    # at support 1 the points outside the domain reach the second panel, where
    # only the chains of depth 2 and 3 are live
    assert len(sweeps) == len(tables) == (2 if support == 1.0 else 1)
    # a table holds the derivatives of the input being evaluated only: those of
    # h until the second input's integrands begin, and only theirs at the end
    assert all(len(b) <= 1 for b in held) and set().union(*held) == {h, second}
    assert all(bases(table) == {second} for table in tables)
    for (w, depth), together in zip(chains, batch):
        # alone, and as a plain closure that evaluates w with no panel table
        alone = antideriv_chains(chart, [(w, depth)], pts, support=support)[0]
        unshared = antideriv_chains(chart, [(lambda p, w=w: w(p), depth)], pts,
                                    support=support)[0]
        assert np.array_equal(together, alone)
        assert np.array_equal(together, unshared)
        assert np.any(together != 0)


def test_blocked_sweeps_equal_the_sweeps_of_two_halves(disk_chart, rng):
    # C4's 96 x 192 doubling grid, 18,432 points in five blocks, and C2's ratio
    # grid, 1,152 points in one: each equals its two halves swept apart, bit for bit
    chart = disk_chart
    h = Holo1.inverse_power(0.9, 0.75)
    zh, cr = cutoff_times(chart, h), cr_reduction(h, chart)
    pts = polar_eval_grid(chart.domain, 96, 192, r_inner=0.4).nodes().ravel()
    chains = [(cr, 1), (zh, 1), (cr, 2), (zh, 2)]
    sweep = lambda p: antideriv_chains(chart, chains, p, support=CUTOFF_END)
    grid = collar_ratio_grid(chart, n_r=24, n_th=48)[0]
    moments = [(mu, _seeded_masked(chart, rng)) for mu in (0, 1) for _ in range(3)]
    majorants = lambda p: flow_moment_apply(chart, moments, p, support=CUTOFF_END)
    for run, points in ((sweep, pts), (majorants, grid)):
        whole = run(points)
        halves = [run(half) for half in np.array_split(points, 2)]
        for values, *parts in zip(whole, *halves):
            assert np.array_equal(values, np.concatenate(parts))
            assert np.any(values != 0)


@pytest.mark.parametrize("kind", ["disk", "ball"])
def test_blocks_keep_the_layout_of_the_points(disk_chart, ball_chart, kind, rng,
                                              monkeypatch):
    # a budget of 32 points per block: a 3 x 40 array in the plane and 60 points in
    # C^2, every fifth moved deep inside, where nothing is swept, come back in
    # their own shape and order with the bits of one call
    chart = {"disk": disk_chart, "ball": ball_chart}[kind]
    pts = collar_points(chart, rng, n=120 if kind == "disk" else 60)
    pts[::5] *= 0.1
    if kind == "disk":
        pts = pts.reshape(3, 40)
        w = cutoff_masked(chart, Poly2.random(rng, degree=2))
    else:
        w = lambda p: chart.cutoff(p) * (1.0 + p[..., 0] * np.conj(p[..., 1]))
    one_call = antideriv_chains(chart, [(w, 2)], pts)[0]
    swept = []
    quadrature = flow_module._collar_quadrature
    monkeypatch.setattr(flow_module, "_collar_quadrature",
                        lambda chart, p, *args, **kwargs: swept.append(len(p))
                        or quadrature(chart, p, *args, **kwargs))
    monkeypatch.setattr(flow_module, "_SWEEP_PAIRS", 32 * 4 * chart.q_panels)
    blocked = antideriv_chains(chart, [(w, 2)], pts)[0]
    assert swept == ([32, 32, 32] if kind == "disk" else [32, 16])
    assert blocked.shape == one_call.shape == pts.shape[:3 - chart.domain.complex_dimension]
    assert np.array_equal(blocked, one_call)
    assert np.all((blocked != 0) == (chart.hit_time(pts) < CUTOFF_END))


@pytest.mark.parametrize("columns", [1, 7, 17, 1035])
@pytest.mark.parametrize("dtype", [complex, float])
def test_entry_sums_equal_the_slices_of_one_einsum(dtype, columns):
    # the jets path sums a panel's derivative entries one at a time through one
    # nodes x points buffer: bit for bit the slices of the single einsum over the
    # nodes x points x entries panel it replaced, dead pairs included (zero in
    # the panel, never written in the buffer), up to fanout's 1,035 points
    rng = np.random.default_rng(columns)
    nodes, orders = 4 * 32, [0, 1, 1, 2, 2, 2]
    need = rng.random((nodes, columns)) < 0.7
    need[rng.integers(nodes), :] = False
    values = rng.normal(size=(nodes, columns, len(orders)))
    if dtype is complex:
        values = values + 1j * rng.normal(size=values.shape)
    values[~need] = 0.0
    # node weights against a signed kernel, times R_s**|beta|
    weighted = (rng.normal(size=nodes)[:, None]
                * rng.uniform(0.5, 1.0, size=nodes)[:, None] ** np.asarray(orders))
    dense = np.einsum("nb,npb->pb", weighted, values)
    buffer = np.zeros((nodes, columns), dtype=dtype)
    sums = flow_module._entry_sums(weighted, values[need], need, buffer)
    assert sums.dtype == dense.dtype and np.array_equal(sums, dense)


@pytest.mark.parametrize("resolution", [(32, 64), (2, 1)])
@pytest.mark.parametrize("kind", ["disk", "annulus"])
def test_cutoff_end_bound_is_exact(disk, annulus, kind, resolution, rng):
    # integrands carrying the cutoff or its derivative are exactly 0 from the
    # cutoff's end on, also at the positions RK4 reaches on a coarse chart
    chart = build_chart({"disk": disk, "annulus": annulus}[kind], *resolution)
    pts = points_at_hit_times(chart, SUPPORT_TIMES, rng)
    h = Holo1.from_coeffs([0.3, 1.0, 0.5j])
    zh = cutoff_times(chart, h)
    carried = [_transverse_of_cutoff_times(chart, Poly2.random(rng, degree=3)), zh,
               zh.rotation_applied()]
    if kind == "disk":
        carried.append(cr_reduction(h, chart))
    for w in carried:
        for depth in (1, 2, 3):
            at_end = antideriv_chains(chart, [(w, depth)], pts, support=CUTOFF_END)[0]
            assert np.array_equal(at_end, antideriv_chains(chart, [(w, depth)], pts,
                                                           support=np.inf)[0])
            assert np.any(at_end != 0)
    # an integrand that lives past the cutoff's end does see the bound
    sharp = sharp_masked(chart, Poly2.random(rng, degree=2))
    assert not np.array_equal(antideriv_chains(chart, [(sharp, 1)], pts, support=CUTOFF_END)[0],
                              antideriv_chains(chart, [(sharp, 1)], pts, support=np.inf)[0])


@pytest.mark.parametrize("kind", ["disk", "annulus", "ball"])
def test_integrand_evaluated_only_inside_the_collar(disk_chart, annulus_chart, ball_chart,
                                                     kind, rng):
    chart = {"disk": disk_chart, "annulus": annulus_chart, "ball": ball_chart}[kind]
    pts = collar_points(chart, rng)
    seen = []

    def w(p):
        seen.append(np.array(p))
        return chart.cutoff(p) * (1.0 + (p[..., 0] if kind == "ball" else p))

    antideriv_chains(chart, [(w, 2)], pts)
    positions = np.concatenate(seen)
    assert np.max(chart.hit_time(positions)) < 1.0 + 1e-6
    # 2 panels of 4 * q_panels Gauss nodes per point
    assert len(positions) < 2 * 4 * chart.q_panels * len(pts) / 2


@pytest.mark.parametrize("depth", [0, -1, 4])
def test_chain_depth_outside_one_to_three_raises_first(disk_chart, depth):
    calls = []
    with pytest.raises(ParameterError):
        antideriv_chains(disk_chart, [(lambda p: calls.append(p) or np.ones_like(p), depth)],
                         np.array([0.9 + 0.0j]))
    assert calls == []


def test_hitting_time_of_no_points(disk_chart, ball_chart):
    for chart, pts in ((disk_chart, np.array([], complex)),
                       (ball_chart, np.zeros((0, 2), complex))):
        t = hitting_time(chart, pts)
        assert t.shape == (0,) and t.dtype == float
