"""Regression guards on repeated work: each point set is swept once for every
integrand computed on it (in blocks of bounded size, which together flow and
evaluate exactly what one unblocked sweep does), an operator expression sweeps
each distinct kernel request once per apply_op call, each factor the integrands
of a panel share is evaluated once per panel (the derivatives of an input once
while its integrands follow one another), a hitting time steps each point once
up to its crossing, projection evaluates no basis element, and a Sobolev norm
takes each derivative order once for all the orders it reports.  Two guards on
memory: C4's peak stays near the one its bounded sweep blocks hold, and the
power-expansion identity's near the one its per-entry kernel sums hold."""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import bergsmooth.finitediff as fd_module
import bergsmooth.flow as flow_module
import bergsmooth.norms as norms_module
import bergsmooth.scenarios as scenarios_module
from bergsmooth.bergman import PlanarMonomial
from bergsmooth.decompose import cr_reduction, cutoff_times, decompose, reproduction_residual
from bergsmooth.flow import CUTOFF_END, CollarChart, antideriv_chains, build_chart
from bergsmooth.functions import Holo1, Poly2, _ThetaDerivative
from bergsmooth.geometry import VectorField, make_domain, polar_eval_grid
from bergsmooth.norms import sobolev_norm
from bergsmooth.operators import apply_op, compose, field_op, kernel_op, op_sum
from bergsmooth.scenarios import (ScenarioConfig, check_conj_annulus, check_conj_disk,
                                  check_decomposition, check_ftc, check_hardy,
                                  check_reproduction)
from test_decompose import _order_two_identity


@pytest.fixture()
def sweeps(monkeypatch):
    calls = []
    trajectories = flow_module.trajectories

    def counted(*args, **kwargs):
        calls.append(1)
        return trajectories(*args, **kwargs)
    monkeypatch.setattr(flow_module, "trajectories", counted)
    return calls


@pytest.fixture(scope="module")
def chart(disk):
    return build_chart(disk)


def test_ftc_sweeps_once_per_domain(sweeps):
    check_ftc(ScenarioConfig("ftc"))
    assert len(sweeps) == 2


def test_hardy_sweeps_its_grid_once(sweeps):
    # the majorants of all 40 seeded functions, at both weights, from one sweep
    check_hardy(ScenarioConfig("hardy"))
    assert len(sweeps) == 1


def test_hardy_majorants_end_at_the_cutoffs_end(monkeypatch):
    # C2's inputs are cutoff * Poly2, exactly 0 from hit time 3/4 on: swept only
    # that far, the majorants keep their bits while 912 of the 1,104 collar points
    # are flowed and 49,200 of 82,080 node-point pairs evaluated, per input
    real = flow_module.flow_moment_apply
    inputs = []
    monkeypatch.setattr(scenarios_module, "flow_moment_apply",
                        lambda *args, **kwargs: inputs.append(args) or real(*args, **kwargs))
    check_hardy(ScenarioConfig("hardy"))
    (args,) = inputs
    trajectories, values = flow_module.trajectories, flow_module._values

    def swept(support):
        # the majorants, the starts flowed and the pairs evaluated per input
        starts, pairs = [], []
        with monkeypatch.context() as m:
            m.setattr(flow_module, "trajectories",
                      lambda chart, p, *rest: starts.append(len(p)) or trajectories(chart, p,
                                                                                    *rest))
            m.setattr(flow_module, "_values",
                      lambda w, pos, shared: pairs.append(len(pos)) or values(w, pos, shared))
            return real(*args, support=support), starts, pairs
    collar, starts, pairs = swept(1.0)
    assert starts == [1_104] and pairs == [82_080] * 40
    ended, starts, pairs = swept(CUTOFF_END)
    assert starts == [912] and pairs == [49_200] * 40
    assert all(np.array_equal(a, b) for a, b in zip(collar, ended))


def test_no_sweep_holds_more_than_its_budget(monkeypatch):
    # C2's grid takes one sweep, and the C4 point sets larger than the budget's
    # 4,096 points (5,600, 4,608 and 18,432) are split into the fewest blocks of
    # nearly equal size, a multiple of 16 swept points each but the last: 4,600,
    # 4,224 and 16,896 points lie in the collar
    quadrature = flow_module._collar_quadrature
    swept = []

    def recorded(chart, points, terms, **kwargs):
        swept.append(np.size(points))
        assert np.size(points) * 4 * chart.q_panels <= flow_module._SWEEP_PAIRS == 2**19
        return quadrature(chart, points, terms, **kwargs)
    monkeypatch.setattr(flow_module, "_collar_quadrature", recorded)
    check_hardy(ScenarioConfig("hardy"))
    check_decomposition(ScenarioConfig("decomposition"))
    assert swept == [1152, 2304, 2296, 2048, 2112, 2112, 3392, 3392, 3392, 3392, 3328]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reproduction_residual_sweeps_once(sweeps, chart, k):
    reproduction_residual([Holo1.inverse_power(0.9, 1.0)], [k], chart)
    assert len(sweeps) == 1


# a node-point budget that no point set reaches: every sweep in one call
UNBOUNDED = sys.maxsize


def _flowed(monkeypatch, run, budget):
    """The trajectories calls run() makes with the sweep blocks' node-point budget
    set to budget, and the start points they flow, sorted, keyed by the first
    node of their panel."""
    starts = {}
    with monkeypatch.context() as m:
        m.setattr(flow_module, "_SWEEP_PAIRS", budget)
        trajectories = flow_module.trajectories

        def recorded(chart, points, s_values, n_steps):
            starts.setdefault(float(s_values[0]), []).append(np.ravel(points))
            return trajectories(chart, points, s_values, n_steps)
        m.setattr(flow_module, "trajectories", recorded)
        run()
    return (sum(map(len, starts.values())),
            {s: np.sort(np.concatenate(parts)) for s, parts in starts.items()})


def _same(a, b):
    """Dicts of arrays with equal keys and equal arrays, bit for bit."""
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _decompose_one_pole():
    decompose([Holo1.inverse_power(0.9, 0.75)], [2], build_chart(make_domain("disk")))


def _check_decomposition():
    check_decomposition(ScenarioConfig("decomposition"))


def test_decompose_sweeps_each_point_set_once(monkeypatch):
    # the evaluation points with their four rotated copies, then the norm grid:
    # two sweeps in all, and the blocks of the first flow the same start points
    calls, once = _flowed(monkeypatch, _decompose_one_pole, UNBOUNDED)
    assert calls == 2
    assert _same(_flowed(monkeypatch, _decompose_one_pole, flow_module._SWEEP_PAIRS)[1], once)


def test_reproduction_check_sweeps_once_per_chart(sweeps):
    # every input and order of C3, and the drop study, in one sweep per chart
    check_reproduction(ScenarioConfig("decomposition"))
    assert len(sweeps) <= 2


def test_decomposition_check_sweeps_each_point_set_once(monkeypatch):
    # all inputs and both orders on the two point sets of decompose, then
    # one sweep per grid of the doubling study; blocked, three of the four point
    # sets take 9 calls, which flow exactly the start points of one sweep each
    calls, once = _flowed(monkeypatch, _check_decomposition, UNBOUNDED)
    assert calls <= 4
    assert _same(_flowed(monkeypatch, _check_decomposition, flow_module._SWEEP_PAIRS)[1],
                 once)


def test_order_two_identity_sweeps_each_kernel_request_once(sweeps, chart, rng):
    # the four apply_op calls of the identity: a kernel request that several terms
    # of a sum share is swept once per call, 15 sweeps (22 when each term swept
    # it again); g is evaluated at the same points as before
    w = Poly2.random(rng, degree=2)
    evaluated = []

    def g(p):
        evaluated.append(np.size(p))
        return chart.cutoff(p) * w(p)
    _order_two_identity(chart, g)
    assert len(sweeps) == 15
    assert sum(evaluated) == 8_566_587


def test_a_sum_of_one_expression_twice_sweeps_it_once_per_call(sweeps, chart, rng):
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    e = compose(kernel_op(1), field_op(x), kernel_op())
    w = Poly2.random(rng, degree=2)
    g = lambda p: chart.cutoff(p) * w(p)
    pts = np.exp(-chart.rate * np.array([0.1, 0.3, 0.5]) + 1j * np.arange(3.0))
    alone = apply_op(e, g, pts, chart)
    per_call = len(sweeps)
    twice = apply_op(op_sum((1.0, e), (1.0, e)), g, pts, chart)
    assert np.array_equal(twice, 2 * alone)
    assert len(sweeps) == 2 * per_call
    # nothing is kept from one call to the next
    apply_op(e, g, pts, chart)
    assert len(sweeps) == 3 * per_call


def test_shared_factors_run_once_per_panel(sweeps, chart, monkeypatch):
    # cutoff_times and cr_reduction of one h, each at depths 1 and 2, read |z|,
    # the chart's pair of cutoff profiles and h from the panel's table: h and the
    # pair run once per panel swept (h ran twice before, once for each product,
    # and each profile of the pair once with a hit time of its own)
    calls = Counter()
    profiles = CollarChart.cutoff_profiles
    monkeypatch.setattr(CollarChart, "cutoff_profiles", lambda self, r:
                        calls.update(["cutoff_profiles"]) or profiles(self, r))
    base = Holo1.from_coeffs([0.3, 1.0, 0.5j])
    h = Holo1(lambda j: lambda z: calls.update([("h", j)]) or base._deriv(j)(z))
    zh, cr = cutoff_times(chart, h), cr_reduction(h, chart)
    # hit times from just outside the domain into the collar: two panels swept
    pts = np.exp(-chart.rate * np.array([-0.01, 0.1, 0.4, 0.7]) + 1j * np.arange(4.0))
    antideriv_chains(chart, [(zh, 1), (cr, 1), (zh, 2), (cr, 2)], pts)
    assert len(sweeps) == 2
    assert calls == {"cutoff_profiles": 2, ("h", 0): 2}


# hit_time_radial points of one default-config call, while each seeded function
# computed the cutoff (C1: and its rate) at every panel position: 1,618,944 in C1
# and 3,331,584 in C2.  Now the pair of profiles is read from each panel's table,
# and C1's target cutoff is computed once per domain.
@pytest.mark.parametrize("check, scenario, points", [(check_ftc, "ftc", 84_288),
                                                     (check_hardy, "hardy", 130_464)],
                         ids=["C1", "C2"])
def test_seeded_cutoff_products_take_one_hit_time_per_panel_position(monkeypatch, check,
                                                                     scenario, points):
    seen = []
    radial = CollarChart.hit_time_radial
    monkeypatch.setattr(CollarChart, "hit_time_radial",
                        lambda self, r: seen.append(np.size(r)) or radial(self, r))
    check(ScenarioConfig(scenario))
    assert sum(seen) <= points


def test_reproduction_check_evaluates_each_derivative_once_per_panel(monkeypatch):
    # C3 lists its chains input by input, and a panel's table keeps the
    # derivatives of one input while its integrands follow one another: 25
    # derivatives of the inputs and 30 of rotated levels (chains interleaved
    # across the inputs would compute them again)
    calls = Counter()
    for cls in (Holo1, _ThetaDerivative):
        compute = cls.__dict__["_compute"]
        monkeypatch.setattr(cls, "_compute", lambda self, j, z, shared, cls=cls, compute=compute:
                            calls.update([cls]) or compute(self, j, z, shared))
    check_reproduction(ScenarioConfig("decomposition"))
    assert calls[Holo1] <= 25 and calls[_ThetaDerivative] <= 30


def _pole_evaluations(monkeypatch, run, budget):
    """The derivative orders of every inverse-power evaluation run() makes with the
    sweep blocks' node-point budget set to budget, and the points at which each
    input, keyed by its pole and power, is evaluated, sorted."""
    orders, points = [], {}
    make = Holo1.inverse_power

    def recorded(a, p):
        factory = make(a, p)._deriv

        def deriv(j):
            def ev(z):
                orders.append(j)
                points.setdefault((a, p), []).append(np.ravel(z))
                return factory(j)(z)
            return ev
        return Holo1(deriv)
    with monkeypatch.context() as m:
        m.setattr(flow_module, "_SWEEP_PAIRS", budget)
        m.setattr(Holo1, "inverse_power", staticmethod(recorded))
        run()
    return orders, {key: np.sort(np.concatenate(zs)) for key, zs in points.items()}


def test_decomposition_check_evaluates_each_pole_once_per_point_set(monkeypatch):
    # C4's four inverse-power inputs are each evaluated once per point set swept
    # (the evaluation points with their rotated copies, the norm grid), once for
    # the target and twice for the weighted norms, and the doubling study's input
    # once per grid: 4 * 5 + 2 = 22 evaluator calls, every one of derivative
    # order 0 (30 with the points and the two stencils swept apart, 44 when
    # cutoff * h and its transverse defect each evaluated h).  Blocked, each
    # input is evaluated at exactly the same points
    orders, once = _pole_evaluations(monkeypatch, _check_decomposition, UNBOUNDED)
    assert len(orders) <= 22 and set(orders) == {0}
    blocked = _pole_evaluations(monkeypatch, _check_decomposition, flow_module._SWEEP_PAIRS)
    assert set(blocked[0]) == {0} and _same(blocked[1], once)


def _sweep_first_point_set_twice(monkeypatch):
    # a mutation: the first point set a run sweeps is swept twice, the first
    # values thrown away
    blocked = flow_module._blocked_quadrature
    seen = []

    def twice(*args, **kwargs):
        if not seen:
            seen.append(blocked(*args, **kwargs))
        return blocked(*args, **kwargs)
    monkeypatch.setattr(flow_module, "_blocked_quadrature", twice)


@pytest.mark.parametrize("measure, run", [(_flowed, _decompose_one_pole),
                                          (_flowed, _check_decomposition),
                                          (_pole_evaluations, _check_decomposition)],
                         ids=["decompose-starts", "C4-starts", "C4-poles"])
def test_blocked_work_counts_fail_when_a_point_set_is_swept_twice(monkeypatch, measure, run):
    # the control of the three tests above: their pinned work is not that of a
    # blocked run that sweeps one point set twice
    _, once = measure(monkeypatch, run, UNBOUNDED)
    _sweep_first_point_set_twice(monkeypatch)
    _, twice = measure(monkeypatch, run, flow_module._SWEEP_PAIRS)
    assert not _same(twice, once)


# tracemalloc peaks, with Python 3.11.7 and numpy 2.4.6, of one default-config
# check_decomposition with the sweeps of pointwise integrands in blocks of at most
# 2**19 node-point pairs: 40.9e6 bytes (113.6e6 when the doubling study's 18,432
# points were swept in one call, 175.3e6 before the panels shared their factors);
# and of the order-2 power-expansion identity at its twelve points, with each
# kernel panel's derivative entries summed one at a time through one nodes x
# points buffer and every jet filled in place: 15.6e6 bytes (22.9e6 with one
# 128 x 1,035 x 6 buffer of every entry, and stacked copies of the leaf jets)
PARENT_C4_PEAK_BYTES = 44e6
IDENTITY_PEAK_BYTES = 17e6


def _traced_peak(run):
    """The tracemalloc peak of run(), in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# guards against retained values (a table kept past its panel, a buffer per
# integrand or per derivative entry, a point set swept unblocked), not against
# allocator layout: the benchmark's peak RSS is the gate
def test_decomposition_check_holds_no_more_memory_than_before():
    assert _traced_peak(_check_decomposition) <= PARENT_C4_PEAK_BYTES


def test_order_two_identity_holds_no_node_point_entry_array(chart, rng):
    w = Poly2.random(rng, degree=2)
    peak = _traced_peak(lambda: _order_two_identity(chart, lambda p: chart.cutoff(p) * w(p)))
    assert peak <= IDENTITY_PEAK_BYTES


def test_hitting_time_marches_then_bisects_the_crossing_step(monkeypatch, chart):
    # one march of at most 2 m_steps steps and one bisection of the last step,
    # for the whole band together
    calls = []
    step = flow_module._rk4_step

    def counted(*args):
        calls.append(1)
        return step(*args)
    monkeypatch.setattr(flow_module, "_rk4_step", counted)
    t = np.linspace(0.05, 0.95, 16)
    flow_module.hitting_time(chart, np.exp(-chart.rate * t + 1j * np.arange(16.0)))
    assert 0 < len(calls) <= 2 * chart.m_steps + 40


def test_conj_disk_evaluates_no_basis_element(monkeypatch):
    # C5's ten projections take their moments from running powers of conj(z)
    calls = []
    evaluate = PlanarMonomial.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)
    monkeypatch.setattr(PlanarMonomial, "eval", counted)
    check_conj_disk(ScenarioConfig("conj-smoothing"))
    assert len(calls) == 0


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("k, calls", [(1, 2), (3, 12)])
def test_finite_difference_norm_differences_each_inner_partial_once(monkeypatch, disk, k,
                                                                    calls):
    # a radial and an angular difference of each partial of order below k (1 at
    # order 1, 6 at order 3); 4 and 40 calls when each partial differenced its
    # inner partials afresh
    seen = _counting(monkeypatch, fd_module, "diff_uniform")
    sobolev_norm(lambda z: z * np.conj(z), k, disk, eval_grid=polar_eval_grid(disk, 16, 32))
    assert len(seen) == calls


def test_conj_annulus_synthesizes_each_derivative_order_once(monkeypatch):
    # one Sobolev ladder of orders 0..2 per projection: 3 conjugate powers on 2
    # grids and 10 seeded functions, 3 derivative orders each, 48 calls (96 when
    # each order's norm summed its lower orders again)
    seen = _counting(monkeypatch, norms_module, "synthesize")
    check_conj_annulus(ScenarioConfig.from_dict(
        {"scenario": "conj-smoothing", "n_r": 16, "n_theta": 32, "basis_size": 16}))
    assert len(seen) == 48
