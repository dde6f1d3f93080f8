"""Regression guards on repeated work: each point set is swept once for every
integrand computed on it (one sweep, in blocks of bounded size within each
panel, which together flow and evaluate exactly what one block does: the counts
below are summed over the blocks, so they do not depend on how many there
are), a sweep makes each panel's tables and takes its hit times once, an
operator expression sweeps each distinct kernel request once per apply_op
call, each factor the integrands of a panel share is evaluated once per panel
(the derivatives of an input once while its integrands follow one another, and
one table of a polynomial family's monomials for all its members), a hitting
time steps each point once up to its crossing, projection evaluates no basis
element, and the Sobolev norms of a family take every derivative order from one
power table.  Guards on memory: C1's to C4's peaks stay near the ones their
bounded sweep blocks hold, the power-expansion identity's near the one its
per-entry kernel sums hold, and C6's and C8's near the ones their chunked power
tables hold."""

import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import bergsmooth.finitediff as fd_module
import bergsmooth.flow as flow_module
import bergsmooth.norms as norms_module
import bergsmooth.scenarios as scenarios_module
from bergsmooth.bergman import PlanarMonomial
from bergsmooth.decompose import (component_values, cr_reduction, cutoff_times, decompose,
                                  reproduction_residual)
from bergsmooth.flow import CUTOFF_END, CollarChart, antideriv_chains, build_chart
from bergsmooth.functions import Holo1, Poly2, Poly2Family, _ThetaDerivative
from bergsmooth.geometry import VectorField, make_domain, polar_eval_grid
from bergsmooth.norms import sobolev_norm
from bergsmooth.operators import apply_op, compose, field_op, kernel_op, op_sum
from bergsmooth.scenarios import (ScenarioConfig, check_conj_annulus, check_conj_disk,
                                  check_decomposition, check_duality, check_ftc, check_hardy,
                                  check_reproduction)
from test_decompose import _order_two_identity


@pytest.fixture()
def sweeps(monkeypatch):
    # the start points of each panel swept, by the seam that yields a panel's
    # positions: the points scaled by the sweep's radius table, or marched per
    # point in apply_op.  One entry per panel and block: its length counts the
    # panels of apply_op, whose sweeps are one block, and its sum the starts
    # flowed, which do not depend on how a point set is blocked
    starts = []
    positions = flow_module._panel_positions

    def counted(chart, start, *rest):
        starts.append(len(start))
        return positions(chart, start, *rest)
    monkeypatch.setattr(flow_module, "_panel_positions", counted)
    return starts


@pytest.fixture(scope="module")
def chart(disk):
    return build_chart(disk)


def test_ftc_sweeps_once_per_domain(sweeps):
    # each domain's 1,152 points swept once: 720 starts flowed on the disk and
    # 672 on the annulus, in the first panel
    check_ftc(ScenarioConfig("ftc"))
    assert sum(sweeps) == 720 + 672


def test_hardy_sweeps_its_grid_once(sweeps):
    # the majorants of all 40 seeded functions, at both weights, from one sweep
    # of the 1,152-point ratio grid: 912 starts flowed up to the cutoff's end
    check_hardy(ScenarioConfig("hardy"))
    assert sum(sweeps) == 912


def test_hardy_majorants_end_at_the_cutoffs_end(monkeypatch):
    # C2's inputs are cutoff * Poly2, exactly 0 from hit time 3/4 on: swept only
    # that far, the majorants keep their bits while 912 of the 1,104 collar points
    # are flowed and 49,200 of 82,080 node-point pairs evaluated, per input,
    # summed over the blocks
    real = flow_module.flow_moment_apply
    inputs = []
    monkeypatch.setattr(scenarios_module, "flow_moment_apply",
                        lambda *args, **kwargs: inputs.append(args) or real(*args, **kwargs))
    check_hardy(ScenarioConfig("hardy"))
    (args,) = inputs
    positions, values = flow_module._panel_positions, flow_module._values

    def swept(support):
        # the majorants, the starts flowed and the pairs evaluated per input
        starts, pairs = [], Counter()
        with monkeypatch.context() as m:
            m.setattr(flow_module, "_panel_positions",
                      lambda chart, p, *rest: starts.append(len(p)) or positions(chart, p,
                                                                                 *rest))
            m.setattr(flow_module, "_values",
                      lambda w, pos, shared: pairs.update({id(w): len(pos)})
                      or values(w, pos, shared))
            return real(*args, support=support), sum(starts), sorted(pairs.values())
    collar, starts, pairs = swept(1.0)
    assert starts == 1_104 and pairs == [82_080] * 40
    ended, starts, pairs = swept(CUTOFF_END)
    assert starts == 912 and pairs == [49_200] * 40
    assert all(np.array_equal(a, b) for a, b in zip(collar, ended))


def _work(run):
    """What run() sweeps and evaluates, counted over every block: per point set
    swept (one _collar_quadrature call), the sizes of its blocks, as _blocks cuts
    them, and, per panel keyed by its first node, the start points flowed,
    sorted; the derivative orders of every inverse-power evaluation; and the
    number of points at which each inverse-power input, keyed by its pole and
    power, is evaluated."""
    sets, orders, poles = [], [], Counter()
    quadrature = flow_module._collar_quadrature
    blocks = flow_module._blocks
    positions = flow_module._panel_positions
    make = Holo1.inverse_power

    def sweep(*args, **kwargs):
        sets.append(SimpleNamespace(blocks=[], starts={}))
        return quadrature(*args, **kwargs)

    def cut(chart, n):
        slices = blocks(chart, n)
        sets[-1].blocks += [block.stop - block.start for block in slices]
        return slices

    def panel(chart, start, s, *rest):
        sets[-1].starts.setdefault(float(s[0]), []).append(np.ravel(start))
        return positions(chart, start, s, *rest)

    def recorded(a, p):
        factory = make(a, p)._deriv

        def deriv(j):
            def ev(z):
                orders.append(j)
                poles[a, p] += np.size(z)
                return factory(j)(z)
            return ev
        return Holo1(deriv)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(flow_module, "_collar_quadrature", sweep)
        m.setattr(flow_module, "_blocks", cut)
        m.setattr(flow_module, "_panel_positions", panel)
        m.setattr(Holo1, "inverse_power", staticmethod(recorded))
        run()
    for swept in sets:
        swept.starts = {s: np.sort(np.concatenate(parts)) for s, parts in swept.starts.items()}
    return SimpleNamespace(sets=sets, orders=orders, poles=dict(poles))


def _starts(work):
    """The number of start points each point set flows, per panel, or None where a
    panel flows a point twice."""
    return [{s: len(p) if len(np.unique(p)) == len(p) else None
             for s, p in swept.starts.items()} for swept in work.sets]


def _decompose_one_pole():
    decompose([Holo1.inverse_power(0.9, 0.75)], [2], build_chart(make_domain("disk")))


def _check_decomposition():
    check_decomposition(ScenarioConfig("decomposition"))


def _sweep_first_point_set_twice():
    """A mutation: the first point set a run sweeps is swept twice, the first
    values thrown away."""
    quadrature = flow_module._collar_quadrature
    seen = []

    def twice(*args, **kwargs):
        if not seen:
            seen.append(quadrature(*args, **kwargs))
        return quadrature(*args, **kwargs)
    return twice


@pytest.fixture(scope="module")
def c4_work():
    # one default-config C4 run feeds every count of C4's sweeps below
    return _work(_check_decomposition)


@pytest.fixture(scope="module")
def c4_work_twice():
    # and one with its first point set swept twice, for their controls
    with pytest.MonkeyPatch.context() as m:
        m.setattr(flow_module, "_collar_quadrature", _sweep_first_point_set_twice())
        return _work(_check_decomposition)


# the first node of the first panel at the default chart's 32 panels per unit time
PANEL_0 = -0.9978302548686571
# C4's four point sets, each flowed in its first panel only, since all its
# chains end at the cutoff's end: the 5,600 evaluation points with their four
# rotated copies, the 2,048-point norm grid, and the doubling study's 4,608 and
# 18,432 points, of which 3,800, 960, 3,456 and 13,824 have a node-point pair
# before the cutoff's end
C4_STARTS = [{PANEL_0: 3_800}, {PANEL_0: 960}, {PANEL_0: 3_456}, {PANEL_0: 13_824}]
# the points at which each of C4's inverse-power inputs, the near pole of its
# input set and the three poles of its singular family, is evaluated: its
# target, its weighted norms and every live node-point pair of its sweeps; the
# doubling study's input is the pole at 0.9 again
C4_POLE_POINTS = {(0.9, 1.0): 274_888, (0.9, 0.75): 1_194_376, (0.99, 0.75): 274_888,
                  (0.999, 0.75): 274_888}


def test_no_sweep_holds_more_than_its_budget(c4_work):
    # C2's grid and C4's point sets, their swept points (hit time below the
    # cutoff's end, where their sweeps' support ends) split into the fewest blocks
    # of at most 2**14 node-point pairs, 128 points, of nearly equal size: each
    # but the last holds the swept points over the number of blocks, rounded up
    hardy = _work(lambda: check_hardy(ScenarioConfig("hardy")))
    blocks = [swept.blocks for swept in hardy.sets + c4_work.sets]
    assert flow_module._SWEEP_PAIRS == 2**14
    assert all(size * 4 * 32 <= flow_module._SWEEP_PAIRS for sizes in blocks for size in sizes)
    assert blocks == [[114] * 8, [127] * 29 + [117], [120] * 8, [128] * 27, [128] * 108]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reproduction_residual_sweeps_once(chart, k):
    # the 1,120 evaluation points swept once, 760 of them flowed in the first
    # panel, and the input evaluated there and at the targets
    work = _work(lambda: reproduction_residual([Holo1.inverse_power(0.9, 1.0)], [k], chart))
    assert _starts(work) == [{PANEL_0: 760}]
    assert work.poles == {(0.9, 1.0): {1: 84_080, 2: 125_560, 3: 167_040}[k]}


def test_decompose_sweeps_each_point_set_once():
    # the evaluation points with their four rotated copies, then the norm grid:
    # two point sets, each of whose points is flowed once per panel, whatever
    # the blocks
    assert _starts(_work(_decompose_one_pole)) == C4_STARTS[:2]


def test_reproduction_check_sweeps_once_per_chart(sweeps):
    # every input and order of C3, and the drop study, in one sweep per chart:
    # 760 of the 1,120 evaluation points flowed at each
    check_reproduction(ScenarioConfig("decomposition"))
    assert sum(sweeps) == 2 * 760


def test_decomposition_check_sweeps_each_point_set_once(c4_work):
    # all inputs and both orders on the two point sets of decompose, then one
    # sweep per grid of the doubling study
    assert _starts(c4_work) == C4_STARTS


def test_order_two_identity_sweeps_each_kernel_request_once(sweeps, chart, rng):
    # the four apply_op calls of the identity: a kernel request that several terms
    # of a sum share is swept once per call, 15 sweeps (22 when each term swept
    # it again); each kernel evaluates g only below its support bound, at
    # 4,100,409 points (8,566,587 when every kernel swept the whole collar)
    w = Poly2.random(rng, degree=2)
    evaluated = []

    def g(p):
        evaluated.append(np.size(p))
        return chart.cutoff(p) * w(p)
    _order_two_identity(chart, g)
    assert len(sweeps) == 15
    assert sum(evaluated) == 4_100_409


def test_a_sum_of_one_expression_twice_sweeps_it_once_per_call(sweeps, chart, rng):
    x = VectorField(chart.domain, lambda p: np.full_like(p, 1.0 + 0.0j), real=True,
                    name="dx")
    e = compose(kernel_op(), field_op(x), kernel_op())
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
    # hit times from the boundary into the collar: the one sweep of [-1, 0]
    pts = np.exp(-chart.rate * np.array([0.0, 0.1, 0.4, 0.7]) + 1j * np.arange(4.0))
    antideriv_chains(chart, [(zh, 1), (cr, 1), (zh, 2), (cr, 2)], pts)
    assert len(sweeps) == 1
    assert calls == {"cutoff_profiles": 1, ("h", 0): 1}


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


def test_ftc_chains_read_one_monomial_table_per_block(monkeypatch, chart):
    # C1's disk sweep: its ten seeded polynomials, one family, each read at the
    # live pairs of a block through one table of the family's monomials there,
    # built once per block (39,936 live pairs in all); each chain reads its
    # member's value and first partials as three products against it, and no
    # Poly2 runs Horner's rule (140 Horner calls on 2,413,440 points across C1
    # before)
    tables, reads, blocks, horner = [], Counter(), [], []
    monomials, read, cut = Poly2Family._monomials, Poly2Family._read, flow_module._blocks
    derivative = Poly2._derivative
    monkeypatch.setattr(Poly2Family, "_monomials",
                        lambda self, z: tables.append(np.size(z)) or monomials(self, z))
    monkeypatch.setattr(Poly2Family, "_read", lambda self, i, beta, z, shared: reads.update(
        [beta]) or read(self, i, beta, z, shared))
    monkeypatch.setattr(Poly2, "_derivative", lambda *args: horner.append(1) or derivative(*args))

    def counted(chart, n):
        slices = cut(chart, n)
        blocks.extend(slices)
        return slices
    monkeypatch.setattr(flow_module, "_blocks", counted)
    pts = polar_eval_grid(chart.domain, 24, 48, r_inner=0.3).nodes().ravel()
    ws = scenarios_module._seeded_polynomials(np.random.default_rng(1), 10)
    antideriv_chains(chart, [(scenarios_module._transverse_of_cutoff_times(chart, w), 1)
                             for w in ws], pts, support=CUTOFF_END)
    assert len(tables) == len(blocks) == 6
    assert sum(tables) == 39_936
    assert reads == {(0, 0): 60, (1, 0): 60, (0, 1): 60}
    assert horner == []


def test_reproduction_check_evaluates_each_derivative_once_per_panel(monkeypatch):
    # C3 lists its chains input by input, and a panel's table keeps the
    # derivatives of one input while its integrands follow one another: 25
    # derivatives of the inputs and 30 of rotated levels, each evaluated once at
    # the live positions of its panel, 1,000,800 and 1,492,800 points summed over
    # the blocks (chains interleaved across the inputs would compute them again)
    points = Counter()
    for cls in (Holo1, _ThetaDerivative):
        compute = cls.__dict__["_compute"]
        monkeypatch.setattr(cls, "_compute", lambda self, j, z, shared, cls=cls, compute=compute:
                            points.update({cls: np.size(z)}) or compute(self, j, z, shared))
    check_reproduction(ScenarioConfig("decomposition"))
    assert points == {Holo1: 1_000_800, _ThetaDerivative: 1_492_800}


def test_decomposition_check_evaluates_each_pole_once_per_point_set(c4_work):
    # C4's four inverse-power inputs are each evaluated once per point set swept
    # (the evaluation points with their rotated copies, the norm grid), once for
    # the target and twice for the weighted norms, and the doubling study's input
    # once per grid, every evaluation of derivative order 0 (cutoff * h and its
    # transverse defect read h from one table): each input at exactly the points
    # of a sweep in one block, counted over the blocks
    assert set(c4_work.orders) == {0}
    assert c4_work.poles == C4_POLE_POINTS


@pytest.mark.parametrize("measure", ["decompose-starts", "C4-starts", "C4-poles"])
def test_blocked_work_counts_fail_when_a_point_set_is_swept_twice(c4_work_twice, measure):
    # the control of the three tests above: their pinned work is not that of a
    # blocked run that sweeps one point set twice
    if measure == "decompose-starts":
        with pytest.MonkeyPatch.context() as m:
            m.setattr(flow_module, "_collar_quadrature", _sweep_first_point_set_twice())
            assert _starts(_work(_decompose_one_pole)) != C4_STARTS[:2]
    elif measure == "C4-starts":
        assert _starts(c4_work_twice) != C4_STARTS
    else:
        assert c4_work_twice.poles != C4_POLE_POINTS


def test_blocks_share_one_table_per_panel_and_one_hit_time_pass(monkeypatch, chart):
    # C4's 96 x 192 doubling grid, 16,896 of its 18,432 points swept in 33
    # blocks by one call: the Gauss nodes and the radius table of its one panel
    # are made once for all the blocks, and the hit times taken once, of all
    # the points (once per block as well when each block was a call that made
    # its own)
    calls = Counter()
    for name in ("_panel_nodes", "_radius_scales", "_collar_quadrature"):
        real = getattr(flow_module, name)
        monkeypatch.setattr(flow_module, name, lambda *args, name=name, real=real, **kwargs:
                            calls.update([name]) or real(*args, **kwargs))
    hit_times = []
    hit_time = CollarChart.hit_time
    monkeypatch.setattr(CollarChart, "hit_time",
                        lambda self, p: hit_times.append(np.size(p)) or hit_time(self, p))
    grid = polar_eval_grid(chart.domain, 96, 192, r_inner=0.4).nodes().ravel()
    component_values([Holo1.inverse_power(0.9, 0.75)], (1, 2), chart, grid)
    assert calls == {"_collar_quadrature": 1, "_panel_nodes": 1, "_radius_scales": 1}
    assert hit_times == [18_432]


# tracemalloc peaks, with Python 3.11.7 and numpy 2.4.6, of one default-config
# check_decomposition with the sweeps of pointwise integrands in blocks of at most
# 2**14 node-point pairs: 7.3e6 bytes (11.2e6 in blocks of 2**16, 40.9e6 in
# blocks of 2**19, 113.6e6 when the doubling study's 18,432 points were swept in
# one call, 175.3e6 before the panels shared their factors); of one
# check_reproduction: 4.4e6 bytes (10.1e6 in blocks of 2**16, 24.3e6 in blocks
# of 2**19); and of the order-2 power-expansion identity at its twelve
# points, with each kernel panel's derivative entries summed one at a time
# through one nodes x points buffer and every jet filled in place, and each
# kernel swept only below its support bound: 7.1e6 to 7.8e6 bytes (15.6e6 when
# every kernel swept the whole collar, 22.9e6 with one 128 x 1,035 x 6 buffer of
# every entry, and stacked copies of the leaf jets)
PARENT_C4_PEAK_BYTES = 8.5e6
PARENT_C3_PEAK_BYTES = 5.5e6
IDENTITY_PEAK_BYTES = 9e6
FAMILY_PEAK_BYTES = 6e6


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


def test_reproduction_check_holds_no_more_memory_than_before():
    assert (_traced_peak(lambda: check_reproduction(ScenarioConfig("decomposition")))
            <= PARENT_C3_PEAK_BYTES)


# tracemalloc peaks of one default-config check_ftc and check_hardy, the seeded
# polynomials of each read through their family's monomial table in blocks of at
# most 2**14 node-point pairs: 5.4e6 bytes for C1 with its grids built (4.0e6
# once they are) and 3.6e6 for C2, against 8.5e6 (7.1e6) and 5.4e6 when each
# polynomial went by Horner's rule in blocks of 2**16
SEEDED_C1_PEAK_BYTES = 6e6
SEEDED_C2_PEAK_BYTES = 4.5e6


@pytest.mark.parametrize("check, scenario, bound", [
    (check_ftc, "ftc", SEEDED_C1_PEAK_BYTES), (check_hardy, "hardy", SEEDED_C2_PEAK_BYTES)],
    ids=["C1", "C2"])
def test_seeded_families_hold_no_more_memory_than_before(check, scenario, bound):
    assert _traced_peak(lambda: check(ScenarioConfig(scenario))) <= bound


def test_order_two_identity_holds_no_node_point_entry_array(chart, rng):
    w = Poly2.random(rng, degree=2)
    peak = _traced_peak(lambda: _order_two_identity(chart, lambda p: chart.cutoff(p) * w(p)))
    assert peak <= IDENTITY_PEAK_BYTES


def test_hitting_time_marches_then_bisects_the_crossing_step(monkeypatch, chart):
    # one march and one bisection of the crossing step, for the whole band
    # together: 61 steps of 1/64 until the point at t = 0.95 crosses, then 28
    # halvings of the step's fraction while 2 * half / m_steps > 1e-10
    calls = []
    step = flow_module._rk4_step

    def counted(*args):
        calls.append(1)
        return step(*args)
    monkeypatch.setattr(flow_module, "_rk4_step", counted)
    t = np.linspace(0.05, 0.95, 16)
    flow_module.hitting_time(chart, np.exp(-chart.rate * t + 1j * np.arange(16.0)))
    assert chart.m_steps == 64
    assert len(calls) == 61 + 28


def test_conj_disk_evaluates_no_basis_element(monkeypatch):
    # C5's ten projections take their moments from one table of powers of conj(z)
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
    # one Sobolev ladder of orders 0..2 per projected family, every order from one
    # power table: the 3 conjugate powers on each of 2 grids and the 10 seeded
    # functions, 3 calls for all 48 (input, order) pairs (48 calls of one input
    # and one order each, 96 when each order's norm summed its lower orders again)
    seen = []
    expansions = norms_module._expansions
    monkeypatch.setattr(norms_module, "_expansions", lambda cvs, points, derivs: seen.append(
        (len(cvs), list(derivs))) or expansions(cvs, points, derivs))
    synthesized = _counting(monkeypatch, norms_module, "synthesize")
    check_conj_annulus(ScenarioConfig.from_dict(
        {"scenario": "conj-smoothing", "n_r": 16, "n_theta": 32, "basis_size": 16}))
    assert seen == [(3, [0, 1, 2]), (3, [0, 1, 2]), (10, [0, 1, 2])]
    assert synthesized == []


@pytest.mark.parametrize("check, scenario", [(check_conj_annulus, "conj-smoothing"),
                                             (check_duality, "duality")], ids=["C6", "C8"])
def test_projected_families_hold_little_memory(check, scenario):
    # tracemalloc peaks at the default config, one power table of at most about
    # 1 MB per chunk of nodes: C6 2.5e6 bytes once its grids are built, 4.2e6 in a
    # fresh process (1.1e6 projecting one input at a time, 7.5e6 with one table
    # over all of a grid's nodes), and C8 4.6e6, its Gram matrices read from the
    # power table by chunk (6.5e6 with every element evaluated over all the
    # nodes), both below C7's 14.0e6, which sets the quadrature workload's peak.
    # test_bergman.py pins the chunks themselves
    assert _traced_peak(lambda: check(ScenarioConfig(scenario))) <= FAMILY_PEAK_BYTES
