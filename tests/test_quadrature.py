"""Adaptive integration: frozen values, divergence detection, classifier."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    ClosedFormWeight,
    Exponent,
    IntegrandEvaluationError,
    Interval,
    QuadratureConfig,
    builtin_figure1,
    classify_endpoint_integrability,
    detect_structure,
    FirstPass,
    integrate,
    integrate_ranges,
    weight_from_csv,
)
from degenrelax import degeneracy, quadrature

CFG = QuadratureConfig()


def test_smooth_integral():
    r = integrate(np.sin, 0.0, math.pi, CFG)
    assert r.is_finite
    assert r.value == pytest.approx(2.0, abs=1e-12)


def test_endpoint_singularity_integrable():
    # int_0^1 x^(-1/2) dx = 2, the integrand blows up at the left end
    f = lambda x: np.maximum(x, 1e-300) ** -0.5
    r = integrate(f, 0.0, 1.0, CFG)
    assert r.is_finite
    assert r.value == pytest.approx(2.0, abs=5e-13)


def test_steep_but_integrable_power():
    # x^(-0.9): the graded tail has to supply almost all of the mass
    f = lambda x: np.maximum(x, 1e-300) ** -0.9
    r = integrate(f, 0.0, 1.0, CFG)
    assert r.is_finite
    assert r.value == pytest.approx(10.0, rel=1e-9)


def test_log_singularity():
    f = lambda x: -np.log(np.maximum(x, 1e-300))
    r = integrate(f, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_divergent_inverse_power():
    f = lambda x: np.maximum(x, 1e-300) ** -2.0
    r = integrate(f, 0.0, 1.0, CFG)
    assert r.kind == "divergent"
    assert not r.is_finite


def test_divergent_borderline():
    # 1/x diverges only logarithmically; the trend detector must still fire
    f = lambda x: np.where(x > 0, 1.0 / np.maximum(x, 1e-300), np.inf)
    r = integrate(f, 0.0, 1.0, CFG)
    assert r.kind == "divergent"


def test_interior_singularity_with_hint():
    # |x - 0.3|^(-1/2) is integrable around the interior spike
    f = lambda x: np.maximum(np.abs(x - 0.3), 1e-300) ** -0.5
    r = integrate(f, 0.0, 1.0, CFG, singular=[0.3])
    exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
    assert r.value == pytest.approx(exact, rel=5e-8)


def test_breakpoints_cut_kinks():
    f = lambda x: np.abs(x - 0.5)
    r = integrate(f, 0.0, 1.0, CFG, breakpoints=[0.5])
    assert r.value == pytest.approx(0.25, abs=1e-14)


def test_degenerate_range_rejected():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 1.0, CFG)
    with pytest.raises(ValueError):
        integrate(np.sin, 2.0, 1.0, CFG)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_additivity_at_a_cut(c):
    f = lambda x: np.exp(x) * np.cos(3.0 * x)
    whole = integrate(f, 0.0, 1.0, CFG)
    left = integrate(f, 0.0, c, CFG)
    right = integrate(f, c, 1.0, CFG)
    assert whole.value == pytest.approx(left.value + right.value, abs=1e-10)


@given(st.floats(min_value=-0.95, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_power_mass_matches_closed_form(alpha):
    f = lambda x: np.maximum(x, 1e-300) ** alpha
    r = integrate(f, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(1.0 / (alpha + 1.0), rel=1e-8)


def test_result_arithmetic():
    a = integrate(lambda x: np.ones_like(x), 0.0, 1.0, CFG)
    b = integrate(lambda x: np.maximum(x, 1e-300) ** -1.5, 0.0, 1.0, CFG)
    s = a + b
    assert s.kind == "divergent"
    s2 = a + a
    assert s2.value == pytest.approx(2.0, abs=1e-13)


def test_nan_in_a_walked_level_raises_with_its_location():
    f = lambda x: np.where((x > 0.0) & (x < 1e-6), np.nan, 1.0)
    with pytest.raises(IntegrandEvaluationError) as info:
        integrate(f, 0.0, 1.0, CFG)
    assert 0.0 < info.value.location < 1e-6


def test_nan_beyond_the_early_exit_is_not_reached():
    # the graded run of a constant stops after 48 of its 60 levels; the NaN
    # levels below 1e-16 are evaluated in its batch but never walked
    f = lambda x: np.where(x < 1e-16, np.nan, 1.0)
    r = integrate(f, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(1.0, abs=1e-13)


def _refined_node():
    """Centre node of the first quarter of the middle panel [1/3, 1/2] of
    (0, 1): a refinement round evaluates it, the first pass (both graded
    runs and the two middle panels, one call) does not."""
    lo, hi = 1.0 / 3.0, 0.5
    mid = 0.5 * (lo + hi)
    q1 = 0.5 * (lo + mid)
    return 0.5 * (lo + q1)


def test_undeclared_inf_node_met_in_refinement_is_resolved():
    # f is first evaluated at c by a refinement round, after the first pass
    c = _refined_node()
    hit = []

    def f(x):
        hit.append(bool(np.any(x == c)))
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** -0.5

    r = integrate(f, 0.0, 1.0, CFG)
    assert hit.index(True) >= 1
    assert r.is_finite
    # the actual error, 5.9e-9 relative, exceeds the 4.4e-11 estimate
    assert r.value == pytest.approx(2.0 * (math.sqrt(c) + math.sqrt(1.0 - c)), rel=1e-7)


def _inverse_square(c):
    def f(x):
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** -2.0
    return f


def test_undeclared_non_integrable_node_met_in_refinement_reads_divergent():
    # grading into the inf node that a refinement round meets diverges, and
    # the range is reported as a divergent integral, not raised
    c = _refined_node()
    hit = []

    def f(x):
        hit.append(bool(np.any(x == c)))
        return _inverse_square(c)(x)

    r = integrate(f, 0.0, 1.0, CFG)
    assert hit.index(True) >= 1
    assert r.kind == "divergent"
    assert r.value > 0.0 and math.isnan(r.err_estimate)


def test_undeclared_non_integrable_node_in_the_first_pass_reads_divergent():
    # the same defect on the centre node of a first-pass middle panel,
    # [1/3, 1/2], is reported the same way
    r = integrate(_inverse_square(0.5 * (1.0 / 3.0 + 0.5)), 0.0, 1.0, CFG)
    assert r.kind == "divergent"
    assert r.value > 0.0 and math.isnan(r.err_estimate)


def test_refinement_never_grows_past_max_panels(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 20)
    points = []

    def f(x):
        points.append(x.size)
        return np.abs(np.sin(40.0 * math.pi * x))

    lows, highs = np.array([0.0]), np.array([1.0])
    vals, errs = quadrature._eval_panels(f, lows, highs, CFG)
    points.clear()
    pool = quadrature._Pool(lows, highs, vals, errs)
    (res,) = quadrature._refine([pool], CFG, quadrature._evaluator(lambda x, _: f(x)))
    assert isinstance(res, tuple)
    assert pool.lows.size == 19
    # one panel cannot meet the budget over 40 kinks; each quadrisection adds
    # three panels and evaluates four, and a round takes at most
    # (20 - size) // 3 panels: 1 -> 4 -> 16 -> 19, where none fits
    assert sum(points) == 6 * 4 * 15
    assert 1 + 3 * (sum(points) // 60) == 19


def _same_bits(a, b):
    """Whether two float arrays hold the same values bit for bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _hand_pool(lows, highs, vals, errs):
    return quadrature._Pool(*(np.array(a, dtype=float) for a in (lows, highs, vals, errs)))


def _drive_pools(monkeypatch, f, ranges):
    """integrate_ranges' results, the pools it hands to refinement (lows,
    highs, vals, errs, copied before any round) and every plan made, each
    with a copy of its pool's lows and highs when it was made."""
    pools, plans, refine, plan = [], [], quadrature._refine, quadrature._Pool.plan

    def recording_refine(live, cfg, evaluate):
        pools.extend(tuple(a.copy() for a in (p.lows, p.highs, p.vals, p.errs)) for p in live)
        return refine(live, cfg, evaluate)

    def recording_plan(self, cfg):
        lows, highs = self.lows.copy(), self.highs.copy()
        out = plan(self, cfg)
        plans.append(out and (*out, lows, highs))
        return out

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_refine", recording_refine)
        m.setattr(quadrature._Pool, "plan", recording_plan)
        return integrate_ranges(f, ranges, CFG), pools, plans


def test_first_plan_is_the_cut_and_only_the_first(monkeypatch):
    # the breakpoints cut the first pass: a drive's pool starts cut, and every plan quarters
    f = lambda x, _: np.abs(np.sin(40.0 * math.pi * x))
    _, (bare,), _ = _drive_pools(monkeypatch, f, [(0.0, 1.0, (), ())])
    # 0.5 is a panel end, so it cuts nothing; 0.25 and 0.75 cut one panel each
    _, (pool,), plans = _drive_pools(monkeypatch, f, [(0.0, 1.0, (), [0.25, 0.5, 0.75])])
    assert 0.5 in bare[0] and 0.5 in bare[1]
    hit = np.flatnonzero(((bare[0] < 0.25) & (bare[1] > 0.25))
                         | ((bare[0] < 0.75) & (bare[1] > 0.75)))
    assert hit.size == 2
    # the uncut panels in pool order, then the pieces of each cut panel in order
    lo = [bare[0][hit[0]], 0.25, bare[0][hit[1]], 0.75]
    hi = [0.25, bare[1][hit[0]], 0.75, bare[1][hit[1]]]
    uncut = np.delete(np.arange(bare[0].size), hit)
    assert pool[0].tolist() == bare[0][uncut].tolist() + lo
    assert pool[1].tolist() == bare[1][uncut].tolist() + hi
    vals, errs = quadrature._eval_panels(lambda x: f(x, 0), np.array(lo), np.array(hi), CFG)
    assert _same_bits(pool[2], np.concatenate((bare[2][uncut], vals)))
    assert _same_bits(pool[3], np.concatenate((bare[3][uncut], errs)))
    # every plan quarters picked panels, each replaced by its first quarter
    assert plans[-1] is None and len(plans) > 1
    for drop, lo, hi, lows, highs in plans[:-1]:
        assert drop.dtype != bool and drop.size and lo.size == hi.size == 4 * drop.size
        assert lo[:drop.size].tolist() == lows[drop].tolist()
        assert hi[-drop.size:].tolist() == highs[drop].tolist()
    # breakpoints that cut no panel: the pool is the layout's, and the first plan already quarters
    _, (same,), plans = _drive_pools(monkeypatch, f, [(0.0, 1.0, (), [0.5])])
    assert all(_same_bits(a, b) for a, b in zip(same, bare))
    assert plans[0][0].dtype != bool


@pytest.mark.parametrize("max_panels", [quadrature._MAX_PANELS, 5], ids=["both-picked", "room-1"])
def test_a_pick_too_narrow_to_quarter_is_accepted_and_others_planned(monkeypatch, max_panels):
    # [1, 1 + 2 ulp] has no quarter points at float resolution.  With room for
    # both it is picked with [0, 1]; with room for one (_MAX_PANELS 5) it is
    # picked alone, and the same call picks again
    monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
    pool = _hand_pool([0.0, 1.0], [1.0, 1.0 + 2.0 * np.spacing(1.0)], [1.0, 0.0], [1e-3, 1.0])
    drop, lo, hi = pool.plan(CFG)
    assert pool.errs.tolist() == [1e-3, 0.0]
    assert drop.tolist() == [0]
    assert lo.tolist() == [0.0, 0.25, 0.5, 0.75] and hi.tolist() == [0.25, 0.5, 0.75, 1.0]


def test_plan_is_none_once_the_budget_is_met_or_no_room_is_left(monkeypatch):
    # budget: max(abs_tol * sum |vals|, rel_tol * |sum vals|) = 1e-10
    assert _hand_pool([0.0], [1.0], [1.0], [1e-11]).plan(CFG) is None
    pool = _hand_pool([0.0, 0.5], [0.5, 1.0], [0.5, 0.5], [0.1, 0.1])
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)  # (4 - 2) // 3: no room
    assert pool.plan(CFG) is None
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 5)  # room for one pick
    assert pool.plan(CFG)[0].tolist() == [0]
    # refined to the end, a pool stops planning once its budget is met
    evaluate = quadrature._evaluator(lambda x, _: np.sin(x))
    lows, highs = np.array([0.0]), np.array([math.pi])
    pool = quadrature._Pool(lows, highs, *quadrature._eval_panels(np.sin, lows, highs, CFG))
    pool.errs[:] = 1.0  # far over budget: at least one round
    rounds = 0
    while (plan := pool.plan(CFG)) is not None:
        assert pool.take(plan, evaluate(*plan[1:], np.zeros(plan[1].size, dtype=int)),
                         CFG, evaluate) is None
        rounds += 1
    value, err = pool.total()
    assert rounds and err <= CFG.rel_tol * abs(value) and value == pytest.approx(2.0, abs=1e-12)


def _spike(power):
    """|x - 0.5|^-power, +inf at 0.5: the centre Kronrod node of the panel [0, 1]."""
    def f(x):
        with np.errstate(divide="ignore"):
            return np.abs(x - 0.5) ** -power
    return f


def test_eval_panels_grade_into_an_integrable_inf_node():
    # an isolated inf node on a smooth integrand: graded into, it loses no mass
    g = lambda x: np.where(x == 0.5, math.inf, np.exp(x))
    vals, errs = quadrature._eval_panels(g, np.array([0.0]), np.array([1.0]), CFG)
    assert vals[0] == pytest.approx(integrate(g, 0.0, 1.0, CFG).value, rel=1e-12)
    assert vals[0] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert np.isfinite(errs[0])
    # an integrable power blowup there is graded into from both sides
    vals, _ = quadrature._eval_panels(_spike(0.5), np.array([0.0]), np.array([1.0]), CFG)
    assert vals[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-8)


def test_eval_panels_read_inf_where_not_locally_integrable():
    vals, _ = quadrature._eval_panels(_spike(1.5), np.array([0.0, 0.0]), np.array([1.0, 0.25]),
                                      CFG)
    assert vals[0] == math.inf
    assert vals[1] == pytest.approx(2.0 * (4.0 ** 0.5 - 2.0 ** 0.5), rel=1e-12)


def test_eval_panels_raise_on_a_nan_node():
    f = lambda x: np.where(x == 0.5, math.nan, 1.0)
    with pytest.raises(IntegrandEvaluationError) as err:
        quadrature._eval_panels(f, np.array([0.0]), np.array([1.0]), CFG)
    assert err.value.location == 0.5
    assert str(err.value) == "integrand is NaN at x=0.5"


def test_a_nan_met_grading_into_an_inf_node_raises_there():
    # f(c) = inf at the first-pass node c nearest 5/12, and f is NaN within
    # 1e-4 of c: the graded runs into c meet the NaN, and that NaN raises
    # (not the inf node, and not a divergence)
    xs, _ = FirstPass([(0.0, 1.0, ())]).nodes()
    c = xs[np.argmin(np.abs(xs - 5.0 / 12.0))]

    def f(x):
        d = np.abs(x - c)
        with np.errstate(divide="ignore"):
            out = d ** -0.5
        out[(d > 0.0) & (d < 1e-4)] = math.nan
        return out

    for run in (lambda: integrate(f, 0.0, 1.0, CFG),
                lambda: quadrature._eval_panels(f, np.array([1 / 3]), np.array([1 / 2]), CFG)):
        with pytest.raises(IntegrandEvaluationError) as err:
            run()
        assert 0.0 < abs(err.value.location - c) < 1e-4
        assert str(err.value).startswith("integrand is NaN at x=0.41656844")


def test_repeated_calls_are_bit_identical():
    f = lambda x: np.abs(np.sin(40.0 * math.pi * x)) + np.maximum(x, 1e-300) ** -0.5
    a = integrate(f, 0.0, 1.0, CFG, breakpoints=[0.3])
    b = integrate(f, 0.0, 1.0, CFG, breakpoints=[0.3])
    assert (a.kind, a.value, a.err_estimate) == (b.kind, b.value, b.err_estimate)


def test_undeclared_kinks_take_few_integrand_calls():
    # 40 undeclared kinks: refinement splits many panels per batched round
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return np.abs(np.sin(40.0 * math.pi * x))

    r = integrate(f, 0.0, 1.0, CFG)
    assert abs(r.value - 2.0 / math.pi) <= 1e-10
    assert calls <= 40


def _bits(r):
    return r.kind, r.value.hex(), r.err_estimate.hex()


def _per_range(funcs):
    """f(x, index) that evaluates range k's integrand on the nodes of range k."""
    def f(x, index):
        out = np.empty(x.shape)
        for k, fk in enumerate(funcs):
            m = index == k
            if m.any():
                out[m] = fk(x[m])
        return out
    return f


def _counted(f):
    """f and a one-element list that counts its calls."""
    calls = [0]

    def g(*args):
        calls[0] += 1
        return f(*args)
    return g, calls


def test_breakpoint_in_a_graded_level_is_honored():
    # 0.1 lies in the left graded run, outside the middle third
    f, calls = _counted(lambda x: np.abs(x - 0.1))
    r = integrate(f, 0.0, 1.0, CFG, breakpoints=[0.1])
    assert abs(r.value - 0.41) <= 1e-14
    assert calls[0] <= 3


def test_breakpoint_is_honored_in_lockstep():
    kink = lambda x: np.abs(x - 0.1)
    smooth = lambda x: np.exp(-x)
    ranges = [(0.0, 1.0, (), [0.1]), (1.0, 2.0, (), ())]
    f, calls = _counted(_per_range([kink, smooth]))
    together = integrate_ranges(f, ranges, CFG)
    assert abs(together[0].value - 0.41) <= 1e-14
    assert calls[0] <= 3
    alone = [integrate(kink, 0.0, 1.0, CFG, breakpoints=[0.1]),
             integrate(smooth, 1.0, 2.0, CFG)]
    assert [_bits(r) for r in together] == [_bits(r) for r in alone]


def test_first_request_holds_the_cut_pieces():
    # breakpoints cut the first pass in its own request: with 8,000 of them
    # in one range it holds the layout's panels and every piece, in calls of
    # at most _MAX_REQUEST panels, and the results are each range's alone
    cuts = np.linspace(0.0, 1.0, 8002)[1:-1]
    humps = lambda x: np.abs(np.sin(8001.0 * math.pi * x))  # kinks at the cuts
    smooth = lambda x: np.exp(-x)
    first = []
    for bp in ((), cuts):
        ranges, sizes = [(0.0, 1.0, (), bp), (1.0, 2.0, (), ())], []

        def f(x, index):
            sizes.append(x.size)
            return _per_range([humps, smooth])(x, index)

        together = integrate_ranges(f, ranges, CFG)
        layout = FirstPass(ranges)
        n = layout.nodes()[0].size
        assert np.cumsum(sizes).tolist().count(n) == 1
        assert max(sizes) <= 15 * quadrature._MAX_REQUEST
        first.append((n, layout.pieces[0].size))
        alone = [integrate(humps, 0.0, 1.0, CFG, breakpoints=bp),
                 integrate(smooth, 1.0, 2.0, CFG)]
        assert [_bits(r) for r in together] == [_bits(r) for r in alone]
    assert first[0][1] == 0 and first[1][1] > cuts.size
    assert first[1][0] == first[0][0] + 15 * first[1][1] > 15 * quadrature._MAX_REQUEST
    assert together[0].value == pytest.approx(2.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("z", [0.3, 0.45])
def test_undeclared_power_kink_takes_few_calls(z):
    f, calls = _counted(lambda x: np.abs(x - z) ** 1.5)
    r = integrate(f, 0.0, 1.0, CFG)
    exact = (z ** 2.5 + (1.0 - z) ** 2.5) / 2.5
    assert abs(r.value - exact) <= 1e-10
    assert calls[0] <= 6


def _inv_sqrt(c):
    def f(x):
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** -0.5
    return f


def test_ranges_match_one_range_integrals_bit_for_bit():
    funcs, ranges = [], []

    def add(f, a, b, singular=(), breakpoints=()):
        funcs.append(f)
        ranges.append((a, b, singular, breakpoints))

    # an undeclared inf node first met in a refinement round
    add(_inv_sqrt(_refined_node()), 0.0, 1.0)
    # touching ranges on both sides of 0 and 1: an endpoint blowup, a
    # singular hint with a breakpoint, and 40 undeclared kinks
    add(lambda x: np.maximum(np.abs(x), 1e-300) ** -0.9, -1.0, 0.0)
    add(lambda x: np.maximum(np.abs(x - 1.5), 1e-300) ** -0.5 + np.abs(x - 1.25),
        1.0, 2.0, [1.5], [1.25])
    add(lambda x: np.abs(np.sin(40.0 * math.pi * x)), 2.0, 3.0)
    # divergent at the left end, and at a singular point in the second gap
    add(lambda x: np.maximum(x - 3.0, 1e-300) ** -2.0, 3.0, 4.0)
    add(lambda x: np.maximum(np.abs(x - 4.5), 1e-300) ** -1.5 + 1.0, 4.0, 5.0, [4.25, 4.5])
    together = integrate_ranges(_per_range(funcs), ranges, CFG)
    alone = [integrate(f, a, b, CFG, singular=s, breakpoints=bp)
             for f, (a, b, s, bp) in zip(funcs, ranges)]
    assert [_bits(r) for r in together] == [_bits(r) for r in alone]
    assert [r.kind for r in alone].count("divergent") == 2


def test_first_range_to_raise_wins():
    # range 0 meets its NaN node only in a refinement round; range 1 meets
    # its NaN levels in the first pass, one step earlier
    c = _refined_node()
    nan_at_c = lambda x: np.where(x == c, np.nan, 1.0)
    nan_near_1 = lambda x: np.where((x > 1.0) & (x < 1.0 + 1e-6), np.nan, 1.0)
    sharp = lambda x: nan_at_c(x) * np.abs(np.sin(40.0 * math.pi * x))
    ranges = [(0.0, 1.0, (), ()), (1.0, 2.0, (), ())]
    with pytest.raises(IntegrandEvaluationError) as first:
        integrate(sharp, 0.0, 1.0, CFG)
    assert first.value.location == c
    with pytest.raises(IntegrandEvaluationError) as info:
        integrate_ranges(_per_range([sharp, nan_near_1]), ranges, CFG)
    assert info.value.location == c
    with pytest.raises(IntegrandEvaluationError) as info:
        integrate_ranges(_per_range([nan_near_1, sharp]), ranges[::-1], CFG)
    assert 1.0 < info.value.location < 1.0 + 1e-6
    # a bad range raises only when no range before it does
    with pytest.raises(IntegrandEvaluationError):
        integrate_ranges(_per_range([sharp, sharp]), ranges[:1] + [(2.0, 2.0, (), ())], CFG)
    with pytest.raises(ValueError):
        integrate_ranges(lambda x, _: np.ones_like(x), [(0.0, 1.0, (), ()), (2.0, 2.0, (), ())], CFG)


def _classify(w, p, z, far):
    """The classifier on the exponent and rule that degeneracy finds for that side."""
    side = 1 if far > z else -1
    alpha, rule = degeneracy.side_exponent_rule(w, p, z, side, abs(far - z))
    return classify_endpoint_integrability(w, p, z, far, alpha, rule, CFG)


def test_classifier_rejects_an_empty_span():
    with pytest.raises(ValueError, match="need z != far"):
        classify_endpoint_integrability(builtin_figure1(), Exponent(2.0), 1.0, 1.0, 2.0,
                                        "exact-exponent", CFG)


def test_classifier_exact_rule_on_figure1():
    w = builtin_figure1()
    p = Exponent(2.0)
    cls = _classify(w, p, 1.0, 0.0)
    assert not cls.integrable and cls.rule == "exact-exponent"
    assert cls.local_exponent == 2.0
    cls = _classify(w, p, 2.0, 1.5)
    assert cls.integrable and cls.value > 0.0


def test_classifier_threshold_sides():
    # alpha_p = alpha/(p-1): 2/(3-1) = 1 sits exactly on the threshold, and
    # the exact rule calls it divergent (log case); p = 4 drops below
    w = builtin_figure1()
    c3 = _classify(w, Exponent(3.0), 1.0, 0.0)
    assert not c3.integrable
    c4 = _classify(w, Exponent(4.0), 1.0, 0.0)
    assert c4.integrable and math.isfinite(c4.value)


def test_the_graded_trend_overrules_a_fit_that_says_integrable():
    # sqrt(x) above 1e-6, a cube below: the probes fit an exponent near 0.5,
    # so alpha/(p - 1) < 1 says sigma is integrable at 0, but sigma ~ x^-3
    # at the end diverges and the value integral's trend says so
    def fn(x):
        return np.where(x > 1e-6, np.sqrt(np.maximum(x, 0.0)), 1e-3 * (x / 1e-6) ** 3)

    w = ClosedFormWeight(fn=fn, domain=Interval(0.0, 1.0))  # no metadata: the exponent is fit
    p = Exponent(2.0)
    for cls in (_classify(w, p, 0.0, 1.0),
                detect_structure(w, p, CFG).intervals[0].lo_class):
        assert (cls.integrable, cls.value, cls.rule) == (False, math.inf, "numeric-trend")
        assert 0.5 < cls.local_exponent < 0.6 and p.alpha_p(cls.local_exponent) < 1.0


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_a_tolerance_must_be_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
        QuadratureConfig(**{field: value})
    assert getattr(QuadratureConfig(**{field: 0.0}), field) == 0.0


def test_grid_weight_off_threshold_classifies_cleanly(tmp_path):
    # sampled |x| at p = 3 estimates alpha_p near 1/2, far from the guard band
    # (at p = 2 it raises: test_degeneracy's test_grid_weight_near_threshold_is_indeterminate)
    path = tmp_path / "absx.csv"
    xs = np.linspace(-1.0, 1.0, 2001)
    with open(path, "w") as fh:
        fh.write("x,w\n")
        for x in xs:
            fh.write(f"{x:.17g},{abs(x):.17g}\n")
    w = weight_from_csv(str(path))
    cls = _classify(w, Exponent(3.0), 0.0, 1.0)
    assert cls.integrable
    assert cls.value == pytest.approx(2.0, rel=5e-3)  # int_0^1 x^(-1/2)


# ---------------------------------------------------------------------------
# the array walker against the scalar walk it replaced


def _ref_tail(values, cfg):
    """The scalar geometric tail: (tail, tail_err, divergent)."""
    mags = np.abs(np.array(values, dtype=float))
    mags = mags[mags > 0.0]
    mass = float(mags.sum())
    if mags.size < 3 or mags[-1] <= 10.0 * cfg.abs_tol * mass:
        return 0.0, 0.0, False

    def fit(n):
        seg = mags[-n:]
        return float(np.exp(np.mean(np.log(seg[1:] / seg[:-1]))))

    rho_a = fit(min(8, mags.size))
    if rho_a >= 1.0 - 1e-3:
        return 0.0, 0.0, True
    rho_b = fit(min(4, mags.size))
    last_v = values[-1]
    sgn = math.copysign(1.0, last_v) if last_v != 0.0 else 1.0
    t_a = mags[-1] * rho_a / (1.0 - rho_a)
    t_b = mags[-1] * rho_b / (1.0 - rho_b) if rho_b < 1.0 else 2.0 * t_a
    return sgn * t_a, abs(t_a - t_b) + cfg.abs_tol * mass, False


def _ref_walk(vals, bad_at, nan_at, cfg, resolve, depth):
    """The scalar level walk of one graded run, outermost level first:
    (levels walked, divergent, partial, tail, tail_err).

    Blocks of eight levels; a NaN raises, and an inf level is resolved by
    resolve(bad node) -> (value, err, converged), only in a block the walk
    reaches.  A resolution's own run (depth > 0) whose outermost level is
    not finite diverges at once.
    """
    vals = list(vals)
    contribs = []
    divergent = False
    partial = mass = 0.0
    win = quadrature._TREND_WINDOW
    for start in range(0, len(vals), 8):
        stop = min(start + 8, len(vals))
        for j in range(start, stop):
            if not math.isnan(nan_at[j]):
                raise IntegrandEvaluationError("NaN", location=nan_at[j])
        for i in range(start, stop):
            v = vals[i]
            if not math.isnan(bad_at[i]):
                v, _, ok = (0.0, math.inf, False) if depth and i == 0 else resolve(bad_at[i])
                if not ok:
                    partial += v
                    divergent = True
                    break
                vals[i] = v
            contribs.append(abs(v))
            partial += v
            mass += abs(v)
            if abs(partial) > quadrature._DIVERGENCE_CAP:
                divergent = True
                break
            if len(contribs) > win and contribs[-1] > 10.0 * cfg.abs_tol * mass:
                recent = contribs[-(win + 1):]
                if all(a > 0.0 and b >= a * (1.0 - 1e-10) for a, b in zip(recent, recent[1:])):
                    divergent = True
                    break
        if divergent:
            break
        if len(contribs) >= 4:
            budget = max(cfg.abs_tol * mass, cfg.rel_tol * abs(partial))
            if contribs[-1] < 1e-3 * budget and contribs[-1] < contribs[-2] < contribs[-3]:
                break
    n = len(contribs)
    tail = tail_err = 0.0
    if not divergent and n:
        tail, tail_err, divergent = _ref_tail(vals[:n], cfg)
    return n, divergent, partial, tail, tail_err


def _random_rows(rng, count, kinds):
    """Level rows of random kinds and lengths 3..61, each with its own
    bad-node and NaN-node columns (NaN where the level is finite), and the
    resolution of each inf level: bad node -> (value, err, converged, nested NaN)."""
    rows, resolutions = [], {}
    for r in range(count):
        size = int(rng.integers(3, 62))
        kind = kinds[r % len(kinds)]
        k = np.arange(size)
        scale = 10.0 ** rng.uniform(-8, 8) * rng.choice([-1.0, 1.0])
        if kind == "decay":
            vals = scale * rng.uniform(0.2, 0.9) ** k * (1.0 + 0.05 * rng.standard_normal(size))
        elif kind == "power":  # a blowup: levels decay slowly or not at all
            vals = scale * rng.uniform(0.9, 1.02) ** k
        elif kind == "plateau":
            vals = scale * 0.5 ** np.minimum(k, rng.integers(0, 30))
        elif kind == "dead":  # zero levels first (all of them, now and then)
            vals = np.where(k < rng.integers(1, size + 2), 0.0 * scale, scale * 0.6 ** k)
        elif kind == "creep":  # magnitudes falling by less or more than the 1e-10 slack
            vals = scale * (1.0 - rng.choice([3e-11, 3e-10])) ** k
        else:  # oscillating
            vals = scale * 0.7 ** k * np.cos(k * rng.uniform(0.5, 3.0))
        bad = np.full(size, np.nan)
        nan = np.full(size, np.nan)
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(0, size))
            loc = 1000.0 * r + i + 0.5
            bad[i] = loc
            vals[i] = math.inf
            if rng.random() < 0.35:
                nan[i] = loc
                vals[i] = math.nan
            else:
                pick = rng.random()
                resolutions[loc] = (float(scale * rng.uniform(0.0, 1.0) * 0.5 ** i), 1e-12,
                                    pick > 0.2, 0.25 + loc if pick < 0.05 else math.nan)
        rows.append((vals, bad, nan))
    return rows, resolutions


def _array_walk(rows, resolutions, cfg, depth, monkeypatch):
    """The array walker over the rows at once, inf levels resolved from the table."""
    m = max(v.size for v, _, _ in rows)

    def pad(a, fill):
        return np.array([np.concatenate((x, np.full(m - x.size, fill))) for x in a])

    def resolve(lo, hi, bad, owner, depth, cfg, evaluate):
        out = [resolutions[b] for b in bad.tolist()]
        return tuple(np.array(col) for col in zip(*out))

    monkeypatch.setattr(quadrature, "_resolve", resolve)
    vals = pad([v for v, _, _ in rows], 0.0)
    bad = pad([b for _, b, _ in rows], np.nan)
    size = np.array([v.size for v, _, _ in rows])
    runs = SimpleNamespace(vals=vals, errs=np.zeros(vals.shape), size=size,
                           live=np.arange(m) < size[:, None], lows=vals, highs=vals,
                           owner=np.zeros(len(rows), dtype=int),
                           bad_at=bad if not np.isnan(bad).all() else None,
                           nan_at=pad([nn for _, _, nn in rows], np.nan))
    quadrature._walk(runs, depth, cfg, None)
    return runs


def _compare_walks(rows, resolutions, cfg, depth, monkeypatch):
    """Walk the rows with the array walker and each with the scalar walk;
    assert equal outcomes and return each row's kind of outcome."""
    runs = _array_walk(rows, resolutions, cfg, depth, monkeypatch)

    def resolve(b):
        v, e, ok, nested = resolutions[b]
        if not math.isnan(nested):
            raise IntegrandEvaluationError("NaN", location=nested)
        return v, e, ok

    outcomes = []
    for r, (vals, bad, nan) in enumerate(rows):
        try:
            want = _ref_walk(vals, bad, nan, cfg, resolve, depth)
        except IntegrandEvaluationError as exc:
            assert runs.raise_at[r] == exc.location
            outcomes.append("raise")
            continue
        assert math.isnan(runs.raise_at[r])
        got = (int(runs.n[r]), bool(runs.divergent[r]), float(runs.partial[r]),
               float(runs.tail[r]), float(runs.tail_err[r]))
        assert got == want
        assert [x.hex() for x in got[2:]] == [x.hex() for x in want[2:]]  # signed zeros too
        outcomes.append("divergent" if want[1] else "tail" if want[3] else "finite")
    return outcomes


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("seed", range(6))
def test_array_walk_matches_the_scalar_walk(seed, depth, monkeypatch):
    rng = np.random.default_rng(seed)
    if seed == 5:  # a low overflow guard, which both walks read from the module
        monkeypatch.setattr(quadrature, "_DIVERGENCE_CAP", 1e6)
    kinds = ["decay", "power", "plateau", "dead", "creep", "wave"]
    rows, resolutions = _random_rows(rng, 48, kinds)
    if seed % 2:  # every level finite: the walker's plain pass
        rows = [(np.nan_to_num(v, nan=1.0, posinf=1.0), np.full(v.size, np.nan),
                 np.full(v.size, np.nan)) for v, _, _ in rows]
    # signed zeros: walked levels that are all -0.0, a last walked level of
    # -0.0 under a fitted tail, and only two positive levels (no fit)
    for vals in (np.full(5, -0.0), np.append(0.9 ** np.arange(19), -0.0),
                 np.concatenate(([1.0, 0.5], np.zeros(10)))):
        rows.append((vals, np.full(vals.size, np.nan), np.full(vals.size, np.nan)))
    outcomes = _compare_walks(rows, resolutions, CFG, depth, monkeypatch)
    assert set(outcomes) >= {"divergent", "tail"}
    # and a walk in which every run has a fitted tail
    fitted = [row for row, kind in zip(rows, outcomes) if kind == "tail"]
    assert set(_compare_walks(fitted, resolutions, CFG, depth, monkeypatch)) == {"tail"}


def test_array_walk_reads_a_nan_only_in_a_reached_block(monkeypatch):
    # a NaN in the block after an early exit is never read; one in the block
    # where a divergence fires is, since blocks are checked before walking
    size = 61
    rows = []
    for vals, level in ((0.5 ** np.arange(size), 56), (0.5 ** np.arange(size), 44),
                        (np.ones(size), 15), (np.ones(size), 9)):
        nan = np.where(np.arange(size) == level, 7.0 + level, np.nan)
        rows.append((np.where(np.isnan(nan), vals, np.nan), nan, nan))
    runs = _array_walk(rows, {}, CFG, 0, monkeypatch)
    assert _ref_walk(*rows[0], CFG, None, 0)[0] == runs.n[0] == 48
    assert math.isnan(runs.raise_at[0])
    for r in (1, 2, 3):
        with pytest.raises(IntegrandEvaluationError) as info:
            _ref_walk(*rows[r], CFG, None, 0)
        assert runs.raise_at[r] == info.value.location == 7.0 + (44, 15, 9)[r - 1]


def test_ranges_in_one_call_match_integrate_alone():
    rng = np.random.default_rng(11)
    funcs, ranges = [], []
    for k in range(9):
        a = float(k)
        b = a + float(rng.uniform(0.5, 2.0))
        z = float(rng.uniform(a, b))
        cuts = sorted(rng.uniform(a, b, int(rng.integers(0, 6))).tolist())
        s = float(rng.uniform(-1.5, 1.2))
        family = k % 3
        if family == 0:  # endpoint power, convergent or not
            fk = (lambda x, a=a, s=s: np.maximum(x - a, 1e-300) ** s)
        elif family == 1:  # kinks at the breakpoints
            fk = (lambda x, cuts=cuts: np.abs(np.sin(3.0 * x)) + sum(np.abs(x - c) for c in cuts))
        else:  # an interior blowup with its hint
            fk = (lambda x, z=z, s=s: np.maximum(np.abs(x - z), 1e-300) ** min(s, 0.5) + x)
        funcs.append(fk)
        ranges.append((a, b, [z] if family == 2 else [], cuts))
    together = integrate_ranges(_per_range(funcs), ranges, CFG)
    alone = [integrate(fk, a, b, CFG, singular=sg, breakpoints=bp)
             for fk, (a, b, sg, bp) in zip(funcs, ranges)]
    assert [_bits(r) for r in together] == [_bits(r) for r in alone]
    assert {r.kind for r in alone} == {"finite", "divergent"}


def _graded_node(anchor, outer, level, j):
    """Kronrod node j of level `level` of the graded run from `outer` toward
    `anchor` (the first pass evaluates it)."""
    d = abs(outer - anchor) * 0.5 ** np.arange(level, level + 2)
    lo, hi = sorted(anchor + math.copysign(1.0, outer - anchor) * d)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * quadrature._NODES[j]


def test_inf_node_in_a_graded_level_of_a_later_gap_is_resolved():
    # two gaps, the blowup on a Gauss node of the first pass's run from 2
    # toward 1.5; its resolved value and error must reach the refined pool
    c = _graded_node(2.0, 2.0 - 0.5 / 3.0, 3, 3)
    hit = []

    def f(x):
        hit.append(bool(np.any(x == c)))
        return _inv_sqrt(c)(x)

    r = integrate(f, 1.0, 2.0, CFG, singular=[1.5])
    assert hit[0]
    exact = 2.0 * (math.sqrt(c - 1.0) + math.sqrt(2.0 - c))
    assert r.is_finite and math.isfinite(r.err_estimate)
    assert r.value == pytest.approx(exact, rel=1e-7)
    together = integrate_ranges(_per_range([_inv_sqrt(0.5), f]),
                                [(0.0, 1.0, (), ()), (1.0, 2.0, [1.5], ())], CFG)
    assert _bits(together[1]) == _bits(r)


def _evaluator_case(n):
    """n panels over ranges 0..4, and an integrand with one inf node and one
    NaN node, both in the last panel (the last block of a capped request)."""
    rng = np.random.default_rng(n)
    lows = np.sort(rng.uniform(0.0, 1.0, n))
    highs = lows + rng.uniform(1e-6, 1e-2, n)
    owner = rng.integers(0, 5, n)
    half = 0.5 * (highs - lows)
    nodes = (0.5 * (lows + highs))[:, None] + half[:, None] * quadrature._NODES
    at_inf, at_nan = float(nodes[-1, 3]), float(nodes[-1, 9])
    calls = []

    def f(x, index):
        calls.append(x.size)
        with np.errstate(divide="ignore"):
            out = np.sin(7.0 * x * (index + 1.0)) + np.abs(x - at_inf) ** -0.5
        return np.where(x == at_nan, math.nan, out)

    return lows, highs, owner, f, calls, (at_inf, at_nan)


def _hex(a):
    return [float(v).hex() for v in np.asarray(a, dtype=float)]


@pytest.mark.parametrize("n", [1, quadrature._MAX_REQUEST - 1, quadrature._MAX_REQUEST,
                               quadrature._MAX_REQUEST + 1, 3 * quadrature._MAX_REQUEST + 7])
def test_capped_requests_change_no_bit(n, monkeypatch):
    cap = quadrature._MAX_REQUEST
    lows, highs, owner, f, calls, (at_inf, at_nan) = _evaluator_case(n)
    got = quadrature._evaluator(f)(lows, highs, owner)
    assert calls == [15 * min(cap, n - k) for k in range(0, n, cap)]
    monkeypatch.setattr(quadrature, "_MAX_REQUEST", 10 * n)
    want = quadrature._evaluator(f)(lows, highs, owner)
    assert len(calls) == -(-n // cap) + 1
    for g, w in zip(got, want):
        assert _hex(g) == _hex(w)
    # the inf and the NaN node, met in the last block alone, are found
    assert got[2][-1] == at_inf and got[3][-1] == at_nan
    assert np.isnan(got[2][:-1]).all() and np.isnan(got[3][:-1]).all()


@pytest.mark.parametrize("capped", [True, False])
def test_capped_panels_meet_a_late_nan_and_inf_node(capped, monkeypatch):
    n = 3 * quadrature._MAX_REQUEST + 7
    if not capped:
        monkeypatch.setattr(quadrature, "_MAX_REQUEST", n)
    lows, highs, _, f, calls, (at_inf, at_nan) = _evaluator_case(n)
    with pytest.raises(IntegrandEvaluationError) as info:
        quadrature._eval_panels(lambda x: f(x, 0), lows, highs, CFG)
    assert str(info.value) == f"integrand is NaN at x={at_nan!r}"
    assert len(calls) == (4 if capped else 1)
    # without the NaN, the inf node (an integrable blowup) is graded into,
    # as it is in that panel alone
    g = lambda x: np.nan_to_num(f(x, 0), nan=1.0, posinf=math.inf)
    vals, errs = quadrature._eval_panels(g, lows, highs, CFG)
    alone = quadrature._eval_panels(g, lows[-1:], highs[-1:], CFG)
    assert _hex(vals[-1:]) == _hex(alone[0]) and _hex(errs[-1:]) == _hex(alone[1])
    assert np.isfinite(vals).all()


def test_steep_power_from_1e_3_is_finite():
    r = integrate(lambda x: 1.0 / x ** 2, 1e-3, 0.5, CFG)
    assert r.is_finite
    assert r.value == pytest.approx(998.0, rel=1e-14)


@pytest.mark.parametrize("c", [1e-323, 1e-322])
@pytest.mark.parametrize("s", [0.9, 0.99])
def test_subnormal_levels_show_no_trend(c, s):
    # c |x|^-s has the finite integral c / (1 - s); its graded levels are
    # subnormal, and rounding to multiples of 5e-324 stops them decaying
    r = integrate(lambda x: c * np.abs(x) ** -s, 0.0, 1.0, CFG)
    assert r.is_finite and 0.0 < r.value <= c / (1.0 - s)


@pytest.mark.xfail(strict=True, reason="a steep but finite integrand near a range end reads "
                   "divergent: partial sum 5507.8 (ROADMAP item 3)")
def test_steep_power_from_1e_4_is_finite():
    r = integrate(lambda x: 1.0 / x ** 2, 1e-4, 0.5, CFG)
    assert r.is_finite
    assert r.value == pytest.approx(9998.0, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "1/(x |log x|) diverges at 0 like log log, too slowly for the trend test: it "
    "reads finite 5.0710, estimate 0.033 (ROADMAP item 3)"))
def test_a_log_corrected_divergence_reads_divergent():
    r = integrate(lambda x: 1.0 / (x * np.abs(np.log(x))), 0.0, 0.5, CFG)
    assert not r.is_finite


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "x^-0.999 converges, but its graded levels decay by 2^-0.001 per level: it reads "
    "divergent, partial sum 40.66 (ROADMAP item 3)"))
def test_a_power_just_below_the_threshold_is_finite():
    r = integrate(lambda x: x ** -0.999, 0.0, 0.5, CFG)
    assert r.is_finite
    assert r.value == pytest.approx(2.0 ** -0.001 / 0.001, rel=1e-6)  # 999.307


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "1/(x log^2 x) reads 1.43041 against 1/ln 2 = 1.44270, with an estimate of 3.9e-4 "
    "below the error of 1.2e-2 (ROADMAP item 3)"))
def test_a_log_corrected_integral_estimate_bounds_its_error():
    r = integrate(lambda x: 1.0 / (x * np.log(x) ** 2), 0.0, 0.5, CFG)
    assert r.is_finite
    assert r.err_estimate >= abs(r.value - 1.0 / math.log(2.0))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "an undeclared interior singularity: estimate 2.2e-10 against an actual error of "
    "6.3e-8 (ROADMAP item 3, FOUND in CHANGES.md)"))
def test_an_undeclared_singularity_estimate_bounds_its_error():
    c = 5.0 / 12.0
    with np.errstate(divide="ignore"):  # a refinement node lands on c: inf, graded into
        r = integrate(lambda x: np.abs(x - c) ** -0.5, 0.0, 1.0, CFG)
    assert r.is_finite
    assert r.err_estimate >= abs(r.value - 2.0 * (math.sqrt(c) + math.sqrt(1.0 - c)))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the 15-digit Gauss-Kronrod table integrates x^k off by up to 6.0e-15 (Kronrod) "
    "and 1.2e-15 (Gauss) (ROADMAP item 26)"))
@pytest.mark.parametrize("weights, degree", [(quadrature._WK, 22), (quadrature._WG, 13)],
                         ids=["kronrod", "gauss"])
def test_the_rule_table_integrates_its_degree_exactly(weights, degree):
    # the table's floats taken exactly: each error is of the table alone
    nodes = [Fraction(float(x)) for x in quadrature._NODES]
    ws = [Fraction(float(v)) for v in weights]
    for k in range(degree + 1):
        exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
        assert abs(float(sum(v * x ** k for v, x in zip(ws, nodes)) - exact)) <= 2e-16, k


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the truncated table biases every integral by about -3e-15: 1 over (0, 1) is off "
    "5.3e-15, estimate 3.5e-15 (ROADMAP item 26)"))
def test_a_smooth_integral_estimate_bounds_its_error():
    r = integrate(lambda x: np.ones_like(x), 0.0, 1.0, CFG)
    assert r.err_estimate >= abs(r.value - 1.0)


def _recording(f):
    """f(x, index[, inputs]) and the list of (x, index[, inputs]) of every call it gets."""
    calls = []

    def g(x, index, *inputs):
        calls.append((np.array(x), np.array(index), *(np.array(v) for v in inputs)))
        return f(x, index, *inputs)
    return g, calls


def _first_pass_calls(calls, n):
    """The leading recorded calls that hold n nodes, concatenated."""
    sizes = np.cumsum([x.size for x, _ in calls])
    k = int(np.searchsorted(sizes, n)) + 1
    assert sizes[k - 1] == n
    return (np.concatenate([x for x, _ in calls[:k]]),
            np.concatenate([i for _, i in calls[:k]]), k)


_SINGULAR_RANGES = [(0.0, 1.0, [0.3, 0.7], [0.1, 0.5]), (1.0, 2.0, (), [1.25]),
                    (-3.0, -2.5, [-2.75], ())]


def _smooth(x, index):
    return np.exp(-x) * (1.0 + index) + np.abs(x - 0.5)


@pytest.mark.parametrize("ranges", [_SINGULAR_RANGES,
                                    [(float(k), k + 1.0, (), [k + 0.3]) for k in range(12)]])
def test_first_pass_nodes_are_the_first_request(ranges):
    layout = FirstPass(ranges)
    x, index = layout.nodes()
    for given in (ranges, layout):  # laid out by the drive, or handed to it
        f, calls = _recording(_smooth)
        integrate_ranges(f, given, CFG)
        got_x, got_index, k = _first_pass_calls(calls, x.size)
        assert np.array_equal(got_x, x) and np.array_equal(got_index, index)
    # the first request is split at _MAX_REQUEST panels, and only there
    assert k == -(-x.size // (15 * quadrature._MAX_REQUEST))
    if len(ranges) > 10:
        assert k > 1
    # breakpoints move no layout node: each range's first-pass nodes are
    # those of the range without breakpoints, then those of its pieces
    bare = [(a, b, s) for a, b, s, _ in ranges]
    px, pindex = layout.nodes(pieces=True)
    assert px.size
    for k, r in enumerate(bare):
        own = np.concatenate((FirstPass([r]).nodes()[0], px[pindex == k]))
        assert np.array_equal(x[index == k], own)
    # the ranges without breakpoints are their own FirstPass's first request
    f, calls = _recording(_smooth)
    integrate_ranges(f, FirstPass(bare), CFG)
    x0, _ = FirstPass(bare).nodes()
    assert np.array_equal(_first_pass_calls(calls, x0.size)[0], x0)


def _per_range_inputs(ranges, g, given):
    """integrate_ranges' inputs: g(x) at each first-pass node of range k for
    k in `given`, None for the others."""
    x, index = FirstPass(ranges).nodes()
    for k, r in enumerate(ranges):  # a range's nodes are the same alone as among others
        assert np.array_equal(FirstPass([r]).nodes()[0], x[index == k])
    return [g(x[index == k]) if k in given else None for k in range(len(ranges))]


def _factored(x, index, factor=None):
    """_smooth with its kink moved to 0.45, inside a first-pass panel that no
    breakpoint cuts (so the drives refine), its factor exp(-x) read from
    `factor` where that is given (not NaN)."""
    e = np.exp(-x)
    if factor is not None:
        e = np.where(np.isnan(factor), e, factor)
    return e * (1.0 + index) + np.abs(x - 0.45)


@pytest.mark.parametrize("ranges", [_SINGULAR_RANGES,
                                    [(float(k), k + 1.0, (), [k + 0.3]) for k in range(12)]])
def test_first_values_change_no_bit(ranges):
    f, calls = _recording(_factored)
    plain = integrate_ranges(f, ranges, CFG)
    layout = FirstPass(ranges)
    x, index = layout.nodes()
    k = _first_pass_calls([c[:2] for c in calls], x.size)[2]
    given = set(range(0, len(ranges), 2))
    values = _per_range_inputs(ranges, lambda x: np.exp(-x), given)
    for ranges_or_layout in (ranges, layout):  # the inputs serve either form
        g, rest = _recording(_factored)
        got = integrate_ranges(g, ranges_or_layout, CFG, values)
        assert [_bits(r) for r in got] == [_bits(r) for r in plain]
        # the calls are the plain drive's, the first request one call per block
        # of at most _MAX_REQUEST panels, each with its block of inputs (NaN
        # where none)
        assert len(rest) == len(calls) > k
        assert k == -(-x.size // (15 * quadrature._MAX_REQUEST))
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(rest, calls))
        assert all(len(c) == 3 for c in rest[:k]) and all(len(c) == 2 for c in rest[k:])
        inputs = np.concatenate([c[2] for c in rest[:k]])
        on = np.isin(index, list(given))
        assert np.array_equal(inputs[on], np.exp(-x[on])) and np.isnan(inputs[~on]).all()


def test_first_values_reach_every_first_call(monkeypatch):
    # a quintic over (0, 1) with no breakpoints is exact on the first pass,
    # here split into requests of 10 panels: each call reads its own inputs
    monkeypatch.setattr(quadrature, "_MAX_REQUEST", 10)
    f, calls = _recording(lambda x, index, x5: x5)
    ranges = [(0.0, 1.0, (), ())]
    layout = FirstPass(ranges)
    r, = integrate_ranges(f, layout, CFG, _per_range_inputs(ranges, lambda x: x ** 5, {0}))
    assert len(calls) == -(-layout.nodes()[0].size // 150) > 1
    assert all(x.size <= 150 and np.array_equal(v, x ** 5) for x, _, v in calls)
    assert r.value == pytest.approx(1.0 / 6.0, rel=1e-15)
    with pytest.raises(ValueError):  # an input short, or a range without an entry
        integrate_ranges(f, layout, CFG, [np.zeros(3)])
    with pytest.raises(ValueError):
        integrate_ranges(f, FirstPass(ranges + [(1.0, 2.0, (), ())]), CFG, [None])


def _kept_and_direct(ranges):
    """A drive over a kept FirstPass of ranges, then one over the tuples:
    per drive the bits of each result (or the ValueError raised) and the
    nodes of every integrand call."""
    out = []
    for given in (FirstPass(ranges), ranges):
        f, calls = _recording(_smooth)
        try:
            res = [_bits(r) for r in integrate_ranges(f, given, CFG)]
        except ValueError as error:
            res = str(error)
        out.append((res, [x.tobytes() for x, _ in calls]))
    return out


def test_a_kept_first_pass_gives_its_ranges_their_bits():
    # a kept FirstPass, handed as the ranges, gives every range the bits of
    # the same tuples handed directly; an invalid range still raises after
    # the ranges before it ran
    ranges = [(0.0, 1.0, [0.3], ()), (1.0, 2.0, (), [1.5])]
    for other in (ranges,
                  [(0.0, 1.0, [0.4], ()), (1.0, 2.0, (), ())],   # another singular point
                  [(0.0, 1.0, (), ()), (1.0, 2.0, (), ())],      # none
                  [(0.0, 1.0, [0.3], ()), (1.0, 2.5, (), ())],   # another end
                  ranges[::-1], ranges[:1], ranges + [(2.0, 3.0, (), ())],
                  ranges + [(3.0, 3.0, (), ())],                 # one more, invalid
                  [(3.0, 3.0, (), ())] + ranges):                # an invalid first
        kept, direct = _kept_and_direct(other)
        assert kept == direct
    assert kept[0] == "need finite a < b, got (3.0, 3.0)" and not kept[1]
    kept, direct = _kept_and_direct(ranges + [(3.0, 3.0, (), ())])
    assert kept[0] == direct[0] and kept[1]
    # singular points and breakpoints outside a range never enter its layout
    same = [(0.0, 1.0, [0.3, 1.7], [1.5]), (1.0, 2.0, [0.3], [0.5, 1.5])]
    layout = FirstPass(same)
    assert layout.pts == FirstPass(ranges).pts
    assert all(map(np.array_equal, layout.cuts, FirstPass(ranges).cuts))
    assert _kept_and_direct(same) == _kept_and_direct(ranges)


def test_a_kept_first_pass_of_breakpoints_gives_their_bits():
    # the same ends and singular points, breakpoints that cut other pieces
    # (one an ulp off another layout's): each kept layout gives its own
    # ranges the bits of the tuples
    for left, right in (([0.5], [1.25, 1.5]), ([0.5], [1.25]), ([0.6], [1.25, 1.5]),
                        ((), [1.25, 1.5]), ([np.nextafter(0.5, 1.0)], [1.25, 1.5]),
                        ([0.5, 0.7], [1.25, 1.5])):
        kept, direct = _kept_and_direct([(0.0, 1.0, [0.3], left), (1.0, 2.0, (), right)])
        assert kept == direct
    # repeated, unsorted or outside the range, the same breakpoints lay out
    # the same cuts, and drive the same bits
    ranges = [(0.0, 1.0, [0.3], [0.5]), (1.0, 2.0, (), [1.25, 1.5])]
    same = [(0.0, 1.0, [0.3], [0.5, 0.5, 1.25]), (1.0, 2.0, (), [1.5, 1.25, 0.5])]
    assert all(map(np.array_equal, FirstPass(same).cuts, FirstPass(ranges).cuts))
    assert _kept_and_direct(same) == _kept_and_direct(ranges)


def test_a_breakpoint_an_ulp_inside_a_panel_edge_cuts_no_sliver():
    # the middle third of the gap (0, 0.3) starts at 0.09999999999999999, an
    # ulp below the breakpoint 0.1: the breakpoint is that edge, and cuts no
    # piece an ulp wide off the panel; 0.45 cuts a middle panel of (0.3, 0.7)
    ranges = [(0.0, 1.0, [0.3, 0.7], [0.1, 0.45])]
    layout = FirstPass(ranges)
    lows, highs, _ = layout.panels
    assert np.nextafter(0.1, 0.0) in lows and 0.1 not in lows and 0.1 not in highs
    lo, hi, _ = layout.pieces
    assert lo.size == 2 and 0.45 in lo and 0.45 in hi
    assert (hi - lo > 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))).all()
    # a drive over these ranges evaluates that layout's pieces
    f, calls = _recording(lambda x, _: np.abs(x - 0.1) + np.abs(x - 0.45))
    r, = integrate_ranges(f, ranges, CFG)
    assert np.array_equal(calls[0][0], layout.nodes()[0])
    # |x - 0.1| + |x - 0.45| over (0, 1)
    assert r.value == pytest.approx(0.41 + 0.2525, rel=1e-13)


def _two_step(monkeypatch, f, ranges):
    """integrate_ranges over `ranges` as the quadrature ran it while the cut
    was a round of its own: the first pass without breakpoints, then, before
    refinement, each pooled panel that strictly holds breakpoints (one within
    4 ulps of a panel edge is that edge) replaced by its pieces after the
    uncut panels, the pieces of all pools evaluated in one request and
    settled pool by pool up to the first that raises (the pools after it
    dropped).  Returns the outcome (see _outcome) and the pools refinement
    starts from, as _drive_pools records them."""
    cuts, refine, pools = FirstPass(ranges).cuts, quadrature._refine, []

    def pieces(pool, c):
        keep, lo, hi = [], [], []
        for a, b in zip(pool.lows.tolist(), pool.highs.tolist()):
            inner = [t for t in c.tolist()
                     if a + 4.0 * np.spacing(abs(a)) < t < b - 4.0 * np.spacing(abs(b))]
            keep.append(not inner)
            if inner:
                lo += [a, *inner]
                hi += [*inner, b]
        return np.array(keep, dtype=bool), np.array(lo), np.array(hi)

    def cut_round(live, cfg, evaluate):
        plans = [(p, pieces(p, cuts[p.owner])) for p in live]
        plans = [(p, plan) for p, plan in plans if plan[1].size]
        done = {}
        if plans:
            sums = evaluate(*(np.concatenate([plan[i] for _, plan in plans]) for i in (1, 2)),
                            np.concatenate([np.full(plan[1].size, p.owner) for p, plan in plans]))
            at = 0
            for p, (keep, lo, hi) in plans:
                part = [None if a is None else a[at:at + lo.size] for a in sums]
                at += lo.size
                k15, perr, bad, _ = part
                if bad is not None and not np.isnan(bad).all():
                    k15, perr, _, error = quadrature._settle(lo, hi, part, p.owner, cfg, evaluate)
                    if error:
                        done[p] = error
                        break
                p.lows, p.highs, p.vals, p.errs = (np.concatenate((a[keep], b)) for a, b in zip(
                    (p.lows, p.highs, p.vals, p.errs), (lo, hi, k15, perr)))
                if np.isinf(perr).any():
                    done[p] = p.total()
        stop = next((i for i, p in enumerate(live) if isinstance(done.get(p), Exception)),
                    len(live))
        rest = [p for p in live[:stop] if p not in done]
        pools.extend(tuple(a.copy() for a in (p.lows, p.highs, p.vals, p.errs)) for p in rest)
        done.update(zip(rest, refine(rest, cfg, evaluate)))
        return [done.get(p) for p in live]

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_refine", cut_round)
        return _outcome(lambda: integrate_ranges(f, [r[:3] for r in ranges], CFG)), pools


def _outcome(run):
    """The results of run() as bit strings, or the NaN error it raised."""
    try:
        return [_bits(r) for r in run()]
    except IntegrandEvaluationError as error:
        return str(error), error.location


def _same_pools(a, b):
    return len(a) == len(b) and all(_same_bits(x, y) for p, q in zip(a, b) for x, y in zip(p, q))


def _kinks(ranges, edge=None):
    """f(x, index): on each range, 1 + the distances to its first 50
    breakpoints (kinks there; cheap for a range with thousands), times
    (x - edge)^8 on the range whose left end is `edge` (its levels next to
    that end decay fast, so the walk keeps few of them)."""
    def f(x, index):
        out = np.ones(x.size)
        for k, (a, b, _, bp) in enumerate(ranges):
            m = index == k
            out[m] += sum(np.abs(x[m] - c) for c in np.asarray(bp, dtype=float)[:50])
            if a == edge:
                out[m] *= (x[m] - a) ** 8
        return out
    return f


_CUT_RANGES = [
    # breakpoints in graded levels and in middle panels, 0.1 an ulp above a
    # middle panel's low edge (the 4-ulp snap), 0.5 on a panel edge
    (0.0, 1.0, [0.3, 0.7], [0.1, 0.45, 0.05, 0.2, 0.69, 0.999, 0.5]),
    # 1.001 lies in a graded level that the walk does not keep
    (1.0, 2.0, (), [1.25, 1.2, 1.9, 1.001]),
    (-3.0, -2.5, [-2.75], [-2.9, -2.6, -2.51]),
    (2.0, 3.0, [2.5], ()),
    (3.0, 4.0, (), np.linspace(3.0, 4.0, 9)[1:-1]),
]


@pytest.mark.parametrize("many", [False, True], ids=["few", "cuts-past-max-panels"])
def test_folding_the_cut_into_the_first_pass_changes_no_bit(many, monkeypatch):
    ranges = list(_CUT_RANGES)
    if many:  # a range that its 4,100 breakpoints alone cut past _MAX_PANELS
        ranges.append((4.0, 5.0, (), np.linspace(4.0, 5.0, 4102)[1:-1]))
    f = _kinks(ranges, edge=1.0)
    got, pools, _ = _drive_pools(monkeypatch, f, ranges)
    want, replayed = _two_step(monkeypatch, f, ranges)
    assert [_bits(r) for r in got] == want
    assert _same_pools(pools, replayed)
    layout = FirstPass(ranges)
    kept = np.concatenate([p[0] for p in pools])
    assert not np.isin(layout.pieces[0][layout.pieces[2] == 1], kept).all()  # one dropped
    if many:
        assert pools[-1][0].size > quadrature._MAX_PANELS


def test_no_refinement_request_holds_a_cut_piece():
    kinks = _kinks(_CUT_RANGES, edge=1.0)  # and kinks no range declares, refined
    f, calls = _recording(lambda x, index: kinks(x, index) + np.abs(np.sin(40.0 * math.pi * x)))
    integrate_ranges(f, _CUT_RANGES, CFG)
    layout = FirstPass(_CUT_RANGES)
    k = _first_pass_calls(calls, layout.nodes()[0].size)[2]
    later = np.concatenate([x for x, _ in calls[k:]])
    assert later.size and not np.isin(later, layout.nodes(pieces=True)[0]).any()


def _piece_node(layout, at):
    """A node of the cut piece that starts at or holds `at`, a node of no other panel."""
    lo, hi, _ = layout.pieces
    i = int(np.flatnonzero((lo <= at) & (at < hi))[0])
    return float(quadrature._panel_nodes(lo[i:i + 1], hi[i:i + 1])[0][0, 3])


def _with_node(f, node, value):
    """f with a non-finite node: `value` (NaN or inf) at node, or, for a
    string s, f + |x - node|^-s, a power blowup that reads inf at node."""
    def g(x, index):
        out = f(x, index)
        with np.errstate(divide="ignore"):
            if isinstance(value, str):  # a power blowup at node
                out = out + np.abs(x - node) ** -float(value)
            else:
                out = np.where(x == node, value, out)
        return out
    return g


def test_a_non_finite_node_in_a_cut_piece_is_read_where_the_walk_keeps_it(monkeypatch):
    ranges = [(1.0, 2.0, (), [1.001, 1.2])]
    f = _kinks(ranges, edge=1.0)
    layout = FirstPass(ranges)
    dropped, kept = _piece_node(layout, 1.001), _piece_node(layout, 1.2)
    plain, counted = _counted(f)
    want = _outcome(lambda: integrate_ranges(plain, ranges, CFG))
    # a piece the walk drops is read by no one: a NaN or an inf node there
    # neither raises nor is graded into, and the drive makes the same calls
    for value in (math.nan, math.inf):
        g, calls = _counted(_with_node(f, dropped, value))
        assert _outcome(lambda: integrate_ranges(g, ranges, CFG)) == want
        assert calls[0] == counted[0]
        assert _two_step(monkeypatch, g, ranges)[0] == want
    # in a kept piece: the two-step cut's error, and its grading into an
    # integrable inf node or its divergence at one that is not
    for value in (math.nan, "0.5", "1.5"):
        g = _with_node(f, kept, value)
        got = _outcome(lambda: integrate_ranges(g, ranges, CFG))
        assert got == _two_step(monkeypatch, g, ranges)[0] != want
        if value is math.nan:
            assert got[1] == kept
        else:
            assert got[0][0] == ("finite" if value == "0.5" else "divergent")


def test_the_first_range_to_raise_wins_over_its_cut_pieces(monkeypatch):
    # range 0 meets its NaN only in a refinement round, range 1 in a kept piece
    c = _refined_node()
    sharp = lambda x: np.where(x == c, np.nan, np.abs(np.sin(40.0 * math.pi * x)))
    ranges = [(0.0, 1.0, (), ()), (1.0, 2.0, (), [1.2])]
    bad = _piece_node(FirstPass(ranges), 1.2)
    at_bad = lambda x: np.where(x == bad, np.nan, np.exp(-x))
    for order in (slice(None), slice(None, None, -1)):
        f = _per_range([sharp, at_bad][order])
        got = _outcome(lambda: integrate_ranges(f, ranges[order], CFG))
        assert got == _two_step(monkeypatch, f, ranges[order])[0]
        assert got[1] == (c if order.step is None else bad)


def _middle_node(ranges, k):
    """A node of the first pass's left middle panel of range k's last gap."""
    x, index = FirstPass([r[:3] for r in ranges]).nodes()  # the layout, without pieces
    return float(x[index == k][-23])


def test_first_values_keep_a_nan_node_error():
    ranges = [(0.0, 1.0, (), ()), (1.0, 2.0, [1.5], [1.2])]
    bad = _middle_node(ranges, 1)

    def factor(x):
        return np.where(x == bad, math.nan, np.exp(-x))

    def f(x, index, given=None):  # the NaN comes from `given` on the first request
        return (factor(x) if given is None else given) * (1.0 + index) + np.abs(x - 0.5)

    errors = []
    for given, inputs in ((ranges, None),
                          (FirstPass(ranges), _per_range_inputs(ranges, factor, {0, 1}))):
        with pytest.raises(IntegrandEvaluationError) as info:
            integrate_ranges(f, given, CFG, inputs)
        errors.append((str(info.value), info.value.location))
    assert errors[0] == errors[1] and errors[0][1] == bad


def test_first_values_grade_into_an_inf_node():
    ranges = [(0.0, 1.0, (), ()), (1.0, 2.0, [1.5], [1.2])]
    c = _middle_node(ranges, 0)
    inv = _inv_sqrt(c)

    def f(x, index, given=None):  # range 0's first request reads inv from `given`
        return np.where(index == 0, inv(x) if given is None else given, _smooth(x, index))

    first = _per_range_inputs(ranges, inv, {0})
    assert np.isinf(first[0]).sum() == 1 and first[1] is None
    plain = integrate_ranges(f, ranges, CFG)
    assert plain[0].is_finite
    assert plain[0].value == pytest.approx(2.0 * (math.sqrt(c) + math.sqrt(1.0 - c)), rel=1e-7)
    given = integrate_ranges(f, FirstPass(ranges), CFG, first)
    assert [_bits(r) for r in given] == [_bits(r) for r in plain]


def test_nodes_come_in_range_order(monkeypatch):
    # singular points, breakpoints, two inf nodes to grade into and requests
    # split every 100 panels: in every call, the range index never decreases
    monkeypatch.setattr(quadrature, "_MAX_REQUEST", 100)
    ranges = _SINGULAR_RANGES + [(float(k), k + 1.0, (), [k + 0.3]) for k in range(3, 12)]
    inv = {k: _inv_sqrt(_middle_node(ranges, k)) for k in (0, 5)}

    def g(x, index):
        out = _smooth(x, index)
        for k, f in inv.items():
            out[index == k] = f(x[index == k])
        return out

    f, calls = _recording(g)
    assert all(r.is_finite for r in integrate_ranges(f, ranges, CFG))
    assert sum(np.isinf(g(x, i)).sum() for x, i in calls) == 2
    assert len({tuple(np.unique(i)) for _, i in calls}) > 10
    assert all((i[1:] >= i[:-1]).all() for _, i in calls)
