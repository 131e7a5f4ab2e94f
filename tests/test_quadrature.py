"""Adaptive integration: frozen values, divergence detection, classifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    Exponent,
    IndeterminateIntegrabilityError,
    IntegrandEvaluationError,
    QuadratureConfig,
    builtin_figure1,
    builtin_power,
    classify_endpoint_integrability,
    integrate,
    integrate_ranges,
    local_exponent_estimate,
    weight_from_csv,
)
from degenrelax import quadrature

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


def test_undeclared_inf_node_met_in_refinement_is_resolved():
    # c is the centre node of a child of the middle panel [1/3, 2/3], so f
    # is first evaluated there by a refinement round, after the first pass
    # (both graded runs and the middle section, one call)
    c = 0.5 * (1.0 / 3.0 + 0.5)
    hit = []

    def f(x):
        hit.append(bool(np.any(x == c)))
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** -0.5

    r = integrate(f, 0.0, 1.0, CFG)
    assert hit.index(True) >= 1
    assert r.is_finite
    # the actual error, 2.4e-8 relative, exceeds the 7e-11 estimate
    assert r.value == pytest.approx(2.0 * (math.sqrt(c) + math.sqrt(1.0 - c)), rel=1e-7)


def test_refinement_never_grows_past_max_panels():
    points = []

    def f(x):
        points.append(x.size)
        return np.abs(np.sin(40.0 * math.pi * x))

    lows, highs = np.array([0.0]), np.array([1.0])
    vals, errs, _, _ = quadrature._eval_panels(f, lows, highs)
    points.clear()
    quadrature._refine_pool(f, lows, highs, vals, errs, QuadratureConfig(max_panels=20))
    # one panel cannot meet the budget over 40 kinks; each bisection adds a
    # panel and evaluates two, so the pool ends exactly at the limit
    assert 1 + sum(points) // 30 == 20


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
    add(_inv_sqrt(0.5 * (1.0 / 3.0 + 0.5)), 0.0, 1.0)
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
    c = 0.5 * (1.0 / 3.0 + 0.5)
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


def test_local_exponent_estimate_recovers_power():
    w = builtin_power(1.7)
    est = local_exponent_estimate(w, 0.0, +1, 0.5)
    assert est == pytest.approx(1.7, abs=1e-3)


def test_classifier_exact_rule_on_figure1():
    w = builtin_figure1()
    p = Exponent(2.0)
    cls = classify_endpoint_integrability(w, p, 1.0, 0.0, CFG)
    assert not cls.integrable and cls.rule == "exact-exponent"
    assert cls.local_exponent == 2.0
    cls = classify_endpoint_integrability(w, p, 2.0, 1.5, CFG)
    assert cls.integrable and cls.value > 0.0


def test_classifier_threshold_sides():
    # alpha_p = alpha/(p-1): 2/(3-1) = 1 sits exactly on the threshold, and
    # the exact rule calls it divergent (log case); p = 4 drops below
    w = builtin_figure1()
    c3 = classify_endpoint_integrability(w, Exponent(3.0), 1.0, 0.0, CFG)
    assert not c3.integrable
    c4 = classify_endpoint_integrability(w, Exponent(4.0), 1.0, 0.0, CFG)
    assert c4.integrable and math.isfinite(c4.value)


def test_grid_weight_near_threshold_is_indeterminate(tmp_path):
    # sampled |x| at p = 2 estimates alpha_p within the guard band around 1
    # and must refuse rather than guess
    path = tmp_path / "absx.csv"
    xs = np.linspace(-1.0, 1.0, 2001)
    with open(path, "w") as fh:
        fh.write("x,w\n")
        for x in xs:
            fh.write(f"{x:.17g},{abs(x):.17g}\n")
    w = weight_from_csv(str(path))
    with pytest.raises(IndeterminateIntegrabilityError):
        classify_endpoint_integrability(w, Exponent(2.0), 0.0, 1.0, CFG)
    # far from the threshold the same grid classifies cleanly
    cls = classify_endpoint_integrability(w, Exponent(3.0), 0.0, 1.0, CFG)
    assert cls.integrable
    assert cls.value == pytest.approx(2.0, rel=5e-3)  # int_0^1 x^(-1/2)
