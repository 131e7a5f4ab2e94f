"""Auxiliary weight: closed forms, branch identity, bounds, edge cases."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    Exponent,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    QuadratureConfig,
    aux_global_bounds,
    build_aux_weight,
    builtin_cascade,
    builtin_figure1,
    builtin_power,
    derivative_identity_residual,
    detect_structure,
    integrate,
)

CFG = QuadratureConfig()


def test_unit_weight_closed_forms(unit_chain):
    """w == 1 on (0,1), p = 2: everything is an elementary antiderivative.

    Left branch 1/(1/2 - x), plateau 1/(3/4 - 1/4) = 2, endpoint values
    1/(half width) = 2, running integral 1 + 2 log 2.
    """
    w, st_, aux = unit_chain
    part = aux.parts[0]
    assert float(aux(0.1)) == pytest.approx(2.5, abs=1e-8)
    assert part.plateau == pytest.approx(2.0, abs=1e-8)
    assert part.lo_value == pytest.approx(2.0, abs=1e-8)
    assert part.hi_value == pytest.approx(2.0, abs=1e-8)
    total = integrate(lambda x: aux(x), 0.0, 1.0, CFG)
    assert total.value == pytest.approx(1.0 + 2.0 * math.log(2.0), abs=1e-8)


def test_unit_weight_branch_shape(unit_chain):
    w, st_, aux = unit_chain
    xs = np.linspace(0.01, 0.24, 23)
    np.testing.assert_allclose(aux(xs), 1.0 / (0.5 - xs), rtol=1e-10)
    xs = np.linspace(0.76, 0.99, 23)
    np.testing.assert_allclose(aux(xs), 1.0 / (xs - 0.5), rtol=1e-10)
    xs = np.linspace(0.25, 0.75, 11)
    np.testing.assert_allclose(aux(xs), 2.0, rtol=1e-10)


def test_vanishes_off_interval_closures(two_tent_chain):
    w, st_, aux = two_tent_chain
    xs = np.array([0.0, 0.02, 0.45, 0.5, 0.55, 0.97, 1.0])
    np.testing.assert_array_equal(aux(xs), 0.0)


def test_divergent_sides_pin_endpoint_to_zero(figure1_chain):
    w, st_, aux = figure1_chain
    assert float(aux(-1.0)) == 0.0
    assert float(aux(1.0)) == 0.0
    # integrable outer edges keep a positive limit
    assert aux.parts[0].lo_value > 0.0
    assert aux.parts[2].hi_value > 0.0


def test_quarter_point_geometry(figure1_chain):
    w, st_, aux = figure1_chain
    for part in aux.parts:
        iv = part.base
        assert part.q1 == pytest.approx(iv.lo + 0.25 * iv.width)
        assert part.q3 == pytest.approx(iv.lo + 0.75 * iv.width)
        assert part.plateau > 0.0
        # branch monotonicity: growing toward q1, falling past q3
        xs = np.linspace(iv.lo + 1e-3 * iv.width, part.q1 - 1e-3 * iv.width, 9)
        vals = aux(xs)
        assert np.all(np.diff(vals) > 0)
        xs = np.linspace(part.q3 + 1e-3 * iv.width, iv.hi - 1e-3 * iv.width, 9)
        vals = aux(xs)
        assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("family,build", [
    ("figure1", lambda p: builtin_figure1()),
    ("power", lambda p: builtin_power(2.0)),
    ("cascade", lambda p: builtin_cascade(3.0, p, 3)),
])
@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_branch_derivative_identity(family, build, pv):
    # d/dx aux = +- aux^2 sigma on the outer branches, checked by a small
    # centered difference against the analytic right hand side
    p = Exponent(pv)
    w = build(p)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    rng = np.random.default_rng(41)
    worst = 0.0
    n = 0
    for part in aux.parts:
        iv = part.base
        for lo, hi in ((iv.lo, part.q1), (part.q3, iv.hi)):
            span = hi - lo
            pts = lo + span * rng.uniform(0.07, 0.93, size=5)
            for x in pts:
                worst = max(worst, derivative_identity_residual(aux, float(x)))
                n += 1
    assert n >= 10
    assert worst <= 1e-4, f"{family} p={pv}: residual {worst:.2e}"


def test_identity_rejects_plateau_points(unit_chain):
    w, st_, aux = unit_chain
    with pytest.raises(ValueError):
        derivative_identity_residual(aux, 0.5)


def test_global_bounds(figure1_chain):
    w, st_, aux = figure1_chain
    b = aux_global_bounds(aux)
    assert b.inf == 0.0  # divergent boundaries force the overall inf to 0
    assert b.sup >= max(s for s, _ in b.per_interval)
    xs = np.linspace(-2.0, 2.0, 2001)
    vals = aux(xs)
    assert float(np.max(vals)) <= b.sup * (1.0 + 1e-9)
    assert b.covers_domain


def test_bounds_report_noncovering_structure(two_tent_chain):
    w, st_, aux = two_tent_chain
    b = aux_global_bounds(aux)
    assert not b.covers_domain
    assert b.inf == 0.0


def test_removable_zero_keeps_interval_whole_and_fast():
    # figure1 at p = 4: zeros at +-1 are removable and happen to land on the
    # quarter points; the branch tables must stay usable at float resolution
    p = Exponent(4.0)
    w = builtin_figure1()
    t0 = time.perf_counter()
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    xs = np.linspace(-2.0, 2.0, 3001)
    vals = aux(xs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)
    # sigma mass accumulates across the removable point, so the branch value
    # is continuous in the limit from outside up to the designed quarter jump
    left_of = float(aux(-1.0 - 1e-12))
    assert left_of > 0.0


def test_exponent_mismatch_rejected(figure1, p2):
    st_ = detect_structure(figure1, p2, CFG)
    with pytest.raises(ValueError):
        build_aux_weight(figure1, Exponent(3.0), st_, CFG)


@given(st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_branch_dispatch_agrees_with_value(figure1_chain, x):
    w, st_, aux = figure1_chain
    i, zone = aux.branch_of(x)
    v = float(aux(x))
    if zone == "outside":
        assert v == 0.0
    elif zone == "plateau":
        assert v == pytest.approx(aux.parts[i].plateau, rel=1e-12)
    else:
        part = aux.parts[i]
        assert part.base.lo <= x <= part.base.hi
        assert v >= 0.0


def test_sigma_callable_exposed(figure1_chain, p2, figure1):
    w, st_, aux = figure1_chain
    xs = np.array([-1.5, 0.3, 1.7])
    np.testing.assert_allclose(aux.sigma(xs), figure1.transform(p2)(xs), rtol=0)


@pytest.mark.parametrize("ys", [
    [0.0, 1.0, 1.5, 1.7],     # concave rise: the three-point rule as is
    [0.0, 0.1, 5.0, 6.0],     # steep second segment: the rule turns negative, slope 0
    [0.0, 0.1, -2.0, -3.0],   # turning data: capped at three secants
    [2.0, 1.0],               # a lone segment: its secant
])
def test_end_slope_matches_pchip(ys):
    interpolate = pytest.importorskip("scipy.interpolate")
    from degenrelax.auxweight import _end_slope
    x = np.array([0.0, 0.3, 1.0, 1.2][:len(ys)])
    y = np.array(ys)
    ref = float(interpolate.PchipInterpolator(x, y).derivative()(x[0]))
    assert _end_slope(x, y) == ref


def test_branch_slopes_match_pchip(figure1_chain):
    # the deep-tail slope of every branch is PCHIP's end derivative, bit for bit
    interpolate = pytest.importorskip("scipy.interpolate")
    _, _, aux = figure1_chain
    for part in aux.parts:
        for br in (part.left, part.right):
            x, y = np.log(br.d_mesh), np.log(br.c_nodes)
            ref = float(interpolate.PchipInterpolator(x, y).derivative()(x[0]))
            assert br.slope_inner == ref
