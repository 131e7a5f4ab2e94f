"""Auxiliary weight: closed forms, branch identity, bounds, edge cases."""

import gc
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    AuxWeight,
    Exponent,
    GridSampledWeight,
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
from degenrelax import auxweight

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


# --- the evaluation table -------------------------------------------------------

EPS = float(np.finfo(float).eps)


def _removable_then_split(pv):
    """On (0, 1): a removable zero at 0.1 inside the left branch of (0, 0.5),
    and a zero at 0.5, integrable from the left, splitting on the right."""
    ar, asplit = 0.5 * (pv - 1.0), 2.0 * (pv - 1.0)
    return PiecewisePowerWeight(Interval(0.0, 1.0), [
        PowerPiece(0.0, 0.1, 1.0, 0.1, ar), PowerPiece(0.1, 0.3, 1.0, 0.1, ar),
        PowerPiece(0.3, 0.5, 1.0, 0.5, ar), PowerPiece(0.5, 1.0, 1.0, 0.5, asplit)])


CLOSED_FORM_WEIGHTS = {
    "unit": lambda pv: PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 0.0)]),
    "power-integrable": lambda pv: PiecewisePowerWeight(
        Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 0.6 * (pv - 1.0))]),
    "power-divergent": lambda pv: PiecewisePowerWeight(
        Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 1.5 * (pv - 1.0))]),
    "removable-and-split": _removable_then_split,
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_WEIGHTS))
@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_aux_matches_closed_form_sigma_integrals(family, pv):
    p = Exponent(pv)
    w = CLOSED_FORM_WEIGHTS[family](pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    # segments touching a removable zero integrate adaptively, ~1e-8 off here
    floor = 1e-7 if st_.removable_zeros else 1e-13
    for i, part in enumerate(aux.parts):
        lo, hi, width, mid = part.base.lo, part.base.hi, part.base.width, part.base.mid
        offs = width * 10.0 ** -np.arange(1.0, 14.0, 0.5)
        xs = np.concatenate([lo + offs, hi - offs, np.linspace(part.q1, part.q3, 7)[[0, -1]] +
                             [-1e-9, 1e-9], [r + s for r in (z.location for z in st_.removable_zeros)
                                             for s in (-1e-9, -1e-12, 1e-12, 1e-9)]])
        xs = xs[(xs > lo) & (xs < hi) & ((xs < part.q1) | (xs > part.q3))]
        got = aux(xs)
        want = np.array([1.0 / (w.exact_transform_integral(p, x, mid) if x < mid
                                else w.exact_transform_integral(p, mid, x)) for x in xs])
        # sigma at x is known only up to the rounding of x relative to its distance d
        d = np.minimum(xs - lo, hi - xs)
        np.testing.assert_array_less(np.abs(got - want), (floor + EPS * np.abs(xs) / d) * want)
        # quarter points and endpoints are exact table entries
        assert aux(part.q1) == part.plateau and aux(part.q3) == part.plateau
        touching = i > 0 and aux.parts[i - 1].base.hi == lo
        assert aux(lo) == (aux.parts[i - 1].hi_value if touching else part.lo_value)
        assert aux(hi) == part.hi_value
    assert aux(0.0) == aux.parts[0].lo_value
    assert aux(1.0) == aux.parts[-1].hi_value
    if family == "removable-and-split":
        left, right = aux.parts
        assert left.base.hi == right.base.lo == 0.5
        # the touching point takes the left interval's endpoint limit
        assert left.hi_value > 0.0 == right.lo_value
        assert aux(0.5) == left.hi_value
        assert left.hi_value == pytest.approx(1.0 / w.exact_transform_integral(p, 0.25, 0.5),
                                              rel=1e-7)


def test_gap_boundaries_and_outside(two_tent_chain):
    _, st_, aux = two_tent_chain
    (a, b), (c, e) = [(iv.lo, iv.hi) for iv in st_.intervals]
    xs = np.array([-1.0, np.nextafter(a, -1), a, b, np.nextafter(b, 2), 0.5,
                   np.nextafter(c, -1), c, e, np.nextafter(e, 2), 2.0, np.inf, -np.inf, np.nan])
    want = [0, 0, aux.parts[0].lo_value, aux.parts[0].hi_value, 0, 0,
            0, aux.parts[1].lo_value, aux.parts[1].hi_value, 0, 0, 0, 0, 0]
    np.testing.assert_array_equal(aux(xs), want)


def test_empty_structure_gives_zero():
    w = GridSampledWeight([0.0, 1.0], [0.0, 0.0])
    p = Exponent(2.0)
    st_ = detect_structure(w, p, CFG)
    assert st_.kind == "zero"
    aux = build_aux_weight(w, p, st_, CFG)
    np.testing.assert_array_equal(aux(np.linspace(-1.0, 2.0, 7)), 0.0)
    assert aux(0.5) == 0.0


def _panel_reference(br, sigma, d):
    """C(d) as each query used to be answered: the anchor at the next mesh
    node outward plus one 15-node Kronrod panel back to the query."""
    from degenrelax.quadrature import _eval_panels
    k = np.clip(np.searchsorted(br.d_mesh, d, side="right") - 1, 0, br.d_mesh.size - 2)
    x_pt = br.endpoint + br.sgn * d
    x_far = br.endpoint + br.sgn * br.d_mesh[k + 1]
    k15, _, _, _ = _eval_panels(sigma, np.minimum(x_pt, x_far), np.maximum(x_pt, x_far))
    return br.c_nodes[k + 1] + k15


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_kinked_grid_segments_keep_the_partial_panel(pv):
    # a grid weight is linear between nodes, so sigma has kinks the series cannot follow
    xs = np.linspace(-2.0, 2.0, 129)
    ws = np.abs(xs * xs - 1.0) ** (1.5 * (pv - 1.0)) * (1.0 + 0.3 * np.sin(3.0 * xs + 0.4))
    w = GridSampledWeight(xs, ws)
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    table = aux._table()
    assert np.any(table.kind == auxweight._PANEL)
    rng = np.random.default_rng(5)
    for part in aux.parts:
        for br in (part.left, part.right):
            d = np.sort(rng.uniform(1e-3, 1.0, 400)) * br.d_max
            got = aux(br.endpoint + br.sgn * d)
            ref = 1.0 / _panel_reference(br, aux.sigma, d)
            np.testing.assert_allclose(got, ref, rtol=1e-12)


class _CountingPower(PiecewisePowerWeight):
    def transform(self, p):
        inner = super().transform(p)

        def sigma(x):
            self.sigma_calls += 1
            return inner(x)

        return sigma


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_tabulated_power_weight_needs_no_sigma(pv):
    w = _CountingPower(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 2.0, 0.0, 1.5 * (pv - 1.0))])
    w.sigma_calls = 0
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    assert aux._zones is None  # construction alone builds no table
    aux(0.1)
    w.sigma_calls = 0
    xs = np.random.default_rng(0).uniform(0.0, 1.0, 10_000)
    vals = aux(xs)
    assert w.sigma_calls == 0
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


def test_grid_evaluation_makes_one_sigma_call():
    xs = np.linspace(0.0, 1.0, 65)
    w = GridSampledWeight(xs, 1.0 + xs * (1.0 - xs))
    calls = []
    p = Exponent(2.0)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    aux(0.1)
    table = aux._table()
    inner = table.sigma
    table.sigma = lambda x: calls.append(np.size(x)) or inner(x)
    aux(np.random.default_rng(1).uniform(0.0, 1.0, 10_000))
    assert len(calls) == 1 and calls[0] % 15 == 0


@pytest.mark.parametrize("chain", ["figure1_chain", "two_tent_chain"])
def test_branch_values_agree_with_aux(request, chain):
    _, _, aux = request.getfixturevalue(chain)
    for part in aux.parts:
        lo, hi = part.base.lo, part.base.hi
        d = (part.q1 - lo) * np.geomspace(1e-14, 0.999, 60)
        x = lo + d
        np.testing.assert_allclose(part.left.values(x - lo), aux(x), rtol=1e-13)
        x = hi - d
        np.testing.assert_allclose(part.right.values(hi - x), aux(x), rtol=1e-13)
        # at and past the quarter point the branch holds its one-sided limit
        assert part.left.values(np.array([part.left.d_max, 1e3]))[1] == part.left_limit
        assert part.right.values(np.array([part.right.d_max]))[0] == part.right_limit


def test_branch_values_outlive_their_aux(figure1, p2):
    st_ = detect_structure(figure1, p2, CFG)
    part = build_aux_weight(figure1, p2, st_, CFG).parts[0]
    gc.collect()
    d = np.geomspace(1e-12, 1.0, 9) * part.left.d_max
    first = part.left.values(d)
    assert np.all(np.isfinite(first)) and np.all(first > 0.0)
    # another AuxWeight over the same parts leaves the branch's values alone
    _Doubled(figure1, p2, st_, [part], CFG)(part.q1)
    np.testing.assert_array_equal(part.left.values(d), first)


def test_series_matrices_match_numpy_polynomial():
    from degenrelax.quadrature import _NODES
    cheb = np.polynomial.chebyshev
    to_series = np.linalg.inv(cheb.chebvander(_NODES, _NODES.size - 1))
    antiderivative = -cheb.chebint(to_series, lbnd=1.0, axis=0)
    slope = cheb.chebvander(_NODES, _NODES.size - 2) @ cheb.chebder(to_series, axis=0)
    np.testing.assert_allclose(auxweight._ANTIDERIVATIVE, antiderivative, rtol=0, atol=1e-14)
    np.testing.assert_allclose(auxweight._SLOPE, slope, rtol=0, atol=1e-12)


class _Doubled(AuxWeight):
    def __call__(self, x):
        return 2.0 * super().__call__(x)


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-20])
def test_identity_residual_is_free_of_units(scale):
    # w = scale * x^(1/2) at p = 2: the residual of the true aux stays small
    # and that of a doubled aux stays near 1/2, whatever the scale of w
    p = Exponent(2.0)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, scale, 0.0, 0.5)])
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    doubled = _Doubled(w, p, st_, aux.parts, CFG)
    for x in (0.05, 0.2, 0.8, 0.95):
        assert derivative_identity_residual(aux, x) <= 1e-4
        assert derivative_identity_residual(doubled, x) >= 0.4


def _graded_mesh_loop(h_max, anchor, sgn):
    """The per-level loop _graded_mesh replaced: the bit-for-bit reference."""
    levels = [h_max]
    d = h_max
    while True:
        nxt = 0.5 * d
        if anchor + sgn * nxt == anchor or nxt <= 0.0 or len(levels) > 80:
            break
        levels.append(nxt)
        d = nxt
    mesh = [np.exp(np.linspace(math.log(top), math.log(bot), 11))
            for top, bot in zip(levels[:-1], levels[1:])]
    return np.unique(np.concatenate(mesh)) if mesh else np.array([h_max])


def test_graded_mesh_matches_the_level_loop():
    rng = np.random.default_rng(11)
    cases = [(0.5, 0.0, 1.0),      # anchor 0: the 80-level cap ends it
             (1e-300, 0.0, -1.0),
             (5e-324, 0.0, 1.0),   # no level below h_max
             (0.5, 1.0, -1.0),     # halving stops where anchor + d rounds to anchor
             (1e-15, 1e3, 1.0),
             (3.0, 1e16, -1.0)]
    for _ in range(400):
        anchor = rng.choice([0.0, rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-20.0, 20.0)])
        cases.append((10.0 ** rng.uniform(-300.0, 3.0), anchor, rng.choice([-1.0, 1.0])))
    sizes = set()
    for h_max, anchor, sgn in cases:
        want = _graded_mesh_loop(h_max, anchor, sgn)
        got = auxweight._graded_mesh(h_max, anchor, sgn)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (h_max, anchor, sgn)
        sizes.add(want.size)
    assert 1 in sizes and 801 in sizes  # one level only; the 80-level cap
