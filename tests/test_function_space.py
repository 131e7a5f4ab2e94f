"""Ambient norm, membership, Poincare checks, endpoint behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import quadrature, spaces
from degenrelax import (
    AuxWeight,
    Exponent,
    GridSampledWeight,
    IntegralResult,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    QuadratureConfig,
    TestFunction,
    ac_extension_check,
    build_aux_weight,
    builtin_cascade,
    builtin_power,
    check_membership,
    builtin_figure1,
    first_pass_nodes,
    integrate_ranges,
    detect_structure,
    endpoint_vanishing_check,
    integrate,
    log_edge_function,
    lp_aux_norm,
    poincare_global_check,
    pointwise_poincare_check,
    poly_function,
    random_test_functions,
    relaxed_functional,
    seminorm_energy,
    space_norm,
    spline_function,
    sqrt_edge_function,
)
from conftest import make_two_tent

CFG = QuadratureConfig()


def test_seminorm_cuts_at_the_weight_piece_ends():
    # w kinks where its two pieces meet, inside the one structure interval;
    # for u = x the energy is the closed-form mass of w
    lo, mid, hi = 0.3729551931024477, 0.5395756647868786, 0.7365273613522507
    pieces = [PowerPiece(lo, mid, 1.0657915158228275, lo, 1.3847048324667448),
              PowerPiece(mid, hi, 8.977471880141731, hi, 2.8387811334591566)]
    w = PiecewisePowerWeight(Interval(lo, hi), pieces)
    assert w.breakpoints() == (mid,)
    p3 = Exponent(3.0)
    st_ = detect_structure(w, p3, CFG)
    exact = sum(q.scale * (q.hi - q.lo) ** (q.exponent + 1.0) / (q.exponent + 1.0)
                for q in pieces)
    r = seminorm_energy(poly_function([0.0, 1.0]), w, st_, p3, CFG)
    assert r.value == pytest.approx(exact, rel=1e-13)
    assert r.err_estimate >= abs(r.value - exact)


@pytest.mark.parametrize("n", [129, 1025, 16385])
def test_seminorm_cuts_at_the_grid_nodes(n):
    # a grid weight kinks at every node; cut there, every cell holds a
    # polynomial of degree 5, which one Kronrod panel integrates exactly
    xs = np.linspace(-1.0, 2.0, n)
    ws = (1.2 + np.sin(5.0 * xs)) * (1.0 + 0.2 * xs * xs)
    w = GridSampledWeight(xs, ws)
    assert np.array_equal(w.breakpoints(), xs[1:-1])
    coeffs = [0.3, -1.0, 0.7, 0.4]
    p = Exponent(2.0)
    r = seminorm_energy(poly_function(coeffs), w, detect_structure(w, p, CFG), p, CFG)
    # per cell, u'(x_i + t) = a0 + a1 t + a2 t^2 and w = w_i + slope t
    x0, h = xs[:-1], np.diff(xs)
    a0 = coeffs[1] + 2.0 * coeffs[2] * x0 + 3.0 * coeffs[3] * x0 * x0
    a1 = 2.0 * coeffs[2] + 6.0 * coeffs[3] * x0
    a2 = np.full_like(x0, 3.0 * coeffs[3])
    du2 = [a0 * a0, 2.0 * a0 * a1, a1 * a1 + 2.0 * a0 * a2, 2.0 * a1 * a2, a2 * a2]
    slope = np.diff(ws) / h
    density = [ws[:-1] * c for c in du2] + [np.zeros_like(x0)]  # |u'|^2 w in powers of t
    for k, c in enumerate(du2):
        density[k + 1] += slope * c
    exact = math.fsum(np.concatenate([c * h ** (k + 1) / (k + 1) for k, c in enumerate(density)]))
    assert r.value == pytest.approx(exact, rel=1e-13)


def test_seminorm_unit_weight(unit_chain, p2):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0], label="x")
    r = seminorm_energy(u, w, st_, p2, CFG)
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_seminorm_figure1_polynomials(figure1_chain, p2):
    # int_{-2}^{2} (1-x^2)^2 dx = 92/15 and int 4x^2 (1-x^2)^2 dx = 6848/105
    w, st_, aux = figure1_chain
    r = seminorm_energy(poly_function([0.0, 1.0]), w, st_, p2, CFG)
    assert r.value == pytest.approx(92.0 / 15.0, rel=1e-10)
    r = seminorm_energy(poly_function([0.0, 0.0, 1.0]), w, st_, p2, CFG)
    assert r.value == pytest.approx(6848.0 / 105.0, rel=1e-10)


def test_lp_aux_norm_unit_weight(unit_chain):
    # int_0^1 x^2 what(x) dx = 11/24 + (log 2)/2 by splitting at the quarters
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    r = lp_aux_norm(u, aux, CFG)
    assert r.value == pytest.approx(11.0 / 24.0 + 0.5 * math.log(2.0), rel=1e-9)


def test_membership_smooth_function(figure1_chain, p2):
    w, st_, aux = figure1_chain
    rep = check_membership(spline_function([-2, -1, 0, 1, 2], [0, 1, -1, 1, 0]),
                           w, st_, p2, CFG)
    assert rep.in_space
    assert rep.seminorm.is_finite
    assert len(rep.per_interval) == 3


def test_membership_rejects_blowup(figure1_chain, p2):
    # log distance to the left edge: |u'|^2 w ~ 9/d^2 near -2, not integrable
    w, st_, aux = figure1_chain
    rep = check_membership(log_edge_function(w.domain), w, st_, p2, CFG)
    assert not rep.in_space


def test_sqrt_edge_is_in_space(unit_chain, p2):
    # |u'|^2 = 1/(4x) diverges logarithmically... for w == 1 that is NOT in
    # the space; it is the classic boundary example
    w, st_, aux = unit_chain
    rep = check_membership(sqrt_edge_function(w.domain), w, st_, p2, CFG)
    assert not rep.in_space


def test_space_norm_combines_both_parts(unit_chain, p2):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    n = space_norm(u, w, aux, st_, p2, CFG)
    expected = math.sqrt(1.0 + 11.0 / 24.0 + 0.5 * math.log(2.0))
    assert n == pytest.approx(expected, rel=1e-9)


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_space_norm_absolute_homogeneity(unit_chain, p2, c):
    w, st_, aux = unit_chain
    u = poly_function([0.2, 1.0, -0.5])
    cu = poly_function([c * 0.2, c * 1.0, c * -0.5])
    n1 = space_norm(u, w, aux, st_, p2, CFG)
    n2 = space_norm(cu, w, aux, st_, p2, CFG)
    assert n2 == pytest.approx(abs(c) * n1, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("weight", ["unit_weight", "figure1"])
def test_large_scale_norms_stay_finite_and_homogeneous(request, weight, pv):
    # c^p runs up to 1e36; no magnitude the integrals reach may read as divergence
    w = request.getfixturevalue(weight)
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    coeffs = [0.2, 1.0, -0.5]
    u = poly_function(coeffs)
    semi = seminorm_energy(u, w, st_, p, CFG)
    amb = lp_aux_norm(u, aux, CFG)
    for c in (1e6, 1e10, 1e12):
        cu = poly_function([c * a for a in coeffs])
        c_semi = seminorm_energy(cu, w, st_, p, CFG)
        c_amb = lp_aux_norm(cu, aux, CFG)
        assert c_semi.is_finite and c_amb.is_finite
        assert c_semi.value == pytest.approx(c ** pv * semi.value, rel=1e-12)
        assert c_amb.value == pytest.approx(c ** pv * amb.value, rel=1e-12)


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("weight", ["unit_weight", "figure1"])
def test_small_scale_norms_stay_homogeneous(request, weight, pv):
    # c^p runs down to 1e-36; no tolerance floor may be absolute
    w = request.getfixturevalue(weight)
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    coeffs = [0.2, 1.0, -0.5]
    u = poly_function(coeffs)
    semi = seminorm_energy(u, w, st_, p, CFG)
    amb = lp_aux_norm(u, aux, CFG)
    ratio = poincare_global_check(u, w, aux, st_, p, CFG).ratio
    for c in (1e-5, 1e-7, 1e-9, 1e-12):
        cu = poly_function([c * a for a in coeffs])
        c_semi = seminorm_energy(cu, w, st_, p, CFG)
        c_amb = lp_aux_norm(cu, aux, CFG)
        assert c_semi.value == pytest.approx(c ** pv * semi.value, rel=1e-10)
        assert c_amb.value == pytest.approx(c ** pv * amb.value, rel=1e-10)
        c_ratio = poincare_global_check(cu, w, aux, st_, p, CFG).ratio
        assert c_ratio == pytest.approx(ratio, rel=1e-10)


class _Inflated(AuxWeight):
    """An aux weight 1e4 times too large: the Poincare inequality must fail."""

    def __call__(self, x):
        return 1e4 * super().__call__(x)


@pytest.mark.parametrize("weight", ["unit_weight", "figure1"])
@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_poincare_verdict_is_free_of_units(request, weight, pv):
    # lhs and rhs both scale as |c|^p, so neither ok nor the ratio may move with c
    w = request.getfixturevalue(weight)
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    inflated = _Inflated(w, p, st_, aux.parts, CFG)
    coeffs = [0.2, 1.0, -0.5]
    for a, ok in ((aux, True), (inflated, False)):
        ratio = poincare_global_check(poly_function(coeffs), w, a, st_, p, CFG).ratio
        for c in (1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12):
            rep = poincare_global_check(poly_function([c * v for v in coeffs]), w, a, st_, p, CFG)
            assert rep.ok is ok
            assert rep.ratio == pytest.approx(ratio, rel=1e-12)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
       st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=20, deadline=None)
def test_space_norm_triangle_inequality(unit_chain, p2, ca, cb):
    w, st_, aux = unit_chain
    a = poly_function(ca)
    b = poly_function(cb)
    ab = poly_function([x + y for x, y in zip(ca, cb)])
    na = space_norm(a, w, aux, st_, p2, CFG)
    nb = space_norm(b, w, aux, st_, p2, CFG)
    nab = space_norm(ab, w, aux, st_, p2, CFG)
    assert nab <= na + nb + 1e-9


def test_poincare_hand_case(unit_chain, p2):
    """u(x) = x, w == 1, p = 2: lhs = 5/24 by direct computation, rhs = 1."""
    w, st_, aux = unit_chain
    rep = poincare_global_check(poly_function([0.0, 1.0]), w, aux, st_, p2, CFG)
    assert rep.ok
    assert rep.lhs == pytest.approx(5.0 / 24.0, abs=1e-6)
    assert rep.rhs == pytest.approx(1.0, abs=1e-10)


def test_poincare_constant_function_trivial(figure1_chain, p2):
    w, st_, aux = figure1_chain
    rep = poincare_global_check(poly_function([3.0]), w, aux, st_, p2, CFG)
    assert rep.ok
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.ratio == 0.0


@pytest.mark.parametrize("seed", [3, 11])
def test_poincare_random_splines(figure1_chain, p2, seed):
    w, st_, aux = figure1_chain
    for u in random_test_functions(w.domain, 5, seed=seed):
        rep = poincare_global_check(u, w, aux, st_, p2, CFG)
        assert rep.ok
        assert rep.ratio <= 1.0 + 1e-8


@given(st.floats(min_value=0.02, max_value=0.23), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_pointwise_inequalities_left_half(unit_chain, eta, t):
    # lo < eta <= x <= mid on the left half; both pointwise bounds must hold
    w, st_, aux = unit_chain
    x = eta + t * (0.5 - eta)
    u = poly_function([0.1, -1.0, 0.8])
    chk = pointwise_poincare_check(u, w, aux, 0, eta, x, CFG)
    assert chk.gap_ok
    assert chk.mass_ok
    assert chk.ok


def test_pointwise_right_half(unit_chain):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    chk = pointwise_poincare_check(u, w, aux, 0, 0.93, 0.7, CFG)
    assert chk.side == "right"
    assert chk.ok


def test_vanishing_at_divergent_boundary(figure1_chain):
    # aux -> 0 fast at +-1 for p = 2 (power divergence), so the weighted
    # samples of any bounded u must die out
    w, st_, aux = figure1_chain
    u = spline_function([-2, -1, 0, 1, 2], [0.4, 1.0, -0.7, 0.9, 0.1])
    chk = endpoint_vanishing_check(u, aux, 0, "right")
    assert chk.ok, f"tail {chk.tail:.3e} vs peak {chk.peak:.3e}"
    chk = endpoint_vanishing_check(u, aux, 1, "left")
    assert chk.ok
    chk = endpoint_vanishing_check(u, aux, 1, "right")
    assert chk.ok


def test_extension_at_integrable_edge(figure1_chain, p2):
    # w(+-2) = 9 > 0: u extends continuously, and the extension equals the
    # actual limit for a function that is already continuous there
    w, st_, aux = figure1_chain
    u = poly_function([0.0, 0.5, 0.25])
    chk = ac_extension_check(u, w, aux, figure1_chain[1], 0, "left", CFG)
    assert chk.ok
    assert math.isfinite(chk.holder_rhs)
    assert chk.holder_lhs <= chk.holder_rhs * (1.0 + 1e-8)
    u_at_edge = 0.0 + 0.5 * -2.0 + 0.25 * 4.0
    assert chk.extension_value == pytest.approx(u_at_edge, abs=1e-9)


def test_extension_check_equals_three_separate_integrals(figure1_chain):
    # one lockstep call over three copies of the half interval, one density each
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0])
    iv = aux.parts[0].base
    pp, conj = aux.exponent.p, aux.exponent.conj
    chk = ac_extension_check(u, w, aux, st_, 0, "left", CFG)
    l1 = integrate(lambda x: np.abs(u.d(x)), iv.lo, iv.mid, CFG)
    en = integrate(lambda x: np.abs(u.d(x)) ** pp * np.asarray(w(x), dtype=float),
                   iv.lo, iv.mid, CFG)
    signed = integrate(u.d, iv.lo, iv.mid, CFG)
    assert chk.holder_lhs.hex() == l1.value.hex()
    assert chk.holder_rhs.hex() == (en.value ** (1.0 / pp)
                                    * iv.lo_class.value ** (1.0 / conj)).hex()
    u_mid = float(u(np.array([iv.mid]))[0])
    assert chk.extension_value.hex() == (u_mid - signed.value).hex()


def test_extension_refused_at_divergent_edge(figure1_chain, p2):
    w, st_, aux = figure1_chain
    u = poly_function([0.0, 1.0])
    with pytest.raises(ValueError):
        ac_extension_check(u, w, aux, figure1_chain[1], 0, "right", CFG)


def test_grid_tagged_function_never_in_space(figure1_chain, p2):
    from degenrelax import TestFunction
    w, st_, aux = figure1_chain
    xs = np.linspace(-2, 2, 101)
    u = TestFunction(fn=lambda x: np.interp(x, xs, np.sin(xs)), deriv=None,
                     tag="Grid", label="sampled")
    rep = check_membership(u, w, st_, p2, CFG)
    assert not rep.in_space


# ---------------------------------------------------------------------------
# natural cubic splines

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _spline_cases():
    rng = np.random.default_rng(20)
    for n in (2, 3, 9, 17):
        yield np.linspace(-1.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
        yield np.cumsum(rng.uniform(0.01, 1.0, n)), rng.uniform(-1.0, 1.0, n)
    # the first column's subdiagonal (0.99) beats its diagonal (0.02): dgtsv swaps rows
    yield np.array([0.0, 0.01, 1.0]), np.array([1.0, -2.0, 0.5])
    yield np.array([0.0, 0.01, 0.02, 1.0, 1.01, 3.0]), rng.uniform(-1.0, 1.0, 6)
    for scale in (1e-12, 1e12):
        yield np.linspace(0.0, 1.0, 9), scale * rng.uniform(-1.0, 1.0, 9)
    # scipy's sum starts from 0.0, so u(0) is +0.0, not the knot's -0.0
    yield np.array([0.0, 1.0, 2.5, 3.0]), np.array([-0.0, -1.0, -1.0, 1.0])


@pytest.mark.parametrize("knots", list(_spline_cases()), ids=lambda k: f"n{len(k[0])}")
def test_spline_matches_scipy_bit_for_bit(knots):
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y = knots
    ref = interpolate.CubicSpline(x, y, bc_type="natural")
    dref = ref.derivative()
    u = spline_function(x, y)
    width = x[-1] - x[0]
    xs = np.concatenate([x, np.linspace(x[0] - 0.5 * width, x[-1] + 0.5 * width, 101)])
    for pts in (xs, np.stack([xs, xs[::-1]]), np.float64(x[1]), np.float64(x[-1] + width)):
        pts = np.asarray(pts)
        assert _same_bits(u(pts), ref(pts))
        assert _same_bits(u.d(pts), dref(pts))


def test_spline_values_pinned():
    # scipy's CubicSpline(..., bc_type="natural") bits, pinned for runs without scipy
    u = spline_function([0.0, 0.01, 1.0], [1.0, -2.0, 0.5])
    xs = np.array([-0.5, 0.0, 0.005, 0.01, 0.4, 1.0, 1.75])
    assert [float(v).hex() for v in u(xs)] == [
        "-0x1.b2c1b26c9b3eep+10", "0x1.0000000000000p+0", "-0x1.02e77c6e77c6bp-1",
        "-0x1.0000000000000p+1", "-0x1.cee6303ceea6cp+5", "0x1.0000000000000p-1",
        "0x1.91fbc4c2a5070p+5"]
    assert [float(v).hex() for v in u.d(xs)] == [
        "0x1.591979890cff7p+13", "-0x1.2d833b79890cbp+8", "-0x1.2c60cede62434p+8",
        "-0x1.28f9890cede64p+8", "-0x1.97a1f801e16f8p+3", "0x1.308cede62433ep+7",
        "-0x1.a63c2e1346c20p+6"]
    u = spline_function([-2.0, -1.3, -0.2, 0.0, 0.9, 2.0], [0.0, 0.7, -0.4, 1.0, 0.25, -1.0])
    xs = np.array([-2.5, -1.3, -0.05, 0.5, 2.0, 3.0])
    # the last knot is reached through the last piece, one ulp off y = -1
    assert [float(v).hex() for v in u(xs)] == [
        "-0x1.a0f9de46675eap-1", "0x1.6666666666666p-1", "0x1.55a7b01756f10p-1",
        "0x1.8cad485b8e3cap+0", "-0x1.0000000000002p+0", "-0x1.f741d49fb0134p+0"]
    assert [float(v).hex() for v in u.d(xs)] == [
        "0x1.466fe77995648p-2", "-0x1.9151a0f4d0c2dp+0", "0x1.c59e696cedefbp+2",
        "-0x1.3c6698f98ad24p+1", "-0x1.3b204b2905080p-3", "-0x1.4b7eb58a677b8p+1"]


def test_spline_keeps_its_own_knots():
    x, y = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0])
    u = spline_function(x, y)
    before = u(np.linspace(-0.5, 1.5, 9))
    x *= 2.0
    y[:] = 5.0
    assert _same_bits(u(np.linspace(-0.5, 1.5, 9)), before)


@pytest.mark.parametrize("x, y, message", [
    ([0.0], [1.0], "at least 2 elements"),
    ([0.0, 1.0], [1.0], "doesn't match the length of `x`"),
    ([[0.0, 1.0]], [[1.0, 2.0]], "must be 1-dimensional"),
    ([0.0, math.inf], [1.0, 2.0], "`x` must contain only finite values"),
    ([0.0, 1.0], [1.0, math.nan], "`y` must contain only finite values"),
    ([0.0, 0.5, 0.4, 1.0], [0.0, 1.0, 2.0, 0.0], "strictly increasing"),
    ([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 2.0, 0.0], "strictly increasing"),
])
def test_spline_rejects_bad_knots(x, y, message):
    with pytest.raises(ValueError, match=message):
        spline_function(x, y)


def test_cli_rejects_unordered_spline_knots(capsys):
    from degenrelax import cli
    code = cli.main(["relax", "--weight", "figure1", "--u", "spline:0=0,0.5=1,0.4=2,1=0",
                     "--no-timestamp"])
    assert code == 2
    assert "strictly increasing" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the density integrals run their intervals in lockstep; these loops over
# integrate() are the range-by-range references they must equal bit for bit


def _ref_seminorm(u, w, st_, p):
    removable = [z.location for z in st_.removable_zeros]
    parts = []
    for iv in st_.intervals:
        parts.append(integrate(lambda x: np.abs(u.d(x)) ** p.p * np.asarray(w(x), dtype=float),
                               iv.lo, iv.hi, CFG,
                               singular=[r for r in removable if iv.lo < r < iv.hi],
                               breakpoints=[b for b in (*u.breakpoints, *w.breakpoints())
                                            if iv.lo < b < iv.hi]))
    return parts


def _ref_aux_mass(u, aux, shifts):
    pp = aux.exponent.p
    parts = []
    for part, c in zip(aux.parts, shifts):
        iv = part.base
        parts.append(integrate(
            lambda x: np.abs(u(x) - c) ** pp * np.asarray(aux(x), dtype=float) ** (pp - 1.0),
            iv.lo, iv.hi, CFG,
            breakpoints=[part.q1, part.q3] + [b for b in (*u.breakpoints, *aux.weight.breakpoints())
                                              if iv.lo < b < iv.hi]))
    return parts


def _bits(r):
    return r.kind, r.value.hex(), r.err_estimate.hex()


def _kink(b):
    return TestFunction(fn=lambda x: np.abs(x - b), deriv=lambda x: np.sign(x - b),
                        tag="AC", label="kink", breakpoints=(b,))


@pytest.fixture(scope="module", params=[(name, pv) for name in ("figure1", "two_tent")
                                        for pv in (1.5, 2.0, 3.0)])
def any_chain(request):
    name, pv = request.param
    w = builtin_figure1() if name == "figure1" else make_two_tent()
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    return w, st_, build_aux_weight(w, p, st_, CFG), p


def test_density_integrals_equal_the_interval_loop(any_chain):
    w, st_, aux, p = any_chain
    dom = w.domain
    knots = np.linspace(dom.lo, dom.hi, 7)
    us = [spline_function(knots, np.random.default_rng(3).uniform(-1.0, 1.0, 7)),
          _kink(st_.intervals[0].lo + 0.3 * st_.intervals[0].width)]
    for u in us:
        total, parts = seminorm_energy(u, w, st_, p, CFG, per_interval=True)
        ref = _ref_seminorm(u, w, st_, p)
        assert [_bits(r) for r in parts] == [_bits(r) for r in ref]
        assert _bits(total) == _bits(sum(ref, IntegralResult.finite(0.0, 0.0)))

        ref = _ref_aux_mass(u, aux, [0.0] * len(aux.parts))
        assert _bits(lp_aux_norm(u, aux, CFG)) == _bits(
            sum(ref, IntegralResult.finite(0.0, 0.0)))

        rep = poincare_global_check(u, w, aux, st_, p, CFG)
        nums = _ref_aux_mass(u, aux, [float(u(np.array([pt.base.mid]))[0]) for pt in aux.parts])
        energies = _ref_seminorm(u, w, st_, p)
        rows = tuple((n.value / pt.base.width, e.value)
                     for pt, n, e in zip(aux.parts, nums, energies))
        assert [(a.hex(), b.hex()) for a, b in rep.per_interval] == \
            [(a.hex(), b.hex()) for a, b in rows]


def _recording(u, seen):
    def deriv(x):
        seen.append(np.array(x))
        return u.d(x)
    return TestFunction(fn=u.fn, deriv=deriv, tag="C1")


def test_seminorm_first_pass_is_one_call(figure1_chain, p2):
    w, st_, _ = figure1_chain
    seen = []
    # |u'|^2 w is a sextic here: Gauss-7 is exact, so nothing is refined and
    # the first pass of all three intervals is the only call
    seminorm_energy(_recording(poly_function([0.0, 1.0]), seen), w, st_, p2, CFG)
    assert len(seen) == 1
    assert all(np.any((seen[0] > iv.lo) & (seen[0] < iv.hi)) for iv in st_.intervals)

    seen.clear()
    u = _recording(spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0]),
                   seen)
    seminorm_energy(u, w, st_, p2, CFG)
    together = list(seen)
    alone = []
    for iv in st_.intervals:
        seen.clear()
        integrate(lambda x: np.abs(u.d(x)) ** 2.0 * np.asarray(w(x), dtype=float),
                  iv.lo, iv.hi, CFG)
        alone.append(list(seen))
    assert len(st_.intervals) == 3
    # the first call holds the first pass of all three intervals; the rounds
    # after it serve every interval still refining
    assert np.array_equal(together[0], np.concatenate([calls[0] for calls in alone]))
    assert len(together) == max(len(calls) for calls in alone)


def _sampled_weight(name, pv):
    """The weights whose ambient drives take their first pass from aux's samples."""
    if name == "figure1":
        return builtin_figure1()
    if name == "power":
        return builtin_power(0.7)
    if name == "removable":  # w = |x - 0.4|^0.3: a removable zero at every p here
        return PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.4, 2.0, 0.4, 0.3),
                                                         PowerPiece(0.4, 1.0, 0.5, 0.4, 0.3)])
    if name == "grid":  # 128 cells; zeros at +-1 that split the domain
        xs = np.linspace(-2.0, 2.0, 129)
        return GridSampledWeight(xs, np.abs(xs * xs - 1.0) ** (1.5 * (pv - 1.0))
                                 * (1.0 + 0.3 * np.sin(3.0 * xs + 0.4)))
    return builtin_cascade(2.0 * (pv - 1.0), Exponent(pv), 14)


@pytest.fixture(scope="module", params=[(name, pv)
                                        for name in ("figure1", "power", "removable", "grid",
                                                     "cascade")
                                        for pv in (1.5, 2.0, 3.0)],
                ids=lambda prm: f"{prm[0]}-p{prm[1]}")
def sampled_chain(request):
    name, pv = request.param
    w = _sampled_weight(name, pv)
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    return name, w, st_, p


def _test_functions(w):
    dom = w.domain
    knots = np.linspace(dom.lo, dom.hi, 8)
    return [spline_function(knots, np.random.default_rng(5).uniform(-1.0, 1.0, 8)),
            poly_function([0.3, -1.0, 0.5])]


def _plain_ambient(u, aux, shifts, cfg=None):
    return integrate_ranges(spaces.aux_mass_density(u, aux, shifts), spaces.aux_ranges(u, aux), cfg)


def _ambient_bits(u, w, aux, st_, p):
    rep = poincare_global_check(u, w, aux, st_, p, CFG)
    rel = relaxed_functional(u, w, aux, st_, p, CFG)
    return (_bits(lp_aux_norm(u, aux, CFG)), [(a.hex(), b.hex()) for a, b in rep.per_interval],
            rep.lhs.hex(), rep.ratio.hex(), rep.ok, rel.kind, rel.value.hex())


def test_ambient_samples_change_no_bit(sampled_chain, monkeypatch):
    name, w, st_, p = sampled_chain
    aux = build_aux_weight(w, p, st_, CFG)
    us = _test_functions(w)
    got = [_ambient_bits(u, w, aux, st_, p) for u in us + us]  # first and repeated calls
    x, counts, weight = aux.ambient_samples()
    assert x.size == counts.sum() and counts.size == len(aux.parts)
    if name == "cascade":  # the first pass is more than one request
        assert x.size > 15 * quadrature._MAX_REQUEST
    # the same drives with the plain density: aux evaluated at every node
    monkeypatch.setattr(spaces, "ambient_integrals", _plain_ambient)
    plain = build_aux_weight(w, p, st_, CFG)
    assert [_ambient_bits(u, w, plain, st_, p) for u in us + us] == got
    assert plain._samples is None


def test_second_ambient_drive_calls_aux_at_no_first_pass_node(figure1_chain, monkeypatch):
    w, st_, _ = figure1_chain
    aux = build_aux_weight(w, Exponent(2.0), st_, CFG)
    seen = []
    call = AuxWeight.__call__

    def recording(self, x):
        seen.append(np.array(x, dtype=float))
        return call(self, x)

    monkeypatch.setattr(AuxWeight, "__call__", recording)
    first, second = _test_functions(w)
    lp_aux_norm(first, aux, CFG)
    x, _ = first_pass_nodes([(part.base.lo, part.base.hi, ()) for part in aux.parts])
    # the samples are one aux call at the first-pass nodes
    assert np.array_equal(seen[0], x) and np.array_equal(aux.ambient_samples()[0], x)
    seen.clear()
    norm = lp_aux_norm(second, aux, CFG)
    later = np.concatenate(seen)
    assert later.size and not np.isin(later, x).any()
    assert _bits(norm) == _bits(
        sum(_plain_ambient(second, aux, [0.0] * 3, CFG), IntegralResult.finite(0.0, 0.0)))
