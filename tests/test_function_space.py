"""Ambient norm, membership, Poincare checks, endpoint behavior."""

import gc
import math
import sys
import types
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenrelax import quadrature, spaces
from degenrelax import (
    AuxWeight,
    Exponent,
    GridSampledWeight,
    IntegralResult,
    IntegrandEvaluationError,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    QuadratureConfig,
    TestFunction,
    ac_extension_check,
    build_aux_weight,
    builtin_cascade,
    builtin_power,
    build_approx_sequence,
    check_membership,
    builtin_figure1,
    constant_function,
    integrate_ranges,
    detect_structure,
    endpoint_vanishing_check,
    integrate,
    log_edge_function,
    lp_aux_norm,
    original_functional,
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
from conftest import count_drives, make_two_tent

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
@example(c=8.74e-162)  # a subnormal density, ~1e-323
@settings(max_examples=25, deadline=None)
def test_space_norm_absolute_homogeneity(unit_chain, p2, c):
    w, st_, aux = unit_chain
    u = poly_function([0.2, 1.0, -0.5])
    cu = poly_function([c * 0.2, c * 1.0, c * -0.5])
    n1 = space_norm(u, w, aux, st_, p2, CFG)
    n2 = space_norm(cu, w, aux, st_, p2, CFG)
    assert n2 == pytest.approx(abs(c) * n1, rel=1e-8, abs=1e-12)


def test_a_subnormal_energy_density_reads_finite(unit_chain, p2):
    # |u'|^2 w is ~1e-323 for c = 8.74e-162: its graded levels quantize to
    # multiples of 5e-324 and stop decaying, which is not divergence
    w, st_, aux = unit_chain
    for c in (1e-160, 8.74e-162, 1e-170):
        cu = poly_function([c * 0.2, c * 1.0, c * -0.5])
        assert seminorm_energy(cu, w, st_, p2, CFG).is_finite
        assert math.isfinite(space_norm(cu, w, aux, st_, p2, CFG))


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
    # |u'| and u' in one lockstep call over two copies of the half interval,
    # the energy a density_integrals term: each as its own integral, bit for bit
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


def test_the_extension_verdict_is_free_of_the_units_of_u(figure1_chain, p2):
    # with the left end's class value halved, holder_lhs / holder_rhs reads
    # 1.2513 for u = c x whatever c is, so the verdict must not move with c
    w, st_, _ = figure1_chain
    iv = st_.intervals[0]
    halved = replace(iv, lo_class=replace(iv.lo_class, value=0.5 * iv.lo_class.value))
    st_half = replace(st_, intervals=(halved, *st_.intervals[1:]))
    aux = build_aux_weight(w, p2, st_half, CFG)
    checks = [ac_extension_check(poly_function([0.0, c]), w, aux, st_half, 0, "left", CFG)
              for c in (1e-12, 1.0, 1e12)]
    assert all(chk.holder_lhs / chk.holder_rhs == pytest.approx(1.2513, rel=1e-4)
               for chk in checks)
    assert [chk.ok for chk in checks] == [False] * 3


def test_extension_refused_at_divergent_edge(figure1_chain, p2):
    w, st_, aux = figure1_chain
    u = poly_function([0.0, 1.0])
    with pytest.raises(ValueError):
        ac_extension_check(u, w, aux, figure1_chain[1], 0, "right", CFG)


def test_extension_of_a_function_with_divergent_integrals():
    # log x on x^0.5 at p = 2: sigma = x^-0.5 is integrable at 0, but neither
    # the L1 norm of u' = 1/x nor its energy is, and u has no limit there
    p = Exponent(2.0)
    w = builtin_power(0.5)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    assert st_.intervals[0].lo_class.integrable
    chk = ac_extension_check(log_edge_function(w.domain), w, aux, st_, 0, "left", CFG)
    assert (chk.holder_lhs, chk.holder_rhs) == (math.inf, math.inf)
    assert math.isnan(chk.extension_value) and not chk.ok


def test_grid_tagged_function_never_in_space(figure1_chain, p2):
    # a sampled u has no seminorm, in every question, and none raises
    w, st_, aux = figure1_chain
    xs = np.linspace(-2, 2, 101)
    u = TestFunction(fn=lambda x: np.interp(x, xs, np.sin(xs)), deriv=None,
                     tag="Grid", label="sampled")
    divergent = [("divergent", math.inf)] * len(st_.intervals)
    rep = check_membership(u, w, st_, p2, CFG)
    assert not rep.in_space and [(r.kind, r.value) for r in rep.per_interval] == divergent
    semi = seminorm_energy(u, w, st_, p2, CFG)
    assert (semi.kind, semi.value) == divergent[0]
    assert space_norm(u, w, aux, st_, p2, CFG) == math.inf
    poinc = poincare_global_check(u, w, aux, st_, p2, CFG)
    assert [rhs for _, rhs in poinc.per_interval] == [math.inf] * len(st_.intervals)
    assert math.isfinite(poinc.lhs) and poinc.rhs == math.inf
    iv = st_.intervals[1]
    check = pointwise_poincare_check(u, w, aux, 1, iv.lo + 0.25 * iv.width, iv.mid, CFG)
    assert check.gap_rhs == math.inf and check.ok
    val = relaxed_functional(u, w, aux, st_, p2, CFG)
    assert val.kind == "infinite" and val.reason.startswith("sampled function")
    # on an empty structure the relaxation is identically 0, sampled u or not
    null = PiecewisePowerWeight(Interval(-2.0, 2.0), [], family="null")
    st0 = detect_structure(null, p2, CFG)
    val = relaxed_functional(u, null, build_aux_weight(null, p2, st0, CFG), st0, p2, CFG)
    assert (val.kind, val.value) == ("finite", 0.0)


def test_a_first_request_is_one_integrand_call_per_block(figure1_chain, p2, monkeypatch):
    # records, per drive, the node counts of the calls of density_integrals'
    # integrand that read kept aux^(p-1) samples (its first request), and
    # counts the calls made outside a drive
    integrand, = [c for c in spaces.density_integrals.__code__.co_consts
                  if isinstance(c, types.CodeType) and c.co_name == "f"]
    sizes, drives, outside, inside = [], [], [0], [False]

    def drive(f, layout, cfg=None, inputs=None):  # both drives hand a FirstPass
        inside[0] = True
        out = integrate_ranges(f, layout, cfg, inputs)
        inside[0] = False
        drives.append((layout.nodes()[0].size, list(sizes)))
        sizes.clear()
        return out

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is integrand:
            if not inside[0]:
                outside[0] += 1
            elif frame.f_locals["weight"] is not None:
                sizes.append(frame.f_locals["x"].size)

    monkeypatch.setattr(spaces, "integrate_ranges", drive)
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.5, 1.0, 0.0])
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        space_norm(u, w, aux, st_, p2, CFG)
        build_approx_sequence(u, w, aux, st_, p2, h_values=[8, 16, 32, 64], cfg=CFG)
    finally:
        sys.setprofile(previous)
    # space_norm, then the sequence's member drive (space_norm answered its
    # relaxed value): 8 terms whose first request spans more than four blocks
    # of 17,280 nodes
    assert len(drives) == 2 and drives[1][0] > 4 * 17280 and outside == [0]
    assert [len(s) for _, s in drives] == [math.ceil(n / 17280) for n, _ in drives]
    assert all(sum(s) == n and max(s) <= 17280 for n, s in drives)


def test_a_density_drive_lays_out_its_first_pass_once(figure1_chain, p2, monkeypatch):
    # the quadrature alone lays out a drive's first request, once per drive:
    # the aux weight samples its stores at its first drive's nodes; the
    # sequence's relaxed value is space_norm's answer, so its member drive is
    # the only new one; a fresh aux weight, which keeps no drive's layout yet
    w, st_, _ = figure1_chain
    aux = build_aux_weight(w, p2, st_, CFG)
    layouts, lay_out = [], quadrature._first_pass
    monkeypatch.setattr(quadrature, "_first_pass", lambda pts: layouts.append(1) or lay_out(pts))
    drives = count_drives(monkeypatch)
    u = spline_function([-2.0, -1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.5, 1.0, 0.0])
    space_norm(u, w, aux, st_, p2, CFG)
    assert len(layouts) == len(drives) == 1
    build_approx_sequence(u, w, aux, st_, p2, h_values=[8, 16, 32], cfg=CFG)
    assert len(layouts) == len(drives) == 2


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


def _plain(ranges):
    """A drive's ranges as comparable tuples, as its first pass reads them:
    the ends, the singular points and the breakpoints strictly inside (an
    ambient range is cut at its quarter points, an energy range is not)."""
    layout = quadrature.FirstPass(ranges)
    return [(p[0], p[-1], tuple(p[1:-1]), tuple(c.tolist()))
            for p, c in zip(layout.pts, layout.cuts)]


def _layouts(u, w, st_, aux):
    """The ambient ranges and the energy ranges of u, as _plain gives them."""
    return _plain(spaces.aux_ranges(u, aux)), _plain(spaces.energy_ranges(u, w, st_))


def _kept(u):
    """The kind and shift of every range u's memo holds (None for energy,
    "u(mid)" for the shifted ambient term)."""
    shift = {"energy": None, "ambient": 0.0, "shifted": "u(mid)"}
    return [("energy" if term == "energy" else "ambient", shift[term])
            for (term, *_), (_, results) in u._memo.items() for _ in results]


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
        total = seminorm_energy(u, w, st_, p, CFG)
        parts = check_membership(u, w, st_, p, CFG).per_interval
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


def test_each_question_is_one_drive(any_chain, monkeypatch):
    # each question makes at most one drive, of the ranges not yet answered
    # for that u; a copy of u (dataclasses.replace) has none answered
    w, st_, aux, p = any_chain
    dom = w.domain
    u = spline_function(np.linspace(dom.lo, dom.hi, 7), np.random.default_rng(4).uniform(-1, 1, 7))
    ambient, energy = _layouts(u, w, st_, aux)
    calls = count_drives(monkeypatch)
    lp, member = lp_aux_norm(u, aux, CFG), check_membership(u, w, st_, p, CFG)
    rep = poincare_global_check(u, w, aux, st_, p, CFG)
    rel = relaxed_functional(u, w, aux, st_, p, CFG)
    amb, mem = lp_aux_norm(u, aux, CFG), check_membership(u, w, st_, p, CFG)
    norm = space_norm(u, w, aux, st_, p, CFG)
    # the ambient norm's drive also integrates the energy and the ambient
    # term shifted by u(mid): every later question reads it
    assert [_plain(c) for c in calls] == [ambient + energy + ambient]
    calls.clear()
    copy = replace(u)
    fresh = (poincare_global_check(replace(u), w, aux, st_, p, CFG),
             (relaxed_functional(copy, w, aux, st_, p, CFG), lp_aux_norm(copy, aux, CFG),
              check_membership(copy, w, st_, p, CFG)),
             space_norm(replace(u), w, aux, st_, p, CFG))
    # on copies: the Poincare check's energy then its shifted ambient ranges,
    # then twice the ambient ranges then the energy ones; the relaxed value's
    # follow-up questions read its drive
    assert [_plain(c) for c in calls] == [energy + ambient] + [ambient + energy] * 2
    # each answers as the drives of its two sides alone, bit for bit
    assert [e for _, e in rep.per_interval] == [e.value for e in member.per_interval]
    assert _bits(amb) == _bits(lp) and mem == member and rel.value == member.seminorm.value
    assert norm.hex() == ((lp.value + member.seminorm.value) ** (1.0 / p.p)).hex()
    assert [(a.hex(), b.hex()) for a, b in rep.per_interval] == \
        [(a.hex(), b.hex()) for a, b in fresh[0].per_interval]
    assert (rel.value.hex(), _bits(amb), [_bits(r) for r in mem.per_interval]) == \
        (fresh[1][0].value.hex(), _bits(fresh[1][1]), [_bits(r) for r in fresh[1][2].per_interval])
    assert norm.hex() == fresh[2].hex()
    # a sampled u has no energy: its relaxed value is the ambient drive alone,
    # and its ambient norm and membership read that drive
    grid = TestFunction(fn=u.fn, deriv=None, tag="Grid")
    calls.clear()
    rel = relaxed_functional(grid, w, aux, st_, p, CFG)
    amb, mem = lp_aux_norm(grid, aux, CFG), check_membership(grid, w, st_, p, CFG)
    assert [_plain(c) for c in calls] == [_plain(spaces.aux_ranges(grid, aux))]
    assert not mem.in_space and rel.kind == "infinite" and _bits(amb) == _bits(lp)


def test_a_drive_raises_the_nan_of_its_first_question(figure1_chain, p2):
    w, st_, aux = figure1_chain
    # u is NaN on the right of 1.5, u' on the left of -1.5
    u = TestFunction(fn=lambda x: np.where(x > 1.5, np.nan, x),
                     deriv=lambda x: np.where(x < -1.5, np.nan, 1.0), tag="AC")
    with pytest.raises(IntegrandEvaluationError) as energy:
        seminorm_energy(u, w, st_, p2, CFG)
    with pytest.raises(IntegrandEvaluationError) as ambient:
        lp_aux_norm(u, aux, CFG)
    assert energy.value.location < -1.5 and ambient.value.location > 1.5
    for question, want in ((poincare_global_check, energy), (relaxed_functional, ambient),
                           (space_norm, ambient)):
        with pytest.raises(IntegrandEvaluationError) as got:
            question(u, w, aux, st_, p2, CFG)
        assert got.value.location == want.value.location, question.__name__


# ---------------------------------------------------------------------------
# each range integrated once per u


def _battery(fresh, w, st_, aux, p):
    """A battery case's four questions, in its order, each asked of fresh(),
    as bit strings."""
    lp = lp_aux_norm(fresh(), aux, CFG)
    semi = seminorm_energy(fresh(), w, st_, p, CFG)
    rep = poincare_global_check(fresh(), w, aux, st_, p, CFG)
    rel = relaxed_functional(fresh(), w, aux, st_, p, CFG)
    return [_bits(lp), _bits(semi), [(a.hex(), b.hex()) for a, b in rep.per_interval],
            rep.lhs.hex(), rep.rhs.hex(), rep.ratio.hex(), (rel.kind, rel.value.hex())]


@pytest.mark.parametrize("pv", [1.5, 3.0])
@pytest.mark.parametrize("name", ["figure1", "power", "two_tent"])
def test_a_battery_case_integrates_each_range_once(name, pv, monkeypatch):
    w = {"figure1": builtin_figure1, "power": lambda: builtin_power(0.7),
         "two_tent": make_two_tent}[name]()
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    dom = w.domain
    u = spline_function(np.linspace(dom.lo, dom.hi, 7), np.random.default_rng(5).uniform(-1, 1, 7))
    ambient, energy = _layouts(u, w, st_, aux)
    calls = count_drives(monkeypatch)
    got = _battery(lambda: u, w, st_, aux, p)
    # the ambient norm drives its own ranges, then the energy and the ambient
    # term shifted by u(mid); the seminorm, the Poincare check and the
    # relaxed value read that drive
    assert [_plain(c) for c in calls] == [ambient + energy + ambient]
    # each question asked of its own copy of u is one drive, with the same bits
    calls.clear()
    assert _battery(lambda: replace(u), w, st_, aux, p) == got
    assert [_plain(c) for c in calls] == \
        [ambient + energy + ambient, energy, energy + ambient, ambient + energy]


def test_a_question_asked_twice_calls_no_integrand(figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    seen = []
    u = _recording(spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0]), seen)
    first = (_bits(seminorm_energy(u, w, st_, p2, CFG)), space_norm(u, w, aux, st_, p2, CFG))
    assert seen
    seen.clear()
    calls = count_drives(monkeypatch)
    assert (_bits(seminorm_energy(u, w, st_, p2, CFG)), space_norm(u, w, aux, st_, p2, CFG)) == first
    # None is the default configuration, which CFG equals
    assert _bits(seminorm_energy(u, w, st_, p2)) == first[0]
    assert calls == [] and seen == []


def test_what_a_range_depends_on_integrates_again(figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0])
    semi, lp = seminorm_energy(u, w, st_, p2, CFG), lp_aux_norm(u, aux, CFG)
    iv = st_.intervals[1]
    pointwise_poincare_check(u, w, aux, 1, iv.lo + 0.25 * iv.width, iv.mid, CFG)
    calls = count_drives(monkeypatch)
    other_w = builtin_figure1()  # equal values, another object
    other_aux = build_aux_weight(w, p2, st_, CFG)
    _, energy = _layouts(u, w, st_, aux)
    kinked = replace(u, breakpoints=(0.0,))
    gap = (iv.lo + 0.3 * iv.width, iv.mid)
    # each question with the ranges its one drive integrates, or None
    again = [
        (lambda: seminorm_energy(u, other_w, st_, p2, CFG), energy),
        # another aux: its ambient ranges and their shifts by u(mid); the
        # energy against w was answered
        (lambda: lp_aux_norm(u, other_aux, CFG), _plain(spaces.aux_ranges(u, other_aux)) * 2),
        (lambda: seminorm_energy(u, w, st_, Exponent(3.0), CFG), energy),
        (lambda: seminorm_energy(u, w, st_, p2, QuadratureConfig(rel_tol=1e-9)), energy),
        # the ambient norm's drive answered its energy and its shifted ambient term
        (lambda: poincare_global_check(u, w, aux, st_, p2, CFG), None),
        # the gap span and the outer span (lo, mid): u keeps neither
        (lambda: pointwise_poincare_check(u, w, aux, 1, *gap, CFG),
         _plain(spaces.energy_ranges(u, w, st_, [gap, (iv.lo, iv.mid)]))),
        (lambda: seminorm_energy(kinked, w, st_, p2, CFG),
         _plain(spaces.energy_ranges(kinked, w, st_))),
    ]
    for k, (question, ranges) in enumerate(again):
        calls.clear()
        question()
        assert [_plain(c) for c in calls] == ([ranges] if ranges else []), k
    # equal answers where only the object differs
    calls.clear()
    assert _bits(seminorm_energy(u, other_w, st_, p2, CFG)) == _bits(semi)
    assert _bits(lp_aux_norm(u, other_aux, CFG)) == _bits(lp)
    assert calls == []


def test_a_question_that_raised_raises_again(figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    # u is NaN on the right of 1.5, u' on the left of -1.5
    u = TestFunction(fn=lambda x: np.where(x > 1.5, np.nan, x),
                     deriv=lambda x: np.where(x < -1.5, np.nan, 1.0), tag="AC")
    calls = count_drives(monkeypatch)
    for question in (lambda: seminorm_energy(u, w, st_, p2, CFG),
                     lambda: lp_aux_norm(u, aux, CFG),
                     lambda: relaxed_functional(u, w, aux, st_, p2, CFG)):
        with pytest.raises(IntegrandEvaluationError) as first:
            question()
        with pytest.raises(IntegrandEvaluationError) as again:
            question()
        assert str(again.value) == str(first.value)
        assert again.value.location == first.value.location
    # the ambient norm's joint drive raises, so it drives its own ranges
    # again alone, and raises as that drive does
    ambient, energy = _layouts(u, w, st_, aux)
    assert [_plain(c) for c in calls] == [energy] * 2 + [ambient + energy + ambient, ambient] * 2 \
        + [ambient + energy] * 2
    assert _kept(u) == []


@pytest.mark.parametrize("case", ["no derivative", "sampled", "empty structure"])
def test_the_ambient_norm_adds_no_term_it_cannot_integrate(case, figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    s = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0])
    if case == "empty structure":
        w = PiecewisePowerWeight(Interval(-2.0, 2.0), [], family="null")
        st_ = detect_structure(w, p2, CFG)
        aux = build_aux_weight(w, p2, st_, CFG)
    u = TestFunction(fn=s.fn, deriv=None if case == "no derivative" else s.deriv,
                     tag="Grid" if case == "sampled" else "AC")
    calls = count_drives(monkeypatch)
    got = lp_aux_norm(u, aux, CFG)
    # its own ranges alone (an empty structure has none), each with the bits
    # of a drive of it alone; only they are kept
    assert [_plain(c) for c in calls] == ([_plain(spaces.aux_ranges(u, aux))] if aux.parts else [])
    assert _bits(got) == _bits(sum(_ref_aux_mass(u, aux, [0.0] * len(aux.parts)),
                                   IntegralResult.finite(0.0, 0.0)))
    assert _kept(u) == [("ambient", 0.0)] * len(aux.parts)


def test_a_nan_derivative_leaves_the_ambient_norm_as_it_was(figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    # u is finite, u' NaN on the left of -1.5
    u = TestFunction(fn=lambda x: 0.5 * x, deriv=lambda x: np.where(x < -1.5, np.nan, 0.5),
                     tag="AC")
    ambient, energy = _layouts(u, w, st_, aux)
    calls = count_drives(monkeypatch)
    lp = lp_aux_norm(u, aux, CFG)
    # the joint drive raises on the energy: the ambient norm drives its own
    # ranges again alone, with the bits of a drive per part, and nothing of
    # the joint drive is kept
    assert [_plain(c) for c in calls] == [ambient + energy + ambient, ambient]
    assert _bits(lp) == _bits(sum(_ref_aux_mass(u, aux, [0.0] * len(aux.parts)),
                                  IntegralResult.finite(0.0, 0.0)))
    assert _kept(u) == [("ambient", 0.0)] * len(aux.parts)
    # the questions that need the energy raise as they do asked of a u that
    # was asked nothing before
    for question in (lambda v: seminorm_energy(v, w, st_, p2, CFG),
                     lambda v: poincare_global_check(v, w, aux, st_, p2, CFG)):
        with pytest.raises(IntegrandEvaluationError) as got:
            question(u)
        with pytest.raises(IntegrandEvaluationError) as want:
            question(replace(u))
        assert (str(got.value), got.value.location) == (str(want.value), want.value.location)
        assert got.value.location < -1.5
    assert _kept(u) == [("ambient", 0.0)] * len(aux.parts)


def test_other_orders_add_no_term(figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0])
    ambient, energy = _layouts(u, w, st_, aux)
    calls = count_drives(monkeypatch)
    # build_approx_sequence's order (and relax's, and approx's): the relaxed
    # value's drive answers the ambient norm and the membership, and no
    # ambient range shifted by u(mid) is integrated
    relaxed_functional(u, w, aux, st_, p2, CFG)
    lp_aux_norm(u, aux, CFG)
    check_membership(u, w, st_, p2, CFG)
    assert [_plain(c) for c in calls] == [ambient + energy]
    assert sorted(set(_kept(u)), key=str) == [("ambient", 0.0), ("energy", None)]
    # the Poincare check asked first is one drive of its two terms; the
    # ambient norm asked next drives only its own ranges
    calls.clear()
    v = replace(u)
    poincare_global_check(v, w, aux, st_, p2, CFG)
    lp_aux_norm(v, aux, CFG)
    assert [_plain(c) for c in calls] == [energy + ambient, ambient]


def test_the_memo_is_no_field(figure1_chain, p2):
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0], label="s")
    before = repr(u), hash(u), asdict(u)
    space_norm(u, w, aux, st_, p2, CFG)
    assert u._memo and not replace(u)._memo
    assert (repr(u), hash(u), asdict(u)) == before
    assert u == replace(u) and hash(u) == hash(replace(u))


def _answer_bits(question, u, w, st_, aux, p):
    """A per-u question's answer as bit strings."""
    if question is lp_aux_norm:
        return _bits(lp_aux_norm(u, aux, CFG))
    if question is seminorm_energy:
        return _bits(seminorm_energy(u, w, st_, p, CFG))
    if question is check_membership:
        mem = check_membership(u, w, st_, p, CFG)
        return mem.in_space, _bits(mem.seminorm), [_bits(r) for r in mem.per_interval]
    got = question(u, w, aux, st_, p, CFG)
    if question is space_norm:
        return got.hex()
    if question is poincare_global_check:
        return ([(a.hex(), b.hex()) for a, b in got.per_interval], got.lhs.hex(), got.rhs.hex(),
                got.ratio.hex(), got.ok)
    return got.kind, got.value.hex(), got.reason


_QUESTIONS = (lp_aux_norm, seminorm_energy, check_membership, space_norm, poincare_global_check,
              relaxed_functional)
# every rotation of the six, forwards and backwards
_ORDERS = [order[k:] + order[:k] for order in (_QUESTIONS, _QUESTIONS[::-1]) for k in range(6)]


@pytest.mark.parametrize("pv", [1.5, 3.0])
@pytest.mark.parametrize("name", ["figure1", "two_tent"])
def test_the_order_of_questions_changes_no_bit(name, pv, monkeypatch):
    w = builtin_figure1() if name == "figure1" else make_two_tent()
    p = Exponent(pv)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    dom = w.domain
    u = spline_function(np.linspace(dom.lo, dom.hi, 7), np.random.default_rng(6).uniform(-1, 1, 7))
    alone = {q: _answer_bits(q, replace(u), w, st_, aux, p) for q in _QUESTIONS}
    calls = count_drives(monkeypatch)
    for order in _ORDERS:
        v = replace(u)
        for question in order:
            before = len(calls)
            assert _answer_bits(question, v, w, st_, aux, p) == alone[question], question.__name__
            assert len(calls) - before <= 1, question.__name__


def test_after_the_ambient_norm_no_question_calls_u(any_chain):
    w, st_, aux, p = any_chain
    dom = w.domain
    s = spline_function(np.linspace(dom.lo, dom.hi, 7), np.random.default_rng(4).uniform(-1, 1, 7))
    seen = []
    u = TestFunction(fn=lambda x: seen.append("u") or s(x),
                     deriv=lambda x: seen.append("du") or s.d(x), tag="C1")
    lp_aux_norm(u, aux, CFG)
    assert set(seen) == {"u", "du"}
    seen.clear()
    for question in _QUESTIONS[1:]:
        _answer_bits(question, u, w, st_, aux, p)
    assert seen == []


def test_density_integrals_keeps_nothing(figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0])
    terms = [("ambient", u, 0.0), ("energy", u, spaces.energy_ranges(u, w, st_))]
    calls = count_drives(monkeypatch)
    first, again = (spaces.density_integrals(terms, w, p2.p, aux, CFG) for _ in range(2))
    ambient, energy = _layouts(u, w, st_, aux)
    assert [_plain(c) for c in calls] == [ambient + energy] * 2
    assert [[_bits(r) for r in t] for t in first] == [[_bits(r) for r in t] for t in again]
    assert _kept(u) == []


def test_only_structure_terms_are_kept(figure1_chain, p2):
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0])
    build_approx_sequence(u, w, aux, st_, p2, h_max=16, cfg=CFG)
    iv = st_.intervals[1]
    pointwise_poincare_check(u, w, aux, 1, iv.lo + 0.25 * iv.width, iv.mid, CFG)
    ac_extension_check(u, w, aux, st_, 0, "left", CFG)
    original_functional(u, w, p2, CFG)
    # the relaxed value's two terms, which the ambient norm asked next reads
    assert _kept(u) == [("ambient", 0.0)] * len(aux.parts) + [("energy", None)] * len(st_.intervals)


def test_the_energy_of_another_structure_integrates_again(figure1_chain, p2, monkeypatch):
    w, st_, aux = figure1_chain
    u = spline_function([-2.0, -1.2, 0.0, 0.7, 2.0], [0.0, 0.5, -1.0, 0.3, 0.0])
    lp_aux_norm(u, aux, CFG)  # its drive answers the energy over st_
    first = replace(st_, intervals=st_.intervals[:1])
    calls = count_drives(monkeypatch)
    semi = seminorm_energy(u, w, first, p2, CFG)
    assert [_plain(c) for c in calls] == [_plain(spaces.energy_ranges(u, w, first))]
    assert _bits(semi) == _bits(seminorm_energy(replace(u), w, first, p2, CFG))


@pytest.mark.parametrize("check", ["vanishing", "extension"])
def test_an_unknown_side_is_refused(check, figure1_chain, p2):
    w, st_, aux = figure1_chain
    u = poly_function([0.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="side must be 'left' or 'right', not 'lo'"):
        if check == "vanishing":
            endpoint_vanishing_check(u, aux, 0, "lo")
        else:
            ac_extension_check(u, w, aux, st_, 0, "lo", CFG)


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
    """The ambient integrals as one plain drive: aux evaluated at every node."""
    c, pp = np.asarray(shifts, dtype=float), aux.exponent.p

    def density(x, index):
        return np.abs(u(x) - c[index]) ** pp * np.asarray(aux(x), dtype=float) ** (pp - 1.0)

    return integrate_ranges(density, spaces.aux_ranges(u, aux), cfg)


def _plain_drives(monkeypatch):
    """Make every density drive a plain one: each hands integrate_ranges
    its range tuples and no inputs, so the drive lays out its own first pass
    and the integrand evaluates aux and w at every node, and an aux weight
    keeps no first pass and no samples."""
    monkeypatch.setattr(spaces, "_first_request",
                        lambda todo, ranges, bounds, aux: (ranges(), None))


def _kept_layouts(aux):
    """The kept first passes of aux's chain, by their term kinds (True: ambient)."""
    return {key: val for key, val in aux.kept.items() if isinstance(key, tuple)}


def _kept_stores(aux):
    """The kept sample stores of aux's chain, by term kind (True: ambient)."""
    return {key: val for key, val in aux.kept.items() if not isinstance(key, tuple)}


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
    samples = aux.kept[True]
    # one array per part: aux^(p-1) at every first-request node of its own range
    assert len(samples) == len(aux.parts)
    for r, weight in zip(spaces.aux_ranges(us[0], aux), samples):
        x, _ = quadrature.FirstPass([r]).nodes()
        assert _same_bits(weight, aux.ambient_weight(x))
    if name == "cascade":  # the first pass is more than one request
        assert sum(weight.size for weight in samples) > 15 * quadrature._MAX_REQUEST
    # the same drives with the plain density: aux evaluated at every node
    _plain_drives(monkeypatch)
    plain = build_aux_weight(w, p, st_, CFG)
    assert [_ambient_bits(u, w, plain, st_, p) for u in us + us] == got
    assert _kept_stores(plain) == {} and _kept_layouts(plain) == {}


def test_no_integrand_call_exceeds_one_request():
    # the 14-bump cascade's first pass is more than one request; the values
    # a drive supplies for it come in calls no larger than one request
    p = Exponent(2.0)
    w = _sampled_weight("cascade", p.p)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    u, sizes = _test_functions(w)[0], []

    def recording(g):
        def h(x):
            sizes.append(np.size(x))
            return g(x)
        return h

    v = TestFunction(fn=recording(u.fn), deriv=recording(u.deriv), tag="C1")
    poincare_global_check(v, w, aux, st_, p, CFG)
    relaxed_functional(v, w, aux, st_, p, CFG)
    assert sum(weight.size for weight in aux.kept[True]) > 15 * quadrature._MAX_REQUEST
    assert max(sizes) <= 15 * quadrature._MAX_REQUEST


def test_second_ambient_drive_calls_aux_at_no_first_pass_node(figure1_chain, monkeypatch):
    w, st_, _ = figure1_chain
    aux = build_aux_weight(w, Exponent(2.0), st_, CFG)
    seen, state = [], {"first": False}
    call, drive = AuxWeight.__call__, spaces.integrate_ranges

    def recording(self, x):  # who asked (through ambient_weight), and in which request
        seen.append((sys._getframe(2).f_code.co_name, state["first"], np.array(x, dtype=float)))
        return call(self, x)

    def driving(f, ranges, cfg=None, inputs=None):
        def g(x, index, *given):
            state["first"] = bool(given)
            out = f(x, index, *given)
            state["first"] = False
            return out
        return drive(g, ranges, cfg, inputs)

    monkeypatch.setattr(AuxWeight, "__call__", recording)
    monkeypatch.setattr(spaces, "integrate_ranges", driving)
    second, first = _test_functions(w)  # the spline refines, so aux is called again
    lp_aux_norm(first, aux, CFG)
    # the samples are one aux call at every first-request node of aux's own
    # ranges: their layout nodes, then the pieces that the quarter points
    # and the kinks of w cut from them
    x, _ = quadrature.FirstPass(spaces.aux_ranges(first, aux)).nodes()
    assert seen[0][:2] == ("_kept_pass", False) and np.array_equal(seen[0][2], x)
    assert all(c == "f" and not in_first for c, in_first, _ in seen[1:])
    assert _same_bits(np.concatenate(aux.kept[True]), aux.ambient_weight(x))
    seen.clear()
    norm = lp_aux_norm(second, aux, CFG)
    # the second drive calls aux only in its refinement rounds
    assert seen and all(c == "f" and not in_first for c, in_first, _ in seen)
    assert _bits(norm) == _bits(
        sum(_plain_ambient(second, aux, [0.0] * 3, CFG), IntegralResult.finite(0.0, 0.0)))


_SIX = ("lp_aux_norm", "seminorm_energy", "check_membership", "space_norm",
        "poincare_global_check", "relaxed_functional")


def _six(u, w, st_, aux, p, order=_SIX):
    """The six per-u questions, asked of u in `order`, as bit strings by name."""
    out = {}
    for name in order:
        if name == "lp_aux_norm":
            out[name] = _bits(lp_aux_norm(u, aux, CFG))
        elif name == "seminorm_energy":
            out[name] = _bits(seminorm_energy(u, w, st_, p, CFG))
        elif name == "check_membership":
            rep = check_membership(u, w, st_, p, CFG)
            out[name] = (rep.in_space, _bits(rep.seminorm), [_bits(r) for r in rep.per_interval])
        elif name == "space_norm":
            out[name] = float(space_norm(u, w, aux, st_, p, CFG)).hex()
        elif name == "poincare_global_check":
            rep = poincare_global_check(u, w, aux, st_, p, CFG)
            out[name] = ([(a.hex(), b.hex()) for a, b in rep.per_interval], rep.lhs.hex(),
                         rep.rhs.hex(), rep.ratio.hex(), rep.ok)
        else:
            rel = relaxed_functional(u, w, aux, st_, p, CFG)
            out[name] = (rel.kind, rel.value.hex())
    return out


def _chain_bits(us, w, st_, aux, p):
    """Each u asked the six questions twice, then a copy of it asked them in
    the reverse order (its own drives, of other terms, on the same chain)."""
    return [[_six(v, w, st_, aux, p, order) for v, order in
             ((u, _SIX), (u, _SIX), (replace(u), _SIX[::-1]))] for u in us]


def test_a_chain_keeps_its_first_pass_and_changes_no_bit(sampled_chain, monkeypatch):
    name, w, st_, p = sampled_chain
    aux = build_aux_weight(w, p, st_, CFG)
    us = _test_functions(w) + [poly_function([0.5, -1.0, 0.25, 0.75]), constant_function(0.5)]
    got = _chain_bits(us, w, st_, aux, p)
    # the structure drives' first passes: the battery's order, then the
    # reverse order's relaxed value and its shifted term alone
    assert set(_kept_layouts(aux)) == {(True, False, True), (True, False), (True,)}
    assert set(_kept_stores(aux)) == {True, False}
    assert len(aux.kept[True]) == len(aux.kept[False]) == len(aux.parts)
    # the same questions with plain drives: every first pass laid out, and
    # aux and w evaluated at every node
    _plain_drives(monkeypatch)
    plain = build_aux_weight(w, p, st_, CFG)
    assert _chain_bits(us, w, st_, plain, p) == got
    assert _kept_layouts(plain) == {} and _kept_stores(plain) == {}


def test_second_drive_calls_w_at_no_first_pass_node(figure1_chain, monkeypatch):
    w, st_, _ = figure1_chain
    p = Exponent(2.0)
    aux = build_aux_weight(w, p, st_, CFG)
    seen, layouts, call, lay_out = [], [], type(w).__call__, quadrature._first_pass

    def recording(self, x):  # w's calls from the integrand and from the kept samples
        caller = sys._getframe(1).f_code.co_name
        if caller in ("f", "_kept_pass"):
            seen.append((caller, np.array(x, dtype=float)))
        return call(self, x)

    monkeypatch.setattr(type(w), "__call__", recording)
    monkeypatch.setattr(quadrature, "_first_pass", lambda pts: layouts.append(1) or lay_out(pts))
    second, first = _test_functions(w)  # the spline refines, so w is called again
    lp_aux_norm(first, aux, CFG)
    # the first drive lays out its first pass, and w is sampled at its energy
    # ranges' first-pass nodes in one call; the integrand reads those samples
    assert len(layouts) == 1
    x, _ = quadrature.FirstPass(spaces.energy_ranges(first, w, st_)).nodes()
    assert [c for c, _ in seen].count("_kept_pass") == 1 and np.array_equal(seen[0][1], x)
    assert all(not np.isin(y, x).any() for c, y in seen if c == "f")
    assert _same_bits(np.concatenate(aux.kept[False]), np.asarray(call(w, x), dtype=float))
    seen.clear()
    layouts.clear()
    lp_aux_norm(second, aux, CFG)
    later = np.concatenate([y for _, y in seen])
    assert layouts == [] and [c for c, _ in seen].count("_kept_pass") == 0
    assert later.size and not np.isin(later, x).any()
    # the energy read from that drive is a plain drive's, bit for bit
    plain = seminorm_energy(replace(second), w, st_, p, CFG)  # no aux: a drive of its own
    assert len(layouts) == 1
    assert _bits(seminorm_energy(second, w, st_, p, CFG)) == _bits(plain)


def test_the_chain_memo_dies_with_its_aux_weight(figure1_chain):
    w, st_, _ = figure1_chain
    aux = build_aux_weight(w, Exponent(2.0), st_, CFG)
    u = _test_functions(w)[0]
    lp_aux_norm(u, aux, CFG)
    layout, = _kept_layouts(aux).values()
    assert layout.pieces[0].size  # the kept samples hold the pieces' too
    kept = (aux, layout, aux.kept[False][0], aux.kept[True][0])
    refs = [weakref.ref(obj) for obj in kept]
    del aux, layout, u, kept  # u's memo holds the aux weight its terms were integrated against
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


@pytest.mark.parametrize("name", ["grid", "piecewise"])
def test_second_drive_calls_aux_and_w_at_no_node_of_its_first_request(name, monkeypatch):
    # a grid (a kink at every node) and a piecewise power weight (a removable
    # zero at 0.4, kinks there and at 0.75): the first u's drive samples
    # aux^(p-1) and w at the pieces of the kept first pass too, and a second
    # u's drive lays out nothing and calls neither at any node of its first
    # request
    p = Exponent(2.0)
    w = _sampled_weight("grid", p.p) if name == "grid" else PiecewisePowerWeight(
        Interval(0.0, 1.0), [PowerPiece(0.0, 0.4, 2.0, 0.4, 0.3),
                             PowerPiece(0.4, 0.75, 0.5, 0.4, 0.3),
                             PowerPiece(0.75, 1.0, 0.5 * 0.35 ** -0.3, 0.4, 0.6)])
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    second, first = _test_functions(w)
    lp_aux_norm(first, aux, CFG)
    layout = aux.kept[(True, False, True)]
    x, index = layout.nodes()
    n = len(aux.parts)
    energy = (index >= n) & (index < 2 * n)
    _, pindex = layout.nodes(pieces=True)
    assert (pindex < n).any() and ((pindex >= n) & (pindex < 2 * n)).any()
    seen, layouts = {"aux": [], "w": []}, []
    aux_call, w_call, lay_out = AuxWeight.__call__, type(w).__call__, quadrature._first_pass

    def recording(call, kind):
        def g(self, y):
            seen[kind].append(np.array(y, dtype=float))
            return call(self, y)
        return g

    monkeypatch.setattr(AuxWeight, "__call__", recording(aux_call, "aux"))
    monkeypatch.setattr(type(w), "__call__", recording(w_call, "w"))
    monkeypatch.setattr(quadrature, "_first_pass", lambda pts: layouts.append(1) or lay_out(pts))
    norm = lp_aux_norm(second, aux, CFG)
    monkeypatch.undo()
    # no first pass laid out, and so none cut; aux at no node of the ambient
    # terms' first request, w at none of the energy's
    assert layouts == [] and seen["aux"]
    for kind, nodes in (("aux", x[~energy]), ("w", x[energy])):
        assert not any(np.isin(y, nodes).any() for y in seen[kind])
    # and every answer is a plain drive's, bit for bit
    plain = _plain_ambient(second, aux, [0.0] * len(aux.parts), CFG)
    assert _bits(norm) == _bits(sum(plain, IntegralResult.finite(0.0, 0.0)))


def test_a_member_drive_keeps_no_first_pass(figure1_chain, p2, monkeypatch):
    w, st_, _ = figure1_chain
    aux = build_aux_weight(w, p2, st_, CFG)
    u = poly_function([0.2, 1.0, -0.5])
    relaxed_functional(u, w, aux, st_, p2, CFG)
    lp_aux_norm(u, aux, CFG)
    kept = _kept_layouts(aux)
    assert set(kept) == {(True, False)}  # the relaxed value's drive; lp_aux_norm reads it
    drives = count_drives(monkeypatch)
    build_approx_sequence(u, w, aux, st_, p2, h_max=32, cfg=CFG)
    # the member drive is the only one, and the aux weight keeps nothing of it
    assert len(drives) == 1 and len(drives[0]) > 2 * len(aux.parts)
    assert _kept_layouts(aux).keys() == kept.keys()
    assert all(aux.kept[k] is kept[k] for k in kept)


def test_a_second_structure_drive_builds_no_range(figure1_chain, monkeypatch):
    # the chain's own drive knows itself by identity: only its first drive
    # builds range tuples (for the first pass it lays out), a later u's
    # drive reads the kept one and cuts nothing
    w, st_, _ = figure1_chain
    aux = build_aux_weight(w, Exponent(2.0), st_, CFG)
    calls = {}
    for name in ("density_cuts", "aux_ranges", "energy_ranges"):
        def counting(*args, orig=getattr(spaces, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args)
        monkeypatch.setattr(spaces, name, counting)
    second, first = _test_functions(w)
    lp_aux_norm(first, aux, CFG)
    # the ambient and shifted terms' ranges, and the energy's; each cut per part
    n = len(aux.parts)
    assert calls == {"aux_ranges": 2, "energy_ranges": 1, "density_cuts": 3 * n}
    calls.clear()
    lp_aux_norm(second, aux, CFG)
    seminorm_energy(second, w, st_, Exponent(2.0), CFG)  # read from the drive above
    assert calls == {}


def test_an_energy_over_the_chain_structure_reads_w_from_its_store(monkeypatch):
    # u with breakpoints of its own: its energy over aux.structure is on the
    # chain's layout but not the chain's own drive.  On a fresh chain the
    # drive first samples the store (w at every first-request node of the
    # chain's energy ranges, uncut by u); then its layout nodes read w from
    # the store, and w is called, before the drive, exactly at the pieces
    # that u's breakpoints and the kinks of w cut
    p = Exponent(2.0)
    w = _sampled_weight("removable", p.p)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    spline = _test_functions(w)[0]
    u = replace(spline, breakpoints=(0.2, 0.55, 0.7))
    seen, drives, state = [], [], {"first": False}
    call, drive = type(w).__call__, spaces.integrate_ranges

    def recording(self, x):
        seen.append((sys._getframe(1).f_code.co_name, state["first"], np.array(x, dtype=float)))
        return call(self, x)

    def driving(f, layout, cfg=None, inputs=None):
        def g(x, index, *given):
            state["first"] = bool(given)
            out = f(x, index, *given)
            state["first"] = False
            return out
        drives.append((layout, inputs))
        return drive(g, layout, cfg, inputs)

    monkeypatch.setattr(type(w), "__call__", recording)
    monkeypatch.setattr(spaces, "integrate_ranges", driving)
    for v in (u, replace(u, breakpoints=(0.3, 0.45))):  # a fresh chain, then a kept store
        seen.clear()
        drives.clear()
        got, = spaces.density_integrals([("energy", v, st_)], w, p.p, aux, CFG)
        (layout, inputs), = drives
        if v is u:  # the store: w at the first-request nodes of the chain's own ranges
            (caller, in_first, x), *seen = seen
            own, _ = quadrature.FirstPass(spaces.energy_ranges(spline, w, st_)).nodes()
            assert caller == "_kept_pass" and not in_first and np.array_equal(x, own)
            assert _same_bits(np.concatenate(aux.kept[False]), np.asarray(call(w, x), dtype=float))
        assert len(inputs) == len(aux.parts) and layout.pieces[0].size
        for given, kept, n in zip(inputs, aux.kept[False], layout.sizes):
            assert _same_bits(given[:n], kept[:n])  # the store's layout nodes, their bits
        (caller, in_first, x), *rest = seen
        assert caller == "_first_request" and not in_first
        assert np.array_equal(x, layout.nodes(pieces=True)[0])
        assert all(c == "f" and not in_first for c, in_first, _ in rest)
        # a plain drive's results, bit for bit
        with monkeypatch.context() as plain_only:
            _plain_drives(plain_only)
            plain, = spaces.density_integrals([("energy", replace(v), st_)], w, p.p, aux, CFG)
        assert [_bits(r) for r in got] == [_bits(r) for r in plain]


def test_poly_function_matches_numpy_polyval():
    # polyval's own recurrence, bit for bit: negative x, -0.0 and infinities
    # (where x * 0 reads NaN) included, for arrays and 0-d inputs
    rng = np.random.default_rng(3)
    x = np.concatenate((rng.uniform(-3.0, 3.0, 200), [0.0, -0.0, 1e300, -1e-300,
                                                      math.inf, -math.inf]))
    for coeffs in ([2.5], [0.0, 1.0], [1.0, -2.0, 0.5], [-0.0, 3.0, 0.0, -1.25, 7.0],
                   rng.normal(size=9).tolist()):
        u = poly_function(coeffs)
        c = np.asarray(coeffs, dtype=float)
        dc = np.array([k * c[k] for k in range(1, c.size)]) if c.size > 1 else np.zeros(1)
        for fn, cc in ((u, c), (u.d, dc)):
            with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, 1e300 ** 8
                want = np.polynomial.polynomial.polyval(x, cc)
                np.testing.assert_array_equal(fn(x).view(np.int64), want.view(np.int64))
                for v in (-0.0, -2.0, math.inf):
                    want = np.polynomial.polynomial.polyval(np.asarray(v), cc)
                    assert np.asarray(fn(v)).tobytes() == np.asarray(want).tobytes()
