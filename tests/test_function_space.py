"""Ambient norm, membership, Poincare checks, endpoint behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    AuxWeight,
    Exponent,
    QuadratureConfig,
    ac_extension_check,
    build_aux_weight,
    check_membership,
    detect_structure,
    endpoint_vanishing_check,
    log_edge_function,
    lp_aux_norm,
    poincare_global_check,
    pointwise_poincare_check,
    poly_function,
    random_test_functions,
    seminorm_energy,
    space_norm,
    spline_function,
    sqrt_edge_function,
)

CFG = QuadratureConfig()


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
