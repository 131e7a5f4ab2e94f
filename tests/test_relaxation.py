"""Energy functional, relaxation, and the AC approximation construction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from degenrelax import (
    Exponent,
    Interval,
    PiecewisePowerWeight,
    QuadratureConfig,
    TestFunction,
    UnsupportedStructureError,
    build_approx_sequence,
    build_aux_weight,
    builtin_cascade,
    detect_structure,
    log_edge_function,
    min_mesh_parameter,
    original_functional,
    poly_function,
    relaxed_functional,
    space_norm,
    spline_function,
    verify_relaxation,
)

from degenrelax.relaxation import _relaxed_parts

CFG = QuadratureConfig()


# ---------------------------------------------------------------------------
# functional values


def test_functionals_agree_on_smooth_unit_case(unit_chain, p2):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    orig = original_functional(u, w, p2, CFG)
    relax = relaxed_functional(u, w, aux, st_, p2, CFG)
    assert orig.kind == "finite" and orig.value == pytest.approx(1.0, abs=1e-12)
    assert relax.kind == "finite" and relax.value == pytest.approx(1.0, abs=1e-12)


def test_original_rejects_non_ac(figure1_chain, p2):
    w, st_, aux = figure1_chain
    xs = np.linspace(-2, 2, 64)
    u = TestFunction(fn=lambda x: np.interp(x, xs, np.tanh(xs)), deriv=None,
                     tag="Grid", label="table")
    val = original_functional(u, w, p2, CFG)
    assert val.kind == "infinite"
    assert "absolutely continuous" in val.reason


def test_relaxed_on_zero_structure(p2):
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [], family="null")
    st_ = detect_structure(w, p2, CFG)
    aux = build_aux_weight(w, p2, st_, CFG)
    val = relaxed_functional(poly_function([0.0]), w, aux, st_, p2, CFG)
    assert val.kind == "finite" and val.value == 0.0


def test_relaxed_infinite_outside_domain(figure1_chain, p2):
    # log blowup at the left edge fails the seminorm, so the envelope is +inf
    w, st_, aux = figure1_chain
    val = relaxed_functional(log_edge_function(w.domain), w, aux, st_, p2, CFG)
    assert val.kind == "infinite"


def test_relaxed_parts_always_hold_both_parts(unit_chain, p2):
    w, st_, aux = unit_chain
    xs = np.linspace(0.0, 1.0, 33)
    sampled = TestFunction(fn=lambda x: np.interp(x, xs, np.sin(3.0 * xs)), deriv=None,
                           tag="Grid", label="table")
    value, amb, member = _relaxed_parts(sampled, w, aux, st_, p2, CFG)
    assert value.reason == "sampled function carries no derivative; structure seminorm unavailable"
    assert amb.is_finite and not member.in_space
    # |u|^2 ~ x^-1.5 at the left end: outside the ambient space, and u' is
    # not square-integrable there either
    blowup = TestFunction(fn=lambda x: np.maximum(x, 1e-300) ** -0.75,
                          deriv=lambda x: -0.75 * np.maximum(x, 1e-300) ** -1.75, tag="AC")
    value, amb, member = _relaxed_parts(blowup, w, aux, st_, p2, CFG)
    assert value.reason == "u lies outside the ambient weighted space"
    assert not amb.is_finite
    assert not member.in_space and not member.seminorm.is_finite


def test_relaxed_below_original_on_figure1(figure1_chain, p2):
    # relaxation only sees the structure intervals; here they cover the whole
    # domain up to a null set, so the two integrals agree for smooth u
    w, st_, aux = figure1_chain
    u = spline_function([-2, -0.9, 0.4, 2], [0.0, 1.0, -0.3, 0.5])
    orig = original_functional(u, w, p2, CFG)
    relax = relaxed_functional(u, w, aux, st_, p2, CFG)
    assert relax.value <= orig.value * (1.0 + 1e-10)
    assert relax.value == pytest.approx(orig.value, rel=1e-8)


# ---------------------------------------------------------------------------
# mesh parameter and construction guards


def test_min_mesh_parameter(figure1_chain, two_tent_chain):
    # narrowest figure1 interval has width 1 -> h > 4 -> h_min 5
    assert min_mesh_parameter(figure1_chain[1]) == 5
    # two tents of width 0.35 -> floor(4/0.35) + 1 = 12
    assert min_mesh_parameter(two_tent_chain[1]) == 12


def test_rejects_sub_minimal_h(unit_chain, p2):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    with pytest.raises(ValueError):
        build_approx_sequence(u, w, aux, st_, p2, h_values=[3], cfg=CFG)


def test_rejects_truncated_families(p2):
    w = builtin_cascade(2.0, p2, 3)
    st_ = detect_structure(w, p2, CFG)
    aux = build_aux_weight(w, p2, st_, CFG)
    u = poly_function([0.0, 1.0])
    with pytest.raises(UnsupportedStructureError):
        build_approx_sequence(u, w, aux, st_, p2, h_max=64, cfg=CFG)


def test_rejects_functions_outside_relaxed_domain(figure1_chain, p2):
    w, st_, aux = figure1_chain
    with pytest.raises(ValueError):
        build_approx_sequence(log_edge_function(w.domain), w, aux, st_, p2,
                              h_max=16, cfg=CFG)


# ---------------------------------------------------------------------------
# the construction itself


def test_unit_case_connects_h_doubling(unit_chain, p2):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_max=64, cfg=CFG)
    assert seq.h_min == 5
    assert seq.h_values == (5, 10, 20, 40, 64)
    assert seq.junctions == ()


def test_members_pin_interval_midpoints(unit_chain, p2):
    # the rebuilt half antiderivatives anchor at u(mid) exactly
    w, st_, aux = unit_chain
    u = poly_function([0.3, -0.8, 1.1])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_values=[8], cfg=CFG)
    member = seq.members[0]
    assert float(member.fn(0.5)) == float(u(0.5))


def test_convergence_unit_case(unit_chain, p2):
    """Mesh doubling from h_min to 64 must shrink both error tracks.

    Final energy gap sits within 1 percent of the limit; the ambient error
    decreases monotonically along the whole ladder.
    """
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_max=64, cfg=CFG)
    xs = [m.x_err for m in seq.members]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert seq.members[-1].f_gap <= 0.01 * max(abs(seq.f_limit), 1e-12)
    v = verify_relaxation(seq)
    assert v.ok and v.x_ok and v.f_ok and v.f_rel_ok


def test_touching_seams_on_figure1(figure1_chain, p2):
    w, st_, aux = figure1_chain
    u = spline_function([-2, -1.2, -0.3, 0.5, 1.4, 2.0],
                        [0.3, -0.5, 0.8, 0.1, -0.4, 0.2])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_max=64, cfg=CFG)
    assert seq.junctions == ("touching", "touching")
    # both sides of each seam taper to zero: the one-sided values agree exactly
    assert all(m.seam_mismatch == 0.0 for m in seq.members)
    v = verify_relaxation(seq)
    assert v.ok
    # members are AC test functions usable everywhere in the domain
    m = seq.members[-1]
    assert m.fn.tag == "AC"
    vals = m.fn(np.linspace(-2, 2, 501))
    assert np.all(np.isfinite(vals))


def test_gap_junction_two_tent(two_tent_chain, p2):
    w, st_, aux = two_tent_chain
    u = spline_function([0.0, 0.2, 0.5, 0.8, 1.0], [0.1, 0.7, -0.2, 0.5, 0.0])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_max=64, cfg=CFG)
    assert seq.junctions == ("gap",)
    v = verify_relaxation(seq)
    assert v.ok, v
    # the connecting bridge lives where w == 0, so it costs no energy: the
    # member energy equals the energy restricted to the two tents
    m = seq.members[-1]
    assert m.f_gap <= 0.01 * max(abs(seq.f_limit), 1e-12)


def test_taper_stays_below_original(figure1_chain, p2):
    # near a divergent seam the taper multiplies u by (aux/ref)^(1/p) <= 1
    w, st_, aux = figure1_chain
    u = poly_function([2.0])  # constant 2, easy to compare against
    seq = build_approx_sequence(u, w, aux, st_, p2, h_values=[8], cfg=CFG)
    m = seq.members[0]
    xs = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 801)
    vals = np.abs(m.fn(xs))
    assert np.all(vals <= 2.0 + 1e-12)


def test_outside_intervals_members_are_constant(two_tent_chain, p2):
    w, st_, aux = two_tent_chain
    u = poly_function([0.0, 1.0])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_values=[16], cfg=CFG)
    m = seq.members[0]
    left = m.fn(np.linspace(0.0, 0.049, 9))
    assert np.allclose(left, left[0], rtol=0, atol=1e-14)
    right = m.fn(np.linspace(0.951, 1.0, 9))
    assert np.allclose(right, right[0], rtol=0, atol=1e-14)


def test_liminf_energy_bound(figure1_chain, p2):
    # no member far along the ladder may undershoot the relaxed limit by
    # more than the construction tolerance
    w, st_, aux = figure1_chain
    u = spline_function([-2, -1, 0, 1, 2], [0.2, -0.6, 0.9, -0.1, 0.4])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_max=64, cfg=CFG)
    tail = [m.f_value for m in seq.members if m.h >= 32]
    assert tail
    assert min(tail) >= 0.98 * seq.f_limit


def test_verdict_requires_all_three_conditions(unit_chain, p2):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_max=64, cfg=CFG)
    good = verify_relaxation(seq)
    assert good.ok
    first, *mid, last = seq.members
    # a final gap ten times wider passes 1% of the limit, still below half
    # the first gap: only the f_rel leg flips
    wide = replace(last, f_gap=10.0 * last.f_gap)
    strict = verify_relaxation(replace(seq, members=(first, *mid, wide)))
    assert strict.x_ok and strict.f_ok and not strict.f_rel_ok
    assert not strict.ok
    # a coarsest member no worse than the finest flips the fraction legs
    flat = replace(first, x_err=last.x_err, f_gap=last.f_gap)
    harsh = verify_relaxation(replace(seq, members=(flat, *mid, last)))
    assert not harsh.x_ok and not harsh.f_ok and harsh.f_rel_ok
    assert not harsh.ok


def test_explicit_h_values_respected(unit_chain, p2):
    w, st_, aux = unit_chain
    u = poly_function([0.0, 1.0])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_values=[6, 9, 27], cfg=CFG)
    assert seq.h_values == (6, 9, 27)
    assert [m.h for m in seq.members] == [6, 9, 27]


def test_x_norm_matches_ambient_norm_scale(figure1_chain, p2):
    # x_norm_u is measured with the same integral that measures x_err, so
    # the relative error x_err / x_norm_u is meaningful
    from degenrelax import lp_aux_norm
    w, st_, aux = figure1_chain
    u = spline_function([-2, -1, 0, 1, 2], [0.0, 0.8, -0.5, 0.3, 0.2])
    seq = build_approx_sequence(u, w, aux, st_, p2, h_values=[8], cfg=CFG)
    amb = lp_aux_norm(u, aux, CFG)
    assert seq.x_norm_u == pytest.approx(amb.value ** 0.5, rel=1e-12)


def test_verdict_is_free_of_the_scale_of_u(figure1_chain, p2):
    # the energy gap and its limit both scale as |c|^p: f_rel and every flag
    # must read the same from c = 1 down to c = 1e-12
    w, st_, aux = figure1_chain
    ys = np.array([0.0, 0.5, -1.0, 0.3, 0.0])
    verdicts = [verify_relaxation(build_approx_sequence(
        spline_function(np.linspace(-2.0, 2.0, 5), c * ys), w, aux, st_, p2, cfg=CFG))
        for c in (1.0, 1e-4, 1e-8, 1e-12)]
    for v in verdicts:
        assert v.f_rel == pytest.approx(verdicts[0].f_rel, rel=1e-9)
        assert (v.ok, v.x_ok, v.f_ok, v.f_rel_ok) == (
            verdicts[0].ok, verdicts[0].x_ok, verdicts[0].f_ok, verdicts[0].f_rel_ok)
