"""Exact sigma primitives against 40-digit mpmath references.

Piecewise-power and grid weights integrate sigma = w^(-1/(p-1)) in closed
form (Weight.sigma_masses), and their auxiliary weight reads those masses.
The references here integrate the same weights with mpmath antiderivatives,
each float input taken exactly.
"""

import math

import numpy as np
import pytest

from degenrelax import (Exponent, GridSampledWeight, IndeterminateIntegrabilityError, Interval,
                        PiecewisePowerWeight, PowerPiece, build_aux_weight, builtin_cascade,
                        detect_structure)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40


def _mp_pieces_integral(w, pv, a, b):
    """Integral of sigma over [a, b] from each piece's power or log antiderivative."""
    inv = 1 / (mp.mpf(pv) - 1)
    total = mp.mpf(0)
    for q in w.pieces:
        s, e = max(a, q.lo), min(b, q.hi)
        if e <= s:
            continue
        scale = mp.mpf(2) ** (-inv * mp.mpf(q.log2scale)) if q.log2scale is not None \
            else mp.mpf(q.scale) ** -inv
        ap = q.exponent * inv
        pivot = mp.mpf(q.lo if q.exponent == 0.0 else q.pivot)
        d0, d1 = sorted((abs(mp.mpf(s) - pivot), abs(mp.mpf(e) - pivot)))
        if ap == 1:
            total += scale * (mp.log(d1) - mp.log(d0)) if d0 > 0 else mp.inf
        elif d0 == 0 and ap > 1:
            total += mp.inf
        else:
            total += scale * (d1 ** (1 - ap) - d0 ** (1 - ap)) / (1 - ap)
    return total


def _branch_points(aux, features, width, rng):
    """Points on the outer branches: each feature +- width * 10^-k for k = 1..12,
    and 40 seeded ones per interval."""
    near = [z + s * width * 10.0 ** -k for z in features for s in (-1.0, 1.0)
            for k in np.arange(1.0, 12.5, 0.5)]
    out = []
    for part in aux.parts:
        lo, hi = part.base.lo, part.base.hi
        xs = np.concatenate([near, rng.uniform(lo, hi, 40)])
        out.append(xs[(xs > lo) & (xs < hi) & ((xs < part.q1) | (xs > part.q3))])
    return out


def _strong_removable():
    return PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.1, 1.0, 0.1, 0.475),
                                                      PowerPiece(0.1, 1.0, 1.0, 0.1, 0.475)]), 1.5


PIECEWISE = {
    # 20 bumps, each interval's ends non-integrable pivots (alpha/(p-1) = 3)
    "cascade20": lambda: (builtin_cascade(3.0, Exponent(2.0), 20), 2.0),
    # alpha/(p-1) = 0.95 at 0.1: most of sigma's mass sits next to the zero
    "strong-removable": _strong_removable,
    # sigma = 1/x on (0, 1/2) (alpha/(p-1) = 1), then a zero integrable from the left at 1
    "log-piece": lambda: (PiecewisePowerWeight(Interval(0.0, 1.0), [
        PowerPiece(0.0, 0.5, 1.0, 0.0, 1.0), PowerPiece(0.5, 1.0, 2.0, 1.0, 0.5)]), 2.0),
    # w = x^-0.5 near 0 (sigma vanishes there), and a removable zero at 0.4
    "negative-exponent": lambda: (PiecewisePowerWeight(Interval(0.0, 1.0), [
        PowerPiece(0.0, 0.4, 1.0, 0.0, -0.5), PowerPiece(0.4, 1.0, 3.0, 0.4, 0.3)]), 2.0),
}


@pytest.mark.parametrize("case", sorted(PIECEWISE))
def test_piecewise_power_aux_matches_mpmath(case):
    w, pv = PIECEWISE[case]()
    p = Exponent(pv)
    st_ = detect_structure(w, p)
    aux = build_aux_weight(w, p, st_)
    features = sorted({e for q in w.pieces for e in (q.lo, q.hi, q.pivot)})
    rng = np.random.default_rng(3)
    for part, xs in zip(aux.parts, _branch_points(aux, features, w.domain.width, rng)):
        mid = part.base.mid
        want = [1 / _mp_pieces_integral(w, pv, x, mid) if x < mid
                else 1 / _mp_pieces_integral(w, pv, mid, x) for x in xs]
        np.testing.assert_allclose(aux(xs), np.array(want, dtype=float), rtol=1e-13, atol=0.0)
        for value, a, b in ((part.plateau, part.q1, part.q3), (part.left_limit, part.q1, mid),
                            (part.right_limit, mid, part.q3)):
            assert value == pytest.approx(float(1 / _mp_pieces_integral(w, pv, a, b)), rel=1e-13)
    assert len(aux.parts) == (20 if case == "cascade20" else 1)


def _mp_cell_integral(x0, x1, v0, v1, s, lo, hi):
    """Integral over [lo, hi] of (the line through (x0, v0), (x1, v1))^-s."""
    x0, x1, v0, v1, lo, hi = (mp.mpf(t) for t in (x0, x1, v0, v1, lo, hi))
    slope = (v1 - v0) / (x1 - x0)
    y0, y1 = v0 + slope * (lo - x0), v0 + slope * (hi - x0)
    if slope == 0:
        return (hi - lo) * y0 ** -s if y0 > 0 else mp.inf
    if min(y0, y1) == 0 and s >= 1:
        return mp.inf
    if s == 1:
        return (mp.log(y1) - mp.log(y0)) / slope
    return (y1 ** (1 - s) - y0 ** (1 - s)) / ((1 - s) * slope)


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_grid_cell_masses_match_mpmath(pv):
    # node values equal to 1e-12 relative, values of 1e-12 next to 1, zero
    # nodes and a zero cell: inf, never NaN, where sigma is not integrable
    pairs = [(1.0, 1.0 + 1e-12), (1.0 + 1e-12, 1.0), (1e-12, 1.0), (1.0, 1e-12),
             (1e-12, 1e-12 * (1.0 + 1e-12)), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (2.0, 2.0),
             (0.3, 7.0)]
    s = 1 / (mp.mpf(pv) - 1)
    x0, x1 = 0.2, 0.7
    spans = [(x0, x1), (x0, x0 + 1e-9), (x1 - 1e-9, x1), (0.3, 0.6), (x0 + 1e-13, 0.45)]
    lo, hi = (np.array(col) for col in zip(*spans))
    for v0, v1 in pairs:
        got = GridSampledWeight([x0, x1], [v0, v1]).sigma_masses(Exponent(pv))(lo, hi)
        assert not np.isnan(got).any()
        for g, a, b in zip(got, lo, hi):
            want = _mp_cell_integral(x0, x1, v0, v1, s, a, b)
            if mp.isinf(want):
                assert g == math.inf, (v0, v1, a, b)
            else:
                assert g == pytest.approx(float(want), rel=1e-14), (v0, v1, a, b)


def _origin_grid(n, a):
    xs = np.linspace(-1.0, 1.0, n)
    return GridSampledWeight(xs, np.abs(xs) ** a * (1.0 + 0.2 * np.cos(5.0 * xs)))


# the structure calls the zero at 0 removable from the samples' exponent, but
# the interpolant is linear there, so for p <= 2 sigma is not integrable next to it
SHOULD_HAVE_SPLIT = {(513, 0.3, 1.5), (513, 0.3, 2.0)}
# the samples' exponent sits on the threshold a/(p-1) = 1 (its estimates read
# 0.9986 and 0.9993), inside the guard band of a sampled zero
INDETERMINATE = {(513, 1.0, 2.0), (513, 2.0, 3.0)}


@pytest.mark.parametrize("n", [33, 129, 513])
@pytest.mark.parametrize("a", [0.3, 1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_grid_zero_at_the_origin_matches_the_interpolant(n, a, pv):
    w, p = _origin_grid(n, a), Exponent(pv)
    if (n, a, pv) in INDETERMINATE:
        with pytest.raises(IndeterminateIntegrabilityError):
            detect_structure(w, p)
        return
    st_ = detect_structure(w, p)
    if (n, a, pv) in SHOULD_HAVE_SPLIT:
        with pytest.raises(ArithmeticError, match="should have split here"):
            build_aux_weight(w, p, st_)
        return
    aux = build_aux_weight(w, p, st_)
    s = 1 / (mp.mpf(pv) - 1)
    xs, vs = w.x, w.values
    cells = [_mp_cell_integral(xs[i], xs[i + 1], vs[i], vs[i + 1], s, xs[i], xs[i + 1])
             for i in range(xs.size - 1)]

    def integral(a_, b_):
        """From a_ to b_ over whole cells and the two partial ones."""
        i, j = (int(np.searchsorted(xs, t, side="right")) - 1 for t in (a_, b_))
        if i == j:
            return _mp_cell_integral(xs[i], xs[i + 1], vs[i], vs[i + 1], s, a_, b_)
        return (_mp_cell_integral(xs[i], xs[i + 1], vs[i], vs[i + 1], s, a_, xs[i + 1])
                + mp.fsum(cells[i + 1:j])
                + (_mp_cell_integral(xs[j], xs[j + 1], vs[j], vs[j + 1], s, xs[j], b_)
                   if b_ > xs[j] else 0))

    rng = np.random.default_rng(n)
    for part, pts in zip(aux.parts, _branch_points(aux, [0.0], 2.0, rng)):
        mid = part.base.mid
        want = [1 / (integral(x, mid) if x < mid else integral(mid, x)) for x in pts]
        np.testing.assert_allclose(aux(pts), np.array(want, dtype=float), rtol=1e-13, atol=0.0)
