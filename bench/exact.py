"""Closed-form references for the benchmark's correctness checks.

Nothing here calls the package's quadrature.  Every weight the generators
build is a sum of pieces c * P(x) * |x - pivot|^e on spans that do not
cross their pivot (P a polynomial), or a piecewise-linear grid, so energies
of polynomial test functions integrate exactly:

    integral of P(x) |x - c|^e over [lo, hi]  =  sum_k b_k (t1^(k+e+1) - t0^(k+e+1)) / (k+e+1)

with P(c + s t) = sum_k b_k t^k, s the side of c that [lo, hi] lies on (a
span across c is split there), and t0, t1 the distances of its ends from c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial


@dataclass(frozen=True)
class Piece:
    """scale * P(x) * |x - pivot|^expo on [lo, hi]; P given by ascending coefficients."""

    lo: float
    hi: float
    scale: float
    pivot: float
    expo: float
    poly: tuple = (1.0,)


def poly_power_integral(coeffs, pivot: float, expo: float, lo: float, hi: float) -> float:
    """Integral of P(x) |x - pivot|^expo over [lo, hi]."""
    if lo < pivot < hi:
        return (poly_power_integral(coeffs, pivot, expo, lo, pivot)
                + poly_power_integral(coeffs, pivot, expo, pivot, hi))
    s = 1.0 if lo >= pivot else -1.0
    t0, t1 = sorted((abs(lo - pivot), abs(hi - pivot)))
    b = Polynomial(coeffs)(Polynomial([pivot, s])).coef
    total = 0.0
    for k, bk in enumerate(b):
        g = k + expo + 1.0
        total += bk * (t1 ** g - t0 ** g) / g
    return float(total)


def pieces_integral(pieces, coeffs, lo: float, hi: float) -> float:
    """Integral of Q(x) * w(x) over [lo, hi] for w given as pieces and Q as coefficients."""
    total = 0.0
    for q in pieces:
        a, b = max(lo, q.lo), min(hi, q.hi)
        if b <= a:
            continue
        prod = (Polynomial(coeffs) * Polynomial(q.poly)).coef
        total += q.scale * poly_power_integral(prod, q.pivot, q.expo, a, b)
    return total


def grid_integral(xs: np.ndarray, ws: np.ndarray, coeffs) -> float:
    """Integral of Q(x) times the linear interpolant of (xs, ws), cell by cell."""
    q = Polynomial(coeffs)
    q0 = q.integ()
    q1 = (q * Polynomial([0.0, 1.0])).integ()
    x0, x1 = xs[:-1], xs[1:]
    slope = (ws[1:] - ws[:-1]) / (x1 - x0)
    icpt = ws[:-1] - slope * x0
    return float(np.sum(icpt * (q0(x1) - q0(x0)) + slope * (q1(x1) - q1(x0))))


def energy_integrand_poly(du_coeffs, p: float):
    """Coefficients of |u'|^p as a polynomial, or None when it is not one.

    |u'|^2 is the square of u'; a constant u' = c gives |c|^p for every p.
    """
    d = np.trim_zeros(np.asarray(du_coeffs, dtype=float), "b")
    if d.size == 0:
        return [0.0]
    if d.size == 1:
        return [abs(float(d[0])) ** p]
    if p == 2.0:
        return list((Polynomial(d) ** 2).coef)
    return None


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    if not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want)
