"""Seeded workloads: generators, the package calls each case makes, and its oracle.

A workload yields rounds of cases.  Round r of a workload is a pure function
of (seed, r), and every round has the same composition of case kinds, so a
run that stops at a round boundary always holds the same mix.  Each case has

* `run()`: the package calls that are timed;
* `check(out)`: the oracle, returning a list of failure notes (empty = pass);
  `out` is the value run() returned or the exception it raised;
* `digest(out)`: a canonical string of the outputs, to compare a traced
  pass with an untraced one;
* `defect`: the ROADMAP item whose known defect this case exposes, or "".

References never come from the package's quadrature: see exact.py.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import degenrelax as dr
from exact import (Piece, energy_integrand_poly, grid_integral, pieces_integral,
                   poly_power_integral, rel_err)

P_VALUES = (1.5, 2.0, 3.0)
EXACT_TOL = 1e-6        # relative error allowed for energies against a closed form
# relative error allowed for auxiliary-weight values: integrals of sigma across a
# removable zero miss the quadrature's 1e-10 target by up to ~1e-4 at baseline
AUX_TOL = 1e-3
INDETERMINATE_BAND = 0.1  # |alpha/(p-1) - 1| within which "indeterminate" is a right answer
CFG = dr.QuadratureConfig()


@dataclass
class Case:
    cid: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str] = repr
    defect: str = ""


@dataclass
class Truth:
    """Structure a generator built in: intervals with endpoint integrability."""

    intervals: list            # (lo, hi, lo_integrable, hi_integrable)
    removable: Optional[list] = None  # removable zero locations, None = not checked
    tol: float = 1e-9
    zero_ap: list = field(default_factory=list)  # alpha/(p-1) at each zero
    lo_value: Optional[float] = None  # exact aux value at the first interval's left end


# ---------------------------------------------------------------------------
# weights with exact descriptions


@dataclass
class Problem:
    """A weight, its exponent, the truth about it, and a lazily built chain."""

    name: str
    w: object
    p: object
    truth: Truth
    pieces: Optional[list] = None     # exact.Piece list when w is a sum of power pieces
    grid: Optional[tuple] = None      # (xs, ws) when w is a grid weight
    st: object = None
    aux: object = None

    def chain(self):
        if self.aux is None:
            self.st = dr.detect_structure(self.w, self.p, CFG)
            self.aux = dr.build_aux_weight(self.w, self.p, self.st, CFG)
        return self.st, self.aux

    def exact_energy(self, du_coeffs) -> Optional[float]:
        """Integral of |u'|^p w over the domain when it has a closed form."""
        q = energy_integrand_poly(du_coeffs, self.p.p)
        if q is None:
            return None
        if self.grid is not None:
            return grid_integral(self.grid[0], self.grid[1], q)
        dom = self.w.domain
        return pieces_integral(self.pieces, q, dom.lo, dom.hi)


def ap_of(expo: float, p: float) -> float:
    return math.inf if expo == math.inf else expo / (p - 1.0)


def figure1_problem(amp: float, p: float, wrap) -> Problem:
    w = wrap(dr.ClosedFormWeight(
        fn=lambda x, a=amp: a * (1.0 - x * x) ** 2, domain=dr.Interval(-2.0, 2.0),
        family="figure1", params={"amp": amp},
        zeros=(dr.ZeroInfo(-1.0, 2.0, 2.0), dr.ZeroInfo(1.0, 2.0, 2.0))))
    poly = (1.0, 0.0, -2.0, 0.0, 1.0)   # (1 - x^2)^2
    pieces = [Piece(-2.0, 2.0, amp, 0.0, 0.0, poly)]
    return Problem(f"figure1-p{p}", w, dr.Exponent(p),
                   Truth([(-2.0, -1.0, True, False), (-1.0, 1.0, False, False),
                          (1.0, 2.0, False, True)], []), pieces=pieces)


def power_problem(amp: float, alpha: float, p: float, wrap) -> Problem:
    def fn(x, a=amp, e=alpha):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, a * np.abs(x) ** e, 0.0)

    w = wrap(dr.ClosedFormWeight(fn=fn, domain=dr.Interval(0.0, 1.0), family="power",
                                 params={"alpha": alpha, "amp": amp},
                                 zeros=(dr.ZeroInfo(0.0, None, alpha),)))
    return Problem(f"power-p{p}", w, dr.Exponent(p),
                   Truth([(0.0, 1.0, ap_of(alpha, p) < 1.0, True)], []),
                   pieces=[Piece(0.0, 1.0, amp, 0.0, alpha)])


# Cost-relevant parameters come from fixed schedules indexed by the case's place
# in the round; the seed jitters them by a few percent and draws everything else.
# The seed then changes the inputs without changing how much work they are.
BELOW = (0.4, 0.55, 0.7)   # alpha/(p-1) of removable or integrable zeros
ABOVE = (1.4, 1.7, 2.0)    # alpha/(p-1) of splitting or non-integrable zeros
DECADES = (-1.0, 0.0, 1.0)


def _exponent(rng, p: float, below: bool, k: int, cap: float = math.inf) -> float:
    """alpha with alpha/(p-1) within 5% of BELOW[k] or ABOVE[k], at most cap."""
    ap = (BELOW if below else ABOVE)[k % 3] * rng.uniform(0.95, 1.05)
    return float(min(ap * (p - 1.0), cap))


def _amp(rng, k: int) -> float:
    """An amplitude within 0.1 decade of 10^DECADES[k]."""
    return float(10.0 ** (DECADES[k % 3] + rng.uniform(-0.1, 0.1)))


def piecewise_problem(rng, p: float, wrap, k: int) -> Problem:
    """Removable zero, zero region, splitting zero and an edge zero on (0, 1).

    (0, z1) and (z1, g0) meet at a removable zero z1; (g0, g1) is uncovered
    (w == 0); (g1, c) rises from a zero at g1; (c, s) and (s, 1) meet at a
    splitting zero s.  Scales span decades.  w is continuous at c: a jump of
    w inside an interval puts aux values off by up to ~2e-3 at baseline, more
    than AUX_TOL, because each branch mesh segment gets one Kronrod panel.
    """
    z1 = rng.uniform(0.1, 0.14)
    g0 = rng.uniform(0.23, 0.27)
    g1 = rng.uniform(0.37, 0.41)
    c = rng.uniform(0.52, 0.56)
    s = rng.uniform(0.73, 0.77)
    e1, e2 = _exponent(rng, p, True, k), _exponent(rng, p, True, k + 1)
    e3 = _exponent(rng, p, k % 2 == 0, k)
    e4 = _exponent(rng, p, False, k + 1)
    e5 = _exponent(rng, p, (k // 2) % 2 == 0, k + 2)
    m = np.array([_amp(rng, k + i) for i in range(5)])
    m[3] = m[2] * (c - g1) ** e3 / (s - c) ** e4
    spec = [(0.0, z1, m[0], z1, e1), (z1, g0, m[1], z1, e2), (g1, c, m[2], g1, e3),
            (c, s, m[3], s, e4), (s, 1.0, m[4], s, e5)]
    spec = [tuple(float(v) for v in row) for row in spec]
    w = wrap(dr.PiecewisePowerWeight(
        dr.Interval(0.0, 1.0), [dr.PowerPiece(lo, hi, sc, pv, e) for lo, hi, sc, pv, e in spec]))
    truth = Truth([(0.0, g0, True, True),
                   (g1, s, ap_of(e3, p) < 1.0, False),
                   (s, 1.0, ap_of(e5, p) < 1.0, True)], [z1])
    return Problem(f"pp-p{p}", w, dr.Exponent(p), truth,
                   pieces=[Piece(lo, hi, sc, pv, e) for lo, hi, sc, pv, e in spec])


def grid_problem(rng, n: int, p: float, wrap, k: int, expo: Optional[float] = None) -> Problem:
    """Samples of amp * |x^2 - 1|^e * (1 + 0.3 sin(3x + phase)) on n cells of (-2, 2).

    The zeros at +-1 are grid nodes and split the domain (alpha/(p-1) >= 1.3)
    unless `expo` pins the exponent, e.g. onto the threshold.  Exponents stay
    at or below 3: samples under 1e-14 of the peak read as zero, and a steeper
    zero would look like a zero region on the finest grids.
    """
    e = _exponent(rng, p, False, k, cap=3.0) if expo is None else expo
    amp = _amp(rng, k)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    xs = np.linspace(-2.0, 2.0, n + 1)
    ws = amp * np.abs(xs * xs - 1.0) ** e * (1.0 + 0.3 * np.sin(3.0 * xs + phase))
    w = wrap(dr.GridSampledWeight(xs, ws))
    split = ap_of(e, p) >= 1.0
    truth = Truth([(-2.0, -1.0, True, False), (-1.0, 1.0, False, False), (1.0, 2.0, False, True)]
                  if split else [(-2.0, 2.0, True, True)], None, tol=1e-12,
                  zero_ap=[ap_of(e, p)])
    return Problem(f"grid{n}-p{p}", w, dr.Exponent(p), truth, grid=(xs, ws))


def check_structure(st, truth: Truth) -> list:
    notes = []
    if st.count != len(truth.intervals):
        return [f"structure has {st.count} intervals, expected {len(truth.intervals)}"]
    for k, (iv, (lo, hi, li, hi_i)) in enumerate(zip(st.intervals, truth.intervals)):
        if abs(iv.lo - lo) > truth.tol or abs(iv.hi - hi) > truth.tol:
            notes.append(f"interval {k} is ({iv.lo!r}, {iv.hi!r}), expected ({lo}, {hi})")
        if iv.lo_class.integrable != li or iv.hi_class.integrable != hi_i:
            notes.append(f"interval {k} integrability ({iv.lo_class.integrable}, "
                         f"{iv.hi_class.integrable}), expected ({li}, {hi_i})")
    if truth.removable is not None:
        got = sorted(z.location for z in st.removable_zeros)
        if len(got) != len(truth.removable) or any(
                abs(a - b) > truth.tol for a, b in zip(got, sorted(truth.removable))):
            notes.append(f"removable zeros {got}, expected {sorted(truth.removable)}")
    return notes


# ---------------------------------------------------------------------------
# test functions: (kind, coefficients or knots, scale)


@dataclass(frozen=True)
class USpec:
    kind: str          # "spline" | "poly"
    data: tuple        # poly: ascending coefficients; spline: (xs, ys)
    scale: float

    def build(self):
        if self.kind == "poly":
            return dr.poly_function([self.scale * c for c in self.data], label="u")
        xs, ys = self.data
        return dr.spline_function(xs, [self.scale * y for y in ys], label="u")

    def du_coeffs(self):
        """Coefficients of u' when u is a polynomial, else None."""
        if self.kind != "poly":
            return None
        c = np.asarray(self.data, dtype=float) * self.scale
        return [k * c[k] for k in range(1, c.size)] or [0.0]


def spline_spec(rng, dom, scale: float) -> USpec:
    xs = tuple(float(v) for v in np.linspace(dom.lo, dom.hi, 9))
    ys = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=9))
    return USpec("spline", (xs, ys), scale)


def poly_spec(rng, degree: int, scale: float) -> USpec:
    c = rng.uniform(-1.0, 1.0, size=degree + 1)
    c[1] = math.copysign(rng.uniform(0.5, 2.0), c[1])  # keep u' away from zero
    return USpec("poly", tuple(float(v) for v in c), scale)


# u slots: (kind, degree, scale decade range or fixed scale, known defect)
TINY, HUGE = 1e-10, 1e12


def u_from_slot(rng, slot, dom) -> tuple:
    kind, degree, scale, defect = slot
    if isinstance(scale, tuple):
        scale = 10.0 ** rng.uniform(*scale)
    if kind == "spline":
        return spline_spec(rng, dom, scale), defect
    return poly_spec(rng, degree, scale), defect


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# battery


BATTERY_SLOTS = (
    ("spline", 0, 1.0, ""),
    ("poly", 1, 1.0, ""),
    ("spline", 0, (-2.0, -1.0), ""),
    ("poly", 2, 1.0, ""),
    ("spline", 0, (1.0, 2.0), ""),
    ("poly", 1, TINY, "item0-scale"),
    ("spline", 0, 1.0, ""),
    ("poly", 1, (-2.0, 2.0), ""),
    ("spline", 0, 1.0, ""),
    ("poly", 3, (-1.0, 1.0), ""),
    ("spline", 0, 1.0, ""),
    ("poly", 1, HUGE, "item0-scale"),
)


def battery(seed: int, wrap, workdir: str):
    """12 (weight, p) problems; round r gives problem j the u slot (j + r) mod 12."""
    rng = np.random.default_rng([seed, 1])
    problems = []
    for j in range(12):
        p = P_VALUES[j % 3]
        fam = j // 3
        if fam == 0:
            problems.append(figure1_problem(_amp(rng, j), p, wrap))
        elif fam == 1:
            alpha = _exponent(rng, p, j % 2 == 0, j)
            problems.append(power_problem(_amp(rng, j), alpha, p, wrap))
        elif fam == 2:
            problems.append(piecewise_problem(rng, p, wrap, j))
        else:
            # 128 cells keep a grid case near 0.3 s; the structure workload covers 1k-16k
            problems.append(grid_problem(rng, 128, p, wrap, j))

    def round_cases(r: int) -> list:
        rr = np.random.default_rng([seed, 1, r])
        out = []
        for j, prob in enumerate(problems):
            uspec, defect = u_from_slot(rr, BATTERY_SLOTS[(j + r) % 12], prob.w.domain)
            out.append(_battery_case(f"battery/r{r}/{prob.name}/{uspec.kind}", prob, uspec, defect))
        return out

    return round_cases


def _battery_case(cid, prob: Problem, uspec: USpec, defect: str) -> Case:
    def run():
        st, aux = prob.chain()
        u = uspec.build()
        lp = dr.lp_aux_norm(u, aux, CFG)
        semi = dr.seminorm_energy(u, prob.w, st, prob.p, CFG)
        poinc = dr.poincare_global_check(u, prob.w, aux, st, prob.p, CFG)
        rel = dr.relaxed_functional(u, prob.w, aux, st, prob.p, CFG)
        return lp, semi, poinc, rel

    def check(out):
        if isinstance(out, BaseException):
            return [f"raised {type(out).__name__}: {out}"]
        lp, semi, poinc, rel = out
        notes = check_structure(prob.st, prob.truth)
        if not poinc.ok:
            notes.append(f"poincare ratio {poinc.ratio!r} fails")
        if not (lp.is_finite and lp.value > 0.0):
            notes.append(f"ambient norm {lp.kind} {lp.value!r}")
        if not (rel.is_finite and semi.is_finite and rel.value == semi.value):
            notes.append(f"relaxed {rel.kind} {rel.value!r} vs seminorm {semi.kind} {semi.value!r}")
        du = uspec.du_coeffs()
        want = prob.exact_energy(du) if du is not None else None
        if want is not None and rel_err(semi.value if semi.is_finite else math.inf, want) > EXACT_TOL:
            notes.append(f"seminorm {semi.value!r} vs exact {want!r}")
        return notes

    def digest(out):
        lp, semi, poinc, rel = out
        return repr((lp, semi, poinc.lhs, poinc.rhs, poinc.ok, rel))

    return Case(cid, run, check, digest, defect)


# ---------------------------------------------------------------------------
# structure


def closed_form_problem(rng, p: float, wrap, k: int) -> Problem:
    """Metadata-free amp * x^a * (L - x)^b * (1 + 0.5 x / L) on (0, L): scan path.

    Exponents stay at or below 3: the scan reads samples under 1e-14 of the
    peak as zero, and a steeper zero would look like a zero region there.
    """
    L = float(rng.uniform(0.5, 2.0))
    a = _exponent(rng, p, k % 2 == 0, k, cap=3.0)
    b = _exponent(rng, p, (k // 2) % 2 == 0, k + 1, cap=3.0)
    amp = _amp(rng, k)

    def fn(x, L=L, a=a, b=b, amp=amp):
        x = np.clip(x, 0.0, L)
        return amp * x ** a * (L - x) ** b * (1.0 + 0.5 * x / L)

    w = wrap(dr.ClosedFormWeight(fn=fn, domain=dr.Interval(0.0, L), family="scan"))
    truth = Truth([(0.0, L, ap_of(a, p) < 1.0, ap_of(b, p) < 1.0)], [], tol=1e-9 * L)
    return Problem(f"scan-p{p}", w, dr.Exponent(p), truth)


def log_problem(gamma: float, amp: float, wrap) -> Problem:
    """Metadata-free amp * x * |log x|^gamma on (0, 1/2) at p = 2.

    alpha/(p-1) = 1 exactly; the left end is integrable iff gamma > 1, with
    half integral 1 / (amp * ln 4) for gamma = 2 (ROADMAP item 3).
    """
    def fn(x, g=gamma, a=amp):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, a * x * np.abs(np.log(np.maximum(x, 1e-300))) ** g, 0.0)

    w = wrap(dr.ClosedFormWeight(fn=fn, domain=dr.Interval(0.0, 0.5), family="xlog"))
    truth = Truth([(0.0, 0.5, gamma > 1.0, True)], [], tol=1e-12,
                  lo_value=amp * math.log(4.0) if gamma > 1.0 else 0.0)
    return Problem(f"xlog{gamma:g}-p2", w, dr.Exponent(2.0), truth)


def cascade_problem(p: float, wrap, k: int) -> Problem:
    ap = (1.25, 1.5, 2.0, 2.5, 3.0)[k % 5]
    bumps = 3 + k % 6
    pe = dr.Exponent(p)
    w = wrap(dr.builtin_cascade(ap * (p - 1.0), pe, bumps))
    ivs = [(1.0 - 2.0 ** (-(i - 1)), 1.0 - 2.0 ** (-i), False, False) for i in range(1, bumps + 1)]
    pieces = [Piece(q.lo, q.hi, 2.0 ** q.log2_scale, q.pivot, q.exponent) for q in w.pieces]
    return Problem(f"cascade{bumps}-p{p}", w, pe, Truth(ivs, [], tol=1e-15), pieces=pieces)


def sigma_integral(prob: Problem, lo: float, hi: float) -> float:
    """Closed-form integral of w^(-1/(p-1)) over [lo, hi]; inf when it diverges."""
    inv = 1.0 / (prob.p.p - 1.0)
    covered = 0.0
    total = 0.0
    for q in prob.pieces:
        a, b = max(lo, q.lo), min(hi, q.hi)
        if b <= a:
            continue
        covered += b - a
        e = -q.expo * inv
        if e <= -1.0 and min(abs(a - q.pivot), abs(b - q.pivot)) == 0.0:
            return math.inf
        total += q.scale ** (-inv) * poly_power_integral((1.0,), q.pivot, e, a, b)
    if covered < (hi - lo) * (1.0 - 1e-12):
        return math.inf  # part of the span lies in a zero region
    return total


def check_aux_exact(prob: Problem, aux, bounds) -> list:
    """Branch limits, plateau and endpoint values against closed-form sigma integrals."""
    notes = []
    for k, part in enumerate(aux.parts):
        iv = part.base
        m, q1, q3 = iv.mid, part.q1, part.q3
        lo_i = sigma_integral(prob, iv.lo, m)
        hi_i = sigma_integral(prob, m, iv.hi)
        want = {
            "plateau": 1.0 / sigma_integral(prob, q1, q3),
            "left_limit": 1.0 / sigma_integral(prob, q1, m),
            "right_limit": 1.0 / sigma_integral(prob, m, q3),
            "lo_value": 0.0 if math.isinf(lo_i) else 1.0 / lo_i,
            "hi_value": 0.0 if math.isinf(hi_i) else 1.0 / hi_i,
        }
        for key, val in want.items():
            if rel_err(getattr(part, key), val) > AUX_TOL:
                notes.append(f"interval {k} {key} {getattr(part, key)!r} vs exact {val!r}")
        sup_i, inf_i = bounds.per_interval[k]
        if rel_err(sup_i, max(want["left_limit"], want["right_limit"], want["plateau"])) > AUX_TOL:
            notes.append(f"interval {k} sup {sup_i!r}")
        if rel_err(inf_i, min(want["plateau"], want["lo_value"], want["hi_value"])) > AUX_TOL:
            notes.append(f"interval {k} inf {inf_i!r}")
        # one point on each outer branch: aux(x) = 1 / integral of sigma between x and mid
        xl = iv.lo + 0.3 * (q1 - iv.lo)
        xr = iv.hi - 0.3 * (iv.hi - q3)
        for x, val in ((xl, 1.0 / sigma_integral(prob, xl, m)),
                       (xr, 1.0 / sigma_integral(prob, m, xr))):
            got = float(part.left.values(np.array([x - iv.lo]))[0]) if x < m else \
                float(part.right.values(np.array([iv.hi - x]))[0])
            if rel_err(got, val) > AUX_TOL:
                notes.append(f"interval {k} branch value at {x!r}: {got!r} vs exact {val!r}")
    return notes


# round of 12: weights described exactly (piecewise power, cascades), the scan
# path, three grids, a grid on the integrability threshold, and a log-corrected
# zero (item 3).  Over a cycle of four rounds the grids take 1k, 2k, 4k, 8k and
# 16k cells, smaller ones more often, so at least 11 grids sit in the tail.
STRUCTURE_SLOTS = ("pp", "cascade", "scan", "grid", "pp", "scan",
                   "grid", "cascade", "scan", "xlog", "grid-threshold", "grid")
GRID_SIZES = ((1024, 2048, 4096), (1024, 2048, 8192), (1024, 2048, 16384), (1024, 4096, 8192))


def structure(seed: int, wrap, workdir: str):
    def round_cases(r: int) -> list:
        rr = np.random.default_rng([seed, 2, r])
        out = []
        for k, slot in enumerate(STRUCTURE_SLOTS):
            p = P_VALUES[(r + k) % 3]
            idx = r * len(STRUCTURE_SLOTS) + k
            defect = ""
            if slot == "pp":
                prob = piecewise_problem(rr, p, wrap, idx)
            elif slot == "cascade":
                prob = cascade_problem(p, wrap, idx)
            elif slot == "scan":
                prob = closed_form_problem(rr, p, wrap, idx)
            elif slot == "grid":
                n = GRID_SIZES[r % len(GRID_SIZES)][STRUCTURE_SLOTS[:k].count("grid")]
                prob = grid_problem(rr, n, p, wrap, idx)
            elif slot == "grid-threshold":
                # at p = 1.5 the sampled square-root zero is estimated outside the
                # 0.02 guard or inside it depending on the phase (item 3); p = 2, 3 only
                p = P_VALUES[1 + r % 2]
                prob = grid_problem(rr, 1024, p, wrap, idx, expo=p - 1.0)
            else:
                prob = log_problem(1.0 + r % 2, _amp(rr, r), wrap)
                defect = "item3-log"
            out.append(_structure_case(f"structure/r{r}/{k}/{prob.name}", prob, defect))
        return out

    return round_cases


def _structure_case(cid, prob: Problem, defect: str) -> Case:
    def run():
        prob.st = dr.detect_structure(prob.w, prob.p, CFG)
        prob.aux = dr.build_aux_weight(prob.w, prob.p, prob.st, CFG)
        return prob.st, prob.aux, dr.aux_global_bounds(prob.aux)

    def check(out):
        if isinstance(out, dr.IndeterminateIntegrabilityError):
            # an honest "cannot call it" is right only near the threshold
            zero_ap = prob.truth.zero_ap
            if zero_ap and all(abs(a - 1.0) <= INDETERMINATE_BAND for a in zero_ap):
                return []
            return [f"indeterminate away from the threshold: {out}"]
        if isinstance(out, BaseException):
            return [f"raised {type(out).__name__}: {out}"]
        st, aux, bounds = out
        notes = check_structure(st, prob.truth)
        if prob.pieces is not None and not notes:
            notes += check_aux_exact(prob, aux, bounds)
        want_lo = prob.truth.lo_value
        if want_lo is not None and not notes and rel_err(aux.parts[0].lo_value, want_lo) > AUX_TOL:
            notes.append(f"lo_value {aux.parts[0].lo_value!r} vs exact {want_lo!r}")
        if not (math.isfinite(bounds.sup) and bounds.sup > 0.0):
            notes.append(f"aux sup {bounds.sup!r}")
        return notes

    def digest(out):
        if isinstance(out, BaseException):
            return f"{type(out).__name__}: {out}"
        st, aux, bounds = out
        return repr((st, [(pt.plateau, pt.lo_value, pt.hi_value, pt.left_limit, pt.right_limit)
                          for pt in aux.parts], bounds))

    return Case(cid, run, check, digest, defect)



# ---------------------------------------------------------------------------
# recovery


def two_tent_problem(amp: float, p: float, wrap) -> Problem:
    """Two quadratic bumps separated by a dead band: the intervals meet across a gap."""
    spec = [(0.05, 0.225, 0.05), (0.225, 0.4, 0.4), (0.6, 0.775, 0.6), (0.775, 0.95, 0.95)]
    w = wrap(dr.PiecewisePowerWeight(
        dr.Interval(0.0, 1.0), [dr.PowerPiece(lo, hi, amp, pv, 2.0) for lo, hi, pv in spec],
        family="two_tent"))
    return Problem(f"two_tent-p{p}", w, dr.Exponent(p),
                   Truth([(0.05, 0.4, False, False), (0.6, 0.95, False, False)], []),
                   pieces=[Piece(lo, hi, amp, pv, 2.0) for lo, hi, pv in spec])


def unit_problem(amp: float, p: float, wrap) -> Problem:
    w = wrap(dr.PiecewisePowerWeight(dr.Interval(0.0, 1.0), [dr.PowerPiece(0.0, 1.0, amp, 0.0, 0.0)],
                                     family="unit"))
    return Problem(f"unit-p{p}", w, dr.Exponent(p), Truth([(0.0, 1.0, True, True)], []),
                   pieces=[Piece(0.0, 1.0, amp, 0.0, 0.0)])


JUNCTIONS = {"figure1": ("touching", "touching"), "two_tent": ("gap",), "unit": ()}

# u slot and finest mesh per approximation case; round r gives problem j slot (j + r) mod 9
RECOVERY_SLOTS = (
    (("spline", 0, 1.0, ""), 96),
    (("poly", 1, 1.0, ""), 128),
    (("spline", 0, 1.0, ""), 128),
    (("poly", 2, (-1.0, 1.0), ""), 96),
    (("spline", 0, (-1.0, 1.0), ""), 96),
    (("poly", 1, TINY, "item0-scale"), 128),
    (("spline", 0, 1.0, ""), 96),
    (("poly", 1, (-1.0, 1.0), ""), 128),
    (("spline", 0, 1.0, ""), 128),
)
CASCADE_BUMPS = (4, 6, 8, 10, 12, 14, 16, 18, 20)
POLY_F_REL = 0.02


def recovery(seed: int, wrap, workdir: str):
    """9 (weight, p) problems for the recovery sequence plus 3 cascade sums per round."""
    rng = np.random.default_rng([seed, 3])
    problems = []
    for make in (figure1_problem, two_tent_problem, unit_problem):
        for p in P_VALUES:
            problems.append(make(_amp(rng, len(problems)), p, wrap))

    def round_cases(r: int) -> list:
        rr = np.random.default_rng([seed, 3, r])
        out = []
        for j, prob in enumerate(problems):
            slot, h_max = RECOVERY_SLOTS[(j + r) % 9]
            uspec, defect = u_from_slot(rr, slot, prob.w.domain)
            out.append(_recovery_case(f"recovery/r{r}/{prob.name}/{uspec.kind}-h{h_max}",
                                      prob, uspec, h_max, defect))
            if j % 3 == 2:
                p = P_VALUES[(r + j // 3) % 3]
                ap = (1.25, 1.5, 2.0, 2.5)[(3 * r + j // 3) % 4]
                bumps = CASCADE_BUMPS[(3 * r + j // 3) % len(CASCADE_BUMPS)]
                out.append(_cascade_case(f"recovery/r{r}/cascade{bumps}-p{p}", ap, p, bumps))
        return out

    return round_cases


def _recovery_case(cid, prob: Problem, uspec: USpec, h_max: int, defect: str) -> Case:
    def run():
        st, aux = prob.chain()
        u = uspec.build()
        seq = dr.build_approx_sequence(u, prob.w, aux, st, prob.p, h_max=h_max, cfg=CFG)
        return seq, dr.verify_relaxation(seq)

    def check(out):
        if isinstance(out, BaseException):
            return [f"raised {type(out).__name__}: {out}"]
        seq, verdict = out
        notes = check_structure(prob.st, prob.truth)
        if uspec.kind == "spline" and not verdict.ok:
            notes.append(f"relaxation verdict fails: x_ok={verdict.x_ok} f_ok={verdict.f_ok} "
                         f"f_rel={verdict.f_rel!r}")
        # the verdict's halving tests misfire when the coarsest member of a smooth
        # (polynomial) u is already close, so polynomials get the final gaps only
        if uspec.kind == "poly" and not (verdict.x_ok and verdict.f_rel <= POLY_F_REL):
            notes.append(f"x_ok={verdict.x_ok} f_rel={verdict.f_rel!r}")
        if seq.junctions != JUNCTIONS[prob.w.family]:
            notes.append(f"junctions {seq.junctions}")
        if seq.h_values[0] != seq.h_min or seq.h_values[-1] != h_max:
            notes.append(f"mesh parameters {seq.h_values}")
        du = uspec.du_coeffs()
        want = prob.exact_energy(du) if du is not None else None
        if want is not None and rel_err(seq.f_limit, want) > EXACT_TOL:
            notes.append(f"relaxed limit {seq.f_limit!r} vs exact {want!r}")
        return notes

    def digest(out):
        seq, verdict = out
        return repr((seq.f_limit, seq.x_norm_u, verdict.rows))

    return Case(cid, run, check, digest, defect)


def _cascade_case(cid, ap: float, p: float, bumps: int) -> Case:
    def run():
        return dr.cascade_partial_sums(ap * (p - 1.0), dr.Exponent(p), bumps, CFG)

    def check(rep):
        if isinstance(rep, BaseException):
            return [f"raised {type(rep).__name__}: {rep}"]
        notes = []
        if any(c != ap for c in rep.comparison_log2):
            notes.append(f"comparison_log2 {set(rep.comparison_log2)} != alpha_p {ap}")
        spans = tuple((1.0 - 2.0 ** (-(i - 1)), 1.0 - 2.0 ** (-i)) for i in range(1, bumps + 1))
        if rep.spans != spans:
            notes.append("bump spans differ from the layout")
        if not rep.increasing or not all(math.isfinite(t) and t > 0.0 for t in rep.terms):
            notes.append(f"terms {rep.terms}")
        return notes

    def digest(rep):
        return repr((rep.terms, rep.partial_sums, rep.ratios))

    return Case(cid, run, check, digest)


# ---------------------------------------------------------------------------
# cli


CLI_SUBCOMMANDS = ("analyze", "aux", "poincare", "relax", "approx", "cascade")


def _write_spec(path: str, prob: Problem) -> str:
    spec = {"family": "piecewise_power", "domain": [prob.w.domain.lo, prob.w.domain.hi],
            "pieces": [{"lo": q.lo, "hi": q.hi, "scale": q.scale, "pivot": q.pivot,
                        "exponent": q.expo} for q in prob.pieces]}
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def _write_grid(path: str, prob: Problem) -> str:
    xs, ws = prob.grid
    with open(path, "w") as fh:
        fh.write("x,w\n")
        for x, v in zip(xs, ws):
            fh.write(f"{float(x)!r},{float(v)!r}\n")
    return path


def _scaled(prob: Problem, factor: float) -> Problem:
    pieces = [Piece(q.lo, q.hi, q.scale * factor, q.pivot, q.expo) for q in prob.pieces]
    return Problem(prob.name + "-scaled", prob.w, prob.p, prob.truth, pieces=pieces)


def cli(seed: int, wrap, workdir: str):
    """The six subcommands with README-style arguments, one subprocess per case.

    Spec and grid files are written once, per exponent.  Each round holds
    one invocation of every subcommand and exactly one case of the item-0
    defect: even rounds relax a tiny polynomial, odd rounds build the
    auxiliary weight of a weight scaled by 1e30.
    """
    rng = np.random.default_rng([seed, 4])
    ident = lambda w: w
    files = {}
    for k, p in enumerate(P_VALUES):
        pp = piecewise_problem(rng, p, ident, k)
        files[("pp", p)] = (_write_spec(os.path.join(workdir, f"pp-p{p}.json"), pp), pp)
        huge = _scaled(pp, 1e30)
        files[("huge", p)] = (_write_spec(os.path.join(workdir, f"huge-p{p}.json"), huge), huge)
        grid = grid_problem(rng, 1024, p, ident, k)
        files[("grid", p)] = (_write_grid(os.path.join(workdir, f"grid-p{p}.csv"), grid), grid)
    tent = two_tent_problem(1.0, 2.0, ident)
    tent_path = _write_spec(os.path.join(workdir, "two_tent.json"), tent)
    out_json = os.path.join(workdir, "out.json")
    out_csv = os.path.join(workdir, "out.csv")

    def round_cases(r: int) -> list:
        rr = np.random.default_rng([seed, 4, r])
        p = P_VALUES[r % 3]
        cases = []
        for sub in CLI_SUBCOMMANDS:
            argv, p_sub, check, defect = _cli_args(sub, r, p, rr, files, tent_path, out_csv)
            argv += ["--p", _fmt(p_sub), "--no-timestamp", "--out", out_json]
            cases.append(_cli_case(f"cli/r{r}/{sub}", argv, out_json,
                                   out_csv if "--csv" in argv else None, check, defect))
        return cases

    return round_cases


def _cli_args(sub, r, p, rng, files, tent_path, out_csv):
    """argv without the common flags, the exponent, the check on the output, the defect.

    A check takes the parsed JSON and the number of CSV data rows (None when
    the invocation writes no CSV).
    """
    if sub == "analyze":
        kind = ("figure1", "power", "pp", "grid")[r % 4]
        if kind == "figure1":
            return ["analyze", "--weight", "figure1"], p, _structure_check(
                figure1_problem(1.0, p, lambda w: w).truth), ""
        if kind == "power":
            alpha = _exponent(rng, p, r % 8 < 4, r)
            truth = Truth([(0.0, 1.0, ap_of(alpha, p) < 1.0, True)], [])
            return ["analyze", "--weight", f"power:alpha={alpha!r}"], p, _structure_check(truth), ""
        path, prob = files[(kind, p)]
        return ["analyze", "--weight", path], p, _structure_check(prob.truth), ""
    if sub == "aux":
        key = ("pp", p) if r % 2 == 0 else ("huge", 2.0)
        path, prob = files[key]
        return (["aux", "--weight", path, "--csv", out_csv, "--samples", "64"], key[1],
                _aux_check(prob), "" if r % 2 == 0 else "item0-scale")
    if sub == "poincare":
        alpha = _exponent(rng, p, r % 2 == 0, r)
        return ["poincare", "--weight", f"power:alpha={alpha!r}", "--count", "3",
                "--seed", str(int(rng.integers(1 << 30)))], p, _poincare_check, ""
    if sub == "relax":
        uspec = poly_spec(rng, 2, TINY if r % 2 == 0 else 1.0)
        coeffs = [uspec.scale * c for c in uspec.data]
        want = pieces_integral(figure1_problem(1.0, 2.0, lambda w: w).pieces,
                               energy_integrand_poly(uspec.du_coeffs(), 2.0), -2.0, 2.0)
        return (["relax", "--weight", "figure1", "--u", "poly:" + ",".join(map(_fmt, coeffs))],
                2.0, _relax_check(want), "item0-scale" if r % 2 == 0 else "")
    if sub == "approx":
        if r % 2 == 0:
            weight, dom = "figure1", dr.Interval(-2.0, 2.0)
        else:
            weight, dom = tent_path, dr.Interval(0.0, 1.0)
        sp = spline_spec(rng, dom, 1.0)
        knots = ",".join(f"{_fmt(x)}={_fmt(y)}" for x, y in zip(*sp.data))
        return (["approx", "--weight", weight, "--u", "spline:" + knots, "--h-max", "96",
                 "--csv", out_csv], p, _approx_check, "")
    ap = (1.25, 1.5, 2.0, 2.5)[r % 4]
    bumps = 4 + 2 * (r % 5)
    return (["cascade", "--alpha", _fmt(ap * (p - 1.0)), "--bumps", str(bumps), "--csv", out_csv],
            p, _cascade_cli_check(ap, bumps), "")


def _structure_check(truth: Truth):
    def check(doc, csv_rows=None):
        st = doc["structure"]
        got = [(iv["lo"], iv["hi"], iv["lo_class"]["integrable"], iv["hi_class"]["integrable"])
               for iv in st["intervals"]]
        if len(got) != len(truth.intervals):
            return [f"{len(got)} intervals, expected {len(truth.intervals)}"]
        return [f"interval {g} expected {t}" for g, t in zip(got, truth.intervals)
                if abs(g[0] - t[0]) > truth.tol or abs(g[1] - t[1]) > truth.tol
                or g[2:] != t[2:]]
    return check


def _aux_check(prob: Problem):
    def check(doc, csv_rows):
        notes = _structure_check(prob.truth)(doc)
        if notes:
            return notes
        for k, iv in enumerate(doc["intervals"]):
            lo, hi = iv["span"]
            m, q1, q3 = 0.5 * (lo + hi), lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
            for key, a, b in (("plateau", q1, q3), ("left_limit", q1, m), ("right_limit", m, q3)):
                want = 1.0 / sigma_integral(prob, a, b)
                if rel_err(float(iv[key]), want) > AUX_TOL:
                    notes.append(f"interval {k} {key} {iv[key]!r} vs exact {want!r}")
        return notes
    return check


def _poincare_check(doc, csv_rows):
    return [] if doc["ok"] and all(c["ok"] for c in doc["checks"]) else ["poincare check fails"]


def _relax_check(want: float):
    def check(doc, csv_rows):
        notes = []
        semi = doc["membership"]["seminorm"]
        for key, got in (("seminorm", semi), ("original", doc["original"]["value"]),
                         ("relaxed", doc["relaxed"]["value"])):
            if not isinstance(got, float) or rel_err(got, want) > EXACT_TOL:
                notes.append(f"{key} {got!r} vs exact {want!r}")
        return notes
    return check


def _approx_check(doc, csv_rows):
    notes = [] if doc["verdict"]["ok"] else [f"verdict {doc['verdict']}"]
    if csv_rows != len(doc["members"]):
        notes.append(f"{csv_rows} csv rows for {len(doc['members'])} members")
    return notes


def _cascade_cli_check(ap: float, bumps: int):
    def check(doc, csv_rows):
        notes = []
        if doc["bumps"] != bumps or any(c != ap for c in doc["comparison_log2"]):
            notes.append(f"comparison_log2 {set(doc['comparison_log2'])} != alpha_p {ap}")
        if not doc["increasing"]:
            notes.append("partial sums not increasing")
        if csv_rows != bumps:
            notes.append(f"{csv_rows} csv rows for {bumps} bumps")
        return notes
    return check


def _read(path: Optional[str]) -> bytes:
    if path is None or not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


@dataclass
class CliCase(Case):
    argv: list = field(default_factory=list)
    files: tuple = ()

    def outputs(self, rc: int) -> tuple:
        """Exit code and the bytes of every file the invocation wrote."""
        return (rc,) + tuple(_read(f) for f in self.files)


def _cli_case(cid, argv, out_json, out_csv, check_doc, defect) -> CliCase:
    files = (out_json, out_csv) if out_csv else (out_json,)

    def run():
        for f in files:
            if os.path.exists(f):
                os.remove(f)
        proc = subprocess.run([sys.executable, "-m", "degenrelax.cli"] + argv,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        return case.outputs(proc.returncode) + (proc.stderr,)

    def check(out):
        if isinstance(out, BaseException):
            return [f"raised {type(out).__name__}: {out}"]
        rc, body = out[0], out[1]
        if rc != 0:
            return [f"exit code {rc}: {out[-1].decode(errors='replace').strip()[-200:]}"]
        rows = max(len(out[2].decode().splitlines()) - 1, 0) if out_csv else None
        return check_doc(json.loads(body), rows)

    case = CliCase(cid, run, check, lambda out: repr(out[:-1]), defect, argv=argv, files=files)
    return case
