"""Energy functional, its relaxation, and explicit approximating sequences.

The original functional assigns the p-energy  integral of |u'|^p w  over the
whole domain to absolutely continuous (or C1) functions and +infinity to
anything rougher.  Its relaxation in the ambient norm weighted by the
auxiliary weight keeps the same integral expression but restricted to the
degeneracy structure, and its domain grows to every function with finite
structure seminorm and finite ambient norm.

build_approx_sequence() realizes the matching recovery construction: for a
mesh parameter h it mollifies u' inside each structure interval, rebuilds an
approximant from the midpoint out, tapers u to zero across touching interval
seams by the p-th root of the auxiliary weight ratio, bridges gaps linearly,
and freezes constants outside the structure.  Each member is a genuine AC
function whose ambient distance to u and energy gap are measured and
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .auxweight import AuxWeight
from .degeneracy import DegeneracyStructure
from .quadrature import (DEFAULT_CONFIG, IntegralResult, QuadratureConfig, integrate,
                         integrate_ranges)
from .spaces import (MembershipReport, TestFunction, aux_ranges, check_membership,
                     density_cuts, energy_density, energy_ranges, energy_values, lp_aux_norm,
                     mass_values)
from .weights import Exponent, Interval, Weight


class UnsupportedStructureError(RuntimeError):
    """The structure is a truncation stand-in for an infinite family."""


@dataclass(frozen=True)
class FunctionalValue:
    """Value of an energy functional: finite with a number, or infinite with a reason."""

    kind: str  # "finite" | "infinite"
    value: float
    reason: str = ""

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @staticmethod
    def finite(value: float) -> "FunctionalValue":
        return FunctionalValue("finite", float(value))

    @staticmethod
    def infinite(reason: str) -> "FunctionalValue":
        return FunctionalValue("infinite", math.inf, reason)


def original_functional(u: TestFunction, w: Weight, p: Exponent,
                        cfg: Optional[QuadratureConfig] = None) -> FunctionalValue:
    """p-energy of u against w over the whole domain; +inf off AC/C1 functions."""
    cfg = cfg or DEFAULT_CONFIG
    if u.tag not in ("AC", "C1"):
        return FunctionalValue.infinite("not absolutely continuous")
    dom = w.domain
    zeros = [z.location for z in w.known_zeros() or ()]
    zeros += [c for region in w.zero_regions() for c in region]
    res = integrate(energy_density(u, w, p.p), dom.lo, dom.hi, cfg,
                    breakpoints=density_cuts(u, w, dom.lo, dom.hi, zeros))
    if not res.is_finite:
        return FunctionalValue.infinite("energy integral diverges")
    return FunctionalValue.finite(res.value)


def relaxed_functional(u: TestFunction, w: Weight, aux: AuxWeight,
                       structure: DegeneracyStructure, p: Exponent,
                       cfg: Optional[QuadratureConfig] = None) -> FunctionalValue:
    """Relaxation of the p-energy in the auxiliary-weighted ambient norm.

    Empty structure (w vanishing a.e.): the ambient space collapses and the
    relaxation is identically 0.  Otherwise the value is the structure
    seminorm when both it and the ambient norm of u are finite, else +inf.
    """
    if structure.kind == "zero":
        return FunctionalValue.finite(0.0)
    return _relaxed_parts(u, w, aux, structure, p, cfg)[0]


def _relaxed_parts(u: TestFunction, w: Weight, aux: AuxWeight,
                   structure: DegeneracyStructure, p: Exponent,
                   cfg: Optional[QuadratureConfig] = None
                   ) -> tuple[FunctionalValue, IntegralResult, MembershipReport]:
    """relaxed_functional on a nonempty structure, with the ambient integral
    and the membership report it is decided on."""
    cfg = cfg or DEFAULT_CONFIG
    amb = lp_aux_norm(u, aux, cfg)
    member = check_membership(u, w, structure, p, cfg)
    if u.tag == "Grid":
        value = FunctionalValue.infinite(
            "sampled function carries no derivative; structure seminorm unavailable")
    elif not amb.is_finite:
        value = FunctionalValue.infinite("u lies outside the ambient weighted space")
    elif not member.in_space:
        value = FunctionalValue.infinite("derivative energy diverges on the structure")
    else:
        value = FunctionalValue.finite(member.seminorm.value)
    return value, amb, member


# ---------------------------------------------------------------------------
# approximating sequences


def min_mesh_parameter(structure: DegeneracyStructure) -> int:
    """Smallest integer h with 1/h strictly below a quarter of every interval width."""
    if not structure.intervals:
        raise ValueError("empty structure has no admissible mesh parameter")
    wmin = min(iv.width for iv in structure.intervals)
    return int(math.floor(4.0 / wmin)) + 1


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class _MollifiedAntiderivative:
    """Mollified derivative v_h of u on one interval and its exact antiderivative.

    v_h is the average of u' against a quartic bump of support width 1/h
    (radius 1/(2h)), windows clipped near the interval ends and renormalized
    by the clipped kernel mass, multiplied by a cutoff that vanishes within
    1/h^2 of the ends (so v_h has compact support inside the interval).
    Values live on a uniform grid of spacing about 1/(16h) whose two halves
    share the midpoint node; between nodes v_h is linear and the
    antiderivative is its exact piecewise-quadratic integral, so the
    reconstruction pins the midpoint value exactly and differentiates back
    to v_h everywhere.
    """

    def __init__(self, u: TestFunction, lo: float, hi: float, h: int):
        r = 0.5 / h
        delta = 1.0 / (h * h)  # cutoff margin; h is admissible so r < (hi-lo)/8
        inset = 0.5 * delta
        mid = 0.5 * (lo + hi)
        step = 1.0 / (16.0 * h)
        n_l = max(int(math.ceil((mid - lo) / step)), 8)
        n_r = max(int(math.ceil((hi - mid) / step)), 8)
        grid = np.concatenate([np.linspace(lo, mid, n_l + 1),
                               np.linspace(mid, hi, n_r + 1)[1:]])
        self.grid = grid
        self.mid_index = n_l

        wa = np.maximum(grid - r, lo + inset)
        wb = np.minimum(grid + r, hi - inset)
        half = 0.5 * (wb - wa)
        mid_w = 0.5 * (wa + wb)
        ys = mid_w[:, None] + half[:, None] * _GL_NODES[None, :]
        s = (grid[:, None] - ys) / r
        kern = np.where(np.abs(s) <= 1.0, (15.0 / 16.0) * (1.0 - s * s) ** 2, 0.0) / r
        du = u.d(ys.ravel()).reshape(ys.shape)
        num = (kern * du * _GL_WEIGHTS).sum(axis=1) * half
        den = (kern * _GL_WEIGHTS).sum(axis=1) * half
        v = num / np.maximum(den, 1e-300)

        dist = np.minimum(grid - lo, hi - grid)
        chi = np.clip((dist - delta) / delta, 0.0, 1.0)
        self.v = v * chi

        dg = np.diff(grid)
        self.cum = np.concatenate([[0.0], np.cumsum(0.5 * (self.v[1:] + self.v[:-1]) * dg)])
        self.c_mid = float(self.cum[self.mid_index])
        self.u_mid = float(u(np.array([mid]))[0])

    def _cum_at(self, x: np.ndarray) -> np.ndarray:
        g = self.grid
        j = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
        t = x - g[j]
        dg = g[j + 1] - g[j]
        vx = self.v[j] + (self.v[j + 1] - self.v[j]) * (t / dg)
        return self.cum[j] + 0.5 * (self.v[j] + vx) * t

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).astype(float).ravel()
        out = self.u_mid + (self._cum_at(flat) - self.c_mid)
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

    def deriv(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.grid, self.v)


_CONST, _IDENT, _TAPER, _REBUILT, _BRIDGE = range(5)


class _Member:
    """The recovery member at mesh parameter h (module docstring), as a table.

    An interval side with a touching neighbour is tapered, one without is
    rebuilt.  Branch i covers [start[i], end[i]); a point goes to the last
    branch starting at or before it.  Columns a and b by branch kind:

    ==========  =============================  =======================
    kind        a                              b
    ==========  =============================  =======================
    _CONST      the value                      0 (the derivative)
    _IDENT      -                              -
    _TAPER      aux at the reference point     +1 rising, -1 falling
    _REBUILT    interval index in `rebuilt`    -
    _BRIDGE     value at start                 slope
    ==========  =============================  =======================

    Each falling taper's value at its seam overrides the value there, and
    seam_mismatch is the worst gap between that and the rising taper's
    limit on the other side.
    """

    def __init__(self, u: TestFunction, aux: AuxWeight, structure: DegeneracyStructure,
                 dom: Interval, pp: float, h: int, junctions: tuple):
        self.u, self.aux, self.pinv, self.pp = u, aux, 1.0 / pp, pp
        ivs = structure.intervals
        r = 1.0 / h
        # per interval: does each side touch the neighbor?  The first interval's
        # left side and the last one's right side never do.
        touch_left = [False] + [j == "touching" for j in junctions]
        touch_right = [j == "touching" for j in junctions] + [False]
        self.rebuilt = rebuilt = [
            None if tl and tr else _MollifiedAntiderivative(u, iv.lo, iv.hi, h)
            for iv, tl, tr in zip(ivs, touch_left, touch_right)]
        rows = []  # (start, end, kind, a, b), a taper's a its reference point
        if ivs[0].lo > dom.lo:
            rows.append((dom.lo, ivs[0].lo, _CONST, float(rebuilt[0].value(ivs[0].lo)), 0.0))
        for k, iv in enumerate(ivs):
            if touch_left[k]:
                rows += [(iv.lo, iv.lo + r, _TAPER, iv.lo + r, 1.0),
                         (iv.lo + r, iv.mid, _IDENT, 0.0, 0.0)]
            else:
                rows.append((iv.lo, iv.mid, _REBUILT, k, 0.0))
            if touch_right[k]:
                rows += [(iv.mid, iv.hi - r, _IDENT, 0.0, 0.0),
                         (iv.hi - r, iv.hi, _TAPER, iv.hi - r, -1.0)]
            else:
                rows.append((iv.mid, iv.hi, _REBUILT, k, 0.0))
            if k + 1 < len(ivs) and junctions[k] == "gap":
                g_lo, g_hi = iv.hi, ivs[k + 1].lo
                y0 = float(rebuilt[k].value(g_lo))
                y1 = float(rebuilt[k + 1].value(g_hi))
                rows.append((g_lo, g_hi, _BRIDGE, y0, (y1 - y0) / (g_hi - g_lo)))
        if ivs[-1].hi < dom.hi:
            rows.append((ivs[-1].hi, dom.hi, _CONST, float(rebuilt[-1].value(ivs[-1].hi)), 0.0))

        self.start, self.end, kind, self.a, self.b = (np.array(c) for c in zip(*rows))
        self.kind = kind.astype(np.intp)
        taper = np.flatnonzero(self.kind == _TAPER)
        self.a[taper] = aux(self.a[taper])
        sign = self.b[taper]
        seam = np.where(sign > 0, self.start[taper], self.end[taper])
        lim = self._taper(seam, self.a[taper], sign, False).tolist()
        self.overrides = {x: v for x, v, s in zip(seam.tolist(), lim, sign) if s < 0}
        self.seam_mismatch = max([abs(self.overrides.get(x, v) - v)
                                  for x, v, s in zip(seam.tolist(), lim, sign) if s > 0],
                                 default=0.0)

    def _taper(self, x, ref, sign, deriv: bool):
        """u scaled by (aux/ref)^(1/p), or its derivative."""
        wx = np.asarray(self.aux(x), dtype=float)
        factor = np.maximum(wx / ref, 0.0) ** self.pinv
        if not deriv:
            return self.u(x) * factor
        sx = np.asarray(self.aux.sigma(x), dtype=float)
        return factor * (self.u.d(x) + self.u(x) * sign * wx * sx / self.pp)

    def _eval(self, x, deriv: bool):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).astype(float).ravel()
        out = np.empty(flat.shape)
        i = np.clip(np.searchsorted(self.start, flat, side="right") - 1, 0, self.kind.size - 1)
        kind = self.kind[i]
        for k in np.flatnonzero(np.bincount(kind, minlength=_BRIDGE + 1)):
            sel = np.flatnonzero(kind == k)
            xs, a, b = flat[sel], self.a[i[sel]], self.b[i[sel]]
            if k == _IDENT:
                out[sel] = self.u.d(xs) if deriv else self.u(xs)
            elif k == _TAPER:
                out[sel] = self._taper(xs, a, b, deriv)
            elif k == _REBUILT:
                iv = a.astype(np.intp)
                for j in np.flatnonzero(np.bincount(iv)):
                    at = np.flatnonzero(iv == j)
                    t = self.rebuilt[j]
                    out[sel[at]] = t.deriv(xs[at]) if deriv else t.value(xs[at])
            elif deriv:
                out[sel] = b
            else:
                out[sel] = a if k == _CONST else a + b * (xs - self.start[i[sel]])
        if not deriv:
            for xo, vo in self.overrides.items():
                out[flat == xo] = vo
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

    def __call__(self, x):
        return self._eval(x, False)

    def deriv(self, x):
        return self._eval(x, True)


@dataclass(frozen=True)
class ApproxMember:
    h: int
    fn: TestFunction
    x_err: float          # ambient distance to u
    f_value: float        # energy of the member over the whole domain
    f_gap: float          # |f_value - relaxed limit|
    seam_mismatch: float  # worst one-sided value gap at touching seams


@dataclass(frozen=True)
class ApproxSequence:
    u_label: str
    h_values: tuple
    members: tuple
    f_limit: float        # relaxed energy of u, the target of f_value
    x_norm_u: float       # ambient norm of u, the scale for x_err
    junctions: tuple      # "touching" | "gap" between consecutive intervals
    h_min: int


def build_approx_sequence(u: TestFunction, w: Weight, aux: AuxWeight,
                          structure: DegeneracyStructure, p: Exponent,
                          h_values: Optional[Sequence[int]] = None, h_max: int = 64,
                          cfg: Optional[QuadratureConfig] = None) -> ApproxSequence:
    """Explicit AC approximants of u converging in the ambient norm with energies
    converging to the relaxed value.

    Refuses truncation stand-ins for infinite families (the relaxation
    formula is only established for genuinely finite structures) and
    functions outside the relaxed domain.
    """
    cfg = cfg or DEFAULT_CONFIG
    if structure.kind == "infinite_truncated":
        raise UnsupportedStructureError(
            "the weight marks itself as a truncation of an infinite family; "
            "approximating sequences are only constructed for finite structures")
    if structure.kind == "zero" or not structure.intervals:
        raise ValueError("empty structure: nothing to approximate against")
    h_min = min_mesh_parameter(structure)
    if h_values is None:
        hs = [h_min]
        while hs[-1] * 2 <= max(h_max, h_min):
            hs.append(hs[-1] * 2)
        if hs[-1] < h_max:
            hs.append(h_max)
    else:
        hs = sorted(int(h) for h in set(h_values))
        bad = [h for h in hs if h < h_min]
        if bad:
            raise ValueError(f"mesh parameters {bad} violate the strict bound h >= {h_min}")
    f_lim, amb_u, _ = _relaxed_parts(u, w, aux, structure, p, cfg)
    if not f_lim.is_finite:
        raise ValueError(f"u outside the relaxed domain: {f_lim.reason}")
    x_norm_u = amb_u.value ** (1.0 / p.p)  # same norm that measures x_err

    ivs = structure.intervals
    dom = w.domain
    tol = 1e-12 * dom.width
    junctions = tuple(
        "touching" if abs(ivs[k + 1].lo - ivs[k].hi) <= tol else "gap"
        for k in range(len(ivs) - 1))

    # diagnostics compare percent-level quantities; relax the budget accordingly
    diag_cfg = replace(cfg, rel_tol=max(cfg.rel_tol, 1e-7), abs_tol=max(cfg.abs_tol, 1e-12))

    # one drive for every member: its ambient ranges, then its energy ranges
    # (over every branch but the constant ones), with index -> member
    pws = [_Member(u, aux, structure, dom, p.p, h, junctions) for h in hs]
    ubars, ranges, bounds, owner, energy = [], [], [], [], []
    for k, (h, pw) in enumerate(zip(hs, pws)):
        bps = sorted(set(pw.start.tolist()) | set(pw.end.tolist())
                     | {iv.mid for iv in ivs} | set(u.breakpoints))
        ubars.append(TestFunction(fn=pw, deriv=pw.deriv, tag="AC", label=f"{u.label or 'u'}~h{h}",
                                  breakpoints=tuple(b_ for b_ in bps if dom.lo < b_ < dom.hi)))
        spans = [(lo, hi) for lo, hi, kind in zip(pw.start.tolist(), pw.end.tolist(), pw.kind)
                 if kind != _CONST]
        amb, eng = aux_ranges(ubars[-1], aux), energy_ranges(u, w, structure, spans)
        bounds.append((len(ranges), len(ranges) + len(amb), len(ranges) + len(amb) + len(eng)))
        ranges += amb + eng
        owner += [k] * (len(amb) + len(eng))
        energy += [False] * len(amb) + [True] * len(eng)
    res = integrate_ranges(_members_density(pws, u, aux, w, p.p, np.array(owner),
                                            np.array(energy)), ranges, diag_cfg)

    members = []
    for h, pw, ubar, (a, b, c) in zip(hs, pws, ubars, bounds):
        x_err = sum(res[a:b], IntegralResult.finite(0.0, 0.0))
        f_val = 0.0
        for r in res[b:c]:
            f_val += r.value if r.is_finite else math.inf
        members.append(ApproxMember(
            h=h, fn=ubar, x_err=float(x_err.value ** (1.0 / p.p) if x_err.is_finite else math.inf),
            f_value=float(f_val), f_gap=float(abs(f_val - f_lim.value)),
            seam_mismatch=float(pw.seam_mismatch)))
    return ApproxSequence(
        u_label=u.label, h_values=tuple(hs), members=tuple(members),
        f_limit=f_lim.value, x_norm_u=x_norm_u, junctions=junctions, h_min=h_min)


def _members_density(pws: list, u: TestFunction, aux: AuxWeight, w: Weight, pp: float,
                     owner: np.ndarray, energy: np.ndarray):
    """The integrand of every member's ranges, f(x, index): range i is an
    energy range (|m'|^p w) or an ambient one (|m - u|^p aux^(p-1)) of member
    m = pws[owner[i]].  Each call evaluates u and aux once for all ambient
    nodes and w once for all energy nodes."""
    def f(x, index):
        own, en = owner[index], energy[index]
        v, out = np.empty(x.size), np.empty(x.size)
        for k in np.flatnonzero(np.bincount(own)):
            at = own == k
            amb, eng = np.flatnonzero(at & ~en), np.flatnonzero(at & en)
            if amb.size:
                v[amb] = pws[k](x[amb])
            if eng.size:
                v[eng] = pws[k].deriv(x[eng])
        amb, eng = np.flatnonzero(~en), np.flatnonzero(en)
        if amb.size:
            out[amb] = mass_values(v[amb] - u(x[amb]), aux.ambient_weight(x[amb]), pp)
        if eng.size:
            out[eng] = energy_values(v[eng], w(x[eng]), pp)
        return out

    return f


@dataclass(frozen=True)
class RelaxationVerdict:
    ok: bool
    x_ok: bool      # ambient error dropped to half its coarsest-mesh value
    f_ok: bool      # energy gap dropped to half its coarsest-mesh value
    f_rel_ok: bool  # final energy gap within 1% of the limit
    f_rel: float    # final f_gap / |f_limit|
    rows: tuple     # (h, x_err, f_gap, seam_mismatch)


def verify_relaxation(seq: ApproxSequence) -> RelaxationVerdict:
    """Check that the sequence converges: the ambient error and the energy gap
    at the finest mesh have both dropped to half their coarsest-mesh values,
    and the final gap sits within 1% of the limit in relative terms.  All
    three must hold."""
    rows = tuple((m.h, m.x_err, m.f_gap, m.seam_mismatch) for m in seq.members)
    first, last = seq.members[0], seq.members[-1]
    # purely relative tests: scaling u scales both sides alike
    x_ok = last.x_err <= 0.5 * first.x_err
    f_ok = last.f_gap <= 0.5 * first.f_gap
    if seq.f_limit == 0.0:
        f_rel = 0.0 if last.f_gap == 0.0 else math.inf
    else:
        f_rel = last.f_gap / abs(seq.f_limit)
    f_rel_ok = f_rel <= 0.01
    return RelaxationVerdict(bool(x_ok and f_ok and f_rel_ok),
                             bool(x_ok), bool(f_ok), bool(f_rel_ok), float(f_rel), rows)
