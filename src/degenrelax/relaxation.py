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
and freezes constants outside the structure.  A member is one sorted table
of three row kinds: u, the taper, and a quadratic segment (every rebuilt
grid segment, bridge, constant and touching seam).  Each member is a
genuine AC function whose ambient distance to u and energy gap are measured
and reported: every member's |m - u|^p aux^(p-1) and |m'|^p w are terms of
one spaces.density_integrals drive, which keeps nothing.  u keeps its
relaxed value's two terms (see spaces): relaxed_functional drives them
unless earlier questions did, and lp_aux_norm reads the ambient one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .auxweight import AuxWeight
from .degeneracy import DegeneracyStructure
from .quadrature import DEFAULT_CONFIG, IntegralResult, QuadratureConfig
from .spaces import (TestFunction, _structure_terms, density_cuts, density_integrals,
                     energy_ranges, lp_aux_norm)
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
    """p-energy of u against w over the whole domain; +inf for a u with no derivative."""
    if u.deriv is None:
        return FunctionalValue.infinite("not absolutely continuous")
    dom = w.domain
    zeros, regions = w.zero_set() or ((), ())
    cuts = density_cuts(u, w, dom.lo, dom.hi, [*zeros, *(e for r in regions for e in r)])
    (res,), = density_integrals([("energy", u, [(dom.lo, dom.hi, (), cuts)])], w, p.p, cfg=cfg)
    if not res.is_finite:
        return FunctionalValue.infinite("energy integral diverges")
    return FunctionalValue.finite(res.value)


def relaxed_functional(u: TestFunction, w: Weight, aux: AuxWeight,
                       structure: DegeneracyStructure, p: Exponent,
                       cfg: Optional[QuadratureConfig] = None) -> FunctionalValue:
    """Relaxation of the p-energy in the auxiliary-weighted ambient norm.

    Empty structure (w vanishing a.e.): the ambient space collapses and the
    relaxation is identically 0.  Otherwise the value is the structure
    seminorm when both it and the ambient norm of u are finite, else +inf
    (always for a sampled u, which has no seminorm).  One drive of both
    integrals, or none when earlier questions answered them for u: asked
    next, lp_aux_norm and check_membership read what this one integrated.
    """
    amb, energies = _structure_terms(u, ("ambient", "energy"), w, structure, p.p, aux, cfg)
    seminorm = IntegralResult.total(energies)
    if structure.kind == "zero":
        return FunctionalValue.finite(0.0)
    if u.deriv is None:
        return FunctionalValue.infinite(
            "sampled function carries no derivative; structure seminorm unavailable")
    if not IntegralResult.total(amb).is_finite:
        return FunctionalValue.infinite("u lies outside the ambient weighted space")
    if not seminorm.is_finite:
        return FunctionalValue.infinite("derivative energy diverges on the structure")
    return FunctionalValue.finite(seminorm.value)


# ---------------------------------------------------------------------------
# approximating sequences


def min_mesh_parameter(structure: DegeneracyStructure) -> int:
    """Smallest integer h with 1/h strictly below a quarter of every interval width."""
    if not structure.intervals:
        raise ValueError("empty structure has no admissible mesh parameter")
    wmin = min(iv.width for iv in structure.intervals)
    return int(math.floor(4.0 / wmin)) + 1


# the 16-point Gauss-Legendre rule as numpy.polynomial.legendre.leggauss(16)
# gives it, symmetric to the bit: its positive nodes, then their weights
_GL_HALF = np.array([
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]])
_GL_NODES = np.concatenate((-_GL_HALF[0, ::-1], _GL_HALF[0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[1, ::-1], _GL_HALF[1]))


class _MollifiedAntiderivative:
    """Mollified derivative v_h of u on one interval, and its antiderivative at the nodes.

    v_h is the average of u' against a quartic bump of support width 1/h
    (radius 1/(2h)), windows clipped near the interval ends and renormalized
    by the clipped kernel mass, multiplied by a cutoff that vanishes within
    1/h^2 of the ends (so v_h has compact support inside the interval).
    Values live on a uniform grid of spacing about 1/(16h) whose two halves
    share the midpoint node; between nodes v_h is linear, and cum holds its
    exact (trapezoid) integral from the first node, so the reconstruction
    u(mid) + (integral - cum at mid) pins the midpoint value exactly and
    differentiates back to v_h everywhere.
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


_SEG, _IDENT, _TAPER = range(3)
_V0, _DV, _DG, _CUM, _A, _OFF = range(6)  # rows of _Member.cols


def _cum(cum, v0, dv, dg, t):
    """A _SEG row's antiderivative at t = x - start: cum plus its trapezoid from start."""
    return cum + 0.5 * (v0 + (v0 + dv * (t / dg))) * t


class _Member:
    """The recovery member at mesh parameter h (module docstring), as a row table.

    An interval side with a touching neighbour is tapered, one without is
    rebuilt.  Row i covers [start[i], start[i+1]); one search finds the last
    row starting at or before a point, which gives its kind and its column
    of cols.  Rows come in blocks that share kind, a and off.  With t = x - start:

    _SEG    a + (_cum(cum, v0, dv, dg, t) - off); derivative v0 at t = 0, else
            dv/dg*t + v0
    _IDENT  u
    _TAPER  u*(aux/a)^(1/p), a = aux at the reference point, off = +1 rising, -1 falling

    A rebuilt half is one block with a _SEG row per mollifier grid segment
    (a = u(mid), off = cum at mid): the reconstruction and np.interp over
    the grid, bit for bit.  A right half's last node has its own row,
    holding the last segment's value at t = its width and v[-1].  Other
    _SEG rows are lines with cum = dv = -0.0, off = 0.0 and dg = 1, so
    a + v0*t comes back exactly: bridges (v0 the slope), the constants
    outside the structure (a + 0.0, but a is never -0.0 there) and each
    touching seam, one point wide since the rising taper starts an ulp later:
    v0 = -0.0 gives back a, the falling taper's limit, even -0.0, and
    derivative -0.0.  spans lists the branches the energy is integrated on.
    """

    def __init__(self, u: TestFunction, aux: AuxWeight, structure: DegeneracyStructure,
                 dom: Interval, pp: float, h: int):
        self.u, self.aux, self.pinv, self.pp = u, aux, 1.0 / pp, pp
        ivs = structure.intervals
        r = 1.0 / h
        # touch[k] and touch[k + 1]: does interval k touch its left, its right
        # neighbour?  The first left side and the last right side never do.
        touch = [False, *structure.touching, False]
        blocks, self.spans = [], []  # blocks: (starts, kind, a, off, columns)

        def row(x, kind, a=0.0, v0=0.0, off=0.0):  # a taper's a: its reference point, for now
            blocks.append(([x], kind, a, off, np.array([[v0], [-0.0], [1.0], [-0.0]])))

        for k, iv in enumerate(ivs):
            if not (touch[k] and touch[k + 1]):
                m = _MollifiedAntiderivative(u, iv.lo, iv.hi, h)
                g, v, cum, n = m.grid, m.v, m.cum, m.mid_index
                dg, dv = np.diff(g), np.diff(v)
                last = _cum(cum[-2], v[-2], dv[-1], dg[-1], dg[-1])
                cols = np.stack([v, np.append(dv, -0.0), np.append(dg, 1.0), np.append(cum[:-1], last)])
                y1 = m.u_mid + (_cum(cum[0], v[0], dv[0], dg[0], 0.0) - m.c_mid)
                if k == 0 and iv.lo > dom.lo:
                    row(dom.lo, _SEG, y1)
                elif k and not touch[k]:  # bridge from the last interval's hi
                    g_lo = ivs[k - 1].hi
                    row(g_lo, _SEG, y0, (y1 - y0) / (iv.lo - g_lo))
                    self.spans.append((g_lo, iv.lo))
                y0 = m.u_mid + (last - m.c_mid)
            if touch[k]:
                row(np.nextafter(iv.lo, math.inf), _TAPER, iv.lo + r, off=1.0)
                row(iv.lo + r, _IDENT)
                self.spans += [(iv.lo, iv.lo + r), (iv.lo + r, iv.mid)]
            else:
                blocks.append((g[:n], _SEG, m.u_mid, m.c_mid, cols[:, :n]))
                self.spans.append((iv.lo, iv.mid))
            if touch[k + 1]:
                row(iv.mid, _IDENT)
                row(iv.hi - r, _TAPER, iv.hi - r, off=-1.0)
                row(iv.hi, _SEG, 0.0, -0.0)  # the seam; its a is the falling limit
                self.spans += [(iv.mid, iv.hi - r), (iv.hi - r, iv.hi)]
            else:
                blocks.append((g[n:], _SEG, m.u_mid, m.c_mid, cols[:, n:]))
                self.spans.append((iv.mid, iv.hi))
        if ivs[-1].hi < dom.hi:
            row(ivs[-1].hi, _SEG, y0)

        starts, kind, a, off, cols = zip(*blocks)
        size = [len(x) for x in starts]
        self.start, self.kind = np.concatenate(starts, dtype=float), np.repeat(np.int8(kind), size)
        self.cols = np.vstack([np.concatenate(cols, axis=1), np.repeat(a, size), np.repeat(off, size)])
        self.seam_mismatch = 0.0
        taper = np.flatnonzero(self.kind == _TAPER)  # at each seam: falling taper, seam, rising
        if taper.size:
            ref = self.cols[_A, taper] = np.asarray(aux(self.cols[_A, taper]), dtype=float)
            seam = taper[::2] + 1
            lim = self._taper(np.repeat(self.start[seam], 2), ref, None, False)
            self.cols[_A, seam] = lim[::2]
            self.seam_mismatch = float(np.max(np.abs(lim[::2] - lim[1::2])))

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
        flat = np.atleast_1d(x).ravel()
        out = np.empty(flat.shape)
        i = np.searchsorted(self.start[1:], flat, side="right")  # row 0 below the first start
        kind = self.kind[i]
        mixed = kind.any()  # else every point lands in a _SEG row: no selection
        for k in np.flatnonzero(np.bincount(kind, minlength=_TAPER + 1)) if mixed else (_SEG,):
            sel = np.flatnonzero(kind == k) if mixed else slice(None)
            xs, rows = flat[sel], i[sel]
            if k == _IDENT:
                out[sel] = self.u.d(xs) if deriv else self.u(xs)
            elif k == _TAPER:
                out[sel] = self._taper(xs, *self.cols[_A:].take(rows, axis=1), deriv)
            else:
                t = xs - self.start[rows]
                if deriv:
                    v0, dv, dg = self.cols[:_CUM].take(rows, axis=1)
                    out[sel] = np.where(t == 0.0, v0, dv / dg * t + v0)
                else:
                    v0, dv, dg, cum, a, off = self.cols.take(rows, axis=1)
                    out[sel] = a + (_cum(cum, v0, dv, dg, t) - off)
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
    f_lim = relaxed_functional(u, w, aux, structure, p, cfg)
    if not f_lim.is_finite:
        raise ValueError(f"u outside the relaxed domain: {f_lim.reason}")
    x_norm_u = lp_aux_norm(u, aux, cfg).value ** (1.0 / p.p)  # same norm that measures x_err

    dom = w.domain
    junctions = tuple("touching" if seam else "gap" for seam in structure.touching)

    # diagnostics compare percent-level quantities; relax the budget accordingly
    diag_cfg = replace(cfg, rel_tol=max(cfg.rel_tol, 1e-7), abs_tol=max(cfg.abs_tol, 1e-12))

    # one drive for every member: the ambient distance |m - u| (cut where m
    # is), then the energy of m over its spans
    pws = [_Member(u, aux, structure, dom, p.p, h) for h in hs]
    ubars, terms = [], []
    for h, pw in zip(hs, pws):
        bps = sorted({b_ for span in pw.spans for b_ in span} | set(u.breakpoints))
        ubars.append(TestFunction(fn=pw, deriv=pw.deriv, label=f"{u.label or 'u'}~h{h}",
                                  breakpoints=tuple(b_ for b_ in bps if dom.lo < b_ < dom.hi)))
        diff = TestFunction(fn=lambda x, pw=pw: pw(x) - u(x), deriv=None,
                            breakpoints=ubars[-1].breakpoints)
        terms += [("ambient", diff, 0.0),
                  ("energy", ubars[-1], energy_ranges(u, w, structure, pw.spans))]
    res = density_integrals(terms, w, p.p, aux, diag_cfg)

    members = []
    for h, pw, ubar, amb, eng in zip(hs, pws, ubars, res[::2], res[1::2]):
        f_val = 0.0
        for r in eng:
            f_val += r.value_or_inf
        members.append(ApproxMember(
            h=h, fn=ubar, x_err=float(IntegralResult.total(amb).value_or_inf ** (1.0 / p.p)),
            f_value=float(f_val), f_gap=float(abs(f_val - f_lim.value)),
            seam_mismatch=float(pw.seam_mismatch)))
    return ApproxSequence(
        u_label=u.label, h_values=tuple(hs), members=tuple(members),
        f_limit=f_lim.value, x_norm_u=x_norm_u, junctions=junctions, h_min=h_min)


@dataclass(frozen=True)
class RelaxationVerdict:
    ok: bool
    x_ok: bool      # ambient error dropped to half its coarsest-mesh value
    f_ok: bool      # energy gap dropped to half its coarsest-mesh value
    f_rel_ok: bool  # final energy gap within 1% of the limit
    f_rel: float    # final f_gap / |f_limit|, or / the coarsest f_value for a zero limit
    rows: tuple     # (h, x_err, f_gap, seam_mismatch)


def verify_relaxation(seq: ApproxSequence) -> RelaxationVerdict:
    """Check that the sequence converges: the ambient error and the energy gap
    at the finest mesh have both dropped to half their coarsest-mesh values,
    and the final gap sits within 1% of the limit in relative terms, or of
    the coarsest member's energy when the limit is 0 (inf unless the gap is
    0 when that energy is 0 too).  All three must hold.  A sequence of one
    member (one mesh parameter h, or h_max at or below h_min) has nothing to
    compare: ValueError."""
    if len(seq.members) < 2:
        raise ValueError(f"the verdict compares the coarsest member with the finest, so it needs "
                         f"two mesh parameters h >= h_min = {seq.h_min}; got {list(seq.h_values)}")
    rows = tuple((m.h, m.x_err, m.f_gap, m.seam_mismatch) for m in seq.members)
    first, last = seq.members[0], seq.members[-1]
    # purely relative tests: the maps of u, w and x scale both sides alike
    x_ok = last.x_err <= 0.5 * first.x_err
    f_ok = last.f_gap <= 0.5 * first.f_gap
    scale = abs(seq.f_limit) or first.f_value
    f_rel = last.f_gap / scale if scale else (0.0 if last.f_gap == 0.0 else math.inf)
    f_rel_ok = f_rel <= 0.01
    return RelaxationVerdict(bool(x_ok and f_ok and f_rel_ok),
                             bool(x_ok), bool(f_ok), bool(f_rel_ok), float(f_rel), rows)
