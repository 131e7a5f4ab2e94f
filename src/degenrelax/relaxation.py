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
from .spaces import (MembershipReport, TestFunction, check_membership, density_cuts,
                     energy_density, energy_ranges, lp_aux_norm)
from .weights import Exponent, Weight


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


@dataclass
class _Branch:
    lo: float
    hi: float
    fn: object
    dfn: object
    kind: str


class _PiecewiseFunction:
    """Dispatch evaluation over ordered branches with exact point overrides."""

    def __init__(self, branches: Sequence[_Branch], overrides: dict):
        self.branches = list(branches)
        self.bounds = np.array([b.lo for b in self.branches] + [self.branches[-1].hi])
        self.overrides = dict(overrides)

    def _dispatch(self, x, fns: list, overrides: dict):
        """fns[j] on the points of branch j, then the overrides."""
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).astype(float).ravel()
        out = np.empty(flat.shape)
        idx = np.clip(np.searchsorted(self.bounds, flat, side="right") - 1,
                      0, len(self.branches) - 1)
        for j, fn in enumerate(fns):
            m = idx == j
            if m.any():
                out[m] = np.asarray(fn(flat[m]), dtype=float)
        for xo, vo in overrides.items():
            out[flat == xo] = vo
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

    def __call__(self, x):
        return self._dispatch(x, [br.fn for br in self.branches], self.overrides)

    def deriv(self, x):
        return self._dispatch(x, [br.dfn for br in self.branches], {})


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


def _taper_closure(u: TestFunction, aux: AuxWeight, ref: float, sign: float, pp: float):
    pinv = 1.0 / pp

    def ev(x):
        ratio = np.asarray(aux(x), dtype=float) / ref
        return u(x) * np.maximum(ratio, 0.0) ** pinv

    def dv(x):
        wx = np.asarray(aux(x), dtype=float)
        sx = np.asarray(aux.sigma(x), dtype=float)
        factor = np.maximum(wx / ref, 0.0) ** pinv
        return factor * (u.d(x) + u(x) * sign * wx * sx / pp)

    return ev, dv


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
    f_lim, amb, _ = _relaxed_parts(u, w, aux, structure, p, cfg)
    if not f_lim.is_finite:
        raise ValueError(f"u outside the relaxed domain: {f_lim.reason}")
    x_norm_u = amb.value ** (1.0 / p.p)  # same norm that measures x_err

    ivs = structure.intervals
    dom = w.domain
    tol = 1e-12 * dom.width
    junctions = tuple(
        "touching" if abs(ivs[k + 1].lo - ivs[k].hi) <= tol else "gap"
        for k in range(len(ivs) - 1))

    # diagnostics compare percent-level quantities; relax the budget accordingly
    diag_cfg = replace(cfg, rel_tol=max(cfg.rel_tol, 1e-7), abs_tol=max(cfg.abs_tol, 1e-12))

    members = []
    for h in hs:
        members.append(_assemble_member(u, w, aux, structure, p, h, junctions,
                                        f_lim.value, diag_cfg))
    return ApproxSequence(
        u_label=u.label, h_values=tuple(hs), members=tuple(members),
        f_limit=f_lim.value, x_norm_u=x_norm_u, junctions=junctions, h_min=h_min)


def _assemble_member(u: TestFunction, w: Weight, aux: AuxWeight,
                     structure: DegeneracyStructure, p: Exponent, h: int,
                     junctions: tuple, f_limit: float,
                     cfg: QuadratureConfig) -> ApproxMember:
    ivs = structure.intervals
    dom = w.domain
    pp = p.p
    r = 1.0 / h
    branches: list = []
    overrides: dict = {}
    seam_gap = 0.0

    # per interval: does each side touch the neighbor?
    touch_left = [False] + [j == "touching" for j in junctions]
    touch_right = [j == "touching" for j in junctions] + [False]

    tildes = {}

    def tilde(k: int) -> _MollifiedAntiderivative:
        if k not in tildes:
            tildes[k] = _MollifiedAntiderivative(u, ivs[k].lo, ivs[k].hi, h)
        return tildes[k]

    # leading constant segment; the first interval's left side never touches
    first = ivs[0]
    if first.lo > dom.lo:
        lead = float(tilde(0).value(first.lo))
        branches.append(_Branch(dom.lo, first.lo,
                                (lambda c: (lambda x: np.full(np.shape(x), c)))(lead),
                                lambda x: np.zeros(np.shape(x)), "constant"))

    ufn = lambda x: u(x)
    udfn = lambda x: u.d(x)

    for k, iv in enumerate(ivs):
        mid = iv.mid
        # left half
        if touch_left[k]:
            ref = float(aux(iv.lo + r))
            ev, dv = _taper_closure(u, aux, ref, +1.0, pp)
            branches.append(_Branch(iv.lo, iv.lo + r, ev, dv, "taper-up"))
            branches.append(_Branch(iv.lo + r, mid, ufn, udfn, "identity"))
            right_lim = float(ev(np.array([iv.lo]))[0])
            # the seam override was set while closing the previous interval;
            # record the mismatch against this side's one-sided limit
            seam_gap = max(seam_gap, abs(overrides.get(iv.lo, right_lim) - right_lim))
        else:
            t = tilde(k)
            branches.append(_Branch(iv.lo, mid, t.value, t.deriv, "rebuilt"))
        # right half
        if touch_right[k]:
            ref = float(aux(iv.hi - r))
            branches.append(_Branch(mid, iv.hi - r, ufn, udfn, "identity"))
            ev, dv = _taper_closure(u, aux, ref, -1.0, pp)
            branches.append(_Branch(iv.hi - r, iv.hi, ev, dv, "taper-down"))
            overrides[iv.hi] = float(ev(np.array([iv.hi]))[0])
        else:
            t = tilde(k)
            branches.append(_Branch(mid, iv.hi, t.value, t.deriv, "rebuilt"))
        # junction to the next interval
        if k + 1 < len(ivs) and junctions[k] == "gap":
            g_lo, g_hi = iv.hi, ivs[k + 1].lo
            y0 = float(tilde(k).value(g_lo))
            y1 = float(tilde(k + 1).value(g_hi))
            slope = (y1 - y0) / (g_hi - g_lo)
            branches.append(_Branch(
                g_lo, g_hi,
                (lambda y0_, s_, x0_: (lambda x: y0_ + s_ * (x - x0_)))(y0, slope, g_lo),
                (lambda s_: (lambda x: np.full(np.shape(x), s_)))(slope),
                "bridge"))

    last = ivs[-1]
    if last.hi < dom.hi:
        if touch_right[-1]:
            trail = overrides.get(last.hi, 0.0)
        else:
            trail = float(tilde(len(ivs) - 1).value(last.hi))
        branches.append(_Branch(last.hi, dom.hi,
                                (lambda c: (lambda x: np.full(np.shape(x), c)))(trail),
                                lambda x: np.zeros(np.shape(x)), "constant"))

    pw = _PiecewiseFunction(branches, overrides)
    bps = tuple(sorted({float(b.lo) for b in branches} | {float(b.hi) for b in branches}
                       | {iv.mid for iv in ivs} | set(u.breakpoints)))
    ubar = TestFunction(fn=pw, deriv=pw.deriv, tag="AC",
                        label=f"{u.label or 'u'}~h{h}",
                        breakpoints=tuple(b_ for b_ in bps if dom.lo < b_ < dom.hi))

    # ambient distance to u
    diff = TestFunction(fn=lambda x: pw(x) - u(x), deriv=None, tag="AC",
                        label="diff", breakpoints=ubar.breakpoints)
    x_err = lp_aux_norm(diff, aux, cfg)
    x_err_val = x_err.value ** (1.0 / pp) if x_err.is_finite else math.inf

    # energy of the member over the whole domain, branch by branch
    energies = integrate_ranges(energy_density(ubar, w, pp), energy_ranges(
        u, w, structure, [(br.lo, br.hi) for br in branches if br.kind != "constant"]), cfg)
    f_val = 0.0
    for res in energies:
        f_val += res.value if res.is_finite else math.inf
    return ApproxMember(h=h, fn=ubar, x_err=float(x_err_val), f_value=float(f_val),
                        f_gap=float(abs(f_val - f_limit)), seam_mismatch=float(seam_gap))


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
