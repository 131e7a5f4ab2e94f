"""Auxiliary weight attached to a degeneracy structure.

On each structure interval (a, b) with midpoint m and quarter points
q1 = (3a + b)/4, q3 = (a + 3b)/4, the auxiliary weight is built from running
integrals of the transform sigma = w^(-1/(p-1)):

    (a, q1):   x -> 1 / integral of sigma over (x, m)
    [q1, q3]:  the plateau constant 1 / integral of sigma over (q1, q3)
    (q3, b):   x -> 1 / integral of sigma over (m, x)

At the interval endpoints the value is the limit of the outer branch: the
reciprocal of the full half integral when that integral converges, and 0
when it diverges.  Off the closure of all structure intervals the auxiliary
weight is identically 0.  The outer branches are monotone (increasing on
the left, decreasing on the right), bounded above by their one-sided limits
at the quarter points and below by the endpoint limits, and satisfy the
derivative identity  d/dx aux = +- aux^2 * sigma  (+ on the left branch,
- on the right: the left branch grows, the right one decays).

Branch evaluation goes through per-half lookup tables: cumulative transform
integrals on a geometrically graded mesh, interpolated monotonically in
log-log coordinates (exact for pure power weights) and extended below the
deepest mesh node by the fitted local power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .degeneracy import DegeneracyInterval, DegeneracyStructure
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _eval_panels, integrate
from .weights import Exponent, Weight


_SUBNODES_PER_LEVEL = 11  # log-spaced mesh points per dyadic distance level


@dataclass
class BranchTable:
    """Cumulative transform integral C(d) for one outer branch.

    d is the distance from the interval endpoint; C(d) is the integral of
    sigma from the point at distance d to the interval midpoint, so C is
    positive and decreasing in d.  The mesh stores C exactly at the graded
    nodes; between nodes C(d) is the node anchor plus one quadrature panel
    over the partial segment, which keeps in-range evaluation at quadrature
    accuracy rather than interpolation accuracy.  Below the deepest node the
    table extends by the local power law, i.e. linearly in log-log through a
    monotone fit of the node data; above d_max (the quarter point, where the
    branch domain ends) evaluation clamps to the quarter-integral anchor.
    """

    sigma: object                 # transform callable
    endpoint: float
    sgn: float                    # x = endpoint + sgn * d
    d_mesh: np.ndarray            # ascending distances, d_mesh[-1] == d_max
    c_nodes: np.ndarray           # C at the mesh nodes, descending
    plain: np.ndarray             # per segment: free of removable zeros
    removables: tuple
    cfg: QuadratureConfig
    slope_inner: float            # d log C / d log d at the innermost node
    c_at_dmax: float
    d_max: float

    def cumulative(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(np.atleast_1d(d), dtype=float).ravel()
        out = np.empty(d.shape)
        below = d < self.d_mesh[0]
        above = d >= self.d_max
        mid = ~below & ~above
        out[above] = self.c_at_dmax
        if np.any(below):
            # extend by the fitted local power law at the innermost node
            ld = np.log(np.clip(d[below], 1e-300, None))
            lo = math.log(self.d_mesh[0])
            out[below] = np.exp(math.log(self.c_nodes[0]) + self.slope_inner * (ld - lo))
        if np.any(mid):
            dm = d[mid]
            k = np.searchsorted(self.d_mesh, dm, side="right") - 1
            k = np.clip(k, 0, self.d_mesh.size - 2)
            # anchor at the far node of the segment, add back the partial mass
            x_pt = self.endpoint + self.sgn * dm
            x_far = self.endpoint + self.sgn * self.d_mesh[k + 1]
            plo = np.minimum(x_pt, x_far)
            phi = np.maximum(x_pt, x_far)
            part = np.zeros(dm.shape)
            ok = self.plain[k] & (phi > plo)
            if np.any(ok):
                k15, _, finite, _ = _eval_panels(self.sigma, plo[ok], phi[ok])
                part_ok = np.where(finite, k15, np.nan)
                part[ok] = part_ok
            for j in np.nonzero(~ok & (phi > plo))[0]:
                hint = [r for r in self.removables if plo[j] < r < phi[j]]
                res = integrate(self.sigma, float(plo[j]), float(phi[j]), self.cfg,
                                singular=hint)
                part[j] = res.value if res.is_finite else math.inf
            bad = np.isnan(part)
            for j in np.nonzero(bad)[0]:
                res = integrate(self.sigma, float(plo[j]), float(phi[j]), self.cfg)
                part[j] = res.value if res.is_finite else math.inf
            out[mid] = self.c_nodes[k + 1] + part
        return out

    def values(self, d: np.ndarray) -> np.ndarray:
        """Auxiliary weight on the branch: 1 / C(d)."""
        return 1.0 / self.cumulative(d)


def _graded_mesh(h_max: float, anchor: float, sgn: float) -> np.ndarray:
    """Distances h_max down to the float-representability floor, 11 per halving."""
    levels = [h_max]
    d = h_max
    while True:
        nxt = 0.5 * d
        if anchor + sgn * nxt == anchor or nxt <= 0.0 or len(levels) > 80:
            break
        levels.append(nxt)
        d = nxt
    mesh = []
    for top, bot in zip(levels[:-1], levels[1:]):
        seg = np.exp(np.linspace(math.log(top), math.log(bot), _SUBNODES_PER_LEVEL))
        mesh.append(seg)
    out = np.unique(np.concatenate(mesh)) if mesh else np.array([h_max])
    return out  # ascending distances


def _sliver_nodes(d_r: float, d_max: float) -> np.ndarray:
    """Geometric mesh nodes closing in on distance d_r from both sides.

    Keeps the segments that touch a removable zero at float-width scale, so
    partial-panel queries near the zero stay inside analytic slivers and the
    slow adaptive fallback is confined to an unhittable sliver pair.
    """
    out = [d_r]
    for span, sg in ((d_max - d_r, 1.0), (d_r, -1.0)):
        off = 0.5 * span
        while off > 0.0 and d_r + sg * off != d_r:
            val = d_r + sg * off
            if 0.0 < val < d_max:
                out.append(val)
            off *= 0.5
    return np.asarray(out)


def _build_branch(sigma, endpoint: float, mid: float, removables: Sequence[float],
                  cfg: QuadratureConfig) -> BranchTable:
    """Tabulate C(d) = integral of sigma between (endpoint +- d) and mid, for one half."""
    sgn = 1.0 if mid > endpoint else -1.0
    half = abs(mid - endpoint)
    d_mesh = _graded_mesh(0.5 * half, endpoint, sgn)  # up to the quarter point
    extra = [_sliver_nodes((r - endpoint) * sgn, d_mesh[-1]) for r in removables
             if 0.0 < (r - endpoint) * sgn <= d_mesh[-1]]
    if extra:
        d_mesh = np.unique(np.concatenate([d_mesh, *extra]))
    xs = endpoint + sgn * d_mesh
    # distinct distances can collide in x at float resolution; keep the outer one
    keep = np.ones(d_mesh.size, dtype=bool)
    keep[:-1] = np.abs(np.diff(xs)) > 0.0
    d_mesh = d_mesh[keep]
    xs = xs[keep]
    # innermost piece: from the quarter point to the midpoint (graded at both
    # ends; removable zeros inside get their own grading)
    qpt = endpoint + sgn * 0.5 * half
    lo_q, hi_q = (qpt, mid) if sgn > 0 else (mid, qpt)
    inner_sing = [r for r in removables if lo_q < r < hi_q]
    res = integrate(sigma, lo_q, hi_q, cfg, singular=inner_sing)
    if not res.is_finite:
        raise ArithmeticError(
            "transform not integrable between quarter point and midpoint; "
            "the degeneracy structure should have split here")
    c_quarter = res.value

    # segment integrals between consecutive mesh points, inner to outer
    seg_lo = np.minimum(xs[:-1], xs[1:])
    seg_hi = np.maximum(xs[:-1], xs[1:])
    vals = np.zeros(seg_lo.size)
    plain = np.ones(seg_lo.size, dtype=bool)
    for r in removables:
        # only segments actually touching the zero stay adaptive; the sliver
        # mesh keeps those at float-width scale
        plain &= ~((r >= seg_lo) & (r <= seg_hi))
    if np.any(plain):
        k15, _, finite, _ = _eval_panels(sigma, seg_lo[plain], seg_hi[plain])
        if not np.all(finite):
            # an undeclared blowup: fall back to adaptive panels there
            plain_idx = np.nonzero(plain)[0]
            vals[plain_idx[finite]] = k15[finite]
            for j in plain_idx[~finite]:
                r2 = integrate(sigma, float(seg_lo[j]), float(seg_hi[j]), cfg)
                if not r2.is_finite:
                    raise ArithmeticError("transform not integrable inside a branch segment")
                vals[j] = r2.value
                plain[j] = False  # partial evaluation must stay adaptive here too
        else:
            vals[plain] = k15
    for j in np.nonzero(~plain)[0]:
        hint = [r for r in removables if seg_lo[j] < r < seg_hi[j]]
        r2 = integrate(sigma, float(seg_lo[j]), float(seg_hi[j]), cfg, singular=hint)
        if not r2.is_finite:
            raise ArithmeticError("transform not integrable inside a branch segment")
        vals[j] = r2.value

    # cumulative anchors: C(d_mesh[k]) = c_quarter + mass of segments further in than x_k
    csum = np.concatenate([[0.0], np.cumsum(vals[::-1])])[::-1]
    c_all = c_quarter + csum  # descending; c_all[-1] == c_quarter
    if np.any(c_all <= 0.0):
        raise ArithmeticError("cumulative transform integral lost positivity")

    # the log-log slope at the innermost node extends C below the mesh as a power law
    return BranchTable(
        sigma=sigma, endpoint=endpoint, sgn=sgn, d_mesh=d_mesh, c_nodes=c_all,
        plain=plain, removables=tuple(removables), cfg=cfg,
        slope_inner=_end_slope(np.log(d_mesh), np.log(c_all)),
        c_at_dmax=c_quarter, d_max=float(d_mesh[-1]))


def _end_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope at x[0] of the monotone (PCHIP) interpolant through (x, y).

    The one-sided three-point rule, zeroed when it points against the first
    secant and capped at three secants when the data turns (Moler,
    Numerical Computing with MATLAB, pchiptx); a lone segment gives its
    secant.
    """
    h = np.diff(x[:3])
    m = np.diff(y[:3]) / h
    if m.size < 2:
        return float(m[0])
    d = ((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1])
    if np.sign(d) != np.sign(m[0]):
        return 0.0
    if np.sign(m[0]) != np.sign(m[1]) and abs(d) > 3.0 * abs(m[0]):
        return float(3.0 * m[0])
    return float(d)


@dataclass
class AuxInterval:
    base: DegeneracyInterval
    plateau: float
    left: BranchTable
    right: BranchTable
    lo_value: float      # endpoint limit at base.lo (0 when the half integral diverges)
    hi_value: float
    left_limit: float    # one-sided branch limit at q1 (max of the left branch)
    right_limit: float   # one-sided branch limit at q3

    @property
    def q1(self) -> float:
        return self.base.lo + 0.25 * self.base.width

    @property
    def q3(self) -> float:
        return self.base.lo + 0.75 * self.base.width


class AuxWeight:
    """Evaluable auxiliary weight for a degeneracy structure.

    Callable on scalars or arrays; zero off the closure of the structure
    intervals.  At a shared boundary point of two touching intervals the
    left interval's endpoint value is used.
    """

    def __init__(self, weight: Weight, p: Exponent, structure: DegeneracyStructure,
                 parts: list, cfg: QuadratureConfig):
        self.weight = weight
        self.exponent = p
        self.structure = structure
        self.parts: list[AuxInterval] = parts
        self.cfg = cfg
        self.sigma = weight.transform(p)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).astype(float).ravel()
        out = np.zeros(flat.shape)
        free = np.ones(flat.shape, dtype=bool)
        for part in self.parts:
            lo, hi = part.base.lo, part.base.hi
            m = free & (flat >= lo) & (flat <= hi)
            if not m.any():
                continue
            xm = flat[m]
            sub = np.full(xm.shape, part.plateau)
            at_lo = xm == lo
            at_hi = xm == hi
            lbr = (xm < part.q1) & ~at_lo
            rbr = (xm > part.q3) & ~at_hi
            if lbr.any():
                sub[lbr] = part.left.values(xm[lbr] - lo)
            if rbr.any():
                sub[rbr] = part.right.values(hi - xm[rbr])
            sub[at_lo] = part.lo_value
            sub[at_hi] = part.hi_value
            out[m] = sub
            free &= ~m
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

    def branch_of(self, x: float) -> tuple[int, str]:
        """Locate x: (interval index, 'left'|'plateau'|'right'|'endpoint') or (-1, 'outside')."""
        for i, part in enumerate(self.parts):
            lo, hi = part.base.lo, part.base.hi
            if not (lo <= x <= hi):
                continue
            if x == lo or x == hi:
                return i, "endpoint"
            if x < part.q1:
                return i, "left"
            if x > part.q3:
                return i, "right"
            return i, "plateau"
        return -1, "outside"


def build_aux_weight(w: Weight, p: Exponent, structure: DegeneracyStructure,
                     cfg: Optional[QuadratureConfig] = None) -> AuxWeight:
    """Construct the auxiliary weight for a previously detected structure."""
    cfg = cfg or DEFAULT_CONFIG
    if structure.p != p.p:
        raise ValueError(f"structure was computed for p={structure.p}, not p={p.p}")
    sigma = w.transform(p)
    removables = [info.location for info in structure.removable_zeros]
    parts = []
    for iv in structure.intervals:
        mid = iv.mid
        q1 = iv.lo + 0.25 * iv.width
        q3 = iv.lo + 0.75 * iv.width
        inner = [r for r in removables if q1 < r < q3]
        plat_res = integrate(sigma, q1, q3, cfg, singular=inner)
        if not plat_res.is_finite:
            raise ArithmeticError("transform not integrable across the plateau span")
        plateau = 1.0 / plat_res.value
        left = _build_branch(sigma, iv.lo, mid, removables, cfg)
        right = _build_branch(sigma, iv.hi, mid, removables, cfg)
        lo_value = 1.0 / iv.lo_class.value if iv.lo_class.integrable else 0.0
        hi_value = 1.0 / iv.hi_class.value if iv.hi_class.integrable else 0.0
        parts.append(AuxInterval(
            base=iv, plateau=plateau, left=left, right=right,
            lo_value=lo_value, hi_value=hi_value,
            left_limit=1.0 / left.c_at_dmax, right_limit=1.0 / right.c_at_dmax,
        ))
    return AuxWeight(w, p, structure, parts, cfg)


def derivative_identity_residual(aux: AuxWeight, x: float,
                                 h: Optional[float] = None) -> float:
    """Relative defect of the branch derivative identity at a single point.

    Compares the centered finite difference of the auxiliary weight against
    +- aux(x)^2 * sigma(x), signed + on the growing left branch and - on the
    decaying right branch.  Only meaningful on the outer branches; plateau,
    endpoint and outside points raise ValueError.
    """
    i, zone = aux.branch_of(float(x))
    if zone not in ("left", "right"):
        raise ValueError(f"x={x} lies on zone {zone!r}; the identity holds on outer branches")
    part = aux.parts[i]
    if zone == "left":
        room = min(x - part.base.lo, part.q1 - x)
        sign = 1.0
    else:
        room = min(x - part.q3, part.base.hi - x)
        sign = -1.0
    if h is None:
        h = 3e-3 * room
    if not (0.0 < h < room):
        raise ValueError(f"step {h} does not fit inside the branch around x={x}")
    fd = (aux(x + h) - aux(x - h)) / (2.0 * h)
    wx = float(aux(x))
    sx = float(np.asarray(aux.sigma(np.array([x])), dtype=float)[0])
    ideal = sign * wx * wx * sx
    guard = max(abs(ideal), aux.cfg.abs_tol)
    return abs(fd - ideal) / guard


@dataclass(frozen=True)
class AuxBounds:
    """Supremum and infimum of the auxiliary weight, per interval and overall.

    Branch monotonicity puts each interval's supremum at a quarter-point
    branch limit and its infimum at an endpoint limit or the plateau; the
    infimum over the whole domain is 0 whenever the structure intervals do
    not cover it (the auxiliary weight vanishes off their closures).
    """

    per_interval: tuple[tuple[float, float], ...]  # (sup_i, inf_i)
    sup: float
    inf: float
    covers_domain: bool


def aux_global_bounds(aux: AuxWeight) -> AuxBounds:
    per = []
    for part in aux.parts:
        sup_i = max(part.left_limit, part.right_limit, part.plateau)
        # endpoint values are the one-sided lower limits (0 on divergent sides)
        inf_i = min(part.plateau, part.lo_value, part.hi_value)
        per.append((float(sup_i), float(inf_i)))
    dom = aux.weight.domain
    covered = sum(p_.base.width for p_ in aux.parts)
    covers = math.isclose(covered, dom.width, rel_tol=1e-12, abs_tol=1e-12 * dom.width)
    sup = max((s for s, _ in per), default=0.0)
    inf = min((i_ for _, i_ in per), default=0.0)
    if not covers:
        inf = 0.0
    return AuxBounds(tuple(per), float(sup), float(inf), covers)
