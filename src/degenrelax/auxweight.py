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

Construction stores, per outer branch, the running integral C(d) (d the
distance from the interval endpoint) exactly at the nodes of a graded mesh:
eleven nodes per halving of d down to float resolution at the endpoint, plus
nodes closing in on each removable zero.  On its first evaluation an
AuxWeight turns these anchors into one flat table over the whole line, a
sorted list of zones:

* Chebyshev zones hold the Chebyshev series of C in s = log d, anchored at
  the zone's outer mesh node and fitted to sigma at its 15 Kronrod nodes.  A
  zone spans one halving of d (ten mesh segments), where a power-law zero at
  the endpoint makes C smooth in s; where that series does not decay, the
  zone is a single mesh segment, or the part of one beyond 1/4, 1/2 or 3/4
  of its width (the queries there never reach a kink of w further in).
* Panel zones are the mesh segments no series fits (kinks or jumps of w):
  C is the outer node anchor plus one 15-node Kronrod panel between the
  query point and that node.  Segments touching a removable zero integrate
  that stretch adaptively instead.
* Below the deepest mesh node, C follows the power law (linear in log-log
  coordinates) with the monotone (PCHIP) end slope of the node data.  Next
  to an endpoint away from 0, the innermost segments are too few ulps wide
  for their sigma samples to be more than rounding noise: the power law
  then takes them over, from the deepest node above them and with the
  log-log secant across the halving of d above that node.
* Endpoints, plateaus and the gaps between intervals are constant zones.

An evaluation is one sorted search, one Chebyshev sum over the points in
Chebyshev zones and at most one batched sigma call for the points in panel
zones.  Away from panel zones no sigma is evaluated at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .degeneracy import DegeneracyInterval, DegeneracyStructure
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, _NODES, _eval_panels,
                         integrate)
from .weights import Exponent, Weight


_SUBNODES_PER_LEVEL = 11  # log-spaced mesh points per dyadic distance level
_GROUP = 10               # mesh segments per Chebyshev zone (a distance ratio of 2)
_TAIL = 3                 # trailing series coefficients that must have decayed
_TAIL_TOL = 1e-14         # their size allowed relative to the largest coefficient
_EPS = float(np.finfo(float).eps)
_MAX_NOISE = 1.0 / 16.0   # node rounding, in half-widths, that the slope correction may absorb
_PARTS = np.array([0.0, 0.25, 0.5, 0.75])  # a segment's inner fraction a series may leave out


def _series_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Two maps from the values of f at the 15 Kronrod nodes t_i of [-1, 1]:

    to the 16 Chebyshev coefficients of t -> integral from t to 1 of the
    interpolating polynomial of f, and to the slope of that polynomial at the
    nodes (which corrects for nodes that rounding moved off their places).
    """
    n = _NODES.size
    cheb = np.ones((n, n))         # T_k(t_i)
    second = np.ones((n, n))       # U_k(t_i); T_k' = k U_(k-1)
    cheb[:, 1], second[:, 1] = _NODES, 2.0 * _NODES
    for k in range(2, n):
        cheb[:, k] = 2.0 * _NODES * cheb[:, k - 1] - cheb[:, k - 2]
        second[:, k] = 2.0 * _NODES * second[:, k - 1] - second[:, k - 2]
    to_series = np.linalg.inv(cheb)
    slope = np.zeros((n, n))
    slope[:, 1:] = np.arange(1, n) * second[:, :-1]
    # term by term: T_0 -> T_1, T_1 -> T_2/4, T_k -> T_(k+1)/(2k+2) - T_(k-1)/(2k-2)
    integral = np.zeros((n + 1, n))
    integral[1, 0] = 1.0
    for k in range(1, n):
        integral[k + 1, k] = 1.0 / (2 * k + 2)
        if k > 1:
            integral[k - 1, k] = -1.0 / (2 * k - 2)
    integral[0] = -integral[1:].sum(axis=0)  # vanish at t = 1, where every T_k is 1
    return -integral @ to_series, slope @ to_series


_ANTIDERIVATIVE, _SLOPE = _series_matrices()  # (16, 15), (15, 15)
_N_TERMS = _ANTIDERIVATIVE.shape[0]

_CONST, _CHEB, _BELOW, _PANEL, _ADAPT = range(5)  # zone kinds


@dataclass
class BranchTable:
    """Running transform integral C(d) for one outer branch.

    d is the distance from the interval endpoint; C(d) is the integral of
    sigma from the point at distance d to the interval midpoint, so C is
    positive and decreasing in d.  The mesh stores C at the graded nodes,
    and `zones_by_distance` turns those anchors into this branch's rows of
    a zone table (see the module docstring).  `values` evaluates 1/C through
    a table of this branch alone and clamps to the quarter-integral anchor at
    and above d_max (the quarter point, where the branch domain ends).
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

    def values(self, d: np.ndarray) -> np.ndarray:
        """Auxiliary weight on the branch: 1 / C(d)."""
        d = np.asarray(np.atleast_1d(d), dtype=float).ravel()
        lo, hi = sorted((self.endpoint, self.endpoint + self.sgn * self.d_max))
        table = _AuxTable(self.sigma, self.removables, self.cfg, [(self, lo, hi)])
        z = np.clip(table.zone(self.endpoint + self.sgn * d), 0, table.kind.size - 1)
        out = table.values(z, d)
        out[d >= self.d_max] = 1.0 / self.c_at_dmax
        return out

    def zones_by_distance(self) -> dict:
        """This branch's table rows in ascending distance, keyed by column.

        The innermost segments, too few ulps wide for rounding to leave
        their Kronrod nodes in place (to _MAX_NOISE of the half-width), join
        the below-mesh power law, which then runs from the outermost of them.
        Above them, Chebyshev candidates are runs of _GROUP mesh segments,
        then the single segments of rejected runs and the outer parts of
        those (_PARTS).  What no candidate covers is a panel zone (adaptive
        next to a removable zero).  `series` holds the Chebyshev zones'
        coefficients only, in row order.
        """
        d, c = self.d_mesh, self.c_nodes
        # the series run in s = log d, where sigma's power-law behaviour
        # toward the endpoint is smooth, between the mesh points as placed in
        # x (the points the anchors integrate between)
        xs = self.endpoint + self.sgn * d
        ls = np.log(self.sgn * (xs - self.endpoint))
        with np.errstate(divide="ignore"):  # sliver nodes can be closer than log resolves
            noise = _EPS * np.abs(xs[:-1]) / d[:-1] / (0.5 * np.diff(ls))
        sampled = (noise < _MAX_NOISE) | ~self.plain
        base = max(0, min(int(np.argmax(sampled)) if sampled.any() else d.size, d.size - 2))
        d, c, ls, plain = d[base:], c[base:], ls[base:], self.plain[base:]
        nseg = d.size - 1
        starts = np.arange(0, nseg, _GROUP)
        runs = starts[np.logical_and.reduceat(plain, starts)] if nseg else starts
        ok, run_series = self._fit(ls[runs], ls[np.minimum(runs + _GROUP, nseg)])
        runs, run_series = runs[ok], run_series[ok]
        rest = plain.copy()
        for k in runs:
            rest[k:k + _GROUP] = False
        rest = np.flatnonzero(rest)
        # each remaining segment whole, and its outer part beyond each
        # fraction of its width: a kink of w further in lies outside the
        # partial panels of all queries there
        part_lo = ls[rest] + _PARTS[:, None] * (ls[rest + 1] - ls[rest])
        ok, part_series = self._fit(part_lo.ravel(), np.tile(ls[rest + 1], _PARTS.size))
        ok = ok.reshape(part_lo.shape)
        took = np.flatnonzero(ok.any(axis=0))
        widest = np.argmax(ok[:, took], axis=0)
        first = np.concatenate([runs, rest[took]])
        outer = np.concatenate([np.minimum(runs + _GROUP, nseg), rest[took] + 1])
        s_lo = np.concatenate([ls[runs], part_lo[widest, took]])
        series = np.concatenate([run_series,
                                 part_series.reshape(*ok.shape, _N_TERMS)[widest, took]])
        series[:, 0] += c[outer]
        # panel zones: segments no series covers, or their part inside one
        seg = np.union1d(rest[~ok[0]], np.flatnonzero(~plain))
        n_c, n_s = first.size, seg.size
        # the power law below: the stored end slope, or over noisy nodes the
        # secant across the first halving of d above them
        g = min(_GROUP, nseg)
        slope = self.slope_inner if base == 0 else math.log(c[g] / c[0]) / math.log(d[g] / d[0])
        cols = {
            "d_start": np.concatenate([[0.0], np.where(s_lo == ls[first], d[first], np.exp(s_lo)),
                                       d[seg], [self.d_max]]),
            "kind": np.concatenate([[_BELOW], np.full(n_c, _CHEB),
                                    np.where(plain[seg], _PANEL, _ADAPT), [_CONST]]),
            "d_ref": np.concatenate([[math.log(d[0])], 0.5 * (s_lo + ls[outer]),
                                     d[seg + 1], [0.0]]),
            "scale": np.concatenate([[slope], 0.5 * (ls[outer] - s_lo),
                                     np.zeros(n_s), [0.0]]),
            "c_ref": np.concatenate([[math.log(c[0])], np.zeros(n_c), c[seg + 1],
                                     [1.0 / self.c_at_dmax]]),
            "row": np.concatenate([[-1], np.arange(n_c), np.full(n_s + 1, -1)]),
        }
        order = np.argsort(cols["d_start"], kind="stable")
        cols = {key: val[order] for key, val in cols.items()}
        cols["series"] = series[cols.pop("row")[cols["kind"] == _CHEB]]
        return cols

    def _fit(self, s_lo: np.ndarray, s_hi: np.ndarray):
        """Chebyshev series, in s on [s_lo, s_hi], of the mass of sigma
        between log-distances s and s_hi, from one sigma call over the
        Kronrod nodes of every candidate; returns (accepted, series) per
        candidate.

        A candidate is accepted when its series is finite, its trailing
        coefficients have decayed to _TAIL_TOL of its largest (or to the
        rounding noise of its nodes, when that is larger), and rounding moved
        its nodes by less than _MAX_NOISE of its half-width.
        """
        half = 0.5 * (s_hi - s_lo)[:, None]
        centre = 0.5 * (s_hi + s_lo)[:, None]
        xs = self.endpoint + self.sgn * np.exp(centre + half * _NODES)
        dist = self.sgn * (xs - self.endpoint)  # the distances the nodes really have
        with np.errstate(all="ignore"):
            vals = np.asarray(self.sigma(xs.ravel()), dtype=float).reshape(xs.shape) * dist
            # rounding moved the nodes by `shift`; move the samples back along the slope
            shift = (np.log(dist) - centre) / half - _NODES
            vals -= shift * (vals @ _SLOPE.T)
            series = half * (vals @ _ANTIDERIVATIVE.T)
            noise = _EPS * np.max(np.abs(xs) / dist, axis=1) / half[:, 0]
            top = np.max(np.abs(series), axis=1)
            tail = np.max(np.abs(series[:, -_TAIL:]), axis=1)
            ok = (np.isfinite(top) & (noise < _MAX_NOISE)
                  & (tail <= np.maximum(_TAIL_TOL, noise) * top))
        return ok, series


def _clenshaw(series: np.ndarray, cols: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sum over k of series[k, cols] * T_k(t), gathering one term at a time."""
    b1 = np.zeros(t.shape)
    b2 = np.zeros(t.shape)
    tt = 2.0 * t
    for k in range(series.shape[0] - 1, 0, -1):
        b1, b2 = series[k, cols] + tt * b1 - b2, b1
    return series[0, cols] + t * b1 - b2


class _AuxTable:
    """Sorted zones over the line: the whole auxiliary weight, or one branch.

    Zone i covers [start[i], start[i+1]).  Columns by zone kind (d is the
    query's distance from the zone's endpoint `ep`, measured inward by `sgn`):

    =========  ==================  ===================  ==========================
    kind       d_ref               scale                c_ref
    =========  ==================  ===================  ==========================
    _CONST     -                   -                    the aux value itself
    _CHEB      centre of log d     half-width in log d  - (C is the series)
    _BELOW     log d at a node     log-log slope        log C at that node
    _PANEL     outer node          -                    C at the outer node
    _ADAPT     outer node          -                    C at the outer node
    =========  ==================  ===================  ==========================

    Built one branch at a time, so only one branch's sigma samples are held.
    """

    def __init__(self, sigma, removables: Sequence[float], cfg: QuadratureConfig, layout):
        """`layout` lists, in ascending x, constant zones as (start, value)
        and outer branches as (BranchTable, x_lo, x_hi)."""
        self.sigma = sigma
        self.removables = tuple(removables)
        self.cfg = cfg
        cols = {k: [] for k in ("start", "kind", "ep", "sgn", "d_ref", "scale", "c_ref")}
        series = [np.zeros((0, _N_TERMS))]

        def add(start, kind, ep=0.0, sgn=0.0, d_ref=0.0, scale=0.0, c_ref=0.0):
            n = np.size(start)
            for key, val in (("start", start), ("kind", kind), ("ep", ep), ("sgn", sgn),
                             ("d_ref", d_ref), ("scale", scale), ("c_ref", c_ref)):
                cols[key].append(np.broadcast_to(np.asarray(val, dtype=float), (n,)))

        def add_branch(br, x_lo, x_hi):
            z = br.zones_by_distance()
            # a zone holds the x whose distance d = sgn*(x - endpoint) lies in
            # [d_start, d_end); in ascending x it starts at the first float
            # with d >= d_start on the left branch, d < d_end on the right
            if br.sgn > 0:
                bound, rows = z["d_start"], slice(None)
            else:
                bound, rows = np.append(z["d_start"][1:], math.inf), slice(None, None, -1)
            near = br.endpoint + br.sgn * bound
            cands = np.stack([np.nextafter(near, -math.inf), near, np.nextafter(near, math.inf)])
            dist = br.sgn * (cands - br.endpoint)
            inside = dist >= bound if br.sgn > 0 else dist < bound
            x = cands[np.argmax(inside, axis=0), np.arange(near.size)]
            series.append(z["series"][rows])
            add(np.clip(x, x_lo, x_hi)[rows], z["kind"][rows], br.endpoint, br.sgn,
                z["d_ref"][rows], z["scale"][rows], z["c_ref"][rows])

        for item in layout:
            if isinstance(item[0], BranchTable):
                add_branch(*item)
            else:
                add(item[0], _CONST, c_ref=item[1])
        for key, vals in cols.items():
            setattr(self, key, np.concatenate(vals))
        self.kind = self.kind.astype(np.int8)
        # Chebyshev zone i keeps its series in column row[i], one row per term
        self.row = (np.cumsum(self.kind == _CHEB) - 1).astype(np.int32)
        self.series = np.ascontiguousarray(np.concatenate(series).T)
        if np.any(np.diff(self.start) < 0.0):
            raise ArithmeticError("auxiliary weight zones overlap")

    def zone(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.start, x, side="right") - 1

    def values(self, z: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Auxiliary weight at distance d inside zone z (d unused on constant zones)."""
        kind = self.kind[z]
        out = self.c_ref[z]
        sel = np.nonzero(kind == _CHEB)[0]
        if sel.size:
            zs = z[sel]
            t = (np.log(d[sel]) - self.d_ref[zs]) / self.scale[zs]
            out[sel] = 1.0 / _clenshaw(self.series, self.row[zs], t)
        sel = np.nonzero(kind == _BELOW)[0]
        if sel.size:
            zs = z[sel]
            ld = np.log(np.clip(d[sel], 1e-300, None))
            out[sel] = 1.0 / np.exp(self.c_ref[zs] + self.scale[zs] * (ld - self.d_ref[zs]))
        sel = np.nonzero(kind >= _PANEL)[0]
        if sel.size:
            out[sel] = 1.0 / self._partial_panels(z[sel], d[sel])
        return out

    def _partial_panels(self, z: np.ndarray, d: np.ndarray) -> np.ndarray:
        """C on panel zones: the outer anchor plus sigma's mass back to the query."""
        x_pt = self.ep[z] + self.sgn[z] * d
        x_far = self.ep[z] + self.sgn[z] * self.d_ref[z]
        plo = np.minimum(x_pt, x_far)
        phi = np.maximum(x_pt, x_far)
        part = np.zeros(d.shape)
        fast = (phi > plo) & (self.kind[z] == _PANEL)
        if np.any(fast):
            k15, _, finite, _ = _eval_panels(self.sigma, plo[fast], phi[fast])
            part[fast] = np.where(finite, k15, np.nan)
        for j in np.nonzero((phi > plo) & (self.kind[z] == _ADAPT))[0]:
            hint = [r for r in self.removables if plo[j] < r < phi[j]]
            res = integrate(self.sigma, float(plo[j]), float(phi[j]), self.cfg, singular=hint)
            part[j] = res.value if res.is_finite else math.inf
        for j in np.nonzero(np.isnan(part))[0]:
            res = integrate(self.sigma, float(plo[j]), float(phi[j]), self.cfg)
            part[j] = res.value if res.is_finite else math.inf
        return self.c_ref[z] + part


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
    if len(levels) == 1:
        return np.array([h_max])
    # math.log, not np.log: the two differ in the last ulp on some levels
    logs = np.array([math.log(d) for d in levels])
    mesh = np.exp(np.linspace(logs[:-1], logs[1:], _SUBNODES_PER_LEVEL, axis=1))
    return np.unique(mesh)  # ascending distances


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


def _whole_line(parts):
    """The table layout of the auxiliary weight: 0 off the intervals, their
    endpoint values, branches and plateaus in between."""
    yield -math.inf, 0.0
    prev_hi = -math.inf
    for part in parts:
        lo, hi = part.base.lo, part.base.hi
        if lo > prev_hi:  # touching intervals share the left one's endpoint value
            yield lo, part.lo_value
        yield part.left, np.nextafter(lo, math.inf), part.q1
        yield part.q1, part.plateau
        yield part.right, np.nextafter(part.q3, math.inf), hi
        yield hi, part.hi_value
        yield np.nextafter(hi, math.inf), 0.0
        prev_hi = hi


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
        self._zones: Optional[_AuxTable] = None  # tabulated on first evaluation

    def _table(self) -> _AuxTable:
        if self._zones is None:
            removables = [info.location for info in self.structure.removable_zeros]
            self._zones = _AuxTable(self.sigma, removables, self.cfg, _whole_line(self.parts))
        return self._zones

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        table = self._table()
        z = table.zone(flat)
        with np.errstate(invalid="ignore"):  # inf/nan x land on constant zones
            d = table.sgn[z] * (flat - table.ep[z])
        out = table.values(z, d)
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
    # relative to the identity's own size, so the residual is free of units
    return abs(fd - ideal) / (abs(ideal) if ideal != 0.0 else aux.cfg.abs_tol)


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
