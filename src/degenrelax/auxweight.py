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

An AuxWeight evaluates one flat table over the whole line, a sorted list
of zones (_AuxTable), built whole on its first query and never changed.
Endpoints, plateaus and the gaps between intervals are constant zones; each
outer branch has its own zones, which hold the running integral C between
the query and the midpoint; a mass zone holds it as C at an anchor x plus
the branch's masses (sigma's mass over a span) back to the query.

* ExactBranch, for a weight with closed-form sigma masses
  (Weight.sigma_masses: piecewise power and grid weights).  build_aux_weight
  makes one call of the masses over the segments between each interval's
  ends, quarter points, midpoint and the breakpoints of w, and sums C at
  those knots outward from the midpoint.  Each segment of a branch is a
  mass zone anchored at its knot nearer the midpoint.
* BranchTable, for any other weight.  One lockstep drive (integrate_ranges)
  integrates sigma over the quarter spans.  The table's build tabulates
  each branch's C at the nodes of a graded mesh, one batch of Kronrod panels:
  eleven nodes per halving of d (the distance from the endpoint) down to
  float resolution, nodes closing in on each removable zero (the segments
  touching one are one ulp wide, see _sliver_nodes) and a node on each other
  breakpoint of w.  Chebyshev zones hold the series of C in s = log d, fitted
  to sigma at the 15 Kronrod nodes of a halving of d (ten mesh segments), or
  of one segment where that series does not decay.  The segments touching a
  removable zero and those no series fits (a kink of w that w.breakpoints()
  does not declare) are mass zones anchored at their outer node; the
  branch's masses are one Kronrod panel per span, with integrate()'s rule
  for a non-finite node.  Below the deepest node, and over the innermost
  segments too few ulps wide for their samples to be more than rounding
  noise, C follows the log-log secant across the halving of d above.

Either way the build gives every plateau, branch limit and bound.  An
evaluation is one sorted search, then per zone kind one vectorized pass: a
Chebyshev sum, the secant, or the masses (a table's: one batched sigma call
per 1,152 panels, quadrature._MAX_REQUEST).  An AuxWeight also holds, as
long as it lives, what its chain's density drives keep (kept); spaces alone
reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .degeneracy import DegeneracyInterval, DegeneracyStructure
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _NODES, _eval_panels, integrate_ranges
from .weights import Exponent, Weight, sorted_unique


_SUBNODES_PER_LEVEL = 11  # log-spaced mesh points per dyadic distance level
_GROUP = 10               # mesh segments per Chebyshev zone (a distance ratio of 2)
_TAIL = 3                 # trailing series coefficients that must have decayed
_TAIL_TOL = 1e-14         # their size allowed relative to the largest coefficient
_EPS = float(np.finfo(float).eps)
_MAX_NOISE = 1.0 / 16.0   # node rounding, in half-widths, that the slope correction may absorb
_BLOCK = 4096             # points per coefficient gather in a Chebyshev sum


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

_CONST, _CHEB, _BELOW, _MASS = range(4)  # zone kinds


class _Branch:
    """An outer branch: its zones of the table in ascending x (rows)."""

    def values(self, d: np.ndarray) -> np.ndarray:
        """Auxiliary weight 1 / C(d) on the branch, through a table of this
        branch alone; the quarter-point limit at and above d_max."""
        d = np.asarray(np.atleast_1d(d), dtype=float).ravel()
        table = _AuxTable([(self, *sorted((self.endpoint, self.endpoint + self.sgn * self.d_max)))])
        x = self.endpoint + self.sgn * d
        out = table.values(np.clip(table.zone(x), 0, table.kind.size - 1), x, d)
        out[d >= self.d_max] = 1.0 / self.c_at_dmax
        return out


@dataclass
class BranchTable(_Branch):
    """C(d) for one outer branch of a weight without sigma masses, d the
    distance from the endpoint: the graded mesh (d_mesh, up to d_max, whose
    node is the float `quarter`) and C at its nodes (c_nodes), tabulated on
    first access (the aux table's build) as one call of its masses summed onto
    c_at_dmax.  A segment sigma is not integrable on, or an anchor that is not
    positive, raises ArithmeticError on every access."""

    sigma: object                 # transform callable
    endpoint: float
    sgn: float                    # x = endpoint + sgn * d
    quarter: float                # where the branch ends: the interval's q1 or q3
    removables: Sequence[float]   # removable zeros of w: sliver nodes close in on them
    kinks: np.ndarray             # the other breakpoints of w: mesh nodes
    cfg: QuadratureConfig
    c_at_dmax: float              # C at the quarter point

    d_mesh = property(lambda self: self._tabulated[0], doc="ascending distances")
    c_nodes = property(lambda self: self._tabulated[1], doc="C at the mesh nodes, descending")
    plain = property(lambda self: self._tabulated[2], doc="per segment: free of removable zeros")
    d_max = property(lambda self: self._tabulated[3], doc="the last mesh node: the quarter point")

    @cached_property
    def _tabulated(self) -> tuple:
        d_mesh, lo, hi, plain = _branch_mesh(self.endpoint, self.quarter, self.removables,
                                             self.kinks)
        vals = self.masses(lo, hi)
        if np.isinf(vals).any():
            j = int(np.argmax(np.isinf(vals)))
            lo, hi = float(lo[j]), float(hi[j])
            nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES
            bad = ~np.isfinite(self.sigma(nodes))
            whole = ", across a whole panel" if bad.all() else ""
            raise ArithmeticError(
                f"transform not integrable inside the branch segment [{lo!r}, {hi!r}]: "
                f"sigma is non-finite at x={float(nodes[np.argmax(bad)])!r}{whole}")
        # C(d_mesh[k]) = c_at_dmax + mass of the segments further in than node k
        c_nodes = self.c_at_dmax + np.concatenate([[0.0], np.cumsum(vals[::-1])])[::-1]
        if np.any(c_nodes <= 0.0):
            raise ArithmeticError("cumulative transform integral lost positivity")
        return d_mesh, c_nodes, plain, float(d_mesh[-1])

    def masses(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """sigma's mass over each span [lo, hi], 0 on an empty one: one Kronrod
        panel per span, with integrate()'s rule for a non-finite node."""
        out = np.zeros(lo.shape)
        wide = hi > lo
        if wide.any():
            out[wide] = _eval_panels(self.sigma, lo[wide], hi[wide], self.cfg)[0]
        return out

    def zones_by_distance(self) -> dict:
        """This branch's table rows in ascending distance, keyed by column.

        The innermost segments, too few ulps wide for rounding to leave their
        Kronrod nodes in place (to _MAX_NOISE of the half-width), join the
        power law below.  Chebyshev candidates are runs of _GROUP segments,
        then the single segments of rejected runs; the rest are mass zones.
        `series` holds the Chebyshev zones' coefficients only, in row order."""
        d, c = self.d_mesh, self.c_nodes
        # the series run in s = log d, where sigma's power-law behaviour
        # toward the endpoint is smooth, between the mesh points as placed in
        # x (the points the anchors integrate between)
        xs = _mesh_x(self.endpoint, self.sgn, d, self.quarter)
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
        ok, seg_series = self._fit(ls[rest], ls[rest + 1])
        first = np.concatenate([runs, rest[ok]])
        outer = np.concatenate([np.minimum(runs + _GROUP, nseg), rest[ok] + 1])
        series = np.concatenate([run_series, seg_series[ok]])
        series[:, 0] += c[outer]
        # mass zones: segments no series covers, anchored at their outer node's x
        seg = sorted_unique(np.concatenate((rest[~ok], np.flatnonzero(~plain))))
        n_c, n_s = first.size, seg.size
        # the power law below: the log-log secant across the first halving
        # of d above its base node
        g = min(_GROUP, nseg)
        slope = math.log(c[g] / c[0]) / math.log(d[g] / d[0])
        cols = {
            "d_start": np.concatenate([[0.0], d[first], d[seg], [self.d_max]]),
            "kind": np.concatenate([[_BELOW], np.full(n_c, _CHEB), np.full(n_s, _MASS),
                                    [_CONST]]),
            "d_ref": np.concatenate([[math.log(d[0])], 0.5 * (ls[first] + ls[outer]),
                                     xs[base:][seg + 1], [0.0]]),
            "scale": np.concatenate([[slope], 0.5 * (ls[outer] - ls[first]),
                                     np.zeros(n_s), [0.0]]),
            "c_ref": np.concatenate([[math.log(c[0])], np.zeros(n_c), c[seg + 1],
                                     [1.0 / self.c_at_dmax]]),
            "row": np.concatenate([[-1], np.arange(n_c), np.full(n_s + 1, -1)]),
        }
        order = np.argsort(cols["d_start"], kind="stable")
        cols = {key: val[order] for key, val in cols.items()}
        cols["series"] = series[cols.pop("row")[cols["kind"] == _CHEB]]
        return cols

    def rows(self, x_lo: float, x_hi: float) -> tuple:
        """The zones of this branch in ascending x, their starts clipped to
        [x_lo, x_hi]: the table's columns as rows of one array, and the series."""
        z = self.zones_by_distance()
        # a zone holds the x whose distance d = sgn*(x - endpoint) lies in
        # [d_start, d_end); in ascending x it starts at the first float with
        # d >= d_start on the left branch, d < d_end on the right
        if self.sgn > 0:
            bound, rows = z["d_start"], slice(None)
        else:
            bound, rows = np.append(z["d_start"][1:], math.inf), slice(None, None, -1)
        near = self.endpoint + self.sgn * bound
        cands = np.stack([np.nextafter(near, -math.inf), near, np.nextafter(near, math.inf)])
        dist = self.sgn * (cands - self.endpoint)
        inside = dist >= bound if self.sgn > 0 else dist < bound
        x = cands[np.argmax(inside, axis=0), np.arange(near.size)]
        cols = np.broadcast_arrays(np.clip(x, x_lo, x_hi)[rows], z["kind"][rows], self.endpoint,
                                   self.sgn, z["d_ref"][rows], z["scale"][rows], z["c_ref"][rows])
        return np.array(cols, dtype=float), z["series"][rows]

    def _fit(self, s_lo: np.ndarray, s_hi: np.ndarray):
        """Chebyshev series, in s on [s_lo, s_hi], of sigma's mass between
        log-distances s and s_hi, from one sigma call over the Kronrod nodes
        of all candidates; (accepted, series) per candidate.  Accepted: the
        series is finite, its trailing coefficients decayed to _TAIL_TOL of its
        largest (or to its nodes' rounding noise, if larger), and rounding
        moved its nodes by less than _MAX_NOISE of its half-width."""
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


@dataclass
class ExactBranch(_Branch):
    """C for one outer branch of a weight with sigma_masses at its knots (in
    ascending x), and one mass zone per segment between them: C at its knot
    nearer the midpoint plus the closed-form mass back to the query."""

    masses: object                # the weight's sigma_masses
    endpoint: float
    sgn: float                    # x = endpoint + sgn * d
    knots: np.ndarray
    c_knots: np.ndarray           # C at the knots
    c_at_dmax = property(lambda self: float(self.c_knots[-1 if self.sgn > 0 else 0]))
    d_max = property(lambda self: float(self.knots[-1] - self.knots[0]))

    def rows(self, x_lo: float, x_hi: float) -> tuple:
        at = slice(1, None) if self.sgn > 0 else slice(None, -1)  # the knots nearer the midpoint
        cols = np.broadcast_arrays(np.clip(self.knots[:-1], x_lo, x_hi), _MASS, self.endpoint,
                                   self.sgn, self.knots[at], 0.0, self.c_knots[at])
        return np.array(cols, dtype=float), _NO_SERIES


def _clenshaw(series: np.ndarray, cols: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sum over k of series[k, cols] * T_k(t), gathering the coefficients of
    up to _BLOCK points at once (a bounded block, not one row per term)."""
    out = np.empty(t.shape)
    for at in range(0, t.size, _BLOCK):
        coef, x = series[:, cols[at:at + _BLOCK]], t[at:at + _BLOCK]
        b1 = np.zeros(x.shape)
        b2 = np.zeros(x.shape)
        tt = 2.0 * x
        for k in range(series.shape[0] - 1, 0, -1):
            b1, b2 = coef[k] + tt * b1 - b2, b1
        out[at:at + _BLOCK] = coef[0] + x * b1 - b2
    return out


_NO_SERIES = np.zeros((0, _N_TERMS))


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
    _MASS      its anchor, x       -                    C at the anchor
    =========  ==================  ===================  ==========================

    Built whole, every branch's rows at once, and never changed after."""

    def __init__(self, layout):
        """`layout`: in ascending x, constant zones as (start, value) and outer
        branches as (branch, x_lo, x_hi), all of one weight: mass zones read
        the masses of the first.  ArithmeticError if their zones overlap; a
        branch that cannot be built raises its error."""
        layout = list(layout)
        self.masses = next((head.masses for head, *_ in layout if isinstance(head, _Branch)), None)
        pieces = [head.rows(*rest) if isinstance(head, _Branch)
                  else (np.array([[head, _CONST, 0, 0, 0, 0, *rest]], dtype=float).T, _NO_SERIES)
                  for head, *rest in layout]
        cols = np.concatenate([piece[0] for piece in pieces], axis=1)
        if np.any(np.diff(cols[0]) < 0.0):
            raise ArithmeticError("auxiliary weight zones overlap")
        self.start, kind, self.ep, self.sgn, self.d_ref, self.scale, self.c_ref = cols
        self.kind = kind.astype(np.int8)
        # Chebyshev zone i keeps its series in column row[i], one row per term
        self.row = (np.cumsum(self.kind == _CHEB) - 1).astype(np.int32)
        self.series = np.ascontiguousarray(np.concatenate([piece[1] for piece in pieces]).T)

    def zone(self, x: np.ndarray) -> np.ndarray:
        """The zone of each x."""
        return np.searchsorted(self.start, x, side="right") - 1

    def values(self, z: np.ndarray, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Auxiliary weight at x, at distance d from the endpoint of its zone z."""
        kind = self.kind[z]
        out = self.c_ref[z]
        present = np.bincount(kind, minlength=_MASS + 1)  # the kinds to read
        if present[_CHEB]:
            sel = np.nonzero(kind == _CHEB)[0]
            zs = z[sel]
            t = (np.log(d[sel]) - self.d_ref[zs]) / self.scale[zs]
            out[sel] = 1.0 / _clenshaw(self.series, self.row[zs], t)
        if present[_BELOW]:
            sel = np.nonzero(kind == _BELOW)[0]
            zs = z[sel]
            ld = np.log(np.clip(d[sel], 1e-300, None))
            with np.errstate(over="ignore"):  # C past the float range: aux reads its limit 0
                out[sel] = 1.0 / np.exp(self.c_ref[zs] + self.scale[zs] * (ld - self.d_ref[zs]))
        if present[_MASS]:  # C at the anchor plus the mass back to x
            sel = np.nonzero(kind == _MASS)[0]
            xs, anchor, c = x[sel], self.d_ref[z[sel]], self.c_ref[z[sel]]
            out[sel] = 1.0 / (c + self.masses(np.minimum(xs, anchor), np.maximum(xs, anchor)))
        return out


def _graded_mesh(h_max: float, anchor: float, sgn: float) -> np.ndarray:
    """Distances h_max down to the float-representability floor, 11 per halving."""
    levels = [h_max]
    while (nxt := 0.5 * levels[-1]) > 0.0 and anchor + sgn * nxt != anchor and len(levels) <= 80:
        levels.append(nxt)
    if len(levels) == 1:
        return np.array([h_max])
    # math.log, not np.log: the two differ in the last ulp on some levels
    logs = np.array([math.log(d) for d in levels])
    mesh = np.exp(np.linspace(logs[:-1], logs[1:], _SUBNODES_PER_LEVEL, axis=1))
    return sorted_unique(mesh)  # ascending distances


def _sliver_nodes(d_r: float, d_max: float) -> np.ndarray:
    """Geometric mesh nodes closing in on distance d_r from both sides: the
    two segments that touch a removable zero come out one ulp wide, Kronrod
    panels like any other (with integrate()'s rule for a non-finite node on
    the zero).  No node resolves sigma's mass within those few ulps, which a
    strong zero makes large: exact branches hold it."""
    out = [d_r]
    for span, sg in ((d_max - d_r, 1.0), (d_r, -1.0)):
        off = 0.5 * span
        while off > 0.0 and d_r + sg * off != d_r:
            val = d_r + sg * off
            if 0.0 < val < d_max:
                out.append(val)
            off *= 0.5
    return np.asarray(out)


def _kink_nodes(d_mesh: np.ndarray, endpoint: float, sgn: float,
                kinks: np.ndarray) -> np.ndarray:
    """The graded mesh with a node on each kink strictly inside the branch.
    A graded node closer to a kink than 2 eps |x| / _MAX_NOISE (the narrowest
    segment whose rounding a Chebyshev fit tolerates) gives way to the kink,
    and a kink that close to the quarter point is left out."""
    d_k = sgn * (kinks - endpoint)
    tol = 2.0 * _EPS / _MAX_NOISE * np.abs(kinks)
    inside = (d_k > 0.0) & (d_k < d_mesh[-1] - tol)
    if not inside.any():
        return d_mesh
    order = np.argsort(d_k[inside])
    d_k, tol = d_k[inside][order], tol[inside][order]
    at = np.searchsorted(d_k, d_mesh[:-1])
    near = np.zeros(d_mesh.size, dtype=bool)
    for k in (np.maximum(at - 1, 0), np.minimum(at, d_k.size - 1)):
        near[:-1] |= np.abs(d_mesh[:-1] - d_k[k]) <= tol[k]
    return sorted_unique(np.concatenate((d_mesh[~near], d_k)))


def _mesh_x(endpoint: float, sgn: float, d_mesh: np.ndarray, quarter: float) -> np.ndarray:
    """A branch mesh's nodes in x: endpoint + sgn * d, the last the quarter point."""
    return np.append(endpoint + sgn * d_mesh[:-1], quarter)


def _branch_mesh(endpoint: float, quarter: float, removables: Sequence[float],
                 kinks: np.ndarray) -> tuple:
    """The graded mesh of the branch from endpoint to its quarter point (its
    last node, that float), cut at the kinks of w (not removable zeros) inside
    it: its ascending distances, its segments as x ranges (lo, hi), inner to
    outer, and which of them are free of removable zeros."""
    sgn = 1.0 if quarter > endpoint else -1.0
    d_mesh = _kink_nodes(_graded_mesh(abs(quarter - endpoint), endpoint, sgn), endpoint, sgn, kinks)
    extra = [_sliver_nodes((r - endpoint) * sgn, d_mesh[-1]) for r in removables
             if 0.0 < (r - endpoint) * sgn <= d_mesh[-1]]
    if extra:
        d_mesh = sorted_unique(np.concatenate([d_mesh, *extra]))
    xs = _mesh_x(endpoint, sgn, d_mesh, quarter)
    # nodes can collide in x at float resolution (keep the outer) or round onto the endpoint
    keep = np.append(sgn * np.diff(xs) > 0.0, True) & (xs != endpoint)
    d_mesh, xs = d_mesh[keep], xs[keep]
    seg_lo, seg_hi = np.minimum(xs[:-1], xs[1:]), np.maximum(xs[:-1], xs[1:])
    plain = np.ones(seg_lo.size, dtype=bool)
    for r in removables:
        # segments touching the zero stay out of the Chebyshev fits (a series
        # there could span the zero); the sliver mesh makes them one ulp wide
        plain &= ~((r >= seg_lo) & (r <= seg_hi))
    return d_mesh, seg_lo, seg_hi, plain


@dataclass
class AuxInterval:
    base: DegeneracyInterval
    left: _Branch
    right: _Branch

    plateau = property(lambda self: 1.0 / (self.left.c_at_dmax + self.right.c_at_dmax))
    left_limit = property(lambda self: 1.0 / self.left.c_at_dmax)    # at q1: the branch's max
    right_limit = property(lambda self: 1.0 / self.right.c_at_dmax)  # at q3
    lo_value = property(lambda self: _end_value(self.base.lo_class))  # the limit at base.lo
    hi_value = property(lambda self: _end_value(self.base.hi_class))
    q1 = property(lambda self: _quarters(self.base)[0])
    q3 = property(lambda self: _quarters(self.base)[1])


def _quarters(iv: DegeneracyInterval) -> tuple[float, float]:
    """q1 and q3 of a structure interval: where its left and right branches end."""
    return iv.lo + 0.25 * iv.width, iv.lo + 0.75 * iv.width


def _end_value(cls) -> float:  # 0 when the half integral diverges
    return 1.0 / cls.value if cls.integrable else 0.0


def _whole_line(parts, touching):
    """The table layout of the auxiliary weight: 0 off the intervals, their
    endpoint values, branches and plateaus in between.  touching is the
    structure's, one flag per pair of neighbouring parts."""
    yield -math.inf, 0.0
    for part, seam in zip(parts, (False, *touching)):
        lo, hi = part.base.lo, part.base.hi
        if not seam:  # touching intervals share the left one's endpoint value
            yield lo, part.lo_value
        yield part.left, np.nextafter(lo, math.inf), part.q1
        yield part.q1, part.plateau
        yield part.right, np.nextafter(part.q3, math.inf), hi
        yield hi, part.hi_value
        yield np.nextafter(hi, math.inf), 0.0


class AuxWeight:
    """Evaluable auxiliary weight for a degeneracy structure.

    Callable on scalars or arrays; zero off the closure of the structure
    intervals, and the left interval's endpoint value where two touch.  It
    reads one zone table, built whole on the first query: a branch that
    cannot be built fails that query, wherever it lands, and every later one.
    `kept` is one dict per chain, which the density drives of spaces fill
    and read (see spaces.density_integrals); this class never looks in it."""

    def __init__(self, weight: Weight, p: Exponent, structure: DegeneracyStructure, parts: list):
        self.weight = weight
        self.exponent = p
        self.structure = structure
        self.parts: list[AuxInterval] = parts
        self.sigma = weight.transform(p)
        self._zones: Optional[_AuxTable] = None  # made on the first query
        self.kept: dict = {}  # what its chain's density drives keep (spaces): opaque here

    def _table(self) -> _AuxTable:
        if self._zones is None:
            self._zones = _AuxTable(_whole_line(self.parts, self.structure.touching))
        return self._zones

    def ambient_weight(self, x) -> np.ndarray:
        """aux(x)^(p-1), the weight of the ambient L^p norm."""
        return np.asarray(self(x), dtype=float) ** (self.exponent.p - 1.0)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        table = self._table()
        z = table.zone(flat)
        with np.errstate(invalid="ignore"):  # inf/nan x land on constant zones
            d = table.sgn[z] * (flat - table.ep[z])
        out = table.values(z, flat, d)
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
    """Construct the auxiliary weight for a previously detected structure:
    ExactBranches for a weight with sigma_masses, else BranchTables, whose
    meshes (and their errors) wait for the aux weight's first query.
    A quarter span that diverges raises ArithmeticError."""
    cfg = cfg or DEFAULT_CONFIG
    if structure.p != p.p:
        raise ValueError(f"structure was computed for p={structure.p}, not p={p.p}")
    masses = w.sigma_masses(p)
    kinks = sorted_unique(np.asarray(w.breakpoints(), dtype=float))
    if masses is not None:
        branches = _exact_branches(masses, structure.intervals, kinks)
    else:
        sigma = w.transform(p)
        removables = [info.location for info in structure.removable_zeros]
        # removable zeros get sliver nodes instead
        kinks = kinks[~np.isin(kinks, sorted_unique(removables), assume_unique=True)]
        ends = [(end, sgn, q, iv.mid) for iv in structure.intervals
                for end, sgn, q in zip((iv.lo, iv.hi), (1.0, -1.0), _quarters(iv))]
        # one drive: the quarter span of each branch, from its quarter point to the midpoint
        res = integrate_ranges(lambda x, _: sigma(x), [(*sorted((q, mid)), removables, kinks)
                                                       for _, _, q, mid in ends], cfg)
        branches = [BranchTable(sigma, end, sgn, q, removables, kinks, cfg, span.value_or_inf)
                    for (end, sgn, q, _), span in zip(ends, res)]
    if not all(math.isfinite(br.c_at_dmax) for br in branches):
        raise ArithmeticError(
            "transform not integrable between quarter point and midpoint; "
            "the degeneracy structure should have split here")
    parts = [AuxInterval(iv, left, right)
             for iv, left, right in zip(structure.intervals, branches[::2], branches[1::2])]
    return AuxWeight(w, p, structure, parts)


def _exact_branches(masses, intervals, kinks: np.ndarray) -> list:
    """Two ExactBranches per interval: C at its ends, quarter points, midpoint
    and kinks, summed outward from the midpoint over one call of `masses`."""
    knots = [sorted_unique(np.concatenate(([iv.lo, iv.mid, iv.hi, *_quarters(iv)],
                                           kinks[(kinks > iv.lo) & (kinks < iv.hi)])))
             for iv in intervals]
    ends = np.cumsum([t.size - 1 for t in knots])[:-1]
    segs = np.split(masses(*(np.concatenate([t[s] for t in knots] + [np.zeros(0)])
                             for s in (slice(None, -1), slice(1, None)))), ends)
    out = []
    for iv, t, m in zip(intervals, knots, segs):
        k, q1, q3 = np.searchsorted(t, [iv.mid, *_quarters(iv)])
        c = np.concatenate((np.cumsum(m[:k][::-1])[::-1], [0.0], np.cumsum(m[k:])))
        out += [ExactBranch(masses, iv.lo, 1.0, t[:q1 + 1], c[:q1 + 1]),
                ExactBranch(masses, iv.hi, -1.0, t[q3:], c[q3:])]
    return out


def derivative_identity_residual(aux: AuxWeight, x: float) -> float:
    """Relative defect of the branch derivative identity at a single point.

    Compares the centered finite difference of the auxiliary weight, with a
    step of 3e-3 times the room to the branch ends around x, against
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
    h = 3e-3 * room
    if not (0.0 < h < room):
        raise ValueError(f"step {h} does not fit inside the branch around x={x}")
    fd = (aux(x + h) - aux(x - h)) / (2.0 * h)
    wx = float(aux(x))
    sx = float(np.asarray(aux.sigma(np.array([x])), dtype=float)[0])
    ideal = sign * wx * wx * sx
    # relative to the identity's own size, so the residual is free of units
    if ideal == 0.0:
        return 0.0 if fd == 0.0 else math.inf
    return abs(fd - ideal) / abs(ideal)


@dataclass(frozen=True)
class AuxBounds:
    """Supremum and infimum of the auxiliary weight, per interval and overall.

    Branch monotonicity puts each interval's supremum at a quarter-point
    branch limit and its infimum at an endpoint limit or the plateau.  The
    intervals cover the domain iff they tile it: the first starts at its lo,
    the last ends at its hi and every neighbouring pair touches.  Else aux
    vanishes off their closures, and the infimum over the domain is 0.
    """

    per_interval: tuple[tuple[float, float], ...]  # (sup_i, inf_i)
    sup: float
    inf: float
    covers_domain: bool


def aux_global_bounds(aux: AuxWeight) -> AuxBounds:
    """AuxBounds of aux; whether the intervals cover the domain, from its structure alone."""
    # endpoint values are the one-sided lower limits (0 on divergent sides)
    per = tuple((float(max(pt.left_limit, pt.right_limit, pt.plateau)),
                 float(min(pt.plateau, pt.lo_value, pt.hi_value))) for pt in aux.parts)
    ivs, dom, seams = aux.structure.intervals, aux.weight.domain, aux.structure.touching
    covers = bool(ivs) and (ivs[0].lo, ivs[-1].hi) == (dom.lo, dom.hi) and all(seams)
    sup = max((s for s, _ in per), default=0.0)
    inf = min((i_ for _, i_ in per), default=0.0) if covers else 0.0
    return AuxBounds(per, float(sup), float(inf), covers)
