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
of zones (_AuxTable).  Endpoints, plateaus and the gaps between intervals
are constant zones; each outer branch is a slot until the first query that
lands in it splices in the branch's own zones, which hold the running
integral C between the query and the midpoint in one of two ways.

* ExactBranch, for a weight with closed-form sigma masses
  (Weight.sigma_masses: piecewise power and grid weights).  build_aux_weight
  makes one call of the masses over the segments between each interval's
  ends, quarter points, midpoint and the breakpoints of w, and sums C at
  those knots outward from the midpoint.  Each segment of a branch is an
  exact zone: C at its knot nearer the midpoint plus the mass back to x.
* BranchTable, for any other weight.  One lockstep drive (integrate_ranges)
  integrates sigma over the quarter spans.  A branch's first query
  tabulates C at the nodes of a graded mesh, one batch of Kronrod panels:
  eleven nodes per halving of d (the distance from the endpoint) down to
  float resolution, nodes closing in on each removable zero (the segments
  touching one are one ulp wide, see _sliver_nodes) and a node on each other
  breakpoint of w.  Chebyshev zones hold the series of C in s = log d, fitted
  to sigma at the 15 Kronrod nodes of a halving of d (ten mesh segments), or
  of one segment where that series does not decay.  Panel zones, the
  segments touching a removable zero and those no series fits (a kink of w
  that w.breakpoints() does not declare), add one Kronrod panel between x
  and the outer node, with integrate()'s rule for a non-finite node.  Below
  the deepest node, and over the innermost segments too few ulps wide for
  their samples to be more than rounding noise, C follows the log-log secant
  across the halving of d above.

Either way the build gives every plateau, branch limit and bound.  An
evaluation is one sorted search, then per zone kind one vectorized pass:
the masses, a Chebyshev sum, or one batched sigma call per 1,152 panels
(quadrature._MAX_REQUEST).  The density drives' first pass over its own
ranges, aux^(p-1) and w there are kept once per AuxWeight (first_pass, samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .degeneracy import DegeneracyInterval, DegeneracyStructure
from .quadrature import (DEFAULT_CONFIG, FirstPass, QuadratureConfig, _NODES, _eval_panels,
                         integrate_ranges)
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

_CONST, _CHEB, _BELOW, _PANEL, _EXACT, _SLOT = range(6)  # zone kinds; _SLOT: a branch not yet built


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
    distance from the endpoint: the graded mesh (d_mesh, up to d_max, the
    quarter point) and C at its nodes (c_nodes), tabulated on first access as
    one batch of Kronrod panels summed onto c_at_dmax.  A segment sigma is not
    integrable on, or an anchor that is not positive, raises ArithmeticError
    on every access."""

    sigma: object                 # transform callable
    endpoint: float
    sgn: float                    # x = endpoint + sgn * d
    mid: float                    # the interval midpoint
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
        d_mesh, lo, hi, plain = _branch_mesh(self.endpoint, self.mid, self.removables, self.kinks)
        vals = _eval_panels(self.sigma, lo, hi, self.cfg)[0] if lo.size else lo
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

    def zones_by_distance(self) -> dict:
        """This branch's table rows in ascending distance, keyed by column.

        The innermost segments, too few ulps wide for rounding to leave their
        Kronrod nodes in place (to _MAX_NOISE of the half-width), join the
        power law below.  Chebyshev candidates are runs of _GROUP segments,
        then the single segments of rejected runs; the rest are panel zones.
        `series` holds the Chebyshev zones' coefficients only, in row order."""
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
        ok, seg_series = self._fit(ls[rest], ls[rest + 1])
        first = np.concatenate([runs, rest[ok]])
        outer = np.concatenate([np.minimum(runs + _GROUP, nseg), rest[ok] + 1])
        series = np.concatenate([run_series, seg_series[ok]])
        series[:, 0] += c[outer]
        # panel zones: segments no series covers
        seg = sorted_unique(np.concatenate((rest[~ok], np.flatnonzero(~plain))))
        n_c, n_s = first.size, seg.size
        # the power law below: the log-log secant across the first halving
        # of d above its base node
        g = min(_GROUP, nseg)
        slope = math.log(c[g] / c[0]) / math.log(d[g] / d[0])
        cols = {
            "d_start": np.concatenate([[0.0], d[first], d[seg], [self.d_max]]),
            "kind": np.concatenate([[_BELOW], np.full(n_c, _CHEB), np.full(n_s, _PANEL),
                                    [_CONST]]),
            "d_ref": np.concatenate([[math.log(d[0])], 0.5 * (ls[first] + ls[outer]),
                                     d[seg + 1], [0.0]]),
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
    ascending x), and one exact zone per segment between them: C at its knot
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
        cols = np.broadcast_arrays(np.clip(self.knots[:-1], x_lo, x_hi), _EXACT, self.endpoint,
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
    _PANEL     outer node          -                    C at the outer node
    _EXACT     its anchor knot, x  -                    C at that knot
    _SLOT      -                   -                    its index in the layout
    =========  ==================  ===================  ==========================

    A branch is one _SLOT zone until the first query that lands in it
    (`zone`) splices in its rows: once every branch was queried, the table
    equals one built whole."""

    def __init__(self, layout):
        """`layout`: in ascending x, constant zones as (start, value) and outer
        branches as (branch, x_lo, x_hi), all of one weight: panel zones read
        their sigma and cfg, exact zones their masses."""
        self._layout = list(layout)
        br = next((item[0] for item in self._layout if isinstance(item[0], _Branch)), None)
        self.sigma, self.cfg, self.masses = (getattr(br, key, None)
                                             for key in ("sigma", "cfg", "masses"))
        # one zone per layout item to start with: a constant, or a branch's slot
        zones = np.array([(item[1], _SLOT, 0, 0, 0, 0, k) if isinstance(item[0], _Branch)
                          else (item[0], _CONST, 0, 0, 0, 0, item[1])
                          for k, item in enumerate(self._layout)], dtype=float).T
        self._join([(zones[:, k:k + 1], _NO_SERIES) for k in range(zones.shape[1])])

    def _join(self, pieces: list) -> None:
        """Lay out the (columns, series) of each layout item as the table;
        ArithmeticError, with nothing changed, if their zones overlap."""
        cols = np.concatenate([piece[0] for piece in pieces], axis=1)
        if np.any(np.diff(cols[0]) < 0.0):
            raise ArithmeticError("auxiliary weight zones overlap")
        self.start, kind, self.ep, self.sgn, self.d_ref, self.scale, self.c_ref = cols
        self.kind = kind.astype(np.int8)
        self._unbuilt = bool(np.any(self.kind == _SLOT))
        self._pieces = pieces if self._unbuilt else None  # kept only while a slot is left
        # Chebyshev zone i keeps its series in column row[i], one row per term
        self.row = (np.cumsum(self.kind == _CHEB) - 1).astype(np.int32)
        self.series = np.ascontiguousarray(np.concatenate([piece[1] for piece in pieces]).T)

    def zone(self, x: np.ndarray) -> np.ndarray:
        """The zone of each x, once every branch that one lands in is built."""
        z = np.searchsorted(self.start, x, side="right") - 1
        hit = sorted_unique(self.c_ref[z[self.kind[z] == _SLOT]]) if self._unbuilt else ()
        if len(hit):
            pieces = list(self._pieces)
            for k in hit.astype(int):
                pieces[k] = self._layout[k][0].rows(*self._layout[k][1:])
            self._join(pieces)
            z = np.searchsorted(self.start, x, side="right") - 1
        return z

    def values(self, z: np.ndarray, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Auxiliary weight at x, at distance d from the endpoint of its zone z."""
        kind = self.kind[z]
        out = self.c_ref[z]
        present = np.bincount(kind, minlength=_SLOT + 1)  # the kinds to read
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
        if present[_PANEL]:
            sel = np.nonzero(kind == _PANEL)[0]
            out[sel] = 1.0 / self._partial_panels(z[sel], d[sel])
        if present[_EXACT]:  # C at the anchor plus the closed-form mass back to x
            sel = np.nonzero(kind == _EXACT)[0]
            xs, knot, c = x[sel], self.d_ref[z[sel]], self.c_ref[z[sel]]
            out[sel] = 1.0 / (c + self.masses(np.minimum(xs, knot), np.maximum(xs, knot)))
        return out

    def _partial_panels(self, z: np.ndarray, d: np.ndarray) -> np.ndarray:
        """C on panel zones: the outer anchor plus sigma's mass back to the query."""
        x_pt = self.ep[z] + self.sgn[z] * d
        x_far = self.ep[z] + self.sgn[z] * self.d_ref[z]
        plo = np.minimum(x_pt, x_far)
        phi = np.maximum(x_pt, x_far)
        part = np.zeros(d.shape)
        wide = phi > plo
        if np.any(wide):
            part[wide] = _eval_panels(self.sigma, plo[wide], phi[wide], self.cfg)[0]
        return self.c_ref[z] + part


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


def _branch_mesh(endpoint: float, mid: float, removables: Sequence[float],
                 kinks: np.ndarray) -> tuple:
    """The graded mesh of the half from endpoint to mid, up to its quarter
    point, cut at the kinks of w (not removable zeros) inside it: its
    ascending distances, its segments as x ranges (lo, hi), inner to outer,
    and which of them are free of removable zeros."""
    sgn = 1.0 if mid > endpoint else -1.0
    d_mesh = _graded_mesh(0.5 * abs(mid - endpoint), endpoint, sgn)  # up to the quarter point
    d_mesh = _kink_nodes(d_mesh, endpoint, sgn, kinks)
    extra = [_sliver_nodes((r - endpoint) * sgn, d_mesh[-1]) for r in removables
             if 0.0 < (r - endpoint) * sgn <= d_mesh[-1]]
    if extra:
        d_mesh = sorted_unique(np.concatenate([d_mesh, *extra]))
    xs = endpoint + sgn * d_mesh
    # distinct distances can collide in x at float resolution; keep the outer one
    keep = np.append(np.diff(xs) != 0.0, True)
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
    plateau: float
    left: _Branch
    right: _Branch
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
    reads one zone table, made on the first query; a branch's zones are laid
    in on the first query that lands in it, so left queries fit no right one.

    It also keeps, as long as it lives, what every u of its chain shares in
    a density drive over its own ranges (own_ranges): per term kinds the
    drive's quadrature.FirstPass (first_pass), and per term kind one store,
    aux^(p-1) or w at every node of its first request (samples).  A later
    u's drive of the same terms derives no first pass and calls neither aux
    nor w there; any other ambient drive reads the store's layout nodes."""

    def __init__(self, weight: Weight, p: Exponent, structure: DegeneracyStructure,
                 parts: list, cfg: QuadratureConfig):
        self.weight = weight
        self.exponent = p
        self.structure = structure
        self.parts: list[AuxInterval] = parts
        self.cfg = cfg
        self.sigma = weight.transform(p)
        self._zones: Optional[_AuxTable] = None  # made on the first query
        self._passes: dict = {}   # first_pass' layouts, by their term kinds
        self._samples: dict = {}  # samples' stores, by term kind (True: ambient)

    def _table(self) -> _AuxTable:
        if self._zones is None:
            self._zones = _AuxTable(_whole_line(self.parts, self.structure.touching))
        return self._zones

    def ambient_weight(self, x) -> np.ndarray:
        """aux(x)^(p-1), the weight of the ambient L^p norm."""
        return np.asarray(self(x), dtype=float) ** (self.exponent.p - 1.0)

    def own_ranges(self, kinds: tuple) -> list:
        """This weight's own ranges, one structure term per entry of `kinds`:
        an ambient term (True) over the parts (lo, hi, ()), an energy term
        (False) over the structure intervals graded into the removable zeros,
        all cut at the kinks of w and the ambient ones at the quarter points."""
        removables = [info.location for info in self.structure.removable_zeros]
        kinks = self.weight.breakpoints()
        return [(part.base.lo, part.base.hi, () if amb else removables,
                 np.concatenate((kinks, (part.q1, part.q3))) if amb else kinks)
                for amb in kinds for part in self.parts]

    def first_pass(self, kinds: tuple) -> tuple:
        """(layout, inputs) for integrate_ranges in a drive over
        own_ranges(kinds): the drive's quadrature.FirstPass, derived on the
        first drive of these kinds and kept, and per range its kind's store
        (samples), sampled at this layout's nodes if it is the first."""
        layout = self._passes.get(kinds)
        if layout is None:
            layout = self._passes[kinds] = FirstPass(self.own_ranges(kinds))
        n = len(self.parts)
        for t, amb in enumerate(kinds):
            if amb not in self._samples:  # one call at the nodes of this kind's first term
                x, index = layout.nodes()
                lo, hi = np.searchsorted(index, [t * n, t * n + n])
                values = np.asarray((self.ambient_weight if amb else self.weight)(x[lo:hi]),
                                    dtype=float)
                self._samples[amb] = np.split(
                    values, np.bincount(index[lo:hi] - t * n, minlength=n).cumsum())[:-1]
        return layout, [s for amb in kinds for s in self._samples[amb]]

    def samples(self, ambient: bool) -> list:
        """The store of one term kind: aux^(p-1) (ambient) or w at every node
        of the first request of own_ranges((ambient,)), its layout nodes then
        its pieces', one array per part, sampled in one call on first use
        (by first_pass) and kept."""
        if ambient not in self._samples:
            self.first_pass((ambient,))
        return self._samples[ambient]

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
    meshes (and their errors) wait for the first query that lands in each.
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
        ends = [(end, iv.mid, 1.0 if iv.mid > end else -1.0)
                for iv in structure.intervals for end in (iv.lo, iv.hi)]
        # one drive: the quarter span of each branch, from its quarter point to the midpoint
        spans = [sorted((end + sgn * 0.5 * abs(mid - end), mid)) for end, mid, sgn in ends]
        res = integrate_ranges(lambda x, _: sigma(x),
                               [(a, b, removables, kinks) for a, b in spans], cfg)
        branches = [BranchTable(sigma, end, sgn, mid, removables, kinks, cfg, quarter.value_or_inf)
                    for (end, mid, sgn), quarter in zip(ends, res)]
    if not all(math.isfinite(br.c_at_dmax) for br in branches):
        raise ArithmeticError(
            "transform not integrable between quarter point and midpoint; "
            "the degeneracy structure should have split here")
    parts = []
    for iv, left, right in zip(structure.intervals, branches[::2], branches[1::2]):
        parts.append(AuxInterval(
            base=iv, plateau=1.0 / (left.c_at_dmax + right.c_at_dmax), left=left, right=right,
            lo_value=1.0 / iv.lo_class.value if iv.lo_class.integrable else 0.0,
            hi_value=1.0 / iv.hi_class.value if iv.hi_class.integrable else 0.0,
            left_limit=1.0 / left.c_at_dmax, right_limit=1.0 / right.c_at_dmax,
        ))
    return AuxWeight(w, p, structure, parts, cfg)


def _exact_branches(masses, intervals, kinks: np.ndarray) -> list:
    """Two ExactBranches per interval: C at its ends, quarter points, midpoint
    and kinks, summed outward from the midpoint over one call of `masses`."""
    knots = [sorted_unique(np.concatenate(([iv.lo, iv.lo + 0.25 * iv.width, iv.mid,
                                            iv.lo + 0.75 * iv.width, iv.hi],
                                           kinks[(kinks > iv.lo) & (kinks < iv.hi)])))
             for iv in intervals]
    ends = np.cumsum([t.size - 1 for t in knots])[:-1]
    segs = np.split(masses(*(np.concatenate([t[s] for t in knots] + [np.zeros(0)])
                             for s in (slice(None, -1), slice(1, None)))), ends)
    out = []
    for iv, t, m in zip(intervals, knots, segs):
        k, q1, q3 = np.searchsorted(t, [iv.mid, iv.lo + 0.25 * iv.width, iv.lo + 0.75 * iv.width])
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
    inf = min((i_ for _, i_ in per), default=0.0) if covers else 0.0
    return AuxBounds(tuple(per), float(sup), float(inf), covers)
