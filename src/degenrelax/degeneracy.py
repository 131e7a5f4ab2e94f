"""Degeneracy structure of a weight: where the transform w^(-1/(p-1)) is locally integrable.

The structure of a weight w on (a, b) for an exponent p is the maximal open
set where w^(-1/(p-1)) is locally integrable, decomposed into finitely many
ordered disjoint open intervals.  Interval boundaries arise three ways:

* the domain endpoints themselves,
* boundaries of zero regions (w == 0 on a span, so the transform is +inf
  on a set of positive measure there),
* isolated zeros z where the transform fails local integrability on at
  least one side, i.e. the local power exponent alpha of w satisfies
  alpha/(p-1) >= 1 on that side.

Isolated zeros that are integrable from both sides are removable: they stay
strictly inside an interval and are reported as diagnostics only.

Each side of a zero, and each interval end, gets its exponent and the rule
that found it once per detect_structure (side_exponent_rule); an estimate
probes out to half the gap to the nearest feature at an interior zero, and
to the half interval at a domain end or region edge.  The classifier in
quadrature is handed that pair and only integrates.

A weight without a zero set is scanned at 8,193 even points.  Runs of
samples at or below 1e-14 times the peak are zero regions; small isolated
sample minima are refined by golden search.  Only interior minima, and end
samples above 0, are refined: an end sample of exactly 0 is a zero on that
end, wherever the domain lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import EndpointClass, QuadratureConfig, classify_endpoint_integrability
from .weights import Exponent, Weight, ZeroInfo, checked_samples, finite_peak, zero_runs


class IndeterminateIntegrabilityError(RuntimeError):
    """Numeric evidence sits too close to the integrable/non-integrable split to call."""


@dataclass(frozen=True)
class DegeneracyInterval:
    """One maximal interval of the structure, with one-sided endpoint behavior."""

    lo: float
    hi: float
    lo_class: EndpointClass  # integrability of the transform next to lo, toward mid
    hi_class: EndpointClass

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class DegeneracyStructure:
    """Ordered decomposition of the local-integrability set of the transform.

    kind is "zero" when the set is empty (w vanishes a.e.), "finite" for an
    ordinary finite decomposition, and "infinite_truncated" when the weight
    is a finite truncation of an infinite family, so the finite interval
    list stands in for an infinite one.  Every quadrature range may be
    handed all of removable_zeros: integrate_ranges ignores the points
    outside a range.
    """

    p: float
    intervals: tuple[DegeneracyInterval, ...]
    kind: str
    removable_zeros: tuple[ZeroInfo, ...]
    split_zeros: tuple[ZeroInfo, ...]
    zero_regions: tuple[tuple[float, float], ...]

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def touching(self) -> tuple[bool, ...]:
        """Per pair of neighbouring intervals: do they share an end (a seam
        the recovery tapers across, where aux takes the left value) rather
        than leave a gap (which it bridges)?  detect_structure gives
        touching intervals one float and parts the others by a zero region,
        any region the weight reports however narrow, so equality decides."""
        ivs = self.intervals
        return tuple(a.hi == b.lo for a, b in zip(ivs, ivs[1:]))


def local_exponent_estimate(w: Weight, z: float, side: int, h0: float) -> float:
    """Least-squares slope of log w against log distance on one side of z.

    Samples at distances h0 * 2^-k for k = 4 ... 20, none closer than twice
    w.resolution_near(z) (inside one grid cell a linear interpolant always
    looks like exponent 1).  Returns math.inf when fewer than 3 probes lie
    inside the domain past that floor, or when fewer than 3 of them sample a
    positive weight, i.e. vanishing faster than any power (or identically)
    on that side.
    """
    d = h0 * 2.0 ** (-np.arange(4, 21).astype(float))
    d = d[d >= 2.0 * w.resolution_near(z)]
    x = z + side * d
    x = x[(x > w.domain.lo) & (x < w.domain.hi)]
    if x.size < 3:
        return math.inf
    vals = np.asarray(w(x), dtype=float)
    keep = vals > 0.0
    if np.count_nonzero(keep) < 3:
        return math.inf
    ld = np.log(np.abs(x[keep] - z))
    lv = np.log(vals[keep])
    ld, lv = ld - ld.mean(), lv - lv.mean()
    return float(ld @ lv / (ld @ ld))


def side_exponent_rule(w: Weight, p: Exponent, z: float, side: int,
                       reach: float) -> tuple[float, str]:
    """(alpha, rule): w.side_exponent ("exact-exponent"), 0 where w(z) exceeds
    1e-10 times the weight's peak ("positive-weight"), else the estimate with
    probes out to `reach` ("estimated-exponent"), which on a sampled weight
    (positive w.resolution_near) raises IndeterminateIntegrabilityError
    within 0.02 of the threshold alpha/(p-1) = 1."""
    alpha = w.side_exponent(z, side)
    if alpha is not None:
        return alpha, "exact-exponent"
    if 1e-10 * w._peak < float(np.asarray(w(np.array([z])), dtype=float)[0]) < math.inf:
        return 0.0, "positive-weight"
    alpha = local_exponent_estimate(w, z, side, reach)
    if w.resolution_near(z) > 0.0 and abs((ap := p.alpha_p(alpha)) - 1.0) < 0.02:
        raise IndeterminateIntegrabilityError(
            f"estimated transform exponent {ap:.4f} at x={z} sits within 0.02 "
            f"of the integrability threshold 1; refine the grid near x={z}")
    return alpha, "estimated-exponent"


def _golden_min(f, lo: float, hi: float) -> float:
    """Golden-section minimum of a unimodal-ish scalar function: at most 90
    steps, stopping once the bracket is 4 ulps wide (a relative stop, free of
    where the domain lies)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= 4.0 * math.ulp(max(abs(a), abs(b))):
            break
    return 0.5 * (a + b)


def _bisect_threshold(f, below: float, above: float) -> float:
    """Boundary point between f <= 0 at `below` and f > 0 at `above`, to
    1e-12 of their distance."""
    span = abs(above - below)
    a, b = below, above
    for _ in range(200):
        m = 0.5 * (a + b)
        if f(m) <= 0.0:
            a = m
        else:
            b = m
        if abs(b - a) <= 1e-12 * span:
            break
    return 0.5 * (a + b)


def _scan_weight(w: Weight):
    """Zero candidates of a weight without a zero set: (isolated zeros, zero
    regions).  Raises WeightSpecError at the first NaN or negative sample."""
    dom = w.domain
    xs, vals = checked_samples(w)
    n = xs.size
    peak = finite_peak(vals)
    if peak <= 0.0:
        return [], [(dom.lo, dom.hi)]
    tol = 1e-14 * peak
    at = lambda t: float(w(np.array([t]))[0])

    first, last = zero_runs(vals)
    flat = last > first  # a genuine flat span; refine its edges
    first, last = first[flat], last[flat]
    regions = []
    for i0, i1 in zip(first.tolist(), last.tolist()):
        lo_edge = xs[i0] if i0 == 0 else _bisect_threshold(lambda t: at(t) - tol,
                                                            xs[i0], xs[i0 - 1])
        hi_edge = xs[i1] if i1 == n - 1 else _bisect_threshold(lambda t: at(t) - tol,
                                                                xs[i1], xs[i1 + 1])
        regions.append((float(min(lo_edge, hi_edge)), float(max(lo_edge, hi_edge))))

    # isolated zeros: small local minima of the samples off the flat spans
    # (a span's neighbours lie above it, so they are never minima), sharpened
    # by golden search; an end sample of exactly 0 is a zero on that end, so
    # not searched
    cover = np.zeros(n + 1, dtype=np.int64)
    np.add.at(cover, first, 1)
    np.add.at(cover, last + 1, -1)
    is_min = (vals <= 1e-5 * peak) & (np.add.accumulate(cover[:n]) == 0)
    is_min[1:] &= vals[1:] <= vals[:-1]
    is_min[:-1] &= vals[:-1] <= vals[1:]
    is_min[[0, -1]] &= vals[[0, -1]] > 0.0
    zeros = []
    for i in np.nonzero(is_min)[0].tolist():
        z = _golden_min(at, xs[max(i - 1, 0)], xs[min(i + 1, n - 1)])
        if at(z) <= tol:
            zeros.append(float(z))
    # dedupe refined locations that collapsed together
    zeros = sorted(zeros)
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 1e-10 * dom.width:
            merged.append(z)
    return merged, regions


def _merge_regions(regions, width):
    """The zero regions ascending, each run of regions that overlap or lie
    within 1e-12 * width of each other merged into one; none is dropped, so a
    gap of the structure is exactly a region the weight reports."""
    tol = 1e-12 * width
    out = []
    for lo, hi in sorted(regions):
        if out and lo <= out[-1][1] + tol:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def detect_structure(w: Weight, p: Exponent,
                     cfg: Optional[QuadratureConfig] = None) -> DegeneracyStructure:
    """Compute the degeneracy structure of w for exponent p.

    Deterministic; calling it twice on the same weight yields identical
    structures.  Raises IndeterminateIntegrabilityError when a sampled
    weight's estimate sits on the threshold at a zero side or an interval end.
    """
    dom = w.domain
    width = dom.width
    tol = 1e-12 * width

    zero_pts, regions = w.zero_set() or _scan_weight(w)
    regions = _merge_regions(regions, width)

    # zeros sitting on a region or domain boundary are edges already, not splits
    def _is_edge(z: float) -> bool:
        if z <= dom.lo + tol or z >= dom.hi - tol:
            return True
        return any(abs(z - r[0]) <= tol or abs(z - r[1]) <= tol for r in regions)

    def _in_region(z: float) -> bool:
        return any(r[0] + tol < z < r[1] - tol for r in regions)

    interior = sorted(z for z in zero_pts if not _is_edge(z) and not _in_region(z))

    neighbors = ([dom.lo, dom.hi] + interior
                 + [r[0] for r in regions] + [r[1] for r in regions])
    removable, splitting, sides = [], [], {}  # sides: (zero, side) -> (alpha, rule)
    for z in interior:
        reach = 0.5 * min(abs(nb - z) for nb in neighbors if abs(nb - z) > tol)
        for side in (-1, 1):
            sides[z, side] = side_exponent_rule(w, p, z, side, reach)
        info = ZeroInfo(z, sides[z, -1][0], sides[z, 1][0])
        splits = max(p.alpha_p(info.left_exponent), p.alpha_p(info.right_exponent)) >= 1.0
        (splitting if splits else removable).append(info)

    # carve the domain at one sorted set of ends, keeping each span wider than
    # tol that no region covers; a splitting zero within tol of the last one
    # kept cuts nothing
    cuts = []
    for info in splitting:
        if not cuts or info.location - cuts[-1] > tol:
            cuts.append(info.location)
    ends = sorted({dom.lo, dom.hi, *cuts, *(e for r in regions for e in r)})
    segments = [(a, b) for a, b in zip(ends, ends[1:])
                if b - a > tol and not any(r_lo <= a and b <= r_hi for r_lo, r_hi in regions)]

    removable_pts = [info.location for info in removable]
    intervals = []
    for s_lo, s_hi in segments:
        mid = 0.5 * (s_lo + s_hi)
        classes = []
        for z, side in ((s_lo, 1), (s_hi, -1)):  # a splitting zero's side is known
            alpha, rule = sides.get((z, side)) or side_exponent_rule(w, p, z, side, abs(mid - z))
            classes.append(classify_endpoint_integrability(w, p, z, mid, alpha, rule, cfg,
                                                           interior_singular=removable_pts))
        intervals.append(DegeneracyInterval(s_lo, s_hi, *classes))

    if not intervals:
        kind = "zero"
    elif w.truncated:
        kind = "infinite_truncated"
    else:
        kind = "finite"
    return DegeneracyStructure(
        p=p.p,
        intervals=tuple(intervals),
        kind=kind,
        removable_zeros=tuple(removable),
        split_zeros=tuple(splitting),
        zero_regions=tuple((float(a), float(b)) for a, b in regions),
    )
