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

from .quadrature import (DEFAULT_CONFIG, EndpointClass, QuadratureConfig,
                         classify_endpoint_integrability, local_exponent_estimate)
from .weights import Exponent, Weight, ZeroInfo, checked_samples, finite_peak, zero_runs


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
        touching intervals one float and parts the others by a zero region
        wider than its 1e-12 * width tolerance, so equality decides."""
        ivs = self.intervals
        return tuple(a.hi == b.lo for a, b in zip(ivs, ivs[1:]))


def _golden_min(f, lo: float, hi: float) -> float:
    """Golden-section minimum of a unimodal-ish scalar function, in at most
    90 steps."""
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
        if b - a <= 1e-13 * max(abs(a), abs(b), 1.0):
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
    tol = 1e-12 * width
    regions = sorted((lo, hi) for lo, hi in regions if hi - lo > tol)
    out = []
    for lo, hi in regions:
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
    weight sits numerically on the integrability threshold at some zero.
    """
    cfg = cfg or DEFAULT_CONFIG
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
    removable, splitting = [], []
    for z in interior:
        # without a known exponent, probe out to half the gap to the nearest feature
        h0 = 0.5 * min(abs(nb - z) for nb in neighbors if abs(nb - z) > tol)
        e_l, e_r = w.side_exponent(z, -1), w.side_exponent(z, +1)
        if e_l is None:
            e_l = local_exponent_estimate(w, z, -1, h0)
        if e_r is None:
            e_r = local_exponent_estimate(w, z, +1, h0)
        ap_l, ap_r = p.alpha_p(e_l), p.alpha_p(e_r)
        info = ZeroInfo(z, e_l, e_r)
        if ap_l >= 1.0 or ap_r >= 1.0:
            splitting.append(info)
        else:
            removable.append(info)

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
        lo_cls = classify_endpoint_integrability(w, p, s_lo, mid, cfg,
                                                 interior_singular=removable_pts)
        hi_cls = classify_endpoint_integrability(w, p, s_hi, mid, cfg,
                                                 interior_singular=removable_pts)
        intervals.append(DegeneracyInterval(s_lo, s_hi, lo_cls, hi_cls))

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
