"""Weight models on a bounded open interval.

A weight is a nonnegative, locally integrable function w on a bounded open
interval (a, b).  Weights here may vanish (degenerate) at isolated points or
on whole subintervals; everything downstream (degeneracy detection, the
auxiliary weight, energy functionals) is driven by the negative-power
transform w^(-1/(p-1)) for an exponent 1 < p < infinity.

Three representations are supported:

* ClosedFormWeight: arbitrary vectorized callable, optionally annotated with
  the locations and one-sided power exponents of its zeros.
* PiecewisePowerWeight: a tiling of the domain by pure power pieces
  m * |x - pivot|^alpha; uncovered subintervals mean w == 0.
* GridSampledWeight: samples on a grid, evaluated by linear interpolation.

Besides evaluation, every Weight answers these questions, so that no caller
needs to know which representation it holds:

* zero_set(): the exact zero locations and zero regions, or None when only
  scanning the samples can find them; the one source of w's zeros;
* side_exponent(z, side): the exact one-sided power exponent of w at z, or
  None when it must be estimated from samples;
* sigma_masses(p): the integral of the transform over spans inside segments
  between breakpoints, vectorized and in closed form (sigma is a power of a
  linear function on a power piece or a grid cell), or None;
* exact_transform_integral(p, lo, hi): those masses summed over [lo, hi], or None;
* resolution_near(z): the sampling scale of w near z (0.0 when w is known
  everywhere); exponent probes stay outside it, and where it is positive an
  estimated exponent within 0.02 of the threshold is indeterminate;
* breakpoints(): the points inside the domain where w kinks or jumps;
* transform(p): the function w^(-1/(p-1)), +inf where w == 0.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np


class WeightSpecError(ValueError):
    """Malformed weight specification (JSON/CSV/inline string or constructor args)."""


@dataclass(frozen=True)
class Exponent:
    """Integrability exponent p with 1 < p < infinity."""

    p: float

    def __post_init__(self):
        if not (isinstance(self.p, numbers.Real) and math.isfinite(self.p) and self.p > 1.0):
            raise WeightSpecError(f"exponent p must satisfy 1 < p < inf, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def conj(self) -> float:
        """Conjugate exponent p/(p-1); satisfies 1/p + 1/conj == 1."""
        return self.p / (self.p - 1.0)

    def alpha_p(self, alpha: float) -> float:
        """Rescaled power alpha/(p-1); the transform of |x|^alpha behaves like |x|^-alpha_p."""
        return alpha / (self.p - 1.0)


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise WeightSpecError(f"need finite lo < hi, got ({self.lo!r}, {self.hi!r})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class ZeroInfo:
    """An isolated zero of the weight and its one-sided local power exponents.

    An exponent of 0.0 means the one-sided limit of w is positive (no decay on
    that side).  math.inf means w vanishes identically on that side (adjacent
    zero region).  None means the side lies outside the domain.
    """

    location: float
    left_exponent: Optional[float]
    right_exponent: Optional[float]


class Weight:
    """Base class; concrete weights implement __call__ on float arrays and
    override the methods below where they know more than these defaults."""

    domain: Interval
    family: str = "custom"
    truncated: bool = False  # finite truncation of an infinite bump family

    def __call__(self, x) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def zero_set(self) -> Optional[tuple[tuple[float, ...], tuple[tuple[float, float], ...]]]:
        """(zero locations, zero regions) when exactly known, else None (scan)."""
        return None

    def side_exponent(self, z: float, side: int) -> Optional[float]:
        """Exact power exponent of w at z on one side (+1 right, -1 left).

        0.0 where w stays positive, math.inf where w vanishes identically on
        that side; None when there is no metadata and the exponent must be
        estimated from samples.
        """
        return None

    def sigma_masses(self, p: Exponent) -> Optional[Callable]:
        """masses(lo, hi): the integral of w^(-1/(p-1)) over each span [lo[i], hi[i]]
        inside one segment between breakpoints (math.inf where divergent), or None."""
        return None

    def exact_transform_integral(self, p: Exponent, lo: float, hi: float) -> Optional[float]:
        """Closed-form integral of w^(-1/(p-1)) over [lo, hi] (math.inf when divergent),
        or None when it must be integrated numerically."""
        if (masses := self.sigma_masses(p)) is None:
            return None
        dom, cuts = self.domain, np.asarray(self.breakpoints(), dtype=float)
        if not (dom.lo - 1e-12 * dom.width <= lo < hi <= dom.hi + 1e-12 * dom.width):
            raise ValueError(f"span ({lo}, {hi}) outside domain")
        ends = np.concatenate(([max(lo, dom.lo)], cuts[(cuts > lo) & (cuts < hi)],
                               [min(hi, dom.hi)]))
        return float(np.sum(masses(ends[:-1], ends[1:])))

    def resolution_near(self, z: float) -> float:
        """Scale below which samples of w near z carry no shape information."""
        return 0.0

    def breakpoints(self) -> Sequence[float]:
        """Points strictly inside the domain where w is known to kink or jump,
        ascending, so that density integrals cut their panels there and the
        auxiliary weight's branch meshes put a node on each."""
        return ()

    def transform(self, p: Exponent) -> Callable[[np.ndarray], np.ndarray]:
        """The function w^(-1/(p-1)), with +inf wherever w == 0."""
        expo = -1.0 / (p.p - 1.0)

        def sigma(x):
            vals = np.asarray(self(x), dtype=float)
            out = np.full(vals.shape, np.inf)
            pos = vals > 0.0
            out[pos] = vals[pos] ** expo
            return out

        return sigma

    def spec_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    @cached_property
    def _peak(self) -> float:
        """The largest finite of 513 even samples of w, taken once per weight."""
        return finite_peak(np.asarray(self(np.linspace(self.domain.lo, self.domain.hi, 513)),
                                      dtype=float))


# ---------------------------------------------------------------------------
# closed form weights


def checked_samples(w: Weight) -> tuple[np.ndarray, np.ndarray]:
    """(xs, w(xs)) at 8,193 even points of the closed domain; raises
    WeightSpecError at the first sample that is NaN or negative."""
    xs = np.linspace(w.domain.lo, w.domain.hi, 8193)
    vals = np.asarray(w(xs), dtype=float)
    bad = ~(vals >= 0.0)
    if bad.any():
        i = int(bad.argmax())
        raise WeightSpecError(f"weight is {float(vals[i])!r} at x={float(xs[i])!r}: not a weight")
    return xs, vals


@dataclass(frozen=True)
class ClosedFormWeight(Weight):
    fn: Callable[[np.ndarray], np.ndarray] = None
    domain: Interval = None
    family: str = "custom"
    params: dict = field(default_factory=dict)
    zeros: Optional[tuple[ZeroInfo, ...]] = None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.asarray(self.fn(x), dtype=float)

    def __post_init__(self):
        if self.zeros is not None:  # metadata replaces the scan: check the samples here
            checked_samples(self)

    def zero_set(self):
        return None if self.zeros is None else (tuple(z.location for z in self.zeros), ())

    def side_exponent(self, z: float, side: int) -> Optional[float]:
        for info in self.zeros or ():
            if abs(info.location - z) <= 1e-12 * self.domain.width:
                return info.right_exponent if side > 0 else info.left_exponent
        return None if self.zeros is None else 0.0  # no recorded zero at z: w positive there

    def spec_dict(self) -> dict:
        return {"family": self.family, **self.params}


def builtin_figure1() -> ClosedFormWeight:
    """w(x) = (1 - x^2)^2 on (-2, 2); interior double zeros at -1 and +1."""
    return ClosedFormWeight(
        fn=lambda x: (1.0 - x * x) ** 2,
        domain=Interval(-2.0, 2.0),
        family="figure1",
        zeros=(ZeroInfo(-1.0, 2.0, 2.0), ZeroInfo(1.0, 2.0, 2.0)),
    )


def builtin_power(alpha: float) -> PiecewisePowerWeight:
    """w(x) = x^alpha on (0, 1); requires alpha > -1 so w stays locally integrable."""
    alpha = float(alpha)
    if not (alpha > -1.0 and math.isfinite(alpha)):
        raise WeightSpecError(f"power weight needs alpha > -1, got {alpha}")
    return PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, alpha)],
                                family="power", params={"alpha": alpha})


# ---------------------------------------------------------------------------
# piecewise power weights


@dataclass(frozen=True)
class PowerPiece:
    """w(x) = scale * |x - pivot|^exponent on [lo, hi).  Scale may be given
    exactly through its base-2 log (log2scale), so that astronomically large
    coefficients never round through a float scale, which may then overflow
    to inf and is only displayed."""

    lo: float
    hi: float
    scale: float
    pivot: float
    exponent: float
    log2scale: Optional[float] = None

    def __post_init__(self):
        if not (self.lo < self.hi and math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise WeightSpecError(f"bad piece span ({self.lo}, {self.hi})")
        if self.log2scale is None:
            if not (self.scale > 0.0 and math.isfinite(self.scale)):
                raise WeightSpecError(f"piece scale must be positive finite, got {self.scale}")
        elif not math.isfinite(self.log2scale):
            raise WeightSpecError(f"piece log2scale must be finite, got {self.log2scale}")
        if not (self.exponent > -1.0 and math.isfinite(self.exponent)):
            raise WeightSpecError(f"piece exponent must be > -1, got {self.exponent}")
        if not math.isfinite(self.pivot):
            raise WeightSpecError(f"piece pivot must be finite, got {self.pivot}")
        # interior zeros are not representable by one piece; split at the pivot
        if self.exponent != 0.0 and self.lo < self.pivot < self.hi:
            raise WeightSpecError(
                f"piece pivot {self.pivot} lies strictly inside ({self.lo}, {self.hi}); split there"
            )

    @property
    def log2_scale(self) -> float:
        return math.log2(self.scale) if self.log2scale is None else self.log2scale


def _power_mass(y0, y1, gap, g, lg) -> np.ndarray:
    """2^lg times the integral of y^(g-1) over [y0, y1] (0 <= y0 <= y1, y1 > 0):
    2^lg lead^g shape, lead y0 where g < 0, else y1, and shape log(y1/y0) at
    g = 0, else (1 - (y0/y1)^|g|) / |g|.  log(y0/y1) keeps its digits near 0
    and, from gap = y1 - y0 (given apart), near 1; logs past the float range."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ell = np.where(y0 + y0 < y1, np.log(y0 / y1), np.log1p(-gap / y1))  # <= 0
        shape = np.where(g == 0.0, -ell, -np.expm1((ag := np.abs(g)) * ell) / ag)
        m = np.exp2(lg) * (lead := np.where(g < 0.0, y0, y1)) ** g * shape
        if m.size and not 0.0 < m.min() <= m.max() < math.inf:  # NaN fails too
            m = np.where(np.isfinite(m) & (m > 0.0), m,
                         np.exp2(lg + g * np.log2(lead) + np.log2(shape)))
    return m


class PiecewisePowerWeight(Weight):
    """Tiling of the domain by power pieces; uncovered spans carry w == 0.
    Evaluation, transform and sigma masses go through base-2 logs wherever
    astronomically large scales (cascade bumps) could overflow or underflow."""

    def __init__(self, domain: Interval, pieces: Sequence[PowerPiece],
                 family: str = "piecewise_power", params: Optional[dict] = None,
                 truncated: bool = False):
        self.domain = domain
        ps = sorted(pieces, key=lambda q: q.lo)
        tol = 1e-12 * domain.width  # how far a piece may pass its domain or its neighbour
        for q in ps:
            if q.lo < domain.lo - tol or q.hi > domain.hi + tol:
                raise WeightSpecError(f"piece ({q.lo}, {q.hi}) outside domain {domain}")
        for qa, qb in zip(ps, ps[1:]):
            if qb.lo < qa.hi - tol:
                raise WeightSpecError(f"pieces overlap near x={qb.lo}")
        self.pieces: tuple[PowerPiece, ...] = tuple(ps)
        self.family = family
        self.params = dict(params or {})
        self.truncated = truncated
        self._los, self._his, self._pivots, self._log2s, self._exponents, self._scales = (
            np.array([getattr(q, k) for q in self.pieces], dtype=float)
            for k in ("lo", "hi", "pivot", "log2_scale", "exponent", "scale"))
        # pieces sharing a formula in __call__: (exponent, log-domain path); -1 off the pieces
        keys = [(q.exponent, abs(q.log2_scale) > 512.0) for q in self.pieces]
        self._formulas = sorted(set(keys))
        self._formula = np.array([self._formulas.index(k) for k in keys] + [-1])
        self._ends = tuple(sorted({e for q in self.pieces for e in (q.lo, q.hi)
                                   if domain.lo < e < domain.hi}))
        # the uncovered spans (w == 0), from the furthest piece end so far to the next piece
        reach = accumulate([domain.lo] + [q.hi for q in self.pieces], max)
        starts = [q.lo for q in self.pieces] + [domain.hi]
        self._regions = tuple((a, b) for a, b in zip(reach, starts) if b > a + 1e-14 * domain.width)

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        # index of the piece containing each x ([lo, hi) half open, last piece closed), -1 if none
        idx = np.searchsorted(self._los, x, side="right") - 1  # -1 below the first piece
        if len(self.pieces):
            his = self._his[idx]
            inside = (x < his) | (x == his) & (idx == len(self.pieces) - 1)
            idx[~(inside & (idx >= 0))] = -1
        return idx

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        out = np.zeros(flat.shape)
        idx = self._piece_index(flat)
        formula = self._formula[idx]
        for k, (e, log_path) in enumerate(self._formulas):
            m = np.flatnonzero(formula == k)
            if not m.size:
                continue
            i = idx[m]
            d = np.abs(flat[m] - self._pivots[i])
            if log_path:
                # log-domain path: exp2(log2 m + alpha*log2 d), exact 0 at the pivot;
                # an exponent-0 piece is flat there, so 0 * log2(0) counts as 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    out[m] = np.exp2(self._log2s[i] + (0.0 if e == 0.0 else e * np.log2(d)))
            else:
                with np.errstate(divide="ignore"):  # a negative exponent reads +inf at the pivot
                    out[m] = self._scales[i] * d ** e  # e a scalar: numpy's fast paths round per e
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

    def transform(self, p: Exponent) -> Callable[[np.ndarray], np.ndarray]:
        inv = 1.0 / (p.p - 1.0)
        # per piece: sigma = exp2(c0 - c1 * log2 d), d = |x - pivot|; on a level
        # (exponent-0) piece c1 * log2 d reads 0 even at the pivot, as in __call__
        c0, c1, level = -inv * self._log2s, inv * self._exponents, self._exponents == 0.0

        def sigma(x):
            x = np.asarray(x, dtype=float)
            flat = np.atleast_1d(x).ravel()
            out = np.full(flat.shape, np.inf)
            idx = self._piece_index(flat)
            m = idx >= 0
            i = idx[m]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                t = np.log2(np.abs(flat[m] - self._pivots[i]))
                t *= c1[i]
                t[level[i]] = 0.0
                out[m] = np.exp2(np.subtract(c0[i], t, out=t), out=t)
            return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])

        return sigma

    def side_exponent(self, z: float, side: int) -> Optional[float]:
        """Exact power exponent of w at z on one side; None off the domain."""
        dom = self.domain
        if (side < 0 and z <= dom.lo) or (side > 0 and z >= dom.hi):
            return None
        tol = 1e-14 * dom.width
        for q in self.pieces:
            end = q.lo if side > 0 else q.hi  # the piece end facing z
            if abs(end - z) <= tol:
                return q.exponent if q.pivot == end else 0.0
        if any(q.lo < z < q.hi for q in self.pieces):
            return 0.0  # inside a piece w is positive (an inner pivot has exponent 0)
        return math.inf  # no piece on that side: uncovered, w == 0 there

    def zero_set(self) -> tuple[tuple[float, ...], tuple[tuple[float, float], ...]]:
        """The pivots of the decaying pieces, and the uncovered spans."""
        zeros = sorted({q.pivot for q in self.pieces
                        if q.exponent > 0.0 and q.pivot in (q.lo, q.hi)})
        return tuple(zeros), self._regions

    def breakpoints(self) -> tuple[float, ...]:
        """The piece ends strictly inside the domain."""
        return self._ends

    def sigma_masses(self, p: Exponent):
        """Per span, its piece's power or log antiderivative in d = |x - pivot|, formed
        from x - pivot; infinite on an uncovered span wider than 1e-14 of the domain."""
        ends, dom = np.asarray(self._ends, dtype=float), self.domain
        k = self._piece_index(0.5 * (np.append(dom.lo, ends) + np.append(ends, dom.hi)))
        level = np.where(self._exponents == 0.0, self._los, self._pivots)  # w flat: pivot at lo
        ex, lg, pivots = (np.append(a, 0.0)[k]  # per segment; k = -1 (uncovered) reads the 0
                          for a in (self._exponents, self._log2s / (1.0 - p.p), level))
        g = 1.0 - ex / (p.p - 1.0)  # per segment between ends: sigma ~ d^(g-1); 0: log
        g[np.abs(g) < 1e-15] = 0.0

        def masses(lo, hi):
            s = np.searchsorted(ends, 0.5 * (lo + hi), side="right")  # the segment
            d0, d1 = np.abs(lo - (piv := pivots[s])), np.abs(hi - piv)
            near, far = np.minimum(d0, d1), np.maximum(d0, d1)
            m = _power_mass(near, far, far - near, g[s], lg[s])
            if not (cov := k[s] >= 0).all():
                m = np.where(cov, m, np.where(hi - lo > 1e-14 * dom.width, np.inf, 0.0))
            return np.where(hi > lo, m, 0.0)

        return masses

    def exact_transform_integral(self, p: Exponent, lo: float, hi: float) -> float:
        """The base class's sum; infinite when [lo, hi], clipped to a piece, ends
        within 4 ulps of its pivot where sigma is not integrable, as if it met it."""
        total = super().exact_transform_integral(p, lo, hi)
        sel = (self._exponents * (1.0 / (p.p - 1.0)) >= 1.0) & (self._los < hi) & (lo < self._his)
        piv, a, b = self._pivots[sel], np.maximum(lo, self._los[sel]), np.minimum(hi, self._his[sel])
        at = np.where(np.abs(piv - a) <= np.abs(piv - b), a, b)  # the clipped end nearer the pivot
        met = np.abs(piv - at) <= 4.0 * np.spacing(np.maximum(np.abs(piv), np.abs(at)))
        return math.inf if met.any() else total

    def spec_dict(self) -> dict:
        if self.params:
            return {"family": self.family, **self.params}
        return {
            "family": "piecewise_power",
            "domain": [self.domain.lo, self.domain.hi],
            "pieces": [
                {"lo": q.lo, "hi": q.hi, "scale": q.scale, "pivot": q.pivot, "exponent": q.exponent}
                for q in self.pieces
            ],
        }


MAX_BUMPS = 40  # the largest bump count of a built-in cascade


def builtin_cascade(alpha: float, p: Exponent, bumps: int) -> PiecewisePowerWeight:
    """Packed power bumps on (0, 1): bump i has width 2^-i and scale 2^((i+1)*alpha).

    Bump i occupies (a_i, b_i) with a_1 = 0 and a_{i+1} = b_i, rising like
    scale*(x-a_i)^alpha to the bump midpoint and falling like
    scale*(b_i-x)^alpha after it.  Requires alpha/(p-1) > 1, which makes every
    bump boundary a non-removable degeneracy for that p.  The tail
    (1 - 2^-bumps, 1) is left uncovered (w == 0 there); the truncation marker
    records that the family continues past any finite cut.
    """
    alpha = float(alpha)
    if not alpha / (p.p - 1.0) > 1.0:
        raise WeightSpecError(
            f"cascade needs alpha/(p-1) > 1; alpha={alpha}, p={p.p} gives {alpha / (p.p - 1.0):.6g}"
        )
    if not (1 <= bumps <= MAX_BUMPS):
        raise WeightSpecError(f"bump count must be in 1..{MAX_BUMPS}, got {bumps}")
    pieces = []
    for i in range(1, bumps + 1):
        a_i = 1.0 - 2.0 ** (-(i - 1))
        b_i = 1.0 - 2.0 ** (-i)
        mid = 0.5 * (a_i + b_i)
        lg2 = (i + 1) * alpha  # scale = 2^((i+1)*alpha), kept exact in log2 form
        scale = 2.0 ** lg2 if lg2 < 1020 else math.inf
        pieces.append(PowerPiece(a_i, mid, scale, a_i, alpha, log2scale=lg2))
        pieces.append(PowerPiece(mid, b_i, scale, b_i, alpha, log2scale=lg2))
    return PiecewisePowerWeight(
        Interval(0.0, 1.0), pieces,
        family="cascade", params={"alpha": alpha, "bumps": bumps},
        truncated=True,
    )


# ---------------------------------------------------------------------------
# grid sampled weights


def sorted_unique(values) -> np.ndarray:
    """The distinct values of a NaN-free array, ascending, as np.unique gives
    them, without the numpy.ma import np.unique makes on its first call
    (numpy 2.4; union1d and setdiff1d call np.unique too)."""
    s = np.sort(values, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def finite_peak(values: np.ndarray) -> float:
    """The largest finite sample of w, or 0: a +inf one must not scale a tolerance."""
    return float(np.max(values, where=np.isfinite(values), initial=0.0))


def zero_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of samples at or below 1e-14
    times the largest finite sample, in order."""
    below = (values <= 1e-14 * finite_peak(values)).astype(np.int8)
    step = np.diff(np.concatenate([[0], below, [0]]))
    return np.nonzero(step == 1)[0], np.nonzero(step == -1)[0] - 1


class GridSampledWeight(Weight):
    """Linear interpolation of nonnegative samples on a strictly increasing grid."""

    family = "grid"

    def __init__(self, x: Sequence[float], values: Sequence[float], source: str = ""):
        x = np.asarray(x, dtype=float)
        v = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 2 or not (np.isfinite(x).all() and np.all(np.diff(x) > 0)):
            raise WeightSpecError("grid weight needs >= 2 finite, strictly increasing 1-d nodes")
        if v.shape != x.shape or np.any(~np.isfinite(v)):
            raise WeightSpecError("grid weight values must be finite and match the grid")
        if np.any(v < -1e-12 * np.max(v)):
            raise WeightSpecError("grid weight has significantly negative samples")
        self.x = x
        self.values = np.maximum(v, 0.0)
        self.domain = Interval(float(x[0]), float(x[-1]))
        self.source = source
        # a read-only view: no copy, and no Python float per node
        self._nodes = x[1:-1]
        self._nodes.flags.writeable = False
        # sigma_masses' cell table, whatever p: the lower node, w there, |w'|
        vs = self.values
        self._cells = (np.where(vs[:-1] <= vs[1:], x[:-1], x[1:]),
                       np.minimum(vs[:-1], vs[1:]), np.abs(np.diff(vs)) / np.diff(x))

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        return np.interp(xq, self.x, self.values)

    def breakpoints(self) -> np.ndarray:
        """The interior grid nodes: the interpolant kinks at each of them."""
        return self._nodes

    def sigma_masses(self, p: Exponent):
        """Per span, the closed form in its cell, where w is linear, w built up from
        the cell's lower node: infinite on a zero cell and next to a zero node if p <= 2."""
        s = 1.0 / (p.p - 1.0)
        low, v_low, rate = self._cells

        def masses(lo, hi):
            i = np.searchsorted(self._nodes, 0.5 * (lo + hi), side="right")  # the cell
            v, r, t0, t1 = v_low[i], rate[i], np.abs(lo - (at := low[i])), np.abs(hi - at)
            y0, y1 = v + r * np.minimum(t0, t1), v + r * np.maximum(t0, t1)
            with np.errstate(divide="ignore", invalid="ignore"):
                m = _power_mass(y0, y1, r * (hi - lo), 1.0 - s, 0.0) / r
                m = m if r.all() else np.where(r == 0.0, (hi - lo) * y1 ** -s, m)  # level cells
            return np.where(hi > lo, m, 0.0)

        return masses

    def zero_set(self):
        # the interpolant vanishes exactly at zero nodes and on the spans
        # between consecutive zero nodes, nowhere else
        zeros, regions = [], []
        for i, j in zip(*zero_runs(self.values)):
            if j > i:
                regions.append((float(self.x[i]), float(self.x[j])))
            else:
                zeros.append(float(self.x[i]))
        return tuple(zeros), tuple(regions)

    def resolution_near(self, z: float) -> float:
        """Widest grid cell among the few around z."""
        j = min(max(int(np.searchsorted(self.x, z)), 1), self.x.size - 1)
        lo = max(j - 2, 0)
        hi = min(j + 2, self.x.size - 1)
        return float(np.max(np.diff(self.x[lo:hi + 1])))

    def spec_dict(self) -> dict:
        if self.source:
            return {"family": "grid", "csv": self.source}
        return {"family": "grid", "x": self.x.tolist(), "w": self.values.tolist()}


# ---------------------------------------------------------------------------
# loading


def weight_from_csv(path: str) -> GridSampledWeight:
    """Two-column CSV (x, w); only the first non-blank row may be a header."""
    xs, ws = [], []
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    for k, row in enumerate(rows):
        try:
            x, v = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            if k == 0:
                continue  # header
            raise WeightSpecError(f"malformed CSV row {row!r} in {path}")
        xs.append(x)
        ws.append(v)
    if len(xs) < 2:
        raise WeightSpecError(f"CSV {path} holds fewer than 2 numeric rows")
    return GridSampledWeight(xs, ws, source=path)


# the parameters each spec family takes, and those of a piecewise_power piece
_SPEC_KEYS = {"figure1": (), "power": ("alpha",), "cascade": ("alpha", "bumps"),
              "grid": ("csv", "x", "w"), "piecewise_power": ("domain", "pieces")}
# (a piece's keys are PowerPiece's arguments, in order, with their defaults)
_PIECE_KEYS = {"lo": None, "hi": None, "scale": 1.0, "pivot": None, "exponent": 0.0}


def _spec_float(value, what: str) -> float:
    """float(value), or WeightSpecError naming the family and key (`what`)."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise WeightSpecError(f"{what} must be a number, got {value!r}") from None


def _spec_floats(values, what: str) -> np.ndarray:
    """np.asarray(values, dtype=float), or WeightSpecError naming the key (`what`)."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise WeightSpecError(f"{what} must be a list of numbers, got {values!r}") from None


def _check_keys(spec: dict, allowed: tuple, what: str) -> None:
    """WeightSpecError unless spec is a dict whose keys are all allowed."""
    if not isinstance(spec, dict):
        raise WeightSpecError(f"{what} must be a JSON object, got {spec!r}")
    unknown = sorted(map(str, set(spec) - set(allowed)))
    if unknown:
        takes = ", ".join(k for k in allowed if k != "family") or "none"
        raise WeightSpecError(f"{what} takes no parameter {', '.join(unknown)} (it takes {takes})")


def weight_from_spec(spec: dict, p: Optional[Exponent] = None) -> Weight:
    """Build a weight from its JSON-style dict specification.

    WeightSpecError for a key the family (or a piecewise_power piece) does not
    take, a value that is no number where one belongs, or a non-integer bumps."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise WeightSpecError(f"weight spec must be a dict with a 'family' key, got {spec!r}")
    family = spec["family"]
    if not isinstance(family, str) or family not in _SPEC_KEYS:
        raise WeightSpecError(f"unknown weight family {family!r}")
    _check_keys(spec, ("family", *_SPEC_KEYS[family]), f"{family} weight")
    if family == "figure1":
        return builtin_figure1()
    if family == "power":
        return builtin_power(_spec_float(spec.get("alpha", 0.0), "power alpha"))
    if family == "cascade":
        if p is None:
            raise WeightSpecError("cascade weight needs the run exponent p for validation")
        bumps = _spec_float(spec.get("bumps", 8), "cascade bumps")
        if not bumps.is_integer():
            raise WeightSpecError(f"cascade bumps must be an integer, got {spec['bumps']!r}")
        return builtin_cascade(_spec_float(spec.get("alpha", 2.0), "cascade alpha"), p, int(bumps))
    if family == "grid":
        if "csv" in spec:
            if not isinstance(spec["csv"], str):  # open() would read an int as a descriptor
                raise WeightSpecError(f"grid csv must be a path string, got {spec['csv']!r}")
            return weight_from_csv(spec["csv"])
        if "x" in spec and "w" in spec:
            return GridSampledWeight(*(_spec_floats(spec[k], f"grid {k}") for k in ("x", "w")))
        raise WeightSpecError("grid weight spec needs 'csv' or 'x'+'w'")
    dom = spec.get("domain")
    if not (isinstance(dom, (list, tuple)) and len(dom) == 2):
        raise WeightSpecError("piecewise_power spec needs 'domain': [lo, hi]")
    pieces = spec.get("pieces", [])
    if not isinstance(pieces, list):
        raise WeightSpecError(f"piecewise_power 'pieces' must be a list, got {pieces!r}")
    for q in pieces:
        _check_keys(q, tuple(_PIECE_KEYS), "a piecewise_power piece")
    pieces = [PowerPiece(*(_spec_float(q.get(key, default), f"piecewise_power piece {key}")
                           for key, default in _PIECE_KEYS.items())) for q in pieces]
    lo, hi = (_spec_float(v, "piecewise_power domain") for v in dom)
    return PiecewisePowerWeight(Interval(lo, hi), pieces)


def parse_weight_arg(text: str, p: Optional[Exponent] = None) -> Weight:
    """Parse a CLI weight argument.

    Accepts 'figure1', 'power:alpha=0', 'cascade:alpha=2,bumps=8',
    'grid:PATH.csv', a path to a .json spec file, or a path to a .csv grid.
    """
    text = text.strip()
    if text.endswith(".json") and os.path.exists(text):
        with open(text) as fh:
            return weight_from_spec(json.load(fh), p)
    if text.endswith(".csv") and os.path.exists(text):
        return weight_from_csv(text)
    name, _, argstr = text.partition(":")
    name = name.strip().lower()
    kwargs = {}
    if argstr:
        if name == "grid":
            return weight_from_csv(argstr.strip())
        for part in argstr.split(","):
            if not part.strip():
                continue
            k, _, v = part.partition("=")
            if not _:
                raise WeightSpecError(f"bad weight argument fragment {part!r}")
            kwargs[k.strip()] = float(v)
    return weight_from_spec({"family": name, **kwargs}, p)
