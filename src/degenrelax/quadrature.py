"""Adaptive Gauss-Kronrod quadrature tuned for endpoint power singularities.

The central object is integrate(), which handles integrands that blow up
like |x - z|^(-s) at declared singular points (and at the range endpoints,
which are always treated as potentially singular).  Around each such point
the range is cut into geometrically graded panels; the per-level panel
contributions c_k then behave like a geometric sequence, which gives both a
cheap convergence accelerant (sum the geometric tail in closed form) and a
robust divergence test (the c_k stop decaying exactly when the local
integral diverges).  The first pass (every graded run, and the middle third
of each gap as two panels), with every panel of it that holds a declared
breakpoint also cut there into pieces, is evaluated in one batch; then
refinement rounds quadrisect, one batch each, the worst panels whose summed
Gauss/Kronrod discrepancy covers the excess over the error budget.  A panel
with a non-finite node follows one rule (_settle) wherever it is met: a NaN
raises, an inf is graded into, and a point not locally integrable diverges.

integrate_ranges() runs several ranges in lockstep, sharing each integrand
call, while every range walks, refines and sums its own panels exactly as
integrate() alone would.  Integrands must therefore be elementwise; a
request of more than _MAX_REQUEST panels is evaluated in blocks of that
size, which bounds its memory and changes no bit.  The
control flow runs in arrays: the graded runs of all ranges are the rows of
one padded (run, level) array, walked at once with sequential cumulative
sums along the rows, a cumulative count of non-decaying level pairs for the
trend window, and each row ending at its first divergence or block-end
exit; the inf levels of all rows are graded into in one request.  Then a
pool (_Pool) per range (its walked levels and middle panels, cut ones
replaced by their pieces) holds its refinement rule, and a round is plan,
one request, take: each live pool plans quarters of its worst panels, all
plans are evaluated in one request, and each pool takes its share.

A FirstPass object holds the first pass of some ranges, laid out once
(graded points, the padded layout of every gap, the pieces the breakpoints
cut, the first request's panels).  A caller that drives the same ranges
again and again (spaces, for the density drives of one chain) keeps it and
hands it to integrate_ranges in their place, with, per range, None or
inputs of f at every node of its first request, read in that request only:
such a drive lays out no first pass and cuts nothing, and a factor of the
integrand that the drives share (aux^(p-1), w) is sampled once.

classify_endpoint_integrability() answers the one-sided question "is
w^(-1/(p-1)) integrable next to z" from the exponent of w there and the rule
that found it (degeneracy finds both, once per side): the exact rule
alpha/(p-1) >= 1, with the value from w.exact_transform_integral() when w
has a closed form and otherwise from integrate(), whose graded-tail trend
overrules an estimated exponent.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .weights import Exponent, Weight, sorted_unique


class IntegrandEvaluationError(RuntimeError):
    """The integrand was NaN at a node that the quadrature read (NaN only)."""

    def __init__(self, message: str, location: Optional[float] = None):
        super().__init__(message)
        self.location = location


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
# Rows: node, Gauss-7 weight (0 where the node is Kronrod-only), Kronrod-15 weight.
_GK_TABLE = np.array([
    [-0.991455371120813, 0.0,               0.022935322010529],
    [-0.949107912342759, 0.129484966168870, 0.063092092629979],
    [-0.864864423359769, 0.0,               0.104790010322250],
    [-0.741531185599394, 0.279705391489277, 0.140653259715525],
    [-0.586087235467691, 0.0,               0.169004726639267],
    [-0.405845151377397, 0.381830050505119, 0.190350578064785],
    [-0.207784955007898, 0.0,               0.204432940075298],
    [0.0,                0.417959183673469, 0.209482141084728],
    [0.207784955007898,  0.0,               0.204432940075298],
    [0.405845151377397,  0.381830050505119, 0.190350578064785],
    [0.586087235467691,  0.0,               0.169004726639267],
    [0.741531185599394,  0.279705391489277, 0.140653259715525],
    [0.864864423359769,  0.0,               0.104790010322250],
    [0.949107912342759,  0.129484966168870, 0.063092092629979],
    [0.991455371120813,  0.0,               0.022935322010529],
])
_NODES = _GK_TABLE[:, 0]
_WG = _GK_TABLE[:, 1]
_WK = _GK_TABLE[:, 2]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    # error floor relative to the summed |panel values|, so that scaling the
    # integrand never changes the result; binds only where the integral cancels
    abs_tol: float = 1e-13

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            # an infinite tolerance would switch refinement off, NaN or a negative one read as 0
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of an integral: a finite value with an error bound, or divergence.

    For divergent integrals `value` holds the partial sum accumulated before
    the divergence test fired (the sign tells which way it runs off) and
    err_estimate is NaN.
    """

    kind: str  # "finite" | "divergent"
    value: float
    err_estimate: float

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def value_or_inf(self) -> float:
        """The value, or +inf when divergent: how an integral of a nonnegative
        density reads as a number (the partial sum of a divergent one does not)."""
        return math.inf if self.kind == "divergent" else self.value

    @staticmethod
    def finite(value: float, err: float) -> "IntegralResult":
        return IntegralResult("finite", float(value), float(err))

    @staticmethod
    def divergent(partial: float) -> "IntegralResult":
        return IntegralResult("divergent", float(partial), math.nan)

    @staticmethod
    def total(parts) -> "IntegralResult":
        """The sum of several results; finite 0 for none."""
        return sum(parts, IntegralResult.finite(0.0, 0.0))

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        if self.is_finite and other.is_finite:
            return IntegralResult.finite(self.value + other.value,
                                         self.err_estimate + other.err_estimate)
        return IntegralResult.divergent(self.value + other.value)


def _kronrod(xs, half, vals):
    """Kronrod value, Gauss/Kronrod discrepancy, first non-finite node and
    first NaN node (NaN where none; both None when every node is finite)
    for a batch of panels, from the integrand's values at their nodes."""
    vals = np.asarray(vals, dtype=float).reshape(xs.shape)
    # panels holding an inf node produce inf/nan sums here; the caller
    # resolves them by grading into the node, so silence the transient warning
    with np.errstate(invalid="ignore"):
        k15 = (vals * _WK).sum(axis=1) * half
        g7 = (vals * _WG).sum(axis=1) * half
        err = np.abs(k15 - g7)
    # a non-finite node makes its panel's sum non-finite
    bad = None if np.logical_and.reduce(np.isfinite(k15)) else ~np.isfinite(vals)
    if bad is None or not bad.any():
        return k15, err, None, None
    return k15, err, _first_node(xs, bad), _first_node(xs, np.isnan(vals))


def _first_node(xs, mask):
    """Per panel, the first node where mask holds (NaN where it never does)."""
    j = np.argmax(mask, axis=1)
    return np.where(mask.any(axis=1), xs[np.arange(xs.shape[0]), j], np.nan)


def _nan_error(nan_at):
    """The error for the first panel holding a NaN node, or None."""
    hit = ~np.isnan(nan_at)
    if not hit.any():
        return None
    x = float(nan_at[np.argmax(hit)])
    return IntegrandEvaluationError(f"integrand is NaN at x={x!r}", location=x)


def _eval_panels(f, lows, highs, cfg: QuadratureConfig):
    """Kronrod value and Gauss/Kronrod discrepancy of a batch of panels, with
    integrate()'s rule for a non-finite node (_settle): a NaN node raises,
    and a panel not locally integrable reads +inf."""
    evaluate = _evaluator(lambda x, _: f(x))
    sums = evaluate(lows, highs, np.zeros(lows.size, dtype=int))
    if sums[2] is None:
        return sums[:2]
    k15, err, _, error = _settle(lows, highs, sums, 0, cfg, evaluate)
    if error:
        raise error
    return np.where(np.isinf(err), math.inf, k15), err


def _panel_nodes(lows, highs):
    """The Kronrod nodes of a batch of panels, one row per panel, and their half-widths."""
    half = 0.5 * (highs - lows)
    return (0.5 * (lows + highs))[:, None] + half[:, None] * _NODES, half


def _evaluator(f):
    """evaluate(lows, highs, owner, inputs=None): _kronrod of the panels of two
    arrays, in blocks of at most _MAX_REQUEST panels, each from one call
    f(x, index), index the range of each node, from owner, the range of each
    panel; with inputs (one per node, in that order), the call is
    f(x, index, inputs) on the block's share of them.  f is elementwise and
    _kronrod sums each panel on its own, so the blocks change no bit; they
    bound the memory a request holds."""
    def block(lows, highs, owner, inputs):
        xs, half = _panel_nodes(lows, highs)
        args = (xs.ravel(), np.repeat(owner, _NODES.size))
        return _kronrod(xs, half, f(*args) if inputs is None else f(*args, inputs))

    def evaluate(lows, highs, owner, inputs=None):
        if lows.size <= _MAX_REQUEST:
            return block(lows, highs, owner, inputs)
        parts = [block(lows[s], highs[s], owner[s], None if inputs is None else
                       inputs[s.start * _NODES.size:s.stop * _NODES.size])
                 for s in (slice(at, at + _MAX_REQUEST)
                           for at in range(0, lows.size, _MAX_REQUEST))]
        k15, err = (np.concatenate([s[i] for s in parts]) for i in (0, 1))
        if all(s[2] is None for s in parts):
            return k15, err, None, None
        return k15, err, *(np.concatenate([np.full(s[0].size, np.nan) if s[i] is None else s[i]
                                           for s in parts]) for i in (2, 3))
    return evaluate


# level k of a graded run spans distances width*2^-(k+1) to width*2^-k from
# its anchor, at most 60 levels deep: the ladder holds exact powers of two
_LADDER = 0.5 ** np.arange(61)
_TREND_WINDOW = 10  # consecutive non-decaying levels that flag divergence
# overflow guard on a graded run's running sum; divergence is read from the
# level trend, so large finite integrals stay finite
_DIVERGENCE_CAP = 1e300
_MAX_PANELS = 4000  # refinement never grows a range's panel pool past this
_MAX_REQUEST = 1152  # panels per integrand call: bounds the memory of one request
_BLOCK = 8  # graded levels walked between two early-exit tests
_SNAP = 4  # ulps of a panel edge within which a breakpoint is that edge
_BACK8 = np.arange(8, 0, -1)  # offsets of the last eight of a row
_FITS = np.array([[8], [4]])  # magnitudes in the two decay-ratio fits


class _Runs:
    """Graded runs as rows of (run, level) arrays padded to the longest: the
    levels of _LADDER, down to where offsets vanish against the anchor (three
    levels at least).  vals, errs, bad_at and nan_at hold the levels' sums
    (see _spread); _walk() adds each outcome."""

    def __init__(self, anchors, outers, owner):
        dists = np.abs(outers - anchors)[:, None] * _LADDER
        a = anchors[:, None]
        # the offsets shrink: a run ends at the first one lost against the
        # anchor, on its side away from zero (where one is lost first)
        size = np.abs(a)
        size = np.maximum(np.add.reduce(size + dists[:, 1:] != size, axis=1), 3)
        m = int(size.max())
        edge = a + np.where(outers > anchors, 1.0, -1.0)[:, None] * dists[:, :m + 1]
        self.lows = np.minimum(edge[:, 1:], edge[:, :-1])
        self.highs = np.maximum(edge[:, 1:], edge[:, :-1])
        self.size, self.owner, self.live = size, owner, np.arange(m) < size[:, None]


def _spread(sums, live):
    """The Kronrod sums of the panels live[...] picks, spread over that padded
    layout: (vals, errs, bad_at, nan_at), the last two None if all is finite."""
    vals, errs = np.zeros(live.shape), np.zeros(live.shape)
    vals[live], errs[live] = sums[0], sums[1]
    if sums[2] is None:
        return vals, errs, None, None
    bad, nan = np.full(live.shape, np.nan), np.full(live.shape, np.nan)
    bad[live], nan[live] = sums[2], sums[3]
    return vals, errs, bad, nan


def _walk_levels(vals, size, ends, cfg: QuadratureConfig, lim=None, forced=None):
    """One pass of the level walk over all rows: (stop, divergent, partial),
    the level where each walk ended (the padded width if it did not), if it
    diverged there, and the running sum there (or at its last level).  Row r
    is read below lim[r] (all of it when lim is None); a level forced[r]
    below that diverges; ends marks where an early exit is tested."""
    rows, m = vals.shape
    if lim is not None:
        vals = np.where(np.arange(m) < lim[:, None], vals, 0.0)
        ends = ends & (np.arange(m) < np.minimum(lim, forced)[:, None])
    part = np.add.accumulate(vals, axis=1)
    part += 0.0  # a running sum from 0.0 holds no -0.0
    c = np.abs(vals)
    mass = np.add.accumulate(c, axis=1)  # walked level magnitudes: the run's own scale
    big = np.abs(part)
    event = big > _DIVERGENCE_CAP
    # a full window of levels that stopped decaying; a zero level is decay and
    # breaks the streak (dead levels next to the anchor must not read as growth),
    # and so is a subnormal one: quantized to multiples of 5e-324, it shows no trend
    prev = c[:, :-1]
    grow = (prev >= np.finfo(float).tiny) & (c[:, 1:] >= prev * (1.0 - 1e-10))
    win = _TREND_WINDOW
    if win < m and np.count_nonzero(grow) >= win:
        streak = np.zeros((rows, m), dtype=np.int64)
        np.add.accumulate(grow, axis=1, dtype=np.int64, out=streak[:, 1:])
        event[:, win:] |= ((streak[:, win:] - streak[:, :m - win] == win)
                           & (c[:, win:] > 10.0 * cfg.abs_tol * mass[:, win:]))
    # early exit once the deepest levels are negligible and clearly decaying
    done = c < 1e-3 * np.maximum(cfg.abs_tol * mass, cfg.rel_tol * big)
    fall = c[:, 1:] < prev
    done[:, 2:] &= fall[:, 1:] & fall[:, :-1]
    done &= ends
    # the first event ends the walk; a divergence wins over an exit there
    hit = event | done
    stop = hit.argmax(axis=1)
    r = np.arange(rows)
    divergent = event[r, stop]
    stop = np.where(hit[r, stop], stop, m)
    if forced is not None:  # a resolution that diverged ends its run there
        divergent |= forced < stop
        stop = np.minimum(stop, forced)
    return stop, divergent, part[r, np.minimum(stop, size - 1)]


def _walk(runs: _Runs, depth: int, cfg: QuadratureConfig, evaluate):
    """Walk every evaluated run at once, outermost level first, in blocks of
    eight with an early exit tested at each block end.  A run diverges when
    its running sum passes the cap or its levels stop decaying over a trend
    window; a convergent run's tail is summed in closed form.  A NaN raises,
    and an inf node is graded into (all runs' in one request, then the runs
    are walked again), only in a block the walk reaches; a resolution that
    diverges ends its run, as does a non-finite outermost level of a
    resolution's own run (no isolated spike).  Stores per run n (levels
    walked), divergent, partial, tail, tail_err, raise_at (NaN: none)."""
    rows, m = runs.vals.shape
    lvl = np.arange(m)
    ends = ((lvl % _BLOCK == _BLOCK - 1) | (lvl == runs.size[:, None] - 1)) & runs.live
    runs.raise_at = np.full(rows, np.nan)
    if runs.bad_at is None:
        stop, divergent, partial = _walk_levels(runs.vals, runs.size, ends, cfg)
        runs.n = np.where(stop < m, stop + 1, runs.size)
    else:
        bad, has_nan = ~np.isnan(runs.bad_at), ~np.isnan(runs.nan_at)
        first_nan = has_nan.argmax(axis=1)
        nan_block = np.where(has_nan.any(axis=1), first_nan - first_nan % _BLOCK, m + 1)
        lim = np.where(bad.any(axis=1), bad.argmax(axis=1), runs.size)
        forced, sel = np.full(rows, m), np.arange(rows)
        stop, divergent, partial = np.empty(rows, int), np.empty(rows, bool), np.empty(rows)
        while sel.size:
            stop[sel], divergent[sel], partial[sel] = _walk_levels(
                runs.vals[sel], runs.size[sel], ends[sel], cfg, lim[sel], forced[sel])
            b = lim[sel]
            hit = (stop[sel] == m) & (b < runs.size[sel]) & (nan_block[sel] > b)
            sel, b = sel[hit], b[hit]
            spread = (b == 0) & (depth > 0)
            forced[sel[spread]] = 0
            go, b = sel[~spread], b[~spread]
            if go.size:
                v, e, ok, nested = _resolve(runs.lows[go, b], runs.highs[go, b],
                                            runs.bad_at[go, b], runs.owner[go], depth, cfg,
                                            evaluate)
                runs.vals[go, b], runs.errs[go, b] = v, e
                forced[go[~ok]] = b[~ok]
                bad[go, b] = False
                lim[go] = np.where(bad[go].any(axis=1), bad[go].argmax(axis=1), runs.size[go])
                runs.raise_at[go[~np.isnan(nested)]] = nested[~np.isnan(nested)]
                sel = np.concatenate((sel[spread], go[np.isnan(nested)]))
        reached = np.isnan(runs.raise_at) & (nan_block <= np.where(stop < m, stop, lim))
        runs.raise_at[reached] = runs.nan_at[reached, first_nan[reached]]
        runs.n = np.where(stop < m, stop + 1 - (divergent & (stop == forced)), runs.size)
    runs.partial, fit = partial, ~divergent & np.isnan(runs.raise_at)
    runs.tail, runs.tail_err, flat = _geometric_tails(runs.vals, np.where(fit, runs.n, 0), cfg)
    runs.divergent = divergent | flat


def _geometric_tails(vals, n, cfg: QuadratureConfig):
    """(tail, tail_err, divergent): closed-form estimates of the untraversed
    geometric remainders of rows of level values, n[r] walked.  The decay
    ratio is fitted over the last eight and last four positive magnitudes,
    the two tails' spread is the error; exact for pure powers.  A fitted
    ratio within 1e-3 of 1 means the levels failed to decay: divergent.  A
    row whose last level is below the noise, or subnormal, gets no tail."""
    rows, m = vals.shape
    mags = np.where(np.arange(m) < n[:, None], np.abs(vals), 0.0)
    pos = mags > 0.0
    count = np.add.reduce(pos, axis=1)
    flat = np.concatenate((mags[pos], [1.0]))  # the positive magnitudes, row after row
    ends = np.add.accumulate(count)
    # each row's mass is summed on its own, in numpy's pairwise order
    mass = np.array([np.add.reduce(flat[e - k:e]) for e, k in zip(ends.tolist(), count.tolist())])
    # the last eight positive magnitudes, right-aligned over ones
    last8 = np.where(_BACK8 <= count[:, None], flat[np.maximum(ends[:, None] - _BACK8, 0)], 1.0)
    top = last8[:, 7]
    # a subnormal last level is quantized to multiples of 5e-324: no ratio to fit
    fit = (count >= 3) & (top > np.maximum(10.0 * cfg.abs_tol * mass, np.finfo(float).tiny))
    if not fit.any():  # no row's last level is above the noise: no tail
        return np.zeros(rows), np.zeros(rows), fit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = np.log(last8[:, 1:] / last8[:, :-1])
        # mean log ratio over the last eight and the last four magnitudes
        steps = np.minimum(_FITS, count) - 1
        rho = np.exp(np.add.reduce(np.where(_BACK8[1:] <= steps[..., None], logs, 0.0), axis=-1)
                     / steps)
        t = top * rho / (1.0 - rho)
        err = np.abs(t[0] - np.where(rho[1] < 1.0, t[1], 2.0 * t[0])) + cfg.abs_tol * mass
    stalled = fit & (rho[0] >= 1.0 - 1e-3)
    fit ^= stalled
    last_v = vals[np.arange(rows), n - 1] + 0.0  # the sign of the last level, +1 for a zero
    return np.where(fit, np.copysign(t[0], last_v), 0.0), np.where(fit, err, 0.0), stalled


def _resolve(lo, hi, bad, owner, depth: int, cfg: QuadratureConfig, evaluate):
    """Resolve panels with a non-finite node by grading into that node from
    both sides, left run first, in one request for all panels: per panel
    (value, err, converged, nan_at), nan_at the NaN node reached (else NaN).
    A panel whose nodes round onto the bad point, or met two resolutions
    deep, is massless: the enclosing run and its tail hold the mass around
    it.  A divergent spike never gets that far: the trend fires first."""
    val, err = np.zeros(lo.size), np.full(lo.size, cfg.abs_tol)
    ok, nan_at = np.ones(lo.size, dtype=bool), np.full(lo.size, np.nan)
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)
    graded = np.nonzero((hi - lo > 8.0 * np.spacing(scale)) & (depth < 2))[0]
    if not graded.size:
        return val, err, ok, nan_at
    anchors = np.repeat(bad[graded], 2)
    outers = np.column_stack((lo[graded], hi[graded])).ravel()
    sides = anchors != outers
    runs = _Runs(anchors[sides], outers[sides], np.repeat(owner[graded], 2)[sides])
    runs.vals, runs.errs, runs.bad_at, runs.nan_at = _spread(
        evaluate(runs.lows[runs.live], runs.highs[runs.live], np.repeat(runs.owner, runs.size)),
        runs.live)
    _walk(runs, depth + 1, cfg, evaluate)
    row = np.full(sides.size, -1)
    row[sides] = np.arange(runs.size.size)
    part, tail, terr = runs.partial.tolist(), runs.tail.tolist(), runs.tail_err.tolist()
    for i, pair in zip(graded.tolist(), row.reshape(-1, 2).tolist()):
        total_v = total_e = 0.0
        for j in (j for j in pair if j >= 0):
            if not np.isnan(runs.raise_at[j]) or runs.divergent[j]:
                nan_at[i], val[i], err[i], ok[i] = runs.raise_at[j], part[j], math.inf, False
                break
            total_v += part[j] + tail[j]
            total_e += terr[j]
        else:
            val[i], err[i] = total_v, total_e
    return val, err, ok, nan_at


def _settle(lo, hi, sums, owner, cfg: QuadratureConfig, evaluate):
    """integrate()'s one rule for panels with a non-finite node: (values, errs,
    resolved panels, error), the sums updated in place.  A NaN node (in the
    panels or met grading into them) gives the error; an inf node is graded
    into from both sides, and a panel not locally integrable there keeps its
    partial sum with an infinite error, which callers read as divergence."""
    k15, perr, bad_at, nan_at = sums
    if _nan_error(nan_at):
        return k15, perr, None, _nan_error(nan_at)
    j = np.nonzero(~np.isnan(bad_at))[0]
    v, e, _, nested = _resolve(lo[j], hi[j], bad_at[j], np.full(j.size, owner), 0, cfg, evaluate)
    if _nan_error(nested):
        return k15, perr, None, _nan_error(nested)
    k15[j], perr[j] = v, e
    return k15, perr, j, None


class _Pool:
    """The panels of one range between its first pass and its result, and
    the rule for what the range refines next.  A round is plan(), then one
    request for the planned panels of every live range, then take()."""

    def __init__(self, lows, highs, vals, errs, owner=0):
        self.lows, self.highs, self.vals, self.errs, self.owner = lows, highs, vals, errs, owner

    def plan(self, cfg: QuadratureConfig):
        """The range's next panels as (the panels they replace, lows, highs),
        None once the budget is met or _MAX_PANELS leaves no room: quarters of
        the worst panels whose summed error covers the excess over the
        budget, at most (_MAX_PANELS - size) // 3.  A pick whose quarter
        points do not separate at float resolution is accepted (error 0), and
        the worst panels are picked again."""
        room = (_MAX_PANELS - self.lows.size) // 3
        vals, errs = self.vals, self.errs
        while room > 0:
            excess = np.add.reduce(errs) - max(cfg.abs_tol * np.add.reduce(np.abs(vals)),
                                               cfg.rel_tol * abs(np.add.reduce(vals)))
            if excess <= 0.0:
                return None
            order = np.argsort(-errs, kind="stable")
            order = order[errs[order] > 0.0]
            if order.size == 0:
                return None
            pick = order[:min(int(np.searchsorted(np.cumsum(errs[order]), excess)) + 1, room)]
            lo, hi = self.lows[pick], self.highs[pick]
            mid = 0.5 * (lo + hi)
            # five edges, one block of picks each: lows the first four, highs the last four
            edges = np.concatenate((lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi))
            split = edges[:-pick.size] < edges[pick.size:]
            if not split.all():
                split = split.reshape(4, -1).all(axis=0)
                errs[pick[~split]] = 0.0  # width at float resolution; accept
                if not split.any():
                    continue
                pick, edges = pick[split], edges.reshape(5, -1)[:, split].ravel()
            return pick, edges[:-pick.size], edges[pick.size:]
        return None

    def take(self, plan, sums, cfg: QuadratureConfig, evaluate):
        """Put a plan's panels in from their sums (see _evaluator), settling
        non-finite nodes (see _settle): None to go on, total() once a panel is
        not locally integrable, or the exception met.  A quartered panel
        becomes its first quarter; the other new panels append."""
        pick, lows, highs = plan
        k15, perr, bad_at, _ = sums
        diverges = False
        if bad_at is not None and not np.isnan(bad_at).all():
            k15, perr, _, error = _settle(lows, highs, sums, self.owner, cfg, evaluate)
            if error:
                return error
            diverges = np.isinf(perr).any()
        n = pick.size
        self.highs[pick], self.vals[pick], self.errs[pick] = highs[:n], k15[:n], perr[:n]
        self.lows = np.concatenate((self.lows, lows[n:]))
        self.highs = np.concatenate((self.highs, highs[n:]))
        self.vals = np.concatenate((self.vals, k15[n:]))
        self.errs = np.concatenate((self.errs, perr[n:]))
        return self.total() if diverges else None

    def total(self):
        """Value and error summed in canonical panel order: bit-stable."""
        order = np.lexsort((self.highs, self.lows))
        return float(np.add.reduce(self.vals[order])), float(np.add.reduce(self.errs[order]))


def _refine(pools: list, cfg: QuadratureConfig, evaluate) -> list:
    """Refine all pools in lockstep: per pool (value, err) or the exception it
    raised.  A round asks each live pool for its plan (see _Pool.plan),
    evaluates all plans in one request in pool order and hands each pool its
    share (see _Pool.take).  A pool stops with its total once it has no plan
    or meets a panel not locally integrable; pools after one that raised are
    dropped."""
    out, live = [None] * len(pools), list(range(len(pools)))
    while live:
        plans = [(p, pools[p].plan(cfg)) for p in live]
        for p, plan in plans:
            if plan is None:
                out[p] = pools[p].total()
        plans = [(p, plan) for p, plan in plans if plan is not None]
        if not plans:
            break
        bounds = [0, *accumulate(plan[1].size for _, plan in plans)]
        sums = evaluate(*(np.concatenate([plan[i] for _, plan in plans]) for i in (1, 2)),
                        np.repeat([pools[p].owner for p, _ in plans], np.diff(bounds)))
        live = []
        for (p, plan), a, b in zip(plans, bounds, bounds[1:]):
            out[p] = pools[p].take(plan, [s if s is None else s[a:b] for s in sums], cfg, evaluate)
            if out[p] is None:
                live.append(p)
            elif isinstance(out[p], Exception):
                break
    return out


def _first_pass(pts: list):
    """The first pass of ranges given by their graded points: (gaps, owner,
    runs, lows, highs, live), gaps the gap count of each range, owner the
    range of each gap, runs its two graded runs (_Runs rows 2g and 2g + 1),
    and lows, highs and live one padded row per gap: both runs' levels,
    then the two middle panels.  Breakpoints never enter it."""
    gaps = [len(p) - 1 for p in pts]
    owner = np.array([r for r, k in enumerate(gaps) for _ in range(k)])
    ends = np.array([(lo, hi) for p in pts for lo, hi in zip(p[:-1], p[1:])], dtype=float)
    # graded runs cover the nearest third of each gap on each side; the
    # middle third is two panels, no wider than a run's outermost level
    m_lo = ends[:, 0] + (ends[:, 1] - ends[:, 0]) / 3.0
    m_hi = ends[:, 1] - (ends[:, 1] - ends[:, 0]) / 3.0
    runs = _Runs(ends.ravel(), np.column_stack((m_lo, m_hi)).ravel(), np.repeat(owner, 2))
    mid = 0.5 * (m_lo + m_hi)
    w = runs.live.size // owner.size
    lows, highs, live = (np.concatenate((a.reshape(owner.size, w), b), axis=1) for a, b in (
        (runs.lows, np.column_stack((m_lo, mid))), (runs.highs, np.column_stack((mid, m_hi))),
        (runs.live, np.ones((owner.size, 2), dtype=bool))))
    return gaps, owner, runs, lows, highs, live


class FirstPass:
    """integrate_ranges' first pass over some ranges, laid out once; kept,
    it stands for those ranges in every drive over them (integrate_ranges
    takes it as its ranges).  It holds each range's graded points (pts: the
    ends and the singular points strictly inside) and breakpoints strictly
    inside (cuts, sorted), the padded layout of all gaps (both graded runs,
    then the two middle panels of each; set by the ends and singular points
    alone), the pieces the breakpoints cut from its panels and the first
    request's panel list, but not its nodes (nodes()).  A range that is not
    a finite a < b ends the layout; `invalid` holds its ValueError (None
    when every range is valid)."""

    def __init__(self, ranges: Sequence[tuple]):
        self.pts, self.cuts, self.invalid = [], [], None
        for a, b, singular, *breakpoints in ranges:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                self.invalid = ValueError(f"need finite a < b, got ({a}, {b})")
                break
            tol = 1e-14 * (b - a)
            self.pts.append([a] + [s for s in sorted({float(s) for s in singular})
                                   if a + tol < s < b - tol] + [b])
            c = np.asarray(breakpoints[0] if breakpoints else (), dtype=float)
            c = c[(c > a + tol) & (c < b - tol)]
            self.cuts.append(sorted_unique(c) if c.size > 1 else c)
        if not self.pts:
            return
        self.gaps, self.owner, self.runs, self.lows, self.highs, self.live = _first_pass(self.pts)
        # cut each layout panel at its range's breakpoints strictly inside it (one
        # within _SNAP ulps of a panel edge is that edge), and lay out the first
        # request: each range's layout panels, then its pieces
        flat = np.flatnonzero(self.live)  # the layout's panels, in request order
        lo, hi = self.lows.ravel()[flat], self.highs.ravel()[flat]
        owner = np.repeat(self.owner, np.add.reduce(self.live, axis=1))
        self.sizes = (np.bincount(owner, minlength=len(self.pts)) * _NODES.size).tolist()  # layout
        self.piece_sizes = [0] * len(self.pts)
        self.at = np.zeros(0, dtype=np.intp)  # the padded position of the panel each piece cuts
        self.pieces = (np.zeros(0), np.zeros(0), self.at)  # their lows, highs and owner
        self.panels, self.split = (lo, hi, owner), None  # the first request; True at its pieces
        cuts = np.concatenate([np.zeros(0), *self.cuts])
        if not cuts.size:
            return
        # breakpoints and panel edges as complex numbers range + i*x, which numpy
        # orders lexicographically: one search finds each panel's range's cuts
        key = np.repeat(np.arange(len(self.cuts)), [c.size for c in self.cuts]) + 1j * cuts
        first = np.searchsorted(key, owner + 1j * (lo + _SNAP * np.spacing(np.abs(lo))), "right")
        last = np.searchsorted(key, owner + 1j * (hi - _SNAP * np.spacing(np.abs(hi))), "left")
        hit = np.flatnonzero(last > first)
        count = last[hit] - first[hit] + 1
        j = np.repeat(hit, count)
        k = np.arange(j.size) - np.repeat(np.cumsum(count) - count, count)
        b = first[j] + k  # the breakpoint that ends each piece, but the last
        self.at = flat[j]
        self.pieces = (np.where(k == 0, lo[j], cuts[np.maximum(b - 1, 0)]),
                       np.where(b == last[j], hi[j], cuts[np.minimum(b, cuts.size - 1)]), owner[j])
        self.piece_sizes = (np.bincount(owner[j], minlength=len(self.pts)) * _NODES.size).tolist()
        order = np.argsort(np.concatenate((owner, owner[j])), kind="stable")
        self.panels = tuple(np.concatenate(pair)[order]
                            for pair in zip((lo, hi, owner), self.pieces))
        self.split = order >= flat.size

    def nodes(self, pieces: bool = False) -> tuple:
        """(x, index): the first request's nodes (with `pieces`, its pieces'
        alone) and the range of each, in order.  A range's nodes are its
        layout's (set by its ends and singular points), then its pieces', the
        same alone as among other ranges."""
        if not self.pts:
            return np.zeros(0), np.zeros(0, dtype=np.intp)
        lows, highs, owner = self.pieces if pieces else self.panels
        return _panel_nodes(lows, highs)[0].ravel(), np.repeat(owner, _NODES.size)


def _integrate_all(f, layout: FirstPass, cfg: QuadratureConfig, inputs=None) -> list:
    """IntegralResult or exception of each range of the layout (None after
    one raised).  The first pass of all ranges, pieces included, is one
    request, with f's inputs when given (see integrate_ranges); each range
    reads its gaps in order, a divergent run ends it, and the pieces of its
    kept panels join its pool (see _refine)."""
    evaluate = _evaluator(f)
    gaps, owner, lows, highs, live = layout.gaps, layout.owner, layout.lows, layout.highs, layout.live
    runs = copy.copy(layout.runs)  # a drive's sums and outcomes go on its own copy
    w = runs.live.size // owner.size
    if inputs is not None:  # NaN at the nodes of a range given none
        inputs = np.concatenate([np.full(n + m, np.nan) if v is None else np.reshape(v, n + m)
                                 for v, n, m in zip(inputs[:len(gaps)], layout.sizes,
                                                    layout.piece_sizes, strict=True)])
    sums, split = evaluate(*layout.panels, inputs), layout.split
    if split is not None:  # the layout's sums, and the pieces'
        sums, cut = ([None if a is None else a[s] for a in sums] for s in (~split, split))
    vals, errs, bad, nan = _spread(sums, live)
    runs.vals, runs.errs, runs.bad_at, runs.nan_at = (
        None if a is None else a[:, :w].reshape(runs.lows.shape) for a in (vals, errs, bad, nan))
    _walk(runs, 0, cfg, evaluate)

    part, tail, terr = runs.partial.tolist(), runs.tail.tolist(), runs.tail_err.tolist()
    divergent = runs.divergent.tolist()
    raise_at = runs.raise_at.tolist()
    out, tails, g0 = [None] * len(gaps), {}, 0
    for r, k in enumerate(gaps):
        walked = t_sum = e_sum = 0.0
        for g in range(g0, g0 + k):
            acc = walked
            for i in (2 * g, 2 * g + 1):
                acc += part[i]
                if not math.isnan(raise_at[i]) or divergent[i]:
                    out[r] = _nan_error(np.array(raise_at[i:i + 1])) or \
                        IntegralResult.divergent(acc)
                    break
            if out[r] is not None:
                break
            walked += part[2 * g] + part[2 * g + 1]
            t_sum += tail[2 * g] + tail[2 * g + 1]
            e_sum += terr[2 * g] + terr[2 * g + 1]
            if bad is not None and not np.isnan(bad[g, w:]).all():
                v, e, resolved, error = _settle(lows[g, w:], highs[g, w:], (
                    vals[g, w:], errs[g, w:], bad[g, w:], nan[g, w:]), r, cfg, evaluate)
                if error or np.isinf(e).any():
                    out[r] = error or IntegralResult.divergent(walked + v[np.argmax(np.isinf(e))])
                    break
                errs[g, w + resolved] = 0.0  # resolved by its own graded pass: not refined
        else:
            tails[r] = (t_sum, e_sum)
        g0 += k
        if isinstance(out[r], Exception):
            break  # the ranges after it are dropped

    # the pool of each pending range: its walked levels and middle panels
    vals[:, :w], errs[:, :w] = runs.vals.reshape(-1, w), runs.errs.reshape(-1, w)  # resolved
    keep = np.concatenate(((np.arange(w // 2) < runs.n[:, None]).reshape(owner.size, w),
                           live[:, w:]), axis=1)
    if split is not None:  # the pieces of the kept panels, and where each range's start
        kept = np.flatnonzero(keep.ravel()[layout.at])
        pieces = [None if a is None else a[kept] for a in (*layout.pieces[:2], *cut)]
        ends = np.searchsorted(layout.pieces[2][kept], np.arange(len(gaps) + 1)).tolist()
        keep.flat[layout.at] = False  # the cut panels leave their pool
    arrays = [a[keep] for a in (lows, highs, vals, errs)]
    bounds = np.concatenate(([0], np.add.accumulate(np.add.reduce(keep, axis=1))))[
        np.concatenate(([0], np.add.accumulate(gaps)))].tolist()
    pools, done = {}, {}
    for r in tails:
        pool = pools[r] = _Pool(*(a[bounds[r]:bounds[r + 1]] for a in arrays), r)
        if split is not None and ends[r] < ends[r + 1]:  # its pieces append, replacing none
            lo, hi, *sums = (None if a is None else a[ends[r]:ends[r + 1]] for a in pieces)
            if (res := pool.take((np.zeros(0, int), lo, hi), sums, cfg, evaluate)) is not None:
                done[r] = res  # a NaN, or a piece not locally integrable: no refinement
                del pools[r]
                if isinstance(res, Exception):
                    break  # the ranges after it are dropped
    for r, res in [*zip(pools, _refine(list(pools.values()), cfg, evaluate)), *done.items()]:
        if isinstance(res, tuple):
            value = res[0] + tails[r][0]
            res = (IntegralResult.divergent(value) if math.isinf(res[1])
                   else IntegralResult.finite(value, res[1] + tails[r][1]))
        out[r] = res
    return out


def integrate_ranges(f: Callable[..., np.ndarray],
                     ranges: Sequence[tuple] | FirstPass,
                     cfg: Optional[QuadratureConfig] = None,
                     inputs: Optional[list] = None) -> list:
    """Integrate f over several ranges in lockstep; one IntegralResult per range.

    Each range is (a, b, singular, breakpoints) with integrate()'s meaning,
    and gets exactly the result integrate() would give it alone.  Singular
    points and breakpoints within 1e-14 * (b - a) of an end, or outside the
    range, are ignored, so every range may be handed one shared list.  The
    ranges share every integrand call: one for all first passes, then one
    per refinement round, each split into calls of at most _MAX_REQUEST
    panels (1,152).  f(x, index) receives the nodes of all ranges and, for
    each node, the position of its range in `ranges`, in range order
    (index never decreases within a call); an integrand that differs per
    range must read that index, never infer the range from x (a deep
    graded node can round onto an endpoint shared by two ranges).  f must
    be elementwise.  The first request holds the pieces that breakpoints
    cut from the first pass.  If ranges raise (a NaN only), the error of
    the first of them propagates.  Refinement never grows a range past
    _MAX_PANELS panels (4,000), so a range whose breakpoints alone cut it
    into that many is not refined further.

    `ranges` may be a FirstPass of them, laid out before and kept: the
    drive then takes its first pass from it and lays out nothing.  `inputs`,
    when given, holds per range None or one input of f at every node of
    that range's first request, in FirstPass(ranges).nodes() order: its
    layout nodes, then its pieces' (else ValueError).  Then the first
    request calls f(x, index, inputs), NaN at the nodes of a range given
    None; every later call is f(x, index).
    """
    layout = ranges if isinstance(ranges, FirstPass) else FirstPass(ranges)
    # the ranges before an invalid one still run, and may raise first
    out = _integrate_all(f, layout, cfg or DEFAULT_CONFIG, inputs) if layout.pts else []
    for res in out + [layout.invalid]:
        if isinstance(res, Exception):
            raise res
    return out


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              cfg: Optional[QuadratureConfig] = None,
              singular: Sequence[float] = (),
              breakpoints: Sequence[float] = ()) -> IntegralResult:
    """Integrate f over (a, b), tolerating power blowups at declared points.

    The endpoints a and b are always graded into; interior `singular` points
    are graded from both sides.  `breakpoints` cut the range (kinks, piece
    boundaries) without grading: every panel of the first pass that holds
    one is cut there in the first request, wherever it lies (one within 4
    ulps of a panel edge is that edge); one deeper than the walked graded
    levels lies in the closed-form tail, and its pieces are not read.
    Refinement then quadrisects the panels with the largest errors.
    Divergent behavior at any graded point, or an inf node where f is not
    locally integrable (wherever it is met), classifies the whole integral
    as divergent, reporting the partial sum accumulated so far; a NaN value
    raises IntegrandEvaluationError.  f must be elementwise: it is called
    on flat arrays that batch many panels, and each value may depend only
    on its own node.
    """
    return integrate_ranges(lambda x, _: f(x), [(a, b, singular, breakpoints)], cfg)[0]


# ---------------------------------------------------------------------------
# endpoint integrability of the transform


@dataclass(frozen=True)
class EndpointClass:
    """One-sided integrability of w^(-1/(p-1)) next to z, over the span toward `far`.

    integrable: whether the half integral converges.
    value: the half integral (math.inf when not integrable).
    rule: decision path ("exact-exponent", "estimated-exponent",
          "numeric-trend", "positive-weight").
    local_exponent: power exponent of w at z on this side when known.
    """

    integrable: bool
    value: float
    rule: str
    local_exponent: Optional[float] = None


def classify_endpoint_integrability(w: Weight, p: Exponent, z: float, far: float,
                                    alpha: float, rule: str, cfg: Optional[QuadratureConfig] = None,
                                    interior_singular: Sequence[float] = ()) -> EndpointClass:
    """Decide whether sigma = w^(-1/(p-1)) is integrable on the span from z to far.

    alpha is the power exponent of w at z on this side, and `rule` how the
    degeneracy module found it.  Not integrable iff p.alpha_p(alpha) >= 1;
    otherwise the value is w.exact_transform_integral's closed form where it
    has one, else the numeric integral, whose graded-tail trend overrules an
    estimated exponent ("numeric-trend") when it diverges.

    interior_singular lists removable zeros for the value integral to grade
    into; those not strictly between z and far are ignored (integrate_ranges).
    """
    if z == far:
        raise ValueError("need z != far")
    if p.alpha_p(alpha) >= 1.0:
        return EndpointClass(False, math.inf, rule, alpha)

    # a zero or zero region deeper in the span can still make the value diverge
    lo, hi = min(z, far), max(z, far)
    value = w.exact_transform_integral(p, lo, hi)
    if value is None:
        if alpha == 0.0 and rule == "exact-exponent":
            rule = "positive-weight"  # no decay at z: sigma locally bounded
        value = integrate(w.transform(p), lo, hi, cfg, singular=interior_singular,
                          breakpoints=w.breakpoints()).value_or_inf
    if math.isinf(value) and rule == "estimated-exponent":
        rule = "numeric-trend"  # the trend (or the closed form) overrules the fit
    return EndpointClass(math.isfinite(value), value, rule, alpha)
