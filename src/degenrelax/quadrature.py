"""Adaptive Gauss-Kronrod quadrature tuned for endpoint power singularities.

The central object is integrate(), which handles integrands that blow up
like |x - z|^(-s) at declared singular points (and at the range endpoints,
which are always treated as potentially singular).  Around each such point
the range is cut into geometrically graded panels; the per-level panel
contributions c_k then behave like a geometric sequence, which gives both a
cheap convergence accelerant (sum the geometric tail in closed form) and a
robust divergence test (the c_k stop decaying exactly when the local
integral diverges).  The first pass (every graded run, and the middle third
of each gap as two panels) is evaluated in one batch.  Once it is walked,
every walked panel that holds a declared breakpoint is replaced by its
pieces, all in one more batch.  Surviving panels are then refined in
rounds: each round quadrisects, in one batch, the worst panels whose summed
Gauss/Kronrod discrepancy covers the excess over the error budget, until the
budget is met or the panel limit is reached.  A kink costs one round per
quartering of its panel rather than per halving.

integrate_ranges() runs several ranges in lockstep: their first passes
share one integrand call, and so does each refinement round, while every
range walks, refines and sums its own panels exactly as integrate() alone
would.  Integrands must therefore be elementwise: the value at a node may
depend on that node (and, for integrate_ranges, its range index) only.

classify_endpoint_integrability() answers the one-sided question "is
w^(-1/(p-1)) integrable next to z" through the Weight interface alone: by
exact exponent arithmetic whenever w.side_exponent() knows the exponent,
with the value from w.exact_transform_integral() when w has a closed form,
and otherwise from an exponent estimated on samples kept outside
w.resolution_near(), cross-checked by the graded-tail trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .weights import Exponent, Weight


class IntegrandEvaluationError(RuntimeError):
    """The integrand produced NaN (or persistent non-finite values) somewhere."""

    def __init__(self, message: str, location: Optional[float] = None):
        super().__init__(message)
        self.location = location


class IndeterminateIntegrabilityError(RuntimeError):
    """Numeric evidence sits too close to the integrable/non-integrable split to call."""


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
    # overflow guard on a graded run's running sum; divergence is read from
    # the level trend, so large finite integrals stay finite
    divergence_cap: float = 1e300
    max_refinement_depth: int = 60
    geometric_ratio: float = 0.5
    trend_window: int = 10  # consecutive non-decaying levels that flag divergence
    max_panels: int = 4000

    def __post_init__(self):
        if not (0.0 < self.geometric_ratio < 1.0):
            raise ValueError("geometric_ratio must be in (0, 1)")
        if self.divergence_cap <= 0 or self.max_refinement_depth < 5:
            raise ValueError("bad quadrature config")


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

    @staticmethod
    def finite(value: float, err: float) -> "IntegralResult":
        return IntegralResult("finite", float(value), float(err))

    @staticmethod
    def divergent(partial: float) -> "IntegralResult":
        return IntegralResult("divergent", float(partial), math.nan)

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        if self.is_finite and other.is_finite:
            return IntegralResult.finite(self.value + other.value,
                                         self.err_estimate + other.err_estimate)
        return IntegralResult.divergent(self.value + other.value)


def _panel_nodes(lows, highs):
    """Kronrod nodes (one row per panel) and half-widths of a batch of panels."""
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    return mid[:, None] + half[:, None] * _NODES[None, :], half


def _kronrod(xs, half, vals):
    """Kronrod value, Gauss/Kronrod discrepancy, first non-finite node and
    first NaN node (NaN where none) for a batch of panels, from the
    integrand's values at their nodes."""
    vals = np.asarray(vals, dtype=float).reshape(xs.shape)
    # panels holding an inf node produce inf/nan sums here; the caller
    # resolves them by grading into the node, so silence the transient warning
    with np.errstate(invalid="ignore"):
        k15 = (vals * _WK).sum(axis=1) * half
        g7 = (vals * _WG).sum(axis=1) * half
        err = np.abs(k15 - g7)
    bad = ~np.isfinite(vals)
    if not bad.any():
        return k15, err, np.full(half.shape, np.nan), np.full(half.shape, np.nan)
    return k15, err, _first_node(xs, bad), _first_node(xs, np.isnan(vals))


def _first_node(xs, mask):
    """Per panel, the first node where mask holds (NaN where it never does)."""
    j = np.argmax(mask, axis=1)
    return np.where(mask.any(axis=1), xs[np.arange(xs.shape[0]), j], np.nan)


def _check_nan(nan_at):
    """Raise on the first panel that holds a NaN node."""
    hit = ~np.isnan(nan_at)
    if hit.any():
        x = nan_at[np.argmax(hit)]
        raise IntegrandEvaluationError(f"integrand is NaN at x={x!r}", location=float(x))


def _checked(k15, err, bad_at, nan_at):
    """Kronrod value, discrepancy, finiteness and first non-finite node of
    evaluated panels; any NaN node raises."""
    _check_nan(nan_at)
    return k15, err, np.isnan(bad_at), bad_at


def _eval_panels(f, lows, highs):
    """Kronrod value, Gauss/Kronrod discrepancy, finiteness and first
    non-finite node for a batch of panels; any NaN node raises."""
    xs, half = _panel_nodes(lows, highs)
    return _checked(*_kronrod(xs, half, f(xs.ravel())))


# The adaptive algorithm is written as step generators: a step yields the
# flat array of nodes it needs, receives the integrand's values there, and
# the generator returns its result.  _drive() runs several of them in
# lockstep, so that one integrand call serves every range at each step.


def _kronrod_steps(sets):
    """Kronrod sums (as _kronrod) of several (lows, highs) panel sets, from
    one node request: the sets are joined into one node build and one
    Kronrod sum, whose per-panel results are then sliced back per set."""
    if len(sets) == 1:
        lows, highs = sets[0]
    else:
        lows = np.concatenate([lo for lo, _ in sets])
        highs = np.concatenate([hi for _, hi in sets])
    xs, half = _panel_nodes(lows, highs)
    vals = yield xs.ravel()
    sums = _kronrod(xs, half, vals)
    out, start = [], 0
    for lo, _ in sets:
        stop = start + len(lo)
        out.append(tuple(s[start:stop] for s in sums))
        start = stop
    return out


_BLOCK = 8  # graded levels walked between two early-exit tests


@dataclass
class _GradedRun:
    divergent: bool
    partial: float       # sum of level values walked so far
    tail: float          # closed-form geometric remainder (0 when divergent)
    tail_err: float
    panels: tuple        # (lows, highs, values, errs) of the walked levels


def _graded_panels(anchor: float, outer: float, cfg: QuadratureConfig):
    """(lows, highs) of the levels of a graded run from `outer` toward `anchor`.

    Level k covers the slice between distances width*r^(k+1) and width*r^k
    from the anchor, down to where the offsets vanish against the anchor.
    """
    width = abs(outer - anchor)
    sgn = 1.0 if outer > anchor else -1.0
    dists = width * cfg.geometric_ratio ** np.arange(cfg.max_refinement_depth + 1)
    offs = dists[1:]
    lost = (anchor + offs == anchor) | (anchor - offs == anchor) | (offs == 0.0)
    depth = max(int(np.argmax(lost)) if lost.any() else offs.size, 3)
    dists = dists[:depth + 1]
    edge_a = anchor + sgn * dists[1:]
    edge_b = anchor + sgn * dists[:-1]
    return np.minimum(edge_a, edge_b), np.maximum(edge_a, edge_b)


def _walk_graded(lows, highs, sums, cfg: QuadratureConfig, resolve_depth: int = 0):
    """Walk the evaluated levels of a graded run, outermost first (steps).

    Levels are walked in blocks of eight; a NaN raises, and an inf node is
    graded into, only in a block the walk reaches.  Divergence is declared
    when the running sum passes the cap or the level contributions stop
    decaying over a full trend window.  For a convergent run the untraversed
    tail is summed in closed form from the fitted decay ratio, and the
    walked panels are returned for further refinement.
    """
    k15, errs, bad_at, nan_at = sums
    depth = lows.size
    vals, errs, finite = k15.tolist(), errs.tolist(), np.isnan(bad_at).tolist()

    contribs: list = []
    divergent = False
    partial = 0.0
    mass = 0.0  # sum of walked level magnitudes: the run's own scale
    win = cfg.trend_window
    for start in range(0, depth, _BLOCK):
        stop = min(start + _BLOCK, depth)
        _check_nan(nan_at[start:stop])
        for i in range(start, stop):
            v = vals[i]
            if not finite[i]:
                v, e, ok = yield from _resolve_inf_panel(
                    float(lows[i]), float(highs[i]), float(bad_at[i]), cfg, resolve_depth)
                if not ok:
                    partial += v
                    divergent = True
                    break
                vals[i], errs[i] = v, e
            contribs.append(abs(v))
            partial += v
            mass += abs(v)
            if abs(partial) > cfg.divergence_cap:
                divergent = True
                break
            if len(contribs) > win and contribs[-1] > 10.0 * cfg.abs_tol * mass:
                recent = contribs[-(win + 1):]
                # an exactly zero level is decay, not stagnation: it breaks
                # the streak (integrands supported away from the anchor start
                # with dead levels, and their onset must not read as growth)
                if all(a > 0.0 and b >= a * (1.0 - 1e-10)
                       for a, b in zip(recent, recent[1:])):
                    divergent = True
                    break
        if divergent:
            break
        # early exit once the deepest levels are negligible and clearly decaying
        if len(contribs) >= 4:
            budget = max(cfg.abs_tol * mass, cfg.rel_tol * abs(partial))
            if contribs[-1] < 1e-3 * budget and contribs[-1] < contribs[-2] < contribs[-3]:
                break

    n = len(contribs)
    tail = tail_err = 0.0
    if not divergent and n:
        tail, tail_err, divergent = _geometric_tail(vals[:n], cfg)
    panels = (lows[:n], highs[:n], np.array(vals[:n]), np.array(errs[:n]))
    return _GradedRun(divergent, partial, tail, tail_err, panels)


def _geometric_tail(values, cfg: QuadratureConfig):
    """Closed-form estimate of the untraversed geometric remainder.

    Fits the decay ratio over the last eight and last four positive level
    magnitudes; the spread of the two resulting tail sums is the error
    estimate.  Exact for pure power integrands, where the levels form a true
    geometric sequence.  A fitted ratio within 1e-3 of 1 at depth exhaustion
    means the levels failed to decay: the run is reported as divergent.
    """
    mags = np.abs(np.array(values, dtype=float))
    mags = mags[mags > 0.0]
    mass = float(mags.sum())
    if mags.size < 3 or mags[-1] <= 10.0 * cfg.abs_tol * mass:
        return 0.0, 0.0, False

    def fit(n):
        seg = mags[-n:]
        return float(np.exp(np.mean(np.log(seg[1:] / seg[:-1]))))

    rho_a = fit(min(8, mags.size))
    if rho_a >= 1.0 - 1e-3:
        return 0.0, 0.0, True
    rho_b = fit(min(4, mags.size))
    last_v = values[-1]
    sgn = math.copysign(1.0, last_v) if last_v != 0.0 else 1.0
    t_a = mags[-1] * rho_a / (1.0 - rho_a)
    t_b = mags[-1] * rho_b / (1.0 - rho_b) if rho_b < 1.0 else 2.0 * t_a
    return sgn * t_a, abs(t_a - t_b) + cfg.abs_tol * mass, False


def _resolve_inf_panel(lo: float, hi: float, bad: float, cfg: QuadratureConfig,
                       depth: int = 0):
    """Resolve a panel with a non-finite node by grading into that point from
    both sides (steps).

    Returns (value, err, converged); converged=False signals local divergence.
    A panel already at float-width scale cannot be graded further: its nodes
    round onto the bad point itself.  Such a panel is counted as massless;
    the surrounding mass was walked by the enclosing run and its geometric
    tail.  A genuinely divergent spike never reaches that scale, because the
    level trend detector fires while the levels are still wide.
    """
    scale = max(abs(lo), abs(hi), 1e-300)
    if depth >= 2 or (hi - lo) <= 8.0 * np.spacing(scale):
        return 0.0, cfg.abs_tol, True
    total_v = total_e = 0.0
    for a, b in ((bad, lo), (bad, hi)):
        if a == b:
            continue
        lows, highs = _graded_panels(a, b, cfg)
        (sums,) = yield from _kronrod_steps([(lows, highs)])
        run = yield from _walk_graded(lows, highs, sums, cfg, depth + 1)
        if run.divergent:
            return run.partial, math.inf, False
        total_v += run.partial + run.tail
        total_e += run.tail_err
    return total_v, total_e, True


def _evaluate_steps(lows, highs, cfg: QuadratureConfig):
    """Kronrod values and discrepancies of new panels, in one node request
    (steps).  A NaN node raises; a panel with an inf node is resolved by
    grading into that node, and raises when it is not locally integrable."""
    (sums,) = yield from _kronrod_steps([(lows, highs)])
    k15, perr, finite, bad_at = _checked(*sums)
    for j in np.nonzero(~finite)[0]:
        v, e, ok = yield from _resolve_inf_panel(float(lows[j]), float(highs[j]),
                                                 float(bad_at[j]), cfg)
        if not ok:
            raise IntegrandEvaluationError(
                f"integrand not locally integrable inside panel near x={bad_at[j]!r}",
                location=float(bad_at[j]))
        k15[j], perr[j] = v, e
    return k15, perr


def _cut_steps(lows, highs, vals, errs, cuts, cfg: QuadratureConfig):
    """Replace every panel that strictly holds a breakpoint by its pieces (steps).

    All pieces are evaluated in one node request; a pool with no such
    panel is returned as it is, without a request.
    """
    first = np.searchsorted(cuts, lows, side="right")
    last = np.searchsorted(cuts, highs, side="left")
    hit = np.nonzero(last > first)[0]
    if not hit.size:
        return lows, highs, vals, errs
    edges = [np.concatenate(([lows[i]], cuts[first[i]:last[i]], [highs[i]])) for i in hit]
    new_lo = np.concatenate([e[:-1] for e in edges])
    new_hi = np.concatenate([e[1:] for e in edges])
    k15, perr = yield from _evaluate_steps(new_lo, new_hi, cfg)
    keep = np.ones(lows.size, dtype=bool)
    keep[hit] = False
    return (np.concatenate([lows[keep], new_lo]), np.concatenate([highs[keep], new_hi]),
            np.concatenate([vals[keep], k15]), np.concatenate([errs[keep], perr]))


def _refine_steps(lows, highs, vals, errs, cfg: QuadratureConfig):
    """Quadrisect panels in rounds until the pooled error meets the budget (steps).

    Each round splits, in one node request, the worst panels in descending
    error until their summed error covers the excess over the budget, each
    into four equal panels.  A round takes at most (max_panels - size) // 3
    panels and refinement stops when none fits, so the pool never passes
    max_panels; the given arrays may be modified.  A panel whose quarter
    points do not separate at float resolution is accepted as it is.  The
    total and its error are summed in canonical panel order, which keeps
    them bit-stable across refinement histories.
    """
    while True:
        room = (cfg.max_panels - lows.size) // 3
        if room <= 0:
            break
        excess = errs.sum() - max(cfg.abs_tol * np.abs(vals).sum(),
                                  cfg.rel_tol * abs(vals.sum()))
        if excess <= 0.0:
            break
        order = np.argsort(-errs, kind="stable")
        order = order[errs[order] > 0.0]
        if order.size == 0:
            break
        take = int(np.searchsorted(np.cumsum(errs[order]), excess)) + 1
        pick = order[:min(take, room)]
        lo, hi = lows[pick], highs[pick]
        mid = 0.5 * (lo + hi)
        q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        split = (lo < q1) & (q1 < mid) & (mid < q3) & (q3 < hi)
        errs[pick[~split]] = 0.0  # panel width at float resolution; accept
        pick = pick[split]
        if not pick.size:
            continue
        lo, q1, mid, q3, hi = lo[split], q1[split], mid[split], q3[split], hi[split]
        new_lo = np.concatenate([lo, q1, mid, q3])
        new_hi = np.concatenate([q1, mid, q3, hi])
        k15, perr = yield from _evaluate_steps(new_lo, new_hi, cfg)
        n = pick.size
        highs[pick], vals[pick], errs[pick] = q1, k15[:n], perr[:n]
        lows = np.concatenate([lows, new_lo[n:]])
        highs = np.concatenate([highs, new_hi[n:]])
        vals = np.concatenate([vals, k15[n:]])
        errs = np.concatenate([errs, perr[n:]])
    order = np.lexsort((highs, lows))
    return float(np.sum(vals[order])), float(np.sum(errs[order]))


def _refine_pool(f, lows, highs, vals, errs, cfg: QuadratureConfig):
    """_refine_steps driven to completion with the integrand f(x)."""
    return _drive(lambda x, _: f(x), [_refine_steps(lows, highs, vals, errs, cfg)])[0]


def _integrate_steps(a: float, b: float, cfg: QuadratureConfig,
                     singular: Sequence[float] = (), breakpoints: Sequence[float] = ()):
    """Steps of the adaptive integral of one range (see integrate).

    The first request holds every node of the first pass: both graded runs
    and the middle panels of each gap between graded points.  The pass is
    then walked gap by gap, and a divergent run ends it there, as if each
    gap had been evaluated in turn.  A second request, made only when some
    walked panel strictly holds a breakpoint, evaluates the pieces of every
    such panel.  Refinement rounds follow, one request each.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got ({a}, {b})")
    width = b - a
    tol = 1e-14 * width

    sing = sorted({float(s) for s in singular})
    sing = [s for s in sing if a + tol < s < b - tol]
    graded_pts = [a] + sing + [b]
    cuts = sorted({float(c) for c in breakpoints if a + tol < c < b - tol})

    sets = []  # per gap: left graded run, right graded run, middle section
    for lo, hi in zip(graded_pts[:-1], graded_pts[1:]):
        gap = hi - lo
        # graded runs cover the nearest third of the gap on each side; the
        # middle third is two panels, no wider than a run's outermost
        # level, and is cut at declared breakpoints
        m_lo, m_hi = lo + gap / 3.0, hi - gap / 3.0
        edges = np.array(sorted({m_lo, 0.5 * (m_lo + m_hi), m_hi,
                                 *[c for c in cuts if m_lo < c < m_hi]}))
        sets += [_graded_panels(lo, m_lo, cfg),
                 _graded_panels(hi, m_hi, cfg),
                 (edges[:-1], edges[1:])]
    sums = yield from _kronrod_steps(sets)

    pool = []  # (lows, highs, values, errs) per graded run and middle section
    tails = 0.0
    tail_errs = 0.0
    walked = 0.0
    for g in range(0, len(sets), 3):
        run_l = yield from _walk_graded(*sets[g], sums[g], cfg)
        if run_l.divergent:
            return IntegralResult.divergent(walked + run_l.partial)
        run_r = yield from _walk_graded(*sets[g + 1], sums[g + 1], cfg)
        if run_r.divergent:
            return IntegralResult.divergent(walked + run_l.partial + run_r.partial)
        walked += run_l.partial + run_r.partial
        tails += run_l.tail + run_r.tail
        tail_errs += run_l.tail_err + run_r.tail_err
        m_lows, m_highs = sets[g + 2]
        mk15, merr, mfin, minf = _checked(*sums[g + 2])
        for j in np.nonzero(~mfin)[0]:
            v, e, ok = yield from _resolve_inf_panel(float(m_lows[j]), float(m_highs[j]),
                                                     float(minf[j]), cfg)
            if not ok:
                return IntegralResult.divergent(walked + v)
            # resolved by its own graded pass; do not re-bisect this span
            mk15[j], merr[j] = v, 0.0
        pool += [run_l.panels, run_r.panels, (m_lows, m_highs, mk15, merr)]
    panels = [np.concatenate(c) for c in zip(*pool)]
    if cuts:
        panels = yield from _cut_steps(*panels, np.array(cuts), cfg)
    value, err = yield from _refine_steps(*panels, cfg)
    return IntegralResult.finite(value + tails, err + tail_errs)


def _drive(f, steps: list) -> list:
    """Run step generators in lockstep; returns their results in order.

    Each round joins the pending node requests into one call f(x, index),
    index holding each node's position in `steps`, and hands every
    generator its slice of the values.  When generators raise, the
    exception of the first one in order propagates once every generator
    before it has finished: the exception a loop running them one after
    the other would raise.  The generators after it are dropped.
    """
    results = [None] * len(steps)
    failed = None  # (position, exception) of the first generator that raised
    requests = []  # (position, nodes)

    def advance(i, vals):
        nonlocal failed
        try:
            requests.append((i, steps[i].send(vals)))
        except StopIteration as done:
            results[i] = done.value
        except Exception as exc:  # deferred: an earlier range may still raise
            failed = (i, exc)

    for i in range(len(steps)):
        advance(i, None)
        if failed is not None:
            break
    while requests:  # only generators before the failed one request nodes
        batch, requests = requests, []
        if len(batch) == 1:  # no copies: a lone range's index is a zero-stride view
            x = batch[0][1]
            index = np.broadcast_to(batch[0][0], x.shape)
        else:
            x = np.concatenate([xi for _, xi in batch])
            index = np.repeat([i for i, _ in batch], [xi.size for _, xi in batch])
        vals = np.asarray(f(x, index), dtype=float).reshape(x.shape)
        start = 0
        for i, xi in batch:
            if failed is None or i < failed[0]:
                advance(i, vals[start:start + xi.size])
            start += xi.size
        del vals  # not kept alive through the next integrand call
    if failed is not None:
        raise failed[1]
    return results


def integrate_ranges(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     ranges: Sequence[tuple],
                     cfg: Optional[QuadratureConfig] = None) -> list:
    """Integrate f over several ranges in lockstep; one IntegralResult per range.

    Each range is (a, b, singular, breakpoints) with integrate()'s meaning,
    and gets exactly the result integrate() would give it alone.  The
    ranges share every integrand call: one for all first passes, then one
    per refinement round.  f(x, index) receives the nodes of all ranges and,
    for each node, the position of its range in `ranges`; an integrand that
    differs per range must read that index, never infer the range from x
    (a deep graded node can round onto an endpoint shared by two ranges).
    f must be elementwise.  If ranges raise, the error of the first of them
    propagates.
    """
    cfg = cfg or DEFAULT_CONFIG
    return _drive(f, [_integrate_steps(a, b, cfg, singular, breakpoints)
                      for a, b, singular, breakpoints in ranges])


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              cfg: Optional[QuadratureConfig] = None,
              singular: Sequence[float] = (),
              breakpoints: Sequence[float] = ()) -> IntegralResult:
    """Integrate f over (a, b), tolerating power blowups at declared points.

    The endpoints a and b are always graded into; interior `singular` points
    are graded from both sides.  `breakpoints` cut the range (kinks, piece
    boundaries) without grading: every panel of the first pass that holds
    one is cut there before refinement, wherever it lies; one deeper than
    the walked graded levels lies in the closed-form tail.  Refinement then
    quadrisects the panels with the largest errors.  Divergent behavior at
    any graded point classifies the whole integral as divergent, reporting
    the partial sum accumulated so far.  f must be elementwise: it is called
    on flat arrays that batch many panels, and each value may depend only on
    its own node.
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


def local_exponent_estimate(w: Weight, z: float, side: int, h0: float,
                            k_range: tuple[int, int] = (4, 20),
                            min_offset: float = 0.0) -> float:
    """Least-squares slope of log w against log distance on one side of z.

    Samples at distances h0 * 2^-k for k in k_range, none closer than twice
    w.resolution_near(z) (inside one grid cell a linear interpolant always
    looks like exponent 1).  Returns math.inf when the weight is numerically
    zero at nearly all probes, i.e. vanishing faster than any power (or
    identically) on that side.
    """
    ks = np.arange(k_range[0], k_range[1] + 1)
    d = h0 * 2.0 ** (-ks.astype(float))
    d = d[d >= max(min_offset, 2.0 * w.resolution_near(z))]
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
    return float(np.polyfit(ld, lv, 1)[0])


def classify_endpoint_integrability(w: Weight, p: Exponent, z: float, far: float,
                                    cfg: Optional[QuadratureConfig] = None,
                                    interior_singular: Sequence[float] = ()) -> EndpointClass:
    """Decide whether sigma = w^(-1/(p-1)) is integrable on the span from z to far.

    A known exponent (w.side_exponent) decides by the exact rule:
    non-integrable iff the local exponent alpha satisfies alpha/(p-1) >= 1.
    Without one the exponent is estimated from samples, and on a sampled
    weight (positive w.resolution_near) an estimate within 0.02 of the
    threshold is indeterminate; the decision is cross-checked by (and the
    value taken from) the graded-tail behavior of the numeric integral.
    The value is exact wherever w.exact_transform_integral has one.

    interior_singular lists removable zeros strictly between z and far, so
    the value integral can grade into them.
    """
    cfg = cfg or DEFAULT_CONFIG
    if z == far:
        raise ValueError("need z != far")
    side = 1 if far > z else -1
    lo, hi = (z, far) if side > 0 else (far, z)

    alpha = w.side_exponent(z, side)
    rule = "exact-exponent"
    if alpha is None:
        val_at = float(np.asarray(w(np.array([z])), dtype=float)[0])
        if val_at > 1e-10 * _peak_sample(w):
            alpha, rule = 0.0, "positive-weight"
        else:
            alpha = local_exponent_estimate(w, z, side, abs(far - z))
            rule = "estimated-exponent"
            ap_est = math.inf if alpha == math.inf else p.alpha_p(alpha)
            if w.resolution_near(z) > 0.0 and abs(ap_est - 1.0) < 0.02:
                raise IndeterminateIntegrabilityError(
                    f"estimated transform exponent {ap_est:.4f} at x={z} sits within 0.02 "
                    f"of the integrability threshold 1; refine the grid near x={z}")

    ap = math.inf if alpha == math.inf else p.alpha_p(alpha)
    if ap >= 1.0:
        return EndpointClass(False, math.inf, rule, alpha)

    # a zero or zero region deeper in the span can still make the value diverge
    value = w.exact_transform_integral(p, lo, hi)
    if value is None:
        if alpha == 0.0 and rule == "exact-exponent":
            rule = "positive-weight"  # no decay at z: sigma locally bounded
        interior = [s for s in interior_singular if lo < s < hi]
        res = integrate(w.transform(p), lo, hi, cfg, singular=interior)
        value = res.value if res.is_finite else math.inf
        if not res.is_finite and rule == "estimated-exponent":
            rule = "numeric-trend"  # the trend overrules the fit
    return EndpointClass(math.isfinite(value), value, rule, alpha)


def _peak_sample(w: Weight, n: int = 513) -> float:
    xs = np.linspace(w.domain.lo, w.domain.hi, n)
    return float(np.max(np.asarray(w(xs), dtype=float)))
