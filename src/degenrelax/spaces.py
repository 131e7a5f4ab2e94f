"""Test functions, weighted norms, and the double-weight Poincare checks.

The natural function space for a degenerate weight w and exponent p pairs
two integrals: the p-energy seminorm  integral of |u'|^p w  over the
structure intervals, and the Lebesgue norm of u against the (p-1) power of
the auxiliary weight.  Membership in the space needs both finite.  The
checks in this module evaluate the pointwise and averaged Poincare
inequalities tying the two weights together, the vanishing/extension
dichotomy at interval endpoints, and provide seeded families of spline test
functions for batteries.

Every integral of a density of u (or of a recovery member) goes through
density_integrals, one plain drive of one integrand for both densities
(energy terms |u'|^p w, ambient terms |u - c|^p aux^(p-1)).  A divergent
one reads as +inf wherever it enters a number (IntegralResult.value_or_inf).
The per-u questions (ambient norm, seminorm, membership, space norm,
averaged Poincare check, relaxed value) read three structure terms: the
energy, the ambient term and the ambient term shifted by u(mid).  u keeps
each term's results as long as it lives (_structure_terms), so a question
makes at most one drive, of the terms it asks that u lacks.  The ambient
norm's drive, when it has one, also integrates the energy and the shifted
term (should that joint drive raise, the ambient norm drives again,
alone): asked in a battery's order (ambient norm, seminorm, Poincare
check, relaxed value), only the ambient norm drives.  Asked first, the
relaxed value and the Poincare check each drive their two terms.  The
pointwise and extension checks keep nothing.  This module alone knows the
chain's ranges (the aux parts, and the structure intervals of aux), so it
keeps in aux.kept the first pass of the chain's own drives (of functions
without breakpoints) and aux^(p-1) and w at its nodes: a later u's drive of
the same terms builds no range, lays out nothing and calls neither aux nor
w in its first request.  Any other drive reads those stores at the layout
nodes of its ranges on the chain's layout (_first_request).
A sampled u, one with no derivative, has no seminorm: its energy is
divergent(inf) in every question.  Every result is that of one plain drive
per term, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .auxweight import AuxWeight
from .degeneracy import DegeneracyStructure
from .quadrature import (DEFAULT_CONFIG, FirstPass, IntegralResult, QuadratureConfig,
                         integrate_ranges)
from .weights import Exponent, Interval, Weight


@dataclass(frozen=True)
class TestFunction:
    """A function and its derivative.

    A u with no derivative (deriv None) is merely sampled: it is not
    absolutely continuous and never has finite energy.  breakpoints list
    derivative kinks so quadrature can cut panels there.  The function keeps
    its structure terms' results (see _structure_terms), so no question asked of it
    integrates one twice; that memo is not a field.
    """

    __test__ = False  # not a test case, despite the Test prefix

    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]]
    label: str = ""
    breakpoints: tuple = ()

    def __post_init__(self):
        # _structure_terms' finished terms; not a field, so ==, hash, repr,
        # asdict never see it and dataclasses.replace starts an empty one
        object.__setattr__(self, "_memo", {})

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def d(self, x):
        if self.deriv is None:
            raise ValueError(f"function {self.label!r} carries no derivative")
        return np.asarray(self.deriv(np.asarray(x, dtype=float)), dtype=float)


def _polyval(x, c: np.ndarray):
    """sum(c_k x^k) by numpy.polynomial.polynomial.polyval's own recurrence,
    bit for bit, without importing numpy.polynomial (milliseconds per run)."""
    c0 = c[-1] + x * 0
    for ck in c[-2::-1]:
        c0 = ck + c0 * x
    return c0


def poly_function(coeffs: Sequence[float], label: str = "") -> TestFunction:
    """Polynomial sum(c_k x^k) from low to high degree; ValueError on a
    non-finite coefficient."""
    c = np.asarray(list(coeffs), dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"polynomial coefficients must be finite, got {c.tolist()}")
    dc = np.array([k * c[k] for k in range(1, c.size)]) if c.size > 1 else np.zeros(1)
    return TestFunction(
        fn=lambda x: _polyval(x, c),
        deriv=lambda x: _polyval(x, dc),
        label=label or f"poly{c.tolist()}",
    )


def constant_function(value: float, label: str = "") -> TestFunction:
    """u == value; ValueError on a non-finite value."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"constant value must be finite, got {v}")
    return TestFunction(
        fn=lambda x: np.full(np.shape(x), v),
        deriv=lambda x: np.zeros(np.shape(x)),
        label=label or f"const{v}",
    )


def spline_function(knot_x: Sequence[float], knot_y: Sequence[float],
                    label: str = "") -> TestFunction:
    """Natural cubic spline through the knots, extended by its end pieces.

    Values and derivative reproduce scipy's
    ``CubicSpline(knot_x, knot_y, bc_type="natural")`` and its
    ``derivative()`` bit for bit: the slope system is assembled as scipy
    assembles it, solved by ``_gtsv`` (LAPACK ``dgtsv``, which scipy calls),
    turned into ``CubicHermiteSpline``'s coefficients and evaluated in
    ``PPoly``'s order.  Raises ValueError, with scipy's messages, for fewer
    than 2 knots, non-finite knots, or x that is not strictly increasing.
    """
    x = np.array(knot_x, dtype=float)  # copies: the evaluators keep x
    y = np.array(knot_y, dtype=float)
    if x.ndim != 1:
        raise ValueError("`x` must be 1-dimensional.")
    if x.shape[0] < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    if y.shape != x.shape:
        raise ValueError("The length of `y` along `axis`=0 doesn't match the length of `x`")
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    dy = np.diff(y)
    slope = dy / dx
    # Rows 0 and n-1 carry the natural end conditions, 2 dx s0 + dx s1 = 3 dy.
    # scipy adds the zero second-derivative term to row 0 as -0.0, which
    # changes nothing, and to row n-1 as +0.0, which turns -0.0 into +0.0.
    diag = 2 * np.concatenate((dx[:1], dx[:-1] + dx[1:], dx[-1:]))
    upper = np.concatenate((dx[:1], dx[:-1]))
    lower = np.concatenate((dx[1:], dx[-1:]))
    rhs = 3 * np.concatenate((dy[:1], dx[1:] * slope[:-1] + dx[:-1] * slope[1:], dy[-1:]))
    rhs[-1] += 0.0
    s = np.array(_gtsv(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])
    return TestFunction(fn=_piecewise_polynomial(x, c),
                        deriv=_piecewise_polynomial(x, (3 * c[0], 2 * c[1], c[2])),
                        label=label or "spline")


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve a tridiagonal system in LAPACK ``dgtsv``'s operation order.

    dl, d and du are the sub-, main and super-diagonal (all overwritten),
    b the right-hand side, which is overwritten by the solution and returned.
    Gaussian elimination with partial pivoting: a row swaps with the next
    when the subdiagonal entry is larger, and the swap fills in the second
    superdiagonal, kept in dl.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _piecewise_polynomial(x: np.ndarray, rows: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of the pieces on [x[k], x[k+1]], the end pieces extended.

    rows[j][k] is piece k's coefficient of (t - x[k])^(len(rows) - 1 - j).
    The sum runs as in scipy's ``PPoly``: from the constant term up, powers
    built as s, s*s, (s*s)*s, starting from 0.0 (so a -0.0 constant reads
    +0.0).
    """
    inner = x[1:-1]
    const = rows[-1] + 0.0
    higher = rows[-2::-1]

    def evaluate(xs: np.ndarray) -> np.ndarray:
        flat = xs.ravel()
        k = inner.searchsorted(flat, "right")
        s = flat - x.take(k)
        out = const.take(k)
        power = s
        for j, row in enumerate(higher):
            if j:
                power = power * s
            term = row.take(k)
            term *= power
            out += term
        return out.reshape(xs.shape)

    return evaluate


def sqrt_edge_function(domain: Interval, label: str = "") -> TestFunction:
    """u(x) = sqrt(x - lo): AC with an unbounded (but integrable) derivative."""
    lo = domain.lo
    return TestFunction(
        fn=lambda x: np.sqrt(np.maximum(x - lo, 0.0)),
        deriv=lambda x: 0.5 / np.sqrt(np.maximum(x - lo, 1e-300)),
        label=label or "sqrt-edge",
    )


def log_edge_function(domain: Interval, label: str = "") -> TestFunction:
    """u(x) = log(x - lo): unbounded near lo; useful for infinite-norm cases."""
    lo = domain.lo
    return TestFunction(
        fn=lambda x: np.log(np.maximum(x - lo, 1e-300)),
        deriv=lambda x: 1.0 / np.maximum(x - lo, 1e-300),
        label=label or "log-edge",
    )


def random_test_functions(domain: Interval, count: int, seed: int) -> list[TestFunction]:
    """Seeded natural cubic splines through uniform [-1, 1] values at 9 even knots."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(domain.lo, domain.hi, 9)
    out = []
    for i in range(count):
        ys = rng.uniform(-1.0, 1.0, size=9)
        out.append(spline_function(xs, ys, label=f"spline-{seed}-{i}"))
    return out


# ---------------------------------------------------------------------------
# norms and membership


def energy_values(du, wx, pp: float) -> np.ndarray:
    """|u'|^p w from the values of u' and w at the same points."""
    return np.abs(du) ** pp * np.asarray(wx, dtype=float)


def mass_values(v, weight, pp: float) -> np.ndarray:
    """|v|^p aux^(p-1) from the values of v and of aux^(p-1) (AuxWeight.ambient_weight)
    at the same points."""
    return np.abs(v) ** pp * weight


def density_cuts(u: TestFunction, w: Weight, lo: float, hi: float,
                 extra: Sequence[float] = ()) -> np.ndarray:
    """The breakpoints of u and w, and any extra points, strictly inside (lo, hi),
    in no order and with repeats (integrate_ranges sorts them and drops those).

    Both densities kink where u or u' does and where w does (the auxiliary
    weight follows w), so every density integral cuts its ranges here.
    """
    cuts = np.concatenate([np.asarray(c, dtype=float)
                           for c in (u.breakpoints, w.breakpoints(), extra)])
    return cuts[(cuts > lo) & (cuts < hi)]


def energy_ranges(u: TestFunction, w: Weight, structure: DegeneracyStructure,
                  spans: Optional[Sequence[tuple]] = None) -> list:
    """One integrate_ranges range of the energy density per (lo, hi) span
    (default: per structure interval): graded into the removable zeros
    inside it (each range holds them all; quadrature ignores the others),
    cut at the kinks."""
    if spans is None:
        spans = [(iv.lo, iv.hi) for iv in structure.intervals]
    removable = [z.location for z in structure.removable_zeros]
    return [(lo, hi, removable, density_cuts(u, w, lo, hi)) for lo, hi in spans]


def aux_ranges(u: TestFunction, aux: AuxWeight) -> list:
    """One integrate_ranges range per aux part, cut at its quarter points and the kinks."""
    return [(part.base.lo, part.base.hi, (),
             density_cuts(u, aux.weight, part.base.lo, part.base.hi, (part.q1, part.q3)))
            for part in aux.parts]


def _mid_values(u: TestFunction, aux: AuxWeight) -> list:
    """u at each aux part's midpoint, in one call (u is elementwise): the shifted term's c."""
    return u(np.array([part.base.mid for part in aux.parts])).tolist()


def density_integrals(terms: Sequence[tuple], w: Weight, pp: float,
                      aux: Optional[AuxWeight] = None,
                      cfg: Optional[QuadratureConfig] = None) -> list:
    """The integrals of several densities in one drive: per term, in order,
    the list of its ranges' IntegralResults.

    A term ("energy", fn, ranges) integrates |fn'|^p w over the given
    ranges, or over energy_ranges(fn, w, ranges) when `ranges` is a
    DegeneracyStructure; a term ("ambient", fn, shifts) integrates
    |fn - c_k|^p aux^(p-1) over aux_ranges(fn, aux), c_k = shifts[k] on part
    k (a scalar shift holds on every part).  Energy terms use p = pp,
    ambient ones aux's exponent.  The energy of a sampled fn (one with no
    derivative) is divergent(inf) on each range, none of them integrated.

    The ranges make one drive, in term order.  A NaN raises as it would in
    one drive per term made in that order, and every result is that
    drive's bit for bit.  Each integrand call evaluates w once for all
    energy nodes and aux once for all ambient nodes, save where its first
    request reads them from the chain's stores (_first_request).
    """
    answers, todo, bounds = [], [], [0]
    for kind, fn, arg in terms:
        amb = kind == "ambient"
        n = (len(aux.parts) if amb else
             len(arg.intervals) if isinstance(arg, DegeneracyStructure) else len(arg))
        if not amb and fn.deriv is None:
            answers.append([IntegralResult.divergent(math.inf)] * n)
            continue
        # on the chain's layout: an ambient range, or an energy range over aux's own structure
        on = amb or (aux is not None and arg is aux.structure and w is aux.weight)
        todo.append((fn, amb, np.asarray(arg, dtype=float) if amb else arg, on))
        bounds.append(bounds[-1] + n)  # bounds: each driven term's first range, the end
        answers.append(slice(bounds[-2], bounds[-1]))
    if not bounds[-1]:
        return [[] if isinstance(a, slice) else a for a in answers]

    def ranges(of=todo):  # the terms' ranges, built only where a drive lays out its first pass
        return [r for fn, amb, arg, _ in of for r in (
            aux_ranges(fn, aux) if amb else
            energy_ranges(fn, w, arg) if isinstance(arg, DegeneracyStructure) else arg)]

    def density(amb, v, weight):
        return mass_values(v, weight, aux.exponent.p) if amb else energy_values(v, weight, pp)

    def f(x, index, weight=None):  # weight: the first request's inputs
        # the nodes come in range order (integrate_ranges), so each term's are one slice
        cut = np.searchsorted(index, bounds).tolist() if len(todo) > 1 else [0, x.size]
        out, rest = np.empty(x.size), ([], [])  # rest: per kind (energy, ambient), slices, values
        for (fn, amb, c, on), b, lo, hi in zip(todo, bounds, cut, cut[1:]):
            if lo < hi:
                s = slice(lo, hi)
                v = fn(x[s]) - (c if c.ndim == 0 else c[index[s] - b]) if amb else fn.d(x[s])
                if weight is not None and on:  # its inputs
                    out[s] = density(amb, v, weight[s])
                else:
                    rest[amb].append((s, v))
        for amb, pairs in enumerate(rest):  # one call of aux or w for all terms of a kind
            if pairs:
                s = pairs[0][0] if len(pairs) == 1 else np.r_[tuple(s for s, _ in pairs)]
                v = pairs[0][1] if len(pairs) == 1 else np.concatenate([v for _, v in pairs])
                out[s] = density(amb, v, (aux.ambient_weight if amb else w)(x[s]))
        return out

    layout, inputs = _first_request(todo, ranges, bounds, aux)
    res = integrate_ranges(f, layout, cfg, inputs)
    return [res[a] if isinstance(a, slice) else a for a in answers]


def _first_request(todo: list, ranges: Callable[[], list], bounds: list,
                   aux: Optional[AuxWeight]) -> tuple:
    """(layout, inputs) for integrate_ranges in a drive of the terms todo,
    (fn, ambient, arg, on) each, over ranges() (term t's from bounds[t]).
    A range on the chain's layout (on) reads the nodes of its layout, which
    its ends and singular points alone set, from its kind's store
    (_kept_pass).  The chain's own drive (every range on the layout, no fn
    with breakpoints) reads its pieces' there too, takes the kept FirstPass
    of its kinds and builds no range; any other drive reads them from one
    aux call and one w call before it.  Any other range gets None.
    """
    on = [t[3] for t in todo]
    if not any(on):
        return ranges(), None
    kinds = tuple(amb for _, amb, *_ in todo)
    if all(on) and not any(fn.breakpoints for fn, *_ in todo):
        return _kept_pass(aux, kinds, ranges), [s for amb in kinds for s in aux.kept[amb]]
    layout = FirstPass(ranges())
    kind, part = [], []  # per range: its kind when on the layout (else None), its aux part
    for (fn, amb, arg, on_t), b, e in zip(todo, bounds, bounds[1:]):
        kind += [amb if on_t else None] * (e - b)
        part += range(e - b)
        if on_t and amb not in aux.kept:  # the chain's ranges of this kind: fn's, uncut
            bare = [(replace(fn, breakpoints=()), amb, arg, on_t)]
            _kept_pass(aux, (amb,), lambda: ranges(bare))
    x, index = layout.nodes(pieces=True)
    code = np.array([-1 if k is None else k for k in kind[:len(layout.pts)]])[index]
    fresh = {}  # per kind on the layout, its ranges' inputs at their pieces
    for amb in {k for k in kind if k is not None}:
        at = code == amb
        values = np.asarray((aux.ambient_weight if amb else aux.weight)(x[at]), dtype=float)
        fresh[amb] = np.split(values, np.bincount(index[at], minlength=len(layout.pts)).cumsum())
    return layout, [None if k is None else np.concatenate((aux.kept[k][j][:n], fresh[k][r]))
                    for r, (k, j, n) in enumerate(zip(kind, part, layout.sizes))]


def _kept_pass(aux: AuxWeight, kinds: tuple, ranges: Callable[[], list]) -> FirstPass:
    """The chain's own FirstPass of these term kinds (True: ambient), laid
    out from ranges() on first use and kept in aux.kept with each kind's
    store: aux^(p-1) or w at every node of the first request of the kind's
    ranges, one array per aux part, sampled in one call at the nodes of the
    kind's first term (the terms of one kind share their nodes)."""
    layout = aux.kept[kinds] = aux.kept.get(kinds) or FirstPass(ranges())
    n = len(aux.parts)
    for t, amb in enumerate(kinds):
        if amb not in aux.kept:
            x, index = layout.nodes()
            lo, hi = np.searchsorted(index, [t * n, t * n + n])
            values = np.asarray((aux.ambient_weight if amb else aux.weight)(x[lo:hi]), dtype=float)
            aux.kept[amb] = np.split(
                values, np.bincount(index[lo:hi] - t * n, minlength=n).cumsum())[:-1]
    return layout


def _structure_terms(u: TestFunction, asked: Sequence[str], w: Weight,
                     structure: DegeneracyStructure, pp: float,
                     aux: Optional[AuxWeight] = None, cfg: Optional[QuadratureConfig] = None,
                     added: Sequence[str] = ()) -> list:
    """u's per-interval results of the asked structure terms, in order.

    The terms: "energy", |u'|^p w over the structure intervals (p = pp);
    "ambient", |u|^p aux^(p-1), and "shifted", |u - u(mid)|^p aux^(p-1),
    over the aux parts.  u keeps each term's results as long as it lives,
    keyed by the term and what it is integrated against: w, structure, pp
    and cfg for the energy, aux and cfg for the others (the objects by
    identity; the entry holds them).  The asked terms u lacks make one
    density_integrals drive, in the order asked, followed by the added terms
    it lacks.  Should that joint drive raise, the asked terms drive again
    alone, so the added ones never change an answer or an error.  Nothing
    of a drive that raised is kept.
    """
    cfg = cfg or DEFAULT_CONFIG
    held = {"energy": (w, structure), "ambient": (aux,), "shifted": (aux,)}

    def key(term):
        return (term, cfg, pp if term == "energy" else None, *map(id, held[term]))

    def spec(term):
        return (("energy", u, structure) if term == "energy" else
                ("ambient", u, 0.0 if term == "ambient" else _mid_values(u, aux)))

    todo = [term for term in asked if key(term) not in u._memo]
    if todo:
        extra = [term for term in added if key(term) not in u._memo]
        for drive in ([todo + extra] if extra else []) + [todo]:
            try:
                res = density_integrals([spec(term) for term in drive], w, pp, aux, cfg)
                break
            except Exception:  # an added term failed, or an asked one: ask those alone
                if drive is todo:
                    raise
        u._memo.update((key(term), (held[term], r)) for term, r in zip(drive, res))
    return [u._memo[key(term)][1] for term in asked]


def seminorm_energy(u: TestFunction, w: Weight, structure: DegeneracyStructure,
                    p: Exponent, cfg: Optional[QuadratureConfig] = None) -> IntegralResult:
    """Integral of |u'|^p w over the structure intervals, summed
    (check_membership's report holds the per-interval results)."""
    parts, = _structure_terms(u, ("energy",), w, structure, p.p, cfg=cfg)
    return IntegralResult.total(parts)


def lp_aux_norm(u: TestFunction, aux: AuxWeight,
                cfg: Optional[QuadratureConfig] = None) -> IntegralResult:
    """Integral of |u|^p aux^(p-1) over the structure intervals.

    The auxiliary weight vanishes off the interval closures, so this is the
    norm integral over the whole domain.  An empty structure gives 0.

    When u lacks it and has a derivative, its drive also integrates the
    energy over aux.structure and the ambient term shifted by u(mid) on each
    part (_structure_terms' added terms): the seminorm, membership, relaxed
    value and averaged Poincare check of u then read them and make no drive.
    """
    added = ("energy", "shifted") if u.deriv is not None else ()
    parts, = _structure_terms(u, ("ambient",), aux.weight, aux.structure, aux.exponent.p, aux,
                              cfg, added)
    return IntegralResult.total(parts)


@dataclass(frozen=True)
class MembershipReport:
    """Whether u belongs to the domain of the energy: finite seminorm on the structure."""

    in_space: bool
    seminorm: IntegralResult
    per_interval: tuple


def check_membership(u: TestFunction, w: Weight, structure: DegeneracyStructure,
                     p: Exponent, cfg: Optional[QuadratureConfig] = None) -> MembershipReport:
    parts, = _structure_terms(u, ("energy",), w, structure, p.p, cfg=cfg)
    total = IntegralResult.total(parts)
    return MembershipReport(total.is_finite, total, tuple(parts))


def space_norm(u: TestFunction, w: Weight, aux: AuxWeight,
               structure: DegeneracyStructure, p: Exponent,
               cfg: Optional[QuadratureConfig] = None) -> float:
    """(lp_aux_norm^p + seminorm)^(1/p); math.inf when either part diverges."""
    lp, semi = map(IntegralResult.total,
                   _structure_terms(u, ("ambient", "energy"), w, structure, p.p, aux, cfg))
    return (lp.value_or_inf + semi.value_or_inf) ** (1.0 / p.p)


# ---------------------------------------------------------------------------
# pointwise and averaged Poincare checks


@dataclass(frozen=True)
class PointwiseCheck:
    side: str        # "left" | "right"
    gap_lhs: float   # |u(x)-u(eta)| aux(eta)^(1/p')
    gap_rhs: float   # (integral of |u'|^p w between eta and x)^(1/p)
    gap_ok: bool
    mass_lhs: float  # |u(eta)|^p aux(eta)^(p-1)
    mass_rhs: float  # 2^(p-1) (|u(x)|^p aux(eta)^(p-1) + outer energy integral)
    mass_ok: bool

    @property
    def ok(self) -> bool:
        return self.gap_ok and self.mass_ok


def pointwise_poincare_check(u: TestFunction, w: Weight, aux: AuxWeight,
                             interval_index: int, eta: float, x: float,
                             cfg: Optional[QuadratureConfig] = None) -> PointwiseCheck:
    """Check the two pointwise inequalities at an ordered pair (eta, x).

    Left half: lo < eta <= x <= mid; right half: mid <= x <= eta < hi.  The
    gap inequality bounds |u(x) - u(eta)| by the energy between them; the
    mass inequality bounds the weighted size of u(eta) by u(x) plus the
    energy over the outer stretch (lo to x on the left, x to hi on the
    right).
    """
    part = aux.parts[interval_index]
    iv = part.base
    mid = iv.mid
    pp = aux.exponent.p
    if iv.lo < eta <= x <= mid:
        side = "left"
        gap_span = (eta, x)
        mass_span = (iv.lo, x)
    elif mid <= x <= eta < iv.hi:
        side = "right"
        gap_span = (x, eta)
        mass_span = (x, iv.hi)
    else:
        raise ValueError(
            f"(eta, x)=({eta}, {x}) violates the ordering for interval ({iv.lo}, {iv.hi})")

    aux_eta = float(aux(eta))
    u_eta = float(u(np.array([eta]))[0])
    u_x = float(u(np.array([x]))[0])

    # the energy over the gap (when it is not empty) and over the outer stretch
    spans = [gap_span, mass_span] if gap_span[0] < gap_span[1] else [mass_span]
    (*g, m), = density_integrals([("energy", u, energy_ranges(u, w, aux.structure, spans))],
                                 w, pp, cfg=cfg)
    gap_lhs = abs(u_x - u_eta) * aux_eta ** (1.0 / aux.exponent.conj)
    gap_rhs = g[0].value_or_inf ** (1.0 / pp) if g else 0.0
    gap_ok = gap_lhs <= gap_rhs * (1.0 + 1e-9)

    mass_lhs = abs(u_eta) ** pp * aux_eta ** (pp - 1.0)
    mass_rhs = 2.0 ** (pp - 1.0) * (abs(u_x) ** pp * aux_eta ** (pp - 1.0) + m.value_or_inf)
    mass_ok = mass_lhs <= mass_rhs * (1.0 + 1e-9)
    return PointwiseCheck(side, gap_lhs, gap_rhs, gap_ok, mass_lhs, mass_rhs, mass_ok)


@dataclass(frozen=True)
class PoincareReport:
    """Averaged double-weight Poincare inequality, per interval and summed.

    lhs_i averages |u - u(mid_i)|^p aux^(p-1) over interval i (integral
    divided by the width); rhs_i is the p-energy on that interval.  The
    global inequality sums both sides.  ratio is lhs/rhs (0 when both sides
    vanish, inf when only rhs does).
    """

    per_interval: tuple
    lhs: float
    rhs: float
    ratio: float
    ok: bool


def poincare_global_check(u: TestFunction, w: Weight, aux: AuxWeight,
                          structure: DegeneracyStructure, p: Exponent,
                          cfg: Optional[QuadratureConfig] = None) -> PoincareReport:
    energies, nums = _structure_terms(u, ("energy", "shifted"), w, structure, p.p, aux, cfg)
    rows = []
    lhs_total = rhs_total = 0.0
    for part, energy, n in zip(aux.parts, energies, nums):
        lhs_i = n.value_or_inf / part.base.width
        rhs_i = energy.value_or_inf
        rows.append((lhs_i, rhs_i))
        lhs_total += lhs_i
        rhs_total += rhs_i
    # both sides scale as |u|^p: a purely relative slack keeps the verdict free of units
    if rhs_total == 0.0:
        ratio = 0.0 if lhs_total == 0.0 else math.inf
    else:
        ratio = lhs_total / rhs_total
    ok = lhs_total <= rhs_total * (1.0 + 1e-8)
    return PoincareReport(tuple(rows), lhs_total, rhs_total, ratio, ok)


# ---------------------------------------------------------------------------
# endpoint behavior: vanishing on divergent sides, AC extension on integrable ones


@dataclass(frozen=True)
class VanishingCheck:
    """Decay of |u|^p aux^(p-1) toward an interval endpoint.

    Sampled at geometric offsets width * 2^-k, k = 4 ... 40; ok requires the
    last three samples to sit below 1e-6 times the largest sample.  The samples
    themselves are reported so callers can judge slow (logarithmic) decay.
    """

    side: str
    offsets: tuple
    samples: tuple
    peak: float
    tail: float
    ok: bool


def endpoint_vanishing_check(u: TestFunction, aux: AuxWeight, interval_index: int,
                             side: str) -> VanishingCheck:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    part = aux.parts[interval_index]
    iv = part.base
    anchor = iv.lo if side == "left" else iv.hi
    sgn = 1.0 if side == "left" else -1.0
    offs = iv.width * 2.0 ** (-np.arange(4, 41).astype(float))
    xs = anchor + sgn * offs
    keep = xs != anchor  # drop offsets that collapse at float resolution
    xs = xs[keep]
    offs = offs[keep]
    vals = mass_values(u(xs), aux.ambient_weight(xs), aux.exponent.p)
    peak = float(np.max(vals)) if vals.size else 0.0
    tail = float(np.max(vals[-3:])) if vals.size >= 3 else peak
    ok = vals.size >= 3 and tail <= 1e-6 * peak
    return VanishingCheck(side, tuple(map(float, offs)), tuple(map(float, vals)),
                          peak, tail, bool(ok))


@dataclass(frozen=True)
class ExtensionCheck:
    """Continuous extension of u to an endpoint where the transform is integrable.

    holder_lhs is the L1 norm of u' over the half interval; holder_rhs the
    product of the p-energy root and the transform integral root that bounds
    it.  extension_value is u(mid) minus the signed integral of u' over the
    half, the limit of u at the endpoint.
    """

    side: str
    holder_lhs: float
    holder_rhs: float
    extension_value: float
    ok: bool


def ac_extension_check(u: TestFunction, w: Weight, aux: AuxWeight,
                       structure: DegeneracyStructure, interval_index: int, side: str,
                       cfg: Optional[QuadratureConfig] = None) -> ExtensionCheck:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    part = aux.parts[interval_index]
    iv = part.base
    p = aux.exponent
    cls = iv.lo_class if side == "left" else iv.hi_class
    if not cls.integrable:
        raise ValueError(f"transform not integrable on the {side} side; no AC extension there")
    lo, hi = (iv.lo, iv.mid) if side == "left" else (iv.mid, iv.hi)
    span, = energy_ranges(u, w, structure, [(lo, hi)])

    def f(x, index):  # range 0: |u'|, range 1: u'
        du = u.d(x)
        return np.where(index == 0, np.abs(du), du)

    l1, signed = integrate_ranges(f, [span] * 2, cfg)
    (en,), = density_integrals([("energy", u, [span])], w, p.p, cfg=cfg)
    holder_lhs = l1.value_or_inf
    holder_rhs = en.value_or_inf ** (1.0 / p.p) * cls.value ** (1.0 / p.conj)
    u_mid = float(u(np.array([iv.mid]))[0])
    step = signed.value if signed.is_finite else math.nan  # divergent: u has no limit there
    ext = u_mid - step if side == "left" else u_mid + step
    # both sides scale as u: a purely relative slack keeps the verdict free of units
    ok = (math.isfinite(holder_lhs) and holder_lhs <= holder_rhs * (1.0 + 1e-8)
          and math.isfinite(ext))
    return ExtensionCheck(side, holder_lhs, holder_rhs, float(ext), bool(ok))
