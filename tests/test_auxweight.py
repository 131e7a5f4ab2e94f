"""Auxiliary weight: closed forms, branch identity, bounds, edge cases."""

import dataclasses
import gc
import math
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    AuxWeight,
    ClosedFormWeight,
    Exponent,
    GridSampledWeight,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    QuadratureConfig,
    ZeroInfo,
    aux_global_bounds,
    build_aux_weight,
    builtin_cascade,
    builtin_figure1,
    builtin_power,
    cascade_partial_sums,
    derivative_identity_residual,
    detect_structure,
    integrate,
)
from degenrelax import auxweight, quadrature

CFG = QuadratureConfig()


@dataclasses.dataclass(frozen=True)
class _NoPrimitive(ClosedFormWeight):
    """The values, zeros, exponents and breakpoints of another weight, with
    no sigma primitive of its own: its aux takes the numeric table path."""

    of: object = None

    def zero_set(self):
        return self.of.zero_set()

    def side_exponent(self, z, side):
        return self.of.side_exponent(z, side)

    def resolution_near(self, z):
        return self.of.resolution_near(z)

    def breakpoints(self):
        return self.of.breakpoints()


def tabled(w):
    """w as a ClosedFormWeight with the same fn, zeros and breakpoints."""
    return _NoPrimitive(fn=w, domain=w.domain, family=w.family, of=w)


def test_unit_weight_closed_forms(unit_chain):
    """w == 1 on (0,1), p = 2: everything is an elementary antiderivative.

    Left branch 1/(1/2 - x), plateau 1/(3/4 - 1/4) = 2, endpoint values
    1/(half width) = 2, running integral 1 + 2 log 2.
    """
    w, st_, aux = unit_chain
    part = aux.parts[0]
    assert float(aux(0.1)) == pytest.approx(2.5, abs=1e-8)
    assert part.plateau == pytest.approx(2.0, abs=1e-8)
    assert part.lo_value == pytest.approx(2.0, abs=1e-8)
    assert part.hi_value == pytest.approx(2.0, abs=1e-8)
    total = integrate(lambda x: aux(x), 0.0, 1.0, CFG)
    assert total.value == pytest.approx(1.0 + 2.0 * math.log(2.0), abs=1e-8)


def test_unit_weight_branch_shape(unit_chain):
    w, st_, aux = unit_chain
    xs = np.linspace(0.01, 0.24, 23)
    np.testing.assert_allclose(aux(xs), 1.0 / (0.5 - xs), rtol=1e-10)
    xs = np.linspace(0.76, 0.99, 23)
    np.testing.assert_allclose(aux(xs), 1.0 / (xs - 0.5), rtol=1e-10)
    xs = np.linspace(0.25, 0.75, 11)
    np.testing.assert_allclose(aux(xs), 2.0, rtol=1e-10)


def test_vanishes_off_interval_closures(two_tent_chain):
    w, st_, aux = two_tent_chain
    xs = np.array([0.0, 0.02, 0.45, 0.5, 0.55, 0.97, 1.0])
    np.testing.assert_array_equal(aux(xs), 0.0)


def test_divergent_sides_pin_endpoint_to_zero(figure1_chain):
    w, st_, aux = figure1_chain
    assert float(aux(-1.0)) == 0.0
    assert float(aux(1.0)) == 0.0
    # integrable outer edges keep a positive limit
    assert aux.parts[0].lo_value > 0.0
    assert aux.parts[2].hi_value > 0.0


def test_quarter_point_geometry(figure1_chain):
    w, st_, aux = figure1_chain
    for part in aux.parts:
        iv = part.base
        assert part.q1 == pytest.approx(iv.lo + 0.25 * iv.width)
        assert part.q3 == pytest.approx(iv.lo + 0.75 * iv.width)
        assert part.plateau > 0.0
        # branch monotonicity: growing toward q1, falling past q3
        xs = np.linspace(iv.lo + 1e-3 * iv.width, part.q1 - 1e-3 * iv.width, 9)
        vals = aux(xs)
        assert np.all(np.diff(vals) > 0)
        xs = np.linspace(part.q3 + 1e-3 * iv.width, iv.hi - 1e-3 * iv.width, 9)
        vals = aux(xs)
        assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("family,build", [
    ("figure1", lambda p: builtin_figure1()),
    ("power", lambda p: builtin_power(2.0)),
    ("cascade", lambda p: builtin_cascade(3.0, p, 3)),
])
@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_branch_derivative_identity(family, build, pv):
    # d/dx aux = +- aux^2 sigma on the outer branches, checked by a small
    # centered difference against the analytic right hand side
    p = Exponent(pv)
    w = build(p)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    rng = np.random.default_rng(41)
    worst = 0.0
    n = 0
    for part in aux.parts:
        iv = part.base
        for lo, hi in ((iv.lo, part.q1), (part.q3, iv.hi)):
            span = hi - lo
            pts = lo + span * rng.uniform(0.07, 0.93, size=5)
            for x in pts:
                worst = max(worst, derivative_identity_residual(aux, float(x)))
                n += 1
    assert n >= 10
    assert worst <= 1e-4, f"{family} p={pv}: residual {worst:.2e}"


def test_identity_rejects_plateau_points(unit_chain):
    w, st_, aux = unit_chain
    with pytest.raises(ValueError):
        derivative_identity_residual(aux, 0.5)


def test_global_bounds(figure1_chain):
    w, st_, aux = figure1_chain
    b = aux_global_bounds(aux)
    assert b.inf == 0.0  # divergent boundaries force the overall inf to 0
    assert b.sup >= max(s for s, _ in b.per_interval)
    xs = np.linspace(-2.0, 2.0, 2001)
    vals = aux(xs)
    assert float(np.max(vals)) <= b.sup * (1.0 + 1e-9)
    assert b.covers_domain


def test_bounds_report_noncovering_structure(two_tent_chain):
    w, st_, aux = two_tent_chain
    b = aux_global_bounds(aux)
    assert not b.covers_domain
    assert b.inf == 0.0


def test_removable_zero_keeps_interval_whole_and_fast():
    # figure1 at p = 4: zeros at +-1 are removable and happen to land on the
    # quarter points; the branch tables must stay usable at float resolution
    p = Exponent(4.0)
    w = builtin_figure1()
    t0 = time.perf_counter()
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    xs = np.linspace(-2.0, 2.0, 3001)
    vals = aux(xs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)
    # sigma mass accumulates across the removable point, so the branch value
    # is continuous in the limit from outside up to the designed quarter jump
    left_of = float(aux(-1.0 - 1e-12))
    assert left_of > 0.0


def test_exponent_mismatch_rejected(figure1, p2):
    st_ = detect_structure(figure1, p2, CFG)
    with pytest.raises(ValueError):
        build_aux_weight(figure1, Exponent(3.0), st_, CFG)


@given(st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_branch_dispatch_agrees_with_value(figure1_chain, x):
    w, st_, aux = figure1_chain
    i, zone = aux.branch_of(x)
    v = float(aux(x))
    if zone == "outside":
        assert v == 0.0
    elif zone == "plateau":
        assert v == pytest.approx(aux.parts[i].plateau, rel=1e-12)
    else:
        part = aux.parts[i]
        assert part.base.lo <= x <= part.base.hi
        assert v >= 0.0


def test_sigma_callable_exposed(figure1_chain, p2, figure1):
    w, st_, aux = figure1_chain
    xs = np.array([-1.5, 0.3, 1.7])
    np.testing.assert_allclose(aux.sigma(xs), figure1.transform(p2)(xs), rtol=0)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_aux_below_the_mesh_follows_the_power_law(alpha):
    # below the deepest mesh node (~2e-25 here) aux extends C as a power law
    # with the log-log secant across the halving above that node
    p = Exponent(2.0)
    exact = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, alpha)])
    w = tabled(exact)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    d = np.array([1e-30, 1e-100, 1e-250])
    assert d[0] < aux.parts[0].left.d_mesh[0]
    want = [1.0 / exact.exact_transform_integral(p, x, st_.intervals[0].mid) for x in d]
    np.testing.assert_allclose(aux(d), want, rtol=1e-9)


@pytest.mark.filterwarnings("error")
def test_aux_below_the_mesh_reads_zero_where_c_overflows():
    # w = x^3 at p = 2: C(d) ~ d^-2/2 passes the float range below ~1e-154,
    # where aux reads its limit 0 without an overflow warning, in the table
    # and in closed form
    p = Exponent(2.0)
    exact = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 3.0)])
    for w in (tabled(exact), exact):
        aux = build_aux_weight(w, p, detect_structure(w, p, CFG), CFG)
        got = aux(np.array([1e-160, 1e-100]))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(2e-200, rel=1e-9)


# --- the evaluation table -------------------------------------------------------

EPS = float(np.finfo(float).eps)


def _removable_then_split(pv):
    """On (0, 1): a removable zero at 0.1 inside the left branch of (0, 0.5),
    and a zero at 0.5, integrable from the left, splitting on the right."""
    ar, asplit = 0.5 * (pv - 1.0), 2.0 * (pv - 1.0)
    return PiecewisePowerWeight(Interval(0.0, 1.0), [
        PowerPiece(0.0, 0.1, 1.0, 0.1, ar), PowerPiece(0.1, 0.3, 1.0, 0.1, ar),
        PowerPiece(0.3, 0.5, 1.0, 0.5, ar), PowerPiece(0.5, 1.0, 1.0, 0.5, asplit)])


CLOSED_FORM_WEIGHTS = {
    "unit": lambda pv: PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 0.0)]),
    "power-integrable": lambda pv: PiecewisePowerWeight(
        Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 0.6 * (pv - 1.0))]),
    "power-divergent": lambda pv: PiecewisePowerWeight(
        Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 1.5 * (pv - 1.0))]),
    "removable-and-split": _removable_then_split,
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_WEIGHTS))
@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_aux_matches_closed_form_sigma_integrals(family, pv):
    p = Exponent(pv)
    exact = CLOSED_FORM_WEIGHTS[family](pv)
    for w in (exact, tabled(exact)):
        _check_closed_form_aux(exact, w, p, family)


def _check_closed_form_aux(exact, w, p, family):
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    # exact branches: the closed form to rounding, across removable zeros too;
    # in the table no mesh node holds sigma's mass within an ulp of a
    # removable zero: ~1e-8 of aux at alpha/(p-1) = 0.5 here
    floor = 1e-7 if st_.removable_zeros and w is not exact else 1e-13
    kind = auxweight.ExactBranch if w is exact else auxweight.BranchTable
    assert all(isinstance(br, kind) for part in aux.parts for br in (part.left, part.right))
    for i, part in enumerate(aux.parts):
        lo, hi, width, mid = part.base.lo, part.base.hi, part.base.width, part.base.mid
        offs = width * 10.0 ** -np.arange(1.0, 14.0, 0.5)
        xs = np.concatenate([lo + offs, hi - offs, np.linspace(part.q1, part.q3, 7)[[0, -1]] +
                             [-1e-9, 1e-9], [r + s for r in (z.location for z in st_.removable_zeros)
                                             for s in (-1e-9, -1e-12, 1e-12, 1e-9)]])
        xs = xs[(xs > lo) & (xs < hi) & ((xs < part.q1) | (xs > part.q3))]
        got = aux(xs)
        want = np.array([1.0 / (exact.exact_transform_integral(p, x, mid) if x < mid
                                else exact.exact_transform_integral(p, mid, x)) for x in xs])
        # sigma at x is known only up to the rounding of x relative to its distance d
        d = np.minimum(xs - lo, hi - xs)
        np.testing.assert_array_less(np.abs(got - want), (floor + EPS * np.abs(xs) / d) * want)
        # quarter points and endpoints are exact table entries
        assert aux(part.q1) == part.plateau and aux(part.q3) == part.plateau
        touching = i > 0 and aux.parts[i - 1].base.hi == lo
        assert aux(lo) == (aux.parts[i - 1].hi_value if touching else part.lo_value)
        assert aux(hi) == part.hi_value
    assert aux(0.0) == aux.parts[0].lo_value
    assert aux(1.0) == aux.parts[-1].hi_value
    if family == "removable-and-split":
        left, right = aux.parts
        assert left.base.hi == right.base.lo == 0.5
        # the touching point takes the left interval's endpoint limit
        assert left.hi_value > 0.0 == right.lo_value
        assert aux(0.5) == left.hi_value
        assert left.hi_value == pytest.approx(1.0 / exact.exact_transform_integral(p, 0.25, 0.5),
                                              rel=1e-13 if w is exact else 1e-7)


def test_gap_boundaries_and_outside(two_tent_chain):
    _, st_, aux = two_tent_chain
    (a, b), (c, e) = [(iv.lo, iv.hi) for iv in st_.intervals]
    xs = np.array([-1.0, np.nextafter(a, -1), a, b, np.nextafter(b, 2), 0.5,
                   np.nextafter(c, -1), c, e, np.nextafter(e, 2), 2.0, np.inf, -np.inf, np.nan])
    want = [0, 0, aux.parts[0].lo_value, aux.parts[0].hi_value, 0, 0,
            0, aux.parts[1].lo_value, aux.parts[1].hi_value, 0, 0, 0, 0, 0]
    np.testing.assert_array_equal(aux(xs), want)


def test_empty_structure_gives_zero():
    w = GridSampledWeight([0.0, 1.0], [0.0, 0.0])
    p = Exponent(2.0)
    st_ = detect_structure(w, p, CFG)
    assert st_.kind == "zero"
    aux = build_aux_weight(w, p, st_, CFG)
    np.testing.assert_array_equal(aux(np.linspace(-1.0, 2.0, 7)), 0.0)
    assert aux(0.5) == 0.0


def _cell_mass(xs, ws, q, a, b):
    """Integral of sigma = (linear interpolant of ws)^-q from a to b: per grid
    cell the closed form, its log form at q = 1 and the constant one on a
    flat cell, written in log1p/expm1 so that slight slopes keep their digits."""
    cut = np.concatenate([[a], xs[(xs > a) & (xs < b)], [b]])
    i = np.clip(np.searchsorted(xs, cut[:-1], side="right") - 1, 0, xs.size - 2)
    slope = (ws[i + 1] - ws[i]) / (xs[i + 1] - xs[i])
    w_lo = ws[i] + slope * (cut[:-1] - xs[i])
    h = np.diff(cut)
    r = slope * h / w_lo  # w at the cell's end over w at its start, minus 1
    flat = r == 0.0
    r = np.where(flat, 1.0, r)
    if q == 1.0:
        shape = np.log1p(r) / r
    else:
        shape = np.expm1((1.0 - q) * np.log1p(r)) / ((1.0 - q) * r)
    return math.fsum(w_lo ** -q * h * np.where(flat, 1.0, shape))


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_kinked_grid_segments_match_the_cell_closed_form(pv):
    # a grid weight is linear between nodes, so sigma kinks at every node;
    # the branch mesh has a node on each, and every segment takes a series.
    # Every sigma integral is cut at the nodes: branch points, plateaus and
    # endpoint values all match the per-cell closed form
    xs = np.linspace(-2.0, 2.0, 129)
    split = (xs, np.abs(xs * xs - 1.0) ** (1.5 * (pv - 1.0)) * (1.0 + 0.3 * np.sin(3.0 * xs + 0.4)))
    xs = np.linspace(0.0, 1.0, 1025)
    positive = (xs, (1.2 + np.sin(7.0 * xs)) * (1.0 + 0.3 * xs))
    q = 1.0 / (pv - 1.0)
    p = Exponent(pv)
    rng = np.random.default_rng(5)
    for xs, ws in (split, positive):
        w = tabled(GridSampledWeight(xs, ws))
        st_ = detect_structure(w, p, CFG)
        aux = build_aux_weight(w, p, st_, CFG)
        assert not st_.removable_zeros  # every branch segment is plain
        for part in aux.parts:
            lo, mid, hi = part.base.lo, part.base.mid, part.base.hi
            np.testing.assert_allclose(part.plateau, 1.0 / _cell_mass(xs, ws, q, part.q1, part.q3),
                                       rtol=1e-13)
            for value, cls, a, b in ((part.lo_value, part.base.lo_class, lo, mid),
                                     (part.hi_value, part.base.hi_class, mid, hi)):
                want = 1.0 / _cell_mass(xs, ws, q, a, b) if cls.integrable else 0.0
                np.testing.assert_allclose(value, want, rtol=1e-13)
            for br in (part.left, part.right):
                d = np.sort(rng.uniform(1e-3, 1.0, 400)) * br.d_max
                x = br.endpoint + br.sgn * d
                ref = [1.0 / _cell_mass(xs, ws, q, min(t, mid), max(t, mid)) for t in x]
                np.testing.assert_allclose(aux(x), ref, rtol=1e-13)
        # the whole table holds no panel (or exact) zone
        assert not np.any(aux._table().kind >= auxweight._PANEL)


def test_undeclared_kink_segment_is_a_panel_zone():
    # w = x^2 (1 + 3|x - 0.11|) with no metadata: the kink at 0.11 lies inside
    # a mesh segment of the left branch, which no series fits; that segment
    # is a panel zone, and every Chebyshev zone starts at a mesh node
    w = ClosedFormWeight(fn=lambda x: x * x * (1.0 + 3.0 * np.abs(x - 0.11)),
                         domain=Interval(0.0, 1.0))
    p = Exponent(2.0)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    panels = 0
    for br in (br for part in aux.parts for br in (part.left, part.right)):
        zones = br.zones_by_distance()
        starts = zones["d_start"][zones["kind"] == auxweight._CHEB]
        assert np.isin(starts, br.d_mesh).all()
        panels += np.count_nonzero(zones["kind"] == auxweight._PANEL)
    assert panels >= 1


def _counting(cls):
    """A subclass of a weight class that counts its sigma calls."""

    class Counting(cls):
        sigma_calls = 0  # on the class: a ClosedFormWeight is frozen

        def transform(self, p):
            inner = super().transform(p)

            def sigma(x):
                Counting.sigma_calls += 1
                return inner(x)

            return sigma

    return Counting


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_tabulated_power_weight_needs_no_sigma(pv):
    xs = np.linspace(0.0, 1.0, 257)
    p = Exponent(pv)
    for exact in (_counting(PiecewisePowerWeight)(
                      Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 2.0, 0.0, 1.5 * (pv - 1.0))]),
                  _counting(GridSampledWeight)(xs, np.abs(xs - 0.3) ** (0.5 * (pv - 1.0)) + xs)):
        # closed-form sigma masses: the structure, the build and 10k queries
        # evaluate no sigma at all
        st_ = detect_structure(exact, p, CFG)
        aux = build_aux_weight(exact, p, st_, CFG)
        assert aux._zones is None  # construction alone builds no table
        vals = aux(np.random.default_rng(0).uniform(0.0, 1.0, 10_000))
        assert exact.sigma_calls == 0
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        # the table path: once the first query built the table, its
        # Chebyshev and below-mesh zones evaluate no sigma either
        w = _counting(_NoPrimitive)(fn=exact, domain=exact.domain, family=exact.family, of=exact)
        aux = build_aux_weight(w, p, detect_structure(w, p, CFG), CFG)
        assert aux._zones is None and isinstance(aux.parts[0].left, auxweight.BranchTable)
        aux(0.1)
        built = w.sigma_calls
        tab = aux(np.random.default_rng(0).uniform(0.0, 1.0, 10_000))
        assert w.sigma_calls == built
        assert np.all(np.isfinite(tab)) and np.all(tab >= 0.0)


def test_jump_at_a_piece_end_inside_a_branch_is_a_mesh_node():
    # w jumps from 1 to 3 at 0.13, inside the left branch (0, 1/4); at p = 2
    # sigma = 1/w, so C(x) = (0.13 - x) + 0.37/3 below the jump
    w = tabled(PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.13, 1.0, 0.0, 0.0),
                                                         PowerPiece(0.13, 1.0, 3.0, 0.0, 0.0)]))
    p = Exponent(2.0)
    aux = build_aux_weight(w, p, detect_structure(w, p, CFG), CFG)
    assert 0.13 in aux.parts[0].left.d_mesh
    x = np.linspace(0.001, 0.249, 500)
    mass = np.where(x < 0.13, 0.13 - x + 0.37 / 3.0, (0.5 - x) / 3.0)
    np.testing.assert_allclose(aux(x), 1.0 / mass, rtol=1e-13)
    assert not np.any(aux._table().kind >= auxweight._PANEL)


def test_grid_evaluation_makes_no_sigma_call():
    xs = np.linspace(0.0, 1.0, 65)
    w = tabled(GridSampledWeight(xs, 1.0 + xs * (1.0 - xs)))
    calls = []
    p = Exponent(2.0)
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    aux(0.1)
    table = aux._table()
    inner = table.sigma
    table.sigma = lambda x: calls.append(np.size(x)) or inner(x)
    aux(np.random.default_rng(1).uniform(0.0, 1.0, 10_000))
    assert calls == []


@pytest.mark.parametrize("chain", ["figure1_chain", "two_tent_chain"])
def test_branch_values_agree_with_aux(request, chain):
    _, _, aux = request.getfixturevalue(chain)
    for part in aux.parts:
        lo, hi = part.base.lo, part.base.hi
        d = (part.q1 - lo) * np.geomspace(1e-14, 0.999, 60)
        x = lo + d
        np.testing.assert_allclose(part.left.values(x - lo), aux(x), rtol=1e-13)
        x = hi - d
        np.testing.assert_allclose(part.right.values(hi - x), aux(x), rtol=1e-13)
        # at and past the quarter point the branch holds its one-sided limit
        assert part.left.values(np.array([part.left.d_max, 1e3]))[1] == part.left_limit
        assert part.right.values(np.array([part.right.d_max]))[0] == part.right_limit


def test_branch_values_outlive_their_aux(figure1, p2):
    st_ = detect_structure(figure1, p2, CFG)
    part = build_aux_weight(figure1, p2, st_, CFG).parts[0]
    gc.collect()
    d = np.geomspace(1e-12, 1.0, 9) * part.left.d_max
    first = part.left.values(d)
    assert np.all(np.isfinite(first)) and np.all(first > 0.0)
    # another AuxWeight over the same parts leaves the branch's values alone
    _Doubled(figure1, p2, st_, [part], CFG)(part.q1)
    np.testing.assert_array_equal(part.left.values(d), first)


def test_cascade_sums_mesh_no_branch(monkeypatch):
    # cascade_partial_sums integrates aux over each bump's first quarter
    # only; its branches are exact: the first query lays out each branch's
    # zones once, left and right, and no branch is meshed
    fitted, meshed = [], []
    fit, mesh = auxweight.ExactBranch.rows, auxweight._branch_mesh

    def counting(self, *args):
        fitted.append(self.sgn)
        return fit(self, *args)

    def counting_mesh(endpoint, mid, *args):
        meshed.append(1.0 if mid > endpoint else -1.0)
        return mesh(endpoint, mid, *args)

    monkeypatch.setattr(auxweight.ExactBranch, "rows", counting)
    monkeypatch.setattr(auxweight, "_branch_mesh", counting_mesh)
    rep = cascade_partial_sums(3.0, Exponent(2.0), 6, CFG)
    assert len(rep.terms) == 6 and fitted == [1.0, -1.0] * 6 and meshed == []


def _lazy_cases():
    xs = np.linspace(-2.0, 2.0, 129)
    for pv in (1.5, 2.0, 3.0):
        p = Exponent(pv)
        grid = GridSampledWeight(xs, np.abs(xs * xs - 1.0) ** (1.5 * (pv - 1.0))
                                 * (1.0 + 0.3 * np.sin(3.0 * xs + 0.4)))
        for w in (builtin_figure1(), tabled(builtin_cascade(2.0 * (pv - 1.0), p, 6)), tabled(grid),
                  tabled(_removable_then_split(pv))):
            yield pytest.param(w, p, id=f"{w.family}-p{pv}")


@pytest.mark.parametrize("w, p", _lazy_cases())
def test_build_and_bounds_mesh_no_branch(monkeypatch, w, p):
    # the quarter-span drive gives every plateau, limit and bound: the build
    # integrates no mesh segment, and neither do the bounds
    calls = []
    for name in ("_eval_panels", "_branch_mesh"):
        monkeypatch.setattr(auxweight, name, lambda *a, name=name: calls.append(name))
    st_ = detect_structure(w, p, CFG)
    bounds = aux_global_bounds(build_aux_weight(w, p, st_, CFG))
    assert calls == [] and len(bounds.per_interval) == len(st_.intervals)
    assert math.isfinite(bounds.sup) and bounds.sup > 0.0


def _eager_tables(w, p, parts):
    """Every branch's (d_mesh, c_nodes, plain, d_max), the segments of all
    branches one batch of panels.  The bit-for-bit reference."""
    branches = [br for part in parts for br in (part.left, part.right)]
    meshes = [auxweight._branch_mesh(br.endpoint, br.mid, br.removables, br.kinks)
              for br in branches]
    lo, hi = (np.concatenate([np.zeros(0)] + [m[k] for m in meshes]) for k in (1, 2))
    vals = quadrature._eval_panels(w.transform(p), lo, hi, CFG)[0]
    ends = np.cumsum([0] + [m[1].size for m in meshes])
    tables = []
    for k, (br, (d_mesh, _, _, plain)) in enumerate(zip(branches, meshes)):
        seg = vals[ends[k]:ends[k + 1]]
        c = br.c_at_dmax + np.concatenate([[0.0], np.cumsum(seg[::-1])])[::-1]
        tables.append((d_mesh, c, plain, float(d_mesh[-1])))
    return tables


def _with_tables(parts, tables):
    """Copies of parts whose branches hold the given tabulations."""
    out = []
    for part, left, right in zip(parts, tables[::2], tables[1::2]):
        brs = [dataclasses.replace(br) for br in (part.left, part.right)]
        for br, tab in zip(brs, (left, right)):
            br.__dict__["_tabulated"] = tab
        out.append(dataclasses.replace(part, left=brs[0], right=brs[1]))
    return out


@pytest.mark.parametrize("w, p", _lazy_cases())
def test_branches_built_in_any_order_give_one_table(w, p):
    # the first query builds every branch, wherever it lands (in the first
    # left branch or the last right one, each on a fresh build): the branch
    # tabulations and the table equal the reference, the table built whole
    # from the eager batch of all branches' panels, and so does aux at
    # seeded points
    st_ = detect_structure(w, p, CFG)
    rng = np.random.default_rng(11)
    parts = build_aux_weight(w, p, st_, CFG).parts
    x = np.concatenate([rng.uniform(w.domain.lo, w.domain.hi, 500)] + [
        e + s * np.geomspace(1e-12, 1.0, 40) * (part.q1 - part.base.lo)
        for part in parts for e, s in ((part.base.lo, 1.0), (part.base.hi, -1.0))])
    eager = _eager_tables(w, p, parts)
    eager_parts = _with_tables(parts, eager)
    whole = auxweight._AuxTable(auxweight._whole_line(eager_parts, st_.touching))
    want = AuxWeight(w, p, st_, eager_parts, CFG)(x)
    in_first_left = 0.5 * (parts[0].base.lo + parts[0].q1)
    in_last_right = 0.5 * (parts[-1].q3 + parts[-1].base.hi)
    for first in (in_first_left, in_last_right):
        aux = build_aux_weight(w, p, st_, CFG)
        aux(first)
        assert all("_tabulated" in br.__dict__ for part in aux.parts for br in (part.left, part.right))
        branches = [br for part in aux.parts for br in (part.left, part.right)]
        for br, tab in zip(branches, eager):
            for got_k, want_k in zip((br.d_mesh, br.c_nodes, br.plain, br.d_max), tab):
                assert np.asarray(got_k).tobytes() == np.asarray(want_k).tobytes()
        table = aux._table()
        for key in ("start", "kind", "ep", "sgn", "d_ref", "scale", "c_ref", "row", "series"):
            np.testing.assert_array_equal(getattr(table, key), getattr(whole, key))
        np.testing.assert_array_equal(aux(x).view(np.int64), want.view(np.int64))


def test_overlapping_branch_zones_raise_on_every_query(figure1, p2):
    # a branch whose zones come out of order in x leaves no table to build:
    # every query raises, wherever it lands, keeps no table, and so does the
    # next; once the branch is mended the same aux reads a fresh build's values
    st_ = detect_structure(figure1, p2, CFG)
    aux = build_aux_weight(figure1, p2, st_, CFG)
    part = aux.parts[0]
    zones = part.left.zones_by_distance()
    part.left.zones_by_distance = lambda: {**zones, "d_start": zones["d_start"][::-1].copy()}
    inside = part.base.lo + 0.5 * (part.q1 - part.base.lo)
    right = part.base.hi - 0.5 * (part.base.hi - part.q3)
    for x in (inside, right, aux.parts[-1].base.hi, inside):
        with pytest.raises(ArithmeticError, match="zones overlap"):
            aux(x)
        assert aux._zones is None
    del part.left.zones_by_distance
    assert aux(right) == build_aux_weight(figure1, p2, st_, CFG)(right)


def test_series_matrices_match_numpy_polynomial():
    from degenrelax.quadrature import _NODES
    cheb = np.polynomial.chebyshev
    to_series = np.linalg.inv(cheb.chebvander(_NODES, _NODES.size - 1))
    antiderivative = -cheb.chebint(to_series, lbnd=1.0, axis=0)
    slope = cheb.chebvander(_NODES, _NODES.size - 2) @ cheb.chebder(to_series, axis=0)
    np.testing.assert_allclose(auxweight._ANTIDERIVATIVE, antiderivative, rtol=0, atol=1e-14)
    np.testing.assert_allclose(auxweight._SLOPE, slope, rtol=0, atol=1e-12)


class _Doubled(AuxWeight):
    def __call__(self, x):
        return 2.0 * super().__call__(x)


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-20])
def test_identity_residual_is_free_of_units(scale):
    # w = scale * x^(1/2) at p = 2: the residual of the true aux stays small
    # and that of a doubled aux stays near 1/2, whatever the scale of w
    p = Exponent(2.0)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, scale, 0.0, 0.5)])
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    doubled = _Doubled(w, p, st_, aux.parts, CFG)
    for x in (0.05, 0.2, 0.8, 0.95):
        assert derivative_identity_residual(aux, x) <= 1e-4
        assert derivative_identity_residual(doubled, x) >= 0.4


@pytest.mark.parametrize("abs_tol", [1e-13, 1e-6])
def test_identity_residual_with_a_zero_ideal_is_infinite(abs_tol):
    # where aux^2 sigma is 0 but the finite difference is not, the relative
    # defect is infinite, whatever the config's absolute tolerance
    p = Exponent(2.0)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 0.5)])
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, QuadratureConfig(abs_tol=abs_tol))
    aux(0.1)  # tabulated with the true sigma
    aux.sigma = lambda x: np.zeros(np.shape(x))
    assert derivative_identity_residual(aux, 0.1) == math.inf


def _graded_mesh_loop(h_max, anchor, sgn):
    """The per-level loop _graded_mesh replaced: the bit-for-bit reference."""
    levels = [h_max]
    d = h_max
    while True:
        nxt = 0.5 * d
        if anchor + sgn * nxt == anchor or nxt <= 0.0 or len(levels) > 80:
            break
        levels.append(nxt)
        d = nxt
    mesh = [np.exp(np.linspace(math.log(top), math.log(bot), 11))
            for top, bot in zip(levels[:-1], levels[1:])]
    return np.unique(np.concatenate(mesh)) if mesh else np.array([h_max])


def test_graded_mesh_matches_the_level_loop():
    rng = np.random.default_rng(11)
    cases = [(0.5, 0.0, 1.0),      # anchor 0: the 80-level cap ends it
             (1e-300, 0.0, -1.0),
             (5e-324, 0.0, 1.0),   # no level below h_max
             (0.5, 1.0, -1.0),     # halving stops where anchor + d rounds to anchor
             (1e-15, 1e3, 1.0),
             (3.0, 1e16, -1.0)]
    for _ in range(400):
        anchor = rng.choice([0.0, rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-20.0, 20.0)])
        cases.append((10.0 ** rng.uniform(-300.0, 3.0), anchor, rng.choice([-1.0, 1.0])))
    sizes = set()
    for h_max, anchor, sgn in cases:
        want = _graded_mesh_loop(h_max, anchor, sgn)
        got = auxweight._graded_mesh(h_max, anchor, sgn)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (h_max, anchor, sgn)
        sizes.add(want.size)
    assert 1 in sizes and 801 in sizes  # one level only; the 80-level cap


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_point_zero_inside_a_branch_segment_is_graded_into(pv):
    # w vanishes at one point only: the centre Kronrod node of a plain branch
    # segment, where sigma is +inf; integrate()'s rule grades into it
    smooth = lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2
    dom = Interval(0.0, 1.0)
    p = Exponent(pv)
    clean_w = ClosedFormWeight(fn=smooth, domain=dom, zeros=())
    clean = build_aux_weight(clean_w, p, detect_structure(clean_w, p, CFG), CFG)
    br = clean.parts[0].left
    k = br.d_mesh.size // 2
    lo, hi = sorted(br.endpoint + br.sgn * br.d_mesh[k:k + 2])
    x0 = 0.5 * (lo + hi)
    w = ClosedFormWeight(fn=lambda x: np.where(x == x0, 0.0, smooth(x)), domain=dom, zeros=())
    sigma = w.transform(p)
    assert sigma(np.array([x0]))[0] == math.inf
    aux = build_aux_weight(w, p, detect_structure(w, p, CFG), CFG)
    assert aux.parts[0].left.plain.all()  # plain: free of removable zeros
    near = x0 + np.spacing(x0) * np.arange(-3.0, 4.0)
    xs = np.concatenate((near, np.linspace(lo, hi, 9), np.linspace(0.0, 1.0, 101)))
    np.testing.assert_allclose(aux(xs), clean(xs), rtol=1e-12, atol=0.0)


def test_grid_zero_at_the_origin_fails_fast():
    # next to 0 the interpolant underflows to exactly 0, so sigma is +inf on
    # every node of the deepest branch segments; grading into such a panel
    # once shows that its bad node is no isolated spike.  The quarter spans
    # are finite, so the build and its bounds succeed; the branch left of 0
    # cannot be built, so the first query fails, wherever it lands, and so
    # does every later one
    xs = np.linspace(-1.0, 1.0, 33)
    w = tabled(GridSampledWeight(xs, np.abs(xs) ** 2 * (1.0 + 0.2 * np.cos(5.0 * xs))))
    p = Exponent(1.5)
    st_ = detect_structure(w, p, CFG)

    def expire(*_):
        raise TimeoutError("the aux weight ran past its 1 s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        aux = build_aux_weight(w, p, st_, CFG)
        bounds = aux_global_bounds(aux)
        assert math.isfinite(bounds.sup) and math.isfinite(bounds.inf)
        assert all(math.isfinite(v) for b in bounds.per_interval for v in b)
        for x in (-1e-3, 0.5, -1e-3):
            with pytest.raises(ArithmeticError, match=r"non-finite at x=.*across a whole panel"):
                aux(x)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _branch_alone(sigma, endpoint, mid, removables, kinks, cfg):
    """One branch with its own integrals, as build_aux_weight made them before
    it built every branch in one drive: the bit-for-bit reference.  The mesh
    has a node on each kink of w that is not a removable zero."""
    sgn = 1.0 if mid > endpoint else -1.0
    half = abs(mid - endpoint)
    d_mesh = auxweight._graded_mesh(0.5 * half, endpoint, sgn)
    # a graded node too close to a kink for a Chebyshev fit gives way to it
    kinks = np.setdiff1d(kinks, removables)
    d_k = sgn * (kinks - endpoint)
    tol = 2.0 * np.finfo(float).eps / auxweight._MAX_NOISE * np.abs(kinks)
    inside = (d_k > 0.0) & (d_k < d_mesh[-1] - tol)
    d_k, tol = d_k[inside], tol[inside]
    near = np.append(np.any(np.abs(d_mesh[:-1, None] - d_k) <= tol, axis=1), False)
    d_mesh = np.union1d(d_mesh[~near], d_k)
    extra = [auxweight._sliver_nodes((r - endpoint) * sgn, d_mesh[-1]) for r in removables
             if 0.0 < (r - endpoint) * sgn <= d_mesh[-1]]
    if extra:
        d_mesh = np.unique(np.concatenate([d_mesh, *extra]))
    xs = endpoint + sgn * d_mesh
    keep = np.ones(d_mesh.size, dtype=bool)
    keep[:-1] = np.abs(np.diff(xs)) > 0.0
    d_mesh, xs = d_mesh[keep], xs[keep]
    qpt = endpoint + sgn * 0.5 * half
    lo_q, hi_q = (qpt, mid) if sgn > 0 else (mid, qpt)
    res = integrate(sigma, lo_q, hi_q, cfg, singular=[r for r in removables if lo_q < r < hi_q],
                    breakpoints=kinks)
    assert res.is_finite
    seg_lo, seg_hi = np.minimum(xs[:-1], xs[1:]), np.maximum(xs[:-1], xs[1:])
    vals = np.zeros(seg_lo.size)
    plain = np.ones(seg_lo.size, dtype=bool)
    for r in removables:
        plain &= ~((r >= seg_lo) & (r <= seg_hi))
    if np.any(plain):
        vals[plain] = quadrature._eval_panels(sigma, seg_lo[plain], seg_hi[plain], cfg)[0]
    assert np.isfinite(vals).all()
    for j in np.flatnonzero(~plain):
        lo, hi = float(seg_lo[j]), float(seg_hi[j])
        seg = integrate(sigma, lo, hi, cfg, singular=[r for r in removables if lo < r < hi])
        assert seg.is_finite
        vals[j] = seg.value
    c_all = res.value + np.concatenate([[0.0], np.cumsum(vals[::-1])])[::-1]
    return d_mesh, c_all, plain


def _grid_split_at_half():
    xs = np.linspace(0.0, 1.0, 1025)
    return tabled(GridSampledWeight(xs, np.abs(xs - 0.5) ** 2 * (1.0 + 0.3 * xs))), Exponent(1.5)


def _two_uneven_removables():
    """On (0, 1): removable zeros at 0.1 and 0.85, in the left and the right
    branch, each with other exponents on its two sides."""
    return tabled(PiecewisePowerWeight(Interval(0.0, 1.0), [
        PowerPiece(0.0, 0.1, 1.0, 0.1, 0.3), PowerPiece(0.1, 0.5, 2.0, 0.1, 0.6),
        PowerPiece(0.5, 0.85, 1.5, 0.85, 0.4), PowerPiece(0.85, 1.0, 1.0, 0.85, 0.7)])), Exponent(2.0)


def _removable_sweep(n):
    """n seeded weights on (0, 1), each with one removable zero r in the left
    branch: two power pieces, or (every third) a grid with a node on r.  The
    grids have 4,097 nodes and r >= 0.1: on coarser grids, or nearer the
    domain end, too few probes survive and the zero reads as splitting."""
    rng = np.random.default_rng(5)
    cases = []
    for i in range(n):
        pv = float(rng.choice([1.3, 1.5, 2.0, 3.0, 4.0]))
        r = rng.uniform(0.1 if i % 3 == 0 else 0.02, 0.23)
        a = rng.uniform(0.05, 0.95) * (pv - 1.0)
        if i % 3 == 0:
            xs = np.linspace(0.0, 1.0, 4097)
            r = float(xs[np.argmin(np.abs(xs - r))])
            w = GridSampledWeight(xs, np.abs(xs - r) ** a * (1.0 + 0.3 * np.sin(3.0 * xs)))
        else:
            w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, r, 1.0, r, a),
                                                          PowerPiece(r, 1.0, 1.5, r, a)])
        cases.append((f"removable-sweep-{i}", lambda w=w, pv=pv: (tabled(w), Exponent(pv))))
    return cases


ONE_DRIVE_CASES = {
    "figure1": lambda: (builtin_figure1(), Exponent(2.0)),
    "removable": lambda: (tabled(_removable_then_split(2.0)), Exponent(2.0)),
    "removable-uneven": _two_uneven_removables,
    "removable-on-quarter-points": lambda: (builtin_figure1(), Exponent(4.0)),
    "cascade20": lambda: (tabled(builtin_cascade(3.0, Exponent(2.0), 20)), Exponent(2.0)),
    "grid": _grid_split_at_half,
    **dict(_removable_sweep(9)),
}


@pytest.mark.parametrize("case", sorted(ONE_DRIVE_CASES))
def test_one_drive_build_matches_branch_by_branch(case):
    w, p = ONE_DRIVE_CASES[case]()
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    sigma = w.transform(p)
    removables = [z.location for z in st_.removable_zeros]
    assert len(aux.parts) == len(st_.intervals) >= (20 if case == "cascade20" else 1)
    touching = 0
    for part in aux.parts:
        iv = part.base
        quarters = []
        for br, end, limit in ((part.left, iv.lo, part.left_limit),
                               (part.right, iv.hi, part.right_limit)):
            d_mesh, c_all, plain = _branch_alone(sigma, end, iv.mid, removables,
                                                 w.breakpoints(), CFG)
            assert br.d_mesh.tobytes() == d_mesh.tobytes()
            assert br.c_nodes.tobytes() == c_all.tobytes()
            assert np.array_equal(br.plain, plain)
            assert limit.hex() == (1.0 / c_all[-1]).hex() == (1.0 / br.c_at_dmax).hex()
            quarters.append(c_all[-1])
            touching += int(np.count_nonzero(~plain))
        # the plateau integral is the sum of the two quarter spans
        assert part.plateau.hex() == (1.0 / (quarters[0] + quarters[1])).hex()
    assert (touching > 0) == case.startswith("removable")


@pytest.mark.parametrize("case", sorted(c for c in ONE_DRIVE_CASES if c.startswith("removable")))
def test_segments_touching_a_removable_zero_are_one_ulp_wide(case):
    # the premise of integrating them as plain Kronrod panels
    w, p = ONE_DRIVE_CASES[case]()
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    touching = 0
    for br in (br for part in aux.parts for br in (part.left, part.right)):
        xs = br.endpoint + br.sgn * br.d_mesh
        lo = np.minimum(xs[:-1], xs[1:])[~br.plain]
        hi = np.maximum(xs[:-1], xs[1:])[~br.plain]
        assert np.array_equal(hi, np.nextafter(lo, math.inf)), (lo, hi)
        touching += lo.size
    assert touching >= len(st_.removable_zeros) >= 1


def test_aux_holds_the_mass_next_to_a_strong_removable_zero():
    # w = |x - 0.1|^0.475 at p = 1.5 (alpha/(p-1) = 0.95): sigma's mass within an
    # ulp of the zero is large, and the exact branch holds it
    p = Exponent(1.5)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.1, 1.0, 0.1, 0.475),
                                                  PowerPiece(0.1, 1.0, 1.0, 0.1, 0.475)])
    st_ = detect_structure(w, p, CFG)
    aux = build_aux_weight(w, p, st_, CFG)
    mid = st_.intervals[0].mid
    xs = np.array([0.05, 0.1 - 1e-6])
    want = [1.0 / w.exact_transform_integral(p, x, mid) for x in xs]
    np.testing.assert_allclose(aux(xs), want, rtol=1e-13)


def test_quarter_span_not_integrable_keeps_its_message():
    # a double zero at 0.3 given as removable in a hand-made structure that
    # keeps (0, 1) whole: the left quarter span (0.25, 0.5) grades into it
    # and diverges
    p = Exponent(2.0)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.3, 1.0, 0.3, 2.0),
                                                  PowerPiece(0.3, 1.0, 1.0, 0.3, 2.0)])
    unit = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 0.0)])
    st_ = dataclasses.replace(detect_structure(unit, p, CFG),
                              removable_zeros=(ZeroInfo(0.3, 2.0, 2.0),))
    with pytest.raises(ArithmeticError, match=(
            "^transform not integrable between quarter point and midpoint; "
            "the degeneracy structure should have split here$")):
        build_aux_weight(w, p, st_)
