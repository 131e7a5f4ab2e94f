"""Weight model: exponents, transforms, piecewise powers, parsing."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    ClosedFormWeight,
    Exponent,
    GridSampledWeight,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    WeightSpecError,
    builtin_cascade,
    builtin_figure1,
    builtin_power,
    parse_weight_arg,
    weight_from_csv,
    weight_from_spec,
)
from degenrelax import degeneracy, quadrature


def test_exponent_rejects_bad_values():
    for bad in (1.0, 0.5, 0.0, -2.0, math.inf, math.nan, np.float32(0.5), np.int64(1),
                np.float64(math.inf), "2", None, True):
        with pytest.raises(WeightSpecError):
            Exponent(bad)


def test_exponent_accepts_numpy_real_scalars():
    for good in (np.int64(2), np.float32(2.0), np.float64(2.0), np.int8(3), 2, 2.0):
        p = Exponent(good)
        assert type(p.p) is float and p.p == float(good)


@pytest.mark.parametrize("make, message", [
    (lambda: Interval(1.0, 0.0), "need finite lo < hi"),
    (lambda: builtin_power(-1.0), "power weight needs alpha > -1"),
    (lambda: PowerPiece(0.5, 0.5, 1.0, 0.0, 1.0), "bad piece span"),
    (lambda: PowerPiece(0.0, 1.0, 0.0, 0.0, 1.0), "piece scale must be positive finite"),
    (lambda: PowerPiece(0.0, 1.0, 1.0, 0.0, 1.0, log2scale=math.inf),
     "piece log2scale must be finite"),
    (lambda: PowerPiece(0.0, 1.0, 1.0, 0.0, -1.0), "piece exponent must be > -1"),
    (lambda: PowerPiece(0.0, 1.0, 1.0, 0.5, 1.0), "lies strictly inside"),
    # lo < pivot < hi is False for NaN and for +-inf alike
    (lambda: PowerPiece(0.0, 1.0, 1.0, math.nan, 2.0), "piece pivot must be finite"),
    (lambda: PowerPiece(0.0, 1.0, 1.0, -math.inf, 2.0), "piece pivot must be finite"),
    (lambda: PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.6, 1.0, 0.0, 1.0),
                                                       PowerPiece(0.4, 1.0, 1.0, 1.0, 1.0)]),
     "pieces overlap"),
    (lambda: PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 2.0, 1.0, 0.0, 1.0)]),
     "outside domain"),
    (lambda: GridSampledWeight([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]), "strictly increasing"),
    # np.diff(x) <= 0 is False next to a NaN node
    (lambda: GridSampledWeight([0.0, math.nan, 1.0], [1.0, 1.0, 1.0]), "finite, strictly increasing"),
    (lambda: GridSampledWeight([0.0, 1.0, math.inf], [1.0, 1.0, 1.0]), "finite, strictly increasing"),
    (lambda: GridSampledWeight([0.0, 1.0], [1.0, math.nan]), "must be finite"),
    (lambda: GridSampledWeight([0.0, 1.0], [1.0, -1.0]), "significantly negative"),
    (lambda: weight_from_spec({}), "with a 'family' key"),
    (lambda: weight_from_spec({"family": "cascade"}), "needs the run exponent p"),
    (lambda: weight_from_spec({"family": "grid"}), "needs 'csv' or 'x'+'w'"),
    (lambda: weight_from_spec({"family": "piecewise_power"}), "needs 'domain'"),
    (lambda: parse_weight_arg("power:alpha"), "bad weight argument fragment 'alpha'"),
], ids=["interval-reversed", "power-alpha-minus-1", "piece-empty-span", "piece-scale-0",
        "piece-log2scale-inf", "piece-exponent-minus-1", "piece-pivot-inside",
        "piece-pivot-nan", "piece-pivot-minus-inf", "pieces-overlap", "piece-outside-domain",
        "grid-not-increasing", "grid-nan-node", "grid-inf-node", "grid-nan",
        "grid-negative", "spec-empty", "spec-cascade-without-p", "spec-grid-without-data",
        "spec-piecewise-without-domain", "arg-fragment-without-value"])
def test_spec_checks_raise_with_their_message(make, message):
    with pytest.raises(WeightSpecError, match=re.escape(message)):
        make()


def test_conjugate_exponent_relation():
    p = Exponent(3.0)
    assert abs(1.0 / p.p + 1.0 / p.conj - 1.0) < 1e-15


@given(st.floats(min_value=1.01, max_value=50.0))
def test_conjugate_is_involutive(pv):
    p = Exponent(pv)
    q = Exponent(p.conj)
    assert abs(q.conj - p.p) < 1e-9 * p.p


@given(st.floats(min_value=1.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=8.0))
def test_transform_power_reciprocity(pv, alpha):
    # (p-1)(conj-1) == 1, so alpha_p of p composed with conj-1 recovers alpha
    p = Exponent(pv)
    ap = p.alpha_p(alpha)
    assert abs(ap * (p.p - 1.0) - alpha) < 1e-12 * max(1.0, alpha)


def test_figure1_values():
    w = builtin_figure1()
    assert w.domain.lo == -2.0 and w.domain.hi == 2.0
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    np.testing.assert_allclose(w(x), [9.0, 0.0, 1.0, 0.0, 9.0], atol=0)
    assert w.zero_set() == ((-1.0, 1.0), ())
    assert all(w.side_exponent(z, side) == 2.0 for z in (-1.0, 1.0) for side in (-1, +1))


def test_transform_maps_zeros_to_inf():
    w = builtin_figure1()
    sigma = w.transform(Exponent(2.0))
    vals = sigma(np.array([-1.0, 0.0, 1.0]))
    assert vals[0] == math.inf and vals[2] == math.inf
    assert vals[1] == 1.0


def test_piecewise_power_uncovered_is_zero():
    pieces = [PowerPiece(0.2, 0.5, 1.0, 0.2, 1.0)]
    w = PiecewisePowerWeight(Interval(0.0, 1.0), pieces)
    assert float(w(np.array([0.1]))[0]) == 0.0
    assert float(w(np.array([0.9]))[0]) == 0.0
    assert float(w(np.array([0.3]))[0]) == pytest.approx(0.1)
    assert w.zero_set()[1] == ((0.0, 0.2), (0.5, 1.0))


def test_negative_exponent_piece_is_inf_at_its_pivot_without_warning():
    # as builtin_power with alpha = -0.5: +inf at the pivot, and no warning
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, -0.5)])
    x = np.array([0.0, 0.25, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = w(x)
        want = builtin_power(-0.5)(x)
    assert vals.tolist() == [math.inf, 2.0, 1.0] == want.tolist()


def test_piecewise_local_exponent_metadata():
    pieces = [PowerPiece(0.0, 0.5, 2.0, 0.0, 3.0), PowerPiece(0.5, 1.0, 2.0, 1.0, 3.0)]
    w = PiecewisePowerWeight(Interval(0.0, 1.0), pieces)
    assert w.side_exponent(0.0, +1) == 3.0
    assert w.side_exponent(1.0, -1) == 3.0
    assert w.side_exponent(0.25, +1) == 0.0  # strictly positive there


def test_interface_on_figure1_and_power():
    p = Exponent(2.0)
    w = builtin_figure1()
    assert w.side_exponent(1.0, -1) == 2.0 and w.side_exponent(-1.0, +1) == 2.0
    assert w.side_exponent(0.0, +1) == 0.0  # not a recorded zero
    assert w.exact_transform_integral(p, 0.0, 0.5) is None
    assert w.resolution_near(0.3) == 0.0
    assert w.zero_set() == ((-1.0, 1.0), ())
    w = builtin_power(1.5)
    assert w.side_exponent(0.0, +1) == 1.5
    assert w.side_exponent(0.0, -1) is None  # that side lies outside the domain
    assert w.zero_set() == ((0.0,), ())
    # one power piece: sigma = x^-1.5 at p = 2, whose integral from a to b is 2 (a^-1/2 - b^-1/2)
    assert w.exact_transform_integral(p, 0.25, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert w.spec_dict() == {"family": "power", "alpha": 1.5}
    w = builtin_power(0.0)  # w == 1: no zeros, and a positive exponent-0 side at 0
    assert w.side_exponent(0.0, +1) == 0.0 and w.zero_set() == ((), ())


def test_interface_on_piecewise_with_zero_regions():
    p = Exponent(2.0)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.2, 0.5, 1.0, 0.2, 1.0)])
    assert w.side_exponent(0.2, +1) == 1.0
    assert w.side_exponent(0.2, -1) == math.inf
    assert w.side_exponent(0.5, -1) == 0.0  # the pivot sits at the other end
    assert w.side_exponent(0.5, +1) == math.inf
    assert w.side_exponent(0.35, -1) == w.side_exponent(0.35, +1) == 0.0
    assert w.side_exponent(0.8, +1) == math.inf
    assert w.side_exponent(0.0, -1) is None and w.side_exponent(1.0, +1) is None
    assert w.zero_set() == ((0.2,), ((0.0, 0.2), (0.5, 1.0)))
    # sigma = 1/(x - 0.2) at p = 2
    assert w.exact_transform_integral(p, 0.3, 0.4) == pytest.approx(math.log(2.0), rel=1e-14)
    assert w.exact_transform_integral(p, 0.4, 0.6) == math.inf  # meets a zero region
    assert w.resolution_near(0.3) == 0.0


def test_interface_on_cascade():
    p = Exponent(2.0)
    w = builtin_cascade(2.0, p, 3)  # bumps on (0, 1/2), (1/2, 3/4), (3/4, 7/8)
    assert w.side_exponent(0.5, -1) == w.side_exponent(0.5, +1) == 2.0
    assert w.side_exponent(0.25, -1) == w.side_exponent(0.25, +1) == 0.0  # bump peak
    assert w.side_exponent(0.875, +1) == math.inf  # the uncovered tail
    assert w.zero_set() == ((0.0, 0.5, 0.75, 0.875), ((0.875, 1.0),))
    # first bump rises like 16 x^2, so sigma = 1/(16 x^2)
    assert w.exact_transform_integral(p, 0.1, 0.2) == pytest.approx(5.0 / 16.0, rel=1e-14)
    assert w.resolution_near(0.5) == 0.0


@pytest.mark.parametrize("width", [1.0, 1e-6])
def test_exact_transform_integral_near_a_nonintegrable_pivot(width):
    # x^0.75 at p = 1.5: sigma = x^-1.5, whose integral from a to b is 2 (a^-1/2 - b^-1/2)
    p = Exponent(1.5)
    w = PiecewisePowerWeight(Interval(0.0, width), [PowerPiece(0.0, width, 1.0, 0.0, 0.75)])
    hi = 0.5 * width
    for a in (1e-14, 1e-16, 1.1e-14):
        lo = a * width
        want = 2.0 * (lo ** -0.5 - hi ** -0.5)
        assert w.exact_transform_integral(p, lo, hi) == pytest.approx(want, rel=1e-13)
    assert w.exact_transform_integral(p, 0.0, hi) == math.inf
    # the domain slack scales with the width
    assert w.exact_transform_integral(p, -5e-13 * width, hi) == math.inf
    with pytest.raises(ValueError, match="outside domain"):
        w.exact_transform_integral(p, -5e-12 * width, hi)


def test_a_pivot_outside_its_piece_is_measured_from_the_piece():
    # x^2 on [0.3, 1) pivots at 0, outside its piece: the span (0, 0.5) meets that
    # pivot only inside the integrable x^0.5 piece, so the zero at 0 stays integrable
    p = Exponent(2.0)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.3, 1.0, 0.0, 0.5),
                                                  PowerPiece(0.3, 1.0, 1.0, 0.0, 2.0)])
    want = 2.0 * math.sqrt(0.3) + 1.0 / 0.3 - 2.0
    assert w.exact_transform_integral(p, 0.0, 0.5) == pytest.approx(want, rel=1e-14)
    alpha, rule = degeneracy.side_exponent_rule(w, p, 0.0, +1, 0.5)
    cls = quadrature.classify_endpoint_integrability(w, p, 0.0, 0.5, alpha, rule)
    assert cls.integrable and cls.rule == "exact-exponent"
    assert cls.value == pytest.approx(want, rel=1e-14)


def test_exact_transform_integral_past_the_float_range():
    # x^3 at p = 2: sigma = x^-3, whose integral from d to 1/2 is (d^-2 - 4)/2;
    # d^-2 overflows a float power, and the integral reads +inf
    p = Exponent(2.0)
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 1.0, 0.0, 3.0)])
    for d in (1e-160, 1e-200):
        assert w.exact_transform_integral(p, d, 0.5) == math.inf
    # a scale that brings the term back inside the range keeps it finite
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 1.0, 2.0 ** 1000, 0.0, 3.0)])
    want = math.exp(319.0 * math.log(10.0) - 1000.0 * math.log(2.0)) * 5.0  # 1e320 / 2^1001
    assert w.exact_transform_integral(p, 1e-160, 0.5) == pytest.approx(want, rel=1e-12)


def test_interface_on_grid_and_bare_closed_form():
    p = Exponent(2.0)
    xs = [0.0, 0.1, 0.2, 0.5, 0.6, 0.7, 0.8, 1.0]
    w = GridSampledWeight(xs, [0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0, 1.0])
    assert w.side_exponent(0.0, +1) is None and w.side_exponent(0.5, -1) is None
    # w rises from 1 to 2 on (0.1, 0.2): sigma = 1/w integrates to 0.1 log 2 there
    assert w.exact_transform_integral(p, 0.1, 0.2) == pytest.approx(0.1 * math.log(2.0), rel=1e-15)
    # cut at the node 0.2; w falls from 2 at 0.2 to 2/3 at 0.4 in the cell (0.2, 0.5)
    want = 0.1 * math.log(2.0 / 1.5) + 0.15 * math.log(3.0)
    assert w.exact_transform_integral(p, 0.15, 0.4) == pytest.approx(want, rel=1e-14)
    assert w.exact_transform_integral(p, 0.4, 0.6) == math.inf  # meets the zero node at 0.5
    assert w.exact_transform_integral(p, 0.65, 0.9) == math.inf  # meets the zero cell
    assert w.zero_set() == ((0.0, 0.5), ((0.7, 0.8),))
    # the widest cell among the few around z
    assert w.resolution_near(0.05) == pytest.approx(0.3, rel=1e-12)
    assert w.resolution_near(0.9) == pytest.approx(0.2, rel=1e-12)
    w = ClosedFormWeight(fn=lambda x: x * x, domain=Interval(0.0, 1.0))
    assert w.side_exponent(0.0, +1) is None
    assert w.exact_transform_integral(p, 0.1, 0.2) is None
    assert w.resolution_near(0.0) == 0.0
    assert w.zero_set() is None


def test_a_grid_builds_its_cell_table_once():
    # the cells' lower nodes, values there and slopes do not depend on p: the
    # grid derives them once and every sigma_masses reads them
    xs = np.linspace(0.0, 1.0, 9)
    vals = np.abs(np.sin(7.0 * xs)) + 0.1
    w, lo, hi = GridSampledWeight(xs, vals), xs[:-1] + 0.01, xs[1:] - 0.02
    tables = []
    for pv in (1.5, 2.0, 3.0):
        got = w.sigma_masses(Exponent(pv))(lo, hi)
        tables.append(w._cells)
        fresh = GridSampledWeight(xs, vals).sigma_masses(Exponent(pv))(lo, hi)
        assert got.tobytes() == fresh.tobytes()
    assert all(t is tables[0] for t in tables)
    # the index clamps at both ends of the grid, also for z outside it
    w = GridSampledWeight([0.0, 0.1, 0.2, 0.5, 0.6, 0.7, 0.8, 1.0], np.ones(8))
    assert [w.resolution_near(z) for z in (-1.0, 0.0, 1.0, 2.0)] == [
        pytest.approx(r, rel=1e-12) for r in (0.3, 0.3, 0.2, 0.2)]


def test_cascade_scales_do_not_round():
    # the later bumps carry scales like 2^(alpha_p * i); values must stay
    # finite and exact in the log2 sense even when scale overflows a float
    p = Exponent(1.05)
    w = builtin_cascade(2.0, p, 20)  # alpha_p = 40, scale_20 = 2^840
    x = w.pieces[-1].lo + 0.25 * (w.pieces[-1].hi - w.pieces[-1].lo)
    v = float(w(np.array([x]))[0])
    assert math.isfinite(v) and v > 0.0
    assert w.truncated and w.params["bumps"] == 20


def test_log_domain_values_of_huge_and_tiny_scales():
    # |log2 scale| > 512 evaluates exp2(log2 scale + exponent * log2 d): exact at
    # powers of two, exact 0 at the pivot, and scale * d^exponent where that fits
    w = PiecewisePowerWeight(Interval(0.0, 2.0), [
        PowerPiece(0.0, 1.0, 2.0 ** 600, 0.0, 2.0, log2scale=600.0),
        PowerPiece(1.0, 2.0, 2.0 ** -600, 2.0, 1.5, log2scale=-600.0)])
    k = np.arange(1.0, 40.0)
    np.testing.assert_array_equal(w(2.0 ** -k), 2.0 ** (600.0 - 2.0 * k))
    np.testing.assert_array_equal(w(2.0 - 2.0 ** -k), 2.0 ** (-600.0 - 1.5 * k))
    assert w(0.0) == 0.0 and w(2.0) == 0.0
    x = np.random.default_rng(5).uniform(0.0, 2.0, 200)
    d = np.where(x < 1.0, x, 2.0 - x)
    want = np.where(x < 1.0, 2.0 ** 600 * d ** 2.0, 2.0 ** -600 * d ** 1.5)
    np.testing.assert_allclose(w(x), want, rtol=1e-12, atol=0.0)


def _sigma_by_piece(w: PiecewisePowerWeight, p: Exponent):
    """Reference transform: one masked evaluation per piece."""
    inv = 1.0 / (p.p - 1.0)

    def sigma(x):
        flat = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        out = np.full(flat.shape, np.inf)
        idx = w._piece_index(flat)
        for i, q in enumerate(w.pieces):
            m = idx == i
            if not m.any():
                continue
            d = np.abs(flat[m] - q.pivot)
            with np.errstate(divide="ignore", over="ignore"):
                out[m] = np.exp2(-inv * q.log2_scale - inv * q.exponent * np.log2(d))
        return out

    return sigma


def _probe_points(w: PiecewisePowerWeight, rng) -> np.ndarray:
    """Seeded points in every piece and the domain, the piece ends and pivots
    and their neighbouring floats, and points off the domain."""
    dom = w.domain
    special = [dom.lo - 0.1, dom.hi + 0.1, dom.lo, dom.hi]
    for q in w.pieces:
        special += [q.lo, q.hi, q.pivot]
        special += rng.uniform(q.lo, q.hi, 8).tolist()
    special = np.array(special)
    return np.concatenate((special, np.nextafter(special, -np.inf),
                           np.nextafter(special, np.inf),
                           rng.uniform(dom.lo - 0.05, dom.hi + 0.05, 500)))


@pytest.mark.parametrize("pv", [1.5, 2.0, 3.0])
def test_transform_matches_the_per_piece_loop(pv):
    p = Exponent(pv)
    rng = np.random.default_rng(11)
    weights = [
        # a gap (0.5, 0.6) outside every piece; the last piece is closed at 1
        PiecewisePowerWeight(Interval(0.0, 1.0), [
            PowerPiece(0.0, 0.3, 1.0, 0.0, 1.5),
            PowerPiece(0.3, 0.5, 2.0, 0.5, 0.7),
            PowerPiece(0.6, 1.0, 3.0, 1.0, 2.5)]),
        builtin_cascade(4.0, p, 40),
        builtin_cascade(15.0, p, 40),  # log2 scales up to 615
        PiecewisePowerWeight(Interval(-1.0, 1.0), [
            PowerPiece(-1.0, 0.0, 2.0 ** -600, -1.0, 0.5, log2scale=-600.0),
            PowerPiece(0.0, 1.0, 2.0 ** 700, 1.0, 3.0, log2scale=700.0)]),
        PiecewisePowerWeight(Interval(0.0, 1.0), []),  # no pieces: +inf everywhere
    ]
    for w in weights:
        x = _probe_points(w, rng)
        got = w.transform(p)(x)
        want = _sigma_by_piece(w, p)(x)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert np.all(weights[-1].transform(p)(x) == math.inf)


def _w_by_piece(w: PiecewisePowerWeight, x) -> np.ndarray:
    """Reference w: one full-length masked pass per piece."""
    flat = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    out = np.zeros(flat.shape)
    idx = w._piece_index(flat)
    for i, q in enumerate(w.pieces):
        m = idx == i
        if not m.any():
            continue
        d = np.abs(flat[m] - q.pivot)
        if abs(q.log2_scale) > 512.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                out[m] = np.exp2(q.log2_scale + np.where(
                    q.exponent == 0.0, 0.0, q.exponent * np.log2(d)))
        else:
            out[m] = q.scale * d ** q.exponent
    return out


def test_weight_matches_the_per_piece_loop(two_tent):
    # one pass per (exponent, log-domain path) group, bit for bit; numpy's
    # scalar fast paths for d ** 0.5, ** 2 and ** -1 round unlike an array
    # exponent, so each group keeps its exponent a scalar
    rng = np.random.default_rng(13)
    weights = [
        builtin_cascade(3.0, Exponent(2.0), 20),
        builtin_cascade(15.0, Exponent(2.0), 40),  # log2 scales past 512
        two_tent,
        PiecewisePowerWeight(Interval(0.0, 1.0), [
            PowerPiece(0.0, 0.2, 1.0, 0.0, 0.5), PowerPiece(0.2, 0.4, 3.0, 0.0, 0.0),
            PowerPiece(0.4, 0.6, 0.5, 0.6, 2.0), PowerPiece(0.6, 0.7, 2.0, 0.6, 0.5),
            PowerPiece(0.7, 0.8, 2.0 ** 700, 0.7, 0.0, log2scale=700.0),
            PowerPiece(0.8, 0.9, 2.0 ** -600, 0.9, 2.0, log2scale=-600.0),
            PowerPiece(0.9, 1.0, 1.5, 0.9, 2.0)]),
        PiecewisePowerWeight(Interval(0.0, 1.0), []),  # no pieces: 0 everywhere
    ]
    assert max(abs(q.log2_scale) for q in weights[1].pieces) > 512.0
    for w in weights:
        x = np.concatenate((_probe_points(w, rng), rng.uniform(w.domain.lo, w.domain.hi, 20_000)))
        want = _w_by_piece(w, x)
        np.testing.assert_array_equal(w(x).view(np.int64), want.view(np.int64))
        assert all(w(v) == want[k] for k, v in enumerate(x[:50]))  # scalar calls


def test_cascade_requires_supercritical_alpha():
    with pytest.raises(WeightSpecError):
        builtin_cascade(2.0, Exponent(3.0), 4)


@given(st.floats(min_value=1.2, max_value=3.0, exclude_max=True),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_cascade_bumps_are_continuous_at_their_peak(pv, bumps, frac):
    # alpha = 2 keeps every p below 3 supercritical
    # each bump rises to its midpoint and falls symmetrically; the two
    # half-pieces must agree there up to rounding in the big scale
    p = Exponent(pv)
    w = builtin_cascade(2.0, p, bumps)
    piece = w.pieces[2 * (bumps - 1)]
    mid = piece.hi  # rising half ends at the bump midpoint
    eps = 1e-9 * (piece.hi - piece.lo) * frac
    left, right = (float(v) for v in w(np.array([mid - eps, mid + eps])))
    assert left >= 0 and right >= 0
    if left > 0 and right > 0:
        assert abs(left - right) <= 1e-6 * max(left, right)


def test_parse_weight_arg_grammar():
    w = parse_weight_arg("figure1")
    assert w.family == "figure1"
    w = parse_weight_arg("power:alpha=2")
    assert w.domain == Interval(0.0, 1.0)
    assert float(w(np.array([0.5]))[0]) == pytest.approx(0.25)
    w = parse_weight_arg("cascade:alpha=2,bumps=3", Exponent(2.0))
    assert w.truncated
    with pytest.raises((WeightSpecError, ValueError)):
        parse_weight_arg("power:alpha=oops")
    with pytest.raises(WeightSpecError):
        parse_weight_arg("nosuchfamily")


@pytest.mark.parametrize("text", ["power:alhpa=2", "figure1:alpha=3", "cascade:alpha=2,M=8",
                                  "cascade:alpha=2,m=8", "cascade:alpha=2,bumps=3.7",
                                  "cascade:alpha=2,bumps=inf"])
def test_weight_arg_rejects_what_it_would_ignore(text):
    # a misspelt or foreign parameter once built a default weight silently,
    # and a fractional bump count was truncated
    with pytest.raises(WeightSpecError):
        parse_weight_arg(text, Exponent(2.0))


@pytest.mark.parametrize("scale", [1e-13, 1e-12, 1e-3, 1.0, 1e12, 1e13])
def test_grid_negative_sample_check_is_free_of_units(scale):
    # a dip of 1e-10 of the peak below 0 is significant at every scale; one
    # of 1e-13 of the peak is rounding, clipped to 0
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(WeightSpecError, match="significantly negative"):
        GridSampledWeight(xs, scale * np.array([1.0, 0.5, -1e-10, 0.5, 1.0]))
    w = GridSampledWeight(xs, scale * np.array([1.0, 0.5, -1e-13, 0.5, 1.0]))
    assert w.values[2] == 0.0


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_piece_domain_check_is_free_of_units(scale):
    # a piece 1.5 times as wide as its domain is outside it at every scale;
    # one past the domain by 1e-13 of its width is not
    dom = Interval(0.0, scale)
    with pytest.raises(WeightSpecError, match="outside domain"):
        PiecewisePowerWeight(dom, [PowerPiece(0.0, 1.5 * scale, 1.0, 0.0, 1.0)])
    w = PiecewisePowerWeight(dom, [PowerPiece(0.0, scale * (1.0 + 1e-13), 1.0, 0.0, 1.0)])
    assert len(w.pieces) == 1


@pytest.mark.parametrize("spec, message", [
    ({"family": "power", "alpha": None}, "power alpha must be a number, got None"),
    ({"family": "cascade", "alpha": 2, "bumps": [8]}, "cascade bumps must be a number, got [8]"),
    ({"family": "cascade", "alpha": {}, "bumps": 8}, "cascade alpha must be a number, got {}"),
    ({"family": "piecewise_power", "domain": [0, 1], "pieces": [{"lo": 0, "hi": 1, "pivot": None}]},
     "piecewise_power piece pivot must be a number, got None"),
    ({"family": "piecewise_power", "domain": [0, 1], "pieces": [{"hi": 1, "pivot": 0}]},
     "piecewise_power piece lo must be a number, got None"),
    ({"family": "piecewise_power", "domain": [None, 1], "pieces": []},
     "piecewise_power domain must be a number, got None"),
    ({"family": "power", "alpha": "two"}, "power alpha must be a number, got 'two'"),
], ids=["power-alpha-null", "cascade-bumps-list", "cascade-alpha-object", "piece-pivot-null",
        "piece-lo-missing", "domain-null", "power-alpha-word"])
def test_weight_spec_value_that_is_no_number_names_its_key(spec, message):
    with pytest.raises(WeightSpecError, match=re.escape(message)):
        weight_from_spec(spec, Exponent(2.0))


def test_weight_spec_takes_what_float_takes():
    # numeric strings and booleans stay accepted, as float() reads them
    p = Exponent(2.0)
    assert weight_from_spec({"family": "power", "alpha": "1.5"}).spec_dict() == \
        builtin_power(1.5).spec_dict()
    assert weight_from_spec({"family": "power", "alpha": True}).spec_dict() == \
        builtin_power(1.0).spec_dict()
    assert weight_from_spec({"family": "cascade", "alpha": "3", "bumps": "4"}, p).pieces == \
        builtin_cascade(3.0, p, 4).pieces


def test_weight_spec_rejects_unknown_keys(tmp_path):
    piece = {"lo": 0.0, "hi": 1.0, "scale": 1.0, "pivot": 0.0, "exponnet": 2.0}
    with pytest.raises(WeightSpecError, match="exponnet"):
        weight_from_spec({"family": "piecewise_power", "domain": [0.0, 1.0], "pieces": [piece]})
    with pytest.raises(WeightSpecError, match="scale"):
        weight_from_spec({"family": "grid", "x": [0.0, 1.0], "w": [1.0, 1.0], "scale": 2.0})
    with pytest.raises(WeightSpecError, match="bumps"):
        weight_from_spec({"family": "cascade", "alpha": 2.0, "bumps": 4.5}, Exponent(2.0))
    # malformed JSON is bad input, and a piece takes no family
    for pieces in ([5], 5, [{"lo": 0.0, "hi": 1.0, "pivot": 0.0, "family": "x"}]):
        with pytest.raises(WeightSpecError):
            weight_from_spec({"family": "piecewise_power", "domain": [0.0, 1.0], "pieces": pieces})
    # every documented spelling still builds its weight
    p = Exponent(2.0)
    w = weight_from_spec({"family": "cascade", "alpha": 2.0, "bumps": 4.0}, p)
    assert w.spec_dict() == {"family": "cascade", "alpha": 2.0, "bumps": 4}
    assert parse_weight_arg("cascade:alpha=2,bumps=4", p).pieces == w.pieces
    piece["exponent"] = piece.pop("exponnet")
    for spec in ({"family": "figure1"}, {"family": "power", "alpha": 1.5}, w.spec_dict(),
                 {"family": "piecewise_power", "domain": [0.0, 1.0], "pieces": [piece]},
                 {"family": "grid", "x": [0.0, 1.0], "w": [1.0, 2.0]}):
        assert weight_from_spec(spec, p).spec_dict() == spec


def test_weight_spec_dict_round_trip():
    w = builtin_power(1.5)
    w2 = weight_from_spec(w.spec_dict())
    xs = np.linspace(-1, 1, 17)
    np.testing.assert_allclose(w(xs), w2(xs), rtol=0, atol=0)


def test_weight_from_csv(tmp_path):
    path = tmp_path / "w.csv"
    xs = np.linspace(0.0, 1.0, 101)
    with open(path, "w") as fh:
        fh.write("x,w\n")
        for x in xs:
            fh.write(f"{x:.17g},{x * (1 - x):.17g}\n")
    w = weight_from_csv(str(path))
    assert w.domain == Interval(0.0, 1.0)
    v = float(w(np.array([0.5]))[0])
    assert v == pytest.approx(0.25, abs=1e-12)
    # between nodes the grid interpolates; stays within the hat's range
    v = float(w(np.array([0.505]))[0])
    assert 0.24 < v <= 0.25


def test_weight_from_csv_allows_one_header_only(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,w\nnot,numbers\n0,1\n1,2\n")
    with pytest.raises(WeightSpecError, match="malformed CSV row"):
        weight_from_csv(str(path))
    path.write_text("\nx,w\n\n0,1\n1,2\n")  # blank rows do not count
    assert weight_from_csv(str(path)).domain == Interval(0.0, 1.0)


def test_weight_from_csv_without_numeric_rows(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,w\nnot,numbers\n")
    with pytest.raises(WeightSpecError, match="malformed CSV row"):
        weight_from_csv(str(path))
    path.write_text("x,w\n")
    with pytest.raises(WeightSpecError, match="fewer than 2 numeric rows"):
        weight_from_csv(str(path))


def test_unit_weight_is_one_everywhere(unit_weight):
    xs = np.linspace(0, 1, 9)
    np.testing.assert_allclose(unit_weight(xs), 1.0, rtol=0, atol=0)
    assert unit_weight.zero_set() == ((), ())


def test_exponent_zero_pivots_are_flat():
    # at the pivot of an exponent-0 piece, 0 * log2(0) counts as 0: w stays
    # positive there, so sigma is finite and a quadrature node may land on it
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [PowerPiece(0.0, 0.5, 1.0, 0.0, 0.0),
                                                   PowerPiece(0.5, 1.0, 2.0, 0.7, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = w.transform(Exponent(2.0))
        assert sigma(0.0) == 1.0 and sigma(0.7) == 0.5
        # the middle Kronrod node of [0.6, 0.8] is the pivot 0.7
        k15, _ = quadrature._eval_panels(sigma, np.array([0.6]), np.array([0.8]),
                                         quadrature.DEFAULT_CONFIG)
        assert k15[0] == pytest.approx(0.1, rel=1e-14)
        # the log-domain path of a huge scale, at its own pivot
        huge = PiecewisePowerWeight(Interval(0.0, 1.0), [
            PowerPiece(0.0, 1.0, math.inf, 0.5, 0.0, log2scale=600.0)])
        assert huge(0.5) == 2.0 ** 600 and huge(0.25) == 2.0 ** 600
