"""Degeneracy structure detection across weight families and exponents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenrelax import (
    ClosedFormWeight,
    Exponent,
    GridSampledWeight,
    IndeterminateIntegrabilityError,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    QuadratureConfig,
    WeightSpecError,
    ZeroInfo,
    builtin_cascade,
    builtin_figure1,
    builtin_power,
    detect_structure,
    weight_from_csv,
)
from degenrelax import degeneracy

CFG = QuadratureConfig()


def test_figure1_p2_three_intervals(figure1_chain):
    w, st_, aux = figure1_chain
    assert st_.kind == "finite"
    assert st_.count == 3
    spans = [(iv.lo, iv.hi) for iv in st_.intervals]
    assert spans == [(-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0)]
    # interior boundaries are non-integrable on both facing sides
    assert not st_.intervals[0].hi_class.integrable
    assert not st_.intervals[1].lo_class.integrable
    assert not st_.intervals[1].hi_class.integrable
    assert not st_.intervals[2].lo_class.integrable
    # the physical domain edges carry positive weight, hence integrable sides
    assert st_.intervals[0].lo_class.integrable
    assert st_.intervals[2].hi_class.integrable
    assert [z.location for z in st_.split_zeros] == [-1.0, 1.0]
    assert st_.removable_zeros == ()


def test_figure1_zero_becomes_removable_at_large_p():
    # alpha_p = 2/(p-1) < 1 once p > 3: the zeros stop splitting
    w = builtin_figure1()
    st_ = detect_structure(w, Exponent(4.0), CFG)
    assert st_.count == 1
    assert (st_.intervals[0].lo, st_.intervals[0].hi) == (-2.0, 2.0)
    assert [z.location for z in st_.removable_zeros] == [-1.0, 1.0]
    assert st_.split_zeros == ()


def test_figure1_threshold_p3_still_splits():
    # alpha_p = 1 exactly: log divergence, the zero still cuts
    st_ = detect_structure(builtin_figure1(), Exponent(3.0), CFG)
    assert st_.count == 3
    assert [z.location for z in st_.split_zeros] == [-1.0, 1.0]


def test_edge_zero_not_listed():
    # x^2 on (0,1): the only zero sits on the domain edge; it controls the
    # endpoint class but never appears among interior zeros
    w = builtin_power(2.0)
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert st_.count == 1
    assert st_.removable_zeros == () and st_.split_zeros == ()
    assert not st_.intervals[0].lo_class.integrable
    assert st_.intervals[0].hi_class.integrable


def test_zero_regions_always_cut(two_tent_chain):
    w, st_, aux = two_tent_chain
    spans = [(iv.lo, iv.hi) for iv in st_.intervals]
    assert spans == [(0.05, 0.4), (0.6, 0.95)]
    assert st_.zero_regions == ((0.0, 0.05), (0.4, 0.6), (0.95, 1.0))
    for iv in st_.intervals:
        assert not iv.lo_class.integrable
        assert not iv.hi_class.integrable


def test_overlapping_zero_regions_merge():
    class Overlapping(ClosedFormWeight):
        def zero_set(self):
            return (), ((0.2, 0.4), (0.35, 0.5))

    w = Overlapping(fn=lambda x: np.where((x >= 0.2) & (x <= 0.5), 0.0, 1.0),
                    domain=Interval(0.0, 1.0), zeros=())
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert st_.zero_regions == ((0.2, 0.5),)
    assert [(iv.lo, iv.hi) for iv in st_.intervals] == [(0.0, 0.2), (0.5, 1.0)]


def test_splitting_zeros_closer_than_the_tolerance_cut_once():
    # hand-written metadata: the second zero lies within 1e-12 * width of the
    # first, so it cuts nothing and the intervals meet at the first
    w = ClosedFormWeight(fn=lambda x: (x - 0.5) ** 2, domain=Interval(0.0, 1.0),
                         zeros=(ZeroInfo(0.5, 2.0, 2.0), ZeroInfo(0.5 + 5e-13, 2.0, 2.0)))
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert [z.location for z in st_.split_zeros] == [0.5, 0.5 + 5e-13]
    assert [(iv.lo, iv.hi) for iv in st_.intervals] == [(0.0, 0.5), (0.5, 1.0)]


def test_identically_zero_weight():
    w = PiecewisePowerWeight(Interval(0.0, 1.0), [], family="null")
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert st_.kind == "zero"
    assert st_.count == 0
    assert st_.zero_regions == ((0.0, 1.0),)


def test_truncated_cascade_is_marked():
    p = Exponent(2.0)
    w = builtin_cascade(2.0, p, 5)
    st_ = detect_structure(w, p, CFG)
    assert st_.kind == "infinite_truncated"
    assert st_.count == 5
    widths = [iv.width for iv in st_.intervals]
    np.testing.assert_allclose(widths, [2.0 ** -(i + 1) for i in range(5)], rtol=1e-12)


def test_positive_weight_single_interval(unit_chain):
    w, st_, aux = unit_chain
    assert st_.count == 1
    iv = st_.intervals[0]
    assert (iv.lo, iv.hi) == (0.0, 1.0)
    assert iv.lo_class.integrable and iv.hi_class.integrable
    # the half integrals of sigma == 1 are just the half widths
    assert iv.lo_class.value == pytest.approx(0.5, abs=1e-12)


def test_structure_is_deterministic(figure1, p2):
    a = detect_structure(figure1, p2, CFG)
    b = detect_structure(figure1, p2, CFG)
    assert a == b


@given(st.floats(min_value=0.3, max_value=4.0), st.floats(min_value=1.2, max_value=5.0))
@settings(max_examples=30, deadline=None)
def test_interior_power_zero_split_rule(alpha, pv):
    # symmetric zero at 1/2: splits exactly when alpha/(p-1) >= 1
    p = Exponent(pv)
    ap = p.alpha_p(alpha)
    if abs(ap - 1.0) < 0.05:
        return  # borderline float noise either way, rule tested at p=3 above
    pieces = [PowerPiece(0.0, 0.5, 1.0, 0.5, alpha), PowerPiece(0.5, 1.0, 1.0, 0.5, alpha)]
    w = PiecewisePowerWeight(Interval(0.0, 1.0), pieces)
    st_ = detect_structure(w, p, CFG)
    if ap >= 1.0:
        assert st_.count == 2
        assert [z.location for z in st_.split_zeros] == [0.5]
    else:
        assert st_.count == 1
        assert [z.location for z in st_.removable_zeros] == [0.5]


def test_one_sided_zero_splits_when_either_side_degenerates():
    # steep on the left of the zero, flat on the right: the left side alone
    # forces the cut for p = 2
    pieces = [PowerPiece(0.0, 0.5, 1.0, 0.5, 3.0), PowerPiece(0.5, 1.0, 1.0, 0.5, 0.5)]
    w = PiecewisePowerWeight(Interval(0.0, 1.0), pieces)
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert st_.count == 2
    assert [z.location for z in st_.split_zeros] == [0.5]
    # left interval faces the steep side, right interval the shallow one
    assert not st_.intervals[0].hi_class.integrable
    assert st_.intervals[1].lo_class.integrable


def test_grid_weight_on_threshold_raises(tmp_path):
    path = tmp_path / "absx.csv"
    xs = np.linspace(-1.0, 1.0, 2001)
    with open(path, "w") as fh:
        fh.write("x,w\n")
        for x in xs:
            fh.write(f"{x:.17g},{abs(x):.17g}\n")
    w = weight_from_csv(str(path))
    with pytest.raises(IndeterminateIntegrabilityError):
        detect_structure(w, Exponent(2.0), CFG)
    st_ = detect_structure(w, Exponent(3.0), CFG)
    assert st_.count == 1
    assert [z.location for z in st_.removable_zeros] == [0.0]


def test_grid_weight_detects_interval_pattern(tmp_path):
    # sampled figure1 at p=2 must reproduce the closed-form decomposition
    path = tmp_path / "fig.csv"
    xs = np.linspace(-2.0, 2.0, 4001)
    ws = (1.0 - xs ** 2) ** 2
    with open(path, "w") as fh:
        for x, v in zip(xs, ws):
            fh.write(f"{x:.17g},{v:.17g}\n")
    w = weight_from_csv(str(path))
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert st_.count == 3
    for iv, (lo, hi) in zip(st_.intervals, [(-2, -1), (-1, 1), (1, 2)]):
        assert iv.lo == pytest.approx(lo, abs=2e-3)
        assert iv.hi == pytest.approx(hi, abs=2e-3)


def _ref_scan_weight(w):
    """The scan as a scalar loop: zero runs by a while loop, and each sample
    tested against every widened flat run."""
    dom = w.domain
    n = 8193
    xs = np.linspace(dom.lo, dom.hi, n)
    vals = np.asarray(w(xs), dtype=float)
    peak = float(np.max(vals))
    if peak <= 0.0:
        return [], [(dom.lo, dom.hi)]
    tol = 1e-14 * peak

    regions = []
    below = vals <= tol
    i = 0
    run_bounds = []
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        run_bounds.append((i, j))
        i = j + 1
    covered = []
    for i0, i1 in run_bounds:
        if i1 > i0:
            lo_edge = xs[i0] if i0 == 0 else degeneracy._bisect_threshold(
                lambda t: float(w(np.array([t]))[0]) - tol, xs[i0], xs[i0 - 1])
            hi_edge = xs[i1] if i1 == n - 1 else degeneracy._bisect_threshold(
                lambda t: float(w(np.array([t]))[0]) - tol, xs[i1], xs[i1 + 1])
            regions.append((float(min(lo_edge, hi_edge)), float(max(lo_edge, hi_edge))))
            covered.append((i0, i1))

    zeros = []
    soft = 1e-5 * peak
    for i in range(n):
        if any(i0 - 1 <= i <= i1 + 1 for i0, i1 in covered):
            continue
        is_min = (vals[i] <= soft
                  and (i == 0 or vals[i] <= vals[i - 1])
                  and (i == n - 1 or vals[i] <= vals[i + 1]))
        if not is_min:
            continue
        lo_b = xs[max(i - 1, 0)]
        hi_b = xs[min(i + 1, n - 1)]
        z = degeneracy._golden_min(lambda t: float(w(np.array([t]))[0]), lo_b, hi_b)
        if float(w(np.array([z]))[0]) <= tol:
            zeros.append(float(z))
    zeros = sorted(zeros)
    merged = []
    for z in zeros:
        if not merged or z - merged[-1] > 1e-10 * dom.width:
            merged.append(z)
    return merged, regions


class _Formula:
    """A weight known only by its values, as the scan sees one."""

    def __init__(self, domain, fn):
        self.domain, self.fn = domain, fn

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _scan_cases():
    """Seeded weights for the scan: sampled exactly on the scan's 8193 points
    or on other grids, and closed forms with power zeros and zero regions."""
    n = 8193
    ramp = 0.5 + 0.4 * np.sin(np.linspace(0.0, 7.0, n))
    fixed = {
        "flat-both-ends": np.concatenate([np.zeros(5), ramp[5:-7], np.zeros(7)]),
        "one-sample-wide": np.where(np.isin(np.arange(n), [2000, 2001, 5000]), 0.0, ramp),
        "one-sample-apart": np.where(np.isin(np.arange(n), [3000, 3001, 3002, 3004, 3005]),
                                     0.0, ramp),
        "all-zero": np.zeros(n),
        "zero-free": ramp,
        "soft-dips": np.where(np.isin(np.arange(n), [0, 17, 4000, n - 1]), 1e-9, ramp),
    }
    for name, vals in fixed.items():
        yield name, GridSampledWeight(np.linspace(0.0, 1.0, n), vals)
    # a zero halfway between two samples: two equal sample minima
    yield "tied-minimum", _Formula(Interval(0.0, 1.0),
                                   lambda x: np.abs(x - 0.5 - 2.0 ** -14) ** 3)
    rng = np.random.default_rng(20240611)
    for seed in range(110):
        scale = 10.0 ** rng.uniform(-6, 6)
        lo = float(rng.uniform(-3.0, 1.0))
        hi = lo + float(rng.uniform(0.5, 4.0))
        if seed % 2:
            m = int(rng.choice([n, 1000, 2500, 20000]))
            vals = scale * rng.uniform(0.2, 1.0, m)
            for _ in range(int(rng.integers(0, 5))):  # zero runs, now and then at an end
                at = int(rng.choice([0, m - 1, int(rng.integers(0, m))]))
                vals[at:at + int(rng.integers(1, 7))] = 0.0
            for at in rng.integers(0, m, int(rng.integers(0, 4))):  # dips, some to zero
                vals[at] = scale * 10.0 ** rng.uniform(-17, -5)
            yield f"grid-{seed}", GridSampledWeight(np.linspace(lo, hi, m), vals)
        else:
            zs = rng.uniform(lo, hi, int(rng.integers(1, 4)))
            expo = rng.choice([0.5, 1.0, 2.0, 3.5], zs.size)
            gap = np.sort(rng.uniform(lo, hi, 2)) if rng.random() < 0.5 else (hi, hi)

            def fn(x, zs=zs, expo=expo, gap=gap, scale=scale):
                v = scale * np.prod(np.abs(x[..., None] - zs) ** expo, axis=-1)
                return np.where((x > gap[0]) & (x < gap[1]), 0.0, v)
            yield f"formula-{seed}", _Formula(Interval(lo, hi), fn)


def test_scan_matches_the_scalar_loop():
    cases = list(_scan_cases())
    assert len(cases) >= 100
    found = 0
    for name, w in cases:
        got = degeneracy._scan_weight(w)
        assert repr(got) == repr(_ref_scan_weight(w)), name
        found += len(got[0]) + len(got[1])
    assert found > 100  # the cases do hold zeros and zero regions


@pytest.mark.parametrize("fn, message", [
    (lambda x: x - 0.3, "weight is -0.3 at x=0.0: not a weight"),
    # the first of the 8,193 scan samples past 0.6
    (lambda x: np.where(x > 0.6, np.nan, 1.0), "weight is nan at x=0.60009765625: not a weight"),
])
def test_scan_rejects_values_that_are_not_weights(fn, message, p2):
    # without metadata the scan checks the samples; with it, no scan runs, so
    # the weight checks the same samples when it is built
    for zeros in (None, (ZeroInfo(0.3, 1.0, 1.0),)):
        with pytest.raises(WeightSpecError) as err:
            detect_structure(ClosedFormWeight(fn=fn, domain=Interval(0.0, 1.0), zeros=zeros),
                             p2, CFG)
        assert str(err.value) == message


def test_an_infinite_sample_is_not_a_zero_weight(p2):
    # w = x^-0.5 is +inf at 0: the zero tolerance scales with the finite samples
    st_ = detect_structure(builtin_power(-0.5), p2, CFG)
    assert st_.kind == "finite" and [(iv.lo, iv.hi) for iv in st_.intervals] == [(0.0, 1.0)]
    iv = st_.intervals[0]
    assert iv.lo_class.integrable
    assert abs(iv.lo_class.value - (2.0 / 3.0) * 0.5 ** 1.5) <= 1e-10
    # w(0) = +inf is no positive weight: the exponent is estimated
    assert iv.lo_class.rule == "estimated-exponent"
    assert abs(iv.lo_class.local_exponent + 0.5) <= 1e-9
    assert iv.hi_class.rule == "positive-weight"
