"""Degeneracy structure detection across weight families and exponents."""

import math
import warnings

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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: without metadata one side's exponent at a zero is estimated twice, with "
    "different probes: detect_structure probes out to half the gap to the nearest "
    "feature, classify_endpoint_integrability to the half interval, so analyze reports "
    "1.50024 and 1.49375 for the right side of one zero (ROADMAP item 3)"))
def test_a_zero_side_has_one_exponent():
    x = np.linspace(0.0, 1.0, 1025)
    for alpha in (1.5, 2.5):
        w = GridSampledWeight(x, np.abs(x - 0.375) ** alpha * (1.0 + 0.3 * np.sin(4.0 * x)))
        st_ = detect_structure(w, Exponent(2.0), CFG)
        zero, = st_.split_zeros
        left, right = st_.intervals
        assert left.hi_class.local_exponent == zero.left_exponent
        assert right.lo_class.local_exponent == zero.right_exponent


def _log_weight(power):
    """x |log x|^power on (0, 1/2) without metadata, 0 at x = 0."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, x * np.abs(np.log(x)) ** power, 0.0)
    return ClosedFormWeight(fn=fn, domain=Interval(0.0, 0.5))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "w = x |log x| makes sigma = 1/(x |log x|), not integrable at 0, but the "
    "estimated-exponent rule fits 0.888 and calls the end integrable, which flips "
    "the endpoint dichotomy (ROADMAP item 3)"))
def test_a_log_corrected_zero_is_not_integrable():
    st_ = detect_structure(_log_weight(1.0), Exponent(2.0), CFG)
    assert not st_.intervals[0].lo_class.integrable


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "w = x log^2 x: the left end's value reads 0.70927 against 1/ln 4 = 0.72135 "
    "(ROADMAP item 3)"))
def test_a_log_corrected_zero_has_its_value():
    st_ = detect_structure(_log_weight(2.0), Exponent(2.0), CFG)
    assert st_.intervals[0].lo_class.value == pytest.approx(1.0 / math.log(4.0), rel=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: the golden search stops at 1e-13 * max(|a|, |b|, 1), so on a domain far "
    "from 0 the zero is placed off by ~1.6e-8 and its exponents drift: 2.0118/1.9891 "
    "at c = 1e6 and 1.9967/2.0034 at c = -3e5, where c = 0 gives 2 +- 2e-8 "
    "(ROADMAP item 6)"))
@pytest.mark.parametrize("c", [1e6, -3e5])
def test_a_shifted_zero_keeps_its_exponents(c):
    w = ClosedFormWeight(fn=lambda x: np.abs(x - c - 0.3) ** 2, domain=Interval(c, c + 1.0))
    zero, = detect_structure(w, Exponent(2.0), CFG).split_zeros
    assert zero.left_exponent == pytest.approx(2.0, abs=1e-3)
    assert zero.right_exponent == pytest.approx(2.0, abs=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: the scan misses isolated zeros of exponent below about 1: |x - 0.3|^0.5 "
    "is about 3e-7 at the golden search's resolution, above the 1e-14 * peak zero "
    "threshold, so no removable zero is reported"))
def test_a_weak_zero_is_reported_removable():
    w = ClosedFormWeight(fn=lambda x: np.abs(x - 0.3) ** 0.5, domain=Interval(0.0, 1.0))
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert [z.location for z in st_.removable_zeros] == [pytest.approx(0.3, abs=1e-9)]


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


def _golden_searches(monkeypatch):
    """(lo, hi, result) of every golden search made from now on."""
    golden, seen = degeneracy._golden_min, []

    def recording(f, lo, hi):
        seen.append((lo, hi, golden(f, lo, hi)))
        return seen[-1][2]

    monkeypatch.setattr(degeneracy, "_golden_min", recording)
    return seen


def test_scan_matches_the_scalar_loop(monkeypatch):
    # the scan is the loop less the zeros the loop golden-searches from an end
    # sample of exactly 0: such a sample is a zero on that domain end
    seen = _golden_searches(monkeypatch)
    cases = list(_scan_cases())
    assert len(cases) >= 100
    found = dropped = 0
    for name, w in cases:
        xs = np.linspace(w.domain.lo, w.domain.hi, 8193)
        vals = np.asarray(w(xs), dtype=float)
        end_brackets = {b for b, v in (((xs[0], xs[1]), vals[0]), ((xs[-2], xs[-1]), vals[-1]))
                        if v == 0.0}
        seen.clear()
        zeros, regions = _ref_scan_weight(w)
        from_ends = [z for lo, hi, z in seen if (lo, hi) in end_brackets]
        want = ([z for z in zeros if z not in from_ends], regions)
        dropped += len(zeros) - len(want[0])
        got = degeneracy._scan_weight(w)
        assert repr(got) == repr(want), name
        found += len(got[0]) + len(got[1])
    assert found > 100  # the cases do hold zeros and zero regions
    assert dropped  # and a zero sampled on an end


@pytest.mark.parametrize("c", [0.0, 1000.0, 1e6, -3e5])
def test_zeros_on_shifted_ends_are_the_ends(c):
    # |x - c|^a |c + 1 - x|^a on (c, c + 1) without metadata: the scan samples
    # both end zeros exactly, and they are the domain's ends wherever c puts
    # them; a golden search from an end sample can land 3.3e-11 inside
    # (1000, 1001), past the edge tolerance, and the exponent probes round
    # onto such a zero
    for a in (0.5, 2.0, 3.0):
        w = ClosedFormWeight(fn=lambda x, a=a: np.abs(x - c) ** a * np.abs(c + 1.0 - x) ** a,
                             domain=Interval(c, c + 1.0))
        for p in (1.5, 2.0, 3.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                st_ = detect_structure(w, Exponent(p), CFG)
            iv, = st_.intervals
            assert (iv.lo, iv.hi) == (c, c + 1.0)
            want = a / (p - 1.0) < 1.0
            assert iv.lo_class.integrable is want and iv.hi_class.integrable is want, (a, p)


def test_no_golden_search_for_a_zero_sampled_on_an_end(monkeypatch):
    seen = _golden_searches(monkeypatch)
    xs = np.linspace(0.0, 1.0, 8193)
    w = _Formula(Interval(0.0, 1.0), lambda x: (x * (1.0 - x)) ** 2 * np.abs(x - 0.3) ** 3)
    zeros, regions = degeneracy._scan_weight(w)
    # the interior minimum is still searched; neither end zero is
    assert [(lo, hi) for lo, hi, _ in seen] == [(xs[2457], xs[2459])]
    assert zeros == [pytest.approx(0.3, abs=1e-6)] and regions == []
    # end samples that dip but stay above 0 are searched too
    seen.clear()
    _, w = next(case for case in _scan_cases() if case[0] == "soft-dips")
    degeneracy._scan_weight(w)
    brackets = [(lo, hi) for lo, hi, _ in seen]
    assert (xs[0], xs[1]) in brackets and (xs[-2], xs[-1]) in brackets and len(seen) == 4


@pytest.mark.parametrize("z", [1e-6, 1.0 - 1e-6])
def test_a_zero_within_the_first_sample_step_splits(z):
    # the end sample of |x - z|^3 is about 1e-18 of the peak, at or below the
    # scan's tol but not 0: the zero is searched from it, found at z and split
    # there, with the divergence on both sides of z and none at the ends
    w = ClosedFormWeight(fn=lambda x: np.abs(x - z) ** 3, domain=Interval(0.0, 1.0))
    st_ = detect_structure(w, Exponent(2.0), CFG)
    zero, = [zi.location for zi in st_.split_zeros]
    assert zero == pytest.approx(z, abs=1e-12)
    assert [(iv.lo, iv.hi) for iv in st_.intervals] == [(0.0, zero), (zero, 1.0)]
    left, right = st_.intervals
    assert left.lo_class.integrable and not left.hi_class.integrable
    assert not right.lo_class.integrable and right.hi_class.integrable


def test_the_peak_sample_is_taken_once_per_weight():
    sizes = []

    class Counted(GridSampledWeight):
        def __call__(self, x):
            sizes.append(np.size(x))
            return super().__call__(x)

    x = np.linspace(0.0, 1.0, 4097)
    w = Counted(x, ((x - 0.25) * (x - 0.5) * (x - 0.75)) ** 2)
    st_ = detect_structure(w, Exponent(2.0), CFG)
    assert [z.location for z in st_.split_zeros] == [0.25, 0.5, 0.75]
    # eight endpoints ask for the peak; 513 points are sampled once
    assert sizes.count(513) == 1
    detect_structure(w, Exponent(1.5), CFG)
    assert sizes.count(513) == 1


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
    # w = x^-0.5 is +inf at 0, with no metadata (the closure builtin_power
    # was): the zero tolerance scales with the finite samples
    w = ClosedFormWeight(fn=lambda x: np.where(x > 0.0, np.abs(x), 0.0) ** -0.5,
                         domain=Interval(0.0, 1.0), family="power")
    with np.errstate(divide="ignore"):
        st_ = detect_structure(w, p2, CFG)
    assert st_.kind == "finite" and [(iv.lo, iv.hi) for iv in st_.intervals] == [(0.0, 1.0)]
    iv = st_.intervals[0]
    assert iv.lo_class.integrable
    assert abs(iv.lo_class.value - (2.0 / 3.0) * 0.5 ** 1.5) <= 1e-10
    # w(0) = +inf is no positive weight: the exponent is estimated
    assert iv.lo_class.rule == "estimated-exponent"
    assert abs(iv.lo_class.local_exponent + 0.5) <= 1e-9
    assert iv.hi_class.rule == "positive-weight"
