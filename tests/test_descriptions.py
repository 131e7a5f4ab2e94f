"""One weight, two descriptions: a PiecewisePowerWeight and the same zeros
declared on a ClosedFormWeight give one structure, and both build aux.

The exponent at a zero decides the split through Exponent.alpha_p alone,
and the zero regions come from zero_set() alone, so the exact masses of the
piecewise description and the numeric integrals of the closure agree at the
threshold alpha = p - 1 and across uncovered gaps however narrow.
"""

import math

import numpy as np
import pytest

from degenrelax import (
    ClosedFormWeight,
    Exponent,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    ZeroInfo,
    build_aux_weight,
    builtin_power,
    detect_structure,
)

UNIT = Interval(0.0, 1.0)


def declared(w: PiecewisePowerWeight) -> ClosedFormWeight:
    """w as a closure with its zeros and zero-region edges declared, each with
    w's own side exponents (math.inf toward a region)."""
    zeros, regions = w.zero_set()
    at = sorted({*zeros, *(e for r in regions for e in r)})
    return ClosedFormWeight(fn=w, domain=w.domain, zeros=tuple(
        ZeroInfo(z, w.side_exponent(z, -1), w.side_exponent(z, 1)) for z in at))


def chain(w, p: Exponent, query: bool = True):
    """Each interval's ends and end verdicts; aux must build and, queried, be
    finite at 257 points (a closure's first query tabulates its branches)."""
    st_ = detect_structure(w, p)
    aux = build_aux_weight(w, p, st_)
    if query:
        assert np.isfinite(aux(np.linspace(w.domain.lo, w.domain.hi, 257))).all()
    return [(iv.lo, iv.hi, iv.lo_class.integrable, iv.hi_class.integrable)
            for iv in st_.intervals]


@pytest.mark.parametrize("alpha, p", [(0.3, 1.3), (0.6, 1.6), (0.1, 1.1), (0.7, 1.7),
                                      (0.95, 1.95)])
def test_a_zero_on_the_threshold_splits_on_both_descriptions(alpha, p):
    # alpha/(p - 1) rounds to 0.9999999999999998 for the first three
    assert Exponent(p).alpha_p(alpha) == 1.0
    assert Exponent(p).alpha_p(np.array([alpha, 0.0])).tolist() == [1.0, 0.0]
    w = PiecewisePowerWeight(UNIT, [PowerPiece(0.0, 0.5, 1.0, 0.5, alpha),
                                    PowerPiece(0.5, 1.0, 1.0, 0.5, alpha)])
    for d in (w, declared(w)):
        assert chain(d, Exponent(p)) == [(0.0, 0.5, True, False), (0.5, 1.0, False, True)]


@pytest.mark.parametrize("gap", [5e-14, 5e-13])
def test_a_narrow_gap_parts_the_structure_on_both_descriptions(gap):
    w = PiecewisePowerWeight(UNIT, [PowerPiece(0.0, 0.5, 1.0, 0.0, 0.0),
                                    PowerPiece(0.5 + gap, 1.0, 1.0, 0.0, 0.0)])
    assert w.zero_set() == ((), ((0.5, 0.5 + gap),))
    d = declared(w)
    assert d.zero_set() == ((0.5, 0.5 + gap), ((0.5, 0.5 + gap),))
    for desc in (w, d):
        st_ = detect_structure(desc, Exponent(2.0))
        assert st_.zero_regions == ((0.5, 0.5 + gap),) and st_.touching == (False,)
        assert chain(desc, Exponent(2.0)) == [(0.0, 0.5, True, True),
                                              (0.5 + gap, 1.0, True, True)]


@pytest.mark.parametrize("a, gap", [(0.3, "ulp"), (0.5, "ulp"), (0.6, 5e-15)])
def test_a_gap_narrower_than_1e_14_parts_the_structure_on_both_descriptions(a, gap):
    # the closure declares the gap's edges as zeros, with math.inf toward it
    b = float(np.nextafter(a, 1.0)) if gap == "ulp" else a + gap
    w = PiecewisePowerWeight(UNIT, [PowerPiece(0.0, a, 1.0, a, 0.5),
                                    PowerPiece(b, 1.0, 1.0, 0.0, 0.0)])
    d = declared(w)
    assert w.zero_set() == ((a,), ((a, b),)) and d.zero_set() == ((a, b), ((a, b),))
    for desc in (w, d):
        assert detect_structure(desc, Exponent(2.0)).touching == (False,)
        assert chain(desc, Exponent(2.0)) == [(0.0, a, True, True), (b, 1.0, True, True)]


@pytest.mark.parametrize("alpha, p", [(0.95, 1.95), (1.0, 2.0)])
def test_a_span_from_a_pivot_on_the_threshold_is_infinite(alpha, p):
    # the span starts 4 ulps off the pivot at 0: it meets the pivot
    assert builtin_power(alpha).exact_transform_integral(Exponent(p), 2e-323, 0.5) == math.inf


def _draw(rng):
    """A PiecewisePowerWeight on (0, 1) of 1-4 pieces, each decaying to one of
    its ends with exponent k (p - 1) (the float product, or rounded to 10
    digits), half of the joins opened by an uncovered gap of 1e-15 to 1e-11;
    and the same weight declared."""
    p = int(rng.integers(11, 41)) / 10.0
    ends = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, int(rng.integers(0, 4)))),
                           [1.0]))
    pieces = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        if lo > 0.0 and rng.random() < 0.5:
            lo += 10.0 ** rng.uniform(-15.0, -11.0)
        alpha = float(rng.choice([0.3, 0.5, 0.7, 1.0, 2.0])) * (p - 1.0)
        alpha = round(alpha, 10) if rng.random() < 0.5 else alpha
        pieces.append(PowerPiece(lo, hi, 1.0, lo if rng.random() < 0.5 else hi, alpha))
    w = PiecewisePowerWeight(UNIT, pieces)
    return w, declared(w), Exponent(p)


def test_one_weight_two_descriptions_one_structure():
    # tabulating a closure's branches costs ten times its whole exact chain:
    # every tenth closure is queried, and every closure's aux built
    rng = np.random.default_rng(20240)
    for k in range(500):
        w, d, p = _draw(rng)
        exact, closure = chain(w, p), chain(d, p, query=k % 10 == 0)
        assert len(exact) == len(closure), (w.spec_dict(), p)
        for a, b in zip(exact, closure):
            assert a[2:] == b[2:] and np.allclose(a[:2], b[:2], rtol=0, atol=1e-12), \
                (w.spec_dict(), p, exact, closure)
