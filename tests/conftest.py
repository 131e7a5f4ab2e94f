import numpy as np
import pytest

from degenrelax import quadrature, relaxation, spaces
from degenrelax import (
    Exponent,
    FirstPass,
    Interval,
    PiecewisePowerWeight,
    PowerPiece,
    QuadratureConfig,
    build_aux_weight,
    builtin_figure1,
    detect_structure,
    integrate_ranges,
    parse_weight_arg,
)


def count_drives(monkeypatch) -> list:
    """The ranges of every integrate_ranges call made from now on, one entry
    per call, wherever the package looks the name up.  A drive handed a
    FirstPass records the ranges it lays out: per range its ends, its
    singular points strictly inside (a list) and its breakpoints strictly
    inside."""
    calls = []

    def counting(f, ranges, *args, **kwargs):
        calls.append([(p[0], p[-1], p[1:-1], c) for p, c in zip(ranges.pts, ranges.cuts)]
                     if isinstance(ranges, FirstPass) else list(ranges))
        return integrate_ranges(f, ranges, *args, **kwargs)

    for module in (quadrature, spaces, relaxation):
        monkeypatch.setattr(module, "integrate_ranges", counting, raising=False)
    return calls


@pytest.fixture(scope="session")
def cfg():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def p2():
    return Exponent(2.0)


@pytest.fixture(scope="session")
def unit_weight():
    """w == 1 on (0, 1); every closed form below is elementary."""
    piece = PowerPiece(0.0, 1.0, 1.0, 0.0, 0.0)
    return PiecewisePowerWeight(Interval(0.0, 1.0), [piece], family="const_unit")


@pytest.fixture(scope="session")
def unit_chain(unit_weight, p2, cfg):
    st = detect_structure(unit_weight, p2, cfg)
    aux = build_aux_weight(unit_weight, p2, st, cfg)
    return unit_weight, st, aux


@pytest.fixture(scope="session")
def figure1():
    return builtin_figure1()


@pytest.fixture(scope="session")
def figure1_chain(figure1, p2, cfg):
    st = detect_structure(figure1, p2, cfg)
    aux = build_aux_weight(figure1, p2, st, cfg)
    return figure1, st, aux


def make_two_tent():
    """Two quadratic bumps on (0, 1) separated by a dead band (0.4, 0.6).

    Each bump vanishes quadratically at both of its own edges, so for p = 2
    every structure boundary is non-integrable and the two intervals meet
    across a genuine gap rather than touching.
    """
    pieces = [
        PowerPiece(0.05, 0.225, 1.0, 0.05, 2.0),
        PowerPiece(0.225, 0.4, 1.0, 0.4, 2.0),
        PowerPiece(0.6, 0.775, 1.0, 0.6, 2.0),
        PowerPiece(0.775, 0.95, 1.0, 0.95, 2.0),
    ]
    return PiecewisePowerWeight(Interval(0.0, 1.0), pieces, family="two_tent")


@pytest.fixture(scope="session")
def two_tent():
    return make_two_tent()


@pytest.fixture(scope="session")
def two_tent_chain(two_tent, p2, cfg):
    st = detect_structure(two_tent, p2, cfg)
    aux = build_aux_weight(two_tent, p2, st, cfg)
    return two_tent, st, aux


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
