"""Mass accumulation along the built-in bump cascade.

The cascade weight stacks bumps on the dyadic intervals (1 - 2^(1-i),
1 - 2^(-i)) with amplitudes growing like 2^((i+1) alpha).  Every seam splits,
so the degeneracy structure keeps each bump as its own interval, and the
auxiliary weight mass of the first quarter of each bump can be summed bump
by bump.  Partial sums of these masses grow without bound while every
individual term stays comparable to the closed-form quantity
amplitude^(1/(p-1)) * width^(alpha/(p-1)), whose base-2 logarithm telescopes
to a constant per bump.  The report exposes both sequences and their ratio
band so the growth rate can be read off directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .auxweight import build_aux_weight
from .degeneracy import detect_structure
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_ranges
from .weights import MAX_BUMPS, Exponent, builtin_cascade


@dataclass(frozen=True)
class CascadeReport:
    alpha: float
    p: float
    bumps: int
    spans: tuple          # (lo, hi) of each bump interval
    terms: tuple          # auxiliary-weight mass of each bump's first quarter
    partial_sums: tuple
    comparison_log2: tuple
    comparison: tuple     # 2**comparison_log2, the closed-form per-bump scale
    ratios: tuple         # terms / comparison
    increasing: bool
    c_lo: float           # ratio band: c_lo <= terms/comparison <= c_hi
    c_hi: float


def cascade_partial_sums(alpha: float, p: Exponent, bumps: int,
                         cfg: Optional[QuadratureConfig] = None) -> CascadeReport:
    """Per-bump auxiliary masses, their partial sums, and the comparison scale.

    The comparison exponent is assembled as alpha_p*(i+1) - alpha_p*i so the
    telescoping is exact in floating point whenever alpha_p is.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not 1 <= bumps <= MAX_BUMPS:
        raise ValueError(f"bump count must lie in 1..{MAX_BUMPS}")
    alpha_p = p.alpha_p(alpha)
    if (bumps + 1) * alpha_p > 900.0:
        raise ValueError("cascade amplitudes overflow double precision at this "
                         "alpha/p/bump combination")
    w = builtin_cascade(alpha, p, bumps)
    structure = detect_structure(w, p, cfg)
    aux = build_aux_weight(w, p, structure, cfg)
    if len(aux.parts) != bumps:
        raise AssertionError(
            f"cascade structure has {len(aux.parts)} intervals, expected {bumps}")

    spans = [(part.base.lo, part.base.hi) for part in aux.parts]
    masses = integrate_ranges(lambda x, _: aux(x),
                              [(part.base.lo, part.q1, (), ()) for part in aux.parts], cfg)
    terms = [res.value_or_inf for res in masses]

    comparison_log2 = [alpha_p * (i + 1) - alpha_p * i for i in range(1, bumps + 1)]
    comparison = [2.0 ** lg for lg in comparison_log2]
    ratios = [t / c for t, c in zip(terms, comparison)]

    partial = []
    acc = 0.0
    for t in terms:
        acc += t
        partial.append(acc)
    increasing = all(partial[k + 1] > partial[k] for k in range(len(partial) - 1))

    return CascadeReport(
        alpha=float(alpha), p=p.p, bumps=bumps,
        spans=tuple(spans), terms=tuple(terms), partial_sums=tuple(partial),
        comparison_log2=tuple(comparison_log2), comparison=tuple(comparison),
        ratios=tuple(ratios), increasing=bool(increasing),
        c_lo=float(min(ratios)), c_hi=float(max(ratios)))
