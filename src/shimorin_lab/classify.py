"""Boundedness classification of exponent pairs against the critical index.

In the (1/p, 1/q) square the critical segment

    C = { 1/q = 1/p + 1/c - 1,  1 <= p <= c' }

separates bounded from unbounded pairs. Off the segment, boundedness holds
exactly in the four clauses (a) p = 1, q < c; (b) 1 < p < c', 1/q strictly
above the line; (c) p = c', q < infinity; (d) p > c'; everything else is
unbounded. On the segment the verdict is measure-dependent (the standard-
estimate trichotomy): interior points and the two endpoints (1, c) and
(c', infinity) are labelled as critical and deferred to the trichotomy
predicate, whose targets at the endpoints are the weak-L^(c,inf) space and
the Bloch space respectively.

Exponents may be exact (int/Fraction, infinity) or floats; exact inputs
short-circuit the on-line tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .measure import (
    DivergibleValue,
    RadialMeasure,
    carleson_constant,
    critical_index,
    hyperbolic_integral,
    total_mass,
)

__all__ = [
    "ExponentPair",
    "RegionVerdict",
    "StandardEstimate",
    "region_verdict",
    "standard_estimate",
    "region_grid",
    "BOUNDED",
    "UNBOUNDED",
    "CRITICAL_INTERIOR",
    "CRITICAL_ENDPOINT_WEAK",
    "CRITICAL_ENDPOINT_BLOCH",
]

Exponent = Union[int, float, Fraction]

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
CRITICAL_INTERIOR = "critical-line-interior"
CRITICAL_ENDPOINT_WEAK = "critical-endpoint-(1,c)"
CRITICAL_ENDPOINT_BLOCH = "critical-endpoint-(c',inf)"


def _inverse(p: Exponent) -> tuple[Union[Fraction, float], bool]:
    """1/p as a Fraction when exact, else float; returns (value, exact?)."""
    if p == math.inf:
        return Fraction(0), True
    if isinstance(p, (int, Fraction)):
        if p < 1:
            raise ValueError(f"exponent must be >= 1, got {p}")
        return Fraction(1, 1) / Fraction(p), True
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"exponent must be >= 1, got {p}")
    return 1.0 / p, False


@dataclass(frozen=True)
class ExponentPair:
    """Pair (p, q) in [1, inf]^2; infinity is carried symbolically."""

    p: Exponent
    q: Exponent

    def __post_init__(self):
        _inverse(self.p)
        _inverse(self.q)

    @property
    def inv_p(self):
        return _inverse(self.p)[0]

    @property
    def inv_q(self):
        return _inverse(self.q)[0]

    @property
    def exact(self) -> bool:
        return _inverse(self.p)[1] and _inverse(self.q)[1]


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one pair: verdict kind plus the clause it cites."""

    kind: str
    clause: str
    on_critical_line: bool
    endpoint_target: str | None = None  # substitute space at critical endpoints


def region_verdict(c_nu: Exponent, pair: ExponentPair | tuple,
                   tol: float = 1e-9) -> RegionVerdict:
    """Verdict for (p, q) given the critical index; exact inputs compare exactly.

    Pairs on the critical segment are never called bounded/unbounded from the
    index alone (the behaviour there is measure-dependent; see
    standard_estimate), so they come back as critical-* verdicts. ``tol``
    must be finite and >= 0.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if not isinstance(pair, ExponentPair):
        pair = ExponentPair(*pair)
    inv_c, c_exact = _inverse(c_nu)
    if not (1 <= c_nu <= 2):
        raise ValueError(f"critical index must lie in [1, 2], got {c_nu}")
    ip, iq = pair.inv_p, pair.inv_q
    exact = pair.exact and c_exact
    # signed distance above the line 1/q = 1/p + 1/c - 1
    d = iq - ip - inv_c + 1
    inv_cprime = 1 - inv_c
    on_line = (d == 0) if exact else (abs(float(d)) <= tol)
    if on_line and (float(ip) >= float(inv_cprime) - (0 if exact else tol)):
        if (ip == 1) if exact else (abs(float(ip) - 1.0) <= tol):
            return RegionVerdict(CRITICAL_ENDPOINT_WEAK, "C-endpoint", True,
                                 endpoint_target="weak-L(c,inf)")
        at_cp = (ip == inv_cprime) if exact else (abs(float(ip - inv_cprime)) <= tol)
        if at_cp:
            return RegionVerdict(CRITICAL_ENDPOINT_BLOCH, "C-endpoint", True,
                                 endpoint_target="bloch")
        return RegionVerdict(CRITICAL_INTERIOR, "C-interior", True)
    # strict clause comparisons (floats fall back to tolerance-free comparisons;
    # the caller owns staying away from the line by more than tol)
    if ip == 1 or (not exact and abs(float(ip) - 1.0) <= tol):
        return (RegionVerdict(BOUNDED, "a", False) if float(iq) > float(inv_c)
                else RegionVerdict(UNBOUNDED, "necessity:p=1,q>c", False))
    if float(ip) < float(inv_cprime):  # p > c'
        return RegionVerdict(BOUNDED, "d", False)
    at_cp = (ip == inv_cprime) if exact else (abs(float(ip - inv_cprime)) <= tol)
    if at_cp:
        return (RegionVerdict(BOUNDED, "c", False) if float(iq) > 0
                else RegionVerdict(UNBOUNDED, "necessity:q=inf", False))
    # now 1 < p < c'
    if float(iq) == 0.0:
        return RegionVerdict(UNBOUNDED, "necessity:q=inf", False)
    if float(d) > 0:
        return RegionVerdict(BOUNDED, "b", False)
    return RegionVerdict(UNBOUNDED, "necessity:below-line", False)


@dataclass(frozen=True)
class StandardEstimate:
    """Trichotomy verdict: does the measure admit the full critical-line package?"""

    holds: bool
    c_nu: float
    branch: str  # "finite-measure" | "carleson" | "hyperbolic"
    witness: DivergibleValue


def standard_estimate(mu: RadialMeasure) -> StandardEstimate:
    """Measure-dependent verdict on the critical segment.

    c = 1: always holds (finite measure), witness the total mass;
    1 < c < 2: the (2 - 2/c)-Carleson constant must be finite;
    c = 2: the hyperbolic integral must be finite.
    """
    ci = critical_index(mu)
    c = ci.c
    if c <= 1.0:
        return StandardEstimate(True, c, "finite-measure",
                                DivergibleValue.finite(total_mass(mu)))
    # s0 itself, not c, picks the branch and is the exponent 2 - 2/c: from
    # c = 2 / (2 - s0), an s0 an ulp below 1 gives c within 1e-15 of 2, and
    # 2 - 2/c can land an ulp above s0, where the closed Carleson rules read
    # "divergent"
    if ci.s0 < 1.0:
        w = carleson_constant(mu, ci.s0)
        return StandardEstimate(w.is_finite, c, "carleson", w)
    w = hyperbolic_integral(mu)
    return StandardEstimate(w.is_finite, c, "hyperbolic", w)


# Largest region_grid resolution, checked before any cell is computed: the
# grid costs resolution^2 exact verdicts, ~0.2 s at 64 and ~15 min at 4096.
REGION_MAX_RESOLUTION = 4096


def region_grid(c_nu: Exponent, resolution: int) -> list[tuple[float, float, str, str]]:
    """Verdicts at cell centers of a resolution x resolution grid over (1/p, 1/q).

    Returns rows (inv_p, inv_q, kind, clause) ordered row-major, ready for CSV.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    if resolution > REGION_MAX_RESOLUTION:
        raise ValueError(f"resolution must be <= {REGION_MAX_RESOLUTION}, got {resolution}")
    rows = []
    for i in range(resolution):
        inv_p = Fraction(2 * i + 1, 2 * resolution)
        for j in range(resolution):
            inv_q = Fraction(2 * j + 1, 2 * resolution)
            pair = ExponentPair(1 / inv_p, 1 / inv_q)
            v = region_verdict(c_nu, pair)
            rows.append((float(inv_p), float(inv_q), v.kind, v.clause))
    return rows
