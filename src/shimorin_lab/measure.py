"""Finite positive radial measures on [0, 1] and their scalar functionals.

A measure is a finite sum of point masses and density components from a small
catalog (power-type densities kappa*(1-r)^beta, the normalized family
r^(alpha-2) (1-r)^(1-alpha) / (Gamma(alpha-1) Gamma(2-alpha)) dr for
alpha in (1, 2), and user-tabulated densities). The functionals computed here

    total mass            nu([0, 1])
    tail mass             nu([1-t, 1))
    singular moments      integral (1-r)^-s  and  (1-r^2)^-s  d nu, 0 <= s <= 1
    critical index        c = sup{ 1 <= c < 2 : (1-r^2)^(-2/c') moment finite }
    Carleson constant     sup_t nu([1-t, 1]) / t^a
    hyperbolic integral   integral_[0,1) (1-r^2)^-1 d nu
    reciprocal gap        integral_[0,1) (1-r)^-1 d nu

use closed forms wherever the catalog permits and graded quadrature in
u = 1 - r (with a truncation ladder for divergence detection) otherwise. The
last two are the s = 1 singular moments of nu without its atom at 1.

Both the resolvent integral (1 - r w)^-1 d nu with its w-derivative and the
coefficient multipliers m_n = (n+1)^-1 integral (1 - r^(n+1))/(1 - r) d nu are
linear in nu, and so is the claim-1 envelope integral min{1, 1/((n+1)(1-r))}
d nu. Every component carries its own part of each, as
``resolvents(w, parts)`` (the resolvent, its derivative or both from one
pass), ``moments(n)`` and ``envelope(N)``, and the kernel and multiplier
modules only sum them: atoms exactly; power and
nu_alpha densities in closed form (Gamma ratios in an O(1)-term Stirling
form; power densities with beta != 0 take their resolvent on a Gauss-Jacobi
rule per octave of |1 - w|; the nu_alpha envelope on its default u-rule);
tabulated densities on their own trapezoid grid (``_gridquad.resolvent_sums``,
``_gridquad.moment_sum`` and ``_gridquad.envelope_sum``). A new density kind
is one class here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Union

import numpy as np

from . import constants as cns
from ._gridquad import (envelope_sum, geometric_breaks, jacobi_rule, ladder_decision,
                        moment_sum, panel_rule, resolvent_sums)

__all__ = [
    "Atom",
    "PowerDensity",
    "NuAlphaDensity",
    "TabulatedDensity",
    "RadialMeasure",
    "DivergibleValue",
    "CriticalIndex",
    "total_mass",
    "tail_mass",
    "singular_moment",
    "critical_index",
    "carleson_constant",
    "hyperbolic_integral",
    "reciprocal_gap_integral",
    "catalog",
    "split_at_one",
]


# ---------------------------------------------------------------------------
# value carrier for integrals that may be +infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergibleValue:
    """Either a finite non-negative value or divergence with a fitted rate.

    ``growth_exponent`` is the log-log slope of the truncated integrals
    against 1/eps (0.0 for logarithmic blow-up).
    """

    kind: str  # "finite" | "divergent"
    value: float | None = None
    growth_exponent: float | None = None

    @classmethod
    def finite(cls, value: float) -> "DivergibleValue":
        if not (value >= 0.0):
            raise ValueError(f"finite DivergibleValue must be >= 0, got {value}")
        return cls("finite", float(value), None)

    @classmethod
    def divergent(cls, growth_exponent: float) -> "DivergibleValue":
        return cls("divergent", None, float(growth_exponent))

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @staticmethod
    def combine(parts: Iterable["DivergibleValue"]) -> "DivergibleValue":
        total, worst = 0.0, None
        for p in parts:
            if p.is_finite:
                total += p.value
            else:
                g = p.growth_exponent or 0.0
                worst = g if worst is None else max(worst, g)
        if worst is not None:
            return DivergibleValue.divergent(worst)
        return DivergibleValue.finite(total)


# ---------------------------------------------------------------------------
# measure components
# ---------------------------------------------------------------------------

class _Component:
    """What every component shares: ``resolvent`` from its ``resolvents``."""

    def resolvent(self, w: np.ndarray, derivative: bool) -> np.ndarray:
        """integral (1 - r w)^-1 d nu, or with ``derivative`` its w-derivative
        integral r (1 - r w)^-2 d nu, over this component."""
        return self.resolvents(w, (derivative,))[0]


@dataclass(frozen=True)
class Atom(_Component):
    """Point mass at x in [0, 1]."""

    x: float
    mass: float

    def validate(self) -> None:
        if not (0.0 <= self.x <= 1.0):
            raise ValueError(f"atom location must lie in [0, 1], got {self.x}")
        if not (0.0 < self.mass < math.inf):
            raise ValueError(f"atom mass must be positive and finite, got {self.mass}")

    def resolvents(self, w: np.ndarray, parts: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
        """For each ``derivative`` in parts, mass (1 - x w)^-1, or with it
        mass x (1 - x w)^-2."""
        w = np.asarray(w, dtype=complex)
        # 1 - x w = (1 - w) + (1 - x) w, in this form so that the gap 1 - w is
        # exact: 1 - x w itself rounds to ~eps/|1 - x w| relative (1.6e-14 at
        # x = 0.99999, |1 - w| = 4e-3)
        gap = (1.0 - w) + (1.0 - self.x) * w
        return tuple(self.mass * self.x / gap ** 2 if derivative else self.mass / gap
                     for derivative in parts)

    def moments(self, n: np.ndarray) -> np.ndarray:
        """mass * (1 - x^(n+1)) / ((n+1)(1-x)), handled stably at x in {0, 1}; the
        expm1 form is within a few ulps at every n, where a cumulative sum of
        powers drifts (2e-15 relative at x = 0.9999999 below n = 1000)."""
        N = np.asarray(n) + 1.0
        if self.x == 1.0:
            return np.full(N.shape, self.mass, dtype=float)
        if self.x == 0.0:
            return self.mass / N
        return self.mass * (-np.expm1(N * math.log(self.x))) / (N * (1.0 - self.x))

    def envelope(self, N: np.ndarray) -> np.ndarray:
        """mass * min{1, 1/(N u)} at u = 1 - x, for each N = n + 1."""
        u = 1.0 - self.x
        if u == 0.0:
            return np.full(N.shape, self.mass)
        return self.mass * np.minimum(1.0, 1.0 / (N * u))


# Below this |w| the Lebesgue resolvent is summed as a Taylor series: numpy's
# complex log1p is accurate only to ~eps/|w| (1e-8 relative at |w| = 1.4e-8),
# and the derivative form cancels to O(w); 16 terms leave 0.05^16 ~ 2e-21.
_LEBESGUE_TAYLOR_RADIUS = 0.05
_LEBESGUE_TAYLOR_TERMS = 16

_EULER_GAMMA = 0.57721566490153286061

# Resolvent rules of power densities with beta != 0, one per octave k of the
# gap: |1 - w| in (2^-(k+1), 2^-k], k clipped to [0, _POWER_MAX_OCTAVE]. For
# |w| < 1 the pole u* = 1 - 1/w of (1 - r w)^-1 has |u*| >= |1 - w| and
# |u - u*| > u on [0, 1], so the Gauss-Jacobi panel on
# [0, 2^-(k + _POWER_JACOBI_OFFSET)], which carries u^beta exactly, and each
# geometric Gauss-Legendre panel [a, 2a] above it see the pole (and the latter
# the branch point of u^beta) at least 3 half-widths from their center.
_POWER_ORDER = 10
_POWER_JACOBI_OFFSET = 2
_POWER_MAX_OCTAVE = 100


@lru_cache(maxsize=512)
def _power_gap_rule(beta: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """u-rule of u^beta du on [0, 1] for the gap octave k (see above)."""
    h = 2.0 ** -(k + _POWER_JACOBI_OFFSET)
    x, c = jacobi_rule(_POWER_ORDER, beta)
    u, g = panel_rule(geometric_breaks(h, 1.0), _POWER_ORDER)
    return np.concatenate((h * x, u)), np.concatenate((h ** (beta + 1.0) * c, g * u ** beta))


# Gamma ratios for the multiplier closed forms. exp(lgamma - lgamma) loses
# ~1e-10 relative near x = 1e5 (each log-gamma is ~1e6 in size); the
# Stirling form below keeps only O(1) terms. Arguments x below
# _STIRLING_FROM are shifted up by _STIRLING_FROM first; the truncated tail
# T(z) = sum_j c_j z^-(2j+1) is below 1e-17 relative from there on.
_STIRLING_FROM = 30
_STIRLING_COEF = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)
# log Gamma(1 + b) by its Taylor series below this |b|: forming 1 + b would
# round away the low bits of a small b; 0.25^40 leaves ~1e-24.
_LGAMMA1P_SERIES_BELOW = 0.25
_LGAMMA1P_TERMS = 40
# zeta(k) for k = 2.._LGAMMA1P_TERMS, each the double nearest the true value
_ZETA = np.array([
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095])


def _lgamma1p(b: float) -> float:
    """log Gamma(1 + b) = -gamma b + sum_{k>=2} zeta(k) (-b)^k / k, for b > -1."""
    if abs(b) >= _LGAMMA1P_SERIES_BELOW:
        return math.lgamma(1.0 + b)
    k = np.arange(_LGAMMA1P_TERMS, 1, -1)  # smallest terms first
    return -_EULER_GAMMA * b + math.fsum(_ZETA[::-1] * (-b) ** k / k)


# psi(x) by its asymptotic series from this argument on, with the Bernoulli
# terms B_2k / (2k x^2k), k = 1..5; the first omitted term is below 1e-16
# relative there. Smaller x are shifted up by _PSI_FROM first.
_PSI_FROM = 16
_PSI_COEF = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)


def _harmonic(N: np.ndarray) -> np.ndarray:
    """H_N = psi(N + 1) + gamma for N >= 1, within ~2 ulps to N = 2^17.

    psi(y) = log y - 1/(2y) - sum_k B_2k / (2k y^2k) at y = N + 1, or at
    y = N + 1 + _PSI_FROM below _PSI_FROM with the shift undone by
    - sum_k 1/(N + 1 + k), as ``_stirling_split`` shifts its Gamma ratios.
    Computed in place, four arrays of N's size in all: about half the time of
    the same arithmetic on fresh temporaries at 2^17 indices.
    """
    shape = np.shape(N)
    y = np.asarray(N, dtype=float).ravel() + 1.0
    low = np.flatnonzero(y < _PSI_FROM)
    shift = y[low, None] + np.arange(_PSI_FROM)
    y[low] += _PSI_FROM
    r = y * y
    np.reciprocal(r, out=r)
    acc = r * _PSI_COEF[-1]
    for c in _PSI_COEF[-2::-1]:
        acc += c
        acc *= r
    psi = np.log(y)
    np.reciprocal(y, out=y)
    y *= 0.5
    psi -= y
    psi -= acc
    psi[low] -= (1.0 / shift).sum(axis=1)
    psi += _EULER_GAMMA
    return psi.reshape(shape)


def _hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) by its power series, for 0 <= x <= 1/2, a, b >= 0, c > 0
    and (a + k)(b + k) <= (c + k)(k + 1) for every k >= 0.

    Every term is then positive and at most x <= 1/2 times the one before,
    so stopping at a term below 2^-60 of the first leaves a tail below that
    as well; ``math.fsum`` adds the terms without further rounding.
    """
    term, terms, k = 1.0, [1.0], 0
    while term > 2.0 ** -60:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        terms.append(term)
        k += 1
    return math.fsum(terms)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete Beta I_x(a, b) for 0 < a, b <= 1 and 0 <= x <= 1.

    For x <= 1/2, I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x).
    Above, I_x = I_(1/2)(a, b) + J / B(a, b), J the integral of
    s^(b-1) (1 - s)^(a-1) over [1 - x, 1/2]. Expanding (1 - s)^(a-1) gives
    J = sum_k (1-a)_k / k! 2^-(b+k) (-expm1((b+k) log(2 (1 - x)))) / (b+k),
    whose terms are positive and each at most half the one before. Nothing
    cancels, so I_x keeps its relative accuracy where it is small (b near 0),
    where the complement 1 - I_(1-x)(b, a) would keep only a few ulps of 1.
    """
    if x == 0.0 or x == 1.0:
        return x
    beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    if x <= 0.5:
        return x ** a * (1.0 - x) ** b / (a * beta) * _hyp2f1(a + b, 1.0, a + 1.0, x)
    log_2y = math.log(2.0 * (1.0 - x))
    coef, terms, k = 1.0, [], 0
    while True:
        m = b + k
        terms.append(coef * 2.0 ** -m * -math.expm1(m * log_2y) / m)
        if terms[-1] <= 2.0 ** -60 * terms[0]:
            break
        coef *= (1.0 - a + k) / (k + 1.0)
        k += 1
    return _betainc(a, b, 0.5) + math.fsum(terms) / beta


def _stirling_tail_step(y: np.ndarray, b: float) -> np.ndarray:
    """T(y + b) - T(y) as an explicit multiple of b, without cancellation.

    With p = 1/(y+b), q = 1/y and r = p/q, p^m - q^m = (p - q) q^(m-1)
    (1 + r + ... + r^(m-1)) and p - q = -b p q.
    """
    q = 1.0 / y
    p = 1.0 / (y + b)
    r = y * p
    geo, r_pow, q_pow = np.ones_like(y), np.ones_like(y), np.ones_like(y)
    acc = np.full_like(y, _STIRLING_COEF[0])
    for c in _STIRLING_COEF[1:]:
        for _ in range(2):
            r_pow = r_pow * r
            geo = geo + r_pow
        q_pow = q_pow * (q * q)
        acc = acc + c * q_pow * geo
    return -b * p * q * acc


def _stirling_split(x: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(y, rest) with log(Gamma(x + b) / Gamma(x)) = b log(y) + rest, for x >= 1, x + b > 0.

    Stirling's series at y (y = x, or x + _STIRLING_FROM below that) gives
    rest = (y + b - 1/2) log1p(b/y) - b + T(y + b) - T(y), and the shift is
    undone by - sum_k log1p(b / (x + k)). Each term is O(b) and carries its
    own relative rounding only, so rest is accurate relative to |b| as well.
    """
    x = np.asarray(x, dtype=float)
    low = x < _STIRLING_FROM
    y = np.where(low, x + _STIRLING_FROM, x)
    rest = (y + b - 0.5) * np.log1p(b / y) - b + _stirling_tail_step(y, b)
    if np.any(low):
        shift = x[low, None] + np.arange(_STIRLING_FROM)
        rest[low] -= np.log1p(b / shift).sum(axis=1)
    return y, rest


@dataclass(frozen=True)
class PowerDensity(_Component):
    """Density kappa * (1 - r)^beta on [0, 1); integrable requires beta > -1."""

    kappa: float
    beta: float

    def validate(self) -> None:
        if not (0.0 < self.kappa < math.inf):
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not (-1.0 < self.beta < math.inf):
            raise ValueError(f"beta must be finite and exceed -1, got {self.beta}")

    def mass(self) -> float:
        return self.kappa / (self.beta + 1.0)

    def tail(self, t: float) -> float:
        return self.kappa * t ** (self.beta + 1.0) / (self.beta + 1.0)

    def s0(self) -> float:
        return min(self.beta + 1.0, 1.0)

    def _exponent(self, s: float) -> float | None:
        """e = beta + (1 - s) if the moments at s are finite, else None.

        Finite means s < beta + 1. s is compared with beta + 1.0 rounded as
        s0() rounds it, so the moments at s0() diverge whichever way that
        rounding goes; beta > 0 keeps s = 1 finite even where 1 + beta rounds
        to 1. At s = 1, e is exactly beta.
        """
        if s < self.beta + 1.0 or (s == 1.0 and self.beta > 0.0):
            return self.beta + (1.0 - s)
        return None

    def gap_moment(self, s: float) -> DivergibleValue:
        # integral (1-r)^(beta-s) dr over [0,1) = kappa / e
        e = self._exponent(s)
        if e is None:
            return DivergibleValue.divergent(max(-(self.beta - s + 1.0), 0.0))
        return DivergibleValue.finite(self.kappa / e)

    def disk_moment(self, s: float) -> DivergibleValue:
        # integral (1-r^2)^-s d nu = kappa 2^-s / e 2F1(s, e; e + 1; 1/2)
        e = self._exponent(s)
        if e is None:
            return self.gap_moment(s)
        return DivergibleValue.finite(self.kappa * 2.0 ** -s / e * _hyp2f1(s, e, e + 1.0, 0.5))

    def resolvents(self, w: np.ndarray, parts: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
        """For each ``derivative`` in parts, integral (1 - r w)^-1 d nu =
        kappa/(beta+1) 2F1(1, 1; beta+2; w), or with it the w-derivative
        integral r (1 - r w)^-2 d nu = kappa/((beta+1)(beta+2)) 2F1(2, 2; beta+3; w).

        At beta = 0 in closed form, -kappa log1p(-w)/w and
        kappa (1/(1-w) + log1p(-w)/w)/w; otherwise by quadrature, the points
        grouped by the octave of |1 - w|, each group on its ``_power_gap_rule``,
        and a ValueError for beta above ``constants.POWER_BETA_MAX``. The
        parts share the grouping, the rules' denominators and the logarithm.
        """
        w = np.asarray(w, dtype=complex)
        kinds = sorted(set(parts))
        if self.beta != 0.0:
            self._check_rule_beta()
            flat = w.ravel()
            gap = np.maximum(np.abs(1.0 - flat), 2.0 ** -_POWER_MAX_OCTAVE)
            octave = np.maximum(np.floor(-np.log2(gap)), 0.0).astype(int)
            out = {d: np.empty(flat.shape, dtype=complex) for d in kinds}
            for k in np.unique(octave):
                sel = octave == k
                sums = resolvent_sums(*_power_gap_rule(self.beta, int(k)),
                                      flat[sel], tuple(kinds))
                for d, v in zip(kinds, sums):
                    out[d][sel] = v
            return tuple(self.kappa * out[d].reshape(w.shape) for d in parts)
        out = {d: np.empty_like(w) for d in kinds}
        small = np.abs(w) < _LEBESGUE_TAYLOR_RADIUS
        k = np.arange(_LEBESGUE_TAYLOR_TERMS, dtype=float)
        ws = w[small]
        for d in kinds:
            # sum_k c_k w^k with c_k = 1/(k+1), or (k+1)/(k+2) for the derivative
            coef = (k + 1.0) / (k + 2.0) if d else 1.0 / (k + 1.0)
            acc = np.zeros_like(ws)
            for c in coef[::-1]:
                acc = acc * ws + c
            out[d][small] = acc
        wb = w[~small]
        lw = np.log1p(-wb) / wb
        for d in kinds:
            out[d][~small] = (1.0 / (1.0 - wb) + lw) / wb if d else -lw
        return tuple(self.kappa * out[d] for d in parts)

    def moments(self, n: np.ndarray) -> np.ndarray:
        """m_n = kappa (1/beta - Gamma(beta) Gamma(n+2) / Gamma(n+2+beta)) / (n+1),
        and kappa H_(n+1) / (n+1) = kappa (psi(n+2) + gamma) / (n+1) at beta = 0.

        With R = Gamma(1+beta) Gamma(n+2) / Gamma(n+2+beta) = e^L the sum is
        (1 - R) / beta, taken as -expm1(L) / beta: L is a sum of O(beta)
        terms, so small |beta| cancels nothing (1/beta - ... would lose
        log10(1/|beta|) digits). For beta < 0 and L >= 1, 1 - R is formed
        from R itself, whose factors are each exact to an ulp.
        """
        N = np.asarray(n, dtype=float) + 1.0
        b = self.beta
        if b == 0.0:
            return self.kappa * _harmonic(N) / N
        lg = _lgamma1p(b)
        y, rest = _stirling_split(N + 1.0, b)
        L = lg - (b * np.log(y) + rest)
        if b > 0.0:
            one_minus_r = -np.expm1(L)
        else:
            one_minus_r = np.where(L < 1.0, -np.expm1(L),
                                   1.0 - np.exp(lg - rest) * y ** (-b))
        return self.kappa * one_minus_r / (b * N)

    def envelope(self, N: np.ndarray) -> np.ndarray:
        """integral min{1, 1/(N u)} kappa u^beta du, split at u = T = min{1, 1/N}."""
        T = np.minimum(1.0, 1.0 / N)
        head = T ** (self.beta + 1.0) / (self.beta + 1.0)
        if self.beta == 0.0:
            tail = np.log(1.0 / T) / N
        else:
            tail = (1.0 - T ** self.beta) / (self.beta * N)
        return self.kappa * (head + tail)

    def _check_rule_beta(self) -> None:
        if self.beta > cns.POWER_BETA_MAX:
            raise ValueError(f"power beta = {self.beta!r} exceeds {cns.POWER_BETA_MAX:g}, "
                             "the largest at which its quadrature rules hold their budgets")

    def u_rule(self, umin: float, order: int) -> tuple[np.ndarray, np.ndarray]:
        # grading toward u = 0 only; the density is smooth at u = 1
        self._check_rule_beta()
        u, g = panel_rule(geometric_breaks(umin, 1.0), order)
        w = g * self.kappa * u ** self.beta
        # analytic sub-mesh tail, carried as a pseudo-atom at its centroid
        tail = self.kappa * umin ** (self.beta + 1.0) / (self.beta + 1.0)
        u_t = umin * (self.beta + 1.0) / (self.beta + 2.0)
        return np.concatenate(([u_t], u)), np.concatenate(([tail], w))


@dataclass(frozen=True)
class NuAlphaDensity(_Component):
    """Normalized density r^(alpha-2) (1-r)^(1-alpha) / B(alpha-1, 2-alpha), alpha in (1, 2).

    Realizes the fractional kernel (1 - z conj(lambda))^-alpha; unit total mass
    by the Beta integral.
    """

    alpha: float

    def validate(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")

    @property
    def lognorm(self) -> float:
        # log B(alpha-1, 2-alpha) = log(pi / sin(pi x)) by reflection, x the
        # nearer of alpha-1 and 2-alpha (both exact): within 4e-16 of mpmath,
        # a sum of two lgamma within 1.5e-15
        x = min(self.alpha - 1.0, 2.0 - self.alpha)
        return math.log(math.pi / math.sin(math.pi * x))

    def mass(self) -> float:
        return 1.0

    def tail(self, t: float) -> float:
        # pushforward density in u is u^(1-alpha) (1-u)^(alpha-2) / B
        return _betainc(2.0 - self.alpha, self.alpha - 1.0, t)

    def s0(self) -> float:
        return 2.0 - self.alpha

    def gap_moment(self, s: float) -> DivergibleValue:
        # B(c, alpha - 1) / B(alpha - 1, 2 - alpha) = Gamma(c) / (Gamma(1 - s) Gamma(2 - alpha)),
        # c = 2 - alpha - s
        c = 2.0 - self.alpha - s
        if c > 0.0:
            return DivergibleValue.finite(math.gamma(c)
                                          / (math.gamma(1.0 - s) * math.gamma(2.0 - self.alpha)))
        return DivergibleValue.divergent(s - (2.0 - self.alpha))

    def disk_moment(self, s: float) -> DivergibleValue:
        # the gap moment times 2^-s 2F1(s, c; 1 - s; 1/2), c = 2 - alpha - s
        v = self.gap_moment(s)
        if v.is_finite:
            c = 2.0 - self.alpha - s
            return DivergibleValue.finite(2.0 ** -s * v.value * _hyp2f1(s, c, 1.0 - s, 0.5))
        return v

    def resolvents(self, w: np.ndarray, parts: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
        """For each ``derivative`` in parts, integral (1 - r w)^-1 d nu =
        (1 - w)^(1-alpha), or with it the w-derivative
        integral r (1 - r w)^-2 d nu = (alpha - 1) (1 - w)^-alpha.

        The power (1 - w)^e in real arithmetic, |1 - w|^e (cos e theta +
        i sin e theta) with theta = arg(1 - w), both shared by the parts:
        faster than complex ``**`` and within 5e-16 of mpmath down to gaps
        |1 - w| of 1e-12.
        """
        w = np.asarray(w, dtype=complex)
        x, y = 1.0 - w.real, -w.imag
        modulus, theta = np.hypot(x, y), np.arctan2(y, x)

        def power(derivative: bool) -> np.ndarray:
            e = -self.alpha if derivative else 1.0 - self.alpha
            mod = np.power(modulus, e)
            arg = e * theta
            out = np.empty(w.shape, dtype=complex)
            out.real = mod * np.cos(arg)
            out.imag = mod * np.sin(arg)
            if derivative:
                out *= self.alpha - 1.0
            return out

        return tuple(power(derivative) for derivative in parts)

    def moments(self, n: np.ndarray) -> np.ndarray:
        """m_n = Gamma(n+alpha) / (Gamma(alpha) Gamma(n+2)), the Gamma ratio as
        y^(alpha-2) e^rest from the Stirling split (the power taken directly)."""
        b = self.alpha - 2.0
        y, rest = _stirling_split(np.asarray(n, dtype=float) + 2.0, b)
        return y ** b * np.exp(rest) / math.gamma(self.alpha)

    def envelope(self, N: np.ndarray) -> np.ndarray:
        """integral min{1, 1/(N u)} d nu summed on the default u-rule."""
        return envelope_sum(*self.u_rule(2.0 ** -cns.MEASURE_DEPTH_ZERO, cns.MEASURE_ORDER), N)

    def u_rule(self, umin: float, order: int) -> tuple[np.ndarray, np.ndarray]:
        # two pieces: u-panels toward 0 and v = 1-u panels toward 1, so the
        # singular factors u^(1-a) and (1-u)^(a-2) are both evaluated without
        # cancellation; sub-mesh slivers enter as analytic pseudo-atoms
        a = self.alpha
        dmin = 2.0 ** (-cns.MEASURE_DEPTH_ONE)
        u_l, g_l = panel_rule(geometric_breaks(umin, 0.5), order)
        w_l = g_l * np.exp((1.0 - a) * np.log(u_l) + (a - 2.0) * np.log1p(-u_l)
                           - self.lognorm)
        v_r, g_r = panel_rule(geometric_breaks(dmin, 0.5), order)
        w_r = g_r * np.exp((a - 2.0) * np.log(v_r) + (1.0 - a) * np.log1p(-v_r)
                           - self.lognorm)
        norm = math.exp(-self.lognorm)
        tail0 = norm * umin ** (2.0 - a) / (2.0 - a)
        tail1 = norm * dmin ** (a - 1.0) / (a - 1.0)
        u = np.concatenate(([umin * (2.0 - a) / (3.0 - a)], u_l, 1.0 - v_r,
                            [1.0 - dmin * (a - 1.0) / a]))
        w = np.concatenate(([tail0], w_l, w_r, [tail1]))
        return u, w


@dataclass(frozen=True)
class TabulatedDensity(_Component):
    """User-supplied density sampled on an increasing r-grid; trapezoid rule.

    Lower accuracy than the closed catalog: every functional of this component
    is a sum over its grid (``u_rule``), or the truncation ladder on that grid
    for divergence questions.
    """

    r: tuple[float, ...]
    values: tuple[float, ...]

    def validate(self) -> None:
        r = np.asarray(self.r)
        v = np.asarray(self.values)
        if r.ndim != 1 or r.size < 2 or v.shape != r.shape:
            raise ValueError("tabulated density needs matching 1-D r/value grids")
        if not np.all(np.isfinite(r)):
            raise ValueError("tabulated r grid must be finite")
        if not np.all(np.isfinite(v)):
            raise ValueError("tabulated values must be finite")
        if np.any(np.diff(r) <= 0) or r[0] < 0.0 or r[-1] > 1.0:
            raise ValueError("r grid must be increasing inside [0, 1]")
        if np.any(v < 0.0) or not np.any(v > 0.0):
            raise ValueError("tabulated values must be non-negative, not all zero")

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.r))

    def tail(self, t: float) -> float:
        r = np.asarray(self.r)
        v = np.asarray(self.values)
        lo = 1.0 - t
        if lo <= r[0]:
            return self.mass()
        if lo >= r[-1]:
            return 0.0
        vlo = float(np.interp(lo, r, v))
        keep = r > lo
        rr = np.concatenate(([lo], r[keep]))
        vv = np.concatenate(([vlo], v[keep]))
        return float(np.trapezoid(vv, rr))

    def s0(self) -> None:
        return None  # no closed form; caller falls back to bisection

    def gap_moment(self, s: float) -> DivergibleValue:
        return _ladder(self, lambda u: u ** (-s))

    def disk_moment(self, s: float) -> DivergibleValue:
        return _ladder(self, lambda u: (u * (2.0 - u)) ** (-s))

    def resolvents(self, w: np.ndarray, parts: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
        """The resolvent integral (or its w-derivative) for each ``derivative``
        in parts, summed on the grid."""
        w = np.asarray(w, dtype=complex)
        return tuple(v.reshape(w.shape)
                     for v in resolvent_sums(*self._grid(), w.ravel(), parts))

    def moments(self, n: np.ndarray) -> np.ndarray:
        """m_n summed on the grid."""
        return moment_sum(*self._grid(), np.asarray(n))

    def envelope(self, N: np.ndarray) -> np.ndarray:
        """integral min{1, 1/(N u)} d nu summed on the grid."""
        return envelope_sum(*self._grid(), N)

    def u_rule(self, umin: float, order: int) -> tuple[np.ndarray, np.ndarray]:
        # the grid itself, whatever umin and order: the ladder drops nodes
        # below its cut-off
        return self._grid()

    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        r = np.asarray(self.r)
        v = np.asarray(self.values)
        u = (1.0 - r)[::-1]
        f = v[::-1]
        # trapezoid weights on the pushforward grid
        w = np.zeros_like(u)
        du = np.diff(u)
        w[:-1] += 0.5 * du
        w[1:] += 0.5 * du
        return u, w * f


Density = Union[PowerDensity, NuAlphaDensity, TabulatedDensity]


def _ladder(density: Density, integrand: Callable[[np.ndarray], np.ndarray]
            ) -> DivergibleValue:
    """Truncation-ladder verdict for integral integrand(u) d(pushforward)(u).

    Integrates over u in [eps, 1] at the ladder levels on the density's own
    u-rule cut off at eps; the sub-mesh pseudo-atom below eps is dropped, so
    the integrand itself may be singular at u = 0.
    """
    eps = np.array(cns.LADDER_EPS)
    vals = []
    for e in eps:
        u, w = density.u_rule(e, cns.MEASURE_ORDER)
        keep = u >= e
        vals.append(float(np.dot(w[keep], integrand(u[keep]))))
    divergent, x = ladder_decision(np.array(vals), eps,
                                   cns.LADDER_GROWTH_FACTOR, cns.LADDER_GROWTH_LEVELS)
    return DivergibleValue.divergent(x) if divergent else DivergibleValue.finite(max(x, 0.0))


# ---------------------------------------------------------------------------
# the measure itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMeasure:
    """Finite positive Borel measure on [0, 1]: atoms plus catalog densities."""

    atoms: tuple[Atom, ...] = ()
    densities: tuple[Density, ...] = ()

    def __post_init__(self):
        if not self.atoms and not self.densities:
            raise ValueError("measure must have at least one component")
        for a in self.atoms:
            a.validate()
        for d in self.densities:
            d.validate()
        mass = total_mass(self)
        if not math.isfinite(mass):
            raise ValueError(f"total mass must be finite, got {mass}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def dirac(cls, x: float, mass: float = 1.0) -> "RadialMeasure":
        return cls(atoms=(Atom(x, mass),))

    @classmethod
    def lebesgue(cls) -> "RadialMeasure":
        return cls(densities=(PowerDensity(1.0, 0.0),))

    @classmethod
    def power(cls, kappa: float, beta: float) -> "RadialMeasure":
        return cls(densities=(PowerDensity(kappa, beta),))

    @classmethod
    def nu_alpha(cls, alpha: float) -> "RadialMeasure":
        return cls(densities=(NuAlphaDensity(alpha),))

    def __add__(self, other: "RadialMeasure") -> "RadialMeasure":
        return RadialMeasure(self.atoms + other.atoms, self.densities + other.densities)

    # -- JSON wire format ----------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "RadialMeasure":
        """Parse {"atoms": [{"x":..,"mass":..}], "densities": [{"kind":..}, ...]}.

        A malformed spec raises ValueError naming the entry and the field.
        """
        def entries(key: str) -> list[dict]:
            items = spec.get(key, [])
            if not isinstance(items, list) or not all(isinstance(e, dict) for e in items):
                raise ValueError(f"measure spec field {key!r} must be a list of objects")
            return items

        def field(entry: dict, key: str, what: str, many: bool = False):
            if key not in entry:
                raise ValueError(f"{what} spec is missing field {key!r}")
            value = entry[key]
            try:
                return tuple(map(float, value)) if many else float(value)
            except (TypeError, ValueError):
                shape = "a list of numbers" if many else "a number"
                raise ValueError(f"{what} field {key!r} must be {shape}, "
                                 f"got {value!r}") from None

        if not isinstance(spec, dict):
            raise ValueError("measure spec must be a JSON object")
        atoms = tuple(Atom(field(a, "x", "atom"), field(a, "mass", "atom"))
                      for a in entries("atoms"))
        dens = []
        for d in entries("densities"):
            kind = d.get("kind")
            what = f"{kind} density"
            if kind == "power":
                dens.append(PowerDensity(field(d, "kappa", what), field(d, "beta", what)))
            elif kind == "nu_alpha":
                dens.append(NuAlphaDensity(field(d, "alpha", what)))
            elif kind == "lebesgue":
                dens.append(PowerDensity(1.0, 0.0))
            elif kind == "tabulated":
                dens.append(TabulatedDensity(field(d, "r", what, many=True),
                                             field(d, "values", what, many=True)))
            else:
                raise ValueError(f"unknown density kind: {kind!r}")
        return cls(atoms, tuple(dens))

    @classmethod
    def from_json(cls, text: str) -> "RadialMeasure":
        return cls.from_spec(json.loads(text))

    def to_spec(self) -> dict:
        dens = []
        for d in self.densities:
            if isinstance(d, PowerDensity):
                dens.append({"kind": "power", "kappa": d.kappa, "beta": d.beta})
            elif isinstance(d, NuAlphaDensity):
                dens.append({"kind": "nu_alpha", "alpha": d.alpha})
            else:
                dens.append({"kind": "tabulated", "r": list(d.r), "values": list(d.values)})
        return {"atoms": [{"x": a.x, "mass": a.mass} for a in self.atoms],
                "densities": dens}

    # -- convenience ---------------------------------------------------------

    @property
    def mass_at_one(self) -> float:
        return sum(a.mass for a in self.atoms if a.x == 1.0)

    def pushforward_rule(self, depth_zero: int = cns.MEASURE_DEPTH_ZERO,
                         order: int = cns.MEASURE_ORDER) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes/weights in u = 1 - r for the density part only.

        Atoms are not included; functionals handle them in closed form.
        """
        us, ws = [], []
        for d in self.densities:
            u, w = d.u_rule(2.0 ** (-depth_zero), order)
            us.append(u)
            ws.append(w)
        if not us:
            return np.empty(0), np.empty(0)
        return np.concatenate(us), np.concatenate(ws)


# ---------------------------------------------------------------------------
# scalar functionals
# ---------------------------------------------------------------------------

def total_mass(mu: RadialMeasure) -> float:
    """nu([0, 1]), closed form per component."""
    return sum(a.mass for a in mu.atoms) + sum(d.mass() for d in mu.densities)


def tail_mass(mu: RadialMeasure, t: float) -> float:
    """nu([1-t, 1)); the half-open interval excludes an atom at exactly 1."""
    if not (0.0 < t <= 1.0):
        raise ValueError(f"t must lie in (0, 1], got {t}")
    lo = 1.0 - t
    out = sum(a.mass for a in mu.atoms if lo <= a.x < 1.0)
    return out + sum(d.tail(t) for d in mu.densities)


def singular_moment(mu: RadialMeasure, s: float, variant: str = "gap") -> DivergibleValue:
    """integral (1-r)^-s d nu  (variant="gap")  or  (1-r^2)^-s d nu (variant="disk").

    The two differ by a factor in [1, 2^s] and share the same convergence set.
    Catalog densities are closed forms, tabulated ones go through the
    truncation ladder. An atom at 1 forces divergence for s > 0 in either variant.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if variant not in ("gap", "disk"):
        raise ValueError(f"unknown variant {variant!r}")
    parts = []
    for a in mu.atoms:
        if a.x == 1.0:
            parts.append(DivergibleValue.finite(a.mass) if s == 0.0
                         else DivergibleValue.divergent(s))
        else:
            gap = 1.0 - a.x if variant == "gap" else 1.0 - a.x * a.x
            parts.append(DivergibleValue.finite(a.mass * gap ** (-s)))
    for d in mu.densities:
        parts.append(d.gap_moment(s) if variant == "gap" else d.disk_moment(s))
    return DivergibleValue.combine(parts)


@dataclass(frozen=True)
class CriticalIndex:
    """c in [1, 2] with s0 = 2/c' and an attainment flag for the sup itself."""

    c: float
    attained: str  # "yes" | "no" | "unknown"
    s0: float
    interval: tuple[float, float] | None = None  # bisection bracket on s0, when used


def _bisect_s0(mu: RadialMeasure) -> tuple[float, float]:
    lo, hi = 0.0, 1.0  # finite at s=0 (finite measure); treat 1 as divergent cap
    if not singular_moment(mu, 0.0).is_finite:
        return 0.0, 0.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if singular_moment(mu, mid).is_finite:
            lo = mid
        else:
            hi = mid
    return lo, hi


def critical_index(mu: RadialMeasure) -> CriticalIndex:
    """Critical index c = sup{1 <= c < 2 : integral (1-r^2)^(-2/c') d nu < infinity}.

    Closed forms for the catalog: an atom at 1 gives c = 1 exactly; a power
    component gives s0 = min(beta+1, 1); the nu_alpha family gives s0 = 2-alpha;
    mixtures take the smallest component s0 (equivalently the smallest c). A
    tabulated component switches to bisection on s with tolerance 1e-3.

    A power component with -2^-53 < beta < 0 raises ValueError: its
    s0 = beta + 1 < 1 rounds to 1, which would read as beta = 0 (c = 2).
    """
    for d in mu.densities:
        if isinstance(d, PowerDensity) and d.beta < 0.0 and d.beta + 1.0 == 1.0:
            raise ValueError(f"power beta = {d.beta!r} is in (-2^-53, 0): s0 = beta + 1 "
                             "rounds to 1, and the critical index cannot be told from 2")
    interval = None
    if any(a.x == 1.0 for a in mu.atoms):
        s0 = 0.0
    elif any(isinstance(d, TabulatedDensity) for d in mu.densities):
        lo, hi = _bisect_s0(mu)
        s0 = 0.5 * (lo + hi)
        interval = (lo, hi)
    else:
        s0s = [1.0] * bool(mu.atoms)
        s0s += [d.s0() for d in mu.densities]
        s0 = min(s0s)
    c = 2.0 / (2.0 - s0)
    if interval is not None:
        attained = "unknown"
    elif s0 == 0.0:
        attained = "yes"  # the moment at s=0 is the total mass, finite
    else:
        attained = "yes" if singular_moment(mu, s0, "disk").is_finite else "no"
    return CriticalIndex(c, attained, s0, interval)


def carleson_constant(mu: RadialMeasure, a: float) -> DivergibleValue:
    """sup over 0 < t <= 1 of nu([1-t, 1]) / t^a.

    Evaluated as the max of the dyadic-grid supremum (t = 2^-j, j <= 40) and
    the closed-form suprema of the catalog components; the dyadic grid alone
    under-estimates the continuous sup by at most a factor 2^a for the
    monotone tails arising here. At a = 0 the condition reads "nu is a finite
    measure", so the constant reported is nu([0, 1]). The closed interval makes an atom at 1 divergent
    for every a > 0.
    """
    if a < 0.0:
        raise ValueError(f"a must be >= 0, got {a}")
    if a == 0.0:
        return DivergibleValue.finite(total_mass(mu))
    best = 0.0
    for atom in mu.atoms:
        if atom.x == 1.0:
            return DivergibleValue.divergent(a)
        best = max(best, atom.mass * (1.0 - atom.x) ** (-a))
    for d in mu.densities:
        if isinstance(d, PowerDensity):
            if a > d.beta + 1.0:
                return DivergibleValue.divergent(a - d.beta - 1.0)
            best = max(best, d.kappa / (d.beta + 1.0))
        elif isinstance(d, NuAlphaDensity):
            if a > 2.0 - d.alpha:
                return DivergibleValue.divergent(a - (2.0 - d.alpha))
    t = 2.0 ** (-np.arange(cns.CARLESON_DEPTH + 1, dtype=float))
    vals = np.array([tail_mass(mu, tj) + mu.mass_at_one for tj in t]) / t ** a
    divergent, slope = ladder_decision(vals, t, cns.LADDER_GROWTH_FACTOR,
                                       cns.LADDER_GROWTH_LEVELS)
    if divergent:
        return DivergibleValue.divergent(slope)
    return DivergibleValue.finite(max(best, float(vals.max())))


def split_at_one(mu: RadialMeasure) -> tuple[RadialMeasure | None, float]:
    """Split nu = nu1 + nu({1}) delta_1; returns (nu1 or None when zero, mass at 1)."""
    mass = mu.mass_at_one
    if mass == 0.0:
        return mu, 0.0
    kept_atoms = tuple(a for a in mu.atoms if a.x != 1.0)
    if not kept_atoms and not mu.densities:
        return None, mass
    return RadialMeasure(kept_atoms, mu.densities), mass


def _moment_below_one(mu: RadialMeasure, variant: str) -> DivergibleValue:
    """The s = 1 singular moment over [0, 1): atoms at 1 contribute nothing."""
    rest, _ = split_at_one(mu)
    return DivergibleValue.finite(0.0) if rest is None else singular_moment(rest, 1.0, variant)


def hyperbolic_integral(mu: RadialMeasure) -> DivergibleValue:
    """integral over [0, 1) of (1 - r^2)^-1 d nu; atoms at 1 contribute nothing."""
    return _moment_below_one(mu, "disk")


def reciprocal_gap_integral(mu: RadialMeasure) -> DivergibleValue:
    """integral over [0, 1) of (1 - r)^-1 d nu (enters the c = 2 kernel constants)."""
    return _moment_below_one(mu, "gap")


# ---------------------------------------------------------------------------
# named catalog (shared by tests and verify suites)
# ---------------------------------------------------------------------------

def catalog() -> dict[str, RadialMeasure]:
    """The measures every cross-module check runs against."""
    return {
        "delta0": RadialMeasure.dirac(0.0),
        "delta1": RadialMeasure.dirac(1.0),
        "delta_half": RadialMeasure.dirac(0.5),
        "lebesgue": RadialMeasure.lebesgue(),
        "nu_alpha_1.5": RadialMeasure.nu_alpha(1.5),
        "power_-0.5": RadialMeasure.power(1.0, -0.5),
        "power_0.5": RadialMeasure.power(1.0, 0.5),
        "lebesgue_plus_atom1": RadialMeasure.lebesgue() + RadialMeasure.dirac(1.0, 0.5),
    }
