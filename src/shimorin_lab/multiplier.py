"""Coefficient multipliers of the disk operator attached to a radial measure.

The operator acts on Taylor coefficients as a_n -> m_n a_n with

    m_n = (n+1)^-1 * integral (1 - r^(n+1)) / (1 - r) d nu(r),

a positive non-increasing sequence with m_0 = nu([0,1]). m_n is linear in
nu, so it is the sum of every component's own ``moments`` (measure.py): atoms
exactly, power and nu_alpha densities in closed form in O(N) for N indices,
tabulated densities on their grid (``_gridquad.moment_sum``). The graded
quadrature in u = 1 - r, Cauchy-checked against a finer rule
(``_quadrature_moments``), is the independent route the closed forms are
checked against. The envelope

    (1 - 1/e) * I_n <= m_n <= I_n,   I_n = integral min{1, 1/((n+1) t)} d mu~(t)

(mu~ the pushforward of nu under t = 1 - r) pins every m_n between sums of
every component's own ``envelope``: closed forms (atoms, power densities) or
a sorted-rule prefix/suffix sum (the other densities). The decay exponent
limsup log m_n / log(n+1) = -s0 is estimated by an upper-envelope fit on a
geometric index grid, and the series sum m_n (n+1)^(s-1), which converges iff
integral (1-r)^-s d nu does, gets a dyadic-block growth verdict
(``series_partial``). ``moments_at`` gives m_n on any index set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as cns
from ._gridquad import moment_sum
from .measure import RadialMeasure, total_mass

__all__ = [
    "MultiplierSequence",
    "QuadratureError",
    "moment_prefix",
    "moments_at",
    "claim1_envelope",
    "decay_exponent_estimate",
    "DecayEstimate",
    "series_partial",
    "dyadic_block_verdict",
]


class QuadratureError(RuntimeError):
    """Raised when a moment quadrature misses its declared relative budget."""


def _depth_for(nmax: int) -> int:
    # keep the sub-mesh tail well below the integrand's transition scale 1/N
    return max(cns.MEASURE_DEPTH_ZERO, int(np.ceil(np.log2(max(nmax, 1) + 1))) + 40)


@dataclass(frozen=True)
class MultiplierSequence:
    """Computed prefix m_0..m_N with provenance.

    Invariants checked on construction: m_0 equals the total mass, all values
    positive, and the sequence non-increasing (up to summation roundoff).
    m_0 is the closed-form total mass itself, not a grid sum (whose last bits
    would depend on BLAS rounding and on N); m_1.. are closed forms plus, for
    tabulated densities, sums on their grid.
    """

    measure: RadialMeasure
    values: np.ndarray

    def __post_init__(self):
        m = self.values
        if m.ndim != 1 or m.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(m > 0.0):
            raise ValueError("multiplier values must be positive")
        mass = total_mass(self.measure)
        if abs(m[0] - mass) > 1e-9 * mass:
            raise ValueError(f"m_0 = {m[0]} does not match total mass {mass}")
        slack = 1e-13 * m[:-1]
        if not np.all(np.diff(m) <= slack):
            k = int(np.argmax(np.diff(m) - slack))
            raise ValueError(f"multiplier sequence increases at n={k}")

    def __len__(self) -> int:
        return len(self.values)


def _probe_indices(nmax: int) -> np.ndarray:
    """1, 2, 4, ... up to nmax, and nmax itself: every octave the rule must resolve."""
    return np.unique(np.append(2 ** np.arange(max(nmax, 1).bit_length()), nmax))


def _quadrature_moments(mu: RadialMeasure, n: np.ndarray) -> np.ndarray:
    """Density part of m_n on the index array n by the graded u-rule.

    The rule is graded for n.max(). Its values on the probe indices are
    compared with a rule 8 octaves deeper and 8 orders higher, and the order
    escalates before a QuadratureError; harsh density exponents (u^beta with
    beta near -1) occasionally need the higher orders. The closed forms of
    the catalog densities are held to this independent route by the tests
    and by ``verify``'s mn-routes check; ``_moments`` does not call it.
    """
    depth = _depth_for(int(n.max()))
    probe = _probe_indices(int(n.max()))
    both = np.concatenate((n, probe))
    err = np.inf
    for order in (cns.MEASURE_ORDER, cns.MEASURE_ORDER + 8, cns.MEASURE_ORDER + 16):
        vals = moment_sum(*mu.pushforward_rule(depth, order), both)
        ref = moment_sum(*mu.pushforward_rule(depth + 8, order + 8), probe)
        err = np.max(np.abs(vals[len(n):] - ref) / np.maximum(np.abs(ref), 1e-300))
        if err <= cns.MOMENT_BUDGET:
            return vals[:len(n)]
    raise QuadratureError(
        f"moment quadrature off by {err:.3e} relative at escalated order "
        f"(budget {cns.MOMENT_BUDGET:.1e})")


def _moments(mu: RadialMeasure, n: np.ndarray) -> np.ndarray:
    """m_n on the index array n, the sum of every component's ``moments``.

    m_0 = nu([0,1]) is taken from the closed-form ``total_mass``, so it does
    not change in its last bits with the length of n.
    """
    vals = np.zeros(len(n))
    for component in mu.atoms + mu.densities:
        vals += component.moments(n)
    vals[n == 0] = total_mass(mu)
    return vals


def moment_prefix(mu: RadialMeasure, N: int) -> MultiplierSequence:
    """m_0..m_N (monotonicity asserted), computed afresh on every call: each
    caller owns its ``values`` array."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return MultiplierSequence(mu, _moments(mu, np.arange(int(N) + 1)))


def moments_at(mu: RadialMeasure, n) -> np.ndarray:
    """m_n on an arbitrary index set."""
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    if np.any(n < 0):
        raise ValueError("indices must be >= 0")
    return _moments(mu, n)


def claim1_envelope(mu: RadialMeasure, n: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided envelope ((1 - 1/e) I_n, I_n) with I_n = integral min{1, 1/((n+1)t)} d mu~.

    I_n is linear in nu, so it is the sum of every component's ``envelope``:
    closed forms for atoms and power densities, and a sorted-rule sum
    (``_gridquad.envelope_sum``) for the others, so time and memory are
    O(len(n) + nodes). I_0 = nu([0,1]) exactly (min{1, 1/t} = 1 on [0, 1])
    and is the closed-form total mass, as m_0 is, so that the rounding of the
    quadrature cannot put m_0 above its own upper envelope. Vectorized over n.
    """
    n = np.atleast_1d(np.asarray(n, dtype=float))
    N = n + 1.0
    I = np.zeros(n.shape)
    for component in mu.atoms + mu.densities:
        I += component.envelope(N)
    I[n == 0] = total_mass(mu)
    lower = (1.0 - math.exp(-1.0)) * I
    return lower, I


@dataclass(frozen=True)
class DecayEstimate:
    """Upper-envelope slope of log m_n against log(n+1) on a geometric grid."""

    value: float
    unstable: bool
    n_grid: np.ndarray
    log_m: np.ndarray


def _envelope_slope(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    top = resid >= np.quantile(resid, 0.75)
    if top.sum() < 2:
        return float(coeffs[0])
    return float(np.polyfit(x[top], y[top], 1)[0])


def decay_exponent_estimate(mu: RadialMeasure, N: int) -> DecayEstimate:
    """Estimate of limsup log m_n / log(n+1) (equals -s0 when 0 < s0 < 1).

    Plain regression under-biases an oscillatory sequence whose limsup is
    attained along a subsequence; the slope is therefore fitted through the
    top-quartile residual points (the upper envelope), with a half-range
    consistency check flagging unstable fits.
    """
    if N < 1000:
        raise ValueError(f"N must be >= 1000, got {N}")
    j = np.arange(0, int(np.log(N) / np.log(1.25)) + 1)
    grid = np.unique(np.minimum(np.floor(1.25 ** j).astype(int), N))
    m = moments_at(mu, grid)
    x = np.log(grid + 1.0)
    y = np.log(m)
    slope = _envelope_slope(x, y)
    half = x >= 0.5 * (x[0] + x[-1])
    slope_half = _envelope_slope(x[half], y[half]) if half.sum() >= 4 else slope
    return DecayEstimate(slope, abs(slope - slope_half) > 0.1, grid, y)


def dyadic_block_verdict(block_sums: np.ndarray) -> str:
    """"growing" when the last three dyadic blocks are non-decreasing above a floor."""
    b = np.asarray(block_sums, dtype=float)
    k = cns.BLOCK_COUNT
    if b.size < k:
        return "plateaued"
    tail = b[-k:]
    floor = cns.BLOCK_FLOOR_FRACTION * b.max()
    nondecr = np.all(np.diff(tail) >= -cns.BLOCK_SLACK * tail[:-1])
    return "growing" if (nondecr and np.all(tail > floor)) else "plateaued"


def series_partial(mu: RadialMeasure, s: float, N: int) -> tuple[float, str]:
    """Partial sum of m_n (n+1)^(s-1) to N with a dyadic-block growth verdict.

    The series converges iff integral (1-r)^-s d nu does; the verdict compares
    consecutive complete blocks n in [2^k, 2^(k+1)).
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if N < 1000:
        raise ValueError(f"N must be >= 1000, got {N}")
    m = moment_prefix(mu, N).values
    n = np.arange(N + 1)
    terms = m * (n + 1.0) ** (s - 1.0)
    kmax = int(np.floor(np.log2(N + 1)))
    sums = [terms[2 ** k: 2 ** (k + 1)].sum() for k in range(kmax)
            if 2 ** (k + 1) <= N + 1]
    return float(terms.sum()), dyadic_block_verdict(np.array(sums))
