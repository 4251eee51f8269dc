"""Coefficient multipliers of the disk operator attached to a radial measure.

The operator acts on Taylor coefficients as a_n -> m_n a_n with

    m_n = (n+1)^-1 * integral (1 - r^(n+1)) / (1 - r) d nu(r),

a positive non-increasing sequence with m_0 = nu([0,1]). Atoms are evaluated
exactly; densities by graded quadrature in u = 1 - r, writing the integrand
as (1 - (1-u)^N) / (N u) (stable via expm1/log1p at both ends). The envelope

    (1 - 1/e) * I_n <= m_n <= I_n,   I_n = integral min{1, 1/((n+1) t)} d mu~(t)

(mu~ the pushforward of nu under t = 1 - r) pins every m_n between closed
forms, and the decay exponent limsup log m_n / log(n+1) = -s0 is estimated by
an upper-envelope fit on a geometric index grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants as cns
from .measure import (
    Atom,
    NuAlphaDensity,
    PowerDensity,
    RadialMeasure,
    total_mass,
)

__all__ = [
    "MultiplierSequence",
    "QuadratureError",
    "moment",
    "moment_prefix",
    "moments_at",
    "claim1_envelope",
    "decay_exponent_estimate",
    "DecayEstimate",
    "series_partial",
    "attaining_subsequence",
    "dyadic_block_verdict",
]

# exact geometric sums below this index, the stable ratio form above
ATOM_EXACT_N = 1000


class QuadratureError(RuntimeError):
    """Raised when a moment quadrature misses its declared relative budget."""


def _atom_moments(x: float, mass: float, n: np.ndarray) -> np.ndarray:
    """mass * (1 - x^(n+1)) / ((n+1)(1-x)), handled stably at x in {0, 1}."""
    n = np.asarray(n)
    N = n + 1.0
    if x == 1.0:
        return np.full(n.shape, mass, dtype=float)
    if x == 0.0:
        return mass / N
    out = np.empty(n.shape, dtype=float)
    small = n < ATOM_EXACT_N
    if np.any(small):
        # exact finite geometric sums for small indices
        nmax = int(n[small].max())
        powers = np.concatenate(([1.0], np.cumprod(np.full(nmax, x))))
        csum = np.cumsum(powers)
        out[small] = mass * csum[n[small].astype(int)] / N[small]
    if np.any(~small):
        big = ~small
        out[big] = mass * (-np.expm1(N[big] * math.log(x))) / (N[big] * (1.0 - x))
    return out


def _density_integrand(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(1 - (1-u)^(n+1)) / ((n+1) u) on a (n, u) grid, stable for tiny u.

    A tabulated grid may hold the endpoints: u = 1 (r = 0) gives log1p(-1) =
    -inf and the exact 1/(n+1); u = 0 (r = 1) gives 0/0, set to its limit 1.
    """
    N = (np.asarray(n, dtype=float) + 1.0)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lu = np.log1p(-u)[None, :]
        out = -np.expm1(N * lu) / (N * u[None, :])
    at_one = u == 0.0
    if at_one.any():
        out[:, at_one] = 1.0
    return out


def _density_moments(mu: RadialMeasure, n: np.ndarray, depth_zero: int,
                     order: int, chunk: int = 4096) -> np.ndarray:
    u, w = mu.pushforward_rule(depth_zero=depth_zero, order=order)
    if u.size == 0:
        return np.zeros(len(n))
    out = np.empty(len(n))
    for lo in range(0, len(n), chunk):
        sl = slice(lo, lo + chunk)
        out[sl] = _density_integrand(u, n[sl]) @ w
    return out


def _moments(mu: RadialMeasure, n: np.ndarray, depth_zero: int, order: int) -> np.ndarray:
    """m_n on the index array n: quadrature for n >= 1, the total mass for n = 0.

    m_0 = nu([0,1]) is taken from the closed-form ``total_mass``: by
    quadrature the integrand at n = 0 is 1 only up to rounding, and that
    rounding depends on how many indices share the BLAS product, so m_0
    would change in its last bits with the length of n.
    """
    vals = _density_moments(mu, n, depth_zero, order)
    for a in mu.atoms:
        vals = vals + _atom_moments(a.x, a.mass, n)
    vals[n == 0] = total_mass(mu)
    return vals


def _depth_for(nmax: int) -> int:
    # keep the sub-mesh tail well below the integrand's transition scale 1/N
    return max(cns.MEASURE_DEPTH_ZERO, int(np.ceil(np.log2(max(nmax, 1) + 1))) + 40)


@dataclass(frozen=True)
class MultiplierSequence:
    """Computed prefix m_0..m_N with provenance.

    Invariants checked on construction: m_0 equals the total mass, all values
    positive, and the sequence non-increasing (up to summation roundoff).
    m_0 is the closed-form total mass itself, not a quadrature value (whose
    last bits would depend on BLAS rounding and on N); m_1.. are quadrature.
    """

    measure: RadialMeasure
    values: np.ndarray
    quadrature_budget: float

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


def _checked_moments(mu: RadialMeasure, n: np.ndarray) -> np.ndarray:
    """Moments with a Cauchy accuracy check, escalating the rule before failing.

    The check compares a probe subset against a finer rule; harsh density
    exponents (u^beta with beta near -1) occasionally need the higher orders.
    """
    if not mu.densities:
        return _moments(mu, n, cns.MEASURE_DEPTH_ZERO, cns.MEASURE_ORDER)
    depth = _depth_for(int(n.max()))
    pos = np.array([0, len(n) // 3, len(n) - 1])
    err = np.inf
    for order in (cns.MEASURE_ORDER, cns.MEASURE_ORDER + 8, cns.MEASURE_ORDER + 16):
        vals = _moments(mu, n, depth, order)
        ref = _moments(mu, n[pos], depth + 8, order + 8)
        err = np.max(np.abs(vals[pos] - ref) / np.maximum(np.abs(ref), 1e-300))
        if err <= cns.MOMENT_BUDGET:
            return vals
    raise QuadratureError(
        f"moment quadrature off by {err:.3e} relative at escalated order "
        f"(budget {cns.MOMENT_BUDGET:.1e})")


def moment(mu: RadialMeasure, n: int, *, check: bool = True) -> float:
    """m_n for a single index; Cauchy-checks the density quadrature when asked."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    narr = np.array([n])
    if check:
        return float(_checked_moments(mu, narr)[0])
    return float(_moments(mu, narr, _depth_for(n), cns.MEASURE_ORDER)[0])


@lru_cache(maxsize=64)
def _cached_prefix(mu: RadialMeasure, N: int) -> MultiplierSequence:
    return MultiplierSequence(mu, _checked_moments(mu, np.arange(N + 1)),
                              cns.MOMENT_BUDGET)


def moment_prefix(mu: RadialMeasure, N: int) -> MultiplierSequence:
    """m_0..m_N on a shared quadrature mesh (monotonicity asserted)."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return _cached_prefix(mu, int(N))


def moments_at(mu: RadialMeasure, n) -> np.ndarray:
    """m_n on an arbitrary index set (one shared mesh sized for the largest)."""
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    if np.any(n < 0):
        raise ValueError("indices must be >= 0")
    return _checked_moments(mu, n)


def claim1_envelope(mu: RadialMeasure, n: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided envelope ((1 - 1/e) I_n, I_n) with I_n = integral min{1, 1/((n+1)t)} d mu~.

    Closed forms for atoms and power densities (split at t = 1/(n+1));
    quadrature for the rest. I_0 = nu([0,1]) exactly (min{1, 1/t} = 1 on
    [0, 1]) and is the closed-form total mass, as m_0 is, so that the BLAS
    rounding of the quadrature cannot put m_0 above its own upper envelope.
    Vectorized over n.
    """
    n = np.atleast_1d(np.asarray(n, dtype=float))
    N = n + 1.0
    I = np.zeros(n.shape)
    for a in mu.atoms:
        t = 1.0 - a.x
        I += a.mass * (1.0 if t == 0.0 else np.minimum(1.0, 1.0 / (N * t)))
    for d in mu.densities:
        if isinstance(d, PowerDensity):
            T = np.minimum(1.0, 1.0 / N)
            head = T ** (d.beta + 1.0) / (d.beta + 1.0)
            if d.beta == 0.0:
                rest = np.log(1.0 / T) / N
            else:
                rest = (1.0 - T ** d.beta) / (d.beta * N)
            I += d.kappa * (head + rest)
        else:
            u, w = RadialMeasure(densities=(d,)).pushforward_rule()
            with np.errstate(divide="ignore"):  # a grid node at u = 0 gives min(1, inf)
                I += np.minimum(1.0, 1.0 / (N[:, None] * u[None, :])) @ w
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


def attaining_subsequence(mu: RadialMeasure, N: int, eps: float = 0.05) -> np.ndarray:
    """Empirical index set {n <= N : m_n >= (n+1)^(-s0-eps)} attaining the limsup.

    Along this set the decay rate -s0 is achieved up to the slack eps, and the
    series sum over it of m_n (n+1)^(s-1) diverges for every s > s0. No
    constructive description of the set exists, so this detection is
    best-effort with eps as the declared tolerance flag.
    """
    from .measure import critical_index

    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    s0 = critical_index(mu).s0
    grid = np.arange(N + 1)
    m = moment_prefix(mu, N).values
    return grid[m >= (grid + 1.0) ** (-s0 - eps)]


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
