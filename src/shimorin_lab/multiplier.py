"""Coefficient multipliers of the disk operator attached to a radial measure.

The operator acts on Taylor coefficients as a_n -> m_n a_n with

    m_n = (n+1)^-1 * integral (1 - r^(n+1)) / (1 - r) d nu(r),

a positive non-increasing sequence with m_0 = nu([0,1]). It is summed per
component, in O(N) for N indices: atoms exactly, power and nu_alpha
densities by their closed forms (``moments`` in measure.py), and tabulated
densities by graded quadrature in u = 1 - r, writing the integrand as
(1 - (1-u)^N) / (N u) (stable via expm1/log1p at both ends), Cauchy-checked
against a finer rule. That quadrature (``_quadrature_moments``) also stays as
the independent route the closed forms are checked against. The envelope

    (1 - 1/e) * I_n <= m_n <= I_n,   I_n = integral min{1, 1/((n+1) t)} d mu~(t)

(mu~ the pushforward of nu under t = 1 - r) pins every m_n between closed
forms (atoms, power densities) or a sorted-rule prefix/suffix sum (the other
densities), and the decay exponent limsup log m_n / log(n+1) = -s0 is
estimated by an upper-envelope fit on a geometric index grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants as cns
from .measure import PowerDensity, RadialMeasure, total_mass

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

# elements per (indices x nodes) block of the moment quadrature (2 MB temporaries)
_BLOCK = 1 << 18


class QuadratureError(RuntimeError):
    """Raised when a moment quadrature misses its declared relative budget."""


def _atom_moments(x: float, mass: float, n: np.ndarray) -> np.ndarray:
    """mass * (1 - x^(n+1)) / ((n+1)(1-x)), handled stably at x in {0, 1}; the
    expm1 form is within a few ulps at every n, where a cumulative sum of
    powers drifts (2e-15 relative at x = 0.9999999 below n = 1000)."""
    N = np.asarray(n) + 1.0
    if x == 1.0:
        return np.full(N.shape, mass, dtype=float)
    if x == 0.0:
        return mass / N
    return mass * (-np.expm1(N * math.log(x))) / (N * (1.0 - x))


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
                     order: int) -> np.ndarray:
    u, w = mu.pushforward_rule(depth_zero=depth_zero, order=order)
    if u.size == 0:
        return np.zeros(len(n))
    out = np.empty(len(n))
    rows = max(1, _BLOCK // u.size)
    for lo in range(0, len(n), rows):
        sl = slice(lo, lo + rows)
        out[sl] = _density_integrand(u, n[sl]) @ w
    return out


def _depth_for(nmax: int) -> int:
    # keep the sub-mesh tail well below the integrand's transition scale 1/N
    return max(cns.MEASURE_DEPTH_ZERO, int(np.ceil(np.log2(max(nmax, 1) + 1))) + 40)


@dataclass(frozen=True)
class MultiplierSequence:
    """Computed prefix m_0..m_N with provenance.

    Invariants checked on construction: m_0 equals the total mass, all values
    positive, and the sequence non-increasing (up to summation roundoff).
    m_0 is the closed-form total mass itself, not a quadrature value (whose
    last bits would depend on BLAS rounding and on N); m_1.. are closed forms
    plus, for tabulated densities, quadrature.
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
    beta near -1) occasionally need the higher orders.
    This is the independent route for catalog densities (whose moments have
    closed forms) and the only route for tabulated ones.
    """
    depth = _depth_for(int(n.max()))
    probe = _probe_indices(int(n.max()))
    both = np.concatenate((n, probe))
    err = np.inf
    for order in (cns.MEASURE_ORDER, cns.MEASURE_ORDER + 8, cns.MEASURE_ORDER + 16):
        vals = _density_moments(mu, both, depth, order)
        ref = _density_moments(mu, probe, depth + 8, order + 8)
        err = np.max(np.abs(vals[len(n):] - ref) / np.maximum(np.abs(ref), 1e-300))
        if err <= cns.MOMENT_BUDGET:
            return vals[:len(n)]
    raise QuadratureError(
        f"moment quadrature off by {err:.3e} relative at escalated order "
        f"(budget {cns.MOMENT_BUDGET:.1e})")


def _moments(mu: RadialMeasure, n: np.ndarray) -> np.ndarray:
    """m_n on the index array n, summed per component.

    Atoms and catalog densities are exact; densities without a closed form
    go through ``_quadrature_moments`` on a rule graded for them alone.
    m_0 = nu([0,1]) is taken from the closed-form ``total_mass``, so it does
    not change in its last bits with the route or the length of n.
    """
    vals = np.zeros(len(n))
    for a in mu.atoms:
        vals += _atom_moments(a.x, a.mass, n)
    rest = []
    for d in mu.densities:
        exact = d.moments(n)
        if exact is None:
            rest.append(d)
        else:
            vals += exact
    if rest:
        vals += _quadrature_moments(RadialMeasure(densities=tuple(rest)), n)
    vals[n == 0] = total_mass(mu)
    return vals


def moment(mu: RadialMeasure, n: int) -> float:
    """m_n for a single index; any density quadrature is Cauchy-checked."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return float(_moments(mu, np.array([n]))[0])


@lru_cache(maxsize=64)
def _cached_prefix(mu: RadialMeasure, N: int) -> MultiplierSequence:
    return MultiplierSequence(mu, _moments(mu, np.arange(N + 1)))


def moment_prefix(mu: RadialMeasure, N: int) -> MultiplierSequence:
    """m_0..m_N (monotonicity asserted); any quadrature shares one mesh."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return _cached_prefix(mu, int(N))


def moments_at(mu: RadialMeasure, n) -> np.ndarray:
    """m_n on an arbitrary index set (any quadrature on one mesh sized for the largest)."""
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    if np.any(n < 0):
        raise ValueError("indices must be >= 0")
    return _moments(mu, n)


def _sorted_rule_envelope(u: np.ndarray, w: np.ndarray, N: np.ndarray) -> np.ndarray:
    """sum_i w_i min{1, 1/(N u_i)} for every N, in O((len(N) + len(u)) log len(u)).

    On the rule sorted by u, the nodes with u_i <= 1/N give a prefix sum of
    w and the others a suffix sum of w/u over N. The suffix sum is
    accumulated from the large-u end: as total minus prefix it would cancel,
    since sum w/u over the whole nu_alpha rule reaches 2e17 at alpha = 1.9.
    """
    order = np.argsort(u, kind="stable")
    u, w = u[order], w[order]
    head = np.concatenate(([0.0], np.cumsum(w)))
    # nodes at u = 0 (r = 1 on a tabulated grid) always lie in the prefix
    w_over_u = np.divide(w, u, out=np.zeros_like(w), where=u > 0.0)
    tail = np.concatenate((np.cumsum(w_over_u[::-1])[::-1], [0.0]))
    k = np.searchsorted(u, 1.0 / N, side="right")
    return head[k] + tail[k] / N


def claim1_envelope(mu: RadialMeasure, n: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided envelope ((1 - 1/e) I_n, I_n) with I_n = integral min{1, 1/((n+1)t)} d mu~.

    Closed forms for atoms and power densities (split at t = 1/(n+1)); the
    other densities' pushforward rule is sorted once and summed by
    ``_sorted_rule_envelope``, so time and memory are O(len(n) + nodes).
    I_0 = nu([0,1]) exactly (min{1, 1/t} = 1 on [0, 1]) and is the
    closed-form total mass, as m_0 is, so that the rounding of the
    quadrature cannot put m_0 above its own upper envelope. Vectorized over n.
    """
    n = np.atleast_1d(np.asarray(n, dtype=float))
    N = n + 1.0
    I = np.zeros(n.shape)
    for a in mu.atoms:
        t = 1.0 - a.x
        I += a.mass * (1.0 if t == 0.0 else np.minimum(1.0, 1.0 / (N * t)))
    rest = []
    for d in mu.densities:
        if isinstance(d, PowerDensity):
            T = np.minimum(1.0, 1.0 / N)
            head = T ** (d.beta + 1.0) / (d.beta + 1.0)
            if d.beta == 0.0:
                tail = np.log(1.0 / T) / N
            else:
                tail = (1.0 - T ** d.beta) / (d.beta * N)
            I += d.kappa * (head + tail)
        else:
            rest.append(d)
    if rest:
        I += _sorted_rule_envelope(*RadialMeasure(densities=tuple(rest)).pushforward_rule(), N)
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
