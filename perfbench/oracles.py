"""Closed-form references the benchmark checks program output against.

Everything here is independent of ``shimorin_lab``: the multiplier moments of
the catalog measures and of tabulated densities, the L^2 norm of the
fractional kernel as a series, and Parseval's identity for the disk L^2 norm.
Each reference is cross-checked against mpmath in ``test_perfbench.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gamma

EULER_GAMMA = 0.57721566490153286061

# Below this argument the gamma ratio is taken directly from scipy's gamma;
# above it, from the Stirling series, whose truncation after z^-7 is below
# 1e-17 relative here.
_STIRLING_FROM = 30.0
# The digits an oracle comparison may claim at most (double precision).
DIGITS_CAP = 16.0


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """lgamma(z) minus its leading Stirling terms, for z >= _STIRLING_FROM."""
    zi = 1.0 / z
    z2 = zi * zi
    return zi * (1.0 / 12.0 - z2 * (1.0 / 360.0 - z2 * (1.0 / 1260.0 - z2 / 1680.0)))


def gamma_ratio(x, b: float) -> np.ndarray:
    """Gamma(x + b) / Gamma(x) to about 1e-15 relative, for x >= 1 and x + b > 0.

    ``exp(gammaln(x + b) - gammaln(x))`` loses ~1e-10 relative near x = 1e5,
    because each log-gamma is ~1e6 in size; the Stirling form below keeps
    only O(1) terms, so its rounding stays at the level of double precision.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _STIRLING_FROM
    if np.any(small):
        xs = x[small]
        out[small] = gamma(xs + b) / gamma(xs)
    if np.any(~small):
        xl = x[~small]
        log_ratio = (b * np.log(xl) + (xl + b - 0.5) * np.log1p(b / xl) - b
                     + _stirling_tail(xl + b) - _stirling_tail(xl))
        out[~small] = np.exp(log_ratio)
    return out


def mn_lebesgue(n) -> np.ndarray:
    """m_n of Lebesgue measure on [0, 1]: H_{n+1} / (n+1) = (psi(n+2) + gamma) / (n+1)."""
    n = np.asarray(n, dtype=float)
    return (digamma(n + 2.0) + EULER_GAMMA) / (n + 1.0)


def mn_power(kappa: float, beta: float, n) -> np.ndarray:
    """m_n of kappa (1-r)^beta dr, beta != 0: kappa (1/beta - B(beta, n+2)) / (n+1).

    B(beta, n+2) = Gamma(beta) Gamma(n+2) / Gamma(n+2+beta) keeps its sign for
    beta < 0 (it is negative there), which exp(betaln(...)) would drop.
    """
    if beta == 0.0:
        return kappa * mn_lebesgue(n)
    n = np.asarray(n, dtype=float)
    beta_fn = gamma(beta) / gamma_ratio(n + 2.0, beta)
    return kappa * (1.0 / beta - beta_fn) / (n + 1.0)


def mn_nu_alpha(alpha: float, n) -> np.ndarray:
    """m_n of the normalized fractional density: Gamma(n+alpha) / (Gamma(alpha) Gamma(n+2))."""
    n = np.asarray(n, dtype=float)
    return gamma_ratio(n + 2.0, alpha - 2.0) / gamma(alpha)


def mn_atom(x: float, mass: float, n) -> np.ndarray:
    """m_n of a point mass: mass (1 + x + ... + x^n) / (n+1)."""
    n = np.asarray(n, dtype=float)
    if x == 1.0:
        return np.full(n.shape, mass)
    if x == 0.0:
        return mass / (n + 1.0)
    return mass * -np.expm1((n + 1.0) * math.log(x)) / ((1.0 - x) * (n + 1.0))


def mn_tabulated(r, values, n) -> np.ndarray:
    """m_n of a tabulated density under the trapezoid rule on its own grid.

    The package defines a tabulated density by its samples and the trapezoid
    rule (its m_0 is the trapezoid mass). m_n integrates
    g_n(r) = (1 + r + ... + r^n) / (n+1) against it, with g_n(1) = 1, the
    limit that the closed form (1 - r^(n+1)) / ((n+1)(1-r)) leaves as 0/0.
    """
    u = 1.0 - np.asarray(r, dtype=float)
    v = np.asarray(values, dtype=float)
    half = 0.5 * np.abs(np.diff(u))
    weights = np.concatenate((half, [0.0])) + np.concatenate(([0.0], half))
    N = (np.asarray(n, dtype=float) + 1.0)[:, None]
    inner = (u > 0.0) & (u < 1.0)
    g = np.where(u == 0.0, 1.0, 1.0 / N)   # r = 1 and r = 0
    ui = u[inner]
    g[:, inner] = -np.expm1(N * np.log1p(-ui)) / (N * ui)
    return np.array([math.fsum(row) for row in g * (weights * v)])


def mn_spec(spec: dict, n) -> np.ndarray:
    """m_n of a measure given in the package's JSON wire format."""
    n = np.asarray(n, dtype=float)
    total = np.zeros(n.shape)
    for a in spec.get("atoms", []):
        total = total + mn_atom(float(a["x"]), float(a["mass"]), n)
    for d in spec.get("densities", []):
        kind = d["kind"]
        if kind == "lebesgue":
            total = total + mn_lebesgue(n)
        elif kind == "power":
            total = total + mn_power(float(d["kappa"]), float(d["beta"]), n)
        elif kind == "nu_alpha":
            total = total + mn_nu_alpha(float(d["alpha"]), n)
        elif kind == "tabulated":
            total = total + mn_tabulated(d["r"], d["values"], n)
        else:
            raise ValueError(f"no reference moments for density kind {kind!r}")
    return total


def nu_alpha_kernel_l2(alpha: float, z: float, tol: float = 1e-17) -> float:
    """||(1 - z conj(.))^-alpha||_{L^2(dA)} as sqrt(sum c_n^2 |z|^(2n) / (n+1)).

    c_n = Gamma(n+alpha) / (Gamma(alpha) n!) by the recurrence c_n = c_{n-1} (n-1+alpha)/n;
    the sum runs until the remaining terms, bounded by a geometric tail, drop
    below ``tol`` relative.
    """
    x = float(z) ** 2
    if not 0.0 <= x < 1.0:
        raise ValueError("|z| must lie in [0, 1)")
    total, n0, c_prev = 0.0, 0, 1.0
    block = 4096
    while True:
        n = np.arange(n0, n0 + block, dtype=float)
        ratios = np.where(n == 0.0, 1.0, (n - 1.0 + alpha) / np.maximum(n, 1.0))
        c = c_prev * np.cumprod(ratios)
        terms = c * c * np.exp(n * math.log(x)) / (n + 1.0) if x > 0.0 else \
            np.where(n == 0.0, 1.0, 0.0)
        total += math.fsum(terms)
        c_prev = float(c[-1])
        # later terms shrink by at least x * (1 + (alpha-1)/n)^2 per step
        q = x * (1.0 + (alpha - 1.0) / (n0 + block)) ** 2
        if terms[-1] <= tol * total * (1.0 - q) or x == 0.0:
            return math.sqrt(total)
        n0 += block


def parseval_l2(coeffs) -> float:
    """||sum b_n z^n||_{L^2(dA)} = sqrt(sum |b_n|^2 / (n+1)) for normalized area."""
    b = np.asarray(coeffs, dtype=complex)
    n = np.arange(b.size, dtype=float)
    return math.sqrt(math.fsum(np.abs(b) ** 2 / (n + 1.0)))


def rel_error(got, ref, scale=None) -> float:
    """Worst |got - ref| / scale, with scale = |ref| unless given."""
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    ref = np.atleast_1d(np.asarray(ref, dtype=complex))
    scale = np.abs(ref) if scale is None else np.asarray(scale, dtype=float)
    return float(np.max(np.abs(got - ref) / scale))


def digits(rel: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if rel <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel))
