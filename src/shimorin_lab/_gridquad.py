"""Composite Gauss-Legendre quadrature on geometrically graded panels.

All singular behaviour in this package lives at the endpoints of [0, 1]
(boundary of the disk, r -> 1 of the measure, theta -> 0 of the kernel), so
one graded-mesh engine serves every module: split the interval into geometric
panels toward the singular end(s), put a fixed-order Gauss rule on each panel,
and either account for the sub-mesh tail analytically or cover it with one
Gauss-Jacobi panel that carries an endpoint power exactly. The module also
holds the three sums of a u-rule (u_j, c_j) in u = 1 - r that the measure
components share: against the resolvent (1 - r w)^-1 and its w-derivative
(``resolvent_sums``), against the multiplier integrand
(1 - r^(n+1)) / ((n+1)(1 - r)) (``moment_sum``) and against the claim-1
envelope min{1, 1/((n+1) u)} (``envelope_sum``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=128)
def jacobi_rule(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights for integral_0^1 u^beta g(u) du, beta > -1.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the weight (1 + x)^beta on [-1, 1], mapped to [0, 1], and
    the weights the squared first eigenvector components times the mass
    1/(beta + 1), by numpy's eigh: the package depends on numpy alone.
    """
    n = np.arange(1, order, dtype=float)
    s = 2.0 * n + beta
    # three-term recurrence of P_n^(0, beta); row 0 in its cancelled form
    diag = np.concatenate(([beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))))
    off = 2.0 * n * (n + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), vec[0] ** 2 / (beta + 1.0)


def panel_rule(breaks: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule over consecutive panels given by ``breaks``.

    Returns flat (nodes, weights) arrays covering [breaks[0], breaks[-1]].
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size < 2:
        raise ValueError("breaks must be a 1-D array with at least two entries")
    if np.any(np.diff(breaks) <= 0):
        raise ValueError("breaks must be strictly increasing")
    x, w = gauss_rule(order)
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    half = 0.5 * (b - a)
    nodes = a + half * (x[None, :] + 1.0)
    weights = half * w[None, :]
    return nodes.ravel(), weights.ravel()


def geometric_breaks(lo: float, hi: float) -> np.ndarray:
    """Strictly increasing breakpoints lo .. hi, doubling from lo."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    n = int(np.ceil(np.log2(hi / lo)))
    pts = lo * 2.0 ** np.arange(1, n + 1)
    pts = pts[pts < hi * (1 - 1e-12)]
    return np.concatenate(([lo], pts, [hi]))


# Elements per block of the point loops (resolvent_sum, kernel._nested_radial):
# the float64 temporaries of a block (64 KiB each) stay below glibc's 128 KiB
# mmap threshold, so a fresh process does not pay an mmap and page faults for
# each, and the loop costs the same whatever the process freed before.
BLOCK = 1 << 13


def resolvent_sum(u: np.ndarray, weights: np.ndarray, w: np.ndarray,
                  derivative: bool) -> np.ndarray:
    """sum_j c_j (1 - r_j w)^-1, or with ``derivative`` sum_j c_j r_j (1 - r_j w)^-2,
    over a rule (u_j, c_j) in u = 1 - r, for a flat complex array w."""
    return resolvent_sums(u, weights, w, (derivative,))[0]


def resolvent_sums(u: np.ndarray, weights: np.ndarray, w: np.ndarray,
                   parts: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
    """``resolvent_sum`` for each ``derivative`` in parts, from one pass.

    Real arithmetic on blocks of about ``BLOCK`` elements: with
    1 - r w = a + ib and d = a^2 + b^2, 1/(a+ib) = (a - ib)/d and
    1/(a+ib)^2 = (a^2 - b^2 - 2iab)/d^2. Both sums share a, b and d, and each
    is the same bits as when it is asked for alone.
    """
    value, slope = False in parts, True in parts
    out = {d: np.empty(w.shape, dtype=complex) for d in (False, True) if d in parts}
    fac = weights * (1.0 - u) if slope else None
    re_gap, w_re, w_im = 1.0 - w.real, w.real, w.imag
    rows = max(1, BLOCK // max(u.size, 1))
    for lo in range(0, w.size, rows):
        sl = slice(lo, lo + rows)
        # 1 - r w = (1 - w) + u w, in this form so that the gap 1 - w is exact
        a = np.multiply(w_re[sl, None], u)
        a += re_gap[sl, None]
        b = np.multiply(w_im[sl, None], u)
        b -= w_im[sl, None]
        d = a * a
        d += b * b
        np.reciprocal(d, out=d)
        if value:
            # in place unless the derivative still needs a and b
            re = a * d if slope else np.multiply(a, d, out=a)
            im = b * d if slope else np.multiply(b, d, out=b)
            out[False].real[sl] = re @ weights
            out[False].imag[sl] = -(im @ weights)
        if slope:
            d *= d
            ab = a * b
            ab *= d
            a *= a
            b *= b
            a -= b
            a *= d
            out[True].real[sl] = a @ fac
            out[True].imag[sl] = -2.0 * (ab @ fac)
    return tuple(out[d] for d in parts)


# elements per (indices x nodes) block of moment_sum (2 MB temporaries)
_MOMENT_BLOCK = 1 << 18


def moment_sum(u: np.ndarray, weights: np.ndarray, n: np.ndarray) -> np.ndarray:
    """sum_j c_j (1 - (1-u_j)^(n+1)) / ((n+1) u_j) over a rule (u_j, c_j) in u = 1 - r,
    for each index of the array n, on blocks of about ``_MOMENT_BLOCK`` elements.

    The integrand is -expm1((n+1) log1p(-u)) / ((n+1) u), stable for tiny u.
    A tabulated grid may hold the endpoints: u = 1 (r = 0) gives log1p(-1) =
    -inf and the exact 1/(n+1); u = 0 (r = 1) gives 0/0, set to its limit 1.
    """
    out = np.empty(len(n))
    at_one = u == 0.0
    rows = max(1, _MOMENT_BLOCK // max(u.size, 1))
    for lo in range(0, len(n), rows):
        N = (np.asarray(n[lo:lo + rows], dtype=float) + 1.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            lu = np.log1p(-u)[None, :]
            vals = -np.expm1(N * lu) / (N * u[None, :])
        if at_one.any():
            vals[:, at_one] = 1.0
        out[lo:lo + rows] = vals @ weights
    return out


def envelope_sum(u: np.ndarray, w: np.ndarray, N: np.ndarray) -> np.ndarray:
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


def richardson_tail(values: np.ndarray) -> float:
    """Extrapolate v(eps) -> v(0) assuming v(eps) = V - c*eps^a, a unknown.

    Uses the last three ladder levels (geometric in eps, ratio q); falls back
    to the last value when the fitted rate is unusable.
    """
    v1, v2, v3 = values[-3], values[-2], values[-1]
    d1, d2 = v2 - v1, v3 - v2
    if d2 == 0.0 or d1 == 0.0:
        return float(v3)
    ratio = d2 / d1
    if not (0.0 < ratio < 1.0):
        return float(v3)
    # v(eps) = V - c eps^a with geometric eps gives d2/d1 = q^a, and the
    # remaining increments sum as a geometric series in q^a.
    return float(v3 + d2 * ratio / (1.0 - ratio))


def ladder_decision(
    values: np.ndarray,
    eps: np.ndarray,
    growth_factor: float,
    growth_levels: int,
) -> tuple[bool, float]:
    """Classify a truncation ladder as (divergent?, value-or-growth-exponent).

    ``values[i]`` is the integral truncated at distance ``eps[i]`` from the
    singular endpoint, eps decreasing. Divergent when the last ``growth_levels``
    transitions each grow by more than ``growth_factor``; the reported growth
    exponent is the log-log slope over those transitions (0 for logarithmic
    blow-up). Otherwise returns the Richardson-extrapolated value.
    """
    values = np.asarray(values, dtype=float)
    eps = np.asarray(eps, dtype=float)
    tail = values[-(growth_levels + 1):]
    ratios = tail[1:] / np.where(tail[:-1] == 0.0, 1.0, tail[:-1])
    if np.all(tail[:-1] > 0) and np.all(ratios > growth_factor):
        x = np.log(1.0 / eps[-(growth_levels + 1):])
        y = np.log(tail)
        slope = np.polyfit(x, y, 1)[0]
        return True, max(float(slope), 0.0)
    return False, richardson_tail(values)
