"""Composite Gauss-Legendre quadrature on geometrically graded panels.

All singular behaviour in this package lives at the endpoints of [0, 1]
(boundary of the disk, r -> 1 of the measure, theta -> 0 of the kernel), so
one graded-mesh engine serves every module: split the interval into geometric
panels toward the singular end(s), put a fixed-order Gauss rule on each panel,
and optionally account for the sub-mesh tail analytically.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


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
