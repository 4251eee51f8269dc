"""Evaluation and verification of the disk kernel attached to a radial measure.

The kernel, its holomorphic derivative, and the secondary double-integral
representation (measures with no atom at 1):

    K(z, lam)   = (1 - w)^-1 * integral (1 - r w)^-1 d nu(r),     w = z * conj(lam)
    d/dz K      = conj(lam) (1-w)^-2 integral (1-rw)^-1 d nu
                + conj(lam) (1-w)^-1 integral r (1-rw)^-2 d nu
    K(z, lam)   = integral (1-r)^-1 integral_r^1 (1 - t w)^-2 dt d nu(r)

The two resolvent integrals F(w) = integral (1 - r w)^-1 d nu and
F'(w) = integral r (1 - r w)^-2 d nu are linear in nu: ``_resolvent`` sums
every component's own ``resolvent`` (measure.py), which is exact for atoms,
nu_alpha densities and kappa times Lebesgue, a Gauss-Jacobi rule per octave
of |1 - w| for power densities with beta != 0, and the grid of a tabulated
density. The nested double-integral route (whose inner integral runs on
``_nested_radial``, the engine of operator.apply_radial too) and the upper
side of the norm envelope stay on the graded u-rule for every density, so on
a catalog measure they cross-check both; the nested route is within
``constants.DOUBLE_INTEGRAL_BUDGET`` of the closed forms.

L^p norms of K(z, .) and the Forelli-Rudin integral run on one polar rule,
``_graded_polar(s)``, graded toward the one near-singular corner rho = 1,
theta = 0 of |z| = s (a uniform angular grid would need ~1/(1-|z|) nodes);
by rotation invariance the norm depends on |z| only. The rule depends on the
depth d = ceil(log2(1/gap)) + 2, gap = 1 - |z|, alone and is built once per
depth (``_polar_rule``). It is a union of tensor blocks of Gauss panels in
v = 1 - rho and theta: each radial band v in [2^-(k+1), 2^-k] is refined in
angle only down to a first panel of half its distance from the singularity,
and each angular panel [a, 2a] in radius only down to v = a/2, below which
one Gauss-Jacobi panel closes it and carries the v^t of the weight
(1 - rho^2)^t exactly (t = 0 for the kernel norm). That is 64 (5d + 2) nodes,
where crossing every radial panel with every angular panel took about
64 (d + 1)(d + 5). The error reached is stated with
``constants.KERNEL_NORM_BUDGET``. The envelope's upper side sums the inner
integral in one form, (1 - x)^c expm1((c+1) log1p(y)) / ((c+1) y), that does
not cancel for any |z| or node.

The module also predicts the Calderon-Zygmund size and
smoothness constants from the measure's critical index and verifies every
pointwise/norm bound on seeded point clouds, reporting margins and witnesses.
The Forelli-Rudin integral is held to its two closed sides
(``forelli_rudin_reports``), so ``verify`` runs it on the same polar rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import constants as cns
from ._gridquad import (
    BLOCK,
    gauss_rule,
    geometric_breaks,
    jacobi_rule,
    panel_rule,
)
from .measure import (
    RadialMeasure,
    critical_index,
    carleson_constant,
    reciprocal_gap_integral,
    singular_moment,
    total_mass,
)

__all__ = [
    "eval_kernel",
    "eval_dz",
    "double_integral_eval",
    "kernel_lp_norm",
    "pnorm_envelope",
    "supnorm_sandwich",
    "cz_constants",
    "CzConstants",
    "CzNotApplicable",
    "forelli_rudin_check",
    "forelli_rudin_reports",
    "KernelBoundReport",
    "bound_report",
    "sample_boundary_pairs",
    "hermitian_report",
    "ratio_bound_report",
    "universal_size_report",
    "representation_report",
    "cz_pointwise_reports",
    "envelope_reports",
]


# ---------------------------------------------------------------------------
# resolvent-type measure integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _cached_rule(mu: RadialMeasure, depth_zero: int = cns.MEASURE_DEPTH_ZERO,
                 order: int = cns.MEASURE_ORDER) -> tuple[np.ndarray, np.ndarray]:
    return mu.pushforward_rule(depth_zero=depth_zero, order=order)


# Gauss order per panel of the rule graded below a gap: at 10 the nested
# double-integral route reaches the resolvent's level on power densities
# (``constants.DOUBLE_INTEGRAL_BUDGET``)
_GAP_RULE_ORDER = 10


def _rule_for_gap(mu: RadialMeasure, min_gap: float):
    depth0 = int(min(120, max(40, np.ceil(-np.log2(max(min_gap, 1e-30))) + 20)))
    return _cached_rule(mu, depth0, _GAP_RULE_ORDER)


# Gauss order per panel of the nested routes' inner t-integral
_INNER_ORDER = 12
# supnorm_sandwich sweeps |z| through 1 - 2^-j, j <= _SWEEP_DEPTH
_SWEEP_DEPTH = 14


def _resolvent(mu: RadialMeasure, w, derivative: bool = False) -> np.ndarray:
    """integral (1 - r w)^-1 d nu(r), or with ``derivative`` its w-derivative
    integral r (1 - r w)^-2 d nu(r), vectorized over w: the sum of every
    component's own ``resolvent`` (measure.py).
    """
    w = np.asarray(w, dtype=complex)
    flat = w.ravel()
    out = np.zeros(flat.shape, dtype=complex)
    for component in mu.atoms + mu.densities:
        out += component.resolvent(flat, derivative)
    return out.reshape(w.shape)


def eval_kernel(mu: RadialMeasure, z, lam) -> np.ndarray | complex:
    """K(z, lam); atoms and catalog closed forms exact, power densities with
    beta != 0 on their gap-octave rules, tabulated densities on their grid."""
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    w = z * np.conj(lam)
    out = _resolvent(mu, w) / (1.0 - w)
    return complex(out) if out.ndim == 0 else out


def eval_dz(mu: RadialMeasure, z, lam) -> np.ndarray | complex:
    """Holomorphic z-derivative of K (cross-checked by finite differences in tests)."""
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    lbar = np.conj(lam)
    w = z * lbar
    first = lbar / (1.0 - w) ** 2 * _resolvent(mu, w)
    second = lbar / (1.0 - w) * _resolvent(mu, w, derivative=True)
    out = first + second
    return complex(out) if out.ndim == 0 else out


def _nested_radial(mu: RadialMeasure, rule, g, gap: float, n: int) -> np.ndarray:
    """sum_i w_i (1/u_i) integral_0^u_i g(1 - v) dv over the outer rule (u_i, w_i)
    plus mu's atoms, at n points; ``g(v, rows)`` is the integrand at t = 1 - v
    for the points ``rows`` (v, not t, keeps gaps below the rounding of t exact).

    All nodes share one v-mesh: [0, vmin], then geometric panels from
    vmin = max(1e-4 gap, 1e-18) to 1, gap being the distance of g's nearest
    singularity from t = 1. Node i in panel [b_k, b_k+1) takes the whole panels
    below b_k, their cumulative sums folded into the panel weights as suffix
    sums of w_i / u_i, plus one Gauss panel [b_k, u_i]. At u_i = 0 (r = 1 on a
    tabulated grid) that panel gives the limit w_i g(1).
    """
    u = np.concatenate((rule[0], [1.0 - a.x for a in mu.atoms]))
    wt = np.concatenate((rule[1], [a.mass for a in mu.atoms]))
    breaks = np.concatenate(([0.0], geometric_breaks(max(gap * 1e-4, 1e-18), 1.0)))
    k = np.minimum(np.searchsorted(breaks, u, side="right") - 1, breaks.size - 2)
    per_u = np.divide(wt, u, out=np.zeros_like(u), where=u > 0.0)
    below = np.bincount(k, weights=per_u, minlength=breaks.size - 1)
    v, c = panel_rule(breaks, _INNER_ORDER)
    c *= np.repeat(np.append(np.cumsum(below[:0:-1])[::-1], 0.0), _INNER_ORDER)
    x, gw = gauss_rule(_INNER_ORDER)
    half = 0.5 * (u - breaks[k])
    frac = np.divide(half, u, out=np.full_like(u, 0.5), where=u > 0.0)
    v = np.concatenate((v, (breaks[k][:, None] + half[:, None] * (x + 1.0)).ravel()))
    # complex weights, the same values: above 10^4 nodes numpy's complex-by-real
    # matmul stalls while another process holds a core (0.8 ms per row at
    # 14448 nodes on a 2-core box, against 4 us complex-by-complex)
    c = np.concatenate((c, ((wt * frac)[:, None] * gw).ravel())).astype(complex)
    out = np.empty(n, dtype=complex)
    rows = max(1, BLOCK // v.size)
    for lo in range(0, n, rows):
        out[lo:lo + rows] = g(v, slice(lo, lo + rows)) @ c
    return out


def double_integral_eval(mu: RadialMeasure, z, lam) -> np.ndarray | complex:
    """Second route: nested quadrature of (1-r)^-1 integral_r^1 (1-tw)^-2 dt d nu(r).

    Kept genuinely independent of eval_kernel: the inner t-integral is computed
    numerically on ``_nested_radial``'s mesh, graded toward t = 1, rather than
    via its antiderivative. Requires nu({1}) = 0.
    """
    if mu.mass_at_one:
        raise ValueError("double-integral representation requires no atom at 1")
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    w = (z * np.conj(lam)).ravel()
    gap = float(np.min(np.abs(1.0 - w))) if w.size else 1.0

    def g(v, rows):
        # 1 - t w = (1 - w) + v w, in this form so that the gap 1 - w is exact
        return 1.0 / ((1.0 - w[rows, None]) + v * w[rows, None]) ** 2

    out = _nested_radial(mu, _rule_for_gap(mu, gap), g, gap, w.size)
    out = out.reshape(np.broadcast(z, lam).shape)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# L^p norms of K(z, .): graded polar quadrature
# ---------------------------------------------------------------------------

# Gauss order per panel of the polar rules
_POLAR_ORDER = 8


@dataclass(frozen=True, eq=False)
class _PolarRule:
    """The corner-graded polar rule of one depth d (``_polar_rule``). Every
    array is read-only, one row of ``_POLAR_ORDER`` nodes per panel.

    Radial panels, in v = 1 - rho: the bands [2^-(k+1), 2^-k], k < d (Gauss),
    then the panels [0, 2^-n], n <= d (Gauss-Jacobi). Angular panels: the
    columns [2^e, 2^(e+1)], -d <= e <= 1 (the last one ends at pi), then the
    prefixes [0, 2^e] in the same order. Block b crosses radial panel bi[b]
    with angular panel bj[b].
    """

    band_v: np.ndarray    # Gauss nodes in v on the bands
    band_w: np.ndarray    # their weights
    jacobi: np.ndarray    # the lengths 2^-n of the Gauss-Jacobi panels
    rho: np.ndarray       # radii of every radial panel at t = 0
    w_rho: np.ndarray     # their weights at t = 0, area factor 2 rho folded in
    phase: np.ndarray     # e^(-i theta) on every angular panel
    sin2: np.ndarray      # sin^2(theta / 2)
    w_theta: np.ndarray   # angular weights over pi
    bi: np.ndarray
    bj: np.ndarray

    def cross(self, radial: np.ndarray, angular: np.ndarray) -> np.ndarray:
        """radial x angular on every block, shape (blocks, order, order)."""
        return radial[self.bi, :, None] * angular[self.bj, None, :]


def _polar_radial(band_v: np.ndarray, band_w: np.ndarray, jacobi: np.ndarray,
                  t: float) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights of the radial panels with (1 - rho^2)^t = v^t (2 - v)^t
    folded in: on the bands as a factor of the weights, on each [0, h] as the
    Gauss-Jacobi rule of v^t (``jacobi_rule``, cached per t) times (2 - v)^t."""
    x, gj = jacobi_rule(_POLAR_ORDER, t)
    h = jacobi[:, None]
    vj = h * x
    v = np.concatenate((band_v, vj))
    w = np.concatenate((band_w * (band_v * (2.0 - band_v)) ** t,
                        h ** (t + 1.0) * gj * (2.0 - vj) ** t))
    rho = 1.0 - v
    return rho, 2.0 * rho * w


@lru_cache(maxsize=64)  # one entry per depth, d <= 52
def _polar_rule(depth: int) -> _PolarRule:
    """The polar rule graded toward the corner rho = 1, theta = 0 at depth d.

    Band k (v in [2^-(k+1), 2^-k]) takes the prefix [0, max(2^-(k+2), 2^-d)],
    at most half its distance v + gap from the singularity, then the columns
    up to [2^-k, 2^(1-k)]. Column [a, 2a] takes the bands down to v = a/2,
    then the Gauss-Jacobi panel [0, max(a/2, 2^-d)]. The corner is
    [0, 2^-d] x [0, 2^-d]. 5d + 2 blocks in all.
    """
    x, g = gauss_rule(_POLAR_ORDER)
    k = np.arange(depth)
    lo = 2.0 ** -(k + 1.0)
    band_v = lo[:, None] * (1.5 + 0.5 * x)
    band_w = 0.5 * lo[:, None] * g
    jacobi = 2.0 ** -np.arange(depth + 1.0)
    rho, w_rho = _polar_radial(band_v, band_w, jacobi, 0.0)
    e = np.arange(-depth, 2)
    a = 2.0 ** e
    th_lo = np.concatenate((a, np.zeros(e.size)))
    half = 0.5 * (np.concatenate((np.minimum(2.0 * a, np.pi), a)) - th_lo)[:, None]
    theta = th_lo[:, None] + half * (x + 1.0)
    # column e is angular panel e + d, prefix e is panel e + d + (d + 2); band k
    # is radial panel k, [0, 2^-n] is radial panel d + n. Blocks: every band on
    # its prefix, band k on the columns e = -k-2 .. -k above its prefix, every
    # column on its Gauss-Jacobi panel, and the corner.
    ck = np.repeat(k, 3)
    ce = np.tile(np.arange(-2, 1), depth) - ck
    keep = ce >= -depth
    bi = np.concatenate((k, ck[keep], depth + np.minimum(1 - e, depth), [2 * depth]))
    bj = np.concatenate((np.maximum(-k - 2, -depth) + depth + e.size, ce[keep] + depth,
                         e + depth, [e.size]))
    arrays = (band_v, band_w, jacobi, rho, w_rho, np.exp(-1j * theta),
              np.sin(0.5 * theta) ** 2, half * g / np.pi, bi, bj)
    for arr in arrays:
        arr.flags.writeable = False
    return _PolarRule(*arrays)


def _graded_polar(s: float) -> _PolarRule:
    """The polar rule for |z| = s: depth d = ceil(log2(1/gap)) + 2, gap = 1 - s."""
    gap = max(1.0 - s, 1e-15)
    return _polar_rule(int(np.ceil(-np.log2(gap))) + 2)


def kernel_lp_norm(mu: RadialMeasure, z, p: float) -> float:
    """L^p(disk) norm of lam -> K(z, lam), 1 <= p < infinity, on the polar rule
    graded toward the singular corner of |z|. Raises OverflowError when the
    norm is not finite in double precision.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    s = float(np.abs(z))
    if s >= 1.0:
        raise ValueError("z must lie in the open disk")
    rule = _graded_polar(s)
    w = rule.cross(s * rule.rho, rule.phase)
    # |K|^p may overflow; a non-finite norm raises below instead of warning
    with np.errstate(over="ignore"):
        vals = np.abs(_resolvent(mu, w) / (1.0 - w)) ** p
        norm = float(np.vdot(rule.cross(rule.w_rho, rule.w_theta), vals) ** (1.0 / p))
    if not np.isfinite(norm):
        raise OverflowError(f"kernel L^{p} norm is not finite in double precision")
    return norm


def pnorm_envelope(mu: RadialMeasure, z, p: float) -> tuple[float, float]:
    """Two-sided envelope for the kernel's L^p norm, 1 < p < infinity:

    lower = (1-|z|^2)^(2/p-1) * integral (1 - r|z|^2)^-1 d nu,
    upper = C_p integral (1-r)^-1 integral_r^1 (1 - t|z|^2)^(2/p-2) dt d nu,
    C_p   = (Gamma(2p-2) / Gamma(p)^2)^(1/p),

    with the inner t-integral in closed form. Requires nu({1}) = 0.

    The upper side: Minkowski's inequality on the double-integral form of K
    bounds the norm by the nu- and t-integrals of the L^p norm of
    (1 - t z conj(lam))^-2, whose p-th power is 2F1(p, p; 2; t^2 |z|^2).
    Euler's transformation writes that as (1 - t^2|z|^2)^(2-2p)
    2F1(2-p, 2-p; 2; t^2|z|^2); the last factor has non-negative
    coefficients, so it is at most its value at 1, Gamma(2p-2)/Gamma(p)^2
    (Gauss, as 2p - 2 > 0). Finally 1 - t^2 |z|^2 >= 1 - t |z|^2 on
    t in [0, 1], and the exponent 2/p - 2 is negative. C_2 = 1. C_p is
    sharp to a few percent: for p in [1.5, 8] and |z| <= 0.999 the norm
    reaches 0.96-0.99 of this side for an atom at 0.999, and 0.99 for nu_1.99.
    """
    if not (1.0 < p < np.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    if mu.mass_at_one:
        raise ValueError("kernel norm envelope requires no atom at 1")
    x = float(np.abs(z)) ** 2
    lower = (1.0 - x) ** (2.0 / p - 1.0) * float(
        np.real(_resolvent(mu, x)))
    # J(u)/u with J(u) = integral_{1-u}^1 (1 - t x)^c dt, c = 2/p - 2, is
    # (1 - x)^c expm1((c+1) log1p(y)) / ((c+1) y), y = u x/(1 - x); log1p(y)/y
    # at c = -1 (p = 2), and (1 - x)^c at y = 0. No form cancels, for any x and
    # u >= 0. Atoms enter as extra nodes of the outer rule.
    c = 2.0 / p - 2.0
    u, wt = _rule_for_gap(mu, 1.0 - x)
    u = np.concatenate((u, [1.0 - a.x for a in mu.atoms]))
    wt = np.concatenate((wt, [a.mass for a in mu.atoms]))
    y = u * x / (1.0 - x)
    lg = np.log1p(y)
    growth = lg if c == -1.0 else np.expm1((c + 1.0) * lg) / (c + 1.0)
    inner = (1.0 - x) ** c * np.divide(growth, y, out=np.ones_like(y), where=y > 0.0)
    upper = float(np.dot(wt, inner))
    c_p = math.exp((math.lgamma(2.0 * p - 2.0) - 2.0 * math.lgamma(p)) / p)
    return lower, c_p * upper


def supnorm_sandwich(mu: RadialMeasure, p: float) -> tuple[float, float, float]:
    """Radial-sweep surrogate for the sup-norm sandwich, 1 < p < 2:

        (1/2) M_p <= max over the sweep of |K(z, .)|_p <= 2/(2-p) M_p,

    M_p = integral (1-r)^(2/p-2) d nu (must be finite). The sweep runs |z|
    through 1 - 2^-j, j <= 14, and 1 - 1e-4.
    """
    if not (1.0 < p < 2.0):
        raise ValueError(f"p must lie in (1, 2), got {p}")
    if mu.mass_at_one:
        raise ValueError("sup-norm sandwich requires no atom at 1")
    moment = singular_moment(mu, 2.0 - 2.0 / p)
    if not moment.is_finite:
        raise ValueError("integral (1-r)^(2/p-2) d nu diverges; sandwich hypothesis fails")
    radii = np.concatenate((1.0 - 2.0 ** (-np.arange(_SWEEP_DEPTH + 1, dtype=float)),
                            [1.0 - 1e-4]))
    best = max(kernel_lp_norm(mu, r, p) for r in radii)
    return best, 0.5 * moment.value, 2.0 / (2.0 - p) * moment.value


# ---------------------------------------------------------------------------
# Calderon-Zygmund constants predicted from the measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CzConstants:
    """Predicted kernel bounds: |K| <= size/|1-w|^order, |dK| <= smooth/|1-w|^(order+1)."""

    order: float
    size: float
    smooth: float
    case: str  # "c=1" | "1<c<2" | "c=2"


@dataclass(frozen=True)
class CzNotApplicable:
    reason: str


def cz_constants(mu: RadialMeasure) -> Union[CzConstants, CzNotApplicable]:
    """Size/smoothness constants per the critical-index trichotomy.

    c = 1: any finite measure, constants (2 nu([0,1]), 6 nu([0,1])), order 2.
    1 < c < 2: needs the (2 - 2/c)-Carleson constant C; order 2/c with
        size = C c 2^(2/c-1)/(2-c), smooth = C c 2^(2/c) (1/(2(2-c)) + 1).
    c = 2: needs Cr = integral (1-r)^-1 d nu and C2 = sup nu([1-t,1])/t; order 1
        with size = Cr + C2, smooth = Cr + 5 C2.
    """
    c = critical_index(mu).c
    if c <= 1.0:
        m = total_mass(mu)
        return CzConstants(2.0, 2.0 * m, 6.0 * m, "c=1")
    if c < 2.0 - 1e-12:
        carl = carleson_constant(mu, 2.0 - 2.0 / c)
        if not carl.is_finite:
            return CzNotApplicable(f"Carleson constant at exponent {2.0 - 2.0 / c:.6g} diverges")
        C = carl.value
        size = C * c * 2.0 ** (2.0 / c - 1.0) / (2.0 - c)
        smooth = C * c * 2.0 ** (2.0 / c) * (1.0 / (2.0 * (2.0 - c)) + 1.0)
        return CzConstants(2.0 / c, size, smooth, "1<c<2")
    rec = reciprocal_gap_integral(mu)
    if not rec.is_finite:
        return CzNotApplicable("hyperbolic integral diverges")
    c2 = carleson_constant(mu, 1.0)
    if not c2.is_finite:
        return CzNotApplicable("1-Carleson constant diverges")
    return CzConstants(1.0, rec.value + c2.value, rec.value + 5.0 * c2.value, "c=2")


def forelli_rudin_check(t_exp: float, c_exp: float, z) -> tuple[float, float]:
    """Quadrature of integral (1-|lam|^2)^t |1-z conj(lam)|^-(2+c+t) dA and the
    target shape (1-|z|^2)^-c; their ratio stays between the closed sides of
    ``forelli_rudin_reports``.
    """
    if t_exp <= -1.0 or c_exp <= 0.0:
        raise ValueError("need t > -1 and c > 0")
    s = float(np.abs(z))
    rule = _graded_polar(s)
    # t enters through the weights and the Gauss-Jacobi panels alone
    rho, w_rho = _polar_radial(rule.band_v, rule.band_w, rule.jacobi, t_exp)
    sr = s * rho
    # |1 - s rho e^(i theta)|^2 = (1 - s rho)^2 + 4 s rho sin^2(theta/2), which
    # does not cancel near theta = 0
    gap2 = (1.0 - sr)[rule.bi, :, None] ** 2 + rule.cross(4.0 * sr, rule.sin2)
    integral = float(np.vdot(rule.cross(w_rho, rule.w_theta),
                             gap2 ** (-0.5 * (2.0 + c_exp + t_exp))))
    return integral, (1.0 - s * s) ** (-c_exp)


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBoundReport:
    """Outcome of checking lhs <= rhs over a sample cloud.

    worst_margin is min (rhs - lhs)/max(rhs, tiny); non-negative means the
    bound held everywhere sampled.
    """

    bound_name: str
    n_samples: int
    worst_margin: float
    witness: tuple
    passed: bool


def bound_report(name: str, lhs: np.ndarray, rhs: np.ndarray, points) -> KernelBoundReport:
    """Check lhs <= rhs pointwise; the report carries the worst margin and its witness."""
    lhs = np.asarray(lhs, dtype=float).ravel()
    rhs = np.asarray(rhs, dtype=float).ravel()
    margins = (rhs - lhs) / np.maximum(rhs, 1e-300)
    k = int(np.argmin(margins))
    witness = tuple(np.asarray(p).ravel()[k] for p in points)
    return KernelBoundReport(name, lhs.size, float(margins[k]), witness, bool(margins[k] >= 0.0))


def sample_boundary_pairs(rng: np.random.Generator, n: int, depth: float = 4.0
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (z, lam) clouds concentrated near the boundary and the diagonal.

    Radii 1 - 10^-U(0.3, depth); angular offsets +-pi 10^-U(0, depth), so that
    |1 - z conj(lam)| sweeps every scale from O(1) down to ~10^-depth, where
    the kernel bounds are tight.
    """
    rz = 1.0 - 10.0 ** (-rng.uniform(0.3, depth, n))
    rl = 1.0 - 10.0 ** (-rng.uniform(0.3, depth, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    dth = np.pi * 10.0 ** (-rng.uniform(0.0, depth, n)) * rng.choice([-1.0, 1.0], n)
    return rz * np.exp(1j * th), rl * np.exp(1j * (th + dth))


def hermitian_report(mu: RadialMeasure, seed: int = 0, n: int = 1000) -> KernelBoundReport:
    """K(z, lam) = conj(K(lam, z)) to 1e-12 relative at seeded pairs."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n, depth=3.0)
    a = eval_kernel(mu, z, lam)
    b = eval_kernel(mu, lam, z)
    scale = np.abs(a) + total_mass(mu)
    return bound_report("hermitian-symmetry", np.abs(a - np.conj(b)), 1e-12 * scale,
                        (z, lam))


def ratio_bound_report(seed: int = 0, n: int = 1000) -> KernelBoundReport:
    """|1 - z conj(lam)| <= 2 |1 - r z conj(lam)| at seeded (z, lam, r)."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n)
    r = rng.uniform(0.0, 1.0, n)
    w = z * np.conj(lam)
    return bound_report("gap-ratio<=2", np.abs(1.0 - w), 2.0 * np.abs(1.0 - r * w),
                        (z, lam, r))


def universal_size_report(mu: RadialMeasure, seed: int = 0, n: int = 1000) -> KernelBoundReport:
    """|K| <= 2 nu([0,1]) / |1 - z conj(lam)|^2 everywhere sampled."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n)
    w = z * np.conj(lam)
    lhs = np.abs(eval_kernel(mu, z, lam))
    rhs = 2.0 * total_mass(mu) / np.abs(1.0 - w) ** 2
    return bound_report("universal-size", lhs, rhs * (1.0 + 1e-12), (z, lam))


def representation_report(mu: RadialMeasure, seed: int = 0, n: int = 100) -> KernelBoundReport:
    """Direct kernel equals the nested double-integral route to
    ``DOUBLE_INTEGRAL_BUDGET`` relative to |K| + nu([0,1])."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n, depth=3.0)
    a = eval_kernel(mu, z, lam)
    b = double_integral_eval(mu, z, lam)
    return bound_report("double-integral-agreement", np.abs(a - b),
                        cns.DOUBLE_INTEGRAL_BUDGET * (np.abs(a) + total_mass(mu)), (z, lam))


def cz_pointwise_reports(mu: RadialMeasure, seed: int = 0, n: int = 1000
                         ) -> list[KernelBoundReport]:
    """Size and smoothness bounds with the predicted constants, boundary-concentrated."""
    pred = cz_constants(mu)
    if isinstance(pred, CzNotApplicable):
        raise ValueError(f"CZ constants not applicable: {pred.reason}")
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n, depth=4.0)
    gap = np.abs(1.0 - z * np.conj(lam))
    slack = 1.0 + 1e-11
    size = bound_report(f"cz-size[{pred.case}]", np.abs(eval_kernel(mu, z, lam)),
                        slack * pred.size / gap ** pred.order, (z, lam))
    smooth = bound_report(f"cz-smooth[{pred.case}]", np.abs(eval_dz(mu, z, lam)),
                          slack * pred.smooth / gap ** (pred.order + 1.0), (z, lam))
    return [size, smooth]


# p range of envelope_reports: the one KERNEL_NORM_BUDGET was checked on
_ENVELOPE_P = (1.05, 8.0)


def envelope_reports(mu: RadialMeasure, seed: int = 0, n: int = 50) -> list[KernelBoundReport]:
    """Kernel norm between its envelope sides, to 1e-4 relative, at seeded (z, p)
    pairs, p log-uniform on ``_ENVELOPE_P``."""
    rng = np.random.default_rng(seed)
    zs = rng.uniform(0.05, 0.98, n)  # norms depend on |z| only
    ps = np.exp(rng.uniform(*np.log(_ENVELOPE_P), n))
    norms = np.array([kernel_lp_norm(mu, z, p) for z, p in zip(zs, ps)])
    los, ups = np.transpose([pnorm_envelope(mu, z, p) for z, p in zip(zs, ps)])
    lo_rep = bound_report("pnorm-envelope-lower", los * (1.0 - 1e-4), norms, (zs, ps))
    up_rep = bound_report("pnorm-envelope-upper", norms, ups * (1.0 + 1e-4), (zs, ps))
    return [lo_rep, up_rep]


# seeded (t, c, |z|) triples per forelli_rudin_reports call
_FORELLI_RUDIN_POINTS = 8


def forelli_rudin_reports(seed: int = 0) -> list[KernelBoundReport]:
    """The Forelli-Rudin integral I between its closed sides, to
    ``KERNEL_NORM_BUDGET`` relative, at seeded (t, c, |z|):

        1/(t+1) <= (1 - |z|^2)^c I <= Gamma(t+1) Gamma(c) / Gamma(a)^2.

    With x = |z|^2, a = (2+t+c)/2 and b = (2+t-c)/2, I = 2F1(a, a; t+2; x)/(t+1),
    which Euler's transformation writes as (1 - x)^-c 2F1(b, b; t+2; x)/(t+1).
    That 2F1 has coefficients (b)_n^2 / ((t+2)_n n!) >= 0, so on [0, 1] it rises
    from 1 to Gauss's value Gamma(t+2) Gamma(c) / Gamma(a)^2 (c > 0). Both sides
    are equal at c = t+2. t is uniform on [-0.9, 3], c on [0.05, 3], and
    |z| = 1 - 10^-U(0.3, 4), at ``_FORELLI_RUDIN_POINTS`` triples.
    """
    n = _FORELLI_RUDIN_POINTS
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-0.9, 3.0, n)
    cs = rng.uniform(0.05, 3.0, n)
    zs = 1.0 - 10.0 ** (-rng.uniform(0.3, 4.0, n))
    scaled = np.array([np.divide(*forelli_rudin_check(t, c, z)) for t, c, z in zip(ts, cs, zs)])
    lower = 1.0 / (ts + 1.0)
    upper = np.array([math.exp(math.lgamma(t + 1.0) + math.lgamma(c)
                               - 2.0 * math.lgamma(0.5 * (2.0 + t + c)))
                      for t, c in zip(ts, cs)])
    slack = cns.KERNEL_NORM_BUDGET
    lo_rep = bound_report("forelli-rudin-lower", lower * (1.0 - slack), scaled, (ts, cs, zs))
    up_rep = bound_report("forelli-rudin-upper", scaled, upper * (1.0 + slack), (ts, cs, zs))
    return [lo_rep, up_rep]
