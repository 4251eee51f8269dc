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
a catalog measure they cross-check both.

L^p norms of K(z, .) use a dedicated polar rule sized to the gap 1 - |z| (a
uniform angular grid would need ~1/(1-|z|) nodes); by rotation invariance the
norm depends on |z| only. Radial panels halve toward rho = 1 down to
1 - 2^-d, d = ceil(log2(1/gap)) + 2, then one last panel; angular panels
double away from one Gauss panel on [0, gap/16]. The error reached on nu_alpha
is stated with ``constants.KERNEL_NORM_BUDGET``. The Forelli-Rudin check
shares this mesh, with a Gauss-Jacobi last radial panel carrying (1 - rho)^t.

The module also predicts the Calderon-Zygmund size and
smoothness constants from the measure's critical index and verifies every
pointwise/norm bound on seeded point clouds, reporting margins and witnesses.
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
    resolvent_sum,
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


# Gauss order per panel of the rule graded below a gap
_GAP_RULE_ORDER = 8


def _rule_for_gap(mu: RadialMeasure, min_gap: float):
    depth0 = int(min(120, max(40, np.ceil(-np.log2(max(min_gap, 1e-30))) + 20)))
    return _cached_rule(mu, depth0, _GAP_RULE_ORDER)


# Gauss order per panel of the nested routes' inner t-integral
_INNER_ORDER = 12
# supnorm_sandwich sweeps |z| through 1 - 2^-j, j <= _SWEEP_DEPTH
_SWEEP_DEPTH = 14


def _quadrature_resolvent(mu: RadialMeasure, w: np.ndarray, derivative: bool) -> np.ndarray:
    """Density part of integral (1 - r w)^-1 d nu (or of integral r (1 - r w)^-2 d nu
    with ``derivative``) on mu's pushforward rule at the default depths, for a
    flat complex array w. The tests hold the components' resolvents to this
    independent route; ``_resolvent`` does not call it.
    """
    return resolvent_sum(*_cached_rule(mu), w, derivative)


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
    c = np.concatenate((c, ((wt * frac)[:, None] * gw).ravel()))
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


def _polar_radii(gap: float) -> np.ndarray:
    """Radial breaks 1 - 2^-k, k = 0..d, with d = ceil(log2(1/gap)) + 2: every
    panel of the polar rule but the last one, [1 - 2^-d, 1]."""
    depth = int(np.ceil(-np.log2(gap))) + 2
    return 1.0 - 2.0 ** (-np.arange(depth + 1, dtype=float))


def _polar_angles(gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Angular nodes on [0, pi], one Gauss panel on [0, gap/16] and panels
    doubling from there, weights divided by pi (the integrand is even in theta)."""
    breaks = np.concatenate(([0.0], geometric_breaks(gap / 16.0, np.pi)))
    theta, w = panel_rule(breaks, _POLAR_ORDER)
    return theta, w / np.pi


def _graded_polar(s: float):
    """Polar rule resolving |1 - s*rho*e^(i theta)|-type concentration at theta=0.

    Returns (rho, w_rho, theta, w_theta) with the area factors folded in so that
    integral g dA ~ sum_ij w_rho[i] w_theta[j] g(rho_i e^(i theta_j)) for g even
    in theta. Both meshes are sized to the gap 1 - s: radial panels halve
    toward rho = 1 down to a last panel a few times narrower than the gap, and
    angular panels double away from a first panel [0, gap/16].
    """
    gap = max(1.0 - s, 1e-15)
    rho, g = panel_rule(np.append(_polar_radii(gap), 1.0), _POLAR_ORDER)
    return (rho, g * 2.0 * rho, *_polar_angles(gap))


def kernel_lp_norm(mu: RadialMeasure, z, p: float) -> float:
    """L^p(disk) norm of lam -> K(z, lam), 1 <= p < infinity, on a
    boundary-graded polar rule adapted to |z|. Raises OverflowError when the
    norm is not finite in double precision.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    s = float(np.abs(z))
    if s >= 1.0:
        raise ValueError("z must lie in the open disk")
    rho, w_rho, theta, w_theta = _graded_polar(s)
    w = s * rho[:, None] * np.exp(-1j * theta)[None, :]
    # |K|^p may overflow; a non-finite norm raises below instead of warning
    with np.errstate(over="ignore"):
        vals = np.abs(_resolvent(mu, w) / (1.0 - w)) ** p
        norm = float((w_rho @ vals @ w_theta) ** (1.0 / p))
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
    c = 2.0 / p - 2.0

    def inner_over_u(u: np.ndarray) -> np.ndarray:
        # J(u)/u with J(u) = integral_{1-u}^{1} (1 - t x)^c dt, stable for small u
        u = np.asarray(u, dtype=float)
        if x == 0.0:
            return np.ones_like(u)
        y = u * x / (1.0 - x)
        out = np.empty_like(u)
        tiny = y < 1e-6
        base = (1.0 - x) ** c
        out[tiny] = base * (1.0 + 0.5 * c * y[tiny])
        big = ~tiny
        if np.any(big):
            ub = u[big]
            if c == -1.0:
                J = np.log1p(ub * x / (1.0 - x)) / x
            else:
                J = (((1.0 - x) + ub * x) ** (c + 1.0) - (1.0 - x) ** (c + 1.0)) / (x * (c + 1.0))
            out[big] = J / ub
        return out

    u, wt = _rule_for_gap(mu, 1.0 - x)
    upper = float(np.dot(wt, inner_over_u(u)))
    for a in mu.atoms:
        upper += a.mass * float(inner_over_u(np.array([1.0 - a.x]))[0])
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
    target shape (1-|z|^2)^-c; their ratio must stay bounded over a |z|-sweep.
    """
    if t_exp <= -1.0 or c_exp <= 0.0:
        raise ValueError("need t > -1 and c > 0")
    s = float(np.abs(z))
    gap = max(1.0 - s, 1e-15)
    breaks = _polar_radii(gap)
    rho, g = panel_rule(breaks, _POLAR_ORDER)
    g *= (1.0 - rho * rho) ** t_exp
    # the last panel [1 - h, 1] in v = 1 - rho carries v^t exactly (Gauss-Jacobi),
    # (1 - rho^2)^t = v^t (2 - v)^t
    h = 1.0 - breaks[-1]
    x, gj = jacobi_rule(_POLAR_ORDER, t_exp)
    v = h * x
    rho = np.concatenate((rho, 1.0 - v))
    w_rho = np.concatenate((g, h ** (t_exp + 1.0) * gj * (2.0 - v) ** t_exp)) * 2.0 * rho
    theta, w_theta = _polar_angles(gap)
    w = s * rho[:, None] * np.exp(-1j * theta)[None, :]
    vals = np.abs(1.0 - w) ** -(2.0 + c_exp + t_exp)
    integral = float(w_rho @ vals @ w_theta)
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
    """Direct kernel equals the nested double-integral route to 1e-7 relative."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n, depth=3.0)
    a = eval_kernel(mu, z, lam)
    b = double_integral_eval(mu, z, lam)
    return bound_report("double-integral-agreement", np.abs(a - b),
                        1e-7 * (np.abs(a) + total_mass(mu)), (z, lam))


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
