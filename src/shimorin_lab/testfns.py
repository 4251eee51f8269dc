"""Test-function families on near-boundary boxes and norm-ratio experiments.

The box at scale t is the polar rectangle

    E_t = { rho e^(i theta) : 1 - t <= rho <= 1 - t/2, |theta| <= t/20 },

with exact normalized area t^2 (1 - 3t/4) / (20 pi). The families built on it
(the plain indicator, the kernel-phase-aligned indicator, power-coefficient
series (n+1)^s, and their dyadic-block modification) witness unboundedness or
boundedness of the operator through the ratio ||T f||_q / ||f||_p along dyadic
t-sweeps, including weak-L^q and Bloch endpoint targets.

For the indicator family, T f_t has the explicit expansion

    T f_t(z) = sum_n m_n (n+1) (integral_{E_t} conj(lam)^n dA) z^n

(term-by-term integration of the kernel's uniformly convergent conj(lam)
series over E_t; the box moments are closed-form). Disk norms of T f_t (L^q,
weak-L^q, Bloch) come from the diskquad reducers, which sample a
TaylorFunction by FFT over the uniform angular layer: |T f_t| has angular
scale ~ t, so small t needs ~10^5 angular nodes and per-node kernel quadrature
would be prohibitive. The direct box-quadrature route remains available
(route="direct") and is the only route for the aligned family; it feeds the
same reducers, and series-vs-direct agreement is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import constants as cns
from ._gridquad import gauss_rule
from .diskquad import (
    DiskRule,
    SampledFunction,
    TaylorFunction,
    bloch_seminorm,
    lp_norm,
    weak_norm,
)
from .kernel import KernelBoundReport, bound_report, eval_kernel
from .measure import RadialMeasure
from .multiplier import moment_prefix

__all__ = [
    "C_ZERO",
    "C_ZERO_TILDE",
    "BoundaryBox",
    "box",
    "indicator_testfn",
    "aligned_testfn",
    "power_testfn",
    "block_testfn",
    "realpart_bounds_check",
    "realpart_bound_reports",
    "RatioResult",
    "ratio_experiment",
    "ratio_sweep",
    "sweep_verdict",
    "indicator_response",
    "indicator_response_at",
    "subharmonic_transfer_report",
]

# absolute constants of the real-part lower bounds on the box
C_ZERO = math.sqrt(3.0) / 36.0
C_ZERO_TILDE = 1.0 / 108.0


# ---------------------------------------------------------------------------
# boundary boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryBox:
    """Polar rectangle at boundary scale t with closed-form area."""

    t: float
    at_validity_edge: bool = False  # t exactly at the validity threshold 1/2

    @property
    def rho_range(self) -> tuple[float, float]:
        return 1.0 - self.t, 1.0 - self.t / 2.0

    @property
    def theta_half_width(self) -> float:
        return self.t / 20.0

    @property
    def area(self) -> float:
        t = self.t
        return t * t * (1.0 - 0.75 * t) / (20.0 * math.pi)

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        rho = np.abs(z)
        th = np.abs(np.angle(z))
        lo, hi = self.rho_range
        return (rho >= lo) & (rho <= hi) & (th <= self.theta_half_width)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo, hi = self.rho_range
        rho = rng.uniform(lo, hi, n)
        th = rng.uniform(-self.theta_half_width, self.theta_half_width, n)
        return rho * np.exp(1j * th)

    def gauss_nodes(self, n_rho: int = 24, n_theta: int = 8
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Tensor Gauss rule aligned to the box; weights sum to the exact area."""
        x, w = gauss_rule(n_rho)
        lo, hi = self.rho_range
        rho = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        w_rho = 0.5 * (hi - lo) * w * rho  # area factor rho d rho
        x2, w2 = gauss_rule(n_theta)
        ht = self.theta_half_width
        th = ht * x2
        w_th = ht * w2 / math.pi
        nodes = rho[:, None] * np.exp(1j * th)[None, :]
        weights = w_rho[:, None] * w_th[None, :]
        return nodes.ravel(), weights.ravel()

    def quadrature_area(self, n_rho: int = 24, n_theta: int = 8) -> float:
        """Independent area oracle: integrate the indicator over its support."""
        _, w = self.gauss_nodes(n_rho, n_theta)
        return float(w.sum())

    def conj_moments(self, n) -> np.ndarray:
        """integral over E_t of conj(lam)^n dA(lam), closed form, vectorized in n."""
        n = np.atleast_1d(np.asarray(n, dtype=float))
        lo, hi = self.rho_range
        ht = self.theta_half_width
        ang = np.where(n == 0, 2.0 * ht, 2.0 * np.sin(n * ht) / np.where(n == 0, 1.0, n))
        rad = (hi ** (n + 2.0) - lo ** (n + 2.0)) / (n + 2.0)
        return ang * rad / math.pi


def box(t: float) -> BoundaryBox:
    """Box at scale t; valid for 0 < t < 1/2, t = 1/2 accepted with a flag."""
    if not (0.0 < t <= 0.5):
        raise ValueError(f"t must lie in (0, 1/2], got {t}")
    return BoundaryBox(t, at_validity_edge=(t == 0.5))


# ---------------------------------------------------------------------------
# test-function families
# ---------------------------------------------------------------------------

def indicator_testfn(t: float) -> SampledFunction:
    """Indicator of the box at scale t; L^p norms are area^(1/p) exactly."""
    b = box(t)
    return SampledFunction(lambda z: b.contains(z).astype(complex))


def aligned_testfn(mu: RadialMeasure, t: float, z_t: complex | None = None,
                   ) -> SampledFunction:
    """Unimodular kernel-phase alignment conj(K(z_t, .))/|K(z_t, .)| on the box.

    Kernel non-vanishing is checked at the box's Gauss nodes before returning.
    """
    b = box(t)
    if z_t is None:
        z_t = math.sqrt(1.0 - t)
    if not bool(b.contains(z_t)):
        raise ValueError(f"z_t = {z_t} does not lie in the box at t = {t}")
    nodes, _ = b.gauss_nodes()
    kvals = eval_kernel(mu, np.full(nodes.shape, z_t, dtype=complex), nodes)
    if np.any(np.abs(kvals) == 0.0):
        raise ValueError("kernel vanishes on the box; phase alignment undefined")

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        inside = b.contains(z)
        out = np.zeros(z.shape, dtype=complex)
        if np.any(inside):
            k = eval_kernel(mu, np.full(int(inside.sum()), z_t, dtype=complex), z[inside])
            out[inside] = np.conj(k) / np.abs(k)
        return out

    return SampledFunction(evaluate)


def power_testfn(t_exp: float, N: int) -> TaylorFunction:
    """Coefficients (n+1)^t_exp, truncated at N."""
    n = np.arange(N + 1, dtype=float)
    return TaylorFunction.from_array((n + 1.0) ** t_exp)


def block_testfn(mu: RadialMeasure, t_exp: float, N: int) -> TaylorFunction:
    """Block-modified coefficients a_n = (m_(2^k)/m_n) (n+1)^t_exp on [2^k, 2^(k+1)).

    Within each block a_m/a_n <= 2^(t_exp+1); the operator maps these to
    m_(2^k) (n+1)^t_exp exactly (algebraic cancellation).
    """
    m = moment_prefix(mu, N).values
    n = np.arange(N + 1)
    heads = np.zeros(N + 1)
    heads[0] = m[0]
    k = 0
    while 2 ** k <= N:
        blk = slice(2 ** k, min(2 ** (k + 1), N + 1))
        heads[blk] = m[2 ** k]
        k += 1
    return TaylorFunction.from_array(heads / m * (n + 1.0) ** t_exp)


# ---------------------------------------------------------------------------
# real-part lower bounds on the box
# ---------------------------------------------------------------------------

def realpart_bounds_check(z, lam, r, t: float) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Both sides of the four real-part lower bounds at (z, lam in E_t, r in [0,1]).

    Returns {name: (lower_bound, actual_real_part)}; the asserted inequality is
    lower_bound <= actual. The near-boundary strengthening (r >= 1-t) appears
    when any sampled r lies there.
    """
    z, lam, r = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                    np.asarray(lam, dtype=complex),
                                    np.asarray(r, dtype=float))
    lb = np.conj(lam)
    A = 1.0 - z * lb
    B = 1.0 - r * z * lb
    gap = (1.0 - r) + t
    out = {
        "re-kernel-integrand": (C_ZERO / (t * gap), np.real(1.0 / (A * B))),
        "re-dz-first": (C_ZERO_TILDE / (t * t * gap), np.real(lb / (A * A * B))),
        "re-dz-second": (C_ZERO_TILDE / (t * gap * gap), np.real(lb / (A * B * B))),
    }
    near = r >= 1.0 - t
    if np.any(near):
        out["re-kernel-integrand-near1"] = (
            np.full(int(near.sum()), C_ZERO / (2.0 * t * t)),
            np.real(1.0 / (A * B))[near],
        )
    return out


def realpart_bound_reports(seed: int = 0, n_per_t: int = 2000,
                           t_values: Iterable[float] = (0.4, 0.2, 0.1, 0.05, 0.025),
                           strict: bool = True) -> list[KernelBoundReport]:
    """Seeded verification of all four lower bounds across the stated t-grid."""
    rng = np.random.default_rng(seed)
    reports = []
    for t in t_values:
        b = box(t)
        z = b.sample(rng, n_per_t)
        lam = b.sample(rng, n_per_t)
        r = rng.uniform(0.0, 1.0, n_per_t)
        r[: n_per_t // 4] = rng.uniform(1.0 - t, 1.0, n_per_t // 4)  # exercise the near-1 case
        near = r >= 1.0 - t
        witnesses = {True: (z[near], lam[near], r[near]), False: (z, lam, r)}
        for name, (lower, actual) in realpart_bounds_check(z, lam, r, t).items():
            pts = witnesses[name.endswith("near1")]
            reports.append(bound_report(f"{name}[t={t}]", lower, actual, pts, strict))
    return reports


# ---------------------------------------------------------------------------
# the indicator response T f_t and its polar-grid norms
# ---------------------------------------------------------------------------

def indicator_response(mu: RadialMeasure, t: float, tol: float = 1e-14
                       ) -> TaylorFunction:
    """Taylor coefficients of T f_t for the box indicator at scale t."""
    b = box(t)
    N = int(math.ceil(70.0 / t))
    decay = -math.log1p(-t / 2.0)
    while (N + 1.0) * math.exp(-N * decay) > tol and N < 5_000_000:
        N *= 2
    n = np.arange(N + 1)
    m = moment_prefix(mu, N).values
    coeffs = m * (n + 1.0) * b.conj_moments(n)
    return TaylorFunction.from_array(coeffs)


def indicator_response_at(mu: RadialMeasure, t: float, z, route: str = "series",
                          n_rho: int = 32, n_theta: int = 12) -> complex:
    """T f_t(z) by the series route or by direct box quadrature of the kernel."""
    if route == "series":
        return complex(indicator_response(mu, t)(complex(z)))
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    nodes, weights = box(t).gauss_nodes(n_rho, n_theta)
    k = eval_kernel(mu, np.full(nodes.shape, complex(z)), nodes)
    return complex(np.dot(weights, k))


def _series_rule(t: float | None = None) -> DiskRule:
    """Polar rule for a polynomial of angular scale ~ t (at least 64/t angles).

    The angular count is a power of two, at least 4096; radial panels refine
    dyadically toward the boundary.
    """
    target = 4096 if t is None else max(4096, int(64.0 / t))
    return DiskRule.make(30, 12, 1 << int(math.ceil(math.log2(target))))


# ---------------------------------------------------------------------------
# ratio experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioResult:
    param: float
    f_norm: float
    tf_value: float  # ||T f||_q, or the weak/Bloch substitute

    @property
    def ratio(self) -> float:
        return self.tf_value / self.f_norm


def sweep_verdict(values: Iterable[float]) -> str:
    """Unified growth-vs-bounded call on a dyadic sweep.

    "growing" requires the last SWEEP_POINTS values to be non-decreasing AND
    the per-step increments not to decay (mean successive-increment ratio >=
    SWEEP_INCREMENT_RATIO): log-type growth has constant increments per dyadic
    step, while bounded sweeps converge with geometrically decaying increments.
    """
    v = np.asarray(list(values), dtype=float)
    k = cns.SWEEP_POINTS
    if v.size < k:
        return "plateaued"
    tail = v[-k:]
    if not np.all(np.diff(tail) >= -cns.SWEEP_SLACK * tail[:-1]):
        return "plateaued"
    inc = np.diff(tail)
    if np.any(inc <= 0.0):
        return "plateaued"
    mean_ratio = float(np.mean(inc[1:] / inc[:-1]))
    return "growing" if mean_ratio >= cns.SWEEP_INCREMENT_RATIO else "plateaued"


def ratio_experiment(mu: RadialMeasure, p: float, q: float, family: str,
                     param: float, *, weak: bool = False, route: str | None = None,
                     n_terms: int = 4096, rule: DiskRule | None = None,
                     z_t: complex | None = None) -> RatioResult:
    """||T f||_q / ||f||_p for one member of a test-function family.

    family "indicator"/"aligned": param is the box scale t; "power"/"block":
    param is the coefficient exponent. q = inf uses the Bloch seminorm of T f
    (the BMO-equivalent target); weak=True uses the weak-L^q quasi-norm.
    Indicator norms default to the series route; "direct" forces box
    quadrature (only feasible at single points / small rules, and the only
    route for the aligned family).
    """
    param = float(param)
    if family in ("indicator", "aligned"):
        f_norm = box(param).area ** (1.0 / p)
        if family == "aligned" or route == "direct":
            tf = _direct_response(mu, family, param, z_t)
            if q == math.inf:
                raise ValueError("Bloch target is only wired to the series route")
            if rule is None:
                rule = DiskRule.make()
        else:
            tf, rule = indicator_response(mu, param), _series_rule(param)
    elif family in ("power", "block"):
        f = power_testfn(param, n_terms) if family == "power" else \
            block_testfn(mu, param, n_terms)
        m = moment_prefix(mu, f.degree).values
        tf, rule = TaylorFunction.from_array(m * f.coefficients), _series_rule()
        f_norm = lp_norm(f, p, rule)
    else:
        raise ValueError(f"unknown family {family!r}")
    if q == math.inf:
        val = bloch_seminorm(SampledFunction(tf, tf.derivative()),
                             rule.radial_depth, rule.angular_count)
    else:
        val = weak_norm(tf, q, rule) if weak else lp_norm(tf, q, rule)
    return RatioResult(param, f_norm, val)


def _direct_response(mu: RadialMeasure, family: str, t: float, z_t):
    """T f on the disk by box quadrature of the kernel, for evaluation at nodes."""
    f = indicator_testfn(t) if family == "indicator" else aligned_testfn(mu, t, z_t)
    nodes, weights = box(t).gauss_nodes(32, 12)
    fvals = f(nodes)

    def tf(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for lo in range(0, flat.size, 512):
            sl = slice(lo, lo + 512)
            k = eval_kernel(mu, flat[sl][:, None], nodes[None, :])
            out[sl] = k @ (weights * fvals)
        return out.reshape(z.shape)

    return tf


def ratio_sweep(mu: RadialMeasure, p: float, q: float, family: str,
                t_values: Iterable[float], **kwargs
                ) -> tuple[list[RatioResult], str]:
    """Ratio experiment over a dyadic t-sweep plus the unified growth verdict."""
    results = [ratio_experiment(mu, p, q, family, t, **kwargs) for t in t_values]
    return results, sweep_verdict([r.ratio for r in results])


def subharmonic_transfer_report(mu: RadialMeasure, t: float, q: float,
                                strict: bool = True) -> KernelBoundReport:
    """Mean-value transfer |T f(z_t)|^q <= (16/t^2) integral |T f|^q dA, indicator family."""
    z_t = math.sqrt(1.0 - t)
    tf = indicator_response(mu, t)
    lhs = abs(complex(tf(z_t))) ** q
    rhs = (16.0 / (t * t)) * lp_norm(tf, q, _series_rule(t)) ** q
    return bound_report(f"subharmonic-transfer[t={t}]", np.array([lhs]),
                        np.array([rhs]), (np.array([z_t]),), strict)
