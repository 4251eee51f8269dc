"""Test-function families on near-boundary boxes and norm-ratio experiments.

The box at scale t is the polar rectangle

    E_t = { rho e^(i theta) : 1 - t <= rho <= 1 - t/2, |theta| <= t/20 },

with exact normalized area t^2 (1 - 3t/4) / (20 pi). The families built on it
(the plain indicator, the kernel-phase-aligned indicator, power-coefficient
series (n+1)^s, and their dyadic-block modification) witness unboundedness or
boundedness of the operator through the ratio ||T f||_q / ||f||_p along dyadic
t-sweeps, including weak-L^q and Bloch endpoint targets.

For both box families f_t, T f_t has the explicit expansion

    T f_t(z) = sum_n m_n (n+1) (integral_{E_t} f_t conj(lam)^n dA) z^n

(term-by-term integration of the kernel's uniformly convergent conj(lam)
series over E_t). The box moments are closed-form for the indicator and a
tensor Gauss sum on the box for the aligned function. Box quadrature of the
kernel itself (``_direct_response``) is the independent route the tests hold
both expansions to.

Strong norms at an even integer exponent q = 2k of a polynomial (T f_t, and
f and T f of the power and block families) are exact coefficient sums:
||g||_2k^2k = sum_n |d_n|^2 / (n + 1), d the coefficients of g^k, a k-fold
FFT convolution (``_parseval_area``), at O(kN log kN) whatever t is. Weak-L^q,
Bloch, odd or fractional q, and any SampledFunction stay on the diskquad
sampler, which evaluates a TaylorFunction by FFT on a polar grid: |T f_t| has
angular scale ~ t, so small t needs ~10^5 angular nodes.
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
    "aligned_response",
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
    """Box at scale t, for 0 < t <= 1/2."""
    if not (0.0 < t <= 0.5):
        raise ValueError(f"t must lie in (0, 1/2], got {t}")
    return BoundaryBox(t)


# ---------------------------------------------------------------------------
# test-function families
# ---------------------------------------------------------------------------

def indicator_testfn(t: float) -> SampledFunction:
    """Indicator of the box at scale t; L^p norms are area^(1/p) exactly."""
    b = box(t)
    return SampledFunction(lambda z: b.contains(z).astype(complex))


def aligned_testfn(mu: RadialMeasure, t: float) -> SampledFunction:
    """Unimodular kernel-phase alignment conj(K(z_t, .))/|K(z_t, .)| on the box.

    z_t = sqrt(1 - t) is the box's point on the real axis: 1 - t <= z_t <=
    1 - t/2 for every t in (0, 1/2]. Kernel non-vanishing is checked at the
    box's Gauss nodes before returning.
    """
    b = box(t)
    z_t = math.sqrt(1.0 - t)
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
                           t_values: Iterable[float] = (0.4, 0.2, 0.1, 0.05, 0.025)
                           ) -> list[KernelBoundReport]:
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
            reports.append(bound_report(f"{name}[t={t}]", lower, actual, pts))
    return reports


# ---------------------------------------------------------------------------
# the box responses T f_t and their polar-grid norms
# ---------------------------------------------------------------------------

# The series is cut at the first N = ceil(70/t) 2^k with (N + 1) (1 - t/2)^N
# below this; it bounds |c_N| / (m_N area), as |f_t| <= 1, |lam| <= 1 - t/2.
_SERIES_TOL = 1e-14
# (radial, angular) Gauss orders of the box rule of the aligned moments and of
# _direct_response, so that the series and its cross-check share one integral
_BOX_RULE = (32, 12)
# indices per block of the aligned moments (a 3 MB power table on 384 nodes)
_MOMENT_ROWS = 1 << 9
# degree of the power and block test polynomials
_N_TERMS = 4096


def _box_response(mu: RadialMeasure, t: float, box_moments) -> TaylorFunction:
    """Taylor coefficients m_n (n+1) M_n of T f_t at scale t, where
    ``box_moments(n)`` gives M_n = integral_{E_t} f_t conj(lam)^n dA on
    n = 0, 1, ..., N."""
    N = int(math.ceil(70.0 / t))
    decay = -math.log1p(-t / 2.0)
    while (N + 1.0) * math.exp(-N * decay) > _SERIES_TOL and N < 5_000_000:
        N *= 2
    n = np.arange(N + 1)
    m = moment_prefix(mu, N).values
    coeffs = m * (n + 1.0) * box_moments(n)
    return TaylorFunction.from_array(coeffs)


def indicator_response(mu: RadialMeasure, t: float) -> TaylorFunction:
    """Taylor coefficients of T f_t for the box indicator at scale t."""
    return _box_response(mu, t, box(t).conj_moments)


def aligned_response(mu: RadialMeasure, t: float) -> TaylorFunction:
    """Taylor coefficients of T f_t for the kernel-phase-aligned box function.

    M_n = sum_i w_i f_t(lam_i) conj(lam_i)^n on the ``_BOX_RULE`` nodes, in
    blocks of indices lo + k, k < _MOMENT_ROWS: one product of the table
    conj(lam)^k with the vector w f_t conj(lam)^lo, so no (N x nodes) array
    is built.
    """
    nodes, weights = box(t).gauss_nodes(*_BOX_RULE)
    lam = np.conj(nodes)
    wf = weights * aligned_testfn(mu, t)(nodes)
    table = lam ** np.arange(_MOMENT_ROWS)[:, None]

    def moments(n):
        blocks = [table @ (wf * lam ** lo) for lo in range(0, n.size, _MOMENT_ROWS)]
        return np.concatenate(blocks)[:n.size]

    return _box_response(mu, t, moments)


def _series_rule(t: float | None = None) -> DiskRule:
    """Polar rule for a polynomial of angular scale ~ t (at least 64/t angles),
    or, without t, for the degree-``_N_TERMS`` family polynomials (more angles
    than the degree, so |f|^2 does not alias on the circle).

    The angular count is a power of two, at least 4096; radial panels refine
    dyadically toward the boundary.
    """
    target = _N_TERMS + 1 if t is None else max(4096, int(64.0 / t))
    return DiskRule.make(30, 12, 1 << int(math.ceil(math.log2(target))))


def _parseval_area(tf: TaylorFunction, k: int = 1) -> float:
    """integral |tf|^(2k) dA = sum |d_n|^2 / (n + 1), d the coefficients of tf^k.

    Parseval's identity on tf^k, exact up to rounding. For k > 1, d is the
    k-fold self-convolution of tf's coefficients, by FFT at the next power of
    two >= k N + 1 (real FFT for real coefficients); k = 1 is the direct sum.
    """
    c = tf.coefficients
    if k > 1:
        size = k * (c.size - 1) + 1
        L = 1 << (size - 1).bit_length()
        if not c.imag.any():
            c = np.fft.irfft(np.fft.rfft(c.real, L) ** k, L)[:size]
        else:
            c = np.fft.ifft(np.fft.fft(c, L) ** k)[:size]
    return float(np.sum((c.real ** 2 + c.imag ** 2) / np.arange(1.0, c.size + 1.0)))


def _even_half(q: float) -> int:
    """q / 2 when q is an even integer >= 2, else 0."""
    return int(q) // 2 if q >= 2.0 and q % 2.0 == 0.0 else 0


def _strong_norm(f: TaylorFunction, q: float, rule: DiskRule) -> float:
    """||f||_q: ``_parseval_area`` on f^(q/2) for an even integer q, else the
    polar sampler on ``rule``; OverflowError when |f|^q overflows."""
    k = _even_half(q)
    if not k:
        return lp_norm(f, q, rule)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _parseval_area(f, k) ** (1.0 / q)
    if not math.isfinite(norm):
        raise OverflowError(f"L^{q} norm is not finite in double precision")
    return norm


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
                     param: float, *, weak: bool = False) -> RatioResult:
    """||T f||_q / ||f||_p for one member of a test-function family.

    family "indicator"/"aligned": param is the box scale t, and T f is the
    box response series; "power"/"block": param is the coefficient exponent
    of a polynomial of degree ``_N_TERMS``. q = inf uses the Bloch seminorm of
    T f (the BMO-equivalent target); weak=True uses the weak-L^q quasi-norm.
    Strong norms of a polynomial at an even integer exponent are Parseval
    sums of its power (``_strong_norm``); the other targets are sampled on
    the polar rule.
    """
    param = float(param)
    if family in ("indicator", "aligned"):
        response = indicator_response if family == "indicator" else aligned_response
        f_norm = box(param).area ** (1.0 / p)
        tf, rule = response(mu, param), _series_rule(param)
    elif family in ("power", "block"):
        f = power_testfn(param, _N_TERMS) if family == "power" else \
            block_testfn(mu, param, _N_TERMS)
        m = moment_prefix(mu, f.degree).values
        tf, rule = TaylorFunction.from_array(m * f.coefficients), _series_rule()
        f_norm = _strong_norm(f, p, rule)
    else:
        raise ValueError(f"unknown family {family!r}")
    if q == math.inf:
        val = bloch_seminorm(SampledFunction(tf, tf.derivative()),
                             rule.radial_depth, rule.angular_count)
    else:
        val = weak_norm(tf, q, rule) if weak else _strong_norm(tf, q, rule)
    return RatioResult(param, f_norm, val)


def _direct_response(mu: RadialMeasure, family: str, t: float):
    """T f on the disk by box quadrature of the kernel, for evaluation at points:
    the independent route the box response series are held to."""
    f = indicator_testfn(t) if family == "indicator" else aligned_testfn(mu, t)
    nodes, weights = box(t).gauss_nodes(*_BOX_RULE)
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


def subharmonic_transfer_report(mu: RadialMeasure, t: float, q: float) -> KernelBoundReport:
    """Mean-value transfer |T f(z_t)|^q <= (16/t^2) integral |T f|^q dA, indicator family.

    At an even integer q the area integral is Parseval's sum over the Taylor
    coefficients of (T f)^(q/2) (``_parseval_area``), exact; other q run
    ``lp_norm`` on the series rule.
    """
    z_t = math.sqrt(1.0 - t)
    tf = indicator_response(mu, t)
    lhs = abs(complex(tf(z_t))) ** q
    k = _even_half(q)
    area = _parseval_area(tf, k) if k else lp_norm(tf, q, _series_rule(t)) ** q
    rhs = (16.0 / (t * t)) * area
    return bound_report(f"subharmonic-transfer[t={t}]", np.array([lhs]),
                        np.array([rhs]), (np.array([z_t]),))
