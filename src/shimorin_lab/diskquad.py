"""Quadrature and norm estimation on the unit disk under normalized area measure.

Rules are tensor products of a radial mesh on [0, 1) (geometric panels graded
toward the boundary, Gauss-Legendre on each, the 2*rho area factor folded into
the weights) with a uniform angular grid, normalized so that the constant 1
integrates to 1. Besides plain integrals and L^p norms this module supplies
the weak-L^q quasi-norm via the distribution function and the Bloch seminorm
|f(0)| + sup (1 - |z|^2) |f'(z)| on a boundary-refining grid.

Every norm reads its function through one polar-grid sampler, which yields
blocks of radii with the function's values on the M-point circle of each.
A TaylorFunction is summed by FFT: its coefficients scaled by rho^n and folded
mod M are the circle's discrete Fourier coefficients, so a polynomial of
degree N costs O(N + M log M) per radius whatever N is relative to M. Any
other callable is evaluated at the nodes rho e^(2 pi i k / M). The reducers
accumulate radius by radius: the radial weight times the mean over the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import constants as cns
from ._gridquad import panel_rule

__all__ = [
    "DiskRule",
    "SampledFunction",
    "TaylorFunction",
    "NonFiniteSampleError",
    "QuadratureNonconvergence",
    "integrate",
    "lp_norm",
    "distribution_function",
    "weak_norm",
    "bloch_seminorm",
]

# element cap on one sampled block (and on one callback invocation)
_CHUNK = 1 << 19
# geometric tau grid of the weak-L^q quasi-norm
_TAU_POINTS = 200


class NonFiniteSampleError(RuntimeError):
    """A sample came out non-finite; carries the offending node."""

    def __init__(self, node: complex):
        super().__init__(f"non-finite sample at node {node}")
        self.node = node


@dataclass(frozen=True)
class SampledFunction:
    """Function on the open disk: vectorized evaluation plus optional derivative."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.evaluate(z)

    @classmethod
    def constant(cls, c: complex) -> "SampledFunction":
        return cls(lambda z: np.full(np.shape(z), c, dtype=complex),
                   lambda z: np.zeros(np.shape(z), dtype=complex))


@dataclass(frozen=True, eq=False)
class TaylorFunction:
    """Analytic function represented by a finite Taylor coefficient sequence.

    ``coefficients`` is a read-only complex array; build it with from_array.
    """

    coefficients: np.ndarray

    @classmethod
    def from_array(cls, coeffs) -> "TaylorFunction":
        arr = np.array(coeffs, dtype=complex).ravel()
        if arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be a non-empty finite sequence")
        arr.flags.writeable = False
        return cls(arr)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, z) -> np.ndarray | complex:
        z = np.asarray(z, dtype=complex)
        c = self.coefficients
        out = np.full(z.shape, c[-1], dtype=complex)
        for a in c[-2::-1]:
            out = out * z + a
        return complex(out) if out.ndim == 0 else out

    def derivative(self) -> "TaylorFunction":
        c = self.coefficients
        if c.size == 1:
            return TaylorFunction.from_array([0.0])
        return TaylorFunction.from_array(c[1:] * np.arange(1, c.size))

    @classmethod
    def truncate_series(cls, coeff_fn, radius: float, tol: float = 1e-12,
                        max_terms: int = 200_000) -> "TaylorFunction":
        """Truncate a_n = coeff_fn(n) so the geometric tail at ``radius`` is < tol."""
        if not (0.0 < radius < 1.0):
            raise ValueError("truncation radius must lie in (0, 1)")
        block, coeffs, n0 = 256, [], 0
        while n0 < max_terms:
            n = np.arange(n0, n0 + block)
            a = np.asarray(coeff_fn(n), dtype=complex)
            coeffs.append(a)
            bound = np.abs(a[-1]) * radius ** n[-1] / (1.0 - radius)
            if bound < tol:
                break
            n0 += block
        return cls.from_array(np.concatenate(coeffs))


def _radial_breaks(depth: int) -> np.ndarray:
    pts = 1.0 - 2.0 ** (-np.arange(depth + 1, dtype=float))
    return np.concatenate((pts, [1.0]))


@dataclass(frozen=True)
class DiskRule:
    """Tensor rule: graded radial nodes x uniform angles, total weight 1."""

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int
    radial_depth: int
    order: int

    @classmethod
    def make(cls, radial_depth: int = 30, order: int = 10,
             angular_count: int = 256) -> "DiskRule":
        rho, g = panel_rule(_radial_breaks(radial_depth), order)
        return cls(rho, g * 2.0 * rho, angular_count, radial_depth, order)

    @property
    def refined(self) -> "DiskRule":
        """The rule's refinement successor (Cauchy differences estimate error)."""
        return DiskRule.make(self.radial_depth + 5, self.order + 2,
                             2 * self.angular_count)

    @property
    def total_weight(self) -> float:
        return float(self.radial_weights.sum())

    def node_count(self) -> int:
        return self.radial_nodes.size * self.angular_count

    def iter_blocks(self):
        """Yield (nodes, weights) blocks covering the rule, memory-capped."""
        M = self.angular_count
        phase = _circle(M)
        rows = max(1, _CHUNK // M)
        for lo in range(0, self.radial_nodes.size, rows):
            rho = self.radial_nodes[lo:lo + rows]
            w = self.radial_weights[lo:lo + rows]
            nodes = rho[:, None] * phase[None, :]
            weights = np.broadcast_to((w / M)[:, None], nodes.shape)
            yield nodes.ravel(), weights.ravel()


def _circle(M: int) -> np.ndarray:
    return np.exp(1j * (2.0 * np.pi * np.arange(M) / M))


def _sample(f, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(nodes))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise NonFiniteSampleError(complex(nodes[np.argmax(bad)]))
    return vals


def _circle_blocks(f, radii: np.ndarray, M: int):
    """Yield (lo, vals): vals[k] holds f on the M-point circle of radius radii[lo + k]."""
    phase = _circle(M)
    if not isinstance(f, TaylorFunction):
        rows = max(1, _CHUNK // M)
        for lo in range(0, radii.size, rows):
            nodes = radii[lo:lo + rows, None] * phase[None, :]
            yield lo, _sample(f, nodes.ravel()).reshape(nodes.shape)
        return
    c = f.coefficients
    n = np.arange(c.size)
    rows = max(1, _CHUNK // max(M, c.size))
    # c_n rho^n, zero-padded to whole turns of the circle and folded mod M
    scaled = np.zeros(c.size + (-c.size) % M, dtype=complex)
    for lo in range(0, radii.size, rows):
        block = radii[lo:lo + rows]
        vals = np.empty((block.size, M), dtype=complex)
        # rho^n underflows harmlessly; an overflow is reported below
        with np.errstate(all="ignore"):
            for k, rho in enumerate(block):
                if rho > 0:
                    # scalar math.log: np.log on an array can differ in the last ulp
                    np.multiply(c, np.exp(n * math.log(rho)), out=scaled[:c.size])
                else:
                    scaled[:c.size] = 0.0
                    scaled[0] = c[0]
                vals[k] = np.fft.ifft(scaled.reshape(-1, M).sum(axis=0)) * M
        bad = ~np.isfinite(vals)
        if np.any(bad):
            k, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise NonFiniteSampleError(complex(block[k] * phase[j]))
        yield lo, vals


def _rule_blocks(f, rule: DiskRule):
    """Yield (radial weights, values on their circles) blocks covering the rule."""
    for lo, vals in _circle_blocks(f, rule.radial_nodes, rule.angular_count):
        yield rule.radial_weights[lo:lo + len(vals)], vals


def _radial_sum(f, rule: DiskRule, circle_mean) -> float:
    """Sum over radii of weight x circle_mean(values), added radius by radius."""
    total = 0.0
    for w, vals in _rule_blocks(f, rule):
        for term in w * circle_mean(vals):
            total += term
    return total


class QuadratureNonconvergence(RuntimeError):
    """Cauchy difference between a rule and its refinement missed the tolerance."""


def _plain_integrate(f, rule: DiskRule) -> complex:
    total = 0.0 + 0.0j
    for nodes, weights in rule.iter_blocks():
        total += np.dot(weights, _sample(f, nodes))
    return complex(total)


def integrate(f, rule: DiskRule, check: bool = False) -> complex:
    """Quadrature of f over the disk against normalized area measure.

    With ``check=True`` the value is compared against the rule's refinement
    (the Cauchy difference is the error estimate) at relative tolerance
    TOL_SMOOTH, raising QuadratureNonconvergence on a miss.
    """
    value = _plain_integrate(f, rule)
    if check:
        refined = _plain_integrate(f, rule.refined)
        tol = cns.TOL_SMOOTH
        scale = max(abs(refined), 1e-300)
        if abs(value - refined) > tol * scale:
            raise QuadratureNonconvergence(
                f"Cauchy difference {abs(value - refined):.3e} exceeds "
                f"{tol:.1e} x {scale:.3e}")
        return refined
    return value


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"{what} is not finite in double precision")
    return value


def lp_norm(f, p: float, rule: DiskRule) -> float:
    """(integral |f|^p dA)^(1/p) for p >= 1; OverflowError when |f|^p overflows."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    with np.errstate(over="ignore"):
        total = _radial_sum(f, rule, lambda vals: np.mean(np.abs(vals) ** p, axis=1))
        return _finite(float(total ** (1.0 / p)), f"L^{p} norm")


def distribution_function(f, tau: float, rule: DiskRule) -> float:
    """Normalized area of the superlevel set {|f| > tau}."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return float(_radial_sum(f, rule, lambda vals: np.mean(np.abs(vals) > tau, axis=1)))


def weak_norm(f, q: float, rule: DiskRule) -> float:
    """Weak-L^q quasi-norm sup_tau tau * d_f(tau)^(1/q), tau on a geometric grid.

    The grid spans the observed |f| range on the rule's nodes (top point nudged
    just below the max so two-valued functions attain their sup); a finite grid
    under-estimates the true sup, and refining the rule doubles the grid.
    """
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    # a callable is evaluated once and its samples kept for the second pass; a
    # polynomial is sampled again, as its field can be large (65536 x 372 at
    # t = 2^-10 in the ratio sweeps)
    held = None if isinstance(f, TaylorFunction) else []
    lo, hi = np.inf, 0.0
    for w, vals in _rule_blocks(f, rule):
        a = np.abs(vals)
        if held is not None:
            held.append((w, a))
        pos = a[a > 0.0]
        if pos.size:
            lo = min(lo, float(pos.min()))
            hi = max(hi, float(pos.max()))
    if hi == 0.0:
        return 0.0
    taus = np.geomspace(min(lo * 0.999, hi * 0.5), hi * (1.0 - 1e-9), _TAU_POINTS)
    bins = _TAU_POINTS + 1
    mass = np.zeros(_TAU_POINTS)
    blocks = held if held is not None else ((w, np.abs(v)) for w, v in _rule_blocks(f, rule))
    for w, a in blocks:
        # per circle: count samples by tau bin, suffix-sum to counts of {|f| > tau_j}
        idx = np.searchsorted(taus, a, side="left") + bins * np.arange(len(a))[:, None]
        counts = np.bincount(idx.ravel(), minlength=bins * len(a)).reshape(len(a), bins)
        above = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1][:, 1:]
        for row in (w / rule.angular_count)[:, None] * above:
            mass += row
    return _finite(float(np.max(taus * mass ** (1.0 / q))), f"weak-L^{q} norm")


def bloch_seminorm(f: SampledFunction, radial_depth: int = 30,
                   angular_count: int = 256) -> float:
    """|f(0)| + max of (1 - |z|^2)|f'(z)| over radii 1 - 2^-j, j <= radial_depth."""
    if f.derivative is None:
        raise ValueError("bloch_seminorm needs a derivative callback")
    radii = 1.0 - 2.0 ** (-np.arange(radial_depth + 1, dtype=float))
    best = 0.0
    for lo, vals in _circle_blocks(f.derivative, radii, angular_count):
        rho = radii[lo:lo + len(vals)]
        best = max(best, float(np.max((1.0 - rho * rho) * np.abs(vals).max(axis=1))))
    _, center = next(_circle_blocks(f.evaluate, np.zeros(1), 1))
    return abs(complex(center[0, 0])) + best
