"""Quadrature and norm estimation on the unit disk under normalized area measure.

Rules are tensor products of a radial mesh on [0, 1) (geometric panels graded
toward the boundary, Gauss-Legendre on each, the 2*rho area factor folded into
the weights) with a uniform angular grid, normalized so that the constant 1
integrates to 1. Besides plain integrals and L^p norms this module supplies
the weak-L^q quasi-norm via the distribution function and the Bloch seminorm
|f(0)| + sup (1 - |z|^2) |f'(z)| on a boundary-refining grid.

Every norm reads only |f|, through one polar-grid sampler, which yields
blocks of radii with |f| on the M-point circle of each. A TaylorFunction is
summed by FFT: its coefficients scaled by rho^n and folded mod M are the
circle's discrete Fourier coefficients. The coefficients are folded once per
function into a J x M array C (J = ceil((N+1)/M)), so on the circle of radius
rho the folded coefficient k is rho^k sum_j C[j, k] rho^(jM): each radius
costs M exponentials, a length-J product and one FFT, whatever the degree N.
Real coefficients take a real FFT of the upper half circle, and conjugate
symmetry, f(rho e^(-i theta)) = conj f(rho e^(i theta)), fills the lower half;
complex ones take an inverse FFT. Any other callable is evaluated at the
nodes rho e^(2 pi i k / M). The reducers accumulate radius by radius: the
radial weight times the mean over the circle.
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

# element cap on one block (and one callback invocation) of the polar sampler
_CHUNK = 1 << 19
# node cap on one block of DiskRule.iter_blocks: a complex temporary of the
# caller's point loop (64 KiB) stays below glibc's 128 KiB mmap threshold, so
# its cost does not depend on what the process freed before
_NODE_BLOCK = 1 << 12
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
            out *= z
            out += a
        return complex(out) if out.ndim == 0 else out

    def derivative(self) -> "TaylorFunction":
        c = self.coefficients
        if c.size == 1:
            return TaylorFunction.from_array([0.0])
        return TaylorFunction.from_array(c[1:] * np.arange(1, c.size))


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
        """Yield flat (nodes, weights) blocks of at most ``_NODE_BLOCK`` nodes
        covering the rule, circle by circle."""
        M = self.angular_count
        phase = _circle(M)
        count = self.node_count()
        for lo in range(0, count, _NODE_BLOCK):
            i, k = np.divmod(np.arange(lo, min(lo + _NODE_BLOCK, count)), M)
            yield self.radial_nodes[i] * phase[k], self.radial_weights[i] / M


def _circle(M: int) -> np.ndarray:
    return np.exp(1j * (2.0 * np.pi * np.arange(M) / M))


def _sample(f, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(nodes))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise NonFiniteSampleError(complex(nodes[np.argmax(bad)]))
    return vals


def _circle_blocks(f, radii: np.ndarray, M: int):
    """Yield (lo, mods): mods[k] holds |f| on the M-point circle of radius radii[lo + k]."""
    phase = _circle(M)
    rows = max(1, _CHUNK // M)
    if not isinstance(f, TaylorFunction):
        for lo in range(0, radii.size, rows):
            nodes = radii[lo:lo + rows, None] * phase[None, :]
            yield lo, np.abs(_sample(f, nodes.ravel())).reshape(nodes.shape)
        return
    c = f.coefficients
    real = not c.imag.any()
    # coefficient n = j M + k at C[j, k], zero-padded to whole turns of the circle
    J = -(-c.size // M)
    C = np.zeros(J * M, dtype=float if real else complex)
    C[:c.size] = c.real if real else c
    C = C.reshape(J, M)
    k_pow = np.arange(M, dtype=float)
    turn_pow = M * np.arange(J, dtype=float)
    tail = (M - 1) // 2
    for lo in range(0, radii.size, rows):
        block = radii[lo:lo + rows]
        mods = np.empty((block.size, M))
        # rho^n underflows harmlessly; an overflow is reported below
        with np.errstate(all="ignore"):
            for i, rho in enumerate(block):
                if rho > 0:
                    # scalar math.log: np.log on an array can differ in the last ulp
                    log_rho = math.log(rho)
                    # folded bin k: rho^k sum_j C[j, k] rho^(jM)
                    bins = np.exp(turn_pow * log_rho) @ C
                    bins *= np.exp(k_pow * log_rho)
                else:
                    bins = np.zeros(M, dtype=C.dtype)
                    bins[0] = C[0, 0]
                if real:
                    # real bins: f = M ifft = conj rfft on the upper half circle;
                    # f(rho e^(-i theta)) = conj f(rho e^(i theta)) on the lower
                    half = np.abs(np.fft.rfft(bins))
                    mods[i, :half.size] = half
                    mods[i, half.size:] = half[tail:0:-1]
                else:
                    mods[i] = np.abs(np.fft.ifft(bins) * M)
        if not np.isfinite(mods).all():
            k, j = np.unravel_index(np.argmax(~np.isfinite(mods)), mods.shape)
            raise NonFiniteSampleError(complex(block[k] * phase[j]))
        yield lo, mods


def _rule_blocks(f, rule: DiskRule):
    """Yield (radial weights, |f| on their circles) blocks covering the rule."""
    for lo, mods in _circle_blocks(f, rule.radial_nodes, rule.angular_count):
        yield rule.radial_weights[lo:lo + len(mods)], mods


def _radial_sum(f, rule: DiskRule, circle_mean) -> float:
    """Sum over radii of weight x circle_mean(|f|), added radius by radius."""
    total = 0.0
    for w, mods in _rule_blocks(f, rule):
        for term in w * circle_mean(mods):
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
        total = _radial_sum(f, rule, lambda a: np.mean(a ** p, axis=1))
        return _finite(float(total ** (1.0 / p)), f"L^{p} norm")


def distribution_function(f, tau: float, rule: DiskRule) -> float:
    """Normalized area of the superlevel set {|f| > tau}."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return float(_radial_sum(f, rule, lambda a: np.mean(a > tau, axis=1)))


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
    for w, a in _rule_blocks(f, rule):
        if held is not None:
            held.append((w, a))
        lo = min(lo, float(a.min(where=a > 0.0, initial=np.inf)))
        hi = max(hi, float(a.max()))
    if hi == 0.0:
        return 0.0
    taus = np.geomspace(min(lo * 0.999, hi * 0.5), hi * (1.0 - 1e-9), _TAU_POINTS)
    bins = _TAU_POINTS + 1
    mass = np.zeros(_TAU_POINTS)
    blocks = held if held is not None else _rule_blocks(f, rule)
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
    for lo, mods in _circle_blocks(f.derivative, radii, angular_count):
        rho = radii[lo:lo + len(mods)]
        best = max(best, float(np.max((1.0 - rho * rho) * mods.max(axis=1))))
    _, center = next(_circle_blocks(f.evaluate, np.zeros(1), 1))
    return float(center[0, 0]) + best
