"""Quadrature and norm estimation on the unit disk under normalized area measure.

Rules are tensor products of a radial mesh on [0, 1) (geometric panels graded
toward the boundary, Gauss-Legendre on each, the 2*rho area factor folded into
the weights) with a uniform angular grid, normalized so that the constant 1
integrates to 1. Besides plain integrals and L^p norms this module supplies
the weak-L^q quasi-norm (the exact sup over the rule's samples, found from a
histogram and a sort of the few samples that can attain it; those come from
the largest samples the histogram pass keeps where they are all among them,
from a second pass elsewhere) and the Bloch seminorm
|f(0)| + sup (1 - |z|^2) |f'(z)| on a boundary-refining grid.

Every norm reads only |f|, through one polar-grid sampler, which yields
blocks of radii with |f| on the M-point circle of each. A TaylorFunction is
summed by FFT: its coefficients scaled by rho^n and folded mod M are the
circle's discrete Fourier coefficients. The coefficients are folded once per
function into a J x M array C (J = ceil((N+1)/M)), so on the circle of radius
rho the folded coefficient k is rho^k sum_j C[j, k] rho^(jM): each radius
costs at most M exponentials, a length-J product and one FFT, whatever the
degree N. The powers with k log rho < -746 are exactly 0.0 and are not
taken; on the inner circles of a large M that is most of them. Real
coefficients take a real FFT, and the sampler yields only the closed upper
half circle, M // 2 + 1 columns: by conjugate symmetry,
|f(rho e^(-i theta))| = |f(rho e^(i theta))|, so each column but the angles 0
and pi also stands for its mirror image, and comes with that multiplicity.
Complex coefficients take an inverse FFT, and any other callable is evaluated
at the nodes rho e^(2 pi i k / M); both yield whole circles. ``lp_norm``
accumulates radius by radius: the radial weight times the mean of |f|^p over
the circle, each column counted with its multiplicity. ``weak_norm`` carries
the multiplicities as weights; ``bloch_seminorm`` needs only the maximum,
and of a polynomial it samples only the circles whose bound can exceed it.
Every consumer drops a block before the sampler builds the next, so one block
is alive at a time.
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
    "weak_norm",
    "bloch_seminorm",
]

# element cap on one block of the polar sampler
_CHUNK = 1 << 19
# element cap on one callback invocation of the polar sampler: its complex
# nodes and values, 4 MiB each, are alive together with the caller's block
_CALL_CHUNK = 1 << 18
# node cap on one block of DiskRule.iter_blocks: a complex temporary of the
# caller's point loop (64 KiB) stays below glibc's 128 KiB mmap threshold, so
# its cost does not depend on what the process freed before
_NODE_BLOCK = 1 << 12
# exp(x) is exactly 0.0 below -745.14 (half the least subnormal): the sampler
# skips the powers rho^k with k log rho < _EXP_ZERO
_EXP_ZERO = -746.0
# element cap on one (B x points) array of powers in _block_horner
_HORNER_CHUNK = 1 << 14
# relative slack of bloch_seminorm's skip test, far above the rounding of a
# circle's bound and of its samples (~1e-11 relative at degree 10^5)
_BLOCH_SLACK = 1e-9
# float-bit bins of weak_norm's histogram: a double's bits >> 40 keep its
# exponent and 12 mantissa bits, so 4096 bins per octave, ordered as the values
_BIN_SHIFT = 40
# relative slack of weak_norm's bin tests against rounding in the weight sums
_WEAK_SLACK = 1e-9
# samples per candidate scan of weak_norm's pass 2: its int64 bin offsets stay
# at 512 KiB, well below the sampler's block (pass 1 bins a whole block in
# place, in the block's own memory)
_WEAK_PIECE = 1 << 16
# the entries of weak_norm's pass-1 buffer of largest samples, in units of M:
# enough for every candidate sample of a field whose sup sits on a small set,
# while a flat field, whose candidates are most of its samples, pays only for
# the buffer. An entry is one sampler column, so 4M entries hold 4 whole
# circles of a complex field or a callable, and 8 half circles of a real one
# (the power -0.5 box responses at q = 4/3 need 6.2 circles' worth at
# t = 2^-6 and 1.2 at 2^-10). The buffer has room for half as much again, so
# that the threshold rises once per 2M new entries above it, not on every block
_WEAK_KEEP_CIRCLES = 4


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
        """Horner's rule where the points outnumber the squared coefficient
        count, so that each of its steps is a long vector operation; block
        Horner (``_block_horner``) elsewhere, where its per-step overhead,
        one numpy operation per coefficient, would dominate."""
        z = np.asarray(z, dtype=complex)
        c = self.coefficients
        if c.size * c.size <= z.size:
            out = np.full(z.shape, c[-1], dtype=complex)
            for a in c[-2::-1]:
                out *= z
                out += a
        else:
            out = _block_horner(c, z.ravel()).reshape(z.shape)
        return complex(out) if out.ndim == 0 else out

    def derivative(self) -> "TaylorFunction":
        c = self.coefficients
        if c.size == 1:
            return TaylorFunction.from_array([0.0])
        return TaylorFunction.from_array(c[1:] * np.arange(1, c.size))


def _block_horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n c_n z^n as Horner in z^B over the block sums
    Q_j(z) = sum_i c_(jB+i) z^i, n = jB + i, B = ceil(sqrt(size)).

    The Q_j of a chunk of points are one (J x B) by (B x points) product
    with the powers z^0..z^(B-1), so a chunk costs about 2B numpy operations
    instead of one per coefficient.
    """
    B = math.isqrt(c.size - 1) + 1
    J = -(-c.size // B)  # J <= B
    blocks = np.zeros(J * B, dtype=complex)
    blocks[:c.size] = c
    blocks = blocks.reshape(J, B)
    out = np.empty(z.shape, dtype=complex)
    step = max(1, _HORNER_CHUNK // B)
    for lo in range(0, z.size, step):
        zs = z[lo:lo + step]
        powers = np.empty((B, zs.size), dtype=complex)
        powers[0] = 1.0
        for i in range(1, B):
            np.multiply(powers[i - 1], zs, out=powers[i])
        sums = blocks @ powers
        zB = powers[-1] * zs
        acc = sums[-1]
        for j in range(J - 2, -1, -1):
            acc *= zB
            acc += sums[j]
        out[lo:lo + step] = acc
    return out


def _majorant(c: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """sum_n |c_n| rho^n at each radius rho >= 0, split as ``_block_horner``
    splits its sum, n = jB + i: the block sums sum_i |c_(jB+i)| rho^i are one
    (J x B) by (B x radii) product, then weighted by rho^(jB). An overflow
    gives inf or nan."""
    B = math.isqrt(c.size - 1) + 1
    J = -(-c.size // B)
    blocks = np.zeros(J * B)
    blocks[:c.size] = np.abs(c)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = blocks.reshape(J, B) @ radii ** np.arange(B)[:, None]
        return np.einsum("jr,jr->r", sums, radii ** (B * np.arange(J))[:, None])


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


def _circle_blocks(f, radii: np.ndarray, M: int, rows: int | None = None):
    """Yield (lo, mods, mult): mods[k] holds |f| on the circle of radius radii[lo + k].

    A block holds ``rows`` circles, by default as many as fill ``_CALL_CHUNK``
    nodes of a callable or ``_CHUNK`` columns of a TaylorFunction; no
    circle's values depend on the block it comes in.

    For real coefficients the columns are the closed upper half circle, the
    H = M // 2 + 1 angles 2 pi j / M, j < H, and column j stands for mult[j]
    of the M angles: |f(rho e^(-i theta))| = |f(rho e^(i theta))|, so every
    column but 0 and (for even M) M / 2 also holds its mirror image. Complex
    coefficients and callables yield all M angles, with mult None.
    """
    if not isinstance(f, TaylorFunction):
        phase = _circle(M)
        rows = rows or max(1, _CALL_CHUNK // M)
        for lo in range(0, radii.size, rows):
            nodes = radii[lo:lo + rows, None] * phase[None, :]
            # float, also for a callable that returns integers or booleans
            mods = np.abs(_sample(f, nodes.ravel())).astype(float, copy=False)
            yield lo, mods.reshape(nodes.shape), None
        return
    c = f.coefficients
    real = not c.imag.any()
    H = M // 2 + 1 if real else M
    mult = None
    if real:
        mult = np.full(H, 2.0)
        mult[0] = 1.0
        if M % 2 == 0:
            mult[-1] = 1.0  # the Nyquist column, its own mirror image
    rows = rows or max(1, _CHUNK // H)
    # coefficient n = j M + k at C[j, k], zero-padded to whole turns of the circle
    J = -(-c.size // M)
    C = np.zeros(J * M, dtype=float if real else complex)
    C[:c.size] = c.real if real else c
    C = C.reshape(J, M)
    k_pow = np.arange(M, dtype=float)
    turn_pow = M * np.arange(J, dtype=float)
    for lo in range(0, radii.size, rows):
        block = radii[lo:lo + rows]
        mods = np.empty((block.size, H))
        # scalar math.log: np.log on an array can differ in the last ulp
        logs = [math.log(rho) if rho > 0 else -math.inf for rho in block]
        # rho^k is exactly 0.0 from k = live on, where k log rho < _EXP_ZERO
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.array(logs)
            lives = np.where(x * (M - 1) >= _EXP_ZERO, M,
                             np.floor(_EXP_ZERO / x) + 1.0).astype(int).tolist()
        # rho^n underflows harmlessly; an overflow is reported below
        with np.errstate(all="ignore"):
            for i, (rho, log_rho, live) in enumerate(zip(block, logs, lives)):
                if rho == 0.0:
                    bins = np.zeros(M, dtype=C.dtype)
                    bins[0] = C[0, 0]
                elif live == M:
                    # folded bin k: rho^k sum_j C[j, k] rho^(jM)
                    bins = np.exp(turn_pow * log_rho) @ C
                    bins *= np.exp(k_pow * log_rho)
                else:
                    # rho^(jM) = 0.0 for j >= 1 as well: the fold is C[0]
                    bins = C[0].copy()
                    bins[:live] *= np.exp(k_pow[:live] * log_rho)
                    bins[live:] = 0.0
                if real:
                    # real bins: f = M ifft = conj rfft on the upper half circle
                    np.abs(np.fft.rfft(bins), out=mods[i])
                else:
                    mods[i] = np.abs(np.fft.ifft(bins) * M)
        if not np.isfinite(mods).all():
            k, j = np.unravel_index(np.argmax(~np.isfinite(mods)), mods.shape)
            raise NonFiniteSampleError(complex(block[k] * _circle(M)[j]))
        yield lo, mods, mult
        # a caller that dropped the block frees it before the next is built
        del mods


def _circle_sums(mods: np.ndarray, mult) -> np.ndarray:
    """Row sums of a sampler block over the whole circle: on a half circle,
    twice the interior columns plus the edge ones (numpy's pairwise sums)."""
    if mult is None:
        return mods.sum(axis=1)
    inner = 1 + np.count_nonzero(mult == 2.0)
    sums = mods[:, 1:inner].sum(axis=1)
    sums *= 2.0
    sums += mods[:, 0]
    if inner < mods.shape[1]:
        sums += mods[:, inner]
    return sums


def _weights_of(w: np.ndarray, mult, width: int, k: np.ndarray) -> np.ndarray:
    """Rule weights of the flat samples k of a sampler block of the given
    width whose circles weigh w per angle: a half-circle column counts mult
    times."""
    rows, cols = np.divmod(k, width)
    return w[rows] if mult is None else w[rows] * mult[cols]


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
    """(integral |f|^p dA)^(1/p) for 1 <= p < inf; OverflowError when |f|^p
    overflows.

    Radius by radius, the weight times the mean of |f|^p over the circle.
    p = inf (|f|^inf is 0 or inf) and nan are a ValueError."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    M = rule.angular_count
    total = 0.0
    with np.errstate(over="ignore"):
        for lo, mods, mult in _circle_blocks(f, rule.radial_nodes, M):
            # |f|^p in place: once yielded, the block is this loop's alone
            mods **= p
            means = _circle_sums(mods, mult) / M
            for term in rule.radial_weights[lo:lo + len(mods)] * means:
                total += term
            # the block goes before the sampler builds the next one
            del mods
        return _finite(float(total ** (1.0 / p)), f"L^{p} norm")


def _bin_of(x: float) -> int:
    """Float-bit bin of a double x >= 0."""
    return int(np.float64(x).view(np.int64)) >> _BIN_SHIFT


def _bin_edges(bins: np.ndarray) -> np.ndarray:
    """Lower edges of float-bit bins: the doubles whose bits are bins << _BIN_SHIFT."""
    return (bins << _BIN_SHIFT).view(np.float64)


def _weak_candidates(f, inv_q: float, rule: DiskRule):
    """Pass 1 of ``weak_norm``: the float-bit bins that can hold the sup, and
    the largest samples read.

    Returns (base, cand, above, top): bin base + i can hold the sup where
    cand[i], and above[i] is the weight of the bins above it that cannot.
    top = (theta, a, w) holds exactly the samples a >= theta, in the order
    the sampler yields them, w their rule weights: every sample while they
    fit in the buffer, and after it overflows, the ``_WEAK_KEEP_CIRCLES``
    circles' worth of largest ones and those read since. None for a field
    that is zero on every sample.
    """
    M = rule.angular_count
    cap = int(_WEAK_KEEP_CIRCLES * M)
    slack = 1.0 - _WEAK_SLACK
    total = rule.total_weight ** inv_q
    # hist[i] is the weight of bin base + i; the bins below base are dropped
    base, hist, best = 0, np.zeros(0), 0.0
    # the kept samples, top[:count], are exactly those >= theta, in sampler order
    theta, count = 0.0, 0
    top, top_w = np.empty(cap + cap // 2), np.empty(cap + cap // 2)
    for r0, a, mult in _circle_blocks(f, rule.radial_nodes, M):
        width = a.shape[1]
        w = rule.radial_weights[r0:r0 + len(a)] / M
        peaks = a.max(axis=1)
        # each circle's largest sample, alone, is a lower bound too
        best = max(best, float(np.max(peaks * w ** inv_q)))
        peak = float(peaks.max())
        if peak >= theta:
            over = a >= theta
            n = np.count_nonzero(over)
            if count + n > top.size:
                theta, count = _trim(top, top_w, count, a[over], cap)
                over = a >= theta
                n = np.count_nonzero(over)
            if n:
                hit = np.flatnonzero(over)
                top[count:count + n] = a.ravel()[hit]
                top_w[count:count + n] = _weights_of(w, mult, width, hit)
                count += n
            del over
        floor = max(base, _bin_of(best * slack / total))
        # float-bit bins in the block's own memory; slot 0 collects the
        # samples below the floor
        bins = a.reshape(-1).view(np.int64)
        bins >>= _BIN_SHIFT
        bins -= floor - 1
        np.maximum(bins, 0, out=bins)
        grown = np.bincount(bins, np.repeat(w, width) if mult is None else
                            np.multiply.outer(w, mult).ravel(),
                            minlength=max(base + hist.size, _bin_of(peak) + 1) - floor + 1)
        kept = hist[floor - base:]
        grown[1:1 + kept.size] += kept
        # the block goes before the sampler builds the next one
        del a, bins
        base, hist = floor, grown[1:]
        # any bin's L S^(1/q) bounds the sup from below; every 64th raises
        # the floor here, and all of them are read once, at the end
        edges = np.arange(0, hist.size, 64)
        S = np.cumsum(np.add.reduceat(hist, edges)[::-1])[::-1]
        best = max(best, float(np.max(_bin_edges(base + edges) * S ** inv_q)))
    S = np.cumsum(hist[::-1])[::-1]
    L = _bin_edges(base + np.arange(hist.size, dtype=np.int64))
    best = max(best, float(np.max(L * S ** inv_q)))
    if best == 0.0:
        return None
    U = _bin_edges(base + 1 + np.arange(hist.size, dtype=np.int64))
    cand = U * S ** inv_q >= best * slack
    above = np.cumsum(np.where(cand, 0.0, hist)[::-1])[::-1]
    return base, cand, np.append(above[1:], 0.0), (theta, top[:count], top_w[:count])


def _trim(top: np.ndarray, top_w: np.ndarray, count: int, new: np.ndarray,
          cap: int) -> tuple[float, int]:
    """Raise the threshold to the cap-th largest of top[:count] and new, or
    to the next double where its ties would keep more than cap, and keep in
    top, top_w only the samples at or above it. Returns (theta, count); new
    is reordered."""
    v = np.concatenate((top[:count], new)) if count else new
    v.partition(v.size - cap)
    theta = v[v.size - cap]
    if np.count_nonzero(v >= theta) > cap:
        theta = np.nextafter(theta, np.inf)
    del v
    keep = top[:count] >= theta
    kept = np.count_nonzero(keep)
    top[:kept], top_w[:kept] = top[:count][keep], top_w[:count][keep]
    return theta, kept


def _distinct(a: np.ndarray, w: np.ndarray, j: np.ndarray):
    """Samples a with weights w and bin offsets j, one per distinct value in
    decreasing order, the weights of equal values summed in extended precision
    (where the platform has it)."""
    order = np.argsort(-a, kind="stable")
    a = a[order]
    first = np.flatnonzero(np.append(True, a[1:] != a[:-1]))
    return (a[first], np.add.reduceat(w[order].astype(np.longdouble), first),
            j[order[first]])


def weak_norm(f, q: float, rule: DiskRule) -> float:
    """Weak-L^q quasi-norm sup_tau tau * d_f(tau)^(1/q), exact on the rule's samples.

    With the samples a sorted in decreasing order and W_k the rule weight of
    {a >= a_(k)}, the sup is max_k a_(k) W_k^(1/q). At most two passes over
    the field find it in bounded memory, without sorting the field. Pass 1
    builds a weighted histogram of |f| on float-bit bins (4096 per octave),
    one sampler block at a time; a half-circle column carries the weight of
    its mirror image too. S_j, the weight at or above bin j's lower edge L_j,
    gives the lower bound best = max_j L_j S_j^(1/q). The sup is taken at a
    sample a with a W^(1/q) >= best and W <= the total weight, so the bins
    below best / total^(1/q) are dropped as the bound rises. A bin with upper
    edge U_j can hold the sup only if U_j S_j^(1/q) >= best. The samples of
    those candidate bins are sorted, one per distinct value, and each gets the
    weight of the other bins above it. Pass 1 also keeps its largest samples
    with their weights, every one >= theta, in a buffer of 1.5 x
    ``_WEAK_KEEP_CIRCLES`` M entries. Where the lowest candidate bin starts at
    or above theta (a field whose sup sits on a small set, such as most box
    responses at small t), the candidates are taken from the buffer, in the
    order pass 2 would read them, and the field is sampled once; otherwise
    pass 2 samples it again.
    """
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    found = _weak_candidates(f, 1.0 / q, rule)
    if found is None:
        return 0.0
    base, cand, above, (theta, top, top_w) = found
    M = rule.angular_count
    lowest = _bin_edges(np.int64(base + np.argmax(cand)))
    # cand[j] for the bin offsets j clipped to [-1, cand.size): -1, the bins
    # below base, reads the False appended at the end
    in_cand = np.append(cand, False)
    parts = []

    def candidates(a: np.ndarray, weights: Callable[[np.ndarray], np.ndarray]):
        j = a.view(np.int64) >> _BIN_SHIFT
        j -= base
        np.clip(j, -1, cand.size - 1, out=j)
        keep = np.flatnonzero(in_cand[j])
        if keep.size:
            parts.append(_distinct(a[keep], weights(keep), j[keep]))

    if lowest >= theta:
        # every sample pass 2 would keep is among the kept ones
        candidates(top, top_w.__getitem__)
    else:
        for lo, mods, mult in _circle_blocks(f, rule.radial_nodes, M):
            width = mods.shape[1]
            rows = max(1, _WEAK_PIECE // width)
            for i in range(0, len(mods), rows):
                w = rule.radial_weights[lo + i:lo + i + rows] / M
                candidates(mods[i:i + rows].ravel(),
                           lambda k: _weights_of(w, mult, width, k))
            del mods
    a, W, j = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(-a, kind="stable")
    W = (np.cumsum(W[order]) + above[j[order]]).astype(float)
    # one entry per distinct value in each part; where a value recurs across
    # parts, W only grows along its run, so the run's last entry gives its
    # largest product
    return float(np.max(a[order] * W ** (1.0 / q)))


def bloch_seminorm(f: SampledFunction, radial_depth: int = 30,
                   angular_count: int = 256) -> float:
    """|f(0)| + max of (1 - |z|^2)|f'(z)| over radii 1 - 2^-j, j <= radial_depth.

    Where f' is a TaylorFunction with coefficients d, no sample on the circle
    of radius rho exceeds the bound (1 - rho^2) sum |d_m| rho^m
    (``_majorant``, one real sum per radius). The circles are then sampled
    one at a time in decreasing order of their bounds, and the scan stops
    before the first whose bound times 1 + ``_BLOCH_SLACK`` is below the
    largest value read: neither it nor any circle after it can hold a larger
    one. A max does not depend on the order, so the value is the same bits as
    a scan of every circle, which a callable f' still takes. A non-finite
    bound sorts first, so a circle whose samples overflow is sampled and
    raises NonFiniteSampleError.
    """
    if f.derivative is None:
        raise ValueError("bloch_seminorm needs a derivative callback")
    radii = 1.0 - 2.0 ** (-np.arange(radial_depth + 1, dtype=float))
    weight = 1.0 - radii * radii
    best = 0.0
    # a half circle holds the sup of the whole one: the multiplicities do not matter
    if isinstance(f.derivative, TaylorFunction):
        bound = weight * _majorant(f.derivative.coefficients, radii)
        bound[np.isnan(bound)] = np.inf
        order = np.argsort(-bound, kind="stable")
        circles = _circle_blocks(f.derivative, radii[order], angular_count, rows=1)
        for i in order:
            if bound[i] * (1.0 + _BLOCH_SLACK) < best:
                break
            _, mods, _ = next(circles)
            best = max(best, float(weight[i] * mods.max()))
    else:
        for lo, mods, _ in _circle_blocks(f.derivative, radii, angular_count):
            best = max(best, float(np.max(weight[lo:lo + len(mods)] * mods.max(axis=1))))
            del mods
    _, center, _ = next(_circle_blocks(f.evaluate, np.zeros(1), 1))
    return float(center[0, 0]) + best
