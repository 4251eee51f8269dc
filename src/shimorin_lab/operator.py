"""Apply the disk operator to functions by three independent routes.

For an analytic f = sum a_n z^n the operator multiplies Taylor coefficients by
the moment sequence m_n. Two further routes exist for cross-checking and for
non-analytic inputs: direct disk quadrature of the kernel-weighted integral,
and the nested radial formula (measures with no atom at 1)

    T f(z) = integral (1-r)^-1 integral_r^1 f(t z) dt d nu(r),

whose inner integral shares the engine of the double-integral kernel route.
Route agreement on polynomials is one of the package's acceptance gates.
The module also houses the coefficient criterion for Bergman-space membership:
for a_n >= 0 monotone (or dyadically block-comparable), f is in the p-Bergman
space iff sum (n+1)^(p-3) a_n^p converges.
"""

from __future__ import annotations

import numpy as np

from .diskquad import DiskRule, TaylorFunction
from .kernel import _cached_rule, _nested_radial, eval_kernel
from .measure import RadialMeasure
from .multiplier import dyadic_block_verdict, moment_prefix

__all__ = [
    "TaylorFunction",
    "apply_multiplier",
    "apply_quadrature",
    "apply_radial",
    "bergman_membership",
    "HypothesisViolation",
]

# largest in-block ratio a block-comparable coefficient sequence may have
_BLOCK_CONSTANT = 16.0


def apply_multiplier(mu: RadialMeasure, f: TaylorFunction) -> TaylorFunction:
    """Coefficient route: a_n -> m_n a_n."""
    m = moment_prefix(mu, f.degree).values
    return TaylorFunction.from_array(m * f.coefficients)


def apply_quadrature(mu: RadialMeasure, f, z, rule: DiskRule) -> complex:
    """Kernel route: quadrature of integral K(z, lam) f(lam) dA(lam).

    Declared budget: uniform-angular rules resolve the kernel's angular
    concentration only for moderate |z| (see the rule's angular count), so
    route-agreement checks cap |z| at 0.9.
    """
    z = complex(z)
    total = 0.0 + 0.0j
    for nodes, weights in rule.iter_blocks():
        vals = np.asarray(f(nodes), dtype=complex)
        total += np.dot(weights * vals, eval_kernel(mu, np.full(nodes.shape, z), nodes))
    return complex(total)


def apply_radial(mu: RadialMeasure, f, z) -> complex:
    """Radial route for analytic f: nested 1-D quadrature of the gap-averaged dilates.

    The inner integrals (1/u) integral_{1-u}^1 f(t z) dt run on
    ``kernel._nested_radial`` with the gap 1 - |z|, as f(t z) is analytic for
    |t| < 1/|z|; the outer rule is mu's pushforward rule at the default
    depths, cached per measure. Requires nu({1}) = 0.
    """
    if mu.mass_at_one:
        raise ValueError("radial formula requires no atom at 1")

    def g(v, rows):
        return np.asarray(f((1.0 - v) * complex(z)), dtype=complex)[None, :]

    return complex(_nested_radial(mu, _cached_rule(mu), g, 1.0 - abs(z), 1)[0])


class HypothesisViolation(ValueError):
    """Coefficient sequence fails both the monotone and block-comparable hypotheses."""


def _blocks(N: int):
    k = 0
    while 2 ** k <= N:
        yield np.arange(2 ** k, min(2 ** (k + 1), N + 1))
        k += 1


def bergman_membership(a, p: float, N: int | None = None) -> tuple[float, str]:
    """Partial sum of sum (n+1)^(p-3) a_n^p plus a dyadic-block growth verdict.

    ``a`` is a non-negative coefficient array (or callable n -> a_n with N
    given). The hypothesis of the test — monotone, or per-dyadic-block
    monotone with in-block ratios bounded — is checked on the computed range
    and a HypothesisViolation is raised when neither form holds.
    """
    if not (1.0 < p < np.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    if callable(a):
        if N is None:
            raise ValueError("N is required when a is a callable")
        a = np.asarray(a(np.arange(N + 1)), dtype=float)
    else:
        a = np.asarray(a, dtype=float)
        N = a.size - 1
    if np.any(a < 0.0):
        raise HypothesisViolation("coefficients must be non-negative")
    d = np.diff(a)
    monotone = bool(np.all(d >= 0.0) or np.all(d <= 0.0))
    if not monotone:
        for blk in _blocks(N):
            if blk.size < 2:
                continue
            sub = a[blk]
            db = np.diff(sub)
            if not (np.all(db >= 0.0) or np.all(db <= 0.0)):
                raise HypothesisViolation(f"block [{blk[0]}, {blk[-1]}] not monotone")
            pos = sub[sub > 0.0]
            if pos.size and pos.max() > _BLOCK_CONSTANT * pos.min():
                raise HypothesisViolation(
                    f"block [{blk[0]}, {blk[-1]}] ratio exceeds {_BLOCK_CONSTANT}")
    n = np.arange(N + 1)
    terms = (n + 1.0) ** (p - 3.0) * a ** p
    # complete blocks [2^k, 2^(k+1)) only
    sums = [terms[blk].sum() for blk in _blocks(N) if blk[-1] == 2 * blk[0] - 1]
    return float(terms.sum()), dyadic_block_verdict(np.array(sums))
