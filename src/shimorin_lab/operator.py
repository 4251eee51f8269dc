"""Apply the disk operator to functions by three independent routes.

For an analytic f = sum a_n z^n the operator multiplies Taylor coefficients by
the moment sequence m_n. Two further routes exist for cross-checking and for
non-analytic inputs: direct disk quadrature of the kernel-weighted integral,
and the nested radial formula (measures with no atom at 1)

    T f(z) = integral (1-r)^-1 integral_r^1 f(t z) dt d nu(r),

whose inner integral shares the engine of the double-integral kernel route.
Route agreement on polynomials is one of the package's acceptance gates.
"""

from __future__ import annotations

import numpy as np

from .diskquad import DiskRule, TaylorFunction, integrate
from .kernel import _nested_radial, eval_kernel
from .measure import RadialMeasure
from .multiplier import moment_prefix

__all__ = [
    "TaylorFunction",
    "apply_multiplier",
    "apply_quadrature",
    "apply_radial",
]


def apply_multiplier(mu: RadialMeasure, f: TaylorFunction) -> TaylorFunction:
    """Coefficient route: a_n -> m_n a_n."""
    m = moment_prefix(mu, f.degree).values
    return TaylorFunction.from_array(m * f.coefficients)


def apply_quadrature(mu: RadialMeasure, f, z, rule: DiskRule) -> complex:
    """Kernel route: ``integrate`` of lam -> f(lam) K(z, lam) on ``rule``.

    A non-finite integrand raises NonFiniteSampleError, as on the sampler
    routes. Declared budget: uniform-angular rules resolve the kernel's
    angular concentration only for moderate |z| (see the rule's angular
    count), so route-agreement checks cap |z| at 0.9.
    """
    return integrate(lambda lam: f(lam) * eval_kernel(mu, z, lam), rule)


def apply_radial(mu: RadialMeasure, f, z) -> complex:
    """Radial route for analytic f: nested 1-D quadrature of the gap-averaged dilates.

    The inner integrals (1/u) integral_{1-u}^1 f(t z) dt run on
    ``kernel._nested_radial`` with the gap 1 - |z|, as f(t z) is analytic for
    |t| < 1/|z|, and so does the outer rule: the one the double-integral
    kernel route sizes to its own gap. Requires nu({1}) = 0.
    """
    if mu.mass_at_one:
        raise ValueError("radial formula requires no atom at 1")

    def g(v, rows):
        return np.asarray(f((1.0 - v) * complex(z)), dtype=complex)[None, :]

    return complex(_nested_radial(mu, g, 1.0 - abs(z), 1)[0])
