"""Numerical laboratory for Shimorin-type integral operators on the unit disk."""

from .classify import (
    ExponentPair,
    RegionVerdict,
    StandardEstimate,
    region_grid,
    region_verdict,
    standard_estimate,
)
from .diskquad import (
    DiskRule,
    SampledFunction,
    TaylorFunction,
    bloch_seminorm,
    integrate,
    lp_norm,
    weak_norm,
)
from .kernel import (
    CzConstants,
    CzNotApplicable,
    KernelBoundReport,
    cz_constants,
    eval_dz,
    eval_kernel,
    forelli_rudin_check,
    kernel_lp_norm,
    pnorm_envelope,
    supnorm_sandwich,
)
from .measure import (
    Atom,
    CriticalIndex,
    DivergibleValue,
    NuAlphaDensity,
    PowerDensity,
    RadialMeasure,
    TabulatedDensity,
    carleson_constant,
    catalog,
    critical_index,
    hyperbolic_integral,
    reciprocal_gap_integral,
    singular_moment,
    split_at_one,
    tail_mass,
    total_mass,
)
from .multiplier import (
    MultiplierSequence,
    claim1_envelope,
    decay_exponent_estimate,
    moment_prefix,
    moments_at,
    series_partial,
)
from .operator import (
    apply_multiplier,
    apply_quadrature,
    apply_radial,
)
from .testfns import (
    BoundaryBox,
    aligned_response,
    aligned_testfn,
    block_testfn,
    box,
    indicator_response,
    indicator_testfn,
    power_testfn,
    ratio_experiment,
    ratio_sweep,
    realpart_bounds_check,
)

__version__ = "0.1.0"
