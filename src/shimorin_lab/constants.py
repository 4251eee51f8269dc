"""Tunable verdict thresholds and default quadrature parameters, in one place.

Every "is this sweep growing or plateaued" style decision in the package goes
through the same three-point dyadic rule with the constants below, so changing
a threshold here changes it everywhere consistently.
"""

from __future__ import annotations

# Truncation ladder for divergence detection: integrals over [0, 1) are
# truncated to [0, 1-eps] at these levels; successive growth by more than
# LADDER_GROWTH_FACTOR across the last LADDER_GROWTH_LEVELS transitions is
# declared divergence, otherwise the tail is Richardson-extrapolated.
LADDER_EPS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
LADDER_GROWTH_FACTOR = 1.05
LADDER_GROWTH_LEVELS = 3

# Dyadic-block verdicts for series partial sums: "growing" requires the last
# BLOCK_COUNT block sums to be non-decreasing (within BLOCK_SLACK relative)
# and to sit above BLOCK_FLOOR_FRACTION of the largest block sum.
BLOCK_COUNT = 3
BLOCK_SLACK = 1e-9
BLOCK_FLOOR_FRACTION = 1e-12

# Dyadic t-sweep verdicts (ratio experiments, endpoint experiments): growing
# requires the last SWEEP_POINTS values to be non-decreasing within SWEEP_SLACK
# and the per-step increments NOT to decay: mean successive-increment ratio at
# least SWEEP_INCREMENT_RATIO. Rationale: genuinely unbounded sweeps here grow
# like log(1/t) (constant increments per dyadic step), while bounded sweeps
# converge with increments decaying geometrically; a plain total-growth
# threshold cannot separate the two at desk scale because bounded ratios may
# still be rising by a few percent per step at t = 2^-10.
SWEEP_POINTS = 4
SWEEP_SLACK = 1e-6
SWEEP_INCREMENT_RATIO = 0.95

# Dyadic grid depth for Carleson suprema: t = 2^-j, j = 0..CARLESON_DEPTH.
CARLESON_DEPTH = 40

# Default graded-mesh parameters for measure quadrature in u = 1 - r:
# geometric panels per octave down to 2^-depth, Gauss-Legendre order each.
MEASURE_DEPTH_ZERO = 60
MEASURE_DEPTH_ONE = 40
MEASURE_ORDER = 16

# Default quadrature tolerance (Cauchy-difference target).
TOL_SMOOTH = 1e-8

# Relative tolerance target for multiplier moments by quadrature, checked by
# refinement on a dyadic index grid. The error actually reached is far below
# it: at most 2.3e-15 against the closed forms for power densities with
# beta in [-0.95, 1.5] and nu_alpha with alpha in [1.02, 1.98], up to
# n = 131072 (the closed forms agree with mpmath to 1.7e-15).
MOMENT_BUDGET = 1e-10
