"""Tunable verdict thresholds and default quadrature parameters, in one place.

Every "is this sweep growing or plateaued" style decision in the package goes
through one of three rules with the constants below: the truncation ladder
(tabulated densities, Carleson quotients), the dyadic-block rule (series
partial sums) and the 4-point t-sweep rule (ratio experiments).
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

# Relative error budget of kernel.kernel_lp_norm and kernel.forelli_rudin_check,
# on their polar rule graded toward the corner of |z|. The error actually
# reached, for |z| from 0.05 to 0.9999 and p from 1.05 to 8, is at most
# 1.26e-12 against 2F1(alpha p/2, alpha p/2; 2; |z|^2)^(1/p), the nu_alpha
# kernel norm, for alpha in {1.1, 1.5, 1.9, 1.99}, and 1.1e-12 against the
# tensor-product rule six octaves deeper at Gauss order 16 on power densities
# (beta in {-0.9, -0.5, 0.2, 1.5}), an atom at 0.99, nu_1.5 plus an atom at 1
# and a tabulated grid. The Forelli-Rudin integral is within 1.9e-12 of
# 2F1(a, a; t+2; |z|^2)/(t+1) for t in [-0.9, 3] and c in [0.05, 3].
KERNEL_NORM_BUDGET = 1e-11

# Error budget of kernel.double_integral_eval, relative to |K| + nu([0,1]), on
# its outer rule of Gauss order 10 (kernel._rule_for_gap). The error actually
# reached is at most 1.5e-15 against the mpmath 2F1 closed form on power
# densities with beta in {-0.5, 0.202, 1.2} at |1 - w| from 1e-1 to 1e-4;
# eval_kernel reaches 9.3e-16 there. At Gauss order 8 it was 8.3e-13.
# kernel.representation_report (verify's double-integral check) holds the two
# routes to it: on its pairs they differ by at most 4.5e-15 (nu_alpha, power
# densities, atoms up to x = 1 - 1e-13, tabulated grids, mixtures).
DOUBLE_INTEGRAL_BUDGET = 1e-14

# Relative error budget of the even-q disk norms of a polynomial
# (testfns._parseval_area: Parseval's identity on f^k, f^k by FFT
# convolution). The error actually reached is at most 5.1e-16 against a
# 30-digit mpmath area integral (k = 2, 3; random real and complex polynomials
# of degree <= 8), and at most 8.7e-16 against the polar sampler at q = 4 on
# the indicator responses of Lebesgue, power beta = +-0.5 and nu_1.5 for
# t = 2^-3 .. 2^-10.
EVEN_NORM_BUDGET = 1e-13

# Relative error budget of diskquad.weak_norm on testfns._series_rule, the
# rule's error alone (the sup over the rule's samples is exact). Against a
# refined rule (radial depth + 4, Gauss order 16, the same angles) it reached
# at most 1.65e-3 on the indicator responses of Lebesgue, power beta = +-0.5
# and nu_1.5 at t = 2^-4 .. 2^-8 and q in {4/3, 2, 3}. Sizing the radial depth
# to the degree moved those values by at most 1.1e-8 against depth 30.
WEAK_NORM_BUDGET = 2.5e-3
