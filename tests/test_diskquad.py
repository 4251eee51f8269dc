"""Disk quadrature rules, L^p/weak norms, Bloch seminorm."""

import numpy as np
import pytest

from shimorin_lab.diskquad import (
    DiskRule,
    NonFiniteSampleError,
    QuadratureNonconvergence,
    SampledFunction,
    TaylorFunction,
    _circle,
    _circle_blocks,
    bloch_seminorm,
    distribution_function,
    integrate,
    lp_norm,
    weak_norm,
)
from shimorin_lab.testfns import box, indicator_testfn


@pytest.fixture(scope="module")
def rule():
    return DiskRule.make()


@pytest.fixture(scope="module")
def fine_rule():
    return DiskRule.make(radial_depth=30, order=10, angular_count=4096)


class TestRule:
    def test_weights_normalized(self, rule):
        assert rule.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_nodes_inside_disk(self, rule):
        assert np.all(rule.radial_nodes >= 0.0)
        assert np.all(rule.radial_nodes < 1.0)

    @pytest.mark.parametrize("depth, order, M", [(22, 8, 128), (3, 4, 1000), (1, 2, 5000)])
    def test_blocks_tile_the_rule(self, depth, order, M):
        # circle by circle, at most 2^12 nodes per block, whatever M
        r = DiskRule.make(depth, order, M)
        blocks = list(r.iter_blocks())
        assert max(nodes.size for nodes, _ in blocks) <= 1 << 12
        nodes = np.concatenate([b[0] for b in blocks])
        weights = np.concatenate([b[1] for b in blocks])
        assert np.array_equal(nodes, (r.radial_nodes[:, None] * _circle(M)).ravel())
        assert np.array_equal(weights, np.repeat(r.radial_weights / M, M))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_refinement_hook(self, rule):
        finer = rule.refined
        assert finer.radial_depth > rule.radial_depth
        assert finer.angular_count == 2 * rule.angular_count

    def test_refinement_cauchy(self, rule):
        f = SampledFunction(lambda z: np.exp(z) * np.abs(z) ** 2)
        a = integrate(f, rule)
        b = integrate(f, rule.refined)
        assert abs(a - b) < 1e-10


class TestIntegrate:
    def test_constant(self, rule):
        assert integrate(SampledFunction.constant(1.0), rule) == pytest.approx(1.0)

    def test_angular_symmetry(self, rule):
        val = integrate(SampledFunction(lambda z: z), rule)
        assert abs(val) < 1e-14

    def test_radius_squared(self, rule):
        val = integrate(SampledFunction(lambda z: np.abs(z) ** 2), rule)
        assert val.real == pytest.approx(0.5, rel=1e-12)

    def test_nonfinite_reported_with_node(self, rule):
        f = SampledFunction(lambda z: np.full(np.shape(z), np.nan))
        with pytest.raises(NonFiniteSampleError) as err:
            integrate(f, rule)
        assert abs(err.value.node) < 1.0

    def test_checked_integration_smooth(self, rule):
        f = SampledFunction(lambda z: np.exp(z))
        assert integrate(f, rule, check=True) == pytest.approx(1.0, rel=1e-10)

    def test_checked_integration_rejects_unresolved(self):
        coarse = DiskRule.make(radial_depth=6, order=4, angular_count=16)
        wild = SampledFunction(lambda z: np.cos(997.0 * np.real(z)))
        with pytest.raises(QuadratureNonconvergence):
            integrate(wild, coarse, check=True)


class TestLpNorm:
    def test_constant_all_p(self, rule):
        for p in (1.0, 1.5, 2.0, 4.0):
            assert lp_norm(SampledFunction.constant(1.0), p, rule) == pytest.approx(1.0)

    def test_identity_l2(self, rule):
        got = lp_norm(SampledFunction(lambda z: z), 2.0, rule)
        assert got == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_indicator_norm(self, fine_rule):
        # node-counting on a discontinuous indicator: O(1/M) accuracy only
        b = box(0.5)
        got = lp_norm(indicator_testfn(0.5), 3.0, fine_rule)
        assert got == pytest.approx(b.area ** (1.0 / 3.0), rel=0.05)

    def test_probability_monotonicity(self, rule, rng):
        # on a probability measure |f|_q <= |f|_p for q <= p
        f = SampledFunction(lambda z: np.exp(z) + 0.3 * np.conj(z) ** 2)
        norms = [lp_norm(f, p, rule) for p in (1.0, 1.7, 2.8, 4.0)]
        assert np.all(np.diff(norms) >= -1e-12)

    def test_rejects_p_below_one(self, rule):
        with pytest.raises(ValueError):
            lp_norm(SampledFunction.constant(1.0), 0.5, rule)

    def test_overflow_raises_without_warning(self, rule):
        # |f|^2 overflows double precision; the norm raises rather than
        # returning inf (the package's RuntimeWarnings are errors in the suite)
        big = SampledFunction.constant(1e300)
        with pytest.raises(OverflowError):
            lp_norm(big, 2.0, rule)
        big_poly = TaylorFunction.from_array([1e300, 1e300])
        with pytest.raises(OverflowError):
            lp_norm(big_poly, 2.0, rule)
        assert weak_norm(big, 2.0, rule) == pytest.approx(1e300, rel=1e-6)


class TestDistribution:
    def test_constant_steps(self, rule):
        one = SampledFunction.constant(1.0)
        assert distribution_function(one, 0.5, rule) == pytest.approx(1.0)
        assert distribution_function(one, 2.0, rule) == 0.0

    def test_indicator_two_valued(self, fine_rule):
        got = distribution_function(indicator_testfn(0.5), 0.5, fine_rule)
        assert got == pytest.approx(box(0.5).area, rel=0.05)


class TestWeakNorm:
    def test_indicator(self, fine_rule):
        for q in (1.0, 2.0):
            got = weak_norm(indicator_testfn(0.5), q, fine_rule)
            assert got == pytest.approx(box(0.5).area ** (1.0 / q), rel=0.05)

    def test_constant(self, rule):
        assert weak_norm(SampledFunction.constant(0.7), 2.0, rule) == pytest.approx(0.7, rel=1e-6)

    def test_weak_below_strong(self, rule, rng):
        # Chebyshev: weak norm never exceeds the strong norm
        for _ in range(5):
            a, b = rng.normal(size=2)
            f = SampledFunction(lambda z: a * z + b * np.abs(z))
            for q in (1.0, 1.5, 3.0):
                assert weak_norm(f, q, rule) <= lp_norm(f, q, rule) * (1 + 1e-9)

    def test_singular_regression(self, rule):
        # |1-z|^-1 is weak-L^2 but not L^2; node-counting values recorded as a
        # self-regression (first-run values on the default rule)
        f = SampledFunction(lambda z: 1.0 / np.abs(1.0 - z))
        wk = weak_norm(f, 2.0, rule)
        st = lp_norm(f, 2.0, rule)
        assert wk <= st
        assert wk == pytest.approx(40531.95023083419, rel=1e-9)


class TestBloch:
    def test_identity(self):
        f = SampledFunction(lambda z: z, lambda z: np.ones(np.shape(z), complex))
        assert bloch_seminorm(f) == pytest.approx(1.0)

    def test_constant(self):
        assert bloch_seminorm(SampledFunction.constant(3.0 - 4.0j)) == pytest.approx(5.0)

    def test_log_kernel(self):
        # sup (1-|z|^2)/|1-z| = 2, approached along the real radius
        f = SampledFunction(lambda z: np.log(1.0 / (1.0 - z)), lambda z: 1.0 / (1.0 - z))
        assert bloch_seminorm(f) == pytest.approx(2.0, rel=1e-8)

    def test_requires_derivative(self):
        with pytest.raises(ValueError):
            bloch_seminorm(SampledFunction(lambda z: z))


class TestPolynomialSampler:
    """A TaylorFunction is sampled by FFT (rfft for real coefficients); any
    other callable at the nodes. The sampler yields |f|."""

    @staticmethod
    def assert_matches_node_evaluation(poly, M):
        rule = DiskRule.make(radial_depth=20, order=8, angular_count=M)
        plain = poly.__call__  # a bound method is not a TaylorFunction
        # the sampled |f| itself, circle by circle
        rho = rule.radial_nodes
        fft = np.concatenate([a for _, a in _circle_blocks(poly, rho, M)])
        nodes = np.abs(plain(rho[:, None] * np.exp(2j * np.pi * np.arange(M) / M)[None, :]))
        assert np.all(np.abs(fft - nodes).max(axis=1) <= 1e-13 * nodes.max(axis=1))
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(poly, p, rule) == pytest.approx(lp_norm(plain, p, rule), rel=1e-13)
        for q in (1.0, 2.0):
            assert weak_norm(poly, q, rule) == pytest.approx(weak_norm(plain, q, rule),
                                                             rel=1e-13)
        # bloch_seminorm also samples f' on the radius-0 circle and f at the
        # center (one angle, radius 0)
        dpoly = poly.derivative()
        fft = bloch_seminorm(SampledFunction(poly, dpoly), 20, M)
        nodes = bloch_seminorm(SampledFunction(plain, dpoly.__call__), 20, M)
        assert fft == pytest.approx(nodes, rel=1e-13)

    def test_fft_branch_matches_node_evaluation(self):
        # degree 100 on 16 angles: the coefficient fold wraps six times
        n = np.arange(101)
        self.assert_matches_node_evaluation(
            TaylorFunction.from_array(0.97 ** n * np.exp(1j * n)), 16)

    @pytest.mark.parametrize("M", [16, 15])
    @pytest.mark.parametrize("size", [10, 15, 16, 101])
    def test_real_branch_matches_node_evaluation(self, M, size):
        # size below, at and far above the angle count (the fold wraps);
        # even and odd M differ in the rfft's Nyquist bin
        n = np.arange(size)
        self.assert_matches_node_evaluation(
            TaylorFunction.from_array(0.97 ** n * np.cos(n) + 0.25), M)

    def test_overflow_raises_with_node(self):
        rule = DiskRule.make(radial_depth=8, order=4, angular_count=4)
        for unit in (1.0, np.exp(0.3j)):  # the rfft and the ifft branch
            huge = TaylorFunction.from_array(np.full(8, 1e308 * unit))  # two terms per bin
            with pytest.raises(NonFiniteSampleError) as err:
                lp_norm(huge, 2.0, rule)
            assert abs(err.value.node) < 1.0
