"""Operator routes: multiplier, disk quadrature, radial formula, membership."""

import numpy as np
import pytest

from shimorin_lab.diskquad import DiskRule
from shimorin_lab.measure import RadialMeasure
from shimorin_lab.operator import (
    HypothesisViolation,
    TaylorFunction,
    apply_multiplier,
    apply_quadrature,
    apply_radial,
    bergman_membership,
)


@pytest.fixture(scope="module")
def rule():
    return DiskRule.make(radial_depth=24, order=8, angular_count=128)


class TestTaylorFunction:
    def test_eval_and_derivative(self):
        f = TaylorFunction.from_array([1.0, 2.0, 3.0])
        assert f(0.5) == pytest.approx(1 + 1 + 0.75)
        assert f.derivative()(0.5) == pytest.approx(2 + 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TaylorFunction.from_array([])

    def test_coefficients_are_a_readonly_copy(self):
        src = np.array([1.0, 2.0, 3.0])
        f = TaylorFunction.from_array(src)
        src[0] = 99.0
        assert f.coefficients.dtype == complex and not f.coefficients.flags.writeable
        assert f(0.0) == 1.0


class TestMultiplierRoute:
    def test_identity_for_delta1(self, cat):
        f = TaylorFunction.from_array([2.0, -1.0j, 0.25])
        g = apply_multiplier(cat["delta1"], f)
        assert np.allclose(g.coefficients, f.coefficients)

    def test_delta0_harmonic_damping(self, cat):
        f = TaylorFunction.from_array([1.0, 1.0, 1.0])
        g = apply_multiplier(cat["delta0"], f)
        assert np.allclose(g.coefficients, [1.0, 0.5, 1.0 / 3.0])

    def test_lebesgue_one_plus_z(self, cat):
        g = apply_multiplier(cat["lebesgue"], TaylorFunction.from_array([1.0, 1.0]))
        assert np.allclose(g.coefficients, [1.0, 0.75])

    def test_linearity_exact(self, cat, rng):
        mu = cat["power_-0.5"]
        f = TaylorFunction.from_array(rng.normal(size=8))
        g = TaylorFunction.from_array(rng.normal(size=8))
        a, b = 2.0 - 1.0j, 0.3
        combo = TaylorFunction.from_array(a * f.coefficients + b * g.coefficients)
        lhs = apply_multiplier(mu, combo).coefficients
        rhs = a * apply_multiplier(mu, f).coefficients + b * apply_multiplier(mu, g).coefficients
        # diagonal action: linear up to float reassociation (last-ulp)
        assert np.allclose(lhs, rhs, rtol=1e-15, atol=0.0)


class TestQuadratureRoute:
    def test_constant_at_center(self, cat, rule):
        got = apply_quadrature(cat["power_-0.5"], lambda z: np.ones_like(z), 0.0, rule)
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_bergman_reproducing(self, cat, rule):
        # projection of the analytic monomial reproduces it
        z = 0.4 + 0.3j
        got = apply_quadrature(cat["delta1"], lambda lam: lam, z, rule)
        assert got == pytest.approx(z, rel=1e-8)

    def test_agreement_with_multiplier(self, cat, rule):
        f = TaylorFunction.from_array([0.0, 0.0, 0.0, 1.0])  # lam^3
        mu = cat["lebesgue"]
        got = apply_quadrature(mu, f, 0.5, rule)
        expect = apply_multiplier(mu, f)(0.5)
        assert got == pytest.approx(expect, abs=1e-8)


class TestRadialRoute:
    def test_constant_gives_mass(self, cat):
        got = apply_radial(cat["power_0.5"], lambda z: np.ones_like(z), 0.7j)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_delta0_averages_dilates(self, cat):
        # atom at r=0 integrates f along the radius: T f(z) = integral f(tz) dt
        f = TaylorFunction.from_array([0.0, 1.0])
        got = apply_radial(cat["delta0"], f, 0.8)
        assert got == pytest.approx(0.4, rel=1e-12)

    def test_geometric_series_vs_multiplier(self, cat):
        f = TaylorFunction.from_array(0.5 ** np.arange(256))
        mu = cat["lebesgue"]
        got = apply_radial(mu, f, 0.7)
        expect = apply_multiplier(mu, f)(0.7)
        assert got == pytest.approx(expect, abs=1e-6)

    def test_rejects_atom_at_one(self, cat):
        with pytest.raises(ValueError):
            apply_radial(cat["delta1"], lambda z: z, 0.5)

    def test_matches_per_node_loop(self, rng):
        # reference: one f call per outer node, averaged on the composite rule
        from shimorin_lab._gridquad import gauss_rule

        mu = RadialMeasure.nu_alpha(1.4) + RadialMeasure.dirac(0.3, 0.8)
        f = TaylorFunction.from_array(rng.normal(size=12) + 1j * rng.normal(size=12))
        z = 0.6 - 0.5j
        x, gw = gauss_rule(12)
        edges = np.linspace(0.0, 1.0, 9)
        half = 0.5 * np.diff(edges)
        s = ((edges[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
        sw = (half[:, None] * gw[None, :]).ravel()
        u_outer, w_outer = mu.pushforward_rule()
        ref = sum(wt * np.dot(sw, f((1.0 - u * (1.0 - s)) * z))
                  for u, wt in list(zip(u_outer, w_outer)) + [(0.7, 0.8)])
        assert apply_radial(mu, f, z) == pytest.approx(ref, rel=1e-14)


class TestRouteEquivalence:
    def test_three_routes_on_polynomials(self, cat, rule, rng):
        # smaller-scale version of the acceptance gate, all catalog measures
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = TaylorFunction.from_array(coeffs)
        for name in ("delta0", "lebesgue", "power_0.5", "delta_half"):
            mu = cat[name]
            tf = apply_multiplier(mu, f)
            for _ in range(4):
                z = rng.uniform(0.0, 0.85) * np.exp(2j * np.pi * rng.uniform())
                vm = tf(z)
                assert apply_quadrature(mu, f, z, rule) == pytest.approx(vm, abs=1e-7)
                assert apply_radial(mu, f, z) == pytest.approx(vm, abs=1e-9)


class TestMembership:
    def test_geometric_boundary_function(self):
        # a_n = 1 is f = 1/(1-z): in the 1.5-Bergman space, not in the 2-Bergman space
        total, verdict = bergman_membership(np.ones(10001), 1.5)
        assert verdict == "plateaued"
        total, verdict = bergman_membership(np.ones(10001), 2.0)
        assert verdict == "growing"

    def test_boundary_exponent_excluded(self):
        p = 1.5
        t = 2.0 / p - 1.0
        a = (np.arange(10001) + 1.0) ** t
        _, verdict = bergman_membership(a, p)
        assert verdict == "growing"

    def test_classical_l15_crosscheck(self):
        # ||1/(1 - z conj(lam))^-1||_(L^1.5) stays bounded as |z| -> 1, matching
        # the membership verdict for a_n = 1 at p = 1.5 (uses the graded-angular
        # kernel rule; a uniform-angular rule cannot resolve a point singularity
        # sitting on the boundary circle)
        from shimorin_lab.kernel import kernel_lp_norm
        from shimorin_lab.measure import RadialMeasure

        val = kernel_lp_norm(RadialMeasure.dirac(0.0), 1.0 - 1e-6, 1.5)
        assert np.isfinite(val) and val < 10.0

    def test_callable_coefficients(self):
        total, verdict = bergman_membership(lambda n: 1.0 / (n + 1.0), 2.0, N=4096)
        assert verdict == "plateaued"

    def test_hypothesis_violation(self, rng):
        a = np.ones(2049)
        a[1::2] = 100.0  # oscillates within every block
        with pytest.raises(HypothesisViolation):
            bergman_membership(a, 1.5)
