"""Boundary boxes, test-function families, real-part bounds, ratio sweeps."""

import math

import numpy as np
import pytest

from shimorin_lab.diskquad import DiskRule, lp_norm
from shimorin_lab.kernel import BoundViolation
from shimorin_lab.measure import RadialMeasure, critical_index
from shimorin_lab.multiplier import moment_prefix
from shimorin_lab.operator import TaylorFunction, apply_multiplier, bergman_membership
from shimorin_lab.testfns import (
    C_ZERO,
    C_ZERO_TILDE,
    _series_rule,
    aligned_testfn,
    block_testfn,
    box,
    indicator_response,
    indicator_response_at,
    indicator_testfn,
    power_testfn,
    ratio_experiment,
    ratio_sweep,
    realpart_bound_reports,
    realpart_bounds_check,
    subharmonic_transfer_report,
    sweep_verdict,
)


class TestBox:
    def test_area_closed_form(self):
        b = box(0.4)
        assert b.area == pytest.approx(0.16 * 0.7 / (20 * math.pi), rel=1e-14)

    def test_area_ratio_limit(self):
        # area/t^2 -> 1/(20 pi) as t -> 0
        assert box(1e-6).area / 1e-12 == pytest.approx(1.0 / (20 * math.pi), rel=1e-5)

    def test_area_ratio_band(self):
        for t in np.linspace(1e-3, 0.5, 20):
            ratio = box(t).area / (t * t)
            assert 1.0 / (32 * math.pi) <= ratio <= 1.0 / (20 * math.pi)

    def test_quadrature_oracle(self):
        for t in (0.4, 0.1, 0.01):
            b = box(t)
            assert abs(b.area - b.quadrature_area()) <= 1e-8 * b.area

    def test_edge_flag_and_range(self):
        assert box(0.5).at_validity_edge
        assert not box(0.49).at_validity_edge
        with pytest.raises(ValueError):
            box(0.6)
        with pytest.raises(ValueError):
            box(0.0)

    def test_conj_moments_against_quadrature(self):
        b = box(0.3)
        nodes, weights = b.gauss_nodes(40, 16)
        for n in (0, 1, 5, 40):
            direct = np.dot(weights, np.conj(nodes) ** n)
            assert b.conj_moments(n)[0] == pytest.approx(direct.real, rel=1e-12, abs=1e-18)


class TestIndicator:
    def test_two_valued(self, rng):
        f = indicator_testfn(0.2)
        b = box(0.2)
        inside = b.sample(rng, 50)
        assert np.all(f(inside) == 1.0)
        assert np.all(f(inside * 0.5) == 0.0)

    def test_norm_is_area_power(self):
        # closed form drives the ratio experiments; cross-check one rule value
        rule = DiskRule.make(radial_depth=20, order=10, angular_count=4096)
        got = lp_norm(indicator_testfn(0.4), 2.0, rule)
        assert got == pytest.approx(box(0.4).area ** 0.5, rel=0.05)

    def test_norms_at_stated_exponents(self):
        # the exact two-valued norm at every stated p, via the box-aligned rule
        b = box(0.25)
        _, w = b.gauss_nodes()
        area = float(w.sum())
        for p in (1.0, 1.5, 2.0, 4.0):
            assert area ** (1.0 / p) == pytest.approx(b.area ** (1.0 / p), rel=1e-12)


class TestAligned:
    def test_unimodular_on_box(self, cat, rng):
        f = aligned_testfn(cat["delta1"], 0.1)
        b = box(0.1)
        vals = f(b.sample(rng, 64))
        assert np.allclose(np.abs(vals), 1.0)
        assert np.all(f(np.array([0.1 + 0.1j])) == 0.0)

    def test_alignment_makes_response_positive(self, cat):
        # T f(z_t) integrates |K|, so it is real and positive
        t = 0.1
        z_t = math.sqrt(1.0 - t)
        f = aligned_testfn(cat["delta1"], t, z_t)
        nodes, weights = box(t).gauss_nodes(32, 12)
        from shimorin_lab.kernel import eval_kernel

        val = np.dot(weights * f(nodes), eval_kernel(cat["delta1"],
                                                     np.full(nodes.shape, z_t), nodes))
        assert abs(val.imag) < 1e-15 * abs(val.real)
        assert val.real > 0.0

    def test_rejects_zt_outside(self, cat):
        with pytest.raises(ValueError):
            aligned_testfn(cat["delta1"], 0.1, 0.5)


class TestPowerAndBlock:
    def test_power_is_geometric_family(self):
        f = power_testfn(0.0, 64)
        assert np.all(f.coefficients == 1.0)
        g = power_testfn(-1.0, 64)
        assert g.coefficients[3] == pytest.approx(0.25)

    def test_power_membership(self):
        # exponent below 2/p - 1 gives membership at p = 1.5
        f = power_testfn(0.2, 10000)
        _, verdict = bergman_membership(f.coefficients.real, 1.5)
        assert verdict == "plateaued"

    def test_block_reduces_to_power_for_delta1(self, cat):
        f = block_testfn(cat["delta1"], 0.3, 512)
        g = power_testfn(0.3, 512)
        assert np.allclose(f.coefficients, g.coefficients)

    def test_block_ratio_bound(self, cat):
        t_exp = 0.4
        f = block_testfn(cat["lebesgue"], t_exp, 2**15)
        a = f.coefficients.real
        for k in range(14):
            blk = a[2**k: 2**(k + 1)]
            assert blk.max() <= 2.0 ** (t_exp + 1.0) * blk.min() * (1 + 1e-12)

    def test_operator_cancels_block_modification(self, cat):
        # T maps the block test function to m_(2^k) (n+1)^t on each block exactly
        mu = cat["lebesgue"]
        t_exp = 0.25
        N = 1024
        f = block_testfn(mu, t_exp, N)
        tf = apply_multiplier(mu, f).coefficients.real
        m = moment_prefix(mu, N).values
        n = np.arange(N + 1)
        for k in range(11):
            if 2**k > N:
                break
            blk = np.arange(2**k, min(2**(k + 1), N + 1))
            assert np.allclose(tf[blk], m[2**k] * (blk + 1.0) ** t_exp, rtol=1e-12)


class TestRealPartBounds:
    def test_closed_form_point(self):
        # z = lam = 1 - 3t/4 real, r = 1: the near-boundary bound holds plainly
        t = 0.1
        x = 1.0 - 0.75 * t
        checks = realpart_bounds_check(x, x, 1.0, t)
        lo, actual = checks["re-kernel-integrand-near1"]
        assert actual[0] == pytest.approx((1.0 - x * x) ** -2.0, rel=1e-12)
        assert actual[0] >= lo[0]

    def test_r_zero_case(self):
        t = 0.05
        x = 1.0 - 0.6 * t
        checks = realpart_bounds_check(x, x, 0.0, t)
        lo, actual = checks["re-kernel-integrand"]
        assert actual >= lo
        assert lo == pytest.approx(C_ZERO / (t * (1.0 + t)))

    def test_seeded_sweep_no_violations(self):
        reports = realpart_bound_reports(seed=17, n_per_t=1000)
        assert all(r.passed for r in reports)
        assert len(reports) == 20  # 4 bounds x 5 scales

    def test_constants_are_the_stated_ones(self):
        assert C_ZERO == pytest.approx(math.sqrt(3.0) / 36.0)
        assert C_ZERO_TILDE == pytest.approx(1.0 / 108.0)


class TestIndicatorResponse:
    def test_series_vs_direct(self, cat):
        for name in ("delta1", "lebesgue", "power_0.5"):
            mu = cat[name]
            for t in (0.25, 0.0625):
                for z in (0.3 + 0.2j, math.sqrt(1.0 - t)):
                    a = indicator_response_at(mu, t, z, "series")
                    d = indicator_response_at(mu, t, z, "direct")
                    assert a == pytest.approx(d, rel=1e-9)

    def test_polar_field_vs_coefficient_oracles(self, cat):
        # L2 via sum |c_n|^2/(n+1); L4 via the squared function's L2 norm
        mu = cat["lebesgue"]
        for t in (0.25, 0.125):
            tf = indicator_response(mu, t)
            c = tf.coefficients.real
            k = np.arange(1, c.size + 1, dtype=float)
            l2 = math.sqrt(np.sum(c * c / k))
            sq = np.fft.irfft(np.fft.rfft(c, 2 * c.size) ** 2, 2 * c.size)[: 2 * c.size - 1]
            k2 = np.arange(1, sq.size + 1, dtype=float)
            l4 = np.sum(sq * sq / k2) ** 0.25
            rule = _series_rule(t)
            assert lp_norm(tf, 2.0, rule) == pytest.approx(l2, rel=1e-10)
            assert lp_norm(tf, 4.0, rule) == pytest.approx(l4, rel=1e-10)

    def test_angular_resolution_converged(self, cat):
        # doubling the angular grid at the smallest acceptance scale is a no-op
        mu = cat["lebesgue"]
        t = 2.0 ** -10
        tf = indicator_response(mu, t)
        base = _series_rule(t)
        fine = DiskRule.make(30, 12, 2 * base.angular_count)
        assert lp_norm(tf, 4.0, base) == pytest.approx(lp_norm(tf, 4.0, fine), rel=1e-9)


class TestRatioExperiments:
    def test_projection_contraction(self, cat):
        # p = q = 2 for the projection measure: orthogonal projection, ratio <= 1
        res = ratio_experiment(cat["delta1"], 2.0, 2.0, "indicator", 0.2)
        assert res.ratio <= 1.0 + 1e-9

    def test_direct_route_matches_series(self, cat):
        rule = DiskRule.make(radial_depth=14, order=8, angular_count=1024)
        a = ratio_experiment(cat["delta1"], 2.0, 2.0, "indicator", 0.25)
        d = ratio_experiment(cat["delta1"], 2.0, 2.0, "indicator", 0.25,
                             route="direct", rule=rule)
        assert d.ratio == pytest.approx(a.ratio, rel=0.02)

    def test_aligned_family_runs(self, cat):
        rule = DiskRule.make(radial_depth=12, order=6, angular_count=256)
        res = ratio_experiment(cat["delta1"], 2.0, 2.0, "aligned", 0.25, rule=rule)
        assert np.isfinite(res.ratio) and res.ratio > 0.0

    def test_power_family_ratio(self, cat):
        res = ratio_experiment(cat["delta0"], 2.0, 2.0, "power", -1.0, n_terms=512)
        assert 0.0 < res.ratio <= 1.0 + 1e-9  # harmonic damping contracts

    def test_subharmonic_transfer(self, cat):
        for t in (0.25, 0.1):
            assert subharmonic_transfer_report(cat["lebesgue"], t, 4.0).passed

    def test_bounded_region_sweep_plateaus(self, cat):
        # boundedness clause at p=1, q=1.2 < c = 4/3 for power beta=-0.5
        ts = [2.0 ** (-j) for j in range(3, 11)]
        _, verdict = ratio_sweep(cat["power_-0.5"], 1.0, 1.2, "indicator", ts)
        assert verdict == "plateaued"

    def test_sweeps_agree_with_region_verdicts(self, cat):
        # experiment verdicts match the classification in sampled cells:
        # below the critical line the Lebesgue ratio grows like a power of 1/t,
        # strictly above it the power(-0.5) ratio plateaus
        from shimorin_lab.classify import BOUNDED, UNBOUNDED, ExponentPair, region_verdict

        ts = [2.0 ** (-j) for j in range(3, 11)]
        assert region_verdict(2.0, ExponentPair(4.0 / 3.0, 6.0)).kind == UNBOUNDED
        _, v1 = ratio_sweep(cat["lebesgue"], 4.0 / 3.0, 6.0, "indicator", ts)
        assert v1 == "growing"
        c = 4.0 / 3.0
        assert region_verdict(c, ExponentPair(1.2, 1.5)).kind == BOUNDED
        _, v2 = ratio_sweep(cat["power_-0.5"], 1.2, 1.5, "indicator", ts)
        assert v2 == "plateaued"


class TestSweepVerdict:
    def test_log_growth_detected(self):
        v = [math.log(2.0 ** j) for j in range(3, 11)]
        assert sweep_verdict(v) == "growing"

    def test_geometric_convergence_plateaus(self):
        v = [1.0 - 0.5 ** j for j in range(8)]
        assert sweep_verdict(v) == "plateaued"

    def test_short_sweeps_default_plateaued(self):
        assert sweep_verdict([1.0, 2.0]) == "plateaued"
