"""Boundary boxes, test-function families, real-part bounds, ratio sweeps."""

import math
import os
import threading
import time

import numpy as np
import pytest

from route_oracles import direct_response
from shimorin_lab import constants as cns
from shimorin_lab import diskquad
from shimorin_lab import testfns
from shimorin_lab.diskquad import DiskRule, lp_norm, weak_norm
from shimorin_lab.measure import (
    Atom,
    NuAlphaDensity,
    PowerDensity,
    RadialMeasure,
    TabulatedDensity,
    critical_index,
)
from shimorin_lab.multiplier import moment_prefix
from shimorin_lab.operator import TaylorFunction, apply_multiplier
from shimorin_lab.testfns import (
    C_ZERO,
    C_ZERO_TILDE,
    _N_TERMS,
    RatioResult,
    _parseval_area,
    _series_rule,
    _strong_norm,
    aligned_response,
    aligned_testfn,
    block_testfn,
    box,
    indicator_response,
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
        assert box(0.5).t == 0.5
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
        f = aligned_testfn(cat["delta1"], t)
        nodes, weights = box(t).gauss_nodes(32, 12)
        from shimorin_lab.kernel import eval_kernel

        val = np.dot(weights * f(nodes), eval_kernel(cat["delta1"],
                                                     np.full(nodes.shape, z_t), nodes))
        assert abs(val.imag) < 1e-15 * abs(val.real)
        assert val.real > 0.0


class TestPowerAndBlock:
    def test_power_is_geometric_family(self):
        f = power_testfn(0.0, 64)
        assert np.all(f.coefficients == 1.0)
        g = power_testfn(-1.0, 64)
        assert g.coefficients[3] == pytest.approx(0.25)

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

    def test_block_scale_builds_one_prefix(self, cat, monkeypatch):
        # ratio_experiment builds the block coefficients from its own prefix
        calls = []

        def counting(mu, N):
            calls.append(N)
            return moment_prefix(mu, N)

        monkeypatch.setattr(testfns, "moment_prefix", counting)
        testfns.ratio_experiment(cat["power_-0.5"], 2.0, 3.0, "block", 0.25)
        assert calls == [testfns._N_TERMS]

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
                    a = indicator_response(mu, t)(z)
                    d = direct_response(mu, "indicator", t)(z)
                    assert a == pytest.approx(d, rel=1e-9)
        # the aligned moments run on the box rule of the direct route, so the
        # two agree to rounding
        for name in ("delta1", "lebesgue", "nu_alpha_1.5", "power_-0.5"):
            mu = cat[name]
            for t in (0.25, 2.0 ** -6):
                tf = aligned_response(mu, t)
                direct = direct_response(mu, "aligned", t)
                for z in (0.3 + 0.2j, math.sqrt(1.0 - t), (1.0 - t) * np.exp(0.3j)):
                    assert complex(tf(z)) == pytest.approx(complex(direct(z)), rel=1e-12)

    def test_polar_field_vs_coefficient_oracles(self, cat):
        # the sampler's L2 and L4 against Parseval's sums over tf and tf^2
        for name in ("lebesgue", "power_-0.5", "nu_alpha_1.5"):
            for j in range(3, 9):
                t = 2.0 ** -j
                tf = indicator_response(cat[name], t)
                rule = _series_rule(tf.degree, t)
                l2, l4 = math.sqrt(_parseval_area(tf)), _parseval_area(tf, 2) ** 0.25
                assert abs(lp_norm(tf, 2.0, rule) - l2) <= cns.EVEN_NORM_BUDGET * l2, (name, t)
                assert abs(lp_norm(tf, 4.0, rule) - l4) <= cns.EVEN_NORM_BUDGET * l4, (name, t)

    def test_angular_resolution_converged(self, cat):
        # doubling the angular grid at the smallest acceptance scale is a no-op
        mu = cat["lebesgue"]
        t = 2.0 ** -10
        tf = indicator_response(mu, t)
        base = _series_rule(tf.degree, t)
        fine = DiskRule.make(base.radial_depth, 12, 2 * base.angular_count)
        assert lp_norm(tf, 4.0, base) == pytest.approx(lp_norm(tf, 4.0, fine), rel=1e-9)


class TestRatioExperiments:
    def test_projection_contraction(self, cat):
        # p = q = 2 for the projection measure: orthogonal projection, ratio <= 1
        res = ratio_experiment(cat["delta1"], 2.0, 2.0, "indicator", 0.2)
        assert res.ratio <= 1.0 + 1e-9

    def test_aligned_family_runs(self, cat):
        res = ratio_experiment(cat["delta1"], 2.0, 2.0, "aligned", 0.25)
        assert np.isfinite(res.ratio) and res.ratio > 0.0

    def test_aligned_l2_is_parseval(self, cat):
        # the sampler resolves the aligned response (complex coefficients) at
        # small t: its L2 norm is Parseval's sum
        t = 2.0 ** -6
        tf = aligned_response(cat["delta1"], t)
        exact = math.sqrt(_parseval_area(tf))
        assert lp_norm(tf, 2.0, _series_rule(tf.degree, t)) == pytest.approx(exact, rel=1e-12)
        res = ratio_experiment(cat["delta1"], 2.0, 2.0, "aligned", t)
        assert res.tf_value == pytest.approx(exact, rel=cns.EVEN_NORM_BUDGET)

    def test_power_family_ratio(self, cat):
        res = ratio_experiment(cat["delta0"], 2.0, 2.0, "power", -1.0)
        assert 0.0 < res.ratio <= 1.0 + 1e-9  # harmonic damping contracts

    def test_subharmonic_transfer(self, cat):
        for t in (0.25, 0.1):
            assert subharmonic_transfer_report(cat["lebesgue"], t, 4.0).passed

    @pytest.mark.parametrize("name", ["nu_alpha_1.5", "power_-0.5"])
    def test_parseval_area_matches_quadrature(self, cat, name):
        # the q = 2 side of the transfer report is Parseval's sum, not quadrature
        for t in (0.25, 0.125):
            tf = indicator_response(cat[name], t)
            quad = lp_norm(tf, 2.0, _series_rule(tf.degree, t)) ** 2
            assert abs(_parseval_area(tf) - quad) <= 1e-13 * quad
            assert subharmonic_transfer_report(cat[name], t, 2.0).passed

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


def _cpus(monkeypatch, count: int) -> None:
    """Make the process look as if it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


_SWEEP = [2.0 ** (-j) for j in range(3, 7)]


class TestTwoEndedSweep:
    @pytest.mark.parametrize("name, p, q, family, ts, weak", [
        ("lebesgue", 4.0 / 3.0, 4.0, "indicator", _SWEEP, False),
        ("power_-0.5", 1.0, 4.0 / 3.0, "indicator", _SWEEP, True),
        ("power_-0.5", 4.0, math.inf, "indicator", _SWEEP, False),
        ("power_0.5", 2.0, 3.0, "power", _SWEEP, False),
        ("power_-0.5", 2.0, 2.0, "block", _SWEEP, False),
        ("delta1", 2.0, 2.0, "aligned", _SWEEP[:3], False),
    ])
    def test_results_are_the_serial_loop(self, cat, monkeypatch, name, p, q, family,
                                         ts, weak):
        _cpus(monkeypatch, 2)
        mu = cat[name]
        serial = [ratio_experiment(mu, p, q, family, t, weak=weak) for t in ts]
        got, verdict = ratio_sweep(mu, p, q, family, ts, weak=weak)
        assert [repr(r) for r in got] == [repr(r) for r in serial]
        assert verdict == sweep_verdict([r.ratio for r in serial])

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("slow", ["earliest", "last"])
    def test_earliest_failure_is_raised(self, monkeypatch, cpus, slow):
        # on two CPUs the helper takes ts[0] and then ts[1], the caller ts[-1]
        # first (one CPU runs them in sweep order).
        # slow="earliest": ts[1] fails after the caller's ts[-1] has failed;
        # slow="last": ts[1] fails while ts[-1] still runs, which cancels
        # ts[2..4], the scales after it
        _cpus(monkeypatch, cpus)
        ts = [2.0 ** (-j) for j in range(3, 9)]
        done = []

        def experiment(mu, p, q, family, t, **kwargs):
            if t == ts[1]:
                time.sleep(0.2 if slow == "earliest" else 0.0)
                raise OverflowError(f"scale {t}")
            if t == ts[-1]:
                if slow == "earliest":
                    raise OverflowError(f"scale {t}")
                time.sleep(0.2)
            done.append(t)
            return RatioResult(t, 1.0, 1.0)

        monkeypatch.setattr(testfns, "ratio_experiment", experiment)
        before = threading.active_count()
        with pytest.raises(OverflowError, match=f"scale {ts[1]}$"):
            ratio_sweep(None, 1.0, 1.0, "indicator", ts)
        assert threading.active_count() == before
        assert ts[0] in done
        if slow == "last":
            assert not set(ts[2:5]) & set(done)

    def test_helper_only_with_two_cpus(self, monkeypatch):
        threads = []

        def experiment(mu, p, q, family, t, **kwargs):
            threads.append(threading.current_thread())
            time.sleep(0.02)  # long enough for the helper to take a scale
            return RatioResult(t, 1.0, 1.0)

        monkeypatch.setattr(testfns, "ratio_experiment", experiment)
        ts = [2.0 ** (-j) for j in range(3, 9)]
        before = threading.active_count()
        _cpus(monkeypatch, 1)
        results, _ = ratio_sweep(None, 1.0, 1.0, "indicator", ts)
        assert set(threads) == {threading.current_thread()}
        assert [r.param for r in results] == ts
        threads.clear()
        _cpus(monkeypatch, 2)
        results, _ = ratio_sweep(None, 1.0, 1.0, "indicator", ts)
        assert len(set(threads)) == 2 and threading.current_thread() in threads
        assert [r.param for r in results] == ts
        assert threading.active_count() == before

    def test_empty_sweep_is_an_error(self, cat):
        with pytest.raises(ValueError, match="no scale"):
            ratio_sweep(cat["lebesgue"], 4.0 / 3.0, 4.0, "indicator", [])


def _mp_area(c, k: int):
    """integral |f|^(2k) dA at 30 digits for the polynomial with coefficients c:
    the M-point circle mean is exact for M > k deg f, and Gauss-Legendre in rho
    is exact on the polynomial that remains."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        coeffs = [mpmath.mpc(a.real, a.imag) for a in np.asarray(c, dtype=complex)[::-1]]
        M = k * (len(coeffs) - 1) + 1
        roots = [mpmath.expjpi(mpmath.mpf(2 * j) / M) for j in range(M)]

        def circle(rho):
            s = mpmath.fsum(abs(mpmath.polyval(coeffs, rho * w)) ** (2 * k) for w in roots)
            return 2 * rho * s / M

        return mpmath.quad(circle, [0, 1], method="gauss-legendre")


class TestEvenNorms:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    def test_parseval_power_against_mpmath(self, k, complex_coeffs):
        rng = np.random.default_rng(100 * k + complex_coeffs)
        for _ in range(4):
            deg = int(rng.integers(0, 9))
            c = rng.normal(size=deg + 1)
            if complex_coeffs:
                c = c + 1j * rng.normal(size=deg + 1)
            ref = _mp_area(c, k)
            got = _parseval_area(TaylorFunction.from_array(c), k)
            assert abs(got - ref) <= cns.EVEN_NORM_BUDGET * ref, (deg, c)

    def test_first_power_is_the_direct_sum(self, cat):
        tf = indicator_response(cat["lebesgue"], 0.25)
        c = tf.coefficients
        direct = float(np.sum((c.real ** 2 + c.imag ** 2) / np.arange(1.0, c.size + 1.0)))
        assert _parseval_area(tf) == direct
        assert _parseval_area(tf, 1) == direct

    def test_routes_by_exponent(self, cat):
        # even integers take Parseval; odd and fractional q the sampler
        tf = indicator_response(cat["lebesgue"], 0.25)
        rule = _series_rule(tf.degree, 0.25)
        assert _strong_norm(tf, 6.0, rule) == _parseval_area(tf, 3) ** (1.0 / 6.0)
        for q in (1.0, 3.0, 4.0 / 3.0, 2.5):
            assert _strong_norm(tf, q, rule) == lp_norm(tf, q, rule)

    def test_overflow_raises_like_the_sampler(self):
        f = TaylorFunction.from_array([1e200, 1e200])
        rule = _series_rule(f.degree)
        for route in (_strong_norm, lp_norm):
            with pytest.raises(OverflowError):
                route(f, 4.0, rule)

    @pytest.mark.parametrize("family", ["power", "block"])
    def test_family_rule_resolves_the_degree(self, cat, family):
        # more angles than the degree: the sampler's L2 is Parseval's sum
        rule = _series_rule(_N_TERMS)
        assert rule.angular_count > _N_TERMS
        for s in (2.0 ** -3, 2.0 ** -4, 2.0 ** -8, -0.5):
            f = power_testfn(s, _N_TERMS) if family == "power" else \
                block_testfn(cat["power_-0.5"], s, _N_TERMS)
            exact = math.sqrt(_parseval_area(f))
            assert abs(lp_norm(f, 2.0, rule) - exact) <= 1e-13 * exact, s

    def test_strong_even_sweeps_skip_the_sampler(self, cat, monkeypatch):
        calls = []
        sampler = diskquad._circle_blocks

        def counting(*args, **kwargs):
            calls.append(args[2])
            return sampler(*args, **kwargs)

        monkeypatch.setattr(diskquad, "_circle_blocks", counting)
        ts = [2.0 ** (-j) for j in range(3, 7)]
        ratio_sweep(cat["lebesgue"], 4.0 / 3.0, 4.0, "indicator", ts)
        ratio_sweep(cat["power_0.5"], 2.0, 2.0, "power", ts)
        assert calls == []
        # the wrapper sees the sampler where it still runs
        ratio_experiment(cat["lebesgue"], 4.0 / 3.0, 3.0, "indicator", 0.25)
        assert calls


def _doubled_degree(t: float) -> int:
    """The first degree ceil(70/t) 2^k whose tail meets ``_SERIES_TOL``, or
    the first at or above 5e6: the box series' length before it was cut at
    the least degree."""
    N = math.ceil(70.0 / t)
    decay = -math.log1p(-t / 2.0)
    while (N + 1.0) * math.exp(-N * decay) > testfns._SERIES_TOL and N < 5_000_000:
        N *= 2
    return N


_GRID = np.linspace(0.0, 0.99, 34)
_SERIES_MEASURES = {
    "mixture": RadialMeasure((Atom(0.5, 1.0),), (NuAlphaDensity(1.3), PowerDensity(0.7, 0.4))),
    "tabulated": RadialMeasure(densities=(
        TabulatedDensity(tuple(_GRID), tuple(0.5 + (1.0 - _GRID) ** 0.7)),)),
}


class TestSeriesLength:
    @pytest.mark.parametrize("j", range(1, 17))
    def test_least_degree_meeting_the_tolerance(self, j):
        t = 2.0 ** -j
        N = testfns._series_degree(t)

        def meets(n):
            return (n + 1.0) * (1.0 - t / 2.0) ** n <= testfns._SERIES_TOL

        least = math.ceil(70.0 / t)
        assert least <= N <= _doubled_degree(t)
        assert meets(N) and (N == least or not meets(N - 1))

    def test_degrees(self, cat):
        assert [testfns._series_degree(2.0 ** -j) for j in (3, 6, 9, 10, 12)] == \
            [599, 5202, 43936, 89346, 369068]
        assert indicator_response(cat["lebesgue"], 2.0 ** -6).degree == 5202
        # where no doubling below the cap meets the tolerance, the first at or
        # above it is kept
        assert testfns._series_degree(2.0 ** -20) == _doubled_degree(2.0 ** -20) == 70 << 20

    @pytest.mark.parametrize("family", ["indicator", "aligned"])
    @pytest.mark.parametrize("name", ["delta0", "delta1", "delta_half", "lebesgue",
                                      "nu_alpha_1.5", "power_-0.5", "power_0.5",
                                      "lebesgue_plus_atom1", "mixture", "tabulated"])
    def test_agrees_with_the_doubled_series(self, cat, monkeypatch, name, family):
        mu = _SERIES_MEASURES[name] if name in _SERIES_MEASURES else cat[name]
        response = indicator_response if family == "indicator" else aligned_response
        for t in (2.0 ** -3, 2.0 ** -5):
            least = response(mu, t)
            monkeypatch.setattr(testfns, "_series_degree", _doubled_degree)
            doubled = response(mu, t)
            monkeypatch.undo()
            assert least.degree < doubled.degree
            z_t = math.sqrt(1.0 - t)
            a, b = abs(complex(least(z_t))), abs(complex(doubled(z_t)))
            assert abs(a - b) <= 1e-13 * b, (t, a, b)
            # both series on the rule of the shorter one: a radial panel less
            # moves a weak norm by its quadrature error (7e-9 on the mixture
            # at t = 2^-3), which is not the series' doing
            rule = _series_rule(least.degree, t)
            for q in (2.0, 3.0, 4.0):
                a, b = _strong_norm(least, q, rule), _strong_norm(doubled, q, rule)
                assert abs(a - b) <= 1e-14 * b, (t, q, a, b)
            a, b = weak_norm(least, 4.0 / 3.0, rule), weak_norm(doubled, 4.0 / 3.0, rule)
            assert abs(a - b) <= 1e-14 * b, (t, a, b)


class TestSeriesRule:
    def test_depth_follows_the_degree(self):
        # ceil(log2(N + 1)) + 2: 252 radii instead of 372 at t = 2^-10
        assert _series_rule(143360, 2.0 ** -10).radial_depth == 20
        assert _series_rule(143360, 2.0 ** -10).radial_nodes.size == 252
        assert _series_rule(_N_TERMS).radial_depth == 15

    def test_angles_follow_the_exponent(self):
        # even q: M > qN/2, so |f^(q/2)|^2 does not alias; odd or fractional
        # q: the margin; the Bloch target keeps M > N
        assert _series_rule(_N_TERMS, q=2.0).angular_count == 8192
        assert _series_rule(_N_TERMS, q=4.0).angular_count == 16384
        assert _series_rule(_N_TERMS, q=math.inf).angular_count == 8192
        assert _series_rule(_N_TERMS, q=4.0 / 3.0).angular_count == 32768
        assert _series_rule(_N_TERMS, q=3.0).angular_count == 65536

    @pytest.mark.parametrize("family, s, q", [("power", 0.125, 3.0), ("block", 0.5, 4.0 / 3.0)])
    def test_odd_exponent_margin_against_twice_the_angles(self, cat, family, s, q):
        # |f|^q of a family polynomial at an odd or fractional q is no
        # trigonometric polynomial; doubling the angles moves its norms by
        # less than 2e-5 (at most 1.2e-5 over both families, s in
        # {1/8, 1/2, -1/2} and q in {1, 4/3, 5/2, 3})
        mu = cat["power_-0.5"]
        f = power_testfn(s, _N_TERMS) if family == "power" else block_testfn(mu, s, _N_TERMS)
        tf = TaylorFunction.from_array(moment_prefix(mu, _N_TERMS).values * f.coefficients)
        rule = _series_rule(_N_TERMS, q=q)
        twice = DiskRule.make(rule.radial_depth, rule.order, 2 * rule.angular_count)
        for g in (f, tf):
            a, b = lp_norm(g, q, rule), lp_norm(g, q, twice)
            assert abs(a - b) <= 2e-5 * b, (family, s, q)

    def test_weak_norm_within_budget(self, cat):
        # the rule's own error: the exact sup on the series rule against a
        # refined rule, and against the depth-30 rule the degree-sized depth
        # replaced
        for name in ("lebesgue", "power_0.5", "power_-0.5", "nu_alpha_1.5"):
            for j in range(4, 9):
                t = 2.0 ** -j
                tf = indicator_response(cat[name], t)
                rule = _series_rule(tf.degree, t)
                got = weak_norm(tf, 4.0 / 3.0, rule)
                for other in (DiskRule.make(rule.radial_depth + 4, 16, rule.angular_count),
                              DiskRule.make(30, 12, rule.angular_count)):
                    ref = weak_norm(tf, 4.0 / 3.0, other)
                    assert abs(got - ref) <= cns.WEAK_NORM_BUDGET * ref, (name, t, other.order)

    def test_weak_norm_within_budget_at_twice_the_angles(self, cat):
        # the angular half of the rule's error: the same rule with 2M angles
        for name in ("lebesgue", "power_0.5", "power_-0.5", "nu_alpha_1.5"):
            for j in range(4, 7):
                t = 2.0 ** -j
                tf = indicator_response(cat[name], t)
                rule = _series_rule(tf.degree, t)
                twice = DiskRule.make(rule.radial_depth, rule.order, 2 * rule.angular_count)
                for q in (4.0 / 3.0, 2.0, 3.0):
                    got, ref = weak_norm(tf, q, rule), weak_norm(tf, q, twice)
                    assert abs(got - ref) <= cns.WEAK_NORM_BUDGET * ref, (name, t, q)


class TestSweepVerdict:
    def test_log_growth_detected(self):
        v = [math.log(2.0 ** j) for j in range(3, 11)]
        assert sweep_verdict(v) == "growing"

    def test_geometric_convergence_plateaus(self):
        v = [1.0 - 0.5 ** j for j in range(8)]
        assert sweep_verdict(v) == "plateaued"

    def test_short_sweeps_default_plateaued(self):
        assert sweep_verdict([1.0, 2.0]) == "plateaued"
