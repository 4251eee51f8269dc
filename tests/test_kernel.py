"""Kernel evaluation, norm envelopes, CZ constants, every pointwise bound."""

import math
import subprocess
import sys

import numpy as np
import pytest

from shimorin_lab import constants as cns
from shimorin_lab import kernel as kr
from shimorin_lab._gridquad import resolvent_sum
from shimorin_lab.diskquad import DiskRule, lp_norm
from shimorin_lab.kernel import (
    _POLAR_ORDER,
    _graded_polar,
    _polar_radial,
    _polar_rule,
    _resolvent,
    _rule_for_gap,
    CzConstants,
    CzNotApplicable,
    bound_report,
    cz_constants,
    cz_pointwise_reports,
    double_integral_eval,
    envelope_reports,
    eval_dz,
    eval_kernel,
    forelli_rudin_check,
    forelli_rudin_reports,
    hermitian_report,
    kernel_lp_norm,
    pnorm_envelope,
    ratio_bound_report,
    representation_report,
    sample_boundary_pairs,
    supnorm_sandwich,
    universal_size_report,
)
from shimorin_lab.measure import (
    Atom,
    NuAlphaDensity,
    PowerDensity,
    RadialMeasure,
    TabulatedDensity,
    split_at_one,
    total_mass,
)
from shimorin_lab.multiplier import moment_prefix

from route_oracles import tensor_kernel_lp_norm, tensor_polar

# a tabulated grid holding r = 0 and r = 1
_GRID = np.linspace(0.0, 1.0, 33)


def _boundary_and_small_w(seed: int) -> np.ndarray:
    """w = z conj(lam) on 2000 boundary pairs (depth 4), plus |w| <= 0.06 and w = 0."""
    rng = np.random.default_rng(seed)
    z, lam = sample_boundary_pairs(rng, 2000, depth=4.0)
    small = 10.0 ** rng.uniform(-12.0, np.log10(0.06), 300) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, 300))
    return np.concatenate((z * np.conj(lam), small, [0.0]))


def _by_quadrature(mu: RadialMeasure, w: np.ndarray, derivative: bool) -> np.ndarray:
    """The resolvent with every density on the graded u-rule, atoms as its nodes."""
    return resolvent_sum(*_rule_for_gap(mu, float(np.min(np.abs(1.0 - w)))), w, derivative)


class TestResolvent:
    @pytest.mark.parametrize("mu", [
        RadialMeasure.nu_alpha(1.1),
        RadialMeasure.nu_alpha(1.5),
        RadialMeasure.nu_alpha(1.9),
        RadialMeasure.power(2.5, 0.0),
        RadialMeasure((Atom(0.3, 0.7),), (PowerDensity(1.2, 0.5), NuAlphaDensity(1.3),
                                          PowerDensity(0.5, 0.0))),
        RadialMeasure.power(1.0, -0.9),
        RadialMeasure.power(0.7, 0.202),
        RadialMeasure.power(1.3, 1.5),
    ], ids=["nu_1.1", "nu_1.5", "nu_1.9", "2.5_lebesgue", "atom+power+nu+lebesgue",
            "power_-0.9", "power_0.202", "power_1.5"])
    def test_closed_forms_match_the_quadrature(self, mu):
        w = _boundary_and_small_w(41)
        for derivative in (False, True):
            exact = _resolvent(mu, w, derivative)
            quad = _by_quadrature(mu, w, derivative)
            rel = np.max(np.abs(exact - quad) / np.abs(quad))
            assert rel <= 1e-11, f"derivative={derivative}: {rel:.2e}"

    def test_lebesgue_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(43)
        phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 60))
        cases = [  # (w, F tolerance, F' tolerance)
            (10.0 ** rng.uniform(-12.0, np.log10(0.0499), 60) * phase, 1e-15, 1e-15),
            (rng.uniform(0.0499, 0.0501, 60) * phase, 1e-14, 1e-12),   # branch edge
            (1.0 - 1e-4 * np.exp(1j * rng.uniform(-1.5, 1.5, 60)), 1e-14, 1e-14),
        ]
        lebesgue = PowerDensity(1.0, 0.0)
        for w, tol_f, tol_df in cases:
            for derivative, tol in ((False, tol_f), (True, tol_df)):
                got = lebesgue.resolvent(w, derivative)
                for g, x in zip(got, w):
                    with mpmath.workdps(40):
                        x = mpmath.mpc(x.real, x.imag)
                        log = mpmath.log(1 - x)
                        ref = complex((1 / (1 - x) + log / x) / x if derivative else -log / x)
                    assert abs(g - ref) <= tol * abs(ref), (x, derivative)

    @pytest.mark.parametrize("beta", [-0.97, -0.5, 0.999, 1.0 + 1e-9, 1.5, 2.5])
    def test_power_against_mpmath(self, beta):
        # kappa/(beta+1) 2F1(1, 1; beta+2; w) and its derivative
        # kappa/((beta+1)(beta+2)) 2F1(2, 2; beta+3; w), at w on kernel_lp_norm's
        # polar grids: the smallest gaps (down to 1e-6) and a random sample
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(53)
        density = PowerDensity(1.3, beta)
        for s in (0.5, 0.98, 1.0 - 1e-6):
            rule = _graded_polar(s)
            w = rule.cross(s * rule.rho, rule.phase).ravel()
            w = np.concatenate((w[np.argsort(np.abs(1.0 - w))[:8]], rng.choice(w, 16)))
            for derivative in (False, True):
                got = density.resolvent(w, derivative)
                for g, x in zip(got, w):
                    with mpmath.workdps(30):
                        x, b = mpmath.mpc(x.real, x.imag), mpmath.mpf(beta)
                        if derivative:
                            ref = 1.3 / ((b + 1) * (b + 2)) * mpmath.hyp2f1(2, 2, b + 3, x)
                        else:
                            ref = 1.3 / (b + 1) * mpmath.hyp2f1(1, 1, b + 2, x)
                        ref = complex(ref)
                    assert abs(g - ref) <= 1e-13 * abs(ref), (s, x, derivative)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.99])
    def test_nu_alpha_against_mpmath(self, alpha):
        # (1 - w)^(1-alpha) and its derivative (alpha - 1)(1 - w)^-alpha on the
        # principal branch, |1 - w| from 1e-12 to 2 inside the disk, w = 0 and real w
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(59)
        g = 10.0 ** rng.uniform(-12.0, np.log10(2.0), 200)
        phi = 0.999 * np.arccos(g / 2.0) * rng.uniform(-1.0, 1.0, 200)
        real = np.array([0.0, 0.3, -0.5, -0.999999, 0.999, 1.0 - 1e-12])
        w = np.concatenate((1.0 - g * np.exp(1j * phi), real))
        density = NuAlphaDensity(alpha)
        for derivative in (False, True):
            got = density.resolvent(w, derivative)
            for v, x in zip(got, w):
                with mpmath.workdps(30):
                    gap, a = 1 - mpmath.mpc(x.real, x.imag), mpmath.mpf(alpha)
                    ref = complex((a - 1) * gap ** -a if derivative else gap ** (1 - a))
                assert abs(v - ref) <= 1e-15 * abs(ref), (x, derivative)

    def test_atom_near_one_against_mpmath(self):
        # mass (1 - x w)^-1 and mass x (1 - x w)^-2 at w within 1e-1..1e-4 of 1
        # hold to a few ulps; 1 - x w formed directly rounds to ~eps/|1 - x w|
        # relative (1.6e-14 at x = 0.99999)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(61)
        rho = 1.0 - 10.0 ** -rng.uniform(1.0, 4.0, 60)
        w = rho * np.exp(1j * 10.0 ** -rng.uniform(1.0, 4.0, 60) * rng.choice([-1.0, 1.0], 60))
        for x in (0.5, 0.999, 0.99999, 1.0 - 1e-12):
            atom = Atom(x, 1.3)
            for derivative in (False, True):
                got = atom.resolvent(w, derivative)
                for g, wi in zip(got, w):
                    with mpmath.workdps(30):
                        gap = 1 - mpmath.mpf(x) * mpmath.mpc(wi.real, wi.imag)
                        ref = complex(1.3 * (mpmath.mpf(x) / gap ** 2 if derivative else 1 / gap))
                    assert abs(g - ref) <= 2e-15 * abs(ref), (x, wi, derivative)

    def test_every_density_has_a_resolvent(self):
        w = np.array([0.5 + 0.1j, -0.3j])
        # every power density has a resolvent of its own; at beta = 1 it is
        # kappa (w + (1 - w) log(1 - w)) / w^2
        ref = 2.0 * (w + (1.0 - w) * np.log1p(-w)) / w ** 2
        assert PowerDensity(2.0, 1.0).resolvent(w, False) == pytest.approx(ref, rel=1e-14)
        # a tabulated density is its trapezoid grid: weight 1 at r = 1 (value 2,
        # half-width 1/2) and 1/2 at r = 0
        tab = TabulatedDensity((0.0, 1.0), (1.0, 2.0))
        assert tab.resolvent(w, False) == pytest.approx(1.0 / (1.0 - w) + 0.5, rel=1e-15)
        assert tab.resolvent(w, True) == pytest.approx(1.0 / (1.0 - w) ** 2, rel=1e-15)

    def test_sum_of_the_components(self):
        # _resolvent is the sum of every component's own resolvent, in order
        comps = (Atom(0.4, 0.3), PowerDensity(1.2, -0.5), NuAlphaDensity(1.5),
                 TabulatedDensity((0.0, 0.3, 0.7, 1.0), (1.0, 2.0, 0.5, 1.5)))
        mu = RadialMeasure(comps[:1], comps[1:])
        w = _boundary_and_small_w(43)
        for derivative in (False, True):
            parts = np.zeros(w.shape, dtype=complex)
            for c in comps:
                parts += c.resolvent(w, derivative)
            assert np.array_equal(_resolvent(mu, w, derivative), parts)

    @pytest.mark.parametrize("mu", [
        RadialMeasure.power(1.0, 0.5),
        RadialMeasure(densities=(TabulatedDensity((0.0, 0.4, 0.8, 1.0), (1.0, 2.0, 0.5, 1.5)),)),
    ], ids=["power_0.5", "tabulated"])
    def test_real_loop_matches_complex_arithmetic(self, mu):
        # the straightforward complex form of the blocked real-arithmetic loop
        w = _boundary_and_small_w(47)
        u, wt = _rule_for_gap(mu, float(np.min(np.abs(1.0 - w))))
        denom = (1.0 - w)[:, None] + u[None, :] * w[:, None]
        for derivative, power, fac in ((False, 1, wt), (True, 2, wt * (1.0 - u))):
            ref = (1.0 / denom ** power) @ fac
            got = resolvent_sum(u, wt, w, derivative)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_power_norm_leaves_scipy_linalg_unimported(self):
        # the Gauss-Jacobi rule comes from numpy's eigh: scipy.special.roots_jacobi
        # would import scipy.linalg, several MB of resident memory per process
        code = ("import sys\n"
                "from shimorin_lab.kernel import kernel_lp_norm\n"
                "from shimorin_lab.measure import RadialMeasure\n"
                "kernel_lp_norm(RadialMeasure.power(1.0, 0.202), 0.9, 1.5)\n"
                "print('scipy.linalg' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestEval:
    def test_center_gives_mass(self, cat):
        for name, mu in cat.items():
            assert eval_kernel(mu, 0.0, 0.37 + 0.2j) == pytest.approx(total_mass(mu), rel=1e-9)

    def test_nu_alpha_fractional_kernel(self, cat):
        got = eval_kernel(cat["nu_alpha_1.5"], 0.6, 0.6)
        assert got == pytest.approx(0.64 ** -1.5, rel=1e-10)

    def test_bergman_kernel(self, cat):
        r = 0.8
        assert eval_kernel(cat["delta1"], r, r) == pytest.approx((1 - r * r) ** -2.0)

    def test_hermitian_symmetry(self, cat):
        rep = hermitian_report(cat["lebesgue_plus_atom1"], seed=5, n=1000)
        assert rep.passed and rep.n_samples == 1000

    def test_universal_size(self, cat, rng):
        for mu in cat.values():
            assert universal_size_report(mu, seed=11, n=500).passed

    def test_gap_ratio_bound(self):
        assert ratio_bound_report(seed=2, n=1000).passed


class TestEvalDz:
    def test_zero_at_lambda_zero(self, cat):
        assert eval_dz(cat["lebesgue"], 0.4 + 0.1j, 0.0) == 0.0

    def test_bergman_derivative(self, cat):
        assert eval_dz(cat["delta1"], 0.0, 0.5) == pytest.approx(1.0)

    def test_nu_alpha_closed_form(self, cat):
        a, z, lam = 1.5, 0.3, 0.4
        expect = a * lam * (1 - z * lam) ** (-a - 1)
        assert eval_dz(cat["nu_alpha_1.5"], z, lam) == pytest.approx(expect, rel=1e-9)

    def test_finite_difference_oracle(self, cat, rng):
        h = 1e-6
        for name in ("lebesgue", "power_-0.5", "delta_half"):
            mu = cat[name]
            z, lam = 0.35 + 0.2j, 0.5 - 0.3j
            fd = (eval_kernel(mu, z + h, lam) - eval_kernel(mu, z - h, lam)) / (2 * h)
            assert eval_dz(mu, z, lam) == pytest.approx(fd, rel=1e-7)


class TestDoubleIntegral:
    def test_agreement(self, cat):
        for name in ("delta0", "lebesgue", "nu_alpha_1.5", "power_0.5"):
            assert representation_report(cat[name], seed=3, n=60).passed

    def test_rejects_atom_at_one(self, cat):
        with pytest.raises(ValueError):
            double_integral_eval(cat["delta1"], 0.5, 0.5)

    @pytest.mark.parametrize("mu", [
        RadialMeasure.power(1.0, -0.5),
        RadialMeasure.nu_alpha(1.5),
        RadialMeasure.lebesgue() + RadialMeasure.dirac(0.99999, 0.7),
    ], ids=["power_-0.5", "nu_1.5", "lebesgue+atom_0.99999"])
    def test_check_holds_the_budget(self, mu, monkeypatch):
        # the check passes the route at Gauss order 10 and fails it at order 8
        # (8.3e-13 relative), five orders of magnitude below a 1e-7 tolerance
        for seed in range(5):
            assert representation_report(mu, seed).passed, seed
        monkeypatch.setattr(kr, "_GAP_RULE_ORDER", 8)
        assert not any(representation_report(mu, seed).passed for seed in range(5))

    @pytest.mark.parametrize("mu", [
        RadialMeasure.nu_alpha(1.4) + RadialMeasure.dirac(0.3, 0.8),
        RadialMeasure.power(1.0, -0.5),
        RadialMeasure(densities=(TabulatedDensity(tuple(_GRID), tuple(1.0 + _GRID ** 2)),)),
    ], ids=["nu_1.4+atom", "power_-0.5", "tabulated_r0_r1"])
    def test_matches_per_node_loop(self, mu, rng):
        # reference: one inner rule per outer node, geometric from vmin up to u
        from shimorin_lab._gridquad import geometric_breaks, panel_rule

        z, lam = sample_boundary_pairs(rng, 40, depth=3.0)
        w = z * np.conj(lam)
        gap = float(np.min(np.abs(1.0 - w)))
        vmin = max(gap * 1e-4, 1e-18)
        u_outer, wt_outer = _rule_for_gap(mu, gap)
        ref = np.zeros(w.shape, dtype=complex)
        for u, weight in zip(u_outer, wt_outer):
            if u == 0.0:
                ref += weight / (1.0 - w) ** 2
                continue
            breaks = (np.array([0.0, u]) if u <= 2.0 * vmin
                      else np.concatenate(([0.0], geometric_breaks(vmin, u))))
            v, g = panel_rule(breaks, 12)
            ref += weight / u * ((1.0 / ((1.0 - w)[:, None] + v * w[:, None]) ** 2) @ g)
        got = double_integral_eval(mu, z, lam)
        assert np.max(np.abs(got - ref) / (np.abs(ref) + total_mass(mu))) <= 1e-13

    @pytest.mark.parametrize("kappa,beta", [(1.0, -0.5), (0.968, 0.202), (2.0, 1.2)])
    def test_power_within_budget(self, kappa, beta):
        # kappa ((1-w)^2 (beta+1))^-1 2F1(1, beta+1; beta+2; -w/(1-w)); z is real,
        # so w = z conj(lam) rounds the same way here and in the route
        mpmath = pytest.importorskip("mpmath")
        gaps = np.geomspace(1e-1, 1e-4, 7)
        target = (1.0 - gaps[:, None] * np.exp(1j * np.array([0.0, 0.5, 1.0, -1.2]))).ravel()
        z = np.sqrt(np.abs(target)) + 0j
        lam = np.sqrt(np.abs(target)) * np.exp(-1j * np.angle(target))
        w = z * np.conj(lam)
        mu = RadialMeasure.power(kappa, beta)
        got = double_integral_eval(mu, z, lam)
        for g, x in zip(got, w):
            with mpmath.workdps(30):
                x = mpmath.mpc(x.real, x.imag)
                ref = complex(kappa / ((1 - x) ** 2 * (beta + 1))
                              * mpmath.hyp2f1(1, beta + 1, beta + 2, -x / (1 - x)))
            err = abs(g - ref) / (abs(ref) + total_mass(mu))
            assert err <= cns.DOUBLE_INTEGRAL_BUDGET, (abs(1 - complex(x)), err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tabulated_grid_holding_r1(self, rng):
        # the node r = 1 (u = 0) enters through its limit weight * (1 - w)^-2
        r = np.linspace(0.0, 1.0, 33)
        mu = RadialMeasure(densities=(TabulatedDensity(tuple(r), tuple(1.0 + r ** 2)),))
        z, lam = sample_boundary_pairs(rng, 100, depth=3.0)
        a = eval_kernel(mu, z, lam)
        b = double_integral_eval(mu, z, lam)
        assert np.max(np.abs(a - b) / (np.abs(a) + total_mass(mu))) <= cns.DOUBLE_INTEGRAL_BUDGET


class TestKernelNorm:
    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_p_inf_and_nan(self, cat, p):
        # the sup at z = 0.5 is 4 on delta1; p = inf used to read 1.0
        with pytest.raises(ValueError):
            kernel_lp_norm(cat["delta1"], 0.5, p)

    def test_center_norm_is_mass(self, cat):
        for name in ("delta0", "lebesgue", "power_0.5"):
            mu = cat[name]
            for p in (1.5, 2.0, 3.0):
                assert kernel_lp_norm(mu, 0.0, p) == pytest.approx(total_mass(mu), rel=1e-9)

    def test_hardy_kernel_series_oracle(self):
        # ||(1 - z conj(lam))^-1||_p^p = sum (Gamma(k+p/2)/(Gamma(p/2) k!))^2 x^k/(k+1)
        from scipy.special import gammaln

        mu = RadialMeasure.dirac(0.0)
        for z, p in ((0.55, 5.8), (0.9, 1.5), (0.3, 2.0)):
            x = z * z
            k = np.arange(3000)
            a = np.exp(gammaln(k + p / 2) - gammaln(p / 2) - gammaln(k + 1))
            oracle = float(np.sum(a ** 2 * x ** k / (k + 1))) ** (1.0 / p)
            assert kernel_lp_norm(mu, z, p) == pytest.approx(oracle, rel=1e-8)

    def test_explicit_rule_cross_check(self, cat):
        # the graded polar rule against diskquad's uniform-angular rule
        rule = DiskRule.make(radial_depth=30, order=10, angular_count=1024)
        for name in ("delta0", "lebesgue"):
            a = kernel_lp_norm(cat[name], 0.6, 1.8)
            b = lp_norm(lambda lam: eval_kernel(cat[name], 0.6, lam), 1.8, rule)
            assert a == pytest.approx(b, rel=1e-7)

    def test_finite_at_stressed_point(self, cat):
        # Hardy kernel at z = 0.9, p = 2: finite, sane against the Forelli-Rudin shape
        val = kernel_lp_norm(cat["delta0"], 0.9, 2.0)
        assert np.isfinite(val) and 1.0 < val < 10.0

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 1.99])
    def test_nu_alpha_against_mpmath(self, alpha):
        # ||(1 - z conj(lam))^-alpha||_p = 2F1(alpha p/2, alpha p/2; 2; |z|^2)^(1/p)
        mpmath = pytest.importorskip("mpmath")
        mu = RadialMeasure.nu_alpha(alpha)
        for s in (0.05, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999):
            for p in (1.05, 1.5, 2.0, 3.0, 8.0):
                with mpmath.workdps(30):
                    a = mpmath.mpf(alpha) * p / 2
                    ref = float(mpmath.hyp2f1(a, a, 2, mpmath.mpf(s) ** 2) ** (1 / mpmath.mpf(p)))
                got = kernel_lp_norm(mu, s, p)
                assert abs(got - ref) <= cns.KERNEL_NORM_BUDGET * ref, (s, p)

    @pytest.mark.parametrize("t", [-0.9, -0.5, 0.0, 1.0])
    def test_polar_rule_weight_mass(self, t):
        # the rule carries (1 - |lam|^2)^t: its total mass is the integral of
        # (1 - |lam|^2)^t dA, 1/(t + 1), at every gap
        for s in (0.0, 0.9, 0.999, 1.0 - 1e-6):
            rule = _graded_polar(s)
            _, w_rho = _polar_radial(rule.band_v, rule.band_w, rule.jacobi, t)
            got = float(np.sum(rule.cross(w_rho, rule.w_theta)))
            assert abs(got - 1.0 / (t + 1.0)) <= 1e-12 / (t + 1.0), (s, t)

    def test_overflow_raises_without_warning(self):
        # |K|^2 overflows double precision; the norm raises, as
        # diskquad.lp_norm does, with no RuntimeWarning (errors in the suite)
        mu = RadialMeasure.dirac(0.999999, 1e300)
        with pytest.raises(OverflowError):
            kernel_lp_norm(mu, 0.9, 2.0)


    @pytest.mark.parametrize("z", [math.nan, 1.0, 1.5, complex(math.nan, 0.5)])
    def test_rejects_z_outside_the_open_disk(self, z):
        # nan used to reach int(nan), and |z| = 1.5 a negative envelope
        for route in (kernel_lp_norm, pnorm_envelope):
            with pytest.raises(ValueError, match="open disk"):
                route(RadialMeasure.lebesgue(), z, 2.0)


_BETAS_TO_THE_BOUND = (0.5, 5.5, 12.5, 15.5, cns.POWER_BETA_MAX)


class TestPowerBetaBound:
    """Power densities up to ``constants.POWER_BETA_MAX`` against the series
    K = sum (n+1) m_n w^n of the closed-form m_n, and a ValueError above it."""

    @pytest.mark.parametrize("beta", _BETAS_TO_THE_BOUND)
    def test_kernel_routes_match_the_series(self, beta):
        mpmath = pytest.importorskip("mpmath")
        mu = RadialMeasure.power(1.3, beta)
        coef = (np.arange(4001) + 1.0) * moment_prefix(mu, 4000).values
        radii = np.array([0.3, 0.6, 0.9, 0.99])
        w = (radii[:, None] * np.exp(1j * np.array([0.0, 0.4, 2.0, -3.0]))).ravel()
        z, lam = np.sqrt(np.abs(w)) + 0j, np.sqrt(np.abs(w)) * np.exp(-1j * np.angle(w))
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.polyval(coef[::-1].tolist(), mpmath.mpc(x)))
                            for x in z * np.conj(lam)])
        scale = np.abs(ref) + total_mass(mu)
        for route in (eval_kernel, double_integral_eval):
            err = np.max(np.abs(route(mu, z, lam) - ref) / scale)
            assert err <= cns.DOUBLE_INTEGRAL_BUDGET, (route.__name__, err)

    @pytest.mark.parametrize("beta", _BETAS_TO_THE_BOUND)
    def test_norm_matches_the_series(self, beta):
        # ||K(z, .)||_2^2 = sum (n+1) m_n^2 |z|^(2n) on the normalized area
        mu = RadialMeasure.power(1.3, beta)
        n = np.arange(4001)
        m = moment_prefix(mu, 4000).values
        for s in (0.5, 0.9, 0.99):
            ref = math.sqrt(math.fsum((n + 1.0) * m * m * s ** (2.0 * n)))
            assert abs(kernel_lp_norm(mu, s, 2.0) - ref) <= cns.KERNEL_NORM_BUDGET * ref

    def test_routes_raise_above_the_bound(self):
        mu = RadialMeasure.power(1.0, math.nextafter(cns.POWER_BETA_MAX, math.inf))
        for call in (lambda: eval_kernel(mu, 0.5, 0.5),
                     lambda: double_integral_eval(mu, 0.5, 0.5),
                     lambda: kernel_lp_norm(mu, 0.5, 2.0),
                     lambda: pnorm_envelope(mu, 0.5, 2.0),
                     lambda: mu.pushforward_rule()):
            with pytest.raises(ValueError, match="exceeds"):
                call()
        # the closed forms take it: mn and classify keep working
        assert moment_prefix(mu, 64).values[0] == total_mass(mu)


class TestPolarRule:
    def test_one_read_only_rule_per_depth(self):
        # |z| = 0.9 and 0.91 both have depth 6: one cached rule, arrays read-only
        rule = _graded_polar(0.9)
        assert _graded_polar(0.91) is rule
        for name in ("band_v", "band_w", "jacobi", "rho", "w_rho", "phase", "sin2",
                     "w_theta", "bi", "bj"):
            with pytest.raises(ValueError):
                getattr(rule, name)[0] = 0

    def test_forelli_rudin_adds_no_cache_entry(self):
        rng = np.random.default_rng(67)
        zs = (0.3, 0.9, 0.999)
        for z in zs:
            forelli_rudin_check(0.0, 1.0, z)
        before = _polar_rule.cache_info()
        for t, c in zip(rng.uniform(-0.9, 3.0, 100), rng.uniform(0.05, 3.0, 100)):
            forelli_rudin_check(t, c, zs[int(rng.integers(3))])
        after = _polar_rule.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    @pytest.mark.parametrize("s,share", [(0.9, 0.6), (0.999, 0.4)])
    def test_fewer_nodes_than_the_tensor_rule(self, s, share):
        rho, _, theta, _ = tensor_polar(s)
        assert _graded_polar(s).bi.size * _POLAR_ORDER ** 2 <= share * rho.size * theta.size

    @pytest.mark.parametrize("mu", [
        *(RadialMeasure.power(1.0, beta) for beta in (-0.9, -0.5, 0.2, 1.5)),
        RadialMeasure.dirac(0.99),
        RadialMeasure.nu_alpha(1.5) + RadialMeasure.dirac(1.0),
        RadialMeasure(densities=(TabulatedDensity(tuple(_GRID), tuple(1.0 + _GRID ** 2)),)),
    ], ids=["power_-0.9", "power_-0.5", "power_0.2", "power_1.5", "atom_0.99",
            "nu_1.5+atom_1", "tabulated"])
    def test_within_budget_of_the_deep_tensor_rule(self, mu):
        for s in (0.05, 0.5, 0.9, 0.99, 0.999, 0.9999):
            for p in (1.05, 2.0, 3.0, 8.0):
                ref = tensor_kernel_lp_norm(mu, s, p)
                got = kernel_lp_norm(mu, s, p)
                assert abs(got - ref) <= cns.KERNEL_NORM_BUDGET * ref, (s, p)


def _c_p(p: float) -> float:
    """(Gamma(2p-2) / Gamma(p)^2)^(1/p), the constant of the envelope's upper side."""
    return (math.gamma(2.0 * p - 2.0) / math.gamma(p) ** 2) ** (1.0 / p)


class TestEnvelope:
    def test_delta0_center_collapses(self, cat):
        # the norm and the lower side are 1; the upper side is C_1.5 =
        # (Gamma(1) / Gamma(3/2)^2)^(2/3) = (4/pi)^(2/3) = 1.17474...
        lo, up = pnorm_envelope(cat["delta0"], 0.0, 1.5)
        assert lo == pytest.approx(1.0) and up == pytest.approx((4.0 / math.pi) ** (2.0 / 3.0))

    def test_lebesgue_lower_closed_form(self, cat):
        lo, _ = pnorm_envelope(cat["lebesgue"], math.sqrt(0.75), 1.5)
        assert lo == pytest.approx(0.25 ** (1.0 / 3.0) * (4.0 / 3.0) * math.log(4.0), rel=1e-10)

    def test_sandwich_on_catalog(self, cat):
        for name in ("delta0", "lebesgue", "power_-0.5", "power_0.5",
                     "nu_alpha_1.5", "delta_half"):
            reps = envelope_reports(cat[name], seed=7, n=12)
            assert all(r.passed for r in reps)

    def test_rejects_atom_at_one(self, cat):
        with pytest.raises(ValueError):
            pnorm_envelope(cat["delta1"], 0.5, 1.5)

    def test_fractional_family_stressed_point(self, cat):
        # the norm sits inside the envelope at the stressed (z, p) = (0.99, 1.3)
        n = kernel_lp_norm(cat["nu_alpha_1.5"], 0.99, 1.3)
        lo, up = pnorm_envelope(cat["nu_alpha_1.5"], 0.99, 1.3)
        assert lo <= n <= up

    def test_stated_upper_fails_outside_band(self, cat):
        # the upper side needs its constant C_p: at p = 8 the norm exceeds the
        # side with constant 1 (upper / C_p) even for the Hardy kernel
        mu = cat["delta0"]
        z, p = 0.55, 8.0
        norm = kernel_lp_norm(mu, z, p)
        _, up = pnorm_envelope(mu, z, p)
        assert up / _c_p(p) < norm / 1.01
        assert norm <= up

    @pytest.mark.parametrize("name", ["lebesgue", "power", "nu_alpha", "lebesgue+atom"])
    def test_upper_against_mpmath(self, name):
        # C_p sum_i w_i J(u_i)/u_i on the same outer rule, atoms among its nodes,
        # with J(u) = integral_{1-u}^1 (1 - t x)^(2/p-2) dt in closed form at 40 digits
        mpmath = pytest.importorskip("mpmath")
        mu = {"lebesgue": RadialMeasure.lebesgue(),
              "power": RadialMeasure.power(1.0, -0.5),
              "nu_alpha": RadialMeasure.nu_alpha(1.5),
              "lebesgue+atom": RadialMeasure.lebesgue() + RadialMeasure.dirac(0.99),
              }[name]
        for z in (0.01, 0.5, 0.9, 0.999):
            x = z ** 2
            u, wt = _rule_for_gap(mu, 1.0 - x)
            for p in (1.05, 1.5, 2.0, 3.0, 8.0):
                with mpmath.workdps(40):
                    xm, pm = mpmath.mpf(x), mpmath.mpf(p)
                    e = 2 / pm - 1
                    total = mpmath.mpf(0)
                    for ui, wi in zip(u, wt):
                        um = mpmath.mpf(float(ui))
                        if p == 2.0:
                            j = mpmath.log1p(um * xm / (1 - xm)) / xm
                        else:
                            j = ((1 - xm + um * xm) ** e - (1 - xm) ** e) / (xm * e)
                        total += mpmath.mpf(float(wi)) * j / um
                    c_p = (mpmath.gamma(2 * pm - 2) / mpmath.gamma(pm) ** 2) ** (1 / pm)
                    ref = float(c_p * total)
                _, up = pnorm_envelope(mu, z, p)
                assert abs(up - ref) <= 1e-14 * ref, (z, p)

    def test_upper_constant_is_sharp(self):
        # an atom near 1 brings the norm within a few percent of C_p times
        # the integral side (0.976 C_p at p = 3, |z| = 0.9)
        mu = RadialMeasure.dirac(0.999)
        norm = kernel_lp_norm(mu, 0.9, 3.0)
        _, up = pnorm_envelope(mu, 0.9, 3.0)
        side = up / _c_p(3.0)  # the integral side, constant 1
        assert 0.9 * _c_p(3.0) < norm / side <= _c_p(3.0)


class TestSupnormSandwich:
    @pytest.mark.parametrize("p,beta", [(1.5, 1.0), (1.2, 0.5), (1.8, 1.0)])
    def test_power_measures(self, p, beta):
        mu = RadialMeasure.power(1.0, beta)
        mx, lo, up = supnorm_sandwich(mu, p)
        assert lo <= mx <= up

    def test_rejects_divergent_moment(self, cat):
        with pytest.raises(ValueError):
            supnorm_sandwich(cat["power_-0.5"], 1.5)  # beta - (2 - 2/p) <= -1


class TestCzConstants:
    def test_delta1_projection_constants(self, cat):
        pred = cz_constants(cat["delta1"])
        assert pred == CzConstants(2.0, 2.0, 6.0, "c=1")

    def test_power_half_negative(self, cat):
        pred = cz_constants(cat["power_-0.5"])
        assert pred.order == pytest.approx(1.5)
        c = 4.0 / 3.0
        assert pred.size == pytest.approx(2.0 * c * 2 ** 0.5 / (2 - c))
        assert pred.smooth == pytest.approx(2.0 * c * 2 ** 1.5 * (1 / (2 * (2 - c)) + 1))

    def test_power_half_positive(self, cat):
        pred = cz_constants(cat["power_0.5"])
        assert pred.case == "c=2" and pred.order == 1.0
        assert pred.size == pytest.approx(2.0 + 2.0 / 3.0)
        assert pred.smooth == pytest.approx(2.0 + 10.0 / 3.0)

    @pytest.mark.parametrize("alpha", [1.51, 1.52, 1.73, 1.8, 1.95])
    def test_carleson_exponent_is_s0(self, alpha):
        # 2 - 2/c recomputed from c lands an ulp above s0 = 2 - alpha here
        pred = cz_constants(RadialMeasure.nu_alpha(alpha))
        assert isinstance(pred, CzConstants) and pred.case == "1<c<2"
        assert pred.order == pytest.approx(2.0 - (2.0 - alpha), rel=1e-15)

    def test_lebesgue_not_applicable(self, cat):
        pred = cz_constants(cat["lebesgue"])
        assert isinstance(pred, CzNotApplicable)
        assert "hyperbolic" in pred.reason

    def test_pointwise_bounds(self, cat):
        for name in ("delta1", "power_-0.5", "power_0.5"):
            for rep in cz_pointwise_reports(cat[name], seed=13, n=400):
                assert rep.passed


class TestSplit:
    def test_pure_atom(self, cat):
        rest, mass = split_at_one(cat["delta1"])
        assert rest is None and mass == 1.0

    def test_no_atom(self, cat):
        rest, mass = split_at_one(cat["lebesgue"])
        assert rest is cat["lebesgue"] and mass == 0.0

    def test_two_sided_pointwise_bound(self, cat, rng):
        mu = cat["lebesgue_plus_atom1"]
        nu1, mass = split_at_one(mu)
        assert mass == 0.5
        z, lam = sample_boundary_pairs(rng, 100, depth=3.0)
        k_full = np.abs(eval_kernel(mu, z, lam))
        k_rest = np.abs(eval_kernel(nu1, z, lam))
        atom_part = mass / np.abs(1.0 - z * np.conj(lam)) ** 2
        assert np.all(k_full <= atom_part + k_rest + 1e-12)
        assert np.all(k_full >= 0.5 * (atom_part + k_rest) * (1 - 1e-12))


class TestForelliRudin:
    def test_center_trivial(self):
        integral, shape = forelli_rudin_check(0.0, 1.0, 0.0)
        assert integral == pytest.approx(1.0, rel=1e-9)
        assert shape == 1.0

    def test_ratio_bounded_on_sweep(self):
        ratios = []
        for z in (0.5, 0.9, 0.99, 0.999):
            integral, shape = forelli_rudin_check(0.0, 1.0, z)
            ratios.append(integral / shape)
        assert max(ratios) / min(ratios) < 10.0

    def test_self_consistency_c2(self):
        i1, s1 = forelli_rudin_check(0.0, 2.0, 0.9)
        i2, s2 = forelli_rudin_check(0.0, 2.0, 0.99)
        assert (i2 / s2) == pytest.approx(i1 / s1, rel=3.0)  # within a factor 4

    @pytest.mark.parametrize("t", [-0.9, -0.5, 0.0, 1.0, 3.0])
    def test_against_mpmath(self, t):
        # integral (1-|lam|^2)^t |1 - z conj(lam)|^-(2+c+t) dA = 2F1(a, a; t+2; |z|^2)/(t+1)
        # with a = (2+c+t)/2, the factor (1 - rho^2)^t singular at rho = 1 for t < 0;
        # t, c and |z| span the ranges of forelli_rudin_reports
        mpmath = pytest.importorskip("mpmath")
        for c in (0.05, 0.5, 1.0, 2.0, 3.0):
            for z in (0.0, 0.5, 0.9, 0.99, 0.999, 0.9999):
                with mpmath.workdps(30):
                    a = (2 + c + mpmath.mpf(t)) / 2
                    ref = float(mpmath.hyp2f1(a, a, t + 2, mpmath.mpf(z) ** 2) / (t + 1))
                integral, _ = forelli_rudin_check(t, c, z)
                assert abs(integral - ref) <= cns.KERNEL_NORM_BUDGET * ref, (c, z)

    def test_equality_case(self):
        # at c = t + 2, b = 0 and the integral is (1 - |z|^2)^-c / (t + 1) exactly
        rng = np.random.default_rng(29)
        ts = rng.uniform(-0.9, 3.0, 40)
        zs = 1.0 - 10.0 ** (-rng.uniform(0.3, 4.0, 40))
        for t, z in zip(ts, zs):
            integral, shape = forelli_rudin_check(t, t + 2.0, z)
            exact = shape / (t + 1.0)
            assert abs(integral - exact) <= cns.KERNEL_NORM_BUDGET * exact, (t, z)

    def test_reports_hold_on_seeds(self):
        for seed in range(100):
            lower, upper = forelli_rudin_reports(seed)
            assert (lower.bound_name, upper.bound_name) == ("forelli-rudin-lower",
                                                            "forelli-rudin-upper")
            assert lower.passed and upper.passed, seed
            assert lower.n_samples == upper.n_samples == 8
            assert len(lower.witness) == 3

    def test_upper_side_is_the_boundary_limit(self):
        # (1 - |z|^2)^c I tends to Gauss's value as |z| -> 1
        t, c = 0.5, 1.3
        integral, shape = forelli_rudin_check(t, c, 1.0 - 1e-8)
        gauss = math.exp(math.lgamma(t + 1.0) + math.lgamma(c)
                         - 2.0 * math.lgamma((2.0 + t + c) / 2.0))
        assert integral / shape == pytest.approx(gauss, rel=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            forelli_rudin_check(-1.5, 1.0, 0.5)
        with pytest.raises(ValueError):
            forelli_rudin_check(0.0, 0.0, 0.5)


class TestBoundReport:
    def test_violation_carries_witness(self):
        rep = bound_report("demo", np.array([1.0, 3.0]), np.array([2.0, 2.0]),
                           (np.array([10.0, 20.0]),))
        assert rep.witness == (20.0,)
        assert rep.bound_name == "demo" and rep.n_samples == 2

    def test_violation_returns_failed_report(self):
        rep = bound_report("demo", np.array([3.0]), np.array([2.0]), (np.array([1.0]),))
        assert not rep.passed and rep.worst_margin == pytest.approx(-0.5)
        assert bound_report("demo", np.array([2.0]), np.array([2.0]), (np.array([1.0]),)).passed
