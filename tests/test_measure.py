"""Measure functionals against closed-form oracles and invariants."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import hyp2f1

from conftest import random_catalog_measure
from shimorin_lab.measure import (
    Atom,
    DivergibleValue,
    NuAlphaDensity,
    PowerDensity,
    RadialMeasure,
    TabulatedDensity,
    carleson_constant,
    critical_index,
    _ladder,
    hyperbolic_integral,
    reciprocal_gap_integral,
    singular_moment,
    tail_mass,
    total_mass,
)
from shimorin_lab.multiplier import claim1_envelope, moment_prefix, moments_at


class TestTotalMass:
    def test_unit_atom(self, cat):
        assert total_mass(cat["delta0"]) == 1.0

    def test_nu_alpha_beta_identity(self, cat):
        # closed form says exactly 1; quadrature of the density must agree
        mu = cat["nu_alpha_1.5"]
        assert total_mass(mu) == 1.0
        u, w = mu.pushforward_rule()
        assert np.sum(w) == pytest.approx(1.0, rel=1e-10)

    def test_additivity(self, cat):
        assert total_mass(cat["lebesgue_plus_atom1"]) == pytest.approx(1.5)


class TestTailMass:
    def test_lebesgue_quarter(self, cat):
        assert tail_mass(cat["lebesgue"], 0.25) == pytest.approx(0.25)

    def test_atom_at_one_excluded(self, cat):
        assert tail_mass(cat["delta1"], 0.5) == 0.0

    def test_power_closed_form(self, cat):
        assert tail_mass(cat["power_-0.5"], 0.04) == pytest.approx(0.4)

    def test_domain_error(self, cat):
        with pytest.raises(ValueError):
            tail_mass(cat["lebesgue"], 0.0)
        with pytest.raises(ValueError):
            tail_mass(cat["lebesgue"], 1.5)

    def test_monotone_and_total(self, rng):
        for _ in range(25):
            mu = random_catalog_measure(rng)
            ts = np.sort(rng.uniform(0.01, 1.0, 8))
            vals = [tail_mass(mu, t) for t in ts]
            assert np.all(np.diff(vals) >= -1e-12)
            at_one = sum(a.mass for a in mu.atoms if a.x == 1.0)
            assert tail_mass(mu, 1.0) + at_one == pytest.approx(total_mass(mu), rel=1e-9)

    def test_power_tail_vs_quadrature(self):
        # kappa t^(beta+1)/(beta+1) against graded quadrature of the density on [0, t]
        from shimorin_lab._gridquad import geometric_breaks, panel_rule

        d = PowerDensity(1.7, -0.3)
        for t in (0.5, 0.1, 0.01):
            u, g = panel_rule(geometric_breaks(t * 2.0 ** -50, t), 16)
            quad = float(np.dot(g, d.kappa * u ** d.beta))
            quad += d.kappa * (t * 2.0 ** -50) ** (d.beta + 1.0) / (d.beta + 1.0)
            assert d.tail(t) == pytest.approx(quad, rel=1e-10)


class TestSingularMoment:
    def test_atom_at_zero(self, cat):
        v = singular_moment(cat["delta0"], 0.5)
        assert v.is_finite and v.value == pytest.approx(1.0)

    def test_nu_alpha_boundary_divergence(self, cat):
        # exponent sits exactly at the convergence boundary: log blow-up
        v = singular_moment(cat["nu_alpha_1.5"], 0.5)
        assert not v.is_finite

    def test_nu_alpha_log_rate_oracle(self, cat):
        # truncated integrals on [0, 1-eps] grow like log(1/eps)
        mu = cat["nu_alpha_1.5"]
        u, w = mu.pushforward_rule()
        vals = []
        for eps in (1e-4, 1e-6, 1e-8):
            keep = u >= eps
            vals.append(np.sum(w[keep] * u[keep] ** -0.5))
        diffs = np.diff(vals)
        assert diffs[1] == pytest.approx(diffs[0], rel=0.05)  # log steps are constant

    def test_power_closed_form(self, cat):
        v = singular_moment(cat["power_-0.5"], 0.25)
        assert v.is_finite and v.value == pytest.approx(4.0)

    def test_monotone_in_s(self, rng):
        for _ in range(20):
            mu = random_catalog_measure(rng)
            svals = np.linspace(0.0, 0.95, 12)
            prev = -np.inf
            diverged = False
            for s in svals:
                v = singular_moment(mu, s)
                if diverged:
                    assert not v.is_finite  # divergence is upward-closed
                elif v.is_finite:
                    assert v.value >= prev - 1e-12
                    prev = v.value
                else:
                    diverged = True

    def test_disk_variant_factor(self, rng):
        # (1-r^2)^-s and (1-r)^-s moments differ by a factor in [1, 2^s]
        for _ in range(10):
            mu = random_catalog_measure(rng, allow_atom_at_one=False)
            s = float(rng.uniform(0.05, 0.9))
            gap = singular_moment(mu, s, "gap")
            disk = singular_moment(mu, s, "disk")
            assert gap.is_finite == disk.is_finite
            if gap.is_finite:
                ratio = gap.value / disk.value
                assert 1.0 - 1e-9 <= ratio <= 2.0 ** s + 1e-9


def mp_disk_moment(density, s: float) -> float:
    """integral (1-r^2)^-s d nu at 30 digits, the endpoint powers of the
    pushforward density taken out by substitution (u = x^(1/c), 1 - u = y^(1/d))."""
    with mp.workdps(30):
        S = mp.mpf(s)
        if isinstance(density, PowerDensity):
            e = mp.mpf(density.beta) - S + 1
            return float(density.kappa * mp.quad(lambda x: (2 - x ** (1 / e)) ** -S, [0, 1]) / e)
        a = mp.mpf(density.alpha)
        c, d, half = 2 - a - S, a - 1, mp.mpf(1) / 2
        left = mp.quad(lambda x: (1 - x ** (1 / c)) ** (d - 1) * (2 - x ** (1 / c)) ** -S,
                       [0, half ** c]) / c
        right = mp.quad(lambda y: (1 - y ** (1 / d)) ** (c - 1) * (1 + y ** (1 / d)) ** -S,
                        [0, half ** d]) / d
        return float((left + right) / mp.beta(a - 1, 2 - a))


class TestDiskMomentClosedForms:
    @pytest.mark.parametrize("density, s", [
        (NuAlphaDensity(1.9), 0.05), (NuAlphaDensity(1.05), 0.9), (NuAlphaDensity(1.5), 0.3),
        (PowerDensity(1.0, -0.9), 0.05), (PowerDensity(2.0, -0.5), 0.25),
        (PowerDensity(1.0, 0.0), 0.9)])
    def test_against_quadrature(self, density, s):
        # s just below s0: the truncated tail shrinks like eps^(s0 - s), which a
        # truncation ladder cannot tell from growth (nu_1.9 at s = 0.05)
        v = singular_moment(RadialMeasure(densities=(density,)), s, "disk")
        assert v.is_finite and v.value == pytest.approx(mp_disk_moment(density, s), rel=1e-13)

    @pytest.mark.parametrize("mu", [RadialMeasure.nu_alpha(1.5), RadialMeasure.power(1.0, -0.5),
                                    RadialMeasure.nu_alpha(1.9)])
    def test_divergence_reports_the_gap_exponent(self, mu):
        for s in (0.5, 0.7, 0.95):
            gap, disk = singular_moment(mu, s, "gap"), singular_moment(mu, s, "disk")
            assert disk.is_finite == gap.is_finite
            assert disk.growth_exponent == gap.growth_exponent


class TestURule:
    """The one u-rule per density serves the moments and the truncation ladder."""

    @pytest.mark.parametrize("density", [PowerDensity(2.0, -0.5), PowerDensity(1.0, 0.7),
                                         NuAlphaDensity(1.3), NuAlphaDensity(1.9)])
    def test_below_the_cut_off_sits_only_the_tail_atom(self, density):
        # the ladder keeps u >= eps, so it drops the analytic sub-mesh tail
        # (the first-order tail for nu_alpha) and nothing else
        for eps in (1e-2, 1e-7, 2.0 ** -60):
            u, w = density.u_rule(eps, 16)
            below = u < eps
            assert below.sum() == 1 and u.min() > 0.0
            assert w[below][0] == pytest.approx(density.tail(eps), rel=2 * eps + 1e-12)

    @pytest.mark.parametrize("kappa, b, s", [(1.0, 0.5, 0.3), (2.0, -0.5, 0.25),
                                             (1.0, 0.0, 0.9), (1.5, 1.2, 0.5)])
    def test_power_disk_moment_oracle(self, kappa, b, s):
        # kappa 2^-s / e 2F1(s, e; e + 1; 1/2), e = beta - s + 1
        v = singular_moment(RadialMeasure.power(kappa, b), s, "disk")
        e = b - s + 1.0
        assert v.is_finite
        assert v.value == pytest.approx(kappa * 2.0 ** -s / e * hyp2f1(s, e, e + 1.0, 0.5),
                                        rel=1e-9)

    @pytest.mark.parametrize("alpha, s", [(1.5, 0.3), (1.3, 0.5), (1.7, 0.1)])
    def test_nu_alpha_disk_moment_oracle(self, alpha, s):
        # 2^-s B(c, d) 2F1(s, c; c + d; 1/2) / B(alpha - 1, 2 - alpha), c = 2 - alpha - s
        v = singular_moment(RadialMeasure.nu_alpha(alpha), s, "disk")
        c, d = 2.0 - alpha - s, alpha - 1.0
        expect = (2.0 ** -s * beta_fn(c, d) * hyp2f1(s, c, c + d, 0.5)
                  / beta_fn(alpha - 1.0, 2.0 - alpha))
        assert v.is_finite and v.value == pytest.approx(expect, rel=1e-9)


class TestCriticalIndex:
    def test_catalog_values(self, cat):
        assert critical_index(cat["delta1"]).c == 1.0
        assert critical_index(cat["delta1"]).attained == "yes"
        assert critical_index(cat["delta0"]).c == 2.0
        assert critical_index(cat["lebesgue"]).c == 2.0
        ci = critical_index(cat["nu_alpha_1.5"])
        assert ci.c == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert ci.attained == "no"

    def test_range_and_atom_at_one(self, rng):
        for _ in range(30):
            mu = random_catalog_measure(rng)
            c = critical_index(mu).c
            assert 1.0 <= c <= 2.0
            if any(a.x == 1.0 for a in mu.atoms):
                assert c == 1.0

    def test_power_sup_not_attained(self):
        # the disk moment at s0 = beta + 1 (or 1) diverges, however beta + 1 rounds
        for b in (*np.linspace(-0.95, 0.0, 96), -0.3, -1e-3):
            assert critical_index(RadialMeasure.power(1.0, float(b))).attained == "no"

    def test_power_sup_attained_for_positive_beta(self):
        # s0 = 1 and the hyperbolic integral is finite, even where 1 + beta rounds to 1
        for b in (1e-20, 1e-16, 0.3, 2.0):
            assert critical_index(RadialMeasure.power(1.0, b)).attained == "yes"

    def test_mixture_minimum_rule(self):
        mu = RadialMeasure.power(1.0, -0.5) + RadialMeasure.nu_alpha(1.2)
        # component indices 4/3 and 2/1.2=5/3; mixture takes the minimum
        assert critical_index(mu).c == pytest.approx(4.0 / 3.0)

    def test_tabulated_bisection(self):
        # tabulate (1-r)^-0.5 approximately: the bisection bracket is 1e-3 wide,
        # but the divergence detector's resolution near the critical exponent is
        # coarser (slowly-converging truncations read as growth), so the located
        # s0 only lands within ~0.1 of the intended value
        r = 1.0 - np.geomspace(1e-12, 1.0, 4000)[::-1]
        vals = (1.0 - r) ** -0.5
        mu = RadialMeasure(densities=(TabulatedDensity(tuple(r), tuple(vals)),))
        ci = critical_index(mu)
        assert ci.interval is not None
        lo, hi = ci.interval
        assert hi - lo <= 1e-3 + 1e-12
        assert abs(ci.s0 - 0.5) < 0.15
        assert ci.attained == "unknown"


class TestTabulated:
    # a grid clear of r = 1, where the moment integrand stays finite
    r = np.linspace(0.0, 0.99, 200)
    v = 1.0 + r ** 2

    def measure(self):
        return RadialMeasure(densities=(TabulatedDensity(tuple(self.r), tuple(self.v)),))

    @staticmethod
    def trapezoid_sum(r, v):
        return sum(0.5 * (v[i] + v[i + 1]) * (r[i + 1] - r[i]) for i in range(len(r) - 1))

    def test_total_mass_is_the_trapezoid_sum(self):
        assert total_mass(self.measure()) == pytest.approx(
            self.trapezoid_sum(self.r, self.v), rel=1e-14)

    def test_tail_mass_is_the_trapezoid_sum(self):
        mu = self.measure()
        t = 0.3  # 1 - t lies between grid nodes
        lo = 1.0 - t
        i = int(np.searchsorted(self.r, lo))
        # the density at 1 - t is interpolated linearly between its neighbours
        vlo = self.v[i - 1] + (self.v[i] - self.v[i - 1]) * (lo - self.r[i - 1]) / (
            self.r[i] - self.r[i - 1])
        rr = np.concatenate(([lo], self.r[i:]))
        vv = np.concatenate(([vlo], self.v[i:]))
        assert tail_mass(mu, t) == pytest.approx(self.trapezoid_sum(rr, vv), rel=1e-14)
        assert tail_mass(mu, 1.0) == total_mass(mu)
        assert tail_mass(mu, 0.005) == 0.0

    def test_moments_start_at_the_total_mass(self):
        mu = self.measure()
        seq = moment_prefix(mu, 64)
        assert seq.values[0] == total_mass(mu)
        assert np.all(np.diff(seq.values) < 0.0)
        assert moments_at(mu, [0, 64])[0] == total_mass(mu)
        assert moments_at(mu, [0, 64])[1] == pytest.approx(seq.values[64], rel=1e-10)


class TestTabulatedGridEnds:
    # a grid holding both ends: r = 0 (u = 1) and r = 1 (u = 0)
    r = np.linspace(0.0, 1.0, 41)
    v = 0.5 + (1.0 - r) ** 1.5

    def measure(self):
        return RadialMeasure(densities=(TabulatedDensity(tuple(self.r), tuple(self.v)),))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_moments_are_the_trapezoid_sums(self):
        N = 64
        ref = []
        for n in range(N + 1):
            # (1 + r + ... + r^n)/(n+1), which is 1 at r = 1
            g = np.array([sum(x ** k for k in range(n + 1)) / (n + 1) for x in self.r])
            ref.append(TestTabulated.trapezoid_sum(self.r, self.v * g))
        mu = self.measure()
        assert moment_prefix(mu, N).values == pytest.approx(ref, rel=1e-13)
        assert moments_at(mu, [1, 17, N]) == pytest.approx([ref[1], ref[17], ref[N]], rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_envelope_holds_the_moments(self):
        mu = self.measure()
        n = np.arange(65)
        lo, up = claim1_envelope(mu, n)
        m = moment_prefix(mu, 64).values
        assert np.all(np.isfinite(up)) and np.all(lo <= m) and np.all(m <= up * (1 + 1e-12))


class TestCarleson:
    def test_delta1_zero_exponent(self, cat):
        v = carleson_constant(cat["delta1"], 0.0)
        assert v.is_finite and v.value == pytest.approx(1.0)

    def test_power_constant(self, cat):
        v = carleson_constant(cat["power_-0.5"], 0.5)
        assert v.is_finite and v.value == pytest.approx(2.0)

    def test_delta1_positive_exponent_divergent(self, cat):
        assert not carleson_constant(cat["delta1"], 0.5).is_finite

    def test_atom_near_one(self):
        mu = RadialMeasure.dirac(1.0 - 1e-6, 1.0)
        v = carleson_constant(mu, 0.5)
        assert v.is_finite and v.value == pytest.approx(1e3, rel=1e-9)

    def test_trichotomy_predicate_on_catalog(self, cat):
        # for 1 < c < 2 finiteness at exponent 2 - 2/c matches the trichotomy verdicts
        for name, finite in (("power_-0.5", True), ("nu_alpha_1.5", True)):
            c = critical_index(cat[name]).c
            assert carleson_constant(cat[name], 2.0 - 2.0 / c).is_finite == finite


class TestHyperbolic:
    def test_atom(self, cat):
        v = hyperbolic_integral(cat["delta0"])
        assert v.is_finite and v.value == pytest.approx(1.0)

    def test_lebesgue_divergent_log(self, cat):
        v = hyperbolic_integral(cat["lebesgue"])
        assert not v.is_finite
        assert v.growth_exponent == pytest.approx(0.0, abs=0.1)  # log blow-up

    def test_power_half_value(self, cat):
        # closed form (1/sqrt2) log((sqrt2+1)/(sqrt2-1))
        v = hyperbolic_integral(cat["power_0.5"])
        expect = math.log((math.sqrt(2) + 1) / (math.sqrt(2) - 1)) / math.sqrt(2)
        assert v.is_finite and v.value == pytest.approx(expect, rel=1e-9)
        assert 1.0 <= v.value <= 2.0

    def test_reciprocal_gap(self, cat):
        v = reciprocal_gap_integral(cat["power_0.5"])
        assert v.is_finite and v.value == pytest.approx(2.0)

    @pytest.mark.parametrize("kappa", [0.7, 1.0])
    @pytest.mark.parametrize("b", [0.01, 0.05, 0.2, 0.5, 1.0, 3.0])
    def test_power_against_mpmath(self, kappa, b):
        # kappa/(2 beta) 2F1(1, beta; beta + 1; 1/2) at 40 digits
        with mp.workdps(40):
            expect = float(mp.mpf(kappa) / (2 * mp.mpf(b)) * mp.hyp2f1(1, b, b + 1, 0.5))
        v = hyperbolic_integral(RadialMeasure.power(kappa, b))
        assert v.is_finite and abs(v.value - expect) <= 2e-15 * expect

    @pytest.mark.parametrize("kappa, b", [(1.0, 0.05), (0.7, 0.2), (1.0, 3.0), (2.5, 0.01),
                                         (1.0, 1e-20)])
    def test_reciprocal_gap_power_is_kappa_over_beta(self, kappa, b):
        v = reciprocal_gap_integral(RadialMeasure.power(kappa, b))
        assert v.is_finite and v.value == kappa / b

    @pytest.mark.parametrize("integral", [hyperbolic_integral, reciprocal_gap_integral])
    def test_atom_at_one_adds_nothing(self, cat, integral):
        for name in ("delta_half", "power_0.5", "lebesgue", "nu_alpha_1.5"):
            assert integral(cat[name] + RadialMeasure.dirac(1.0, 3.0)) == integral(cat[name])
        assert integral(cat["delta1"]) == DivergibleValue.finite(0.0)

    def test_tabulated_is_the_ladder(self):
        r = np.linspace(0.0, 0.99, 200)
        d = TabulatedDensity(tuple(r), tuple(1.0 + r * r))
        mu = RadialMeasure(densities=(d,))
        for integral, integrand in ((hyperbolic_integral, lambda u: 1.0 / (u * (2.0 - u))),
                                    (reciprocal_gap_integral, lambda u: 1.0 / u)):
            got, want = integral(mu), _ladder(d, integrand)
            assert got.is_finite and want.is_finite
            assert got.value == pytest.approx(want.value, rel=1e-14)

    def test_singular_moment_range_ends_at_one(self, cat):
        assert singular_moment(cat["power_0.5"], 1.0, "gap").value == 2.0
        for s in (-1e-12, 1.0 + 1e-12, 2.0):
            with pytest.raises(ValueError):
                singular_moment(cat["power_0.5"], s)


class TestJsonSchema:
    def test_roundtrip(self):
        spec = {"atoms": [{"x": 1.0, "mass": 0.25}],
                "densities": [{"kind": "power", "kappa": 1.0, "beta": -0.5},
                              {"kind": "nu_alpha", "alpha": 1.5},
                              {"kind": "lebesgue"}]}
        mu = RadialMeasure.from_json(json.dumps(spec))
        assert total_mass(mu) == pytest.approx(0.25 + 2.0 + 1.0 + 1.0)
        again = RadialMeasure.from_spec(mu.to_spec())
        assert total_mass(again) == pytest.approx(total_mass(mu))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RadialMeasure.from_spec({"densities": [{"kind": "gaussian"}]})

    @pytest.mark.parametrize("spec, field", [
        ({"atoms": [{"x": 0.5}]}, "'mass'"),
        ({"densities": [{"kind": "power", "kappa": 1.0}]}, "'beta'"),
        ({"densities": [{"kind": "nu_alpha"}]}, "'alpha'"),
        ({"densities": [{"kind": "tabulated", "r": [0.0, 1.0]}]}, "'values'"),
        ({"densities": [{"kind": "power", "kappa": 1.0, "beta": None}]}, "'beta'"),
        ({"densities": [{"kind": "tabulated", "r": 0.5, "values": [1.0]}]}, "'r'"),
        ({"atoms": [0.5]}, "'atoms'"),
        ([0.5], "JSON object"),
    ])
    def test_malformed_spec_names_the_field(self, spec, field):
        with pytest.raises(ValueError, match=field):
            RadialMeasure.from_spec(spec)


class TestValidation:
    def test_rejects_bad_components(self):
        with pytest.raises(ValueError):
            RadialMeasure(atoms=(Atom(1.5, 1.0),))
        with pytest.raises(ValueError):
            RadialMeasure(atoms=(Atom(0.5, -1.0),))
        with pytest.raises(ValueError):
            RadialMeasure(densities=(PowerDensity(1.0, -1.0),))
        with pytest.raises(ValueError):
            RadialMeasure()

    @given(st.floats(min_value=-0.95, max_value=2.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_power_mass_positive(self, beta, kappa):
        mu = RadialMeasure.power(kappa, beta)
        assert total_mass(mu) > 0.0
