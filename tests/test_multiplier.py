"""Multiplier sequence: exact oracles, envelope, decay, series verdicts.

Independent oracles used here (never shared with the implementation path):
atoms and the harmonic form H_(n+1)/(n+1) are elementary; power densities use
the telescoped Beta-sum closed form

    m_n = (kappa/beta) (1 - Gamma(beta+1) Gamma(n+2) / Gamma(n+beta+2)) / (n+1)

and the normalized fractional family uses m_n = Gamma(n+alpha)/(Gamma(alpha)
Gamma(n+2)); both follow by integrating sum r^k termwise against the density.
The closed forms the package evaluates are also held against the same
formulas in mpmath at 40 digits, with every argument built from mpf values.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma, gammaln

from conftest import random_catalog_measure
from shimorin_lab._gridquad import moment_sum
from shimorin_lab.measure import (
    Atom,
    NuAlphaDensity,
    PowerDensity,
    RadialMeasure,
    TabulatedDensity,
    catalog,
    total_mass,
)
from shimorin_lab.multiplier import (
    DecayEstimate,
    MultiplierSequence,
    _probe_indices,
    _quadrature_moments,
    claim1_envelope,
    decay_exponent_estimate,
    dyadic_block_verdict,
    moment_prefix,
    moments_at,
    series_partial,
)


def power_moment_oracle(kappa: float, beta: float, n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if beta == 0.0:
        H = np.cumsum(1.0 / np.arange(1.0, n.max() + 2.0))
        return kappa * H[n.astype(int)] / (n + 1.0)
    ratio = np.exp(gammaln(beta + 1.0) + gammaln(n + 2.0) - gammaln(n + beta + 2.0))
    return kappa / beta * (1.0 - ratio) / (n + 1.0)


def nu_alpha_moment_oracle(alpha: float, n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return np.exp(gammaln(n + alpha) - gammaln(alpha) - gammaln(n + 2.0))


# n = 1..80 and a geometric grid up to 2^17
MP_GRID = np.unique(np.concatenate((np.arange(1, 81),
                                    np.geomspace(81, 131072, 40).astype(np.int64))))


def mp_power_moment(beta: float, n: np.ndarray) -> np.ndarray:
    """(1/beta - Gamma(beta) Gamma(n+2) / Gamma(n+2+beta)) / (n+1), or H_(n+1)/(n+1)."""
    out = []
    with mp.workdps(40):
        b = mp.mpf(beta)
        for k in n.tolist():
            N = mp.mpf(k) + 1
            if beta == 0.0:
                s = mp.harmonic(N)
            else:
                s = 1 / b - mp.gamma(b) * mp.gamma(N + 1) / mp.gamma(N + 1 + b)
            out.append(float(s / N))
    return np.array(out)


def mp_nu_alpha_moment(alpha: float, n: np.ndarray) -> np.ndarray:
    out = []
    with mp.workdps(40):
        a = mp.mpf(alpha)
        for k in n.tolist():
            K = mp.mpf(k)
            out.append(float(mp.gamma(K + a) / (mp.gamma(a) * mp.gamma(K + 2))))
    return np.array(out)


def max_rel(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


class TestClosedFormsAgainstMpmath:
    @pytest.mark.parametrize("beta", [-0.75, -0.25, -1e-3, 1e-3, -1e-8, 1e-8, 0.25, 1.5, 0.0])
    def test_power(self, beta):
        ref = mp_power_moment(beta, MP_GRID)
        assert max_rel(PowerDensity(1.0, beta).moments(MP_GRID), ref) <= 1e-14
        assert max_rel(moments_at(RadialMeasure.power(2.5, beta), MP_GRID), 2.5 * ref) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_nu_alpha(self, alpha):
        ref = mp_nu_alpha_moment(alpha, MP_GRID)
        assert max_rel(NuAlphaDensity(alpha).moments(MP_GRID), ref) <= 1e-14
        assert max_rel(moments_at(RadialMeasure.nu_alpha(alpha), MP_GRID), ref) <= 1e-14

    @pytest.mark.parametrize("x", [0.3, 0.9, 0.999, 0.9999999])
    def test_atom(self, x):
        # (1 - x^(n+1)) / ((n+1)(1-x)) to a few ulps at every index; a
        # cumulative sum of powers drifts to 2e-15 below n = 1000
        n = np.arange(1, 1000)
        with mp.workdps(40):
            X = mp.mpf(x)
            ref = np.array([float((1 - X ** (k + 1)) / ((k + 1) * (1 - X))) for k in n])
        assert max_rel(moments_at(RadialMeasure.dirac(x), n), ref) <= 5e-16

    def test_lebesgue_dyadic_grid(self):
        # H_(n+1)/(n+1) by the psi series, on n <= 80 and 2^k - 1, 2^k, 2^k + 1 to 2^17
        k = 2 ** np.arange(18)
        n = np.unique(np.concatenate((np.arange(81), k - 1, k, k + 1)))
        n = n[n <= 2 ** 17]
        assert max_rel(PowerDensity(1.0, 0.0).moments(n), mp_power_moment(0.0, n)) <= 1.7e-15

    def test_lebesgue_matches_scipy_digamma(self):
        n = np.arange(2 ** 17 + 1)
        ref = (digamma(n + 2.0) + np.euler_gamma) / (n + 1.0)
        assert max_rel(PowerDensity(1.0, 0.0).moments(n), ref) <= 1e-15

    def test_lebesgue_prefix(self):
        ref = mp_power_moment(0.0, MP_GRID)
        m = moment_prefix(RadialMeasure.lebesgue(), int(MP_GRID.max())).values
        assert max_rel(m[MP_GRID], ref) <= 1e-14


class TestComponentProtocol:
    def test_tabulated_sums_its_grid(self):
        # trapezoid weights 1 at r = 1 (value 2, half-width 1/2) and 1/2 at
        # r = 0, where the integrand is 1 and 1/(n+1)
        got = TabulatedDensity((0.0, 1.0), (1.0, 2.0)).moments(MP_GRID)
        assert max_rel(got, 1.0 + 0.5 / (MP_GRID + 1.0)) <= 1e-15
        # and min{1, 1/(N u)} is 1 at u = 0 and 1/N at u = 1
        N = np.array([1.0, 2.0, 10.0, 1e6])
        got = TabulatedDensity((0.0, 1.0), (1.0, 2.0)).envelope(N)
        assert np.array_equal(got, 1.0 + 0.5 / N)

    def test_moment_sum_limits_at_the_grid_ends(self):
        n = np.array([0, 1, 7, 1000])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_one = moment_sum(np.array([0.0]), np.array([1.0]), n)
            at_zero = moment_sum(np.array([1.0]), np.array([1.0]), n)
        assert np.array_equal(at_one, np.ones(4))
        assert np.array_equal(at_zero, 1.0 / (n + 1.0))

    def test_moments_are_the_sum_of_the_components(self):
        comps = (Atom(0.4, 0.3), PowerDensity(1.2, -0.5), NuAlphaDensity(1.5),
                 TabulatedDensity((0.0, 0.3, 0.7, 1.0), (1.0, 2.0, 0.5, 1.5)))
        mu = RadialMeasure(comps[:1], comps[1:])
        n = np.arange(1, 3000)
        parts = np.zeros(n.shape)
        for c in comps:
            parts += c.moments(n)
        assert np.array_equal(moments_at(mu, n), parts)
        assert moments_at(mu, 0)[0] == total_mass(mu)

    def test_envelope_is_the_sum_of_the_components(self):
        comps = (Atom(1.0, 0.2), Atom(0.4, 0.3), PowerDensity(1.2, -0.5), NuAlphaDensity(1.5),
                 TabulatedDensity((0.0, 0.3, 0.7, 1.0), (1.0, 2.0, 0.5, 1.5)))
        mu = RadialMeasure(comps[:2], comps[2:])
        n = np.arange(1, 3000)
        parts = np.zeros(n.shape)
        for c in comps:
            parts += c.envelope(n + 1.0)
        lo, up = claim1_envelope(mu, n)
        assert np.array_equal(up, parts)
        assert np.array_equal(lo, (1.0 - math.exp(-1.0)) * parts)
        assert claim1_envelope(mu, 0)[1][0] == total_mass(mu)


class TestQuadratureRoute:
    def test_probe_is_dyadic_plus_top(self):
        assert _probe_indices(10000).tolist() == [2 ** k for k in range(14)] + [10000]
        assert _probe_indices(4096).tolist() == [2 ** k for k in range(13)]

    @pytest.mark.parametrize("name", ["lebesgue", "nu_alpha_1.5", "power_-0.5", "power_0.5"])
    def test_agrees_with_the_closed_forms(self, cat, name):
        n = _probe_indices(131072)
        quad = _quadrature_moments(cat[name], n)
        assert max_rel(quad, moments_at(cat[name], n)) <= 1e-13


class TestMoment:
    def test_delta1_identity_multiplier(self, cat):
        assert np.all(moments_at(cat["delta1"], [0, 1, 7, 1000, 12345]) == 1.0)

    def test_delta0_harmonic(self, cat):
        n = np.array([0, 1, 2, 3, 999, 5000])
        assert np.allclose(moments_at(cat["delta0"], n), 1.0 / (n + 1), rtol=1e-15, atol=0)

    def test_lebesgue_values(self, cat):
        m1, m2 = moments_at(cat["lebesgue"], [1, 2])
        assert m1 == pytest.approx(0.75, rel=1e-12)
        assert m2 == pytest.approx(11.0 / 18.0, rel=1e-12)

    def test_interior_atom_geometric_sum(self):
        mu = RadialMeasure.dirac(0.5, 2.0)
        n = [0, 3, 9, 2000]
        expect = [2.0 * sum(0.5 ** k for k in range(j + 1)) / (j + 1) for j in n]
        assert np.allclose(moments_at(mu, n), expect, rtol=1e-13, atol=0)

    def test_power_oracle(self):
        for kappa, beta in ((1.0, 0.5), (2.5, -0.5), (1.0, 1.0), (0.7, -0.9)):
            mu = RadialMeasure.power(kappa, beta)
            n = np.array([0, 1, 5, 50, 1000, 10**5])
            assert np.allclose(moments_at(mu, n), power_moment_oracle(kappa, beta, n),
                               rtol=1e-10)

    def test_nu_alpha_oracle(self):
        for alpha in (1.25, 1.5, 1.75):
            mu = RadialMeasure.nu_alpha(alpha)
            n = np.array([0, 1, 17, 400, 10**4])
            assert np.allclose(moments_at(mu, n), nu_alpha_moment_oracle(alpha, n), rtol=1e-9)

    def test_rejects_negative_index(self, cat):
        with pytest.raises(ValueError):
            moments_at(cat["lebesgue"], [-1])


class TestMomentPrefix:
    def test_delta0_prefix(self, cat):
        seq = moment_prefix(cat["delta0"], 3)
        assert np.allclose(seq.values, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=0, atol=0)

    def test_delta1_prefix(self, cat):
        assert np.all(moment_prefix(cat["delta1"], 2).values == 1.0)

    def test_lebesgue_prefix(self, cat):
        seq = moment_prefix(cat["lebesgue"], 2)
        assert np.allclose(seq.values, [1.0, 0.75, 11.0 / 18.0], rtol=1e-12)

    def test_monotone_invariant_enforced(self, cat):
        with pytest.raises(ValueError):
            MultiplierSequence(cat["delta0"], np.array([1.0, 0.6, 0.7]))

    def test_m0_is_mass(self, rng):
        for _ in range(10):
            mu = random_catalog_measure(rng)
            seq = moment_prefix(mu, 64)
            assert seq.values[0] == pytest.approx(total_mass(mu), rel=1e-10)
            assert np.all(seq.values <= seq.values[0] * (1 + 1e-12))
            assert np.all(seq.values > 0)

    def test_every_call_owns_its_values(self):
        mu = RadialMeasure((Atom(0.3, 1.0),), (PowerDensity(0.7, 0.37),))
        first = moment_prefix(mu, 4096)
        expect = first.values.copy()
        second = moment_prefix(mu, 4096)
        assert second.values is not first.values
        first.values[:] = -1.0
        assert np.array_equal(moment_prefix(mu, 4096).values, expect)
        assert np.array_equal(second.values, expect)


class TestExactM0:
    # m_0 = nu([0,1]) and I_0 = nu([0,1]) for every measure; a quadrature value
    # would carry BLAS rounding that changes with the number of indices
    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_every_route_returns_the_total_mass(self, cat, name):
        mu = cat[name]
        mass = total_mass(mu)
        for N in (1, 4, 16, 1000):
            assert moment_prefix(mu, N).values[0] == mass
        assert moments_at(mu, [0, 5])[0] == mass
        assert moments_at(mu, [5, 0])[1] == mass
        assert claim1_envelope(mu, 0)[1][0] == mass
        assert claim1_envelope(mu, [3, 0])[1][1] == mass


class TestClaim1:
    def test_delta0_upper_end(self, cat):
        lo, up = claim1_envelope(cat["delta0"], 5)
        assert up[0] == pytest.approx(1.0 / 6.0)
        assert lo[0] == pytest.approx((1.0 - math.exp(-1.0)) / 6.0)
        assert moments_at(cat["delta0"], 5)[0] == pytest.approx(up[0])  # sits at the top

    def test_delta1_pushforward_atom_zero(self, cat):
        lo, up = claim1_envelope(cat["delta1"], 123)
        assert up[0] == 1.0 and lo[0] == pytest.approx(1.0 - math.exp(-1.0))

    def test_lebesgue_n9(self, cat):
        lo, up = claim1_envelope(cat["lebesgue"], 9)
        assert up[0] == pytest.approx(0.1 + 0.1 * math.log(10.0), rel=1e-12)
        m9 = moments_at(cat["lebesgue"], 9)[0]
        assert lo[0] <= m9 <= up[0]

    def test_random_measures(self, rng):
        n = np.unique(np.geomspace(1, 10**4, 25).astype(int))
        for _ in range(30):
            mu = random_catalog_measure(rng)
            seq = moment_prefix(mu, int(n.max()))
            lo, up = claim1_envelope(mu, n)
            m = seq.values[n]
            assert np.all(lo <= m * (1 + 1e-12))
            assert np.all(m <= up * (1 + 1e-12))


def dense_envelope(mu: RadialMeasure, n: np.ndarray) -> np.ndarray:
    u, w = mu.pushforward_rule()
    N = n + 1.0
    with np.errstate(divide="ignore"):  # a grid node at u = 0 gives min(1, inf)
        return np.minimum(1.0, 1.0 / (N[:, None] * u[None, :])) @ w


class TestSortedRuleEnvelope:
    GRID = np.linspace(0.0, 1.0, 65)   # holds r = 0 and r = 1

    @pytest.mark.parametrize("mu", [
        RadialMeasure.nu_alpha(1.1),
        RadialMeasure.nu_alpha(1.5),
        RadialMeasure.nu_alpha(1.9),
        RadialMeasure(densities=(TabulatedDensity(tuple(GRID), tuple(1.0 + GRID ** 2)),)),
    ], ids=["nu_1.1", "nu_1.5", "nu_1.9", "tabulated_r0_r1"])
    def test_matches_the_dense_product(self, mu):
        n = np.unique(np.concatenate(([1, 2, 3], np.geomspace(4, 10**6, 80).astype(np.int64))))
        _, up = claim1_envelope(mu, n)
        assert max_rel(up, dense_envelope(mu, n)) <= 1e-14

    def test_two_million_indices(self):
        # the (N+1) x nodes product this replaces needed 23 GiB here
        n = np.arange(2_000_001)
        lo, up = claim1_envelope(RadialMeasure.nu_alpha(1.5), n)
        assert up.shape == n.shape and up[0] == 1.0
        assert np.all(up > 0.0) and np.all(np.diff(up) <= 1e-13 * up[:-1])
        assert np.array_equal(lo, (1.0 - math.exp(-1.0)) * up)
        k = np.array([1, 999, 2_000_000])
        assert max_rel(up[k], dense_envelope(RadialMeasure.nu_alpha(1.5), k)) <= 1e-14


class TestDecay:
    def test_delta0(self, cat):
        est = decay_exponent_estimate(cat["delta0"], 10**5)
        assert est.value == pytest.approx(-1.0, abs=0.02)
        assert not est.unstable

    def test_delta1(self, cat):
        est = decay_exponent_estimate(cat["delta1"], 10**4)
        assert est.value == pytest.approx(0.0, abs=0.02)

    def test_nu_alpha(self):
        est = decay_exponent_estimate(RadialMeasure.nu_alpha(1.5), 10**6)
        assert est.value == pytest.approx(-0.5, abs=0.05)
        assert isinstance(est, DecayEstimate)

    def test_rejects_small_N(self, cat):
        with pytest.raises(ValueError):
            decay_exponent_estimate(cat["delta0"], 100)


class TestSeriesPartial:
    def test_delta1_growing(self, cat):
        _, verdict = series_partial(cat["delta1"], 0.5, 10**4)
        assert verdict == "growing"

    def test_delta0_plateaued(self, cat):
        _, verdict = series_partial(cat["delta0"], 0.5, 10**4)
        assert verdict == "plateaued"

    def test_nu_alpha_both_sides(self, cat):
        # verdict tracks the moment's finiteness across s0 = 0.5 (series/integral equivalence)
        _, above = series_partial(cat["nu_alpha_1.5"], 0.6, 10**5)
        _, below = series_partial(cat["nu_alpha_1.5"], 0.4, 10**5)
        assert above == "growing" and below == "plateaued"

    def test_series_integral_equivalence_random(self, rng):
        from shimorin_lab.measure import critical_index, singular_moment

        for _ in range(6):
            mu = random_catalog_measure(rng, allow_atom_at_one=False)
            s0 = critical_index(mu).s0
            for s in (s0 - 0.15, s0 + 0.15):
                if not (0.05 < s < 0.95):
                    continue
                _, verdict = series_partial(mu, s, 10**5)
                finite = singular_moment(mu, s).is_finite
                assert verdict == ("plateaued" if finite else "growing")

    def test_block_comparability(self, rng):
        # m_n >= m_(2^k)/2 within each dyadic block
        for name_mu in (RadialMeasure.lebesgue(), RadialMeasure.power(1.0, -0.5),
                        random_catalog_measure(rng)):
            m = moment_prefix(name_mu, 2**14).values
            for k in range(13):
                blk = m[2**k: 2**(k + 1)]
                assert np.all(blk >= 0.5 * m[2**k] * (1 - 1e-12))


class TestBlockVerdict:
    def test_rules(self):
        assert dyadic_block_verdict(np.array([1.0, 1.1, 1.2, 1.3])) == "growing"
        assert dyadic_block_verdict(np.array([1.0, 0.5, 0.25, 0.12])) == "plateaued"
        assert dyadic_block_verdict(np.array([1.0])) == "plateaued"
