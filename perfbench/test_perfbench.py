"""Tests of the benchmark itself: oracles, tracer, failure accounting, contract.

    python3 -m pytest perfbench -q

Run from the root of a checkout (the package is imported from ./src).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer, metric_specs  # noqa: E402

import shimorin_lab as sl  # noqa: E402

mp.mp.dps = 40
N_POINTS = (0, 1, 7, 29, 30, 1000, 65536, 110592, 131072)


def _rel(got, ref) -> float:
    return float(abs(mp.mpf(got) / ref - 1))


# ---------------------------------------------------------------------------
# oracles against mpmath
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [-0.9, -0.75, -0.5, -0.1, 0.5, 1.2])
def test_gamma_ratio_matches_mpmath(b):
    for n in N_POINTS:
        x = n + 2.0
        ref = mp.gammaprod([mp.mpf(x) + mp.mpf(b)], [mp.mpf(x)])
        assert _rel(oracles.gamma_ratio(np.array([x]), b)[0], ref) < 5e-15, (x, b)


def test_mn_lebesgue_matches_mpmath():
    got = oracles.mn_lebesgue(np.array(N_POINTS))
    for n, g in zip(N_POINTS, got):
        assert _rel(g, mp.harmonic(n + 1) / (n + 1)) < 5e-15, n


@pytest.mark.parametrize("beta", [-0.75, -0.5, -0.25, 0.5, 1.2])
def test_mn_power_matches_mpmath(beta):
    kappa = 1.3
    got = oracles.mn_power(kappa, beta, np.array(N_POINTS))
    b = mp.mpf(beta)
    for n, g in zip(N_POINTS, got):
        ref = kappa * (1 / b - mp.beta(b, n + 2)) / (n + 1)
        assert _rel(g, ref) < 5e-15, n


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_mn_nu_alpha_matches_mpmath(alpha):
    a = mp.mpf(alpha)
    got = oracles.mn_nu_alpha(alpha, np.array(N_POINTS))
    for n, g in zip(N_POINTS, got):
        assert _rel(g, mp.gammaprod([n + a], [a, n + 2])) < 5e-15, n


def test_mn_atom_matches_mpmath():
    for x in (0.0, 0.3, 0.99, 1.0):
        got = oracles.mn_atom(x, 0.7, np.array(N_POINTS))
        for n, g in zip(N_POINTS, got):
            xm = mp.mpf(x)
            ref = mp.mpf(0.7) if x == 1.0 else \
                mp.mpf(0.7) * (1 - xm ** (n + 1)) / ((1 - xm) * (n + 1))
            assert _rel(g, ref) < 5e-15, (x, n)


@pytest.mark.parametrize("alpha,z", [(1.15, 0.5), (1.5, 0.9), (1.85, 0.99), (1.2, 0.999)])
def test_kernel_l2_series_matches_mpmath(alpha, z):
    # sum_n c_n^2 x^n / (n+1) = 2F1(alpha, alpha; 2; x), real argument
    ref = mp.sqrt(mp.hyp2f1(alpha, alpha, 2, mp.mpf(z) ** 2))
    assert _rel(oracles.nu_alpha_kernel_l2(alpha, z), ref) < 1e-14


def _tabulated_example(top: float) -> dict:
    r = 1.0 - (1.0 - np.linspace(0.0, top, 23)) ** 2
    return wl.tabulated(r, 0.5 + (1.0 - r) ** 1.3)


@pytest.mark.parametrize("top", [0.97, 1.0])
def test_mn_tabulated_matches_mpmath(top):
    d = _tabulated_example(top)["densities"][0]
    r = [mp.mpf(x) for x in d["r"]]
    v = [mp.mpf(x) for x in d["values"]]
    got = oracles.mn_tabulated(d["r"], d["values"], np.array(N_POINTS))
    for n, g in zip(N_POINTS, got):
        def gn(x):
            return mp.mpf(1) if x == 1 else (1 - x ** (n + 1)) / ((n + 1) * (1 - x))
        ref = mp.fsum((r[i + 1] - r[i]) * (v[i] * gn(r[i]) + v[i + 1] * gn(r[i + 1])) / 2
                      for i in range(len(r) - 1))
        assert _rel(g, ref) < 1e-14, (top, n)


def test_mn_tabulated_is_the_package_trapezoid_rule():
    # off r = 1, where the package's moments work, they are this rule
    spec = _tabulated_example(0.97)
    n = np.array(N_POINTS[:-1])
    got = sl.moments_at(sl.RadialMeasure.from_spec(spec), n)
    assert oracles.rel_error(got, oracles.mn_spec(spec, n)) < 1e-13


def test_parseval_matches_mpmath_area_integral():
    b = np.array([1.0 - 0.5j, 0.25j, -0.75, 0.3 + 0.1j])

    def integrand(r, th):
        w = mp.mpf(r) * mp.expj(th)
        return abs(sum(complex(c) * w ** k for k, c in enumerate(b))) ** 2 * r / mp.pi

    mp.mp.dps = 20
    try:
        ref = mp.sqrt(mp.quad(integrand, [0, 1], [0, 2 * mp.pi]))
    finally:
        mp.mp.dps = 40
    assert _rel(oracles.parseval_l2(b), ref) < 1e-14


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _sample_ops() -> list[harness.Op]:
    """Two explore rounds plus the cheap ratio-sweep ops: every layer but kernel reports."""
    rounds = wl.rounds("explore", 7)
    ops = next(rounds) + next(rounds)
    sweep = next(wl.rounds("ratio-sweep", 7))
    return ops + [op for op in sweep if op.kind == "moments" or " power " in op.label
                  or " block " in op.label]


def test_traced_and_untraced_outputs_are_byte_identical():
    plain = [harness.execute(op).output for op in _sample_ops()]
    with Tracer() as tracer:
        traced = [harness.execute(op).output for op in _sample_ops()]
    assert traced == plain
    assert tracer.calls["cli.main"] > 0 and tracer.calls["diskquad.lp_norm"] > 0


def test_tracer_restores_every_binding():
    import shimorin_lab.cli as cli
    import shimorin_lab.multiplier as mult

    before = (cli.moment_prefix, sl.moment_prefix, sl.DiskRule.__dict__["make"],
              sl.DiskRule.__dict__["iter_blocks"], sl.TaylorFunction.__dict__["from_array"])
    with Tracer():
        assert cli.moment_prefix is not before[0]
        assert cli.moment_prefix is mult.moment_prefix is sl.moment_prefix
        assert sl.DiskRule.__dict__["make"] is not before[2]
    after = (cli.moment_prefix, sl.moment_prefix, sl.DiskRule.__dict__["make"],
             sl.DiskRule.__dict__["iter_blocks"], sl.TaylorFunction.__dict__["from_array"])
    assert all(a is b for a, b in zip(after, before))


def test_self_time_excludes_child_spans():
    mu = sl.RadialMeasure.nu_alpha(1.37)
    f = sl.TaylorFunction.from_array(np.arange(1.0, 301.0))
    start = time.perf_counter()
    with Tracer() as tracer:
        g = sl.apply_multiplier(mu, f)
        rule = sl.DiskRule.make()
        sl.lp_norm(g, 2.0, rule)
        sl.integrate(g, rule)
        sl.integrate(g, rule=rule, check=False)
    wall = time.perf_counter() - start
    assert tracer.hook_errors == {}
    assert tracer.calls["operator.apply_multiplier"] == 1
    assert tracer.calls["multiplier.moment_prefix"] == 1
    assert tracer.counts["multiplier.moment_prefix.indices"] == 300
    assert tracer.calls["operator.TaylorFunction.from_array"] == 1
    assert tracer.counts["operator.TaylorFunction.from_array.coeffs"] == 300
    assert tracer.calls["diskquad.integrate"] == 2
    assert tracer.counts["diskquad.nodes"] == 3 * rule.node_count()
    total_self = sum(tracer.self_s.values())
    assert 0.0 < total_self <= wall
    # the moments dominate apply_multiplier; they are the child's, not the parent's
    assert tracer.self_s["multiplier.moment_prefix"] > tracer.self_s["operator.apply_multiplier"]
    m = tracer.metrics(wall, 1.0, 0)
    assert m["operator.self_s"] + m["multiplier.self_s"] + m["diskquad.self_s"] \
        + m["measure.self_s"] <= wall


def test_traced_exception_is_counted_and_spans_close():
    with Tracer() as tracer:
        with pytest.raises(ValueError):
            sl.moment_prefix(sl.RadialMeasure.lebesgue(), -1)
    assert tracer.raised["multiplier.moment_prefix"] == 1
    assert tracer._stack == []


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

def test_planted_moment_error_is_caught():
    op = wl.mn_op(wl.lebesgue(), 4096)
    good = op.run

    def planted() -> str:
        lines = good().splitlines()
        n, m, lo, up = lines[3001 + 1].split(",")   # row for n = 3001
        lines[3001 + 1] = ",".join((n, repr(float(m) * (1.0 + 1e-9)), lo, up))
        return "\n".join(lines) + "\n"

    assert harness.execute(op).reason is None
    op.run = planted
    result = harness.execute(op)
    assert result.reason is not None and "relative error" in result.reason
    assert result.defect is None
    assert min(result.digits) < 9.1


def test_raising_op_counts_as_failed_and_keeps_its_time():
    def slow_failure() -> str:
        time.sleep(0.05)
        raise RuntimeError("boom")

    ops = [harness.Op("boom", "test", slow_failure, lambda ck, out: None),
           harness.Op("fine", "test", lambda: "1.5\n", lambda ck, out: None)]
    results = harness.run_rounds(iter([ops, ops]), seconds=0.0)
    summary = harness.summarize(results)
    assert [r.reason is not None for r in results] == [True, False]
    assert results[0].seconds >= 0.05
    assert summary["ops_per_s"] == pytest.approx(2.0 / (results[0].seconds + results[1].seconds))
    assert harness.failure_lines(results) == ["FAILED boom: RuntimeError: boom [UNEXPLAINED]"]


def test_nonfinite_output_fails_the_op():
    result = harness.execute(harness.Op("nan", "test", lambda: "a,b\n1,nan\n",
                                        lambda ck, out: None))
    assert result.reason == "output holds a non-finite number"


def test_known_defects_are_listed_by_name():
    # each op fails today with its named defect; once that is fixed, it must pass
    for op, defect in wl.known_defect_ops():
        result = harness.execute(op)
        if result.reason is None:
            continue
        assert result.defect == defect, (op.label, result.reason)
        assert harness.failure_lines([result])[0].endswith(f"[{defect}]")


def test_tabulated_checks_accept_a_correct_output():
    tab = wl.explore_pool(np.random.default_rng(3))[-1]
    n = np.arange(65)
    m = oracles.mn_spec(tab, n)
    mn = wl.mn_op(tab, 64)
    mn.run = lambda: "n,m_n,claim1_lower,claim1_upper\n" + "".join(
        f"{k},{v!r},{v * 0.5!r},{v * 2.0!r}\n" for k, v in zip(n.tolist(), m.tolist()))
    assert harness.execute(mn).reason is None
    coeffs = np.linspace(1.0, 2.0, 40)
    b = m[:40] * coeffs
    l2 = oracles.parseval_l2(b)
    quad = wl.diskquad_op(tab, coeffs)
    quad.run = lambda: f"{l2!r} {0.5 * l2!r} {2.0 * float(abs(b[0]))!r}\n"
    assert harness.execute(quad).reason is None


def test_workloads_avoid_the_known_defects():
    # explore's tabulated measures serve only ops that work on them today
    rounds = wl.rounds("explore", 11)
    for op in (op for _ in range(16) for op in next(rounds)):
        if "tabulated" in op.tags:
            assert op.kind == "kernel-norm" or op.kind == "classify" \
                and "off-line" in op.label, op.label
    for seed in range(1, 21):
        for op in next(wl.rounds("verify-suite", seed)):
            assert op.kind != "verify" or "nu-alpha-near-2" not in op.tags, op.label


def _verify_failure(spec: dict, margin: str) -> harness.OpResult:
    op = wl.verify_op(spec, 1)
    op.run = lambda: json.dumps({"passed": False, "checks": [
        {"check": "pnorm-envelope", "passed": False, "bounds": [
            {"name": "pnorm-envelope-upper", "passed": False, "worst_margin": float(margin)}]}]})
    return harness.execute(op)


def test_envelope_defect_excuses_only_its_own_inputs():
    assert _verify_failure(wl.nu_alpha(1.85), "-6.18e-4").defect == "pnorm-envelope-upper"
    assert _verify_failure(wl.nu_alpha(1.9), "-4.8e-2").defect == "pnorm-envelope-upper"
    assert _verify_failure(wl.nu_alpha(1.85), "-0.1").defect is None
    assert _verify_failure(wl.nu_alpha(1.5), "-6.18e-4").defect is None
    assert _verify_failure(wl.power(1.0, 0.5), "-6.18e-4").defect is None
    assert _verify_failure(wl.plus(wl.lebesgue(), wl.atom(0.5, 1.0)), "-6.18e-4").defect is None


# ---------------------------------------------------------------------------
# the contract with BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
    assert len(spec["per_layer"]) <= 128
    assert set(LAYERS) == {"cli", "classify", "measure", "multiplier", "kernel", "operator",
                           "diskquad", "testfns"}


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "explore", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
