"""Region verdicts, the standard-estimate trichotomy, grid geometry."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shimorin_lab.classify import (
    BOUNDED,
    CRITICAL_ENDPOINT_BLOCH,
    CRITICAL_ENDPOINT_WEAK,
    CRITICAL_INTERIOR,
    UNBOUNDED,
    ExponentPair,
    region_grid,
    region_verdict,
    standard_estimate,
)
from shimorin_lab.cli import EXIT_CONFIG, main
from shimorin_lab.measure import RadialMeasure


class TestRegionVerdict:
    def test_clause_a(self):
        v = region_verdict(2, ExponentPair(1, Fraction(3, 2)))
        assert v.kind == BOUNDED and v.clause == "a"

    def test_clause_d_with_infinity(self):
        v = region_verdict(Fraction(4, 3), ExponentPair(5, math.inf))
        assert v.kind == BOUNDED and v.clause == "d"

    def test_critical_interior(self):
        v = region_verdict(2, ExponentPair(Fraction(4, 3), 4))
        assert v.kind == CRITICAL_INTERIOR and v.on_critical_line

    def test_diagonal_for_c_one(self):
        v = region_verdict(1, ExponentPair(2, 2))
        assert v.kind == CRITICAL_INTERIOR

    def test_endpoints_name_their_targets(self):
        weak = region_verdict(2, ExponentPair(1, 2))
        assert weak.kind == CRITICAL_ENDPOINT_WEAK
        assert weak.endpoint_target == "weak-L(c,inf)"
        bloch = region_verdict(2, ExponentPair(2, math.inf))
        assert bloch.kind == CRITICAL_ENDPOINT_BLOCH
        assert bloch.endpoint_target == "bloch"

    def test_necessity_clauses(self):
        assert region_verdict(Fraction(4, 3), ExponentPair(1, 2)).kind == UNBOUNDED
        assert region_verdict(Fraction(4, 3), ExponentPair(2, math.inf)).kind == UNBOUNDED
        assert region_verdict(2, ExponentPair(Fraction(4, 3), 100)).kind == UNBOUNDED

    def test_float_tolerance_path(self):
        v = region_verdict(2.0, ExponentPair(4.0 / 3.0, 4.0 + 1e-12))
        assert v.kind == CRITICAL_INTERIOR  # within 1e-9 of the line
        assert region_verdict(2.0, ExponentPair(4.0 / 3.0, 3.8)).kind == BOUNDED
        assert region_verdict(2.0, ExponentPair(4.0 / 3.0, 4.2)).kind == UNBOUNDED

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            ExponentPair(0.5, 2)
        with pytest.raises(ValueError):
            region_verdict(3, ExponentPair(2, 2))

    @given(st.integers(2, 40), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_duality_symmetry(self, cnum, pnum, qnum):
        # off the line: (p, q) bounded iff (q', p') bounded (self-adjointness)
        c = 1 + Fraction(cnum, 80)  # in (1, 1.5]
        p = 1 + Fraction(pnum, 8)
        q = 1 + Fraction(qnum, 8)
        v = region_verdict(c, ExponentPair(p, q))
        if v.on_critical_line:
            return
        pd = q / (q - 1)
        qd = p / (p - 1)
        dual = region_verdict(c, ExponentPair(pd, qd))
        assert not dual.on_critical_line
        assert (v.kind == BOUNDED) == (dual.kind == BOUNDED)


class TestStandardEstimate:
    def test_delta1(self, cat):
        est = standard_estimate(cat["delta1"])
        assert est.holds and est.branch == "finite-measure"

    def test_lebesgue_fails(self, cat):
        est = standard_estimate(cat["lebesgue"])
        assert not est.holds and est.branch == "hyperbolic"

    def test_power_negative_half(self, cat):
        est = standard_estimate(cat["power_-0.5"])
        assert est.holds and est.branch == "carleson"
        assert est.witness.value == pytest.approx(2.0)

    def test_power_positive_half(self, cat):
        est = standard_estimate(cat["power_0.5"])
        assert est.holds and est.branch == "hyperbolic"

    # the Carleson exponent is s0 itself: recomputed as 2 - 2/c it landed an
    # ulp above s0 on 83 of these alpha, 248 of these beta and 11 mixtures,
    # and the closed rules then read "divergent"
    @pytest.mark.parametrize("family, params", [
        ("nu_alpha", [k / 1000 for k in range(1001, 2000)]),
        ("power", [k / 1000 for k in range(-999, 0)]),
        ("mixture", [k / 100 for k in range(101, 200)]),
    ])
    def test_carleson_branch_holds_on_a_grid(self, family, params):
        for x in params:
            if family == "nu_alpha":
                mu = RadialMeasure.nu_alpha(x)
            elif family == "power":
                mu = RadialMeasure.power(1.0, x)
            else:
                mu = RadialMeasure.nu_alpha(x) + RadialMeasure.power(1.0, 0.5)
            est = standard_estimate(mu)
            assert est.branch == "carleson" and est.holds, (family, x)
            assert est.witness.is_finite, (family, x)

    # above beta = -2^-53, s0 = beta + 1 rounds to 1 and the measure would read
    # as beta = 0 (c = 2, hyperbolic branch, divergent): there the critical
    # index fails loudly, and classify exits 2 with one error line
    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True))
    @example(1.5, -2.0 ** -53)
    @example(1.5, -2.0 ** -54)
    @example(1.5, -5e-324)
    def test_estimate_holds_on_every_parameter(self, alpha, beta):
        est = standard_estimate(RadialMeasure.nu_alpha(alpha))
        assert est.holds and est.witness.is_finite
        power = RadialMeasure.power(1.0, beta)
        if beta + 1.0 < 1.0:
            est = standard_estimate(power)
            assert est.holds and est.witness.is_finite
            return
        with pytest.raises(ValueError, match="2\\^-53"):
            standard_estimate(power)
        spec = json.dumps({"densities": [{"kind": "power", "kappa": 1.0, "beta": beta}]})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", "--measure", spec, "--p", "1", "--q", "2"])
        assert code == EXIT_CONFIG and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


class TestRegionGrid:
    @staticmethod
    def _grid_dict(c, res=32):
        return {(ip, iq): kind for ip, iq, kind, _ in region_grid(c, res)}

    def test_c1_boundary_is_diagonal(self):
        for (ip, iq), kind in self._grid_dict(1).items():
            if abs(ip - iq) < 1e-12:
                assert kind.startswith("critical")
            elif iq > ip:
                assert kind == BOUNDED
            else:
                assert kind == UNBOUNDED

    def test_c2_boundary_line(self):
        for (ip, iq), kind in self._grid_dict(2).items():
            d = iq - ip + 0.5
            if abs(d) < 1e-12:
                assert kind.startswith("critical")
            elif d > 0 or ip < 0.5:
                assert kind == BOUNDED
            else:
                assert kind == UNBOUNDED

    def test_monotone_in_c(self):
        grids = [self._grid_dict(c) for c in (1, Fraction(4, 3), 2)]
        for small, big in zip(grids[:-1], grids[1:]):
            for cell, kind in small.items():
                if kind == BOUNDED:
                    assert big[cell] == BOUNDED

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            region_grid(2, 4)
