"""Disk quadrature rules, L^p/weak norms, Bloch seminorm."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from shimorin_lab import diskquad
from shimorin_lab.diskquad import (
    DiskRule,
    NonFiniteSampleError,
    QuadratureNonconvergence,
    SampledFunction,
    TaylorFunction,
    _circle,
    _circle_blocks,
    bloch_seminorm,
    integrate,
    lp_norm,
    weak_norm,
)
from shimorin_lab.measure import RadialMeasure
from shimorin_lab.testfns import _series_rule, box, indicator_response, indicator_testfn


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

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_p_inf_and_nan(self, rule, p):
        # |f|^inf is 0 or inf, so the constant 5 used to read 1.0 at p = inf
        with pytest.raises(ValueError):
            lp_norm(SampledFunction.constant(5.0), p, rule)

    def test_one_block_alive(self):
        # 252 radii x 65536 angles in 17 sampler blocks of 15 half circles
        # (3.9 MB). Each block is raised to the p-th power in place and dropped
        # before the sampler builds the next: the peak is 9.1 MB (tracemalloc),
        # against 12.0 MB with a |f|^p copy and 13.0 MB with a second block
        # alive as well
        t = 2.0 ** -10
        tf = indicator_response(RadialMeasure.power(1.0, -0.5), t)
        # the rule of degree 143360 has one radial panel more than the
        # series' own (degree 89346, 240 radii)
        rule = _series_rule(143360, t, q=3.0)
        assert rule.node_count() > 31 * diskquad._CHUNK
        tracemalloc.start()
        try:
            lp_norm(tf, 3.0, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10.5e6

    def test_integer_and_bool_callables(self, rule):
        # a callable may return integers or booleans; the norms read them as floats
        twos = SampledFunction(lambda z: np.full(z.shape, 2, dtype=np.int64))
        inner = SampledFunction(lambda z: np.abs(z) < 0.5)
        inner_float = SampledFunction(lambda z: (np.abs(z) < 0.5).astype(float))
        for p in (1.0, 1.5, 3.0):
            assert lp_norm(twos, p, rule) == pytest.approx(2.0, rel=1e-12)
            assert lp_norm(inner, p, rule) == lp_norm(inner_float, p, rule)
        assert weak_norm(twos, 2.0, rule) == pytest.approx(2.0, rel=1e-12)
        assert weak_norm(inner, 2.0, rule) == weak_norm(inner_float, 2.0, rule)

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
        # |1-z|^-1 is weak-L^2 but not L^2; the pinned value is the sup over a
        # full sort of the default rule's 79360 samples
        f = SampledFunction(lambda z: 1.0 / np.abs(1.0 - z))
        wk = weak_norm(f, 2.0, rule)
        st = lp_norm(f, 2.0, rule)
        assert wk <= st
        assert wk == pytest.approx(full_sort_weak_norm(f, 2.0, rule), rel=1e-13)
        assert wk == pytest.approx(40531.95027136617, rel=1e-12)


def whole_circles(f, radii: np.ndarray, M: int):
    """Yield (lo, mods) with |f| on all M angles of each circle, in rule
    order: a half circle of the sampler is mirrored into the lower half."""
    for lo, mods, mult in _circle_blocks(f, radii, M):
        if mult is not None:
            lower = mods[:, (M - 1) // 2:0:-1]
            mods = np.concatenate((mods, lower), axis=1)
        assert mods.shape[1] == M
        yield lo, mods


def full_sort_weak_norm(f, q: float, rule: DiskRule) -> float:
    """max_k a_(k) W_k^(1/q) over every sample of the rule, by one full sort;
    the cumulative weights are summed in extended precision."""
    M = rule.angular_count
    a, w = np.empty(rule.node_count()), np.empty(rule.node_count())
    for lo, mods in whole_circles(f, rule.radial_nodes, M):
        rows = slice(lo * M, (lo + len(mods)) * M)
        a[rows] = mods.ravel()
        w[rows] = np.repeat(rule.radial_weights[lo:lo + len(mods)] / M, M)
    order = np.argsort(-a, kind="stable")
    a = a[order]
    W = np.cumsum(w[order], dtype=np.longdouble).astype(float)
    last = np.append(a[1:] != a[:-1], True)
    return float(np.max(a[last] * W[last] ** (1.0 / q)))


def count_samplings(monkeypatch) -> list:
    """Each call of the polar sampler appends its field to the returned list."""
    calls = []
    sampler = diskquad._circle_blocks

    def counting(*args, **kwargs):
        calls.append(args[0])
        return sampler(*args, **kwargs)

    monkeypatch.setattr(diskquad, "_circle_blocks", counting)
    return calls


def _poly(seed: int, real: bool) -> TaylorFunction:
    c = np.random.default_rng(seed).normal(size=(2, 41)) * 0.9 ** np.arange(41)
    return TaylorFunction.from_array(c[0] if real else c[0] + 1j * c[1])


class TestWeakNormExact:
    """The weak norm is the sup over its rule's samples, not an estimate of it."""

    FIELDS = {
        "complex polynomial": _poly(1, real=False),
        "real polynomial": _poly(2, real=True),
        "callable": SampledFunction(lambda z: np.exp(3.0 * z) + 1.0 / (1.2 - z)),
        "two-valued indicator": indicator_testfn(0.25),
        "constant": SampledFunction.constant(0.7),
        "constant polynomial": TaylorFunction.from_array([2.0 - 1.0j]),
        "zero on a half disk": SampledFunction(lambda z: np.maximum(z.real, 0.0)),
        "two values on half disks": SampledFunction(
            lambda z: np.where(z.real > 0.0, 1.0, 0.5).astype(complex)),
        "monomial": TaylorFunction.from_array([0.0, 0.0, 0.0, 1.0]),
        "zero": SampledFunction.constant(0.0),
    }

    @pytest.mark.parametrize("name", list(FIELDS))
    @pytest.mark.parametrize("rule_args", [(8, 6, 64), (12, 8, 1024), (30, 10, 256)])
    def test_equals_the_full_sort(self, name, rule_args):
        f, rule = self.FIELDS[name], DiskRule.make(*rule_args)
        for q in (1.0, 4.0 / 3.0, 2.0, 3.0):
            ref = full_sort_weak_norm(f, q, rule)
            assert abs(weak_norm(f, q, rule) - ref) <= 1e-13 * ref, (name, q)

    def test_samples_the_field_twice(self, monkeypatch):
        calls = []
        sampler = diskquad._circle_blocks

        def counting(*args, **kwargs):
            calls.append(args[0])
            return sampler(*args, **kwargs)

        monkeypatch.setattr(diskquad, "_circle_blocks", counting)
        t = 2.0 ** -5
        tf = indicator_response(RadialMeasure.power(1.0, -0.5), t)
        callable_f = self.FIELDS["callable"]
        for f, rule in ((tf, _series_rule(tf.degree, t)), (callable_f, DiskRule.make())):
            calls.clear()
            weak_norm(f, 4.0 / 3.0, rule)
            assert len(calls) <= 2

    @pytest.mark.parametrize("j", [6, 8, 9])
    def test_samples_a_peaked_field_once(self, monkeypatch, j):
        # the box response's candidate samples (6.2, 2.7 and 1.6 circles'
        # worth) all sit among the largest ones pass 1 keeps: its buffer of
        # 4M entries holds 8 half circles
        t = 2.0 ** -j
        tf = indicator_response(RadialMeasure.power(1.0, -0.5), t)
        rule = _series_rule(tf.degree, t)
        calls = count_samplings(monkeypatch)
        one_pass = weak_norm(tf, 4.0 / 3.0, rule)
        assert len(calls) == 1
        # a buffer of M / 2 entries, one circle's worth of half circles,
        # cannot hold them: pass 2 runs, on the same candidates in the same
        # order
        monkeypatch.setattr(diskquad, "_WEAK_KEEP_CIRCLES", 0.5)
        calls.clear()
        assert weak_norm(tf, 4.0 / 3.0, rule) == one_pass
        assert len(calls) == 2

    @pytest.mark.parametrize("measure, j, passes", [
        (RadialMeasure.power(1.0, -0.5), 7, 1),
        (RadialMeasure.lebesgue(), 5, 2),
    ])
    def test_box_response_equals_the_full_sort(self, monkeypatch, measure, j, passes):
        # Lebesgue at t = 2^-5 has 33 circles' worth of candidate samples and
        # falls back to pass 2
        t = 2.0 ** -j
        tf = indicator_response(measure, t)
        rule = _series_rule(tf.degree, t)
        ref = full_sort_weak_norm(tf, 4.0 / 3.0, rule)
        calls = count_samplings(monkeypatch)
        assert abs(weak_norm(tf, 4.0 / 3.0, rule) - ref) <= 1e-13 * ref
        assert len(calls) == passes

    @pytest.mark.parametrize("name, passes", [
        ("two-valued indicator", 1), ("two values on half disks", 2), ("constant", 2),
    ])
    def test_ties_at_the_threshold(self, monkeypatch, name, passes):
        # 106496 samples against 4096 kept: the tied zeros of the indicator,
        # and the tied top values of the others, sit at the threshold, which
        # steps past them; the indicator's 40 ones remain and are its candidates
        f, rule = self.FIELDS[name], DiskRule.make(12, 8, 1024)
        calls = count_samplings(monkeypatch)
        for q in (1.0, 4.0 / 3.0, 2.0, 3.0):
            calls.clear()
            got = weak_norm(f, q, rule)
            assert len(calls) == passes
            ref = full_sort_weak_norm(f, q, rule)
            assert abs(got - ref) <= 1e-13 * ref, q

    def test_tied_field_memory(self):
        # every sample of a constant is a candidate: one entry per distinct
        # value in each piece keeps pass 2 within the box responses' bound
        # below, where all 2539520 samples would take 210 MB
        rule = DiskRule.make(30, 10, 8192)
        ref = full_sort_weak_norm(SampledFunction.constant(0.7), 2.0, rule)
        for f in (SampledFunction.constant(0.7), TaylorFunction.from_array([0.7])):
            tracemalloc.start()
            try:
                got = weak_norm(f, 2.0, rule)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 18.05e6
            assert abs(got - ref) <= 1e-13 * ref

    def test_memory_stays_below_the_grid_estimator(self):
        # the 200-point tau grid that weak_norm replaced peaked at 18.05 MB on
        # this call (tracemalloc); sorting the field would take 30 MB more
        t = 2.0 ** -8
        tf = indicator_response(RadialMeasure.power(1.0, -0.5), t)
        rule = _series_rule(tf.degree, t)
        tracemalloc.start()
        try:
            weak_norm(tf, 4.0 / 3.0, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 18.05e6


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


def bloch_on_every_circle(f: SampledFunction, depth: int, M: int) -> float:
    """bloch_seminorm's value from the max over every circle of the sampler."""
    radii = 1.0 - 2.0 ** (-np.arange(depth + 1, dtype=float))
    best = 0.0
    for lo, mods, _ in _circle_blocks(f.derivative, radii, M):
        rho = radii[lo:lo + len(mods)]
        best = max(best, float(np.max((1.0 - rho * rho) * mods.max(axis=1))))
    _, center, _ = next(_circle_blocks(f.evaluate, np.zeros(1), 1))
    return float(center[0, 0]) + best


class TestBlochOrder:
    """A polynomial f' is sampled circle by circle in decreasing order of the
    bound (1 - rho^2) sum |d_m| rho^m, until no bound left can beat the max;
    the value is the same bits as the max over every circle."""

    @staticmethod
    def of(tf: TaylorFunction) -> SampledFunction:
        return SampledFunction(tf, tf.derivative())

    def test_box_responses(self, monkeypatch):
        sampled = []
        sampler = diskquad._circle_blocks

        def counting(f, radii, M, rows=None):
            for block in sampler(f, radii, M, rows):
                sampled.append(len(block[1]))
                yield block

        for mu in (RadialMeasure.power(1.0, -0.5), RadialMeasure.power(1.0, 0.5),
                   RadialMeasure.lebesgue()):
            for j in (3, 5, 8):
                t = 2.0 ** -j
                tf = indicator_response(mu, t)
                f = self.of(tf)
                rule = _series_rule(tf.degree, t)
                depth, M = rule.radial_depth, rule.angular_count
                monkeypatch.setattr(diskquad, "_circle_blocks", counting)
                sampled.clear()
                got = bloch_seminorm(f, depth, M)
                monkeypatch.undo()
                assert got == bloch_on_every_circle(f, depth, M), (mu, t)
                # f' on at most two of the depth + 1 circles, then f at the center
                assert sum(sampled) <= 3 < depth + 2, (mu, t, sampled)

    def test_random_polynomials(self):
        # explore's fields: degree 32..127, real or complex coefficients
        rng = np.random.default_rng(7)
        for i in range(60):
            deg = int(rng.integers(32, 128))
            c = rng.normal(size=deg + 1) * 3.0 ** rng.normal(size=deg + 1)
            if i % 2:
                c = c + 1j * rng.normal(size=deg + 1)
            f = self.of(TaylorFunction.from_array(c))
            assert bloch_seminorm(f) == bloch_on_every_circle(f, 30, 256), i

    def test_constants(self):
        for c in ([3.0 - 4.0j], [2.5], [0.0]):
            f = self.of(TaylorFunction.from_array(c))
            assert bloch_seminorm(f) == bloch_on_every_circle(f, 30, 256) == abs(c[0])

    def test_overflowing_derivative_raises(self):
        # |f'| = 1e308 |1 + z| overflows from rho = 7/8 on; the bound
        # overflows there too and puts those circles first
        f = SampledFunction(TaylorFunction.from_array([0.0]),
                            TaylorFunction.from_array([1e308, 1e308]))
        for route in (bloch_seminorm, lambda f: bloch_on_every_circle(f, 30, 256)):
            with pytest.raises(NonFiniteSampleError):
                route(f)


def all_power_circles(tf: TaylorFunction, radii: np.ndarray, M: int) -> np.ndarray:
    """|f| of a real polynomial on the upper half circles of radii > 0, by the
    sampler's arithmetic with every power rho^k taken, also where it
    underflows to 0.0."""
    c = tf.coefficients.real
    J = -(-c.size // M)
    C = np.zeros(J * M)
    C[:c.size] = c
    C = C.reshape(J, M)
    out = np.empty((radii.size, M // 2 + 1))
    with np.errstate(under="ignore"):
        for i, rho in enumerate(radii):
            log_rho = math.log(rho)
            bins = np.exp(M * np.arange(J, dtype=float) * log_rho) @ C
            bins *= np.exp(np.arange(M, dtype=float) * log_rho)
            out[i] = np.abs(np.fft.rfft(bins))
    return out


class TestPolynomialSampler:
    """A TaylorFunction is sampled by FFT (rfft of the closed upper half
    circle for real coefficients); any other callable at the nodes. The
    sampler yields |f|."""

    @staticmethod
    def assert_matches_node_evaluation(poly, M):
        rule = DiskRule.make(radial_depth=20, order=8, angular_count=M)
        plain = poly.__call__  # a bound method is not a TaylorFunction
        # the sampled |f| itself, circle by circle
        rho = rule.radial_nodes
        fft = np.concatenate([a for _, a in whole_circles(poly, rho, M)])
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

    @pytest.mark.parametrize("M", [16, 15, 1, 2, 1024])
    @pytest.mark.parametrize("size", [1, 10, 15, 16, 101, 2049])
    def test_real_branch_matches_node_evaluation(self, M, size):
        # the upper half circle, mirrored, against the whole circle: sizes
        # below, at and far above the angle count (the fold wraps); even and
        # odd M differ in the rfft's Nyquist bin, and M = 1 and 2 have no
        # interior column
        n = np.arange(size)
        self.assert_matches_node_evaluation(
            TaylorFunction.from_array(0.97 ** n * np.cos(n) + 0.25), M)

    @pytest.mark.parametrize("M", [1, 2, 15, 16, 1024])
    def test_column_multiplicities(self, M):
        # column j holds the angles k = j and k = M - j (mod M): one at angle
        # 0 and at the Nyquist angle pi of an even M, two elsewhere
        rho = np.array([0.0, 0.5])
        (_, mods, mult), = _circle_blocks(TaylorFunction.from_array([1.0, 0.5]), rho, M)
        k = np.arange(M)
        expect = [np.count_nonzero((k == j) | (k == (M - j) % M)) for j in range(M // 2 + 1)]
        assert mods.shape == (2, M // 2 + 1) and np.array_equal(mult, expect)
        for f in (TaylorFunction.from_array([1.0, 0.5j]), SampledFunction.constant(1.0)):
            (_, mods, mult), = _circle_blocks(f, rho, M)
            assert mods.shape == (2, M) and mult is None

    @pytest.mark.parametrize("j", [3, 7, 10])
    def test_underflow_cutoff_is_bit_identical(self, j):
        # the powers rho^k with k log rho < -746 are 0.0 whether taken or not
        t = 2.0 ** -j
        tf = indicator_response(RadialMeasure.power(1.0, -0.5), t)
        rule = _series_rule(tf.degree, t)
        rho, M = rule.radial_nodes, rule.angular_count
        got = np.concatenate([a for _, a, _ in _circle_blocks(tf, rho, M)])
        assert np.array_equal(got, all_power_circles(tf, rho, M))

    @pytest.mark.parametrize("M", [15, 16, 1024])
    def test_underflow_cutoff_on_small_radii(self, M):
        # radii down to 1e-30, where all but the first powers underflow
        n = np.arange(3 * M + 1)
        poly = TaylorFunction.from_array(0.97 ** n * np.cos(n) + 0.25)
        rho = np.concatenate((10.0 ** -np.arange(30.0, 0.0, -1.0),
                              DiskRule.make(20, 8, M).radial_nodes))
        got = np.concatenate([a for _, a, _ in _circle_blocks(poly, rho, M)])
        assert np.array_equal(got, all_power_circles(poly, rho, M))

    @pytest.mark.parametrize("rule_args", [(8, 6, 64), (8, 6, 63), (12, 8, 1024),
                                           (30, 10, 256), (30, 10, 8192)])
    def test_real_constant_norm(self, rule_args):
        # the half-circle sums are numpy's pairwise sums; a BLAS dot of the
        # columns with their multiplicities was off by up to 8.5e-15
        rule = DiskRule.make(*rule_args)
        for p in (1.0, 3.0):
            assert abs(lp_norm(TaylorFunction.from_array([0.7]), p, rule) - 0.7) <= 1e-15

    def test_overflow_raises_with_node(self):
        rule = DiskRule.make(radial_depth=8, order=4, angular_count=4)
        for unit in (1.0, np.exp(0.3j)):  # the rfft and the ifft branch
            huge = TaylorFunction.from_array(np.full(8, 1e308 * unit))  # two terms per bin
            with pytest.raises(NonFiniteSampleError) as err:
                lp_norm(huge, 2.0, rule)
            assert abs(err.value.node) < 1.0


def mp_polyval(coeffs: np.ndarray, z: complex) -> complex:
    """sum c_n z^n at 30 digits."""
    with mp.workdps(30):
        return complex(mp.polyval([mp.mpc(complex(c)) for c in coeffs[::-1]], mp.mpc(z)))


class TestTaylorEvaluation:
    """Block Horner where the points are few, Horner where they are many; both
    to 1e-13 of sum |c_n| |z|^n against mpmath."""

    @staticmethod
    def scale(coeffs: np.ndarray, z: complex) -> float:
        return float(np.sum(np.abs(coeffs) * abs(z) ** np.arange(coeffs.size)))

    ZS = np.array([0.0, 0.5, -0.3 + 0.4j, 0.999j, 0.9999 * np.exp(2.0j)])

    @pytest.mark.parametrize("size", [2, 17, 101, 4097])
    def test_block_horner_against_mpmath(self, size, rng):
        # one point at a time: fewer points than size^2
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        tf = TaylorFunction.from_array(c)
        for z in self.ZS:
            got = tf(z)
            assert isinstance(got, complex)
            assert abs(got - mp_polyval(c, z)) <= 1e-13 * self.scale(c, z)

    @pytest.mark.parametrize("size", [1, 2, 17, 40])
    def test_horner_against_mpmath(self, size, rng):
        # each point repeated so that the points number at least size^2
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        reps = -(-size * size // self.ZS.size)
        got = TaylorFunction.from_array(c)(np.repeat(self.ZS, reps))[::reps]
        for z, v in zip(self.ZS, got):
            assert abs(v - mp_polyval(c, z)) <= 1e-13 * self.scale(c, z)

    def test_shape_is_kept(self, rng):
        tf = TaylorFunction.from_array(rng.normal(size=50))
        z = 0.5 * np.exp(1j * rng.uniform(0.0, 6.0, (3, 4)))
        out = tf(z)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), tf(z.ravel()))

    def test_indicator_response_at_the_subharmonic_point(self):
        # 143361 coefficients at z_t = sqrt(1 - t), t = 2^-10, one point
        t = 2.0 ** -10
        tf = indicator_response(RadialMeasure.lebesgue(), t)
        z = math.sqrt(1.0 - t)
        c = tf.coefficients
        assert abs(tf(z) - mp_polyval(c, z)) <= 1e-13 * self.scale(c, z)
