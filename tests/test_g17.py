"""The vectorized '%.17g' rows of `mn` against CPython's own formatting."""

import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shimorin_lab import _g17
from shimorin_lab.cli import EXIT_OK, main, parse_measure
from shimorin_lab.multiplier import claim1_envelope, moment_prefix


def rows(*columns):
    fh = io.StringIO()
    _g17.write_rows(fh, np.arange(len(columns[0])), *columns)
    return fh.getvalue()


def expected(*columns):
    return "".join(("%d" + ",%.17g" * len(columns) + "\n") % (i, *row)
                   for i, row in enumerate(zip(*(c.tolist() for c in columns))))


def assert_same(x):
    x = np.asarray(x, dtype=np.float64)
    got, want = rows(x).splitlines(), expected(x).splitlines()
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def midpoints(rng, count):
    """Doubles nearest to 17-digit decimal midpoints, and their neighbours."""
    digits = rng.integers(10 ** 16, 10 ** 17, count)
    exps = rng.integers(-215, 215, count)
    mids = np.array([float(f"{d}5e{e}") for d, e in zip(digits.tolist(), exps.tolist())])
    return np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])


def adversarial():
    rng = np.random.default_rng(20261020)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.concatenate([tens, pow2, [1e-4, 1e17, 1e-200, 1e200, 1e-225, 2.0 ** 53,
                                         1e16 - 1, 1e16 + 2, 99999999999999999.0]])
    near = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    bits = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64, endpoint=False).view(np.float64)
    x = np.concatenate([near, -near, bits, midpoints(rng, 200_000),
                        10.0 ** rng.uniform(-6, 18, 20_000),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]])
    return x


class TestFormat:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    @example([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.2250738585072e-308])
    @example([1e-225, 9.9999999999999995e-5, 1e-4, 1e16, 1e17, 99999999999999999.0])
    def test_every_float64(self, xs):
        assert_same(xs)

    # sign, biased exponent and mantissa drawn apart, so that every binade is
    # as likely as the small integers a plain 64-bit draw favours
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2047),
                              st.integers(0, 2 ** 52 - 1)), min_size=1, max_size=40))
    def test_every_bit_pattern(self, parts):
        words = [s << 63 | e << 52 | m for s, e, m in parts]
        assert_same(np.array(words, dtype=np.uint64).view(np.float64))

    def test_adversarial_million(self):
        x = adversarial()
        assert len(x) >= 10 ** 6
        assert_same(x)

    def test_midpoints_leave_the_fast_path(self):
        # within 1e-6 of a tie the rounding is '%'s; these land on both sides
        rng = np.random.default_rng(7)
        x = midpoints(rng, 2000)
        assert_same(x)
        assert not _g17._digits(np.abs(x[:2000]), _g17._tabs())[2].all()

    def test_three_columns_and_wide_indices(self):
        rng = np.random.default_rng(3)
        cols = [rng.standard_normal(5000) * 10.0 ** rng.integers(-30, 30, 5000)
                for _ in range(3)]
        n = np.arange(10 ** 12 - 2500, 10 ** 12 + 2500)
        fh = io.StringIO()
        _g17.write_rows(fh, n, *cols)
        want = "".join("%d,%.17g,%.17g,%.17g\n" % (i, a, b, c)
                       for i, a, b, c in zip(n.tolist(), *(c.tolist() for c in cols)))
        assert fh.getvalue() == want

    def test_empty(self):
        assert rows(np.zeros(0)) == ""


def _shortcuts():
    tab = ('{"densities": [{"kind": "tabulated", "r": [0, 0.2, 0.5, 0.8, 0.95, 1], '
           '"values": [1, 1.5, 0.7, 2, 3, 0.5]}]}')
    return ["delta0", "delta1", "lebesgue", "nu_alpha:1.5", "nu_alpha:1.95",
            "power:1,-0.5", "power:2.5,0.7", "atom:0.5,2", "lebesgue+atom:1,1",
            "atom:0.9,1e-300", "atom:0.5,1e-310", "atom:0.99,1e300", tab]


class TestMnBytes:
    @pytest.mark.parametrize("spec", _shortcuts())
    def test_mn_rows_are_percent_format(self, spec, capsys):
        N = 4096
        assert main(["mn", "--measure", spec, "--N", str(N)]) == EXIT_OK
        mu = parse_measure(spec)
        m = moment_prefix(mu, N).values
        lo, up = claim1_envelope(mu, np.arange(N + 1))
        want = "n,m_n,claim1_lower,claim1_upper\n" + expected(m, lo, up)
        assert capsys.readouterr().out == want

    def test_import_builds_no_table(self):
        code = ("import sys, shimorin_lab.cli; print('shimorin_lab._g17' in sys.modules); "
                "import shimorin_lab._g17 as g; print(g._tabs.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.stdout.split() == ["False", "0"], out.stderr

    def test_memory_peak_at_most_the_percent_path(self, tmp_path, monkeypatch):
        # tracemalloc peak of mn --N 131072 on Lebesgue measure, moments not
        # cached, written to a file: 9.48 MB with the per-row '%' writelines and
        # 9.48 MB with blocks of 2048 rows, whose own ~1.8 MB stays under the
        # moments' peak (blocks of 8192 rows peaked at 11.9 MB). Runs of either
        # path differ by up to ~12 KB of Python objects, hence the 64 KiB slack.
        argv = ["mn", "--measure", "lebesgue", "--N", "131072",
                "--out", str(tmp_path / "mn.csv")]

        def peak():
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(argv[:4] + ["64"] + argv[5:])  # the formatting tables, built outside
        blocks = peak()
        monkeypatch.setattr(_g17, "write_rows", lambda fh, n, *cols: fh.writelines(
            "%d,%.17g,%.17g,%.17g\n" % row for row in zip(n, *cols)))
        assert blocks <= peak() + 64 * 1024
