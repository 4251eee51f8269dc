"""CLI surface: subcommands, measure parsing, exit codes, determinism."""

import contextlib
import io
import json
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimorin_lab import kernel as kr
from shimorin_lab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, main, parse_measure
from shimorin_lab.measure import total_mass
from shimorin_lab.multiplier import claim1_envelope, moment_prefix


def run_cli(*args, max_address_space=None):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (max_address_space, max_address_space))

    proc = subprocess.run([sys.executable, "-m", "shimorin_lab.cli", *args],
                          capture_output=True, text=True,
                          preexec_fn=cap if max_address_space else None)
    return proc.returncode, proc.stdout, proc.stderr


class TestMeasureParsing:
    def test_shortcuts(self):
        assert total_mass(parse_measure("delta1")) == 1.0
        assert total_mass(parse_measure("power:2,-0.5")) == pytest.approx(4.0)
        assert total_mass(parse_measure("lebesgue+atom:1,0.5")) == pytest.approx(1.5)

    def test_inline_json(self):
        mu = parse_measure('{"densities": [{"kind": "nu_alpha", "alpha": 1.5}]}')
        assert total_mass(mu) == 1.0

    def test_file_reference(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"atoms": [{"x": 0.0, "mass": 2.0}]}')
        assert total_mass(parse_measure(f"@{path}")) == 2.0

    def test_unknown_shortcut(self):
        with pytest.raises(ValueError):
            parse_measure("gaussian")


class TestClassifyCommand:
    def test_delta1_on_diagonal(self, capsys):
        assert main(["classify", "--measure", "delta1", "--p", "2", "--q", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "critical-line-interior"
        assert report["standard_estimate"]["holds"] is True

    def test_lebesgue_critical_fails_trichotomy(self, capsys):
        main(["classify", "--measure", "lebesgue", "--p", "4/3", "--q", "4"])
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "critical-line-interior"
        assert report["standard_estimate"]["holds"] is False

    def test_nu_alpha_bounded_a(self, capsys):
        main(["classify", "--measure", "nu_alpha:1.5", "--p", "1", "--q", "1.2"])
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "bounded" and report["clause"] == "a"

    def test_bad_measure_exit_code(self):
        code, _, err = run_cli("classify", "--measure", "nope", "--p", "1", "--q", "2")
        assert code == EXIT_CONFIG and "error" in err

    @pytest.mark.parametrize("spec, field", [
        ('{"atoms":[{"x":0.5}]}', "'mass'"),
        ('{"densities":[{"kind":"power","kappa":1}]}', "'beta'"),
    ])
    def test_missing_field_exits_2_with_one_line(self, spec, field):
        code, out, err = run_cli("mn", "--measure", spec)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and field in err


class TestEmitters:
    def test_mn_header_and_first_row(self, capsys):
        main(["mn", "--measure", "lebesgue", "--N", "16"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,m_n,claim1_lower,claim1_upper"
        assert out[1].startswith("0,1,")

    def test_kernel_norm_emits_envelope(self, capsys):
        main(["kernel-norm", "--measure", "delta0", "--z", "0.5", "--p", "1.5"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "abs_z,p,norm,env_lower,env_upper"
        _, _, norm, lo, up = out[1].split(",")
        assert float(lo) <= float(norm) <= float(up)

    def test_kernel_norm_p1_emits_norm_only(self, capsys):
        # the envelope needs p > 1; the p = 1 norm is printed without it
        assert main(["kernel-norm", "--measure", "lebesgue", "--z", "0.5", "--p", "1"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1] == f"0.5,1,{kr.kernel_lp_norm(parse_measure('lebesgue'), 0.5, 1.0):.17g},,"

    def test_region_c2_geometry(self, capsys):
        main(["region", "--c", "2", "--resolution", "8"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 64
        for row in rows:
            ip, iq, kind, _ = row.split(",")
            if float(iq) > float(ip) - 0.5 or float(ip) < 0.5:
                assert kind == "bounded"

    def test_ratio_scan_verdict_column(self, capsys):
        main(["ratio-scan", "--measure", "lebesgue", "--p", "4/3", "--q", "4",
              "--family", "indicator", "--j-start", "3", "--j-stop", "7"])
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "t,f_norm,tf_value,ratio,verdict"
        ratios = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_ratio_scan_aligned_bloch(self, capsys):
        # the Bloch target runs on the aligned family's series like the others
        assert main(["ratio-scan", "--measure", "lebesgue", "--p", "4", "--q", "inf",
                     "--family", "aligned", "--j-start", "3", "--j-stop", "5"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 4
        for row in rows[1:]:
            assert all(np.isfinite(float(x)) for x in row.split(",")[:4])

    def test_mn_tabulated_inline_json(self, capsys):
        r = [i * 0.99 / 199 for i in range(200)]
        spec = {"densities": [{"kind": "tabulated", "r": r,
                               "values": [1.0 + x * x for x in r]}]}
        text = json.dumps(spec)
        assert main(["mn", "--measure", text, "--N", "16"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 18
        assert rows[1].split(",")[:2] == ["0", f"{total_mass(parse_measure(text)):.17g}"]

    def test_mn_rows_format_each_value(self, capsys):
        mu = parse_measure("nu_alpha:1.3+atom:0.5,2")
        main(["mn", "--measure", "nu_alpha:1.3+atom:0.5,2", "--N", "300"])
        m = moment_prefix(mu, 300).values
        lo, up = claim1_envelope(mu, np.arange(301))
        expect = ["n,m_n,claim1_lower,claim1_upper"]
        expect += [f"{k},{m[k]:.17g},{lo[k]:.17g},{up[k]:.17g}" for k in range(301)]
        assert capsys.readouterr().out.splitlines() == expect

    def test_out_file(self, tmp_path):
        path = tmp_path / "mn.csv"
        main(["mn", "--measure", "delta0", "--N", "4", "--out", str(path)])
        assert path.read_text().splitlines()[0] == "n,m_n,claim1_lower,claim1_upper"


class TestVerify:
    def test_delta1_kernel_suite(self, capsys):
        assert main(["verify", "--measure", "delta1", "--suite", "kernel"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_lebesgue_multiplier_suite(self, capsys):
        assert main(["verify", "--measure", "lebesgue", "--suite", "multiplier"]) == EXIT_OK

    def test_multiplier_suite_checks_both_moment_routes(self, capsys):
        for measure, has_density in (("power:1,-0.5+atom:0.5,1", True), ("delta1", False)):
            assert main(["verify", "--measure", measure, "--suite", "multiplier"]) == EXIT_OK
            checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
            assert ("mn-routes" in checks) == has_density
            if has_density:
                assert checks["mn-routes"]["passed"] is True

    def test_check_that_raises_fails_the_suite(self, capsys, monkeypatch):
        def cannot_run(*args, **kwargs):
            raise RuntimeError("cannot run")

        monkeypatch.setattr(kr, "hermitian_report", cannot_run)
        assert main(["verify", "--measure", "delta1", "--suite", "kernel"]) == EXIT_VIOLATION
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["checks"][0] == {"check": "hermitian", "passed": False,
                                       "error": "cannot run"}
        assert all(c["passed"] for c in report["checks"][1:])

    def test_claim1_upper_allows_rounding(self, capsys):
        # N u >= 1 on every node from n = 99 on: m_n and I_n are the same sum in
        # another order, and m_n once came out above I_n by 1.7e-16 relative
        spec = json.dumps({"densities": [{"kind": "tabulated", "r": [0, 0.25, 0.5, 0.75, 0.99],
                                          "values": [1, 1.2, 1.5, 2, 3]}]})
        assert main(["verify", "--suite", "multiplier", "--measure", spec]) == EXIT_OK
        checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        upper = checks["claim1-envelope"]["bounds"][1]
        assert upper["name"] == "claim1-upper" and upper["worst_margin"] == 0.0

    def test_help_exits_zero(self):
        code, out, _ = run_cli("--help")
        assert code == 0 and "shimorin-lab" in out

    def test_removed_format_flag_and_alias_exit_2(self):
        assert run_cli("classify", "--measure", "delta1", "--p", "2", "--q", "2",
                       "--format", "csv")[0] == EXIT_CONFIG
        assert run_cli("kernel-verify", "--measure", "delta1")[0] == EXIT_CONFIG


class TestDeterminism:
    def test_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["mn", "--measure", "power:1,-0.5", "--N", "64", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_floats(self, capsys):
        main(["mn", "--measure", "lebesgue", "--N", "2"])
        row = capsys.readouterr().out.splitlines()[2]
        assert row.split(",")[1] == "0.75"


# -- generated front-door inputs -------------------------------------------

_junk = st.sampled_from(["abc", None, [], -1.0, 0.0, 2.5])


def _mostly(valid):
    """Usually a valid value, sometimes one that is out of range or not a number."""
    return st.one_of(valid, valid, valid, _junk)


_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_kappa, _beta, _alpha = st.floats(0.1, 3.0), st.floats(-0.99, 2.0), st.floats(1.01, 1.99)
_grid = st.lists(_unit, min_size=2, max_size=6, unique=True).map(sorted).flatmap(
    lambda r: st.fixed_dictionaries({
        "kind": st.just("tabulated"), "r": st.just(r),
        "values": st.lists(st.floats(0.0, 5.0), min_size=len(r), max_size=len(r))}))
_density = st.one_of(
    _grid,
    st.fixed_dictionaries({"kind": st.just("power"), "kappa": _mostly(_kappa),
                           "beta": _mostly(_beta)}),
    st.fixed_dictionaries({"kind": st.just("nu_alpha"), "alpha": _mostly(_alpha)}),
    st.sampled_from([{"kind": "lebesgue"}, {"kind": "gaussian"}, {},
                     {"kind": "power", "kappa": 1.0}, {"kind": "tabulated", "r": [0, 1]}]))
_atom = st.one_of(
    st.fixed_dictionaries({"x": _mostly(_unit), "mass": _mostly(st.floats(0.01, 5.0))}),
    st.sampled_from([{"x": 0.5}, {"mass": 1.0}, {"x": "0.5", "mass": "1"}]))
_json_spec = st.one_of(
    st.fixed_dictionaries({"densities": st.lists(_density, min_size=1, max_size=2)},
                          optional={"atoms": st.lists(_atom, max_size=3)}),
    st.fixed_dictionaries({"atoms": st.lists(_atom, max_size=3)}),
).map(json.dumps)
_shortcut = st.one_of(
    st.sampled_from(["delta0", "delta1", "lebesgue", "gaussian", "atom:1,2", "atom:0,1"]),
    st.builds("nu_alpha:{}".format, _mostly(_alpha)),
    st.builds("power:{},{}".format, _mostly(_kappa), _mostly(_beta)),
    st.builds("atom:{},{}".format, _unit, _mostly(st.floats(0.01, 5.0))))
_measure = st.one_of(_json_spec, st.lists(_shortcut, min_size=1, max_size=3).map("+".join))
_exponent = st.sampled_from(["1", "4/3", "1.5", "2", "3", "inf", "0.5", "abc"])
_argv = st.one_of(
    st.tuples(_measure, _exponent, _exponent).map(
        lambda a: ["classify", "--measure", a[0], "--p", a[1], "--q", a[2]]),
    st.tuples(_measure, st.integers(0, 64)).map(
        lambda a: ["mn", "--measure", a[0], "--N", str(a[1])]),
    st.tuples(st.sampled_from(["1", "4/3", "1.5", "2", "3", "0", "x"]),
              st.one_of(st.integers(8, 16), st.integers(-1, 7))).map(
        lambda a: ["region", "--c", a[0], "--resolution", str(a[1])]),
    st.tuples(_measure, st.lists(st.floats(0.0, 0.9), min_size=1, max_size=2),
              _mostly(st.floats(1.0, 4.0))).map(
        lambda a: ["kernel-norm", "--measure", a[0], "--p", str(a[2]),
                   "--z", *map(repr, a[1])]))


class TestFrontDoor:
    def test_memory_error_exits_2_and_writes_nothing(self, tmp_path):
        # 8e11 bytes of indices; the address-space cap makes the allocation
        # fail on any overcommit policy instead of paging
        path = tmp_path / "mn.csv"
        code, out, err = run_cli("mn", "--measure", "lebesgue", "--N", "100000000000",
                                 "--out", str(path), max_address_space=4 << 30)
        assert code == EXIT_CONFIG and out == "" and not path.exists()
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_overflowing_norm_exits_2(self):
        for argv in (("ratio-scan", "--measure", "atom:0.5,1e305", "--p", "2", "--q", "2",
                      "--j-start", "3", "--j-stop", "4"),
                     ("kernel-norm", "--measure", "atom:0.999999,1e300", "--z", "0.9",
                      "--p", "2")):
            code, out, err = run_cli(*argv)
            assert code == EXIT_CONFIG and out == ""
            assert err.count("\n") == 1 and err.startswith("error: ")

    def test_oversized_region_exits_2(self):
        # rejected before any cell is computed; it used to run without end
        code, out, err = run_cli("region", "--c", "1.5", "--resolution", "100000000")
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "4096" in err

    @given(_argv)
    @settings(max_examples=150, deadline=None)
    def test_generated_requests_exit_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, by_argparse = main(argv), False
            except SystemExit as exc:  # argparse rejects a flag value: usage, exit 2
                code, by_argparse = exc.code, True
        assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            lines = err.getvalue().splitlines()
            assert out.getvalue() == ""
            assert by_argparse or (len(lines) == 1 and lines[0].startswith("error: "))
