"""CLI surface: subcommands, measure parsing, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from shimorin_lab.cli import EXIT_CONFIG, EXIT_OK, main, parse_measure
from shimorin_lab.measure import total_mass


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "shimorin_lab.cli", *args],
                          capture_output=True, text=True)
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

    def test_mn_tabulated_inline_json(self, capsys):
        r = [i * 0.99 / 199 for i in range(200)]
        spec = {"densities": [{"kind": "tabulated", "r": r,
                               "values": [1.0 + x * x for x in r]}]}
        text = json.dumps(spec)
        assert main(["mn", "--measure", text, "--N", "16"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 18
        assert rows[1].split(",")[:2] == ["0", f"{total_mass(parse_measure(text)):.17g}"]

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
            main(["mn", "--measure", "power:1,-0.5", "--N", "64",
                  "--seed", "7", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_floats(self, capsys):
        main(["mn", "--measure", "lebesgue", "--N", "2"])
        row = capsys.readouterr().out.splitlines()[2]
        assert row.split(",")[1] == "0.75"
