"""Command-line front end: reproducible experiments with machine-readable output.

Subcommands
-----------
classify     verdict for a measure and exponent pair (JSON)
verify       run an invariant suite against a measure (JSON report, exit 1 on
             any violated bound, with the witness point, or on a check that
             raises, with its error)
mn           CSV of n, m_n and the two-sided envelope columns
kernel-norm  CSV of |z|, p, kernel L^p norm and its envelope
ratio-scan   CSV of a dyadic t-sweep of ||T f||_q / ||f||_p with the sweep
             verdict repeated on every row
region       CSV grid of boundedness verdicts over the (1/p, 1/q) square

The --measure flag takes inline JSON ({"atoms": [...], "densities": [...]}),
@path/to/file.json, or a named shortcut: delta0, delta1, lebesgue,
nu_alpha:<alpha>, power:<kappa>,<beta>, atom:<x>,<mass>; shortcuts may be
combined with '+'. Floats print with 17 significant digits and output bytes
are reproducible; verify draws its sample points from --seed (default 0). A
request that cannot be carried out exits 2 with one 'error:' line on stderr
and writes no output.

Every float in a CSV is the bytes of CPython's "%.17g" % x. mn builds its rows
with numpy, a block of rows at a time, and leaves to '%' itself each value
whose digits it cannot certify: nan, inf, subnormals, |x| outside
[1e-200, 1e200], and values within 1e-6 of a decimal tie.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import kernel as kr
from . import testfns as tf
from .classify import (REGION_MAX_RESOLUTION, ExponentPair, region_grid, region_verdict,
                       standard_estimate)
from .diskquad import NonFiniteSampleError
from .measure import RadialMeasure, critical_index
from .multiplier import _quadrature_moments, claim1_envelope
from .multiplier import moment_prefix, moments_at

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_measure(text: str) -> RadialMeasure:
    """Inline JSON, @file, or named shortcuts joined by '+'."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return RadialMeasure.from_json(fh.read())
    if text.startswith("{"):
        return RadialMeasure.from_json(text)
    parts = [p.strip() for p in text.split("+")]
    out = None
    for part in parts:
        name, _, args = part.partition(":")
        if name == "delta0":
            m = RadialMeasure.dirac(0.0)
        elif name == "delta1":
            m = RadialMeasure.dirac(1.0)
        elif name == "lebesgue":
            m = RadialMeasure.lebesgue()
        elif name == "nu_alpha":
            m = RadialMeasure.nu_alpha(float(args))
        elif name == "power":
            kappa, beta = (float(v) for v in args.split(","))
            m = RadialMeasure.power(kappa, beta)
        elif name == "atom":
            x, mass = (float(v) for v in args.split(","))
            m = RadialMeasure.dirac(x, mass)
        else:
            raise ValueError(f"unknown measure shortcut {name!r}")
        out = m if out is None else out + m
    return out


def _parse_exponent(text: str):
    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return math.inf
    if "/" in text:
        return Fraction(text)
    value = float(text)
    return int(value) if value.is_integer() else value


def _open_out(out: str | None):
    """The --out file opened for writing, or stdout (left open on exit)."""
    if out and out != "-":
        return open(out, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _write_output(text: str, out: str | None) -> None:
    with _open_out(out) as fh:
        fh.write(text)


def _write_csv(header: list[str], rows: Iterable[Sequence], out: str | None) -> None:
    """Stream rows through csv.writer; the caller has computed them all, so an
    error that exits 2 has written nothing."""
    with _open_out(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    mu = parse_measure(args.measure)
    ci = critical_index(mu)
    pair = ExponentPair(_parse_exponent(args.p), _parse_exponent(args.q))
    verdict = region_verdict(ci.c, pair, tol=args.tol)
    report = {
        "c_nu": ci.c,
        "s0": ci.s0,
        "attained": ci.attained,
        "p": str(pair.p),
        "q": str(pair.q),
        "verdict": verdict.kind,
        "clause": verdict.clause,
    }
    if verdict.on_critical_line:
        est = standard_estimate(mu)
        report["standard_estimate"] = {
            "holds": est.holds,
            "branch": est.branch,
            "witness": est.witness.value if est.witness.is_finite else "divergent",
        }
        if verdict.endpoint_target:
            report["endpoint_target"] = verdict.endpoint_target
    _write_output(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _suite_checks(mu: RadialMeasure, suite: str, seed: int):
    """(name, thunk) pairs; each thunk returns a list of KernelBoundReports."""
    checks = []
    no_atom1 = mu.mass_at_one == 0.0

    def kernel_checks():
        yield "hermitian", lambda: [kr.hermitian_report(mu, seed)]
        yield "gap-ratio", lambda: [kr.ratio_bound_report(seed)]
        yield "universal-size", lambda: [kr.universal_size_report(mu, seed)]
        if no_atom1:
            yield "double-integral", lambda: [kr.representation_report(mu, seed)]
            yield "pnorm-envelope", lambda: kr.envelope_reports(mu, seed, n=20)
        if not isinstance(kr.cz_constants(mu), kr.CzNotApplicable):
            yield "cz-pointwise", lambda: kr.cz_pointwise_reports(mu, seed)
        # the measure enters neither this check nor gap-ratio
        yield "forelli-rudin", lambda: kr.forelli_rudin_reports(seed)

    def multiplier_checks():
        def monotone():
            seq = moment_prefix(mu, 4096)
            lhs = seq.values[1:]
            rhs = seq.values[:-1] * (1.0 + 1e-13)
            n = np.arange(1, len(seq))
            return [kr.bound_report("mn-nonincreasing", lhs, rhs, (n,))]

        def envelope():
            n = np.unique(np.geomspace(1, 10000, 40).astype(int))
            seq = moment_prefix(mu, int(n.max()))
            lo, up = claim1_envelope(mu, n)
            m = seq.values[n]
            r1 = kr.bound_report("claim1-lower", lo, m, (n,))
            # m_n may exceed I_n by rounding alone (the same sum in another
            # order when N u >= 1 on every node); within the 1e-13 allowance of
            # mn-nonincreasing the side is lifted to m_n, other margins unchanged
            near = m <= up * (1.0 + 1e-13)
            r2 = kr.bound_report("claim1-upper", m, np.where(near, np.maximum(up, m), up),
                                 (n,))
            return [r1, r2]

        def routes():
            # closed forms against the independent quadrature route
            dens = RadialMeasure(densities=mu.densities)
            n = np.unique(np.append(2 ** np.arange(14), 10000))
            quad = _quadrature_moments(dens, n)
            gap = np.abs(moments_at(dens, n) - quad)
            return [kr.bound_report("mn-routes", gap, 1e-12 * quad, (n,))]

        yield "mn-monotone", monotone
        yield "claim1-envelope", envelope
        if mu.densities:
            yield "mn-routes", routes

    def testfn_checks():
        def area():
            rows = []
            for t in (0.4, 0.1, 0.01):
                b = tf.box(t)
                rows.append(kr.bound_report(
                    f"box-area[t={t}]",
                    np.array([abs(b.area - b.quadrature_area())]),
                    np.array([1e-8 * b.area]), (np.array([t]),)))
            return rows

        yield "box-area", area
        yield "realpart-bounds", lambda: tf.realpart_bound_reports(seed, 500)
        if no_atom1:
            yield "subharmonic", lambda: [tf.subharmonic_transfer_report(mu, t, 2.0)
                                          for t in (0.25, 0.125)]

    if suite in ("kernel", "all"):
        checks.extend(kernel_checks())
    if suite in ("multiplier", "all"):
        checks.extend(multiplier_checks())
    if suite in ("testfns", "all"):
        checks.extend(testfn_checks())
    return checks


def cmd_verify(args) -> int:
    mu = parse_measure(args.measure)
    checks = _suite_checks(mu, args.suite, args.seed)

    def run(named):
        name, thunk = named
        try:
            reports = thunk()
        except Exception as exc:  # a check that cannot run fails the suite (exit 1)
            return {"check": name, "passed": False, "error": str(exc)}
        return {
            "check": name,
            "passed": all(r.passed for r in reports),
            "bounds": [
                {"name": r.bound_name, "passed": r.passed,
                 "worst_margin": r.worst_margin,
                 "witness": [str(w) for w in r.witness]}
                for r in reports
            ],
        }

    results = [run(named) for named in checks]
    report = {"measure": mu.to_spec(), "suite": args.suite, "seed": args.seed,
              "checks": results, "passed": all(r["passed"] for r in results)}
    _write_output(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VIOLATION


def cmd_mn(args) -> int:
    # imported here: compiling it is ~2.4 ms of a fresh process that runs no mn
    from ._g17 import write_rows

    mu = parse_measure(args.measure)
    seq = moment_prefix(mu, args.N)
    n = np.arange(args.N + 1)
    lo, up = claim1_envelope(mu, n)
    # N + 1 rows, the bytes of "%d,%.17g,%.17g,%.17g\n" % row, built by numpy a
    # block of rows at a time
    with _open_out(args.out) as fh:
        fh.write("n,m_n,claim1_lower,claim1_upper\n")
        write_rows(fh, n, seq.values, lo, up)
    return EXIT_OK


def cmd_kernel_norm(args) -> int:
    mu = parse_measure(args.measure)
    rows = []
    for z in args.z:
        norm = kr.kernel_lp_norm(mu, z, args.p)
        if mu.mass_at_one == 0.0 and args.p > 1.0:
            lo, up = kr.pnorm_envelope(mu, z, args.p)
            rows.append([float(z), float(args.p), norm, lo, up])
        else:
            # envelope hypotheses (no atom at 1, p > 1) fail; emit norm only
            rows.append([float(z), float(args.p), norm, "", ""])
    _write_csv(["abs_z", "p", "norm", "env_lower", "env_upper"], rows, args.out)
    return EXIT_OK


def cmd_ratio_scan(args) -> int:
    mu = parse_measure(args.measure)
    q = _parse_exponent(args.q)
    ts = [2.0 ** (-j) for j in range(args.j_start, args.j_stop + 1)]
    results, verdict = tf.ratio_sweep(mu, float(_parse_exponent(args.p)),
                                      float(q) if q != math.inf else math.inf,
                                      args.family, ts, weak=args.weak)
    rows = [[r.param, r.f_norm, r.tf_value, r.ratio, verdict] for r in results]
    _write_csv(["t", "f_norm", "tf_value", "ratio", "verdict"], rows, args.out)
    return EXIT_OK


def cmd_region(args) -> int:
    c = _parse_exponent(args.c)
    _write_csv(["inv_p", "inv_q", "verdict", "clause"], region_grid(c, args.resolution),
               args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub, measure: bool = True):
    if measure:
        sub.add_argument("--measure", required=True,
                         help="inline JSON, @file, or shortcut (see module help)")
    sub.add_argument("--out", default="-", help="output path ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shimorin-lab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sp = ap.add_subparsers(dest="command", required=True)

    c = sp.add_parser("classify", help="boundedness verdict for (p, q)")
    _add_common(c)
    c.add_argument("--p", required=True)
    c.add_argument("--q", required=True)
    c.add_argument("--tol", type=float, default=1e-9)
    c.set_defaults(func=cmd_classify)

    v = sp.add_parser("verify", help="run an invariant suite")
    _add_common(v)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--suite", choices=("kernel", "multiplier", "testfns", "all"),
                   default="all")
    v.set_defaults(func=cmd_verify)

    m = sp.add_parser("mn", help="multiplier sequence with envelope columns")
    _add_common(m)
    m.add_argument("--N", type=int, default=64)
    m.set_defaults(func=cmd_mn)

    k = sp.add_parser("kernel-norm", help="kernel L^p norms with envelope")
    _add_common(k)
    k.add_argument("--z", type=float, nargs="+", required=True, help="|z| values")
    k.add_argument("--p", type=float, default=1.5)
    k.set_defaults(func=cmd_kernel_norm)

    r = sp.add_parser("ratio-scan", help="dyadic t-sweep of ||Tf||_q/||f||_p")
    _add_common(r)
    r.add_argument("--p", default="1.3333333333333333")
    r.add_argument("--q", default="4")
    r.add_argument("--family", choices=("indicator", "aligned", "power", "block"),
                   default="indicator")
    r.add_argument("--j-start", type=int, default=3)
    r.add_argument("--j-stop", type=int, default=8,
                   help="last j of the sweep t = 2^-j; the verdict reads only "
                        "the last four t, so a short sweep can call a bounded "
                        "target growing (the weak endpoint sweep on "
                        "power:1,-0.5 at p = 1, q = 4/3 reads growing on "
                        "j = 3..6 and plateaued on 3..8)")
    r.add_argument("--weak", action="store_true", help="weak-L^q target")
    r.set_defaults(func=cmd_ratio_scan)

    g = sp.add_parser("region", help="verdict grid over the (1/p, 1/q) square")
    _add_common(g, measure=False)
    g.add_argument("--c", required=True, help="critical index (float or fraction)")
    g.add_argument("--resolution", type=int, default=64,
                   help=f"cells per side, 8 to {REGION_MAX_RESOLUTION}")
    g.set_defaults(func=cmd_region)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError, NonFiniteSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
