"""The three seeded workloads, each a stream of rounds of ops.

A round holds a fixed mix of op types; the seed draws every parameter from
continuous ranges, so moment-cache keys ``(measure, N)`` repeat only where a
workload says so (``explore``, on purpose). ``verify-suite`` and
``ratio-sweep`` are one round each, so a run measures the same inputs however
fast the program is; ``explore`` is endless and runs for the time given. Ops
call the package through ``shimorin_lab.cli.main`` or its public library
names, looked up at call time so that a traced run sees them.

No op of a workload meets a known defect (``harness.KNOWN_DEFECTS``), so every
failure in a run is a new one. ``known_defect_ops`` reproduces each defect
instead; ``report.py`` and the tests run those ops and name the defects.
"""

from __future__ import annotations

import json
import math
from typing import Iterator

import numpy as np

import oracles
from harness import Checker, Op, call_cli

# Tolerances the output checks hold the program to.
MOMENT_BUDGET = 1e-10        # the package's declared relative budget for m_n
KERNEL_NORM_RTOL = 1e-8      # kernel L^2 norm vs the series (observed <= 2e-9)
ROUTE_RTOL = 1e-6            # agreement of the three operator routes
PARSEVAL_RTOL = 1e-12        # diskquad L^2 vs Parseval, exact below half the angles
ENVELOPE_SLACK = 1e-4        # the slack verify itself allows on the p-norm envelope
ANGULAR_NODES = 256          # DiskRule.make() default; degrees stay below half of it
NEAR_TWO = 1.7               # nu_alpha from here up may break the p-norm envelope (from ~1.78)
VERIFY_ALPHA = (1.1, NEAR_TWO)   # verify of nu_alpha alone stays below the envelope defect

TARGETS = {"bounded", "unbounded", "critical-line-interior", "critical-endpoint-(1,c)",
           "critical-endpoint-(c',inf)"}


# ---------------------------------------------------------------------------
# measures: JSON wire specs plus the closed-form facts the checks need
# ---------------------------------------------------------------------------

def power(kappa: float, beta: float) -> dict:
    return {"atoms": [], "densities": [{"kind": "power", "kappa": float(kappa),
                                        "beta": float(beta)}]}


def lebesgue(kappa: float = 1.0) -> dict:
    return power(kappa, 0.0)


def nu_alpha(alpha: float) -> dict:
    return {"atoms": [], "densities": [{"kind": "nu_alpha", "alpha": float(alpha)}]}


def plus(*specs: dict) -> dict:
    return {"atoms": [a for s in specs for a in s["atoms"]],
            "densities": [d for s in specs for d in s["densities"]]}


def atom(x: float, mass: float) -> dict:
    return {"atoms": [{"x": float(x), "mass": float(mass)}], "densities": []}


def tabulated(r: np.ndarray, values: np.ndarray) -> dict:
    return {"atoms": [], "densities": [{"kind": "tabulated", "r": r.tolist(),
                                        "values": values.tolist()}]}


def is_tabulated(spec: dict) -> bool:
    return any(d["kind"] == "tabulated" for d in spec["densities"])


def s0_of(spec: dict) -> float:
    """Critical exponent s0 = 2 - 2/c: closed form per component, min over the mixture.

    Tabulated densities here are bounded up to r = 1, so their s0 is 1.
    """
    s0 = []
    for a in spec["atoms"]:
        s0.append(0.0 if a["x"] == 1.0 else 1.0)
    for d in spec["densities"]:
        if d["kind"] == "power":
            s0.append(min(d["beta"] + 1.0, 1.0))
        elif d["kind"] == "nu_alpha":
            s0.append(2.0 - d["alpha"])
        else:
            s0.append(1.0)
    return min(s0)


def c_of(spec: dict) -> float:
    return 2.0 / (2.0 - s0_of(spec))


def nu_alpha_only(spec: dict) -> float | None:
    """alpha when the measure is exactly one nu_alpha density, else None."""
    dens = spec["densities"]
    if spec["atoms"] or len(dens) != 1 or dens[0]["kind"] != "nu_alpha":
        return None
    return dens[0]["alpha"]


def has_atom_at_one(spec: dict) -> bool:
    return any(a["x"] == 1.0 for a in spec["atoms"])


def name_of(spec: dict) -> str:
    parts = [f"atom({a['x']:.3g},{a['mass']:.3g})" for a in spec["atoms"]]
    for d in spec["densities"]:
        if d["kind"] == "power":
            parts.append(f"power({d['kappa']:.3g},{d['beta']:.3g})")
        elif d["kind"] == "nu_alpha":
            parts.append(f"nu_alpha({d['alpha']:.3g})")
        else:
            parts.append(f"tabulated[{len(d['r'])}]")
    return "+".join(parts)


def tags_of(spec: dict) -> frozenset:
    tags = set()
    alpha = nu_alpha_only(spec)
    if alpha is not None and alpha >= NEAR_TWO:
        tags.add("nu-alpha-near-2")
    for d in spec["densities"]:
        if d["kind"] == "tabulated":
            tags.add("tabulated")
            if d["r"][-1] == 1.0:
                tags.add("grid-r1")
    return frozenset(tags)


def index_grid(N: int) -> np.ndarray:
    """Eighth-octave index grid 0, 1, ..., 2^(k/8), ... up to and including N."""
    k = np.arange(int(8 * math.log2(max(N, 1))) + 1)
    return np.unique(np.concatenate(([0], np.floor(2.0 ** (k / 8.0)).astype(np.int64), [N])))


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def verify_op(spec: dict, seed: int) -> Op:
    argv = ["verify", "--measure", json.dumps(spec), "--suite", "all", "--seed", str(seed)]
    atom1 = has_atom_at_one(spec)

    def run() -> str:
        # exit 1 means a violated bound: the report names it, so the check reads it
        return call_cli(argv, ok_codes=(0, 1))

    def check(ck: Checker, out: str) -> None:
        report = json.loads(out)
        names = {c["check"] for c in report["checks"]}
        broken = [c.get("error") or ", ".join(f"{b['name']} margin {b['worst_margin']:.2e}"
                                              for b in c["bounds"] if not b["passed"])
                  for c in report["checks"] if not c["passed"]]
        ck.require(report["passed"] is True and not broken, "verify failed: " + ", ".join(broken))
        # the envelope and double-integral checks need nu({1}) = 0
        ck.require(("pnorm-envelope" in names) != atom1, f"check list {sorted(names)}")
    return Op(f"verify {name_of(spec)} seed={seed}", "verify", run, check, tags_of(spec))


def kernel_norm_op(spec: dict, p: float, zs: list[float]) -> Op:
    argv = ["kernel-norm", "--measure", json.dumps(spec), "--p", repr(p),
            "--z", *map(repr, zs)]
    alpha = nu_alpha_only(spec)

    def check(ck: Checker, out: str) -> None:
        _, rows = _csv(out)
        ck.require(len(rows) == len(zs), f"{len(rows)} rows for {len(zs)} z")
        for z, row in zip(zs, rows):
            norm = float(row[2])
            ck.require(norm > 0.0, f"norm {norm} at |z|={z}")
            if row[3]:
                lo, up = float(row[3]), float(row[4])
                ck.require(lo * (1.0 - ENVELOPE_SLACK) <= norm <= up * (1.0 + ENVELOPE_SLACK),
                           f"norm {norm} outside envelope [{lo}, {up}] at |z|={z}")
            if alpha is not None and p == 2.0:
                ck.compare(f"L2 kernel norm at |z|={z}", norm,
                           oracles.nu_alpha_kernel_l2(alpha, z), KERNEL_NORM_RTOL)
    return Op(f"kernel-norm {name_of(spec)} p={p:.3g} z={','.join(f'{z:.3g}' for z in zs)}",
              "kernel-norm", lambda: call_cli(argv), check, tags_of(spec))


def mn_op(spec: dict, N: int) -> Op:
    argv = ["mn", "--measure", json.dumps(spec), "--N", str(N)]

    def check(ck: Checker, out: str) -> None:
        header, rows = _csv(out)
        ck.require(header == ["n", "m_n", "claim1_lower", "claim1_upper"], f"header {header}")
        table = np.array(rows, dtype=float)
        ck.require(table.shape == (N + 1, 4), f"table shape {table.shape}")
        ck.compare(f"m_n for n <= {N}", table[:, 1], oracles.mn_spec(spec, table[:, 0]),
                   MOMENT_BUDGET)
        m, lo, up = table[:, 1], table[:, 2], table[:, 3]
        ck.require(bool(np.all(lo <= m * (1.0 + 1e-12)) and np.all(m <= up * (1.0 + 1e-12))),
                   "m_n outside its claim-1 envelope")
    return Op(f"mn {name_of(spec)} N={N}", "mn", lambda: call_cli(argv), check, tags_of(spec))


def moments_op(spec: dict, N: int) -> Op:
    """Large-N moments through the library (mn at this N on nu_alpha needs ~3 GB)."""
    n = index_grid(N)

    def run() -> str:
        import shimorin_lab as sl

        values = sl.moments_at(sl.RadialMeasure.from_spec(spec), n)
        return "".join(f"{k},{v!r}\n" for k, v in zip(n.tolist(), values.tolist()))

    def check(ck: Checker, out: str) -> None:
        got = np.array([float(line.split(",")[1]) for line in out.splitlines()])
        ck.compare(f"m_n on {n.size} indices up to {N}", got, oracles.mn_spec(spec, n),
                   MOMENT_BUDGET)
    return Op(f"moments_at {name_of(spec)} N={N}", "moments", run, check, tags_of(spec))


def ratio_scan_op(spec: dict, p: str, q: str, family: str, j: tuple[int, int],
                  weak: bool = False, expect: str | None = None) -> Op:
    argv = ["ratio-scan", "--measure", json.dumps(spec), "--p", p, "--q", q,
            "--family", family, "--j-start", str(j[0]), "--j-stop", str(j[1])]
    if weak:
        argv.append("--weak")

    def check(ck: Checker, out: str) -> None:
        _, rows = _csv(out)
        ck.require(len(rows) == j[1] - j[0] + 1, f"{len(rows)} rows")
        values = np.array([r[1:4] for r in rows], dtype=float)
        ck.require(bool(np.all(values > 0.0)), "non-positive norm or ratio")
        verdicts = {r[4] for r in rows}
        ck.require(len(verdicts) == 1, f"verdicts {verdicts}")
        if expect is not None:
            ck.require(verdicts == {expect}, f"verdict {verdicts} where {expect} is established")
    target = "weak" if weak else ("bloch" if q == "inf" else "strong")
    return Op(f"ratio-scan {family} {name_of(spec)} p={p} q={q} {target}", "ratio-scan",
              lambda: call_cli(argv), check, tags_of(spec))


def routes_op(spec: dict, coeffs: np.ndarray, z: complex) -> Op:
    """The three operator routes at one z against the closed-form multiplier."""
    def run() -> str:
        import shimorin_lab as sl

        mu = sl.RadialMeasure.from_spec(spec)
        f = sl.TaylorFunction.from_array(coeffs)
        rule = sl.DiskRule.make(22, 8, 128)
        values = (sl.apply_multiplier(mu, f)(z), sl.apply_quadrature(mu, f, z, rule),
                  sl.apply_radial(mu, f, z))
        return " ".join(repr(v) for v in values) + "\n"

    def check(ck: Checker, out: str) -> None:
        got = [complex(v) for v in out.split()]
        n = np.arange(coeffs.size)
        exact_b = oracles.mn_spec(spec, n) * coeffs
        exact = np.polyval(exact_b[::-1], z)
        scale = float(np.sum(np.abs(exact_b) * abs(z) ** n))
        # the quadrature route is a cross-check with its own 1e-6 budget, not an oracle
        for k, route in ((0, "multiplier"), (2, "radial")):
            ck.compare(f"{route} route", got[k], exact, ROUTE_RTOL, scale)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            spread = abs(got[a] - got[b]) / scale
            ck.require(spread <= ROUTE_RTOL, f"routes {a},{b} differ by {spread:.3e}")
    return Op(f"routes {name_of(spec)} deg={coeffs.size - 1} z={z:.3f}", "routes", run, check,
              tags_of(spec))


def diskquad_op(spec: dict, coeffs: np.ndarray) -> Op:
    """L^2, weak-L^2 and Bloch norms of T f on the default disk rule."""
    def run() -> str:
        import shimorin_lab as sl

        g = sl.apply_multiplier(sl.RadialMeasure.from_spec(spec),
                                sl.TaylorFunction.from_array(coeffs))
        rule = sl.DiskRule.make()
        values = (sl.lp_norm(g, 2.0, rule), sl.weak_norm(g, 2.0, rule),
                  sl.bloch_seminorm(sl.SampledFunction(g, g.derivative())))
        return " ".join(repr(v) for v in values) + "\n"

    def check(ck: Checker, out: str) -> None:
        l2, weak, bloch = map(float, out.split())
        b = oracles.mn_spec(spec, np.arange(coeffs.size)) * coeffs
        ck.compare("L2 vs Parseval", l2, oracles.parseval_l2(b), PARSEVAL_RTOL)
        ck.require(0.0 < weak <= l2 * (1.0 + 1e-12), f"weak-L2 {weak} above L2 {l2}")
        top = abs(b[0]) + float(np.sum(np.arange(b.size) * np.abs(b)))
        ck.require(abs(b[0]) * (1.0 - 1e-12) <= bloch <= top * (1.0 + 1e-12),
                   f"Bloch {bloch} outside [{abs(b[0])}, {top}]")
    return Op(f"diskquad {name_of(spec)} deg={coeffs.size - 1}", "diskquad", run, check,
              tags_of(spec))


def classify_op(spec: dict, inv_p: float, inv_q: float, on_line: bool) -> Op:
    q = "inf" if inv_q == 0.0 else repr(1.0 / inv_q)
    argv = ["classify", "--measure", json.dumps(spec), "--p", repr(1.0 / inv_p), "--q", q]
    tab = is_tabulated(spec)
    if tab:
        argv += ["--tol", "0.002"]  # the bisection brackets s0 to 1e-3
    c_true = c_of(spec)

    def check(ck: Checker, out: str) -> None:
        report = json.loads(out)
        if tab:
            ck.require(abs(report["c_nu"] - c_true) <= 2e-3 and report["attained"] == "unknown",
                       f"tabulated c_nu {report['c_nu']} attained {report['attained']}")
        else:
            ck.compare("c_nu", report["c_nu"], c_true, 1e-12)
        kind = report["verdict"]
        ck.require(kind in TARGETS, f"verdict {kind}")
        ck.require(kind.startswith("critical") == on_line,
                   f"verdict {kind} for a pair {'on' if on_line else 'off'} the critical line")
    where = "on-line" if on_line else "off-line"
    return Op(f"classify {name_of(spec)} {where}", "classify", lambda: call_cli(argv), check,
              tags_of(spec))


def region_op(c: float, resolution: int) -> Op:
    argv = ["region", "--c", repr(c), "--resolution", str(resolution)]

    def check(ck: Checker, out: str) -> None:
        _, rows = _csv(out)
        ck.require(len(rows) == resolution ** 2, f"{len(rows)} cells")
        inv_c, bad = 1.0 / c, 0
        for ip, iq, kind, _ in rows:
            ip, iq = float(ip), float(iq)
            d = iq - ip - inv_c + 1.0
            if ip < 1.0 - inv_c - 1e-9 or d > 1e-9:
                bad += kind != "bounded"
            elif d < -1e-9 and ip < 1.0 - 1e-9:
                bad += kind != "unbounded"
        ck.require(bad == 0, f"{bad} cells contradict the critical-line geometry")
    return Op(f"region c={c:.4g} res={resolution}", "region", lambda: call_cli(argv), check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Spread:
    """Even coverage of a range: a golden-ratio sequence from a seeded start.

    Each run then meets every part of a parameter's range in the same
    proportions, so run-to-run differences come from the program rather than
    from lucky draws.
    """

    STEP = 0.6180339887498949

    def __init__(self, rng: np.random.Generator):
        self.u = float(rng.random())

    def __call__(self, lo: float, hi: float) -> float:
        self.u = (self.u + self.STEP) % 1.0
        return lo + (hi - lo) * self.u

    def integer(self, lo: int, hi: int) -> int:
        """lo..hi inclusive."""
        return min(hi, int(self(lo, hi + 1)))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1_000_000))


def _coeffs(rng: np.random.Generator, degree: int) -> np.ndarray:
    return rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)


def verify_suite(rng: np.random.Generator) -> Iterator[list[Op]]:
    """Kernel-bound, one round: verify on four measure kinds, kernel norms, three routes."""
    a_verify = rng.uniform(*VERIFY_ALPHA)
    a = rng.uniform(1.1, 1.9, 2)
    a_norm = rng.uniform(1.7, 1.9)   # the hard end, where the norm is least accurate
    kappa, beta = rng.uniform(0.5, 2.0), rng.uniform(-0.75, 1.5)
    x, m1, m2 = rng.uniform(0.1, 0.9), rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0)
    r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 10))
    zs = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 10))
    f = _coeffs(rng, 20)
    yield [
        verify_op(nu_alpha(a_verify), _seed(rng)),
        kernel_norm_op(nu_alpha(a_norm), 2.0, [0.9, 0.99, 0.999]),
        verify_op(power(kappa, beta), _seed(rng)),
        *(routes_op(nu_alpha(a[1]), f, complex(z)) for z in zs),
        verify_op(plus(lebesgue(), atom(x, m1)), _seed(rng)),
        verify_op(plus(lebesgue(), nu_alpha(a[0]), atom(1.0, m2)), _seed(rng)),
    ]


DYADIC = (3, 10)   # t = 2^-3 ... 2^-10
BIG_N = 131072


def ratio_sweep(rng: np.random.Generator) -> Iterator[list[Op]]:
    """Series-bound, one round: deep indicator sweeps, coefficient families, mn at N = 2^17."""
    k = rng.uniform(0.5, 2.0, 9)
    beta_neg, beta_pos = rng.uniform(-0.75, -0.25), rng.uniform(0.25, 1.5)
    fam_beta = rng.uniform(-0.75, 1.5, 2)
    yield [
        # verdict anchors of the acceptance suite (kappa only rescales T)
        ratio_scan_op(lebesgue(k[0]), "4/3", "4", "indicator", DYADIC, expect="growing"),
        ratio_scan_op(power(k[1], 0.5), "4/3", "4", "indicator", DYADIC, expect="plateaued"),
        ratio_scan_op(power(k[2], -0.5), "1", "4/3", "indicator", DYADIC, weak=True,
                      expect="plateaued"),
        ratio_scan_op(power(k[3], -0.5), "4", "inf", "indicator", DYADIC,
                      expect="plateaued"),
        ratio_scan_op(power(k[4], fam_beta[0]), "2", "2", "power", (3, 8)),
        ratio_scan_op(power(k[5], fam_beta[1]), "2", "2", "block", (3, 8)),
        mn_op(lebesgue(k[6]), BIG_N),
        mn_op(power(k[7], beta_neg), BIG_N),
        mn_op(power(k[8], beta_pos), BIG_N),
        moments_op(nu_alpha(rng.uniform(1.1, 1.9)), BIG_N),
    ]


MN_SIZES = (64, 128, 256, 512, 1024, 2048)


def explore_pool(rng: np.random.Generator) -> list[dict]:
    """Eight measures: catalog members, mixtures, and two tabulated densities."""
    k = rng.uniform(0.5, 2.0, 4)
    grid_a = np.linspace(0.0, 1.0, int(rng.integers(17, 66)))
    s = np.linspace(0.0, 1.0, int(rng.integers(17, 66)))
    grid_b = 1.0 - (1.0 - s) ** 2   # clustered toward r = 1, ends exactly at 0 and 1
    g = rng.uniform(0.2, 2.0, 2)
    return [
        lebesgue(),
        nu_alpha(rng.uniform(1.7, 1.9)),   # the hard end for the kernel-norm oracle
        power(k[0], rng.uniform(-0.75, 1.5)),
        plus(lebesgue(), atom(rng.uniform(0.1, 0.9), k[1])),
        plus(nu_alpha(rng.uniform(1.1, 1.9)), power(k[2], rng.uniform(-0.75, 1.5))),
        plus(power(k[3], rng.uniform(-0.75, 1.5)), atom(1.0, rng.uniform(0.25, 2.0))),
        tabulated(grid_a, 0.5 + (1.0 - grid_a) ** g[0]),
        tabulated(grid_b, 1.0 + grid_b ** g[1]),
    ]


def _exponent_pair(rng: np.random.Generator, c: float, on_line: bool) -> tuple[float, float]:
    """(1/p, 1/q) on the critical line of c, or at least 0.05 away from it."""
    inv_c = 1.0 / c
    if on_line:
        inv_p = float(rng.uniform(1.0 - inv_c + 1e-3, 1.0))
        return inv_p, inv_p + inv_c - 1.0
    while True:
        inv_p, inv_q = map(float, rng.uniform(0.05, 0.95, 2))
        if abs(inv_q - inv_p - inv_c + 1.0) > 0.05:
            return inv_p, inv_q


def explore(rng: np.random.Generator) -> Iterator[list[Op]]:
    """Many short requests on a per-run pool of eight shared measures, round after round.

    The tabulated densities serve the ops that work on them today: ``classify``
    off the critical line (the bisection ladder), ``region`` and ``kernel-norm``.
    ``mn``, the diskquad ops and ``classify`` on the line meet known defects on
    them, so those ops rotate over the six other measures.
    """
    pool = explore_pool(rng)
    plain = [m for m in pool if not is_tabulated(m)]
    res, n_mn, p_norm, z_norm, degree = (Spread(rng) for _ in range(5))
    i = 0
    while True:
        member = [pool[(i + 3 * j) % len(pool)] for j in range(3)]
        other = [plain[(i + 2 * j) % len(plain)] for j in range(3)]
        on_line = i % 2 == 1 and not is_tabulated(member[0])
        p_kernel = 2.0 if nu_alpha_only(member[2]) else p_norm(1.5, 3.0)
        yield [
            classify_op(member[0], *_exponent_pair(rng, c_of(member[0]), on_line), on_line),
            region_op(c_of(member[1]), res.integer(32, 64)),
            mn_op(other[0], MN_SIZES[n_mn.integer(0, len(MN_SIZES) - 1)]),
            kernel_norm_op(member[2], p_kernel, [z_norm(0.3, 0.9)]),
            *(diskquad_op(m, _coeffs(rng, degree.integer(32, ANGULAR_NODES // 2 - 1)))
              for m in other[1:]),
        ]
        i += 1


def known_defect_ops() -> list[tuple[Op, str]]:
    """One op per known defect, with the defect it fails by today.

    Each must fail with that defect or, once the defect is fixed, pass.
    """
    tab = explore_pool(np.random.default_rng(3))[-1]
    return [(mn_op(tab, 64), "tabulated-r1-nan"),
            (diskquad_op(tab, np.ones(40)), "tabulated-r1-nan"),
            (classify_op(tab, 0.75, 0.25, True), "numpy-trapz-removed"),
            (verify_op(nu_alpha(1.85), 200853), "pnorm-envelope-upper")]


WORKLOADS = {"verify-suite": verify_suite, "ratio-sweep": ratio_sweep, "explore": explore}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    return WORKLOADS[workload](np.random.default_rng(seed))
