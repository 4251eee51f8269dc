"""Closed-loop runner: executes a workload's ops, checks every output, reports metrics.

One client sends the next op only after the previous one returned. Ops run
in-process through the package's public entry points (``cli.main(argv)`` with
stdout captured, or a public library call). Only ``Op.run`` is timed; the
output check runs afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import oracles

SRC = os.path.join("src", "shimorin_lab")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0

# Failures the program is known to produce at the commit that defined this
# benchmark. The workloads avoid them; ``workloads.known_defect_ops`` shows
# each, and a failed op whose reason matches one is reported by its name.
KNOWN_DEFECTS = {
    "numpy-trapz-removed":
        "np.trapz is gone in numpy 2.4; TabulatedDensity.mass/.tail raise AttributeError",
    "tabulated-r1-nan":
        "a tabulated grid node at r=1 makes the moment integrand 0/0 = NaN -> QuadratureError",
    "pnorm-envelope-upper":
        "verify: the kernel norm exceeds the envelope's upper side for nu_alpha with alpha near 2 "
        "at p near 1.5, inside the band [1.5, 3] where it is asserted; over six seeds the worst "
        "excess is 6e-4 at alpha = 1.8, 1.5% at 1.85 and 4.8% at 1.9, and none at 1.75",
}
# The largest excess over the envelope's upper side that the known defect
# accounts for (on nu_alpha with alpha >= workloads.NEAR_TWO); a larger one,
# or one on another measure, is a new failure.
ENVELOPE_EXCESS_MAX = 0.08


class CliExit(Exception):
    """``cli.main`` returned a nonzero exit code."""


@dataclass
class Op:
    """One request: ``run`` produces the output text, ``check`` judges it."""

    label: str
    kind: str
    run: Callable[[], str]
    check: Callable[["Checker", str], None]
    tags: frozenset = frozenset()   # input properties known defects key on


class Checker:
    """Collects oracle comparisons and failed requirements for one op."""

    def __init__(self):
        self.digits: list[float] = []
        self.reasons: list[str] = []

    def compare(self, what: str, got, ref, rtol: float, scale=None) -> None:
        """Record an oracle comparison; a relative error above ``rtol`` fails the op."""
        err = oracles.rel_error(got, ref, scale)
        self.digits.append(oracles.digits(err))
        if not err <= rtol:
            self.reasons.append(f"{what}: relative error {err:.3e} > {rtol:.1e}")

    def require(self, ok: bool, reason: str) -> None:
        if not ok:
            self.reasons.append(reason)


def explain(op: Op, reason: str) -> str | None:
    """The known defect that accounts for a failure, or None."""
    if "tabulated" in op.tags and "trapz" in reason:
        return "numpy-trapz-removed"
    if "grid-r1" in op.tags and reason.startswith("QuadratureError") and "nan" in reason:
        return "tabulated-r1-nan"
    if op.kind == "verify" and "nu-alpha-near-2" in op.tags:
        m = re.fullmatch(r"verify failed: pnorm-envelope-upper margin (\S+)", reason)
        if m and -ENVELOPE_EXCESS_MAX <= float(m.group(1)) < 0.0:
            return "pnorm-envelope-upper"
    return None


def call_cli(argv: list[str], ok_codes: tuple[int, ...] = (0,)) -> str:
    """``shimorin_lab.cli.main(argv)`` with stdout captured; other exit codes raise."""
    from shimorin_lab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in ok_codes:
        raise CliExit(f"exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def _nonfinite(text: str) -> bool:
    """True if the output holds a NaN or infinite number (JSON or CSV)."""
    try:
        doc = json.loads(text)
    except ValueError:
        for line in text.splitlines():
            for cell in line.split(","):
                try:
                    if not math.isfinite(float(cell)):
                        return True
                except ValueError:
                    continue
        return False

    def walk(x) -> bool:
        if isinstance(x, float):
            return not math.isfinite(x)
        if isinstance(x, dict):
            return any(walk(v) for v in x.values())
        if isinstance(x, list):
            return any(walk(v) for v in x)
        return False
    return walk(doc)


@dataclass
class OpResult:
    label: str
    kind: str
    seconds: float
    output: str
    reason: str | None = None
    defect: str | None = None
    digits: list[float] = field(default_factory=list)


def execute(op: Op) -> OpResult:
    """Time ``op.run``, then check its output outside the timed region."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # a failed op is data: count it, keep its time
        seconds = time.perf_counter() - start
        reason = f"{type(exc).__name__}: {exc}"[:300]
        return OpResult(op.label, op.kind, seconds, "", reason, explain(op, reason))
    seconds = time.perf_counter() - start
    checker = Checker()
    try:
        op.check(checker, output)
    except Exception as exc:
        checker.reasons.append(f"check raised {type(exc).__name__}: {exc}")
    if _nonfinite(output):
        checker.reasons.append("output holds a non-finite number")
    reason = "; ".join(checker.reasons)[:300] or None
    return OpResult(op.label, op.kind, seconds, output, reason,
                    explain(op, reason) if reason else None, checker.digits)


def run_rounds(rounds: Iterator[list[Op]], seconds: float) -> list[OpResult]:
    """Run whole rounds until ``rounds`` ends or the time is up.

    Another round starts only if, at the mean round time so far, it would end
    by ``seconds``; the first always runs.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    for count, ops in enumerate(rounds, start=1):
        results.extend(execute(op) for op in ops)
        if (time.perf_counter() - start) * (count + 1) / count > seconds:
            break
    return results


def summarize(results: list[OpResult]) -> dict[str, float]:
    """The end-to-end metrics of one run, except ``setup_s``."""
    lat = [r.seconds for r in results]
    total = sum(lat)
    digits = [d for r in results for d in r.digits]
    return {
        "ops_per_s": len(lat) / total,
        "op_p50_s": statistics.median(lat),
        # "inclusive": the quantile of the observed latencies themselves, so a run
        # of two identical rounds reads the same as a run of one
        "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8]
        if len(lat) > 1 else lat[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_digits_min": min(digits) if digits else oracles.DIGITS_CAP,
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of a fresh interpreter importing the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import shimorin_lab, shimorin_lab.cli"],
                       env=env, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def use_checkout_source() -> None:
    """Import ``shimorin_lab`` from ./src of the current checkout, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        sys.exit(f"error: {SRC} not found; run from the root of a checkout")
    sys.path.insert(0, os.path.abspath("src"))
    import shimorin_lab

    if not os.path.abspath(shimorin_lab.__file__).startswith(os.path.abspath(SRC)):
        sys.exit(f"error: imported shimorin_lab from {shimorin_lab.__file__}, not {SRC}")


def failure_lines(results: Iterable[OpResult]) -> list[str]:
    return [f"FAILED {r.label}: {r.reason} [{r.defect or 'UNEXPLAINED'}]"
            for r in results if r.reason is not None]
