"""Run every workload and print every metric by name, unit and sample count.

    python3 perfbench/report.py                       # one seed per workload, plus a traced run
    python3 perfbench/report.py --seeds 1 2 3 4 5     # medians and quartile spread over seeds
    python3 perfbench/report.py --baseline perfbench/baseline.json   # also record the results

Each run is a fresh ``run.py`` process, started from the root of the checkout,
for the ``run_seconds`` of BENCHMARK.json. The traced run uses the first seed;
its ``traced.ops_per_s`` against the untraced run of the same seed gives the
tracing overhead. Last, it runs one op per known defect (the workloads avoid
them) and prints whether each still fails with its defect.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, known_defect_ops  # noqa: E402

RUN = os.path.join(HERE, "run.py")
LAYERS = (*tracer.LAYERS, "other")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(int(trace))],
                          capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["failures"] = [line for line in lines[:-1] if line.startswith(("FAILED", "TRACER"))]
    return result


def spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median (None below two values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def openblas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, at its default."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu, l3 = platform.processor(), None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            l3 = fh.read().strip()
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": os.cpu_count(), "cpu": cpu, "l3": l3,
            "openblas_threads": openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--baseline", help="write environment, seeds and results to this JSON file")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    record = {"environment": env, "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    setup = []
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, False) for seed in args.seeds]
        setup += [r["metrics"]["setup_s"]["value"] for r in runs]
        ops = [r["attempted"] for r in runs]
        print(f"\n== {workload}: {len(runs)} run(s) x {seconds:g} s, "
              f"ops per run {ops}, failed {[r['failed'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
        entry = {"ops_per_run": ops, "failed_per_run": [r["failed"] for r in runs],
                 "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            if name == "setup_s":
                continue
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            entry["metrics"][name] = {"median": statistics.median(values),
                                      "unit": first["unit"], "spread": s}
            print(f"  {name:<18} {statistics.median(values):>14.6g} {first['unit']:<7}"
                  f" n={sum(ops)} ops" + (f"  spread {s:.3f}" if s is not None else "")
                  + (f"  runs {' '.join(f'{v:.4g}' for v in values)}" if len(values) > 1 else ""))
        failed_frac = sum(r["failed"] for r in runs) / sum(ops)
        print(f"  {'failed_frac':<18} {failed_frac:>14.6g} {'frac':<7} n={sum(ops)} ops")
        for line in sorted(set(f for r in runs for f in r["failures"]))[:40]:
            print("  " + line)
        traced = run_once(workload, args.seeds[0], seconds, True)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = runs[0]["metrics"]["ops_per_s"]["value"]
        overhead = 1.0 - m["traced.ops_per_s"] / untraced
        print(f"  traced (seed {args.seeds[0]}): ops_per_s {m['traced.ops_per_s']:.6g} 1/s,"
              f" overhead {overhead:+.1%} vs untraced")
        print("  layer shares of op time: " + ", ".join(
            f"{layer} {m[layer + '.share']:.1%}" for layer in LAYERS))
        print(f"  moment_prefix (measure, N) repeat share "
              f"{m['multiplier.moment_prefix.repeat_frac']:.3f} over "
              f"{m['multiplier.moment_prefix.calls']:.0f} calls")
        for line in traced["failures"]:
            if line.startswith("TRACER"):
                print("  " + line)
        entry["traced"] = {"overhead": overhead, "metrics": m}
        record["workloads"][workload] = entry
    print(f"\nsetup_s {statistics.median(setup):.6g} s  n={len(setup)} runs"
          f" x {harness.SETUP_REPEATS} imports"
          + (f"  spread {spread(setup):.3f}" if len(setup) > 1 else ""))
    record["setup_s"] = {"median": statistics.median(setup), "spread": spread(setup)}

    print("\nknown defects, one op each (no workload meets them):")
    harness.use_checkout_source()
    record["known_defects"] = {}
    for op, defect in known_defect_ops():
        result = harness.execute(op)
        status = "passes" if result.reason is None else \
            f"fails [{result.defect or 'UNEXPLAINED'}]: {result.reason}"
        print(f"  {defect}: {op.label}: {status}")
        record["known_defects"][op.label] = status
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
