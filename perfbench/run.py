"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``shimorin_lab`` from ./src.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. Lines before the JSON name every failed op
with its reason and, where one applies, the known defect behind it. No op of a
workload meets a known defect, so ``correct`` is true only if no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, metric_specs  # noqa: E402

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
         "peak_rss_mb": "MB", "oracle_digits_min": "digits"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    harness.use_checkout_source()
    rounds = workloads.rounds(args.workload, args.seed)
    if args.trace:
        with Tracer() as tracer:
            results = harness.run_rounds(rounds, args.seconds)
        summary = harness.summarize(results)
        op_time = sum(r.seconds for r in results)
        out_bytes = sum(len(r.output) for r in results)
        values = tracer.metrics(op_time, summary["ops_per_s"], out_bytes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in metric_specs()}
        for key, error in sorted(tracer.hook_errors.items()):
            print(f"TRACER counter hook of {key} failed: {error}")
    else:
        setup = harness.measure_setup()
        results = harness.run_rounds(rounds, args.seconds)
        values = dict(harness.summarize(results), setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}

    for line in harness.failure_lines(results):
        print(line)
    failed = [r for r in results if r.reason is not None]
    print(f"ops {len(results)} failed {len(failed)} failed_frac {len(failed) / len(results):.4f}")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
