#!/usr/bin/env python3
"""Run one boostdet benchmark workload and print its metrics.

    python3 boostbench/run.py --workload {train,scan,roc,all} --seed N \
        --seconds S --trace {0,1}

The program is imported from ``src/`` next to this directory. Each metric
is printed as ``name value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Untraced, the metrics are the end-to-end ones of BENCHMARK.json; traced,
the per-layer ones, and the span file and per-layer table are written
under ``.boostbench-out/``. ``--workload all`` runs the three workloads
one after another, untraced, and reports each one's own figures. See
README.md in this directory for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".boostbench-out")
WORKLOAD_NAMES = ("train", "scan", "roc")

# (name, unit, better): the same list as BENCHMARK.json's end_to_end
END_TO_END = (
    ("units_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced; trace one workload at a time")
    return args


def import_program() -> bool:
    """Put this checkout's src/ first on the path; False if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "boostdet", "__init__.py")):
        print(f"error: no boostdet sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import boostdet

    if os.path.dirname(os.path.dirname(os.path.abspath(boostdet.__file__))) != SRC:
        print(f"error: imported boostdet from {boostdet.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def report(result) -> None:
    from tracing import layer_metric_specs

    ledger = result.ledger
    print(f"== workload {result.workload}")
    if not result.table:  # traced figures carry the tracing overhead
        for name, value, unit in result.named:
            print(f"{name} {value!r} {unit}")
    specs = layer_metric_specs() if result.table else END_TO_END
    for line in result.table:
        print(line)
    for name, unit, _ in specs:
        print(f"{name} {result.metrics[name]!r} {unit}")
    for name in ledger.recorded:
        print(f"fingerprint {name} {ledger.hashes[name]}")
    print(f"ops_attempted {ledger.attempted}")
    print(f"ops_failed {ledger.failed}")
    for failure in ledger.failures:
        print(f"failed {failure}")


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not import_program():
        return 2
    import workloads
    from tracing import layer_metric_specs

    sizes = sizes or workloads.FULL
    fingerprints = workloads.load_fingerprints()
    expected = (fingerprints["outputs"][sizes.mode]
                if args.seed == workloads.DEFAULT_SEED else None)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = workloads.run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        sizes, OUT_DIR, fingerprints["fixtures"], expected)
        report(result)
        results.append(result)

    if args.workload == "all":
        metrics = {}
        for r in results:
            metrics.update({n: {"value": v, "unit": u} for n, v, u in r.named})
            metrics[f"setup_s.{r.workload}"] = {"value": r.metrics["setup_s"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": workloads.peak_rss_mb(), "unit": "MB"}
    else:
        specs = layer_metric_specs() if args.trace else END_TO_END
        metrics = {n: {"value": results[0].metrics[n], "unit": u} for n, u, _ in specs}
    attempted = sum(r.ledger.attempted for r in results)
    failed = sum(r.ledger.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
