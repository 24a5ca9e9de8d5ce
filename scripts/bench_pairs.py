#!/usr/bin/env python3
"""Alternating parent/change runs of one benchmark workload, summarized.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --seed S --pairs N --seconds T --out BENCH_x.json

Each directory is a checkout holding ``boostbench/run.py``. Pair k runs
both checkouts one after the other, the parent first in odd pairs and the
change first in even ones, and reads each run's last line of standard
output, the JSON object ``run.py`` prints. The runs are added to the
``runs`` of ``--out`` (created if missing; other keys, such as a title or
a claim written by hand, are kept), and its ``summary`` is recomputed for
every workload and seed it holds: per end-to-end metric the medians, the
inclusive quartiles, the median change and the number of pairs in which
the change was better, and the checks against the metric's ``bound`` in
``BENCHMARK.json`` (read, never written):

- ``worse_than_parent_by``: how far the change's median is worse than the
  parent's, as a share of the parent's (negative when it is better);
- ``bound`` and ``within_bound``: that share is at most the bound;
- ``parent_quartile_spread``: the distance between the parent's
  quartiles, as a share of its median, and ``spread_wider_than_bound``;
- for ``units_per_s``, ``gain_holds``: the change is better in at least
  nine tenths of the pairs, and its median is better than the parent's by
  more than the distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

# (metric, better) for each end-to-end metric of BENCHMARK.json
METRICS = (("units_per_s", "higher"), ("setup_s", "lower"), ("peak_rss_mb", "lower"))
# the metric whose gain a change may claim
CLAIMED = "units_per_s"
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def read_bounds(path: pathlib.Path = BENCHMARK) -> dict[str, float]:
    """Each end-to-end metric's ``bound`` in the benchmark declaration at ``path``."""
    with open(path, encoding="utf-8") as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` process in ``checkout``: its correctness, counts and metrics."""
    proc = subprocess.run(
        [sys.executable, os.path.join("boostbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py in {checkout} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: round(result["metrics"][name]["value"], 6) for name, _ in METRICS}}


def summary_key(workload: str, seed: int) -> str:
    return workload if seed == 0 else f"{workload}_seed{seed}"


def summarize(runs: list[dict], bounds: dict[str, float] | None = None) -> dict:
    """Per workload and seed: pairs, per-metric medians, quartiles, wins and
    the checks against each metric's share in ``bounds`` (by default
    ``BENCHMARK.json``'s)."""
    if bounds is None:
        bounds = read_bounds()
    groups: dict[str, dict[int, dict[str, dict]]] = {}
    for r in runs:
        pairs = groups.setdefault(summary_key(r["workload"], r["seed"]), {})
        pairs.setdefault(r["pair"], {})[r["tree"]] = r
    summary = {}
    for key, pairs in groups.items():
        whole = [p for _, p in sorted(pairs.items()) if {"parent", "change"} <= p.keys()]
        entry: dict = {"pairs": len(whole)}
        for name, better in METRICS:
            parent = [p["parent"][name] for p in whole]
            change = [p["change"][name] for p in whole]
            wins = sum((c > p) if better == "higher" else (c < p)
                       for p, c in zip(parent, change))
            medians = statistics.median(parent), statistics.median(change)
            low, high = _quartiles(parent)
            # the median's change toward worse, and the parent's own spread,
            # both as shares of the parent's median
            worse = (medians[1] - medians[0]) / medians[0] * (-1 if better == "higher" else 1)
            spread = (high - low) / medians[0]
            entry[name] = {
                "parent_median": round(medians[0], 6),
                "change_median": round(medians[1], 6),
                "parent_quartiles": [low, high],
                "change_quartiles": _quartiles(change),
                "change_vs_parent": f"{medians[1] / medians[0] - 1:+.1%}",
                "change_better_in_pairs": wins,
                "worse_than_parent_by": f"{worse:+.1%}",
                "bound": f"{bounds[name]:.0%}",
                "within_bound": worse <= bounds[name],
                "parent_quartile_spread": f"{spread:.1%}",
                "spread_wider_than_bound": spread > bounds[name],
            }
            if name == CLAIMED:
                entry[name]["gain_holds"] = (10 * wins >= 9 * len(whole)
                                             and -worse > spread)
        entry["all_correct"] = all(r["correct"] and r["failed"] == 0
                                   for p in whole for r in p.values())
        summary[key] = entry
    return summary


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [round(values[0], 6)] * 2
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return [round(low, 6), round(high, 6)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True, choices=("train", "scan", "roc"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            report = json.load(f)
    report.setdefault("harness", "python3 boostbench/run.py --workload W --seed S --seconds T")
    report["host"] = (f"{os.cpu_count()}-core {platform.system()} {platform.machine()}, "
                      f"Python {platform.python_version()}; one process per run")
    report.setdefault("method", "alternating pairs of the parent commit and the change, each "
                      "run in its own checkout; odd pairs run the parent first")
    runs = report.setdefault("runs", [])
    trees = {"parent": args.parent_dir, "change": args.change_dir}
    # pairs of a workload and seed already in the file keep their numbers
    done = max((r["pair"] for r in runs
                if (r["workload"], r["seed"]) == (args.workload, args.seed)), default=0)
    for pair in range(done + 1, done + args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for i, tree in enumerate(order):
            run = {"workload": args.workload, "seed": args.seed, "pair": pair, "tree": tree,
                   "first": i == 0,
                   **run_once(trees[tree], args.workload, args.seed, args.seconds)}
            runs.append(run)
            print(json.dumps(run), flush=True)
        # written after every pair, so an interrupted run keeps its whole pairs
        report["summary"] = summarize(runs)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print(json.dumps(report["summary"][summary_key(args.workload, args.seed)], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
