"""The summary of scripts/bench_pairs.py on made-up runs; no benchmark process starts."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, seed, pair, tree, units, setup=0.02, rss=46.0, failed=0):
    return {"workload": workload, "seed": seed, "pair": pair, "tree": tree,
            "first": (tree == "parent") == (pair % 2 == 1), "correct": failed == 0,
            "attempted": 10, "failed": failed, "units_per_s": units, "setup_s": setup,
            "peak_rss_mb": rss}


def test_summary_gives_medians_quartiles_and_wins_per_workload_and_seed():
    runs = []
    parent_units, change_units = [8.0, 7.0, 9.0, 7.5], [9.0, 8.5, 8.0, 9.5]
    for pair, (p, c) in enumerate(zip(parent_units, change_units), start=1):
        runs.append(_run("train", 0, pair, "parent", p, setup=0.020, rss=46.0))
        runs.append(_run("train", 0, pair, "change", c, setup=0.010 * pair, rss=46.5))
    runs.append(_run("train", 0, 5, "parent", 100.0))  # a pair cut short is left out
    runs += [_run("roc", 1, 1, "change", 60.0), _run("roc", 1, 1, "parent", 50.0, failed=1)]

    summary = _load_script().summarize(runs)
    assert sorted(summary) == ["roc_seed1", "train"]
    train = summary["train"]
    assert train["pairs"] == 4 and train["all_correct"] is True
    units = train["units_per_s"]
    assert units["parent_median"] == 7.75 and units["change_median"] == 8.75
    # inclusive quartiles: 7.0, 7.5, 8.0, 9.0 -> 7.375 and 8.25
    assert units["parent_quartiles"] == [7.375, 8.25]
    assert units["change_quartiles"] == [8.375, 9.125]
    assert units["change_vs_parent"] == "+12.9%"
    assert units["change_better_in_pairs"] == 3  # higher is better
    # lower is better: setup 0.01 and 0.02 against 0.02 wins once, ties do not count
    assert train["setup_s"]["change_better_in_pairs"] == 1
    assert train["peak_rss_mb"]["change_better_in_pairs"] == 0
    assert train["peak_rss_mb"]["change_vs_parent"] == "+1.1%"

    roc = summary["roc_seed1"]
    assert roc["pairs"] == 1 and roc["all_correct"] is False
    assert roc["units_per_s"]["parent_quartiles"] == [50.0, 50.0]
    assert roc["units_per_s"]["change_better_in_pairs"] == 1
