"""The summary of scripts/bench_pairs.py on made-up runs; no benchmark process starts."""

import importlib.util
import json
import pathlib

import pytest

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


def _pairs(workload, parent_units, change_units):
    runs = []
    for pair, (p, c) in enumerate(zip(parent_units, change_units), start=1):
        runs += [_run(workload, 0, pair, "parent", p),
                 _run(workload, 0, pair, "change", c, rss=46.5)]
    return runs


BOUNDS = {"units_per_s": 0.24, "setup_s": 0.25, "peak_rss_mb": 0.15}


def test_summary_checks_each_metric_against_its_bound():
    script = _load_script()
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9, 9.9, 10.1]
    # better in 9 of 10 pairs, by far more than the parent's spread
    gain = script.summarize(_pairs("scan", parent, [11.0] * 9 + [9.0]), BOUNDS)["scan"]
    units = gain["units_per_s"]
    assert units["worse_than_parent_by"] == "-10.0%" and units["bound"] == "24%"
    assert units["within_bound"] is True and units["gain_holds"] is True
    # parent quartiles 9.9 and 10.1: a spread of 2.0% of the median 10.0
    assert units["parent_quartile_spread"] == "2.0%"
    assert units["spread_wider_than_bound"] is False
    assert "gain_holds" not in gain["setup_s"] and "gain_holds" not in gain["peak_rss_mb"]
    # lower is better: the change's 46.5 MB against 46.0 MB is 1.1% worse
    assert gain["peak_rss_mb"]["worse_than_parent_by"] == "+1.1%"
    assert gain["peak_rss_mb"]["bound"] == "15%" and gain["peak_rss_mb"]["within_bound"]

    # better in only 8 of 10 pairs: no gain, however large the medians' gap
    eight = script.summarize(_pairs("scan", parent, [11.0] * 8 + [9.0] * 2), BOUNDS)
    assert eight["scan"]["units_per_s"]["gain_holds"] is False
    # better in every pair, by less than the parent's quartile spread
    small = script.summarize(_pairs("scan", parent, [p + 0.1 for p in parent]), BOUNDS)
    assert small["scan"]["units_per_s"]["change_better_in_pairs"] == 10
    assert small["scan"]["units_per_s"]["gain_holds"] is False
    # 30% slower, past the 24% bound, with a parent spread wider than the bound
    wide = [5.0, 15.0, 5.0, 15.0, 10.0, 10.0]
    slow = script.summarize(_pairs("scan", wide, [7.0] * 6), BOUNDS)["scan"]["units_per_s"]
    assert slow["worse_than_parent_by"] == "+30.0%" and slow["within_bound"] is False
    assert slow["spread_wider_than_bound"] is True and slow["gain_holds"] is False


def test_bounds_are_read_from_the_benchmark_declaration():
    script = _load_script()
    before = script.BENCHMARK.read_bytes()
    assert script.read_bounds() == BOUNDS
    runs = _pairs("train", [9.0, 10.0], [10.0, 11.0])
    assert script.summarize(runs) == script.summarize(runs, BOUNDS)
    assert script.BENCHMARK.read_bytes() == before


@pytest.mark.parametrize("name", ["BENCH_27_vote_budget.json", "BENCH_30_masked_reductions.json"])
def test_summary_of_an_old_bench_file_gives_its_checks_written_by_hand(name):
    # the checks these files carry as ``bound_checks`` were computed by
    # hand; the script's summary of their runs gives the same values
    report = json.loads((SCRIPT.parents[1] / name).read_text(encoding="utf-8"))
    summary = _load_script().summarize(report["runs"])
    for key, metrics in report["bound_checks"].items():
        for metric, checks in metrics.items():
            assert {check: summary[key][metric][check] for check in checks} == checks, \
                (key, metric)
