"""Tests of the benchmark itself, in tiny sizes (a few rounds and frames).

    python3 -m pytest boostbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

assert run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES


def bench_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_tiny(capsys, workload, trace=0, seed=workloads.DEFAULT_SEED):
    """Run the command in tiny sizes; returns (exit code, stdout lines, result)."""
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                   "--trace", str(trace)], sizes=workloads.TINY)
    lines = capsys.readouterr().out.splitlines()
    return rc, lines, json.loads(lines[-1])


def test_metric_lists_match_benchmark_json():
    spec = bench_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.layer_metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(capsys, workload, trace):
    rc, lines, result = run_tiny(capsys, workload, trace)
    assert rc == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = bench_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines
        if not trace:
            assert got["value"] > 0
    assert f"ops_attempted {result['attempted']}" in lines
    assert "ops_failed 0" in lines


def test_all_prints_each_workloads_figures(capsys):
    rc, lines, result = run_tiny(capsys, "all")
    assert rc == 0 and result["failed"] == 0
    names = set(result["metrics"])
    for family in tracing.FAMILIES:
        assert {f"train_rounds_per_s.{family}", f"scan_fps.{family}"} <= names
    assert {"frame_ms.p50", "detect_fps", "eval_s", "peak_rss_mb",
            "setup_s.train", "setup_s.scan", "setup_s.roc"} <= names
    for name, metric in result["metrics"].items():
        assert f"{name} {metric['value']!r} {metric['unit']}" in lines or \
            name.startswith(("setup_s.", "peak_rss_mb"))


def test_tampered_fixture_fails(capsys, tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(workloads.FIXTURE_DIR, fixtures)
    path = fixtures / "haar.model.txt"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("alpha=", "alpha=1", 1), encoding="utf-8")
    monkeypatch.setattr(workloads, "FIXTURE_DIR", str(fixtures))
    rc, lines, result = run_tiny(capsys, "scan")
    assert rc == 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("failed fixture haar.model.txt") for line in lines)


@pytest.mark.parametrize("workload, module, attr, output", [
    ("train", "boostdet.modelio", "dump_model", "train.haar.model"),
    ("scan", "boostdet.detector", "nms", "scan.haar.detections"),
    ("roc", "boostdet.cli", "nms", "roc.dets.csv"),
])
def test_tampered_output_fails(capsys, monkeypatch, workload, module, attr, output):
    mod = importlib.import_module(module)
    original = getattr(mod, attr)
    if attr == "dump_model":
        monkeypatch.setattr(mod, attr, lambda model: original(model) + "\n")
    else:
        monkeypatch.setattr(mod, attr, lambda dets, *a, **k: original(dets, *a, **k)[1:])
    rc, lines, result = run_tiny(capsys, workload)
    assert result["failed"] >= 1 and result["correct"] is False
    assert any(line.startswith(f"failed {output}: sha256") for line in lines)


def test_other_seeds_print_hashes_without_failing(capsys):
    rc, lines, result = run_tiny(capsys, "roc", seed=1)
    assert result["failed"] == 0
    assert any(line.startswith("fingerprint roc.dets.csv ") for line in lines)


def module_attributes() -> dict:
    modules = {m for m, _, _, _ in tracing.TARGETS}
    return {(m, name): value for m in modules
            for name, value in vars(importlib.import_module(m)).items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_every_wrapped_attribute(capsys, workload):
    before = module_attributes()
    rc, lines, result = run_tiny(capsys, workload, trace=1)
    assert rc == 0 and result["failed"] == 0
    after = module_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    spans = os.path.join(run.OUT_DIR, f"spans-{workload}.csv")
    with open(spans, encoding="utf-8") as fh:
        assert fh.readline().startswith("span,parent,name,")
        assert sum(1 for _ in fh) > 0
    assert any(line.startswith("self times sum to ") for line in lines)


def test_traced_run_sees_the_layers(capsys):
    rc, lines, result = run_tiny(capsys, "roc", trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["detector.nms.in.nconnex"] == metrics["detector.windows"] > 0
    assert metrics["pgm.load_pgm.calls"] == workloads.TINY.roc_frames
    assert metrics["evalkit.points"] > 0 and metrics["cli.parse_detections_csv.rows"] > 0
    assert metrics["features.eval_batch.calls.haar"] == 0


def test_untraced_run_installs_no_wrapper(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "installed", refuse)
    monkeypatch.setattr(tracing.Tracer, "__init__", refuse)
    for workload in WORKLOADS:
        rc, lines, result = run_tiny(capsys, workload)
        assert rc == 0 and result["failed"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "boostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "boostbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile(100) == 90
    assert workloads.tail_percentile(200) == 95
    assert workloads.tail_percentile(40) == 75
    assert workloads.tail_percentile(39) is None


def test_host_speed_leaves_probe_time_out_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with workloads.HostSpeed() as speed:
        mark = speed.mark()
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        raw = time.perf_counter() - mark[0]
        scaled = speed.scaled(mark)
        assert len(speed.probes) >= 3
        assert 0 < scaled / speed.factors[-1] < raw
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
