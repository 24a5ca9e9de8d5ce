"""Smoke test of scripts/desk_experiment.py at a few crops, rounds and frames."""

import importlib.util
import pathlib

from boostdet.features import FeatureKind

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "desk_experiment.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("desk_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_experiment_writes_curves_and_prints_the_table(tmp_path, capsys):
    out = tmp_path / "desk"
    rc = _load_script().main(["--out", str(out), "--rounds", "2", "--positives", "10",
                              "--negatives", "10", "--frames", "2"])
    assert rc == 0
    families = [kind.value for kind in FeatureKind]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{curve}_{family}.csv" for curve in ("roc", "pr") for family in families)
    for family in families:
        assert (out / f"roc_{family}.csv").read_text().startswith("bias,fp_per_frame,tpr\n")
        assert (out / f"pr_{family}.csv").read_text().startswith("bias,recall,precision\n")
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["family", "auc"])
    assert lines[header].split() == ["family", "auc", "tpr@0.5fp", "train_err",
                                     "train_s", "frames/s"]
    rows = lines[header + 1:header + 1 + len(families)]
    assert sorted(row.split()[0] for row in rows) == sorted(families)
    assert all(len(row.split()) == 6 for row in rows)
