import os
import re

import pytest

from boostdet.cli import main, parse_detections_csv
from boostdet.detector import MAX_COORD, Detections
from boostdet.imaging import GrayImage
from boostdet.pgm import save_pgm

FAST_TRAIN = ["--rounds", "4", "--population", "25", "--generations", "5"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out", str(root), "--positives", "25", "--negatives", "50",
               "--frames", "6", "--seed", "5"])
    assert rc == 0
    return root


def run_train(dataset, out, extra=()):
    return main(["train", "--family", "haar",
                 "--positives", str(dataset / "pos"),
                 "--negatives", str(dataset / "neg"),
                 "--seed", "9", "--out", str(out), *FAST_TRAIN, *extra])


def test_synth_layout(dataset):
    assert sorted(os.listdir(dataset)) == ["annotations.txt", "frames", "neg", "pos"]
    assert len(os.listdir(dataset / "pos")) == 25
    assert len(os.listdir(dataset / "frames")) == 6
    text = (dataset / "annotations.txt").read_text()
    assert text.splitlines()[0].startswith("frame_0000.pgm ")


def test_full_pipeline(dataset, tmp_path, capsys):
    model = tmp_path / "model.txt"
    assert run_train(dataset, model) == 0
    assert model.exists()
    log = (tmp_path / "model.txt.log.csv").read_text().splitlines()
    assert log[0] == "t,epsilon,beta,alpha,bound,train_error"
    assert len(log) >= 2

    dets = tmp_path / "dets.csv"
    rc = main(["detect", "--model", str(model), "--frames", str(dataset / "frames"),
               "--out", str(dets), "--bias", "-1.0"])
    assert rc == 0
    rows = dets.read_text().splitlines()
    assert rows[0] == "frame_id,x,y,w,h,margin"

    rc = main(["eval", "--detections", str(dets),
               "--annotations", str(dataset / "annotations.txt"),
               "--roc-out", str(tmp_path / "roc.csv"),
               "--pr-out", str(tmp_path / "pr.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "roc_auc" in out
    assert (tmp_path / "roc.csv").read_text().splitlines()[0] == "bias,fp_per_frame,tpr"
    assert (tmp_path / "pr.csv").read_text().splitlines()[0] == "bias,recall,precision"


def test_train_determinism_across_workers(dataset, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_train(dataset, a, ["--workers", "1"]) == 0
    assert run_train(dataset, b, ["--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rounds_zero_is_usage_error(dataset, tmp_path):
    rc = main(["train", "--family", "haar", "--positives", str(dataset / "pos"),
               "--negatives", str(dataset / "neg"), "--rounds", "0",
               "--out", str(tmp_path / "m.txt")])
    assert rc == 1


def test_unknown_flag_is_usage_error():
    assert main(["train", "--nope"]) == 1
    assert main(["detect"]) == 1
    assert main(["train", "--family", "bogus", "--positives", "x",
                 "--negatives", "y", "--rounds", "1", "--out", "m"]) == 1


def test_missing_files_are_data_errors(tmp_path):
    rc = main(["detect", "--model", str(tmp_path / "absent.txt"),
               "--frames", str(tmp_path), "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    rc = main(["eval", "--detections", str(tmp_path / "absent.csv"),
               "--annotations", str(tmp_path / "absent.txt")])
    assert rc == 2


def test_corrupt_model_is_data_error(tmp_path, dataset):
    bad = tmp_path / "bad.txt"
    bad.write_text("boostdet-model format=1\ncanonical 32 24\nstages 1\nstage junk\n")
    rc = main(["detect", "--model", str(bad), "--frames", str(dataset / "frames"),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2


def test_non_canonical_crop_is_data_error(tmp_path):
    pos = tmp_path / "pos"
    neg = tmp_path / "neg"
    pos.mkdir()
    neg.mkdir()
    save_pgm(GrayImage.constant(8, 8, 0), pos / "a.pgm")
    save_pgm(GrayImage.constant(32, 24, 0), neg / "b.pgm")
    rc = main(["train", "--family", "haar", "--positives", str(pos),
               "--negatives", str(neg), "--rounds", "1",
               "--out", str(tmp_path / "m.txt")])
    assert rc == 2


def test_empty_frame_dir_gives_header_only_csv(tmp_path, dataset):
    model = tmp_path / "model.txt"
    assert run_train(dataset, model) == 0
    empty = tmp_path / "frames"
    empty.mkdir()
    out = tmp_path / "dets.csv"
    assert main(["detect", "--model", str(model), "--frames", str(empty),
                 "--out", str(out)]) == 0
    assert out.read_text() == "frame_id,x,y,w,h,margin\n"


def test_eval_perfect_detections(tmp_path, capsys):
    ann = tmp_path / "ann.txt"
    ann.write_text("f0.pgm 10 10 30 20\nf1.pgm 5 5 40 30\n")
    dets = tmp_path / "dets.csv"
    dets.write_text("frame_id,x,y,w,h,margin\n"
                    "f0.pgm,10,10,30,20,2.0\n"
                    "f1.pgm,5,5,40,30,1.0\n")
    rc = main(["eval", "--detections", str(dets), "--annotations", str(ann),
               "--roc-out", str(tmp_path / "roc.csv"),
               "--pr-out", str(tmp_path / "pr.csv")])
    assert rc == 0
    assert "roc_auc 1.0" in capsys.readouterr().out
    pr_rows = (tmp_path / "pr.csv").read_text().splitlines()[1:]
    assert any(row.endswith("1.0,1.0") for row in pr_rows)


def test_eval_malformed_line_names_position(tmp_path, capsys):
    ann = tmp_path / "ann.txt"
    ann.write_text("f0.pgm 10 10 30 20\n")
    dets = tmp_path / "dets.csv"
    dets.write_text("frame_id,x,y,w,h,margin\nf0.pgm,1,2,3\n")
    assert main(["eval", "--detections", str(dets), "--annotations", str(ann)]) == 2
    assert ":2" in capsys.readouterr().err

    dets.write_text("frame_id,x,y,w,h,margin\n")
    ann.write_text("f0.pgm 10 ten 30 20\n")
    assert main(["eval", "--detections", str(dets), "--annotations", str(ann)]) == 2
    assert ":1" in capsys.readouterr().err


def test_parse_detections_round_trip(tmp_path):
    dets = tmp_path / "dets.csv"
    dets.write_text("frame_id,x,y,w,h,margin\nf0,1,2,3,4,0.5\nf0,5,6,7,8,-1.25\n")
    parsed = parse_detections_csv(dets)
    assert all(isinstance(frame, Detections) for frame in parsed.values())
    assert len(parsed["f0"]) == 2
    assert parsed["f0"][1].margin == -1.25


@pytest.mark.parametrize("value", [MAX_COORD, 10 ** 30], ids=["2^26", "10^30"])
@pytest.mark.parametrize("field", range(4), ids=list("xywh"))
def test_parse_detections_rejects_boxes_a_record_cannot_hold(tmp_path, field, value):
    edge = [MAX_COORD - 1] * 4
    beyond = edge[:field] + [value] + edge[field + 1:]
    dets = tmp_path / "dets.csv"
    rows = [f"f0,{','.join(map(str, box))},0.5\n" for box in (edge, beyond)]
    dets.write_text("frame_id,x,y,w,h,margin\n" + rows[0])
    assert parse_detections_csv(dets)["f0"].boxes.tolist() == [edge]
    dets.write_text("frame_id,x,y,w,h,margin\n" + "".join(rows))
    with pytest.raises(ValueError, match=rf"{re.escape(str(dets))}:3: "):
        parse_detections_csv(dets)


def test_learner_log_written(dataset, tmp_path):
    model = tmp_path / "model.txt"
    rc = run_train(dataset, model, ["--learner-log", str(tmp_path / "gen.csv")])
    assert rc == 0
    rows = (tmp_path / "gen.csv").read_text().splitlines()
    assert rows[0] == "round,generation,best_epsilon,mean_epsilon"
    assert len(rows) > 4
    first = rows[1].split(",")
    assert first[0] == "1" and first[1] == "0"


def test_detect_rows_in_scan_order(dataset, tmp_path):
    model = tmp_path / "model.txt"
    assert run_train(dataset, model) == 0
    dets = tmp_path / "dets.csv"
    rc = main(["detect", "--model", str(model), "--frames", str(dataset / "frames"),
               "--out", str(dets), "--bias", "-5.0"])
    assert rc == 0
    per_frame = {}
    for row in dets.read_text().splitlines()[1:]:
        fid, x, y, w, h, _ = row.split(",")
        per_frame.setdefault(fid, []).append((int(w), int(y), int(x)))
    assert per_frame
    for keys in per_frame.values():
        assert keys == sorted(keys)


def test_eval_empty_detections_gives_zero_tpr(tmp_path, capsys):
    ann = tmp_path / "ann.txt"
    ann.write_text("f0.pgm 10 10 30 20\n")
    dets = tmp_path / "dets.csv"
    dets.write_text("frame_id,x,y,w,h,margin\n")
    rc = main(["eval", "--detections", str(dets), "--annotations", str(ann),
               "--roc-out", str(tmp_path / "roc.csv"),
               "--pr-out", str(tmp_path / "pr.csv")])
    assert rc == 0
    rows = (tmp_path / "roc.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[2] == "0.0" for row in rows)


def test_detect_skips_too_small_frames(tmp_path, dataset):
    model = tmp_path / "model.txt"
    assert run_train(dataset, model) == 0
    frames = tmp_path / "tiny"
    frames.mkdir()
    save_pgm(GrayImage.constant(16, 12, 100), frames / "small.pgm")
    out = tmp_path / "d.csv"
    assert main(["detect", "--model", str(model), "--frames", str(frames),
                 "--out", str(out)]) == 0
    assert out.read_text() == "frame_id,x,y,w,h,margin\n"


def test_wrong_canonical_model_rejected(tmp_path, dataset):
    bad = tmp_path / "bad.txt"
    bad.write_text("boostdet-model format=1\ncanonical 64 48\nstages 0\n")
    rc = main(["detect", "--model", str(bad), "--frames", str(dataset / "frames"),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2


def test_manifest_validates_files(tmp_path):
    from boostdet.dataset import DatasetManifest

    pos = tmp_path / "pos"
    neg = tmp_path / "neg"
    pos.mkdir()
    neg.mkdir()
    save_pgm(GrayImage.constant(32, 24, 0), pos / "a.pgm")
    save_pgm(GrayImage.constant(32, 24, 0), neg / "b.pgm")
    m = DatasetManifest.from_dirs(str(pos), str(neg))
    assert len(m.positives) == 1 and len(m.negatives) == 1
    with pytest.raises(FileNotFoundError):
        DatasetManifest(positives=(str(pos / "missing.pgm"),), negatives=())


def _one_stage_model(path):
    from boostdet.boosting import Stage, StrongClassifier, WeakClassifier
    from boostdet.features import ControlPointsFeature
    from boostdet.modelio import save_model

    feature = ControlPointsFeature(pos_points=((0, 0),), neg_points=((1, 1),), separation=10)
    save_model(StrongClassifier(stages=(Stage(1.0, WeakClassifier(feature, 1)),)), path)


@pytest.mark.parametrize("value", ["nan", "0", "-0.5", "1.5"])
def test_bad_iou_flags_are_data_errors(tmp_path, dataset, capsys, value):
    model = tmp_path / "model.txt"
    _one_stage_model(model)
    out = tmp_path / "d.csv"
    assert main(["detect", "--model", str(model), "--frames", str(dataset / "frames"),
                 "--out", str(out), "--nms-iou", value]) == 2
    assert "--nms-iou" in capsys.readouterr().err
    assert not out.exists()

    ann = tmp_path / "ann.txt"
    ann.write_text("f0.pgm 10 10 30 20\n")
    dets = tmp_path / "dets.csv"
    dets.write_text("frame_id,x,y,w,h,margin\nf0.pgm,10,10,30,20,1.0\n")
    assert main(["eval", "--detections", str(dets), "--annotations", str(ann),
                 "--roc-out", str(tmp_path / "roc.csv"),
                 "--pr-out", str(tmp_path / "pr.csv"), "--iou", value]) == 2
    assert "--iou" in capsys.readouterr().err


@pytest.mark.parametrize("margin", ["nan", "inf", "-inf"])
def test_non_finite_margin_names_line(tmp_path, capsys, margin):
    dets = tmp_path / "dets.csv"
    dets.write_text(f"frame_id,x,y,w,h,margin\nf0.pgm,1,2,3,4,2.0\nf0.pgm,1,2,3,4,{margin}\n")
    with pytest.raises(ValueError, match=r"dets\.csv:3: margin must be finite"):
        parse_detections_csv(dets)
    ann = tmp_path / "ann.txt"
    ann.write_text("f0.pgm 1 2 3 4\n")
    assert main(["eval", "--detections", str(dets), "--annotations", str(ann),
                 "--roc-out", str(tmp_path / "roc.csv"),
                 "--pr-out", str(tmp_path / "pr.csv")]) == 2
    assert ":3" in capsys.readouterr().err
