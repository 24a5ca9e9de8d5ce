import argparse
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boostdet.boosting import LabeledSample
from boostdet.cli import build_parser, main, parse_detections_csv
from boostdet.dataset import (AnnotationError, list_pgm_files, parse_annotations, read_float,
                              read_int, write_annotations)
from boostdet.detector import Detections, ScanConfig, nms, scan
from boostdet.evalkit import GroundTruthFrame
from boostdet.features import FeatureKind
from boostdet.imaging import MAX_COORD, MAX_PIXELS, Rect
from boostdet.learner import LearnerConfig
from boostdet.modelio import parse_model
from boostdet.pgm import load_pgm, save_pgm
from boostdet.pipeline import train_detector
from conftest import constant_image, fixture_model_text

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



def test_literal_zero_update_flag_reaches_the_update(dataset, tmp_path):
    logs = {}
    for name, extra in (("default", []), ("literal", ["--literal-zero-update"])):
        assert run_train(dataset, tmp_path / f"{name}.txt", extra) == 0
        logs[name] = (tmp_path / f"{name}.txt.log.csv").read_text()
    samples = [LabeledSample(load_pgm(path), label)
               for folder, label in (("pos", 1), ("neg", -1))
               for path in list_pgm_files(dataset / folder)]
    result = train_detector(samples, 4, LearnerConfig(family=FeatureKind.HAAR,
                                                      population_size=25, generations=5,
                                                      seed=9),
                            literal_zero_update=True)
    expected = "t,epsilon,beta,alpha,bound,train_error\n" + "".join(
        f"{r.t},{r.epsilon!r},{r.beta!r},{r.alpha!r},{r.bound!r},{r.train_error!r}\n"
        for r in result.rounds)
    assert logs["literal"] == expected
    assert logs["literal"] != logs["default"]

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
    save_pgm(constant_image(8, 8, 0), pos / "a.pgm")
    save_pgm(constant_image(32, 24, 0), neg / "b.pgm")
    rc = main(["train", "--family", "haar", "--positives", str(pos),
               "--negatives", str(neg), "--rounds", "1",
               "--out", str(tmp_path / "m.txt")])
    assert rc == 2


@pytest.mark.parametrize("crop", [b"P6", b"P5\n8 8\n255\n" + bytes(64)],
                         ids=["not-p5", "wrong-size"])
def test_bad_crop_is_named_once(tmp_path, capsys, crop):
    pos = tmp_path / "pos"
    neg = tmp_path / "neg"
    pos.mkdir()
    neg.mkdir()
    (pos / "a.pgm").write_bytes(crop)
    save_pgm(constant_image(32, 24, 0), neg / "b.pgm")
    capsys.readouterr()
    rc = main(["train", "--family", "haar", "--positives", str(pos),
               "--negatives", str(neg), "--rounds", "1",
               "--out", str(tmp_path / "m.txt")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {pos / 'a.pgm'}: "), err
    assert err.count("a.pgm") == 1, err


@pytest.mark.parametrize("flag, value", [
    ("--frame-width", "0"), ("--frame-height", "-5"), ("--seed", "-1")])
def test_synth_range_errors_name_the_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--positives", "1", "--negatives", "1",
                 "--frames", "1", flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written


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
    assert parsed["f0"].margins.tolist() == [0.5, -1.25]


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
    save_pgm(constant_image(16, 12, 100), frames / "small.pgm")
    out = tmp_path / "d.csv"
    assert main(["detect", "--model", str(model), "--frames", str(frames),
                 "--out", str(out)]) == 0
    assert out.read_text() == "frame_id,x,y,w,h,margin\n"


def test_detect_rejects_a_frame_past_the_pixel_limit(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text(fixture_model_text("haar"), encoding="utf-8")
    frames = tmp_path / "huge"
    frames.mkdir()
    width = MAX_PIXELS + 1
    (frames / "wide.pgm").write_bytes(f"P5\n{width} 1\n255\n".encode("ascii") + bytes(width))
    out = tmp_path / "d.csv"
    assert main(["detect", "--model", str(model), "--frames", str(frames),
                 "--out", str(out)]) == 2
    assert f"{width} pixels, more than the {MAX_PIXELS}" in capsys.readouterr().err


@pytest.mark.parametrize("existing", [None, "frame_id,x,y,w,h,margin\nold,1,2,3,4,0.5\n"],
                         ids=["absent", "existing"])
def test_detect_failing_on_a_later_frame_writes_nothing(tmp_path, dataset, capsys, existing):
    model = tmp_path / "model.txt"
    model.write_text(fixture_model_text("haar"), encoding="utf-8")
    frames = tmp_path / "frames"
    frames.mkdir()
    good = (dataset / "frames" / "frame_0000.pgm").read_bytes()
    (frames / "a.pgm").write_bytes(good)
    (frames / "b.pgm").write_bytes(good[:-10])  # truncated payload
    out = tmp_path / "d.csv"
    if existing is not None:
        out.write_text(existing)
    argv = ["detect", "--model", str(model), "--out", str(out), "--bias", "-1"]
    assert main(argv + ["--frames", str(frames)]) == 2
    assert "b.pgm" in capsys.readouterr().err
    assert (out.read_text() if out.exists() else None) == existing
    (frames / "b.pgm").unlink()  # the first frame alone detects something
    assert main(argv + ["--frames", str(frames)]) == 0
    assert len(out.read_text().splitlines()) > 1


def test_wrong_canonical_model_rejected(tmp_path, dataset):
    bad = tmp_path / "bad.txt"
    bad.write_text("boostdet-model format=1\ncanonical 64 48\nstages 0\n")
    rc = main(["detect", "--model", str(bad), "--frames", str(dataset / "frames"),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2


def test_manifest_validates_files(tmp_path, capsys):
    pos = tmp_path / "pos"
    neg = tmp_path / "neg"
    pos.mkdir()
    neg.mkdir()
    save_pgm(constant_image(32, 24, 0), neg / "b.pgm")
    argv = ["train", "--family", "haar", "--positives", str(pos), "--negatives", str(neg),
            "--rounds", "1", "--out", str(tmp_path / "m.txt")]
    assert main(argv) == 2
    assert f"no positive crops found in {pos}" in capsys.readouterr().err

    save_pgm(constant_image(32, 24, 0), pos / "a.pgm")
    (neg / "x.pgm").mkdir()  # listed as a crop, but not a file
    assert main(argv) == 2
    assert str(neg / "x.pgm") in capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("flag, value", [
    ("--population", "1"), ("--generations", "0"), ("--stall-limit", "0"),
    ("--rounds", "0"), ("--workers", "0"), ("--generations", "abc")])
def test_train_range_errors_name_the_flag(tmp_path, capsys, flag, value):
    absent = str(tmp_path / "absent")  # reading it would be a data error, exit 2
    assert main(["train", "--family", "haar", "--positives", absent, "--negatives", absent,
                 "--rounds", "1", "--out", str(tmp_path / "m.txt"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    if value == "abc":
        assert "invalid int value: 'abc'" in err


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


def test_frame_ids_with_commas_round_trip(tmp_path, dataset, capsys):
    model = tmp_path / "model.txt"
    _one_stage_model(model)
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "a,b.pgm").write_bytes((dataset / "frames" / "frame_0000.pgm").read_bytes())
    dets = tmp_path / "d.csv"
    assert main(["detect", "--model", str(model), "--frames", str(frames),
                 "--out", str(dets), "--bias", "-2"]) == 0
    assert list(parse_detections_csv(dets)) == ["a,b.pgm"]
    ann = tmp_path / "ann.txt"
    ann.write_text("a,b.pgm 10 10 32 24\n")
    assert main(["eval", "--detections", str(dets), "--annotations", str(ann),
                 "--roc-out", str(tmp_path / "roc.csv"),
                 "--pr-out", str(tmp_path / "pr.csv")]) == 0
    assert "roc_auc" in capsys.readouterr().out


@pytest.mark.parametrize("failure", ["later frame", "out is a directory"])
def test_detect_failure_leaves_nothing_new_beside_out(tmp_path, dataset, capsys, failure):
    model = tmp_path / "model.txt"
    model.write_text(fixture_model_text("haar"), encoding="utf-8")
    frames = tmp_path / "frames"
    frames.mkdir()
    good = (dataset / "frames" / "frame_0000.pgm").read_bytes()
    (frames / "a.pgm").write_bytes(good)
    (frames / "b.pgm").write_bytes(good if failure == "out is a directory" else good[:-10])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "d.csv"
    if failure == "out is a directory":
        out.mkdir()
    else:
        out.write_text("frame_id,x,y,w,h,margin\n")
    before = sorted(os.listdir(out_dir))
    assert main(["detect", "--model", str(model), "--frames", str(frames), "--out", str(out),
                 "--bias", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == before


def test_detect_out_has_the_mode_a_plain_open_gives(tmp_path, dataset):
    model = tmp_path / "model.txt"
    model.write_text(fixture_model_text("haar"), encoding="utf-8")
    reference = tmp_path / "reference.csv"
    with open(reference, "w"):
        pass
    argv = ["detect", "--model", str(model), "--frames", str(dataset / "frames")]
    out = tmp_path / "d.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert os.stat(out).st_mode == os.stat(reference).st_mode
    # an existing file keeps its mode, as opening it for writing keeps it
    os.chmod(out, 0o640)
    assert main(argv + ["--out", str(out)]) == 0
    assert os.stat(out).st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "model.txt", "reference.csv"]


# ---------------------------------------------------------------------------
# numbers: read only in the form the package writes them
# ---------------------------------------------------------------------------

# int() takes each of these; none is what str() writes
_NOT_INTEGERS = ["1_0", "\u0663", "+3", "04", "-0", "3.0", "0x1"]
# float() takes each of these; none is what repr() writes
_NOT_FLOATS = ["1_0.5", "\u0663.5", "+0.5", ".5", "5.", "1E5", "1e5", "Infinity", "NaN", " 0.5"]


@pytest.mark.parametrize("text", _NOT_INTEGERS + [" 3"])  # a field is not stripped
@pytest.mark.parametrize("field", range(4), ids=list("xywh"))
def test_detections_csv_refuses_an_integer_detect_never_writes(tmp_path, field, text):
    box = ["1", "2", "3", "4"]
    box[field] = text
    dets = tmp_path / "dets.csv"
    dets.write_text(f"frame_id,x,y,w,h,margin\nf0.pgm,1,2,3,4,0.5\nf0.pgm,{','.join(box)},0.5\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(dets))}:3: "
                                         rf"{re.escape(repr(text))} is not an integer in the form"):
        parse_detections_csv(dets)


@pytest.mark.parametrize("text", _NOT_FLOATS)
def test_detections_csv_refuses_a_margin_detect_never_writes(tmp_path, text):
    dets = tmp_path / "dets.csv"
    dets.write_text(f"frame_id,x,y,w,h,margin\nf0.pgm,1,2,3,4,0.5\nf0.pgm,1,2,3,4,{text}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(dets))}:3: "
                                         rf"{re.escape(repr(text))} is not a float in the form"):
        parse_detections_csv(dets)


def test_detections_csv_refuses_the_row_int_and_float_would_read(tmp_path):
    # int() and float() alone read this row as box [10, 3, 3, 4] and margin 10.5
    dets = tmp_path / "dets.csv"
    dets.write_text("frame_id,x,y,w,h,margin\nf0.pgm,1_0,\u0663,+3,04,1_0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(dets))}:2: '1_0' is not an integer"):
        parse_detections_csv(dets)


@pytest.mark.parametrize("text", _NOT_INTEGERS)
@pytest.mark.parametrize("field", range(4), ids=list("xywh"))
def test_annotations_refuse_an_integer_write_annotations_never_writes(tmp_path, field, text):
    box = ["1", "2", "3", "4"]
    box[field] = text
    notes = tmp_path / "ann.txt"
    notes.write_text(f"f0.pgm 1 2 3 4\nf0.pgm {' '.join(box)}\n", encoding="utf-8")
    with pytest.raises(AnnotationError,
                       match=rf"^{re.escape(str(notes))}:2: box coordinates must be integers: "
                             rf"{re.escape(repr(text))} is not an integer in the form"):
        parse_annotations(notes)


def test_annotations_refuse_the_line_int_would_read(tmp_path):
    # int() alone reads this line as Rect(10, 3, 3, 4)
    notes = tmp_path / "ann.txt"
    notes.write_text("f0.pgm 1_0 \u0663 +3 04\n", encoding="utf-8")
    with pytest.raises(AnnotationError, match=rf"^{re.escape(str(notes))}:1: .*'1_0'"):
        parse_annotations(notes)


@given(value=st.integers(-10 ** 30, 10 ** 30))
def test_read_int_reads_what_str_writes(value):
    assert read_int(str(value)) == value


@given(value=st.floats(allow_nan=False))
def test_read_float_reads_what_repr_writes(value):
    back = read_float(repr(value))
    assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)


def test_read_float_reads_nan_for_the_callers_check():
    assert math.isnan(read_float("nan")) and math.isnan(read_float(repr(-math.nan)))


def test_detect_csv_reads_back_as_the_scan_wrote_it(tmp_path, dataset):
    model_path = tmp_path / "model.txt"
    model_path.write_text(fixture_model_text("haar"))
    dets = tmp_path / "dets.csv"
    assert main(["detect", "--model", str(model_path), "--frames", str(dataset / "frames"),
                 "--out", str(dets), "--bias=-1e9"]) == 0
    parsed = parse_detections_csv(dets)
    model = parse_model(fixture_model_text("haar"))
    cfg = ScanConfig(bias=-1e9)  # every window passes, so NMS keeps margins of both signs
    paths = list_pgm_files(dataset / "frames")
    assert list(parsed) == [os.path.basename(p) for p in paths]
    for path in paths:
        kept = nms(scan(model, load_pgm(path), cfg), overlap_threshold=0.5, input_order=True)
        got = parsed[os.path.basename(path)]
        assert np.array_equal(got.boxes, kept.boxes)
        assert got.margins.tobytes() == kept.margins.tobytes()
        assert (kept.margins < 0).any() and (kept.margins > 0).any()


def test_written_annotations_read_back(tmp_path):
    rng = np.random.default_rng(17)
    frames = []
    for k in range(5):
        xy = rng.integers(0, MAX_COORD, (6, 2))
        wh = rng.integers(1, MAX_COORD, (6, 2))
        boxes = [Rect(*map(int, (x, y, w, h))) for (x, y), (w, h) in zip(xy, wh)]
        frames.append(GroundTruthFrame(f"f{k},{k}.pgm", tuple(boxes)))
    frames.append(GroundTruthFrame("edge.pgm", (Rect(0, 0, 1, 1),
                                                Rect(*[MAX_COORD - 1] * 4))))
    notes = tmp_path / "ann.txt"
    write_annotations(frames, notes)
    assert parse_annotations(notes) == frames


def _float_flags():
    """(command, flag) for every float-typed flag of ``build_parser``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[-1]) for command, parser in sub.choices.items()
            for action in parser._actions if action.type is float]


_REQUIRED = {"detect": ["--model", "m.txt", "--frames", "f", "--out", "d.csv"],
             "eval": ["--detections", "d.csv", "--annotations", "a.txt"]}


def test_every_float_flag_is_covered():
    assert set(_float_flags()) == {("detect", "--scale-factor"), ("detect", "--bias"),
                                   ("detect", "--nms-iou"), ("eval", "--iou")}


@pytest.mark.parametrize("text", ["-1e9", "-1e-3", "-1.5e+16", "-1e-05", "-inf", "-2", "-.5"])
@pytest.mark.parametrize("command, flag", _float_flags())
def test_float_flags_take_negative_values_as_repr_writes_them(command, flag, text):
    for argv in ([flag, text], [f"{flag}={text}"]):
        args = build_parser().parse_args([command, *_REQUIRED[command], *argv])
        assert getattr(args, flag[2:].replace("-", "_")) == float(text)


@pytest.mark.parametrize("bias", ["-1e9", "-1e-3", "-inf"])
def test_negative_exponent_bias_reaches_the_data_stage(tmp_path, capsys, bias):
    # argparse alone reads "-1e9" as an unknown option and exits 1
    assert main(["detect", "--model", str(tmp_path / "missing.txt"), "--frames", str(tmp_path),
                 "--out", str(tmp_path / "d.csv"), "--bias", bias]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.txt" in err


@pytest.mark.parametrize("text", ["-x", "-e9", "-1e", "-infinity", "-nan"])
def test_a_dash_word_after_bias_stays_a_usage_error(tmp_path, capsys, text):
    assert main(["detect", "--model", str(tmp_path / "missing.txt"), "--frames", str(tmp_path),
                 "--out", str(tmp_path / "d.csv"), "--bias", text]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
