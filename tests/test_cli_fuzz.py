"""Fuzzing of the input readers and of all four commands.

``parse_detections_csv`` may raise only ValueError and
``parse_annotations`` only AnnotationError, each naming the file and line;
``parse_pgm`` may raise only PgmError; and ``main`` may only return one of
its exit codes, whatever bytes its input files hold and whatever its flags
say. ``train`` and ``synth`` are fuzzed with tiny sizes only: every drawn
count or extent is either a few units or rejected before any work.
"""

import math
import re
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boostdet.boosting import LabeledSample, Stage, StrongClassifier, WeakClassifier
from boostdet.cli import FAMILIES, main, parse_detections_csv
from boostdet.dataset import AnnotationError, parse_annotations
from boostdet.features import HaarFeature
from boostdet.imaging import Rect
from boostdet.modelio import ModelFormatError, dump_model, load_model
from boostdet.pgm import PgmError, parse_pgm, save_pgm
from boostdet.synthetic import frame_sequence, training_samples

VALID_CSV = ("frame_id,x,y,w,h,margin\n"
             "f0.pgm,1,2,3,4,0.5\n"
             "f0.pgm,5,6,7,8,-1.25\n"
             "f1.pgm,0,0,32,24,2.0\n").encode("utf-8")

# pieces that sit near the edge of what the reader accepts
_PIECES = [b",", b"\n", b"\r", b" ", b"-", b"-1", b"nan", b"inf", b"1e999", b"0x1",
           b"1_0", b"\xff", b"\xc3", b"\xe2\x82", "٣".encode("utf-8"), b"9" * 5000]


@st.composite
def edited(draw, valid: bytes):
    """``valid`` after a few byte insertions, deletions and replacements."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        end = draw(st.integers(pos, min(len(data), pos + 8)))
        chunk = draw(st.sampled_from(_PIECES) | st.binary(max_size=6))
        if draw(st.booleans()):
            data[pos:end] = chunk  # replace (a deletion when chunk is empty)
        else:
            data[pos:pos] = chunk
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.binary(max_size=200) | edited(VALID_CSV))
@example(data=VALID_CSV)
@example(data=VALID_CSV + b"f2.pgm,1,2,3,4,\xff\n")
@example(data=b"\xfe" + VALID_CSV)
@example(data=VALID_CSV.replace(b"f0.pgm,1,", b"f0.pgm," + b"9" * 5000 + b",", 1))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_detections_csv_fuzz_names_path_and_line(fuzz_dir, data):
    path = fuzz_dir / "dets.csv"
    path.write_bytes(data)
    try:
        parsed = parse_detections_csv(path)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
        return
    for dets in parsed.values():
        assert dets and all(math.isfinite(d.margin) for d in dets)


@pytest.mark.parametrize("reader, kind, error", [
    (parse_detections_csv, "dets", ValueError),
    (parse_annotations, "annotations", AnnotationError),
    (load_model, "model", ModelFormatError)], ids=["detections", "annotations", "model"])
def test_parse_detections_csv_names_line_of_bad_utf8(tmp_path, valid_inputs, reader, kind,
                                                      error):
    # every text reader names the line of a byte that is not UTF-8
    valid = valid_inputs[kind]
    path = tmp_path / "input.txt"
    path.write_bytes(valid + b"f2.pgm,1,2,3,4,\xff\n")
    line = valid.count(b"\n") + 1
    with pytest.raises(error, match=rf"{re.escape(str(path))}:{line}: not UTF-8"):
        reader(path)


VALID_ANNOTATIONS = b"f0.pgm 1 2 3 4\n# a comment\nf1.pgm 0 0 32 24  # trailing\n"


@given(data=st.binary(max_size=200) | edited(VALID_ANNOTATIONS))
@example(data=VALID_ANNOTATIONS)
@example(data=VALID_ANNOTATIONS.replace(b"\n", b"\r\n") + b"f2.pgm 1 \xff 3 4\n")
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_annotations_fuzz_names_path_and_line(fuzz_dir, data):
    path = fuzz_dir / "ann.txt"
    path.write_bytes(data)
    try:
        frames = parse_annotations(path)
    except AnnotationError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
        return
    assert all(frame.boxes for frame in frames)


VALID_PGM = b"P5\n# a comment\n4 3\n255\n" + bytes(range(0, 240, 20))


@given(data=st.binary(max_size=200) | edited(VALID_PGM))
@example(data=VALID_PGM)
@settings(max_examples=200, deadline=None)
def test_parse_pgm_fuzz_raises_only_pgm_error(data):
    try:
        image = parse_pgm(data)
    except PgmError:
        return
    assert image.pixels.shape == (image.height, image.width)


def _frame_pgm(tmp_path) -> bytes:
    frame, _ = frame_sequence(1, seed=3, frame_w=36, frame_h=28)[0]
    save_pgm(frame, str(tmp_path / "frame.pgm"))
    return (tmp_path / "frame.pgm").read_bytes()


def _model_text() -> bytes:
    feature = HaarFeature(rect_a=Rect(0, 0, 8, 8), rect_b=Rect(8, 0, 8, 8), threshold=0.1)
    model = StrongClassifier(stages=(Stage(1.0, WeakClassifier(feature, 1)),))
    return dump_model(model).encode("utf-8")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    return {"model": _model_text(), "frame": _frame_pgm(root), "dets": VALID_CSV,
            "annotations": b"f0.pgm 1 2 3 4\nf1.pgm 0 0 32 24\n"}


# flag values: well-formed, out of range, non-finite, huge and not numbers at all
_values = (st.sampled_from(["0", "1", "-1", "2", "1.01", "1.25", "0.5", "1.0", "nan", "inf",
                            "-inf", "1e308", "1e-308", str(2 ** 26), str(10 ** 30),
                            str(10 ** 400), "abc", ""])
           | st.floats().map(repr) | st.integers().map(str))
_DETECT_FLAGS = ["--scale-factor", "--stride", "--min-window-w", "--bias", "--nms-iou",
                 "--workers"]


def _file_bytes(kind: str, valid_inputs):
    valid = valid_inputs[kind]
    return st.just(valid) | st.binary(max_size=64) | edited(valid)


@given(data=st.data())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_fuzz_returns_an_exit_code(fuzz_dir, valid_inputs, data):
    frames = fuzz_dir / "frames"
    frames.mkdir(exist_ok=True)
    paths = {name: fuzz_dir / name for name in ("model.txt", "dets.csv", "ann.txt",
                                                 "out.csv", "roc.csv", "pr.csv")}
    paths["model.txt"].write_bytes(data.draw(_file_bytes("model", valid_inputs)))
    (frames / "a.pgm").write_bytes(data.draw(_file_bytes("frame", valid_inputs)))
    paths["dets.csv"].write_bytes(data.draw(_file_bytes("dets", valid_inputs)))
    paths["ann.txt"].write_bytes(data.draw(_file_bytes("annotations", valid_inputs)))
    flags = data.draw(st.dictionaries(st.sampled_from(_DETECT_FLAGS), _values, max_size=4))
    detect = ["detect", "--model", str(paths["model.txt"]), "--frames", str(frames),
              "--out", str(paths["out.csv"])]
    assert main(detect + [f"{k}={v}" for k, v in flags.items()]) in (0, 1, 2)

    eval_ = ["eval", "--detections", str(paths["dets.csv"]),
             "--annotations", str(paths["ann.txt"]),
             "--roc-out", str(paths["roc.csv"]), "--pr-out", str(paths["pr.csv"])]
    iou = data.draw(st.none() | _values)
    assert main(eval_ + ([] if iou is None else [f"--iou={iou}"])) in (0, 1, 2)


@pytest.mark.parametrize("flag", ["--scale-factor=1e308", f"--stride={10 ** 30}",
                                  f"--stride={10 ** 400}", f"--scale-factor={2 ** 26}",
                                  f"--stride={2 ** 26}"],
                         ids=["scale-1e308", "stride-1e30", "stride-1e400", "scale-2^26",
                              "stride-2^26"])
def test_detect_rejects_pyramid_flags_beyond_range(tmp_path, valid_inputs, capsys, flag):
    (tmp_path / "frames").mkdir()
    (tmp_path / "frames" / "a.pgm").write_bytes(valid_inputs["frame"])
    (tmp_path / "model.txt").write_bytes(valid_inputs["model"])
    assert main(["detect", "--model", str(tmp_path / "model.txt"),
                 "--frames", str(tmp_path / "frames"), "--out", str(tmp_path / "d.csv"),
                 flag]) == 2
    assert "must lie in" in capsys.readouterr().err


# counts and extents a command accepts only when tiny, and values rejected
# before any work: never an accepted large size
_tiny = (st.sampled_from(["1", "2", "3"])
         | st.sampled_from(["-5", "-1", "0", "1", "2", "3", "abc", "", "1.5", "nan", "inf"]))
_any_int = _tiny | st.integers().map(str)  # seeds and --workers allocate nothing
_TRAIN_FLAGS = {"--rounds": _tiny, "--population": _tiny, "--generations": _tiny,
                "--stall-limit": _tiny, "--seed": _any_int, "--workers": _any_int}


@pytest.fixture(scope="module")
def crop_dirs(tmp_path_factory):
    """pos/ and neg/ with two valid canonical crops each; pos/a.pgm is redrawn."""
    root = tmp_path_factory.mktemp("crops")
    samples = training_samples(2, 2, seed=1)
    for name, sample in zip(("pos/a.pgm", "pos/b.pgm", "neg/c.pgm", "neg/d.pgm"), samples):
        (root / name).parent.mkdir(exist_ok=True)
        save_pgm(sample.window, str(root / name))
    return root, (root / "pos" / "a.pgm").read_bytes()


def _canonical_crop(data: bytes) -> bool:
    try:
        LabeledSample(parse_pgm(data), 1)
    except ValueError:
        return False
    return True


@given(data=st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_train_fuzz_returns_an_exit_code_and_names_a_bad_crop(crop_dirs, fuzz_dir, capsys,
                                                              data):
    root, valid_crop = crop_dirs
    crop = root / "pos" / "a.pgm"
    crop_data = valid_crop
    if data.draw(st.booleans()):
        crop_data = data.draw(st.binary(max_size=64) | edited(valid_crop))
    crop.write_bytes(crop_data)
    out = fuzz_dir / "model.txt"
    out.unlink(missing_ok=True)
    family = data.draw(st.sampled_from(FAMILIES + ["bogus"]))
    flags = data.draw(st.fixed_dictionaries({}, optional=_TRAIN_FLAGS))
    argv = ["train", "--family", family, "--positives", str(root / "pos"),
            "--negatives", str(root / "neg"), "--out", str(out),
            "--rounds", "2", "--population", "4", "--generations", "2"]
    argv += [f"{k}={v}" for k, v in flags.items()]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 0:
        assert load_model(out).stages
    if not _canonical_crop(crop_data):
        assert code != 0
        # crops load before training starts, so a data error is the crop's
        if code == 2:
            assert err.startswith(f"error: {crop}: "), err


_SYNTH_FLAGS = {"--positives": _tiny, "--negatives": _tiny, "--frames": _tiny,
                "--frame-width": _tiny, "--frame-height": _tiny, "--seed": _any_int}


@given(flags=st.fixed_dictionaries({}, optional=_SYNTH_FLAGS))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_synth_fuzz_rejects_before_writing(fuzz_dir, capsys, flags):
    out = fuzz_dir / "synth"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["synth", "--out", str(out), "--positives", "1", "--negatives", "1",
            "--frames", "1", "--frame-width", "40", "--frame-height", "30"]
    argv += [f"{k}={v}" for k, v in flags.items()]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    # every flag is checked up front, so synth has no data error left
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("usage error: ") and not out.exists()
    else:
        assert parse_annotations(out / "annotations.txt") is not None
        assert len(list((out / "frames").glob("*.pgm"))) == int(flags.get("--frames", 1))
