"""Fuzzing of the detection-CSV reader and of the detect and eval commands.

``parse_detections_csv`` may raise only ValueError naming the file and
line, and ``main`` may only return one of its exit codes, whatever bytes
its input files hold and whatever its flags say.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boostdet.boosting import Stage, StrongClassifier, WeakClassifier
from boostdet.cli import main, parse_detections_csv
from boostdet.features import HaarFeature
from boostdet.imaging import Rect
from boostdet.modelio import dump_model
from boostdet.pgm import save_pgm
from boostdet.synthetic import frame_sequence

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


def test_parse_detections_csv_names_line_of_bad_utf8(tmp_path):
    path = tmp_path / "dets.csv"
    path.write_bytes(VALID_CSV + b"f2.pgm,1,2,3,4,\xff\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:5: "):
        parse_detections_csv(path)


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
